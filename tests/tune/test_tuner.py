"""AutoTuner tests: byte-identity guard and persistence.

Runners here are synthetic (FakeClock-backed cost surfaces), so every
assertion about what the tuner accepts, rejects, and persists is exact.
"""

import dataclasses

import pytest

from repro.trace.metrics import REGISTRY
from repro.tune import (
    AutoTuner,
    Knob,
    KnobSpace,
    Measurement,
    TuningCache,
    TuningKey,
    service_knob_space,
)

SPACE = KnobSpace((
    Knob("threads", (1, 2, 4), 1),
    Knob("flavor", ("a", "b"), "a"),
    Knob("chunk", (100, 200), 100),
))

KEY = TuningKey("fake", "<f4", (2, 256), "cpu-test")


def surface_runner(digest_map=None):
    """A runner over a synthetic surface: optimum threads=4, flavor=b.

    ``digest_map`` maps knob values to digests; defaults make every
    config byte-identical except non-default ``chunk`` values.
    """

    def run(config):
        cost = 1.0 / config["threads"] + (0.3 if config["flavor"] == "a" else 0.0)
        digest = "base" if config["chunk"] == 100 else f"chunk{config['chunk']}"
        return Measurement(config=dict(config), seconds=cost, digest=digest)

    return run


def test_finds_optimum_and_rejects_stream_affecting():
    tuner = AutoTuner(SPACE, seed=1, budget=32)
    report = tuner.tune(KEY, surface_runner())
    assert report.best_config["threads"] == 4
    assert report.best_config["flavor"] == "b"
    assert report.best_config["chunk"] == 100  # guard held the default
    assert report.improved
    assert report.speedup > 1.0
    assert report.rejected >= 1  # chunk=200 looked legal but flipped bytes
    assert report.digest == "base"


def test_rejection_bumps_the_metric():
    before = REGISTRY.counter("hpdr_tune_rejected_total").value(codec="fake")
    tuner = AutoTuner(SPACE, seed=1, budget=32)
    report = tuner.tune(KEY, surface_runner())
    after = REGISTRY.counter("hpdr_tune_rejected_total").value(codec="fake")
    assert after - before == report.rejected


def test_persists_only_byte_identical_winner(tmp_path):
    cache = TuningCache(tmp_path / "t.json")
    tuner = AutoTuner(SPACE, seed=1, budget=32)
    report = tuner.tune(KEY, surface_runner(), cache=cache, source="unit")
    entry = cache.get(KEY)
    assert entry is not None
    assert entry.config == report.best_config
    assert entry.digest == "base"
    assert entry.source == "unit"
    assert entry.speedup == pytest.approx(report.speedup)


def test_runner_without_digest_is_an_error():
    def bad(config):
        return Measurement(config=dict(config), seconds=1.0, digest="")

    with pytest.raises(ValueError, match="digest"):
        AutoTuner(SPACE, seed=0).tune(KEY, bad)


def test_budget_bounds_evaluations():
    calls = []

    def run(config):
        calls.append(config)
        return surface_runner()(config)

    AutoTuner(SPACE, seed=0, budget=3).tune(KEY, run)
    # Baseline + at most budget candidate runs (default re-asks replay
    # the baseline without calling the runner again).
    assert len(calls) <= 4


def test_worse_everywhere_keeps_the_default(tmp_path):
    def run(config):
        default = SPACE.default_config()
        cost = 1.0 if config == default else 2.0
        return Measurement(config=dict(config), seconds=cost, digest="base")

    cache = TuningCache(tmp_path / "t.json")
    report = AutoTuner(SPACE, seed=0, budget=16).tune(KEY, run, cache=cache)
    assert report.best_config == SPACE.default_config()
    assert not report.improved
    assert report.speedup == pytest.approx(1.0)
    assert cache.get(KEY).config == SPACE.default_config()


# ---------------------------------------------------------------------------
# TuneReport.entry round-trips through the cache file
# ---------------------------------------------------------------------------
def test_report_entry_round_trip(tmp_path):
    tuner = AutoTuner(SPACE, seed=2, budget=16)
    report = tuner.tune(KEY, surface_runner())
    entry = report.entry(source="round-trip")
    cache = TuningCache(tmp_path / "t.json")
    cache.put(KEY, entry)
    assert cache.get(KEY) == dataclasses.replace(entry)


def test_service_knob_space_defaults_match_serve():
    from repro.serve import BatchLimits

    defaults = service_knob_space().default_config()
    limits = BatchLimits()
    assert defaults["max_batch"] == limits.max_batch
    assert defaults["max_bytes"] == limits.max_bytes
    assert defaults["max_latency_ms"] == pytest.approx(
        limits.max_latency_s * 1e3)
