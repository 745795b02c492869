"""Serve startup × tuning cache: hit, miss, and stale-schema paths.

The contract under test: a service started with ``tune="auto"``
consults the injected tuning cache *before* building any worker — a
hit rewrites the micro-batch limits and worker device, a miss (or a
cache written by a different schema version) leaves the config exactly
as handed in and the service still serves correctly.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import BatchLimits, CodecSpec, ReductionService, ServiceConfig
from repro.trace.metrics import REGISTRY
from repro.tune import (
    CACHE_VERSION,
    TuneEntry,
    TuningCache,
    TuningKey,
    service_knob_space,
)

TUNED = {
    "max_batch": 64,
    "max_bytes": 16 << 20,
    "max_latency_ms": 5.0,
    "adapter": "serial",
    "threads": 1,
}


def seed_cache(path):
    cache = TuningCache(path)
    cache.put(
        TuningKey.for_service(),
        TuneEntry(config=dict(TUNED), cost_s=0.5, default_cost_s=0.9,
                  digest="d", source="test"),
    )
    return cache


def run_service(cfg):
    """Start the service, compress once, return the started config."""
    spec = CodecSpec("zfp-x")
    data = np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16)

    async def drive():
        async with ReductionService(cfg) as svc:
            blob = await svc.compress(spec, data)
            return svc.config, bytes(blob)

    started_cfg, blob = asyncio.run(drive())
    want = bytes(spec.build().compress(data))
    assert blob == want  # tuning must never change served bytes
    return started_cfg


def test_hit_rewrites_limits_and_device(tmp_path):
    assert service_knob_space().contains(TUNED)
    seed_cache(tmp_path / "t.json")
    cfg = ServiceConfig(tune="auto", tuning_cache=str(tmp_path / "t.json"))
    started = run_service(cfg)
    assert started.limits.max_batch == 64
    assert started.limits.max_bytes == 16 << 20
    assert started.limits.max_latency_s == pytest.approx(0.005)
    assert started.adapter == "serial"


def test_miss_leaves_config_untouched(tmp_path):
    before = REGISTRY.counter(
        "hpdr_tune_cache_misses_total").value(codec="__service__")
    cfg = ServiceConfig(tune="auto",
                        tuning_cache=str(tmp_path / "absent.json"))
    started = run_service(cfg)
    assert started.limits == BatchLimits()
    assert started.adapter == "serial"
    assert REGISTRY.counter(
        "hpdr_tune_cache_misses_total").value(codec="__service__") > before


def test_stale_schema_version_falls_back(tmp_path):
    path = tmp_path / "t.json"
    seed_cache(path)
    record = json.loads(path.read_text())
    record["version"] = CACHE_VERSION + 1  # written by a future repro
    path.write_text(json.dumps(record))

    invalid_before = REGISTRY.counter("hpdr_tune_cache_invalid_total").total()
    cfg = ServiceConfig(tune="auto", tuning_cache=str(path))
    started = run_service(cfg)
    assert started.limits == BatchLimits()  # defaults, not the stale entry
    assert REGISTRY.counter(
        "hpdr_tune_cache_invalid_total").total() > invalid_before


def test_off_never_touches_the_cache(tmp_path):
    seed_cache(tmp_path / "t.json")
    cfg = ServiceConfig(tune="off", tuning_cache=str(tmp_path / "t.json"))
    started = run_service(cfg)
    assert started.limits == BatchLimits()


def test_service_key_keeps_the_thread_spelling():
    # Caches written while the service had a second worker mode still
    # hit: the one service key is the thread key it was then.
    assert str(TuningKey.for_service(backend="x")) == "__service__|*|0x0|serve-thread-x"


def test_bad_tune_mode_rejected():
    with pytest.raises(ValueError):
        ServiceConfig(tune="sometimes")
