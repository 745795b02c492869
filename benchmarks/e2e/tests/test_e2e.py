"""Self-tests of the end-to-end benchmark: run with

    python -m pytest benchmarks/e2e/tests -q

They check the benchmark, not the program: that every metric is reported
under a legal name, that wrong outputs are counted as failures, that
exact metrics are functions of the seed, and that span accounting adds up.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
from spans import DETAIL, Recorder

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
ALL_EIGHT = END_TO_END + ["max_err_frac", "failed_frac"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_py(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(E2E / "run.py"), *argv],
                          capture_output=True, text=True, timeout=170)


def one_pass(cls, seed: int, tmp_path, traced: bool = False):
    """Run ``cls`` in-process for exactly one pass over its inputs."""
    rec = Recorder() if traced else None
    workload = cls(seed, rec)
    rnd = types.SimpleNamespace(seconds=0.0, setup_only=False,
                                scratch=tmp_path, ready=lambda: None)
    return workload, workload.execute(rnd)


@pytest.fixture
def short_direct(monkeypatch):
    monkeypatch.setattr(workloads.DirectField, "PASS", 2)
    return workloads.DirectField


@pytest.fixture
def short_archive(monkeypatch):
    monkeypatch.setattr(workloads.ArchiveRW, "SHAPES", workloads.ArchiveRW.SHAPES[:2])
    monkeypatch.setattr(workloads.ArchiveRW, "PASS", 2)
    return workloads.ArchiveRW


# -- the declared contract ---------------------------------------------------
def test_benchmark_json_names_and_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_smoke_suite_reports_every_metric_for_every_workload(tmp_path):
    out = tmp_path / "suite.json"
    done = run_py("--smoke", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    suite = json.loads(out.read_text())
    assert set(suite["env"]) >= {"nproc", "python", "numpy"} and suite["commit"]
    assert list(suite["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in suite["workloads"].items():
        assert list(entry["metrics"]) == ALL_EIGHT, name
        assert entry["failed"] == 0 and entry["samples"] > 0
        assert entry["metrics"]["max_err_frac"]["median"] <= 1.0
        assert all(entry["metrics"][m]["median"] > 0 for m in END_TO_END), name
        for metric in ALL_EIGHT:   # printed by name, with its unit
            assert re.search(rf"^{re.escape(metric)}\s+\S+.*\s{re.escape(entry['metrics'][metric]['unit'])}$",
                             done.stdout, re.M), metric


@pytest.mark.parametrize("trace,expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_round_prints_the_contract_line(trace, expected):
    done = run_py("--workload", "served_small", "--seed", "3", "--seconds", "1",
                  "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == expected
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())
    if trace == "1":
        layers = last["metrics"]
        assert 7 <= layers["serve.mean_batch_size"]["value"] <= 8
        assert layers["io.put_ms"]["value"] == 0 == layers["cluster.route_us"]["value"]
        assert (E2E / "out" / "trace-served_small-seed3.json").exists()


def test_no_program_no_result(tmp_path):
    """Outside a checkout that holds ``src/`` the benchmark refuses to run."""
    import shutil
    bare = tmp_path / "bare"
    shutil.copytree(E2E, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "direct_field",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()


# -- wrong outputs are failures ----------------------------------------------
def test_bit_flip_in_a_stored_blob_is_a_failed_op(short_archive, tmp_path, monkeypatch):
    clean, outcome = one_pass(short_archive, 1, tmp_path)
    assert outcome["meter"].failed == 0

    class FlippingWriter(workloads.StepWriter):
        def close(self):
            stats = super().close()
            subfile = self._writer.path / "data.0"
            blob = bytearray(subfile.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            subfile.write_bytes(bytes(blob))
            return stats

    monkeypatch.setattr(workloads, "StepWriter", FlippingWriter)
    # Set-up's warm-up op already trips over the flipped byte; the measured
    # ops must all be counted as failed, not crash the round.
    broken, outcome = one_pass(short_archive, 1, tmp_path)
    meter = outcome["meter"]
    assert meter.failed == meter.attempted == 2 and broken.first_error


def test_bit_flip_in_a_served_response_is_a_failed_op(tmp_path, monkeypatch):
    real = workloads.BlastClient.request
    flips = {"n": 0}

    async def flipping(self, op, spec, payload):
        out = await real(self, op, spec, payload)
        if op == "compress":
            flips["n"] += 1
            if flips["n"] % 5 == 0:
                out = bytearray(out)
                out[-1] ^= 0x80
                out = bytes(out)
        return out

    monkeypatch.setattr(workloads.BlastClient, "request", flipping)
    monkeypatch.setattr(workloads.ServedSmall, "WARM_EACH", 0)
    rnd = types.SimpleNamespace(seconds=0.2, setup_only=False, scratch=tmp_path,
                                ready=lambda: None)
    workload = workloads.ServedSmall(1, None)
    meter = workload.execute(rnd)["meter"]
    assert 0 < meter.failed < meter.attempted
    assert "differs from the direct codec" in workload.first_error \
        or "Error" in workload.first_error


# -- exact metrics are functions of the seed -----------------------------------
def exact_view(workload, outcome) -> dict:
    layers = outcome["layers"]
    return {"stored_frac": workload.stored_frac(),
            "max_err_frac": workload.ledger.max_err_frac,
            "digest": workload.ledger.digest,
            **{k: layers[k] for k in ("adapters.gem_launches", "adapters.dem_launches",
                                      "adapters.map_tasks", "core.cmm_hit_rate",
                                      "core.cmm_evictions")}}


def test_same_seed_reproduces_and_new_seed_changes(short_direct, tmp_path):
    first = exact_view(*one_pass(short_direct, 7, tmp_path, traced=True))
    again = exact_view(*one_pass(short_direct, 7, tmp_path, traced=True))
    other = exact_view(*one_pass(short_direct, 8, tmp_path, traced=True))
    assert first == again
    assert other["digest"] != first["digest"]
    assert other["stored_frac"] != first["stored_frac"]
    assert first["core.cmm_hit_rate"] == 1.0 and first["adapters.gem_launches"] > 0


def test_archive_exact_metrics_repeat(short_archive, tmp_path):
    a, _ = one_pass(short_archive, 4, tmp_path)
    b, _ = one_pass(short_archive, 4, tmp_path)
    assert (a.stored_frac(), a.ledger.digest, a.ledger.err_frac) == \
        (b.stored_frac(), b.ledger.digest, b.ledger.err_frac)
    assert 0 < a.ledger.err_frac["progressive"] <= 1.0


def test_served_inputs_follow_the_seed():
    a, b, c = (workloads.ServedSmall(s, None) for s in (1, 1, 2))
    for w in (a, b, c):
        w.prepare()
    assert a.ledger.digest == b.ledger.digest != c.ledger.digest
    assert a.stored_frac() == b.stored_frac()


# -- span accounting -------------------------------------------------------------
def test_self_times_sum_to_the_root_span():
    rec = Recorder()
    with rec.span("op", op_id=0):
        with rec.span("io.put"):
            with rec.span("mgard.compress"):
                with rec.span("adapters.map"):
                    with rec.span("adapters.gem"):
                        pass
        with rec.span("bench.verify"):
            pass
    layer = [s for s, n in zip(rec.self_times(), rec.names) if not n.startswith(DETAIL)]
    assert sum(layer) == pytest.approx(rec.root_total(), rel=1e-9)
    assert all(s >= 0 for s in rec.self_times())
    assert set(rec.op_id) == {0}


def test_overlapping_children_are_covered_once():
    rec = Recorder()
    rec.names = ["op", "a", "b"]
    rec.start, rec.end = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0]
    rec.parent, rec.op_id = [-1, 0, 0], [0, 0, 0]
    assert rec.self_times()[0] == pytest.approx(5.0)   # 10 - |[1,6]|


def test_traced_workload_spans_add_up(short_direct, tmp_path):
    workload, outcome = one_pass(short_direct, 3, tmp_path, traced=True)
    rec = workload.rec
    layer = sum(s for s, n in zip(rec.self_times(), rec.names) if not n.startswith(DETAIL))
    assert layer == pytest.approx(rec.root_total(), rel=1e-6)
    roots = [i for i, p in enumerate(rec.parent) if p < 0]
    assert [rec.names[i] for i in roots] == ["op"] * outcome["meter"].attempted
    assert outcome["layers"]["adapters.busy_frac"] < 1.0


# -- host-pace correction ---------------------------------------------------------
def test_a_slow_host_cancels_and_a_slow_program_shows():
    from meter import REFERENCE_S, Meter

    def window(op_s: float, pace_s: float) -> Meter:
        meter = Meter()
        t = meter.t_start
        for _ in range(50):
            t += op_s
            meter.lat.append(op_s)
            meter.nbytes.append(1_000_000)
            meter.t_end.append(t)
            meter.pace_s.append(pace_s)     # sampled right after the op
            meter.pace_t.append(t)
        meter.t_stop = t
        return meter

    base = window(0.010, REFERENCE_S)
    slow_host = window(0.020, 2 * REFERENCE_S)
    slow_program = window(0.020, REFERENCE_S)
    for pct in (50, 90):
        assert slow_host.lat_ms(pct) == pytest.approx(base.lat_ms(pct))
        assert slow_program.lat_ms(pct) == pytest.approx(2 * base.lat_ms(pct))
    assert slow_host.goodput_MBps() == pytest.approx(base.goodput_MBps())
    assert slow_program.goodput_MBps() == pytest.approx(base.goodput_MBps() / 2)
    assert base.raw()["lat_p50_ms"] == pytest.approx(10.0)


# -- the comparator ----------------------------------------------------------------
def _suite(goodput_rounds, calib=10.0, digest="00"):
    def entry(rounds, unit):
        ordered = sorted(rounds)
        return {"median": ordered[len(ordered) // 2], "min": min(rounds),
                "max": max(rounds), "unit": unit, "rounds": rounds}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = {n: entry([1.0, 1.0, 1.0], u) for n, u in units.items()}
    metrics["goodput_MBps"] = entry(goodput_rounds, "MB/s")
    metrics["max_err_frac"] = entry([0.5] * 3, "ratio")
    metrics["failed_frac"] = entry([0.0] * 3, "ratio")
    one = {"metrics": metrics, "calib_ms": calib, "stream_digest": digest}
    return {"rounds": 3, "commit": "x", "workloads": {w["name"]: one for w in SPEC["workloads"]}}


def test_compare_verdicts(tmp_path, capsys):
    import compare
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "goodput_MBps")
    base = _suite([100.0, 101.0, 99.0])

    def goodput_verdicts(other):
        rows, notes = compare.compare(SPEC, base, other)
        return {r[4] for r in rows if r[1]["name"] == "goodput_MBps"}, notes

    assert goodput_verdicts(_suite([100.5, 100.0, 99.5]))[0] == {"within"}
    slow = 100.0 * (1 - bound) * 0.9
    assert goodput_verdicts(_suite([slow, slow * 1.01, slow * 0.99]))[0] == {"worse"}
    assert goodput_verdicts(_suite([130.0, 131.0, 129.0]))[0] == {"better"}
    wide = 100.0 * (1 + 2 * bound)
    assert goodput_verdicts(_suite([100.0, wide, 90.0]))[0] == {"unresolved"}
    # A host that changed pace between the sets: corrected timings still
    # read, the uncorrected set-up time does not.
    rows, notes = compare.compare(SPEC, base, _suite([100.0, 101.0, 99.0], calib=12.0, digest="ff"))
    assert {r[4] for r in rows if r[1]["name"] == "goodput_MBps"} == {"within"}
    assert {r[4] for r in rows if r[1]["name"] == "setup_s"} == {"unresolved"}
    assert any("stream_digest" in n for n in notes) and any("calib" in n for n in notes)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_suite([slow, slow, slow])))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "worse" in capsys.readouterr().out
