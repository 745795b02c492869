"""Acceptance: every codec traced end to end, Gantt adapter, CLI, env."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.trace as trace
from repro.trace.chrome import export_chrome, load_chrome
from repro.trace.gantt import kind_for_category, render_spans, to_sim_trace

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _codec(name, adapter=None):
    from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX

    if name == "mgard":
        return MGARDX(
            Config(error_bound=1e-3, error_mode=ErrorMode.ABS), adapter=adapter
        )
    if name == "zfp":
        return ZFPX(rate=16, adapter=adapter)
    return HuffmanX(adapter=adapter)


@pytest.mark.parametrize("name", ["mgard", "zfp", "huffman"])
@pytest.mark.parametrize("family", ["serial", "openmp"])
def test_codec_emits_valid_chrome_trace(name, family, tmp_path, smooth_3d):
    """ISSUE acceptance: compress+decompress of each codec under
    HPDR_TRACE emits loadable Chrome JSON and a non-empty summary."""
    from repro.adapters import get_adapter

    trace.enable(clear=True)
    codec = _codec(name, adapter=get_adapter(family))
    data = smooth_3d if name != "huffman" else smooth_3d.view(np.uint8)
    out = codec.decompress(codec.compress(data))
    assert out.shape == data.shape

    path = export_chrome(tmp_path / f"{name}.json")
    events = load_chrome(path)  # validates schema
    xs = [e for e in events if e["ph"] == "X"]
    assert xs, "traced run produced no spans"
    # codec-category spans present (not just adapter-level ones)
    assert any(e["cat"] == name for e in xs)
    summary = trace.summary()
    assert summary.strip()
    assert name in summary


def test_trace_spans_render_through_machine_timeline():
    """Real executions render through the same Gantt as simulated
    Traces (the shared machine.timeline adapter)."""
    trace.enable()
    with trace.span("mgard.decompose", cat="mgard"):
        pass
    with trace.span("io.put", cat="io"):
        pass
    sim_trace = to_sim_trace(trace.events())
    assert len(sim_trace.tasks) == 2
    kinds = {t.kind for t in sim_trace.tasks}
    from repro.machine.engine import TaskKind

    assert kinds == {TaskKind.COMPUTE, TaskKind.IO}
    text = render_spans(trace.events())
    assert "thread-0" in text  # one lane per (pid, tid)


def test_kind_mapping_covers_known_categories():
    from repro.machine.engine import TaskKind

    assert kind_for_category("io") == TaskKind.IO
    assert kind_for_category("mgard") == TaskKind.COMPUTE
    assert kind_for_category("adapter.openmp") == TaskKind.COMPUTE
    assert kind_for_category("pipeline") == TaskKind.HOST


def test_sanitizer_composition_emits_san_spans(smooth_3d):
    from repro.adapters import get_adapter
    from repro.check import SanitizingAdapter

    trace.enable()
    adapter = SanitizingAdapter(get_adapter("serial"))
    codec = _codec("zfp", adapter=adapter)
    codec.decompress(codec.compress(smooth_3d))
    cats = {e.cat for e in trace.events()}
    assert "san" in cats
    assert any(c.startswith("adapter.") for c in cats)


def test_pipeline_queue_wait_metrics():
    from repro.core.pipeline import ReductionPipeline
    from repro.machine.device import SimDevice
    from repro.machine.engine import Simulator
    from repro.perf.models import kernel_model
    from repro.trace.metrics import REGISTRY

    trace.enable(clear=True)
    dev = SimDevice(Simulator(), "V100")
    pipe = ReductionPipeline(dev, kernel_model("mgard-x", "V100", 1e-3))
    pipe.run_compression([1 << 20] * 6)
    wait = REGISTRY.get("hpdr_pipeline_queue_wait_seconds_total")
    assert wait is not None
    assert len(wait.samples()) == 3  # one per queue
    assert REGISTRY.get("hpdr_pipeline_makespan_seconds").total() > 0
    names = {e.name for e in trace.events()}
    assert {"pipeline.build_compression", "pipeline.run_compression"} <= names


def test_cmm_metrics_hit_miss_and_evictions():
    from repro.core.context import ContextCache
    from repro.trace.metrics import REGISTRY

    trace.enable(clear=True)
    cache = ContextCache(capacity=4)
    ctx = cache.get(("a",))
    ctx.buffer("buf", (128,), np.float64)
    cache.get(("a",))  # hit
    lookups = REGISTRY.get("hpdr_cmm_lookups_total")
    assert lookups.value(outcome="miss") == 1
    assert lookups.value(outcome="hit") == 1
    # overflow the 4-context capacity to force LRU evictions
    for i in range(8):
        cache.get(("fill", i)).buffer("buf", (128,), np.float64)
    assert REGISTRY.get("hpdr_cmm_evictions_total").total() > 0


def test_hpdr_trace_env_enables_tracing(tmp_path):
    """HPDR_TRACE=1 turns tracing on at import (fresh interpreter)."""
    code = (
        "import repro.trace as t; "
        "assert t.enabled(); "
        "print('enabled-ok')"
    )
    env = dict(os.environ, HPDR_TRACE="1",
               PYTHONPATH=str(REPO_ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "enabled-ok" in r.stdout

    env["HPDR_TRACE"] = "0"
    code = "import repro.trace as t; assert not t.enabled(); print('off-ok')"
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_cli_trace_and_metrics_flags(tmp_path):
    field = tmp_path / "field.npy"
    np.save(field, np.linspace(0, 1, 32 * 32, dtype=np.float32).reshape(32, 32))
    out = tmp_path / "field.hpdr"
    tr = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("HPDR_TRACE", None)
    r = subprocess.run(
        [sys.executable, "-m", "repro", "compress", str(field), str(out),
         "--method", "zfp-x", "--trace", str(tr), "--metrics"],
        env=env, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "== metrics ==" in r.stdout
    events = json.loads(tr.read_text())
    assert any(e.get("cat") == "zfp" for e in events if e["ph"] == "X")

    back = tmp_path / "back.npy"
    r = subprocess.run(
        [sys.executable, "-m", "repro", "decompress", str(out), str(back),
         "--trace", str(tmp_path / "dec.json")],
        env=env, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "dec.json").exists()


def test_three_codecs_share_one_chrome_export(tmp_path, smooth_3d):
    """One traced round-trip per codec, one export: every codec's
    category is in the file (what CI archives from a traced run)."""
    trace.enable(clear=True)
    for name in ("huffman", "mgard", "zfp"):
        codec = _codec(name)
        data = smooth_3d if name != "huffman" else smooth_3d.view(np.uint8)
        codec.decompress(codec.compress(data))
    events = load_chrome(export_chrome(tmp_path / "codecs.json"))
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"mgard", "zfp", "huffman"} <= cats
