"""Coverage of miscellaneous paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.machine.engine import Simulator, TaskKind
from repro.perf.models import _eb_factor


class TestEngineMisc:
    def test_add_dep_skips_none(self):
        sim = Simulator()
        r = sim.resource("r")
        q = sim.queue("q")
        a = sim.submit("a", TaskKind.COMPUTE, r, q, duration=1.0)
        b = sim.submit("b", TaskKind.COMPUTE, r, q, duration=1.0)
        b.add_dep(None, a, None)
        assert b.deps == [a]
        sim.run()

    def test_register_external_resource_and_queue(self):
        sim1 = Simulator()
        r = sim1.resource("shared")
        sim2 = Simulator()
        sim2.register_resource(r)
        q = sim2.queue("q")
        sim2.submit("t", TaskKind.COMPUTE, r, q, duration=1.0)
        trace = sim2.run()
        assert trace.makespan == 1.0

    def test_trace_of_kind_multiple(self):
        sim = Simulator()
        r = sim.resource("r")
        q = sim.queue("q")
        sim.submit("a", TaskKind.H2D, r, q, duration=1.0)
        sim.submit("b", TaskKind.D2H, r, q, duration=1.0)
        sim.submit("c", TaskKind.COMPUTE, r, q, duration=1.0)
        trace = sim.run()
        assert len(trace.of_kind(TaskKind.H2D, TaskKind.D2H)) == 2

    def test_overlap_ratio_empty(self):
        sim = Simulator()
        trace = sim.run()
        assert trace.overlap_ratio() == 0.0
        assert trace.hidden_copy_ratio() == 1.0


class TestPerfEdges:
    def test_eb_factor_clamped(self):
        assert _eb_factor(1e-30) == pytest.approx(0.6)
        assert _eb_factor(1e30) == pytest.approx(1.4)
        assert _eb_factor(None) == 1.0
        assert _eb_factor(-1.0) == 1.0

    def test_kernel_model_accepts_spec_object(self):
        from repro.machine.specs import V100
        from repro.perf.models import kernel_model

        m = kernel_model("mgard-x", V100)
        assert m.processor is V100


class TestHuffmanEdges:
    def test_decode_table_default_width(self):
        from repro.compressors.huffman.codebook import build_codebook

        book = build_codebook(np.array([4, 2, 1, 1], dtype=np.int64))
        sym, ln, width = book.decode_table()
        assert width == book.max_length
        assert sym.size == 1 << width

    def test_empty_codebook_table(self):
        from repro.compressors.huffman.codebook import build_codebook

        book = build_codebook(np.zeros(4, dtype=np.int64))
        sym, ln, width = book.decode_table()
        assert np.all(ln == 0)


class TestPipelineEdges:
    def test_invalid_pipeline_params(self):
        from repro.core.pipeline import ReductionPipeline
        from repro.machine.device import SimDevice
        from repro.perf.models import kernel_model

        sim = Simulator()
        dev = SimDevice(sim, "V100")
        model = kernel_model("mgard-x", "V100")
        with pytest.raises(ValueError):
            ReductionPipeline(dev, model, num_queues=0)
        with pytest.raises(ValueError):
            ReductionPipeline(dev, model, num_buffers=1)
        with pytest.raises(ValueError):
            ReductionPipeline(dev, model, allocs_per_call=-1)


class TestCheckDocsNamedFiles:
    """scripts/check_docs.py pass 3: a named repo file must exist."""

    @staticmethod
    def _check_docs():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
        spec = importlib.util.spec_from_file_location("check_docs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_seeded_dangling_step_is_reported(self, tmp_path):
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "here.py").write_text("")
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / ".github" / "workflows").mkdir(parents=True)
        (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
            "run: python scripts/here.py --out /tmp/scripts/fresh.json\n"
            "run: python scripts/gone.py\n"
        )
        (tmp_path / "README.md").write_text(
            "`benchmarks/e2e/run.py`, `benchmarks/bench_{a,b}.py`, "
            "`scripts/*/x.py`, `out/plan.json`, `~/scripts/tuning.json`, "
            "`../scripts/up.py` and `benchmarks/results/missing.json`\n"
        )
        assert self._check_docs().check_named_files(tmp_path) == [
            ".github/workflows/ci.yml: names 'scripts/gone.py', which does "
            "not exist",
            "README.md: names 'benchmarks/results/missing.json', which does "
            "not exist",
        ]

    def test_this_tree_names_only_files_it_has(self):
        assert self._check_docs().check_named_files() == []
