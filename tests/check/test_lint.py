"""hpdrlint ``core`` pack tests (seeded defects) and the clean-tree gate."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.lint import RULES, format_findings
from repro.check.static import analyze_paths, analyze_source

REPO = Path(__file__).resolve().parents[2]

HEADER = "import numpy as np\nfrom repro.util import hot_path\n"


def _core(path, source):
    return analyze_source(path, source, packs=("core",)).findings


def _rules(src: str) -> list[str]:
    return [f.rule for f in _core("seeded.py", HEADER + src)]


class TestHPL001Allocations:
    @pytest.mark.parametrize(
        "stmt",
        [
            "np.empty(x.size, dtype=np.uint8)",
            "np.zeros((4, 4))",
            "np.array(x)",
            "np.concatenate([x, x])",
            "x.astype(np.float32)",
            "x.copy()",
            "x.flatten()",
        ],
    )
    def test_alloc_in_hot_path_flagged(self, stmt):
        src = f"@hot_path\ndef k(x, ctx):\n    return {stmt}\n"
        assert "HPL001" in _rules(src)

    def test_numpy_bound_by_a_dotted_import_too(self):
        src = (
            "import numpy.linalg\n"
            "@hot_path\n"
            "def k(n):\n"
            "    return numpy.zeros(n, dtype=np.uint8)\n"
        )
        assert _rules(src) == ["HPL001"]

    @pytest.mark.parametrize(
        "imports, call",
        [
            ("from numpy import zeros", "zeros(n)"),
            ("from numpy import zeros as z", "z(n)"),
            ("import numpy as xp", "xp.zeros(n)"),
        ],
    )
    def test_numpy_name_resolved_through_the_import_table(self, imports, call):
        """Every spelling of ``numpy.zeros`` is the same call, however
        the module bound it."""
        src = (
            f"{imports}\n"
            "@hot_path\n"
            "def k(n):\n"
            f"    a = {call}\n"
            "    b = np.zeros(n, dtype=np.uint8)\n"
            "    return a, b\n"
        )
        assert _rules(src) == ["HPL001", "HPL001"]

    def test_numpy_ufunc_imported_by_name_needs_out(self):
        src = (
            "from numpy import add\n"
            "@hot_path\n"
            "def k(x, y):\n"
            "    return add(x, y)\n"
        )
        assert _rules(src) == ["HPL003"]

    def test_same_alloc_outside_hot_path_ok(self):
        src = "def setup(x):\n    return np.array(x, dtype=np.uint8)\n"
        assert _rules(src) == []

    def test_nested_function_inherits_hotness(self):
        src = (
            "@hot_path\n"
            "def k(x):\n"
            "    def inner(y):\n"
            "        return y.copy()\n"
            "    return inner(x)\n"
        )
        assert "HPL001" in _rules(src)

    def test_nested_hot_path_def_is_hot(self):
        # A @hot_path def inside a plain function is hot, and makes the
        # module a kernel module, although the call graph indexes only
        # top-level functions and methods.
        src = (
            "def outer(x):\n"
            "    @hot_path\n"
            "    def k(y):\n"
            "        return y.copy()\n"
            "    return k(x)\n"
            "def setup(n):\n"
            "    return np.zeros(n)\n"
        )
        assert _rules(src) == ["HPL001", "HPL002"]

    def test_astype_copy_false_is_a_cast_not_an_alloc(self):
        src = (
            "@hot_path\n"
            "def k(x):\n"
            "    return x.astype(np.int64, copy=False)\n"
        )
        assert _rules(src) == []

    def test_hot_path_with_reason_still_detected(self):
        src = (
            "@hot_path(reason='bench')\n"
            "def k(x):\n"
            "    return x.copy()\n"
        )
        assert "HPL001" in _rules(src)


class TestHPL002ImplicitFloat64:
    def test_dtypeless_constructor_in_kernel_module(self):
        src = (
            "@hot_path\n"
            "def k(x, out):\n"
            "    return out\n"
            "def setup(n):\n"
            "    return np.zeros(n)\n"
        )
        assert "HPL002" in _rules(src)

    def test_explicit_dtype_ok(self):
        src = (
            "@hot_path\n"
            "def k(x, out):\n"
            "    return out\n"
            "def setup(n):\n"
            "    return np.zeros(n, dtype=np.float32)\n"
        )
        assert "HPL002" not in _rules(src)

    def test_non_kernel_module_exempt(self):
        # No @hot_path anywhere: plain library code may use defaults.
        assert _rules("def setup(n):\n    return np.zeros(n)\n") == []

    def test_hot_alloc_reports_alloc_not_dtype(self):
        # Inside a hot path HPL001 is the actionable finding; the same
        # call must not double-report as HPL002.
        src = "@hot_path\ndef k(n):\n    return np.zeros(n)\n"
        rules = _rules(src)
        assert rules.count("HPL001") == 1 and "HPL002" not in rules


class TestHPL003UfuncOut:
    def test_missing_out_flagged(self):
        src = "@hot_path\ndef k(x, y):\n    return np.add(x, y)\n"
        assert "HPL003" in _rules(src)

    def test_out_kwarg_ok(self):
        src = "@hot_path\ndef k(x, y):\n    return np.add(x, y, out=x)\n"
        assert "HPL003" not in _rules(src)

    def test_cold_ufunc_ok(self):
        assert _rules("def stats(x):\n    return np.add(x, 1)\n") == []


class TestHPL004FunctorContract:
    def test_extra_required_arg_flagged(self):
        src = (
            "from repro.core.functor import LocalityFunctor\n"
            "class Bad(LocalityFunctor):\n"
            "    def apply(self, blocks, scale):\n"
            "        return blocks\n"
        )
        assert "HPL004" in _rules(src)

    def test_missing_data_arg_flagged(self):
        src = (
            "from repro.core.functor import Functor\n"
            "class Bad(Functor):\n"
            "    def apply(self):\n"
            "        return None\n"
        )
        assert "HPL004" in _rules(src)

    def test_required_kwonly_flagged(self):
        src = (
            "from repro.core.functor import IterativeFunctor\n"
            "class Bad(IterativeFunctor):\n"
            "    def apply(self, vectors, *, axis):\n"
            "        return vectors\n"
        )
        assert "HPL004" in _rules(src)

    def test_defaulted_extras_ok(self):
        src = (
            "from repro.core.functor import LocalityFunctor\n"
            "class Good(LocalityFunctor):\n"
            "    def apply(self, blocks, scale=2.0, *, check=False):\n"
            "        return blocks\n"
        )
        assert "HPL004" not in _rules(src)

    def test_unrelated_class_exempt(self):
        src = "class Thing:\n    def apply(self, a, b, c):\n        return a\n"
        assert _rules(src) == []


class TestSuppression:
    def test_inline_suppression(self):
        src = (
            "@hot_path\n"
            "def k(x):\n"
            "    return x.copy()  # hpdrlint: disable=HPL001 — seeded\n"
        )
        assert _rules(src) == []

    def test_comment_above_statement(self):
        src = (
            "@hot_path\n"
            "def k(x):\n"
            "    # hpdrlint: disable=HPL001 — seeded\n"
            "    y = np.zeros(\n"
            "        x.size, dtype=np.uint8\n"
            "    )\n"
            "    return y\n"
        )
        assert _rules(src) == []

    def test_suppression_is_rule_specific(self):
        src = (
            "@hot_path\n"
            "def k(x, y):\n"
            "    return np.add(x, y)  # hpdrlint: disable=HPL001 — wrong id\n"
        )
        assert _rules(src) == ["HPL003"]

    def test_functor_disable_goes_on_the_method(self):
        # HPL004 anchors at the method's def: a disable there (or on
        # the line above it) holds, one on the class line does not
        # reach a method further down.
        body = (
            "    \"\"\"Doc.\"\"\"\n"
            "    def apply(self):{0}\n"
            "        return None\n"
        )
        on_class = (
            "class Bad(Functor):  # hpdrlint: disable=HPL004 — seeded\n"
            + body.format("")
        )
        on_def = "class Bad(Functor):\n" + body.format(
            "  # hpdrlint: disable=HPL004 — seeded"
        )
        assert _rules(on_class) == ["HPL004"]
        assert _rules(on_def) == []

    def test_disable_all(self):
        src = (
            "@hot_path\n"
            "def k(x):\n"
            "    return x.copy()  # hpdrlint: disable=all — seeded\n"
        )
        assert _rules(src) == []


class TestDriver:
    def test_tree_is_clean(self):
        # Satellite: the shipped tree must carry zero unsuppressed
        # findings (genuine fixes + documented suppressions only).
        findings = analyze_paths(
            [REPO / "src" / "repro"], packs=("core",)
        ).findings
        assert findings == [], format_findings(findings)

    def test_cli_exit_codes(self, tmp_path):
        script = REPO / "scripts" / "hpdrlint.py"
        clean = subprocess.run(
            [sys.executable, str(script), str(REPO / "src" / "repro")],
            capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr

        seeded = tmp_path / "bad.py"
        seeded.write_text(
            HEADER + "@hot_path\ndef k(x):\n    return x.copy()\n"
        )
        dirty = subprocess.run(
            [sys.executable, str(script), str(seeded)],
            capture_output=True, text=True,
        )
        assert dirty.returncode == 1
        assert "HPL001" in dirty.stdout

        missing = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "nope.py")],
            capture_output=True, text=True,
        )
        assert missing.returncode == 2

    def test_findings_carry_location_and_hint(self):
        findings = _core(
            "seeded.py", HEADER + "@hot_path\ndef k(x):\n    return x.copy()\n"
        )
        (f,) = findings
        assert f.path == "seeded.py" and f.line == 5
        assert f.rule in RULES and f.hint
        assert "seeded.py:5:" in f.format()

    def test_rule_table_complete(self):
        # Core (syntactic) pack only; dataflow packs live in
        # repro.check.static and are covered by test_static_driver.py.
        assert set(RULES) == {"HPL001", "HPL002", "HPL003", "HPL004"}
        from repro.check.static import ALL_RULES
        assert set(RULES) <= set(ALL_RULES)
