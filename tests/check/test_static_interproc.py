"""Seeded-defect tests for the interprocedural pack (HPL301–HPL302)."""

from repro.check.static import analyze_source

HEADER = "import numpy as np\nfrom repro.util import hot_path\n"


def _rules(src: str) -> list[str]:
    result = analyze_source("seeded.py", HEADER + src, packs=("interproc",))
    return [f.rule for f in result.findings]


def _messages(src: str) -> list[str]:
    result = analyze_source("seeded.py", HEADER + src, packs=("interproc",))
    return [f.message for f in result.findings]


class TestHPL301TransitiveAllocation:
    def test_hot_path_calls_allocating_helper(self):
        src = (
            "def helper(x):\n"
            "    return np.zeros(x.size)\n"
            "@hot_path\n"
            "def k(x, ctx):\n"
            "    return helper(x)\n"
        )
        assert "HPL301" in _rules(src)

    def test_depth_two_chain_is_found(self):
        src = (
            "def inner(x):\n"
            "    return x.copy()\n"
            "def mid(x):\n"
            "    return inner(x)\n"
            "@hot_path\n"
            "def k(x):\n"
            "    return mid(x)\n"
        )
        rules = _rules(src)
        assert "HPL301" in rules
        # The message names the call chain to the offending site.
        (msg,) = _messages(src)
        assert "mid -> inner" in msg

    def test_method_helper_via_self_call(self):
        src = (
            "class K:\n"
            "    def _tmp(self, x):\n"
            "        return np.empty(x.size, dtype=np.uint8)\n"
            "    @hot_path\n"
            "    def run(self, x):\n"
            "        return self._tmp(x)\n"
        )
        assert "HPL301" in _rules(src)

    def test_out_parameter_helper_is_clean(self):
        src = (
            "def helper(x, out):\n"
            "    np.add(x, 1, out=out)\n"
            "    return out\n"
            "@hot_path\n"
            "def k(x, out):\n"
            "    return helper(x, out)\n"
        )
        assert _rules(src) == []

    def test_suppression_at_alloc_site_propagates(self):
        src = (
            "def cold_fallback(x):\n"
            "    return np.array(x)  "
            "# hpdrlint: disable=HPL001,HPL301 — cold path\n"
            "@hot_path\n"
            "def k(x):\n"
            "    return cold_fallback(x)\n"
        )
        assert _rules(src) == []


class TestHPL302TransitiveUfunc:
    def test_helper_ufunc_without_out(self):
        src = (
            "def h(x, y):\n"
            "    return np.add(x, y)\n"
            "@hot_path\n"
            "def k(x, y):\n"
            "    return h(x, y)\n"
        )
        assert "HPL302" in _rules(src)

    def test_second_ufunc_variant(self):
        src = (
            "def scale(x, y):\n"
            "    return np.multiply(x, y)\n"
            "@hot_path\n"
            "def k(x, y):\n"
            "    return scale(x, y)\n"
        )
        assert "HPL302" in _rules(src)

    def test_helper_with_out_is_clean(self):
        src = (
            "def h(x, y, out):\n"
            "    np.add(x, y, out=out)\n"
            "    return out\n"
            "@hot_path\n"
            "def k(x, y, out):\n"
            "    return h(x, y, out)\n"
        )
        assert _rules(src) == []

    def test_non_hot_caller_is_not_flagged(self):
        src = (
            "def h(x, y):\n"
            "    return np.add(x, y)\n"
            "def cold(x, y):\n"
            "    return h(x, y)\n"
        )
        assert _rules(src) == []


class TestCallGraphHygiene:
    def test_recursive_helpers_terminate(self):
        src = (
            "def a(x):\n"
            "    return b(x)\n"
            "def b(x):\n"
            "    return a(x)\n"
            "@hot_path\n"
            "def k(x):\n"
            "    return a(x)\n"
        )
        # Mutually recursive clean helpers: no findings, no hang.
        assert _rules(src) == []

    def test_unresolvable_call_stays_quiet(self):
        src = (
            "@hot_path\n"
            "def k(x, mystery):\n"
            "    return mystery.transform(x)\n"
        )
        assert _rules(src) == []


class TestHotRoots:
    def test_nested_hot_def_is_a_root(self):
        """A ``@hot_path`` def nested in another def reaches a helper's
        allocation as a top-level one does."""
        src = (
            "def helper(x):\n"
            "    return np.zeros(x.size)\n"
            "def outer(x):\n"
            "    @hot_path\n"
            "    def k(y):\n"
            "        return helper(y)\n"
            "    return k(x)\n"
        )
        assert _rules(src) == ["HPL301"]
        (msg,) = _messages(src)
        assert msg.startswith("outer.<locals>.k() is @hot_path")

    def test_nested_hot_def_in_a_hot_def_reports_once(self):
        src = (
            "def helper(x):\n"
            "    return x.copy()\n"
            "@hot_path\n"
            "def k(x):\n"
            "    @hot_path\n"
            "    def inner(y):\n"
            "        return helper(y)\n"
            "    return inner(x)\n"
        )
        assert _rules(src) == ["HPL301"]

    def test_nested_hot_method_helper_resolves_through_self(self):
        src = (
            "class K:\n"
            "    def _tmp(self, x):\n"
            "        return np.empty(x.size, dtype=np.uint8)\n"
            "    def run(self, x):\n"
            "        @hot_path\n"
            "        def step(y):\n"
            "            return self._tmp(y)\n"
            "        return step(x)\n"
        )
        assert _rules(src) == ["HPL301"]
