"""Seeded-defect tests for the buffer-lifetime pack (HPL201–HPL202)."""

from repro.check.static import analyze_source


def _rules(src: str) -> list[str]:
    result = analyze_source("seeded.py", src, packs=("lifetime",))
    return [f.rule for f in result.findings]


class TestHPL201BufferEscape:
    def test_return_of_locally_pinned_buffer(self):
        src = (
            "def f(self, key):\n"
            "    ctx = self.cache.get(key, pin=True)\n"
            "    buf = ctx.buffer('out', 100)\n"
            "    self.cache.release(ctx)\n"
            "    return buf\n"
        )
        assert "HPL201" in _rules(src)

    def test_store_on_self_escapes(self):
        src = (
            "def g(self, ctx):\n"
            "    buf = ctx.scratch('t', 4)\n"
            "    self.keep = buf\n"
        )
        assert "HPL201" in _rules(src)

    def test_append_to_self_attr_escapes(self):
        src = (
            "def g(self, ctx):\n"
            "    view = ctx.buffer('o', 8)[:4]\n"
            "    self.views.append(view)\n"
        )
        assert "HPL201" in _rules(src)

    def test_returning_param_ctx_buffer_to_pin_owner_ok(self):
        # Helpers that receive the ctx as a parameter hand buffers back
        # to the caller that owns the pin — legitimate by contract.
        src = (
            "def h(ctx):\n"
            "    buf = ctx.buffer('o', 4)\n"
            "    return buf\n"
        )
        assert _rules(src) == []


class TestHPL202UseAfterRelease:
    def test_use_after_conditional_release(self):
        src = (
            "def f(self, key):\n"
            "    ctx = self.cache.get(key)\n"
            "    buf = ctx.buffer('out', 100)\n"
            "    if key:\n"
            "        self.cache.release(ctx)\n"
            "    buf[0] = 1\n"
        )
        assert "HPL202" in _rules(src)

    def test_use_after_invalidate(self):
        src = (
            "def f(self, key):\n"
            "    ctx = self.cache.get(key)\n"
            "    buf = ctx.buffer('out', 10)\n"
            "    ctx.invalidate()\n"
            "    return bytes(buf)\n"
        )
        assert "HPL202" in _rules(src)

    def test_release_in_finally_after_all_uses_ok(self):
        src = (
            "def f(self, key):\n"
            "    ctx = self.cache.get(key)\n"
            "    buf = ctx.buffer('out', 100)\n"
            "    try:\n"
            "        buf[0] = 1\n"
            "        return bytes(buf)\n"
            "    finally:\n"
            "        self.cache.release(ctx)\n"
        )
        assert _rules(src) == []

    def test_reacquire_clears_released_state(self):
        src = (
            "def f(self, key):\n"
            "    ctx = self.cache.get(key)\n"
            "    self.cache.release(ctx)\n"
            "    ctx = self.cache.get(key)\n"
            "    buf = ctx.buffer('out', 4)\n"
            "    return bytes(buf)\n"
        )
        assert _rules(src) == []

