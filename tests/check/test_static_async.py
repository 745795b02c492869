"""Seeded-defect tests for the async-safety pack (HPL101–HPL104)."""

from repro.check.static import analyze_source


def _rules(src: str) -> list[str]:
    result = analyze_source("seeded.py", src, packs=("async",))
    return [f.rule for f in result.findings]


class TestHPL101Blocking:
    def test_time_sleep_in_async_def(self):
        src = "import time\nasync def f():\n    time.sleep(1)\n"
        assert "HPL101" in _rules(src)

    def test_sync_codec_call_in_async_def(self):
        src = "async def f(codec, x):\n    return codec.compress(x)\n"
        assert "HPL101" in _rules(src)

    def test_requests_and_subprocess(self):
        src = (
            "import requests\nimport subprocess\n"
            "async def f(url):\n"
            "    subprocess.run(['ls'])\n"
            "    return requests.get(url)\n"
        )
        assert _rules(src).count("HPL101") == 2

    def test_dotted_import_resolves_to_the_module(self):
        # ``import urllib.request`` binds ``urllib``: the call below is
        # urllib.request.urlopen, not urllib.request.request.urlopen.
        src = (
            "import urllib.request\n"
            "async def f(url):\n"
            "    return urllib.request.urlopen(url)\n"
        )
        assert _rules(src) == ["HPL101"]

    def test_coroutine_fed_to_gather_is_not_blocking(self):
        src = (
            "import asyncio\n"
            "async def f(svc, spec, arrays):\n"
            "    return await asyncio.gather(\n"
            "        *(svc.compress(spec, a) for a in arrays)\n"
            "    )\n"
        )
        assert _rules(src) == []

    def test_same_call_in_sync_def_ok(self):
        src = "import time\ndef f():\n    time.sleep(1)\n"
        assert _rules(src) == []


class TestHPL102AwaitUnderLock:
    def test_module_level_threading_lock(self):
        src = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "async def f(q):\n"
            "    with lock:\n"
            "        await q.get()\n"
        )
        assert "HPL102" in _rules(src)

    def test_self_attribute_lock_by_name(self):
        src = (
            "async def f(self, q):\n"
            "    with self._lock:\n"
            "        await q.get()\n"
        )
        assert "HPL102" in _rules(src)

    def test_asyncio_lock_is_fine(self):
        src = (
            "import asyncio\n"
            "_lk = asyncio.Lock()\n"
            "async def f(q):\n"
            "    async with _lk:\n"
            "        await q.get()\n"
        )
        assert _rules(src) == []

    def test_sync_lock_without_await_ok(self):
        src = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "async def f(stats):\n"
            "    with lock:\n"
            "        stats['n'] += 1\n"
        )
        assert _rules(src) == []


class TestHPL103FireAndForget:
    def test_discarded_create_task(self):
        src = (
            "import asyncio\n"
            "async def f(coro):\n"
            "    asyncio.create_task(coro())\n"
        )
        assert "HPL103" in _rules(src)

    def test_executor_future_assigned_never_used(self):
        src = (
            "async def f(loop, fn):\n"
            "    fut = loop.run_in_executor(None, fn)\n"
        )
        assert "HPL103" in _rules(src)

    def test_awaited_task_ok(self):
        src = (
            "import asyncio\n"
            "async def f(coro):\n"
            "    t = asyncio.create_task(coro())\n"
            "    await t\n"
        )
        assert _rules(src) == []

    def test_done_callback_counts_as_consumed(self):
        src = (
            "async def f(loop, fn, on_done):\n"
            "    fut = loop.run_in_executor(None, fn)\n"
            "    fut.add_done_callback(on_done)\n"
        )
        assert _rules(src) == []


class TestHPL104ExecutorSharedState:
    def test_run_in_executor_bound_method_mutates_shared_attr(self):
        src = (
            "class S:\n"
            "    async def tick(self):\n"
            "        self.count = self.count + 1\n"
            "    def _job(self):\n"
            "        self.count += 1\n"
            "    async def go(self, loop):\n"
            "        await loop.run_in_executor(None, self._job)\n"
        )
        assert "HPL104" in _rules(src)

    def test_pool_submit_bound_method_mutates_shared_attr(self):
        src = (
            "class S:\n"
            "    async def tick(self):\n"
            "        self.count = self.count + 1\n"
            "    def _job(self):\n"
            "        self.count += 1\n"
            "    async def go(self):\n"
            "        fut = self._pool.submit(self._job)\n"
            "        await fut\n"
        )
        assert "HPL104" in _rules(src)

    def test_private_state_not_shared_is_ok(self):
        src = (
            "class S:\n"
            "    def _job(self):\n"
            "        self._scratch = 1\n"
            "    async def go(self, loop):\n"
            "        await loop.run_in_executor(None, self._job)\n"
        )
        assert _rules(src) == []
