"""openmp's fan-out rule: a launch is handed to the pool only when every
chunk carries ``FANOUT_FLOOR`` bytes — and the bytes never show which."""

import threading

import numpy as np
import pytest

from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX
from repro.adapters import OpenMPAdapter, SerialAdapter
from repro.check.sanitizer import SanitizingAdapter
from repro.core.functor import FnLocality, LocalityFunctor

FLOOR = OpenMPAdapter.FANOUT_FLOOR


class _Recording(LocalityFunctor):
    """Identity functor that records who applied how many groups."""

    name = "recording"

    def __init__(self, rendezvous: int = 0) -> None:
        self.calls: list[tuple[int, int]] = []   # (thread ident, groups)
        # With a rendezvous every apply waits for the others, so the
        # launch completes only if that many threads run it at once.
        self._barrier = (
            threading.Barrier(rendezvous, timeout=10) if rendezvous else None
        )

    def apply(self, blocks):
        self.calls.append((threading.get_ident(), blocks.shape[0]))
        if self._barrier is not None:
            self._barrier.wait()
        return blocks.copy()


@pytest.fixture
def adapter():
    a = OpenMPAdapter(num_threads=2)
    yield a
    a.close()


def _bytes(ngroups: int, nbytes: int) -> np.ndarray:
    return np.arange(nbytes).astype(np.uint8).reshape(ngroups, -1)


def test_sub_floor_launch_runs_on_the_callers_thread(adapter):
    functor = _Recording()
    batch = _bytes(8, 2 * FLOOR - 8)          # one whole floor, not two
    out = adapter.execute_group_batch(functor, batch)
    assert functor.calls == [(threading.get_ident(), 8)]
    assert np.array_equal(out, batch)


def test_launch_of_two_floors_runs_on_two_threads(adapter):
    functor = _Recording(rendezvous=2)
    batch = _bytes(8, 2 * FLOOR)
    out = adapter.execute_group_batch(functor, batch)
    idents = {ident for ident, _ in functor.calls}
    assert len(idents) == 2 and threading.get_ident() not in idents
    assert [groups for _, groups in functor.calls] == [4, 4]
    assert np.array_equal(out, batch)


@pytest.mark.parametrize(
    "threads, ngroups, floors",
    [(2, 8, 1), (2, 8, 2), (2, 8, 5), (4, 8, 3), (4, 3, 64), (8, 5, 5),
     (4, 1, 64), (1, 8, 64)],
)
def test_chunk_count_is_min_of_threads_groups_and_floors(threads, ngroups, floors):
    a = OpenMPAdapter(num_threads=threads)
    a.FANOUT_FLOOR = 4096                      # small batches, same rule
    try:
        functor = _Recording()
        batch = _bytes(ngroups, ngroups * (floors * 4096 // ngroups + 1))
        assert batch.nbytes // 4096 == floors
        out = a.execute_group_batch(functor, batch)
        want = min(threads, ngroups, floors)
        assert len(functor.calls) == max(1, want)
        assert sum(groups for _, groups in functor.calls) == ngroups
        assert np.array_equal(out, batch)
    finally:
        a.close()


class _Counted(np.ndarray):
    """An array that logs each ``copy()`` made of it."""

    log: list

    def copy(self, order="C"):
        self.log.append(self.shape[0])
        return np.asarray(self).copy(order)


class _Scratch(LocalityFunctor):
    """Returns views of per-thread scratch, as a context-backed functor
    may: the next apply on the same thread overwrites the last result."""

    name = "scratch"
    reuses_output = True

    def __init__(self) -> None:
        self._local = threading.local()
        self.copies: list[int] = []     # groups per copy taken

    def apply(self, blocks):
        if getattr(self._local, "buf", None) is None:
            self._local.buf = np.empty(2 * FLOOR, dtype=np.uint8)
        out = self._local.buf[: blocks.size].reshape(blocks.shape).view(_Counted)
        out.log = self.copies
        np.add(blocks, 1, out=out)
        return out


def test_reuses_output_is_copied_only_when_fanned_out(adapter):
    functor = _Scratch()
    inline = _bytes(4, FLOOR)
    out = adapter.execute_group_batch(functor, inline)
    assert functor.copies == []                         # handed over as is
    assert np.array_equal(out, inline + 1)
    fanned = _bytes(4, 2 * FLOOR)
    out = adapter.execute_group_batch(functor, fanned)
    assert functor.copies == [2, 2]     # before a thread's next apply
    assert np.array_equal(out, fanned + 1)


@pytest.mark.parametrize(
    "ngroups, nbytes",
    [(3, FLOOR - 1), (4, FLOOR), (3, 2 * FLOOR - 2), (4, 2 * FLOOR),
     (3, 2 * FLOOR + 1)],
)
def test_bytes_do_not_show_the_floor(ngroups, nbytes):
    """Either side of both thresholds, under shadow execution."""
    functor = FnLocality(
        lambda b: np.cumsum(b, axis=1, dtype=np.uint8), "running-sum"
    )
    batch = _bytes(ngroups, nbytes)
    want = SerialAdapter().execute_group_batch(functor, batch)
    san = SanitizingAdapter(OpenMPAdapter(num_threads=2))
    try:
        got = san.execute_group_batch(functor, batch)
    finally:
        san.close()
    assert san.checked_batches == 1
    assert got.tobytes() == want.tobytes()


def test_launch_from_a_pool_task_runs_inline_instead_of_deadlocking(adapter):
    """Two tasks on a two-thread pool, each launching a batch that would
    fan out: the chunks would queue behind the tasks waiting for them,
    so a launch made on a pool thread runs there."""
    batch = _bytes(8, 4 * FLOOR)

    def task(i):
        functor = _Recording()
        out = adapter.execute_group_batch(functor, batch)
        assert np.array_equal(out, batch)
        return [ident for ident, _ in functor.calls], threading.get_ident()

    results = []
    worker = threading.Thread(
        target=lambda: results.extend(adapter.map_tasks(task, [0, 1])),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        # Unblock the pool before failing: cancelling the queued chunks
        # lets the waiting tasks return, so the process can still exit.
        adapter._pool.shutdown(wait=False, cancel_futures=True)
        pytest.fail("a launch from inside map_tasks did not return in 10 s")
    assert len(results) == 2
    for launch_threads, task_thread in results:
        assert launch_threads == [task_thread]


@pytest.fixture(scope="module")
def serial_streams():
    data = np.random.default_rng(3).normal(size=(64, 64, 64)).astype(np.float32)
    return data, [build(None).compress(data) for build in _CODECS]


_REL = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
_CODECS = (
    lambda a: MGARDX(_REL, adapter=a),
    lambda a: ZFPX(rate=10, adapter=a),
    lambda a: HuffmanX(adapter=a),
)


@pytest.mark.parametrize("floor", [FLOOR, 0])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_64_cubed_field_writes_the_serial_bytes(serial_streams, width, floor):
    data, want = serial_streams
    a = OpenMPAdapter(num_threads=width)
    a.FANOUT_FLOOR = floor
    try:
        for build, stream in zip(_CODECS, want):
            assert build(a).compress(data) == stream
    finally:
        a.close()
