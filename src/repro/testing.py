"""Conformance kit for device-adapter authors.

The paper's extensibility story (Section III-C) is "implement a new
device adapter".  :func:`check_adapter` is the executable contract: run
it against a new backend and it verifies everything the framework
assumes — GEM/DEM semantics, shape handling, batch-order stability, and
numerical agreement with the reference serial backend on real reduction
kernels.

Usage (e.g. in a downstream package's test suite)::

    from repro.testing import check_adapter
    check_adapter(MyKokkosAdapter())
"""

from __future__ import annotations

import time
import tracemalloc
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.functor import FnDomain, FnLocality
from repro.util import CorruptStreamError


class AdapterConformanceError(AssertionError):
    """A backend violated the adapter contract."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AdapterConformanceError(message)


def check_adapter(adapter, rng: np.random.Generator | None = None) -> None:
    """Run the full conformance suite against ``adapter``.

    Raises :class:`AdapterConformanceError` on the first violation;
    returns ``None`` when the backend conforms.  The adapter is closed
    when the suite returns.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    _check_gem_identity(adapter, rng)
    _check_gem_elementwise(adapter, rng)
    _check_gem_shape_change(adapter, rng)
    _check_gem_order_stability(adapter)
    _check_gem_empty_batch(adapter)
    _check_batched_submission(adapter, rng)
    _check_dem_stages(adapter)
    for shape in REFERENCE_SHAPES:
        _check_reference_agreement(adapter, rng.normal(size=shape))
    _check_real_kernels(adapter, rng)
    _check_close(adapter)


def _check_close(adapter) -> None:
    """Last, because it gives the backend's resources back: every
    adapter has ``close()``, and closing twice is closing once."""
    try:
        adapter.close()
        adapter.close()
    except Exception as exc:
        raise AdapterConformanceError(
            f"close() must be idempotent and never raise, got {exc!r}"
        ) from exc


def _check_gem_identity(adapter, rng) -> None:
    batch = rng.normal(size=(7, 3, 4))
    out = adapter.execute_group_batch(FnLocality(lambda b: b.copy(), "id"), batch)
    _require(np.array_equal(out, batch), "GEM identity functor altered data")


def _check_gem_elementwise(adapter, rng) -> None:
    batch = rng.normal(size=(5, 6))
    out = adapter.execute_group_batch(FnLocality(lambda b: b * 2 + 1, "affine"), batch)
    _require(np.allclose(out, batch * 2 + 1), "GEM elementwise result wrong")


def _check_gem_shape_change(adapter, rng) -> None:
    batch = rng.normal(size=(4, 8))
    out = adapter.execute_group_batch(
        FnLocality(lambda b: b.sum(axis=-1, keepdims=True), "sum"), batch
    )
    _require(out.shape == (4, 1), "GEM must preserve the leading group axis")
    _require(np.allclose(out[:, 0], batch.sum(axis=1)),
             "GEM shape-changing functor result wrong")


def _check_gem_order_stability(adapter) -> None:
    batch = np.arange(12, dtype=np.float64).reshape(12, 1)
    out = adapter.execute_group_batch(FnLocality(lambda b: b, "id"), batch)
    _require(np.array_equal(out, batch),
             "GEM reordered groups: results must stay in submission order")


def _check_gem_empty_batch(adapter) -> None:
    batch = np.zeros((0, 4))
    out = adapter.execute_group_batch(FnLocality(lambda b: b, "id"), batch)
    _require(out.shape[0] == 0, "GEM must pass empty batches through")


def _check_batched_submission(adapter, rng) -> None:
    """Contract the serving layer's micro-batching relies on.

    1. ``map_tasks`` preserves submission order, runs each task exactly
       once, and passes empty task lists through;
    2. GEM is **concat-equivalent**: executing the concatenation of two
       batches equals executing them separately and concatenating the
       results.  This is what lets the codecs' ``compress_batch`` fuse
       many requests' blocks into one launch and slice the records back
       out byte-identically;
    3. every codec exposing ``compress_batch``/``decompress_batch``
       honors that contract on this backend — batched streams equal the
       per-item streams byte for byte, and a non-uniform batch raises
       ``ValueError`` (the signal the serving layer's per-item fallback
       keys on).
    """
    # map_tasks: order, exactly-once, empty.
    calls: list[int] = []

    def task(i: int) -> int:
        calls.append(i)
        return i * i

    out = adapter.map_tasks(task, range(8))
    _require(out == [i * i for i in range(8)],
             "map_tasks must return results in submission order")
    _require(sorted(calls) == list(range(8)),
             "map_tasks must run every task exactly once")
    _require(adapter.map_tasks(task, []) == [],
             "map_tasks must pass empty task lists through")

    # GEM concat-equivalence.
    a = rng.normal(size=(5, 4, 4))
    b = rng.normal(size=(3, 4, 4))
    f = FnLocality(lambda blk: np.tanh(blk) * 3, "concat")
    fused = adapter.execute_group_batch(f, np.concatenate([a, b]))
    split = np.concatenate(
        [adapter.execute_group_batch(f, a), adapter.execute_group_batch(f, b)]
    )
    _require(np.array_equal(fused, split),
             "GEM must be concat-equivalent: fused batches must match "
             "separately executed sub-batches (micro-batching contract)")

    _check_codec_batch_paths(adapter, rng)


def _check_codec_batch_paths(adapter, rng) -> None:
    """Batched entry points must be byte-identical to per-item calls.

    Discovers the batch path the same way the serving worker does
    (``getattr(codec, f"{op}_batch")``), so any codec that grows one is
    automatically held to the contract on every backend.
    """
    from repro.compressors import build_codec

    floats = [
        np.ascontiguousarray(rng.standard_normal((12, 16)).astype(np.float32))
        for _ in range(5)
    ]
    blobs_in = [
        rng.integers(0, 48, size=3000, dtype=np.int64).astype(np.uint8).tobytes()
        for _ in range(5)
    ]
    for name, payloads, odd in [
        ("mgard-x", floats, floats[0][:6, :6]),
        ("zfp-x", floats, floats[0][:6, :6]),
        ("huffman-x", blobs_in, blobs_in[0][:17]),
    ]:
        codec = build_codec(name, {"error_bound": 1e-2}, adapter)
        if getattr(codec, "compress_batch", None) is None:
            continue
        want = [codec.compress(p) for p in payloads]
        got = codec.compress_batch(payloads)
        _require(
            [bytes(b) for b in got] == [bytes(b) for b in want],
            f"{name}.compress_batch differs from per-item streams",
        )
        back = codec.decompress_batch(want)
        ref = [codec.decompress(b) for b in want]
        _require(
            all(np.array_equal(np.asarray(g), np.asarray(r))
                for g, r in zip(back, ref)),
            f"{name}.decompress_batch differs from per-item results",
        )
        # Non-uniform batches must raise ValueError — the worker's
        # signal to fall back to per-item execution.
        try:
            codec.compress_batch([payloads[0], odd])
        except ValueError:
            pass
        else:
            _require(False,
                     f"{name}.compress_batch accepted a non-uniform batch "
                     "(must raise ValueError for the per-item fallback)")


def _check_dem_stages(adapter) -> None:
    functor = FnDomain(lambda d: d + "b", lambda d: d + "c", name="chain")
    out = adapter.execute_domain(functor, "a")
    _require(out == "abc", "DEM must run stages in order with global sync")


#: A 1.8 KB tile, and 2.2 MB of 264 groups: past twice openmp's fan-out
#: floor, and more than one wave on every simulated device.
REFERENCE_SHAPES = ((9, 5, 5), (264, 32, 33))


def _check_reference_agreement(adapter, batch, functor=None) -> None:
    """``adapter`` must return what strict ``serial`` (one group a part,
    the finest partition there is) returns for ``batch``."""
    from repro.adapters import get_adapter

    f = functor or FnLocality(lambda b: np.tanh(b) + b**2, "mix")
    ref = get_adapter("serial", strict=True).execute_group_batch(f, batch)
    out = adapter.execute_group_batch(f, batch)
    _require(np.array_equal(ref, out),
             "backend result differs from the strict serial reference "
             "(bit-exact agreement is the portability guarantee)")


def _check_real_kernels(adapter, rng) -> None:
    """The acid test: full reduction streams must be byte-identical —
    on a tile, and on a 256 KB field, large enough that a backend which
    let its own width into the stream would show it."""
    from repro import HuffmanX
    from repro.compressors import build_codec

    params = {"error_bound": 1e-3, "rate": 10}
    for shape in ((12, 16), (256, 256)):
        data = rng.normal(size=shape).astype(np.float32)
        for name in ("mgard-x", "zfp-x", "huffman-x"):
            _require(
                build_codec(name, params).compress(data)
                == build_codec(name, params, adapter).compress(data),
                f"{name} stream of a {data.nbytes}-byte field differs on "
                "this backend",
            )

    keys = rng.integers(0, 40, size=2000).astype(np.int64)
    ref = HuffmanX().compress_keys(keys, 64)
    got = HuffmanX(adapter=adapter).compress_keys(keys, 64)
    _require(ref == got, "Huffman-X stream differs on this backend")


# ----------------------------------------------------------------------
# Serving-path conformance
# ----------------------------------------------------------------------
def check_service(
    adapter: str = "serial",
    codecs: tuple[str, ...] = ("mgard-x", "zfp-x", "huffman-x"),
    batch_sizes: tuple[int, ...] = (1, 7, 64),
    shape: tuple[int, ...] = (16, 16),
    threads: int | None = None,
    rng: np.random.Generator | None = None,
    workers: int = 1,
    service_factory: Any | None = None,
    include_retrieve: bool = True,
) -> None:
    """Differential conformance of the HPDR-Serve request path.

    For every codec and batch size, submits that many concurrent
    requests to a :class:`~repro.serve.service.ReductionService` on
    ``adapter`` and requires each response to be **byte-identical** to a
    fresh single-shot codec call: micro-batching, context reuse and
    worker routing must never change a stream.  Decompressing the served
    streams through the service must likewise reproduce the single-shot
    arrays exactly.

    ``service_factory`` swaps the service under test: it receives each
    case's :class:`~repro.serve.service.ServiceConfig` and must return
    an unstarted async-context-manager service with the same request
    surface.  The cluster suite passes a factory wrapping the config in
    a :class:`~repro.cluster.router.ClusterService`, which makes this
    one checker the byte-identity oracle for the cluster front door
    too.

    With ``include_retrieve=True`` the suite also drives the
    ``retrieve`` op: a progressive archive is refactored up front and
    full-prefix, bounded-eps and bounded-resolution requests must each
    reproduce the direct :class:`~repro.progressive.ProgressiveRetriever`
    answer byte for byte through the same front door.

    Runs its own event loop; call from synchronous test code.  Raises
    :class:`AdapterConformanceError` on the first divergence.
    """
    import asyncio

    from repro.serve import (
        BatchLimits,
        CodecSpec,
        ReductionService,
        ServiceConfig,
    )

    factory = ReductionService if service_factory is None else service_factory
    rng = rng if rng is not None else np.random.default_rng(0)

    # Reference streams are computed synchronously *before* the event
    # loop starts: a direct codec call inside the async driver would
    # stall the loop (Statica rule HPL101) — and the references do not
    # depend on the service anyway.
    cases = []
    for codec in codecs:
        spec = CodecSpec(codec)
        for n in batch_sizes:
            arrays = [
                np.ascontiguousarray(
                    rng.standard_normal(shape).astype(np.float32)
                )
                for _ in range(n)
            ]
            reference = spec.build()
            want_blobs = [reference.compress(a) for a in arrays]
            want_arrays = [reference.decompress(b) for b in want_blobs]
            cases.append((codec, spec, n, arrays, want_blobs, want_arrays))

    retrieve_case = None
    if include_retrieve:
        # Like the compress references, the archive and the expected
        # reconstructions are computed synchronously before the loop
        # starts (Statica rule HPL101).
        from repro import Config, ProgressiveMGARD
        from repro.progressive import ProgressiveRetriever, archive_bytes

        field = np.ascontiguousarray(
            rng.standard_normal((12, 16)).astype(np.float32)
        )
        index, segments = ProgressiveMGARD(
            Config(error_bound=1e-3)
        ).refactor(field)
        archive = archive_bytes(index, segments)
        eps = float(index.frontier()[0].error_bound) * 1.0001
        oracle = ProgressiveRetriever()
        requests = [
            {},                    # full prefix
            {"eps": eps},          # bounded error
            {"resolution": 2},     # bounded resolution
        ]
        wants = [
            oracle.retrieve(archive, **kwargs)[0] for kwargs in requests
        ]
        retrieve_case = (archive, requests, wants)

    async def run() -> None:
        for codec, spec, n, arrays, want_blobs, want_arrays in cases:
            cfg = ServiceConfig(
                limits=BatchLimits(
                    max_batch=max(1, min(n, 64)), max_latency_s=0.005
                ),
                max_pending=max(256, 2 * n),
                adapter=adapter,
                threads=threads,
                workers=workers,
            )
            async with factory(cfg) as svc:
                got_blobs = await asyncio.gather(
                    *(svc.compress(spec, a) for a in arrays)
                )
                _require(
                    list(got_blobs) == want_blobs,
                    f"served {codec} stream differs from single-shot "
                    f"(adapter={adapter}, batch={n})",
                )
                got_arrays = await asyncio.gather(
                    *(svc.decompress(spec, b) for b in got_blobs)
                )
                for got, want in zip(got_arrays, want_arrays):
                    _require(
                        np.array_equal(np.asarray(got), want),
                        f"served {codec} decompression differs from "
                        f"single-shot (adapter={adapter}, batch={n})",
                    )
        if retrieve_case is not None:
            archive, requests, wants = retrieve_case
            spec = CodecSpec("mgard-x")
            cfg = ServiceConfig(
                limits=BatchLimits(max_batch=4, max_latency_s=0.005),
                adapter=adapter,
                threads=threads,
                workers=workers,
            )
            async with factory(cfg) as svc:
                got = await asyncio.gather(
                    *(svc.retrieve(spec, archive, **kw) for kw in requests)
                )
                for kw, g, want in zip(requests, got, wants):
                    _require(
                        np.asarray(g).dtype == want.dtype
                        and np.array_equal(np.asarray(g), want),
                        f"served retrieve ({kw or 'full'}) differs from "
                        f"direct retrieval (adapter={adapter})",
                    )

    asyncio.run(run())


# ----------------------------------------------------------------------
# Progressive-retrieval conformance
# ----------------------------------------------------------------------
def default_progressive_datasets() -> list[tuple[str, np.ndarray]]:
    """The dtype/shape matrix :func:`check_progressive` runs by default.

    One array per class the retrieval engine must handle: the three
    Table III synthetic stand-ins (3-D FP32 x2, 4-D FP64) plus plain
    1-D FP32 and 2-D FP64 fields.
    """
    from repro.data import e3sm_like, nyx_like, xgc_like

    rng = np.random.default_rng(11)
    wave = np.sin(np.linspace(0, 9, 257, dtype=np.float32))
    return [
        ("nyx-f32-3d", nyx_like((12, 14, 16), seed=1)),
        ("xgc-f64-4d", xgc_like((2, 6, 24, 6), seed=2)),
        ("e3sm-f32-3d", e3sm_like((10, 12, 18), seed=3)),
        ("wave-f32-1d",
         wave + rng.normal(0, 0.05, wave.shape).astype(np.float32)),
        ("noise-f64-2d", rng.normal(size=(21, 17))),
    ]


def check_progressive(
    datasets: list[tuple[str, np.ndarray]] | None = None,
    error_bound: float = 1e-3,
    eps_count: int = 3,
    adapter: Any = None,
) -> None:
    """Conformance suite for the progressive-retrieval contract.

    For every named dataset:

    1. **byte identity** — retrieving the full segment prefix must
       equal ``MGARDX(config).decompress(compress(data))`` byte for
       byte (same config, same dict size);
    2. **frontier monotonicity** — the recorded bounds of the
       retrievable frontier strictly decrease; a group-complete
       (``--resolution L``) prefix achieves exactly its recorded bound
       and stays within a few percent of the best earlier prefix (the
       recompose is linear, so a freshly added group's coarse planes
       can cancel a hair before its fine planes land), with the full
       resolution reaching the stream floor;
    3. **error-bound satisfaction** — for at least ``eps_count``
       eps values spanning the frontier, the achieved max error is
       ``<= eps`` while **strictly fewer** bytes than the full stream
       are fetched;
    4. the full stream's recorded floor satisfies the configured
       absolute bound;
    5. **refusal parity** — over a hostile set (a bound finer than
       float64 resolves at the data's magnitude, NaN, ±inf, an integer
       dtype, 0-d input), ``refactor`` raises exactly when
       ``MGARDX.compress`` does, with the same exception type, and no
       ``RuntimeWarning`` escapes either.

    Raises :class:`AdapterConformanceError` on the first violation.
    """
    from repro import Config, ErrorMode, MGARDX, ProgressiveMGARD
    from repro.progressive import ProgressiveRetriever, archive_bytes

    if datasets is None:
        datasets = default_progressive_datasets()
    config = Config(error_bound=error_bound)
    codec = ProgressiveMGARD(config, adapter=adapter)
    retriever = ProgressiveRetriever(adapter=adapter)
    for name, data in datasets:
        index, segments = codec.refactor(data)
        archive = archive_bytes(index, segments)

        # 1. Full prefix == one-shot decompression, byte for byte.
        oneshot = MGARDX(config, adapter=adapter, dict_size=codec.mgard.dict_size)
        want = oneshot.decompress(oneshot.compress(data))
        got, report = retriever.retrieve(archive)
        _require(got.dtype == want.dtype and got.tobytes() == want.tobytes(),
                 f"{name}: full-prefix retrieval is not byte-identical "
                 "to one-shot decompression")
        _require(report.bytes_fetched == index.total_bytes,
                 f"{name}: full retrieval did not fetch the whole stream")

        # 2. Monotone refinement.
        frontier = index.frontier()
        bounds = [r.error_bound for r in frontier]
        _require(all(b < a for a, b in zip(bounds, bounds[1:])),
                 f"{name}: frontier bounds are not strictly decreasing")
        data64 = np.asarray(data, dtype=np.float64)
        best = float("inf")
        last_err = float("inf")
        for level in range(1, index.ngroups + 1):
            coarse, rep = retriever.retrieve(archive, resolution=level)
            err = float(np.max(np.abs(
                np.asarray(coarse, dtype=np.float64) - data64
            )))
            _require(err <= rep.error_bound + 1e-12 * max(1.0, err),
                     f"{name}: resolution-{level} error {err:.3e} exceeds "
                     f"its recorded bound {rep.error_bound:.3e}")
            _require(err <= best * 1.05,
                     f"{name}: resolution-{level} error {err:.3e} regressed "
                     f"past the best earlier prefix ({best:.3e})")
            best = min(best, err)
            last_err = err
        _require(abs(last_err - index.floor) <= 1e-12 * max(1.0, index.floor),
                 f"{name}: full-resolution error {last_err:.3e} does not "
                 f"reach the stream floor {index.floor:.3e}")

        # 3. eps sweep: bound satisfied with strictly fewer bytes.
        targets = [b for b in bounds if b > 0][:-1] or bounds[:1]
        while len(targets) < eps_count:
            targets.append(targets[-1] * 2)
        for eps in [t * 1.0001 for t in targets[:max(eps_count, 3)]]:
            coarse, rep = retriever.retrieve(archive, eps=eps)
            err = float(np.max(np.abs(
                np.asarray(coarse, dtype=np.float64) - data64
            )))
            _require(err <= eps,
                     f"{name}: eps={eps:.3e} retrieval achieved {err:.3e}")
            _require(rep.bytes_fetched < rep.total_bytes,
                     f"{name}: eps={eps:.3e} fetched the whole stream "
                     f"({rep.bytes_fetched}/{rep.total_bytes} B)")

        # 4. The stream's floor honors the configured bound.
        abs_eb = config.absolute_bound(data)
        _require(index.floor <= abs_eb,
                 f"{name}: stream floor {index.floor:.3e} exceeds the "
                 f"configured absolute bound {abs_eb:.3e}")

    # 5. Both front doors refuse the same input the same way.
    finite = np.random.default_rng(0).standard_normal((9, 11))
    tight = Config(error_bound=1e-6, error_mode=ErrorMode.ABS)
    hostile = [
        ("magnitude-1e12", tight,
         np.random.default_rng(0).standard_normal((16, 16)) * 1e12),
        *((f"{bad}", config, np.where(finite > 1.5, bad, finite))
          for bad in (np.nan, np.inf, -np.inf)),
        ("int32", config, np.arange(64, dtype=np.int32).reshape(8, 8)),
        ("0-d", config, np.array(1.5)),
    ]
    for name, cfg, data in hostile:
        want, warned = _refusal(
            lambda: MGARDX(cfg, adapter=adapter).compress(data))
        got, also = _refusal(
            lambda: ProgressiveMGARD(cfg, adapter=adapter).refactor(data))
        _require(not warned + also,
                 f"{name}: RuntimeWarning escaped: {warned + also}")
        _require(got is want,
                 f"{name}: refactor raised {got}, MGARDX.compress {want}")


def _refusal(call: Callable[[], Any]) -> tuple[type | None, list[str]]:
    """``call()``'s exception type (None if it returned) and the
    ``RuntimeWarning`` messages it emitted."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            call()
            raised = None
        except Exception as exc:  # noqa: BLE001 - compared by the caller
            raised = type(exc)
    return raised, [str(w.message) for w in seen
                    if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# Stream-format robustness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FormatReport:
    """What :func:`check_format` tried and the worst of it."""

    mutations: int       #: mutated inputs decoded (truncations included)
    slowest_s: float     #: wall time of the slowest one
    slowest: str         #: which one it was
    peak_bytes: int      #: largest traced peak of any one decode
    limit_bytes: int     #: the bound that peak was held to


def _mutations(blob: bytes) -> Iterator[tuple[str, bytes, bool]]:
    """``(name, input, is_truncation)``: every cut, then four values
    for every byte (bit 0 and bit 7 flipped, 0x00, 0xFF)."""
    for cut in range(len(blob)):
        yield f"cut at {cut}", blob[:cut], True
    for i, byte in enumerate(blob):
        for name, value in (("bit 0", byte ^ 0x01), ("bit 7", byte ^ 0x80),
                            ("0x00", 0x00), ("0xFF", 0xFF)):
            if value != byte:
                yield (f"byte {i} {name}",
                       blob[:i] + bytes([value]) + blob[i + 1:], False)


def _traced(decode: Callable[[bytes], Any],
            blob: bytes) -> tuple[Exception | None, int]:
    """``decode(blob)``'s exception (or None) and the traced memory it
    allocated at its peak, over what was live before the call."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        # A mutated value field decodes to garbage that may overflow.
        with np.errstate(all="ignore"):
            decode(blob)
        error = None
    except Exception as exc:  # noqa: BLE001 - judged by the caller
        error = exc
    return error, tracemalloc.get_traced_memory()[1] - before


#: A mutated decode's traced peak may reach this many times the valid
#: stream's, plus ``_PEAK_SLACK`` bytes.
_PEAK_FACTOR = 4
_PEAK_SLACK = 1 << 20


def check_format(decode: Callable[[bytes], Any], blob: bytes) -> FormatReport:
    """Fuzz one stream format from one valid stream.

    ``decode`` parses a stream end to end (``codec.decompress``, say);
    ``blob`` is a stream it accepts.  The harness tries every
    truncation and, at every byte, a flip of bit 0, a flip of bit 7, a
    0x00 and a 0xFF — the last is how a lying length or an oversize
    declaration is tried without knowing the layout.  Each input must
    decode or raise :class:`~repro.util.CorruptStreamError`, and a
    truncation must never decode.  Each decode's tracemalloc peak must
    stay within 4 times the valid stream's plus 1 MiB.  Bind ``decode`` to a fresh codec: the
    baseline is its first, cold call.

    Raises :class:`AdapterConformanceError` on the first violation and
    returns a :class:`FormatReport` otherwise.  No timer is asserted;
    the report names the slowest input.
    """
    blob = bytes(blob)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        error, base = _traced(decode, blob)
        _require(error is None, f"the valid stream does not decode: {error!r}")
        limit = _PEAK_FACTOR * base + _PEAK_SLACK
        count, slowest, slowest_s, worst = 0, "", 0.0, 0
        for name, mutated, truncated in _mutations(blob):
            start = time.perf_counter()
            error, peak = _traced(decode, mutated)
            elapsed = time.perf_counter() - start
            count += 1
            if elapsed > slowest_s:
                slowest, slowest_s = name, elapsed
            worst = max(worst, peak)
            if error is not None and not isinstance(error, CorruptStreamError):
                raise AdapterConformanceError(
                    f"{name}: {type(error).__name__}: {error}"
                ) from error
            _require(error is not None or not truncated,
                     f"{name}: a truncated stream decoded")
            _require(peak <= limit,
                     f"{name}: peak {peak} B over the {limit} B bound")
    finally:
        if not tracing:
            tracemalloc.stop()
    return FormatReport(count, slowest_s, slowest, worst, limit)
