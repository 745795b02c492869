"""The four closed-loop workloads.  Why each exists is in README.md and
in BENCHMARK.json; this file is how each is driven and checked.

Every workload has the same life: ``setup`` (inputs from the seed,
objects, references, warm-up ops) -> ``round.ready()`` -> one measured
window -> in a traced round, the per-layer passes -> teardown.  All
adapters and thread counts are pinned here; nothing reads the host's
core count.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from contextlib import asynccontextmanager, nullcontext
from statistics import median
from zlib import crc32 as crc

import numpy as np

from meter import Ledger, Meter, err_frac
from repro import (Config, ContextCache, ErrorMode, HuffmanX, MGARDX,
                   ProgressiveMGARD, ProgressiveRetriever, ZFPX, get_adapter)
from repro.cluster import ClusterConfig, ClusterService, mixed_specs
from repro.compressors.mgard import (Hierarchy, decompose, dequantize_levels,
                                     quantize_levels, recompose)
from repro.compressors.mgard.decompose import level_factors
from repro.compressors.mgard.quantize import from_symbols, level_bins, to_symbols
from repro.data import gaussian_random_field, nyx_like
from repro.io import BPFile, BPReader, StepReader, StepWriter
from repro.progressive import write_store
from repro.serve import (BatchLimits, BlastClient, CodecSpec, ReductionService,
                         ServiceClient, ServiceConfig, ServiceOverloaded, Worker,
                         serve_tcp)
from spans import Recorder, TimingAdapter, TimingCompressor, timed

_now = time.perf_counter

#: a refused request is retried this often before it counts as failed.
_MAX_REFUSALS = 50

#: how often a served window samples the host's pace.
_PACE_EVERY_S = 0.05

#: spans that are calls into a codec (the base of ``adapters.busy_frac``).
_CODEC_CALLS = {f"{c}.{d}" for c in ("mgard", "zfp", "huffman")
                for d in ("compress", "decompress")} \
    | {"progressive.refactor", "progressive.retrieve"}

_MGARD_REL = Config(error_bound=1e-3, error_mode=ErrorMode.REL)


def _value_range(x: np.ndarray) -> float:
    return float(x.max()) - float(x.min())


def _fields(seed: int, index: int, shape) -> tuple[np.ndarray, ...]:
    """One step's three variables: a NYX-like density, a smoother
    velocity component, and quarter-integer "particle" values that a
    lossless coder can actually shrink."""
    base = seed * 1000 + index * 3
    density = nyx_like(shape, seed=base)
    velocity = gaussian_random_field(shape, -2.5, seed=base + 1, dtype=np.float32)
    particles = np.round(
        gaussian_random_field(shape, -2.0, seed=base + 2) * 4).astype(np.float32)
    return density, velocity, particles


def _op_span(rec: Recorder | None, name: str, op_id: int = -1):
    return rec.span(name, op_id) if rec is not None else nullcontext()


def _cold_call_ms(adapter, data: np.ndarray) -> float:
    """First MGARD-X call on a shape: the CMM context build a miss pays."""
    codec = MGARDX(_MGARD_REL, adapter=adapter, context_cache=ContextCache())
    return timed(None, "", codec.compress, data)[1] * 1e3


def _codec_layers(rec: Recorder, ledger: Ledger) -> dict:
    self_ms = rec.median_self()
    out = {}
    for label in ("mgard", "zfp", "huffman"):
        out[f"{label}.compress_ms"] = self_ms.get(f"{label}.compress", 0.0)
        out[f"{label}.decompress_ms"] = self_ms.get(f"{label}.decompress", 0.0)
        out[f"{label}.stored_frac"] = ledger.stored_frac(label)
    return out


def _launch_layers(rec: Recorder) -> dict:
    durations = rec.durations()
    launches = [i for i, n in enumerate(rec.names) if n.startswith("adapters.")]
    outermost = sum(
        durations[i] for i in launches
        if rec.parent[i] < 0 or not rec.names[rec.parent[i]].startswith("adapters."))
    codec = sum(d for d, n in zip(durations, rec.names) if n in _CODEC_CALLS)
    self_times = rec.self_times()
    return {
        "adapters.launch_us": median(self_times[i] for i in launches) * 1e6,
        "adapters.busy_frac": outermost / codec,
    }


class _Direct:
    """Shared loop of the workloads that call codecs and I/O themselves:
    ops cycle over ``PASS`` pre-generated inputs, at least one full pass
    (so the ledger sees every input), then until the window ends."""

    lanes = 1
    PASS = 0

    def __init__(self, seed: int, rec: Recorder | None) -> None:
        self.seed = seed
        self.rec = rec
        self.ledger = Ledger()
        self.first_error = ""

    def _op(self, i: int, meter: Meter, ledger: Ledger) -> None:
        raise NotImplementedError

    def _wrap(self, adapter):
        return TimingAdapter(adapter, self.rec) if self.rec else adapter

    def stored_frac(self) -> float:
        return self.ledger.stored_frac()

    def _window(self, seconds: float, after_first_pass=None) -> Meter:
        meter = Meter()
        deadline = meter.t_start + seconds
        i = 0
        while i < self.PASS or _now() < deadline:
            self._op(i, meter, self.ledger)
            meter.sample_pace()
            i += 1
            if i == self.PASS and after_first_pass:
                after_first_pass()
        return meter.stop()

    def _traced_window(self, seconds: float) -> tuple[Meter, dict]:
        """The traced window, with set-up's spans dropped first.  Counts
        are taken over the first pass only, so they repeat exactly for a
        seed however many ops the window goes on to hold."""
        self.rec.clear()
        self.adapter.reset()
        cache, counts = self.cache, {}
        base = (cache.hits, cache.misses, cache.evictions)

        def first_pass() -> None:
            hits, misses = cache.hits - base[0], cache.misses - base[1]
            counts.update({
                "core.cmm_hit_rate": hits / (hits + misses),
                "core.cmm_evictions": (cache.evictions - base[2]) / self.PASS,
                "adapters.gem_launches": self.adapter.gem / self.PASS,
                "adapters.dem_launches": self.adapter.dem / self.PASS,
                "adapters.map_tasks": self.adapter.maps / self.PASS,
            })

        meter = self._window(seconds, first_pass)
        counts["core.cmm_live_MB"] = cache.live_bytes / 1e6
        return meter, {**counts, **_codec_layers(self.rec, self.ledger),
                       **_launch_layers(self.rec)}


# ---------------------------------------------------------------------------
class DirectField(_Direct):
    """One caller, serial adapter, three 64^3 variables per step."""

    name = "direct_field"
    SHAPE = (64, 64, 64)
    PASS = 8

    def setup(self, steps=None) -> None:
        t0 = _now()
        self.steps = steps or [_fields(self.seed, i, self.SHAPE)
                               for i in range(self.PASS)]
        self.generate_s = _now() - t0
        self.adapter = self._wrap(get_adapter("serial"))
        self.cache = ContextCache()
        kw = {"adapter": self.adapter, "context_cache": self.cache}
        self.codecs = (("mgard", MGARDX(_MGARD_REL, **kw)),
                       ("zfp", ZFPX(rate=10, **kw)),
                       ("huffman", HuffmanX(**kw)))
        # One shape, so one untimed step builds every CMM context.
        self._op(0, Meter(), Ledger())

    def _op(self, i: int, meter: Meter, ledger: Ledger) -> None:
        rec, k = self.rec, i % self.PASS
        seconds, ok = 0.0, True
        try:
            with _op_span(rec, "op", i):
                for (label, codec), x in zip(self.codecs, self.steps[k]):
                    blob, t_c = timed(rec, f"{label}.compress", codec.compress, x)
                    back, t_d = timed(rec, f"{label}.decompress", codec.decompress, blob)
                    seconds += t_c + t_d
                    with _op_span(rec, "bench.verify"):
                        ok &= self._verify(label, k, x, blob, back, ledger)
        except Exception as exc:   # a failed op is a result, not a crash
            ok = False
            self.first_error = self.first_error or repr(exc)
        meter.record(seconds, 2 * sum(x.nbytes for x in self.steps[k]), ok)

    def _verify(self, label, k, x, blob, back, ledger: Ledger) -> bool:
        ok = back.dtype == x.dtype and back.shape == x.shape
        ok &= ledger.stream((label, k), label, x.nbytes, len(blob), crc(blob))
        if label == "mgard":
            ok &= ledger.bounded("mgard", err_frac(
                x, back, _MGARD_REL.absolute_bound(x)))
        elif label == "zfp":   # fixed rate has no bound: the decode must repeat
            ok &= ledger.same(("zfp.decoded", k), crc(back))
        else:
            ok &= bool(np.array_equal(back, x))
        if not ok and not self.first_error:
            self.first_error = f"{label} step {k} failed verification"
        return bool(ok)

    def execute(self, rnd) -> dict | None:
        self.setup()
        rnd.ready()
        if rnd.setup_only:
            return None
        if self.rec is None:
            return {"meter": self._window(rnd.seconds)}
        traced, layers = self._traced_window(rnd.seconds * 0.5)
        # Same loop without recorder or proxies: the tracing overhead base.
        plain = DirectField(self.seed, None)
        plain.setup(self.steps)
        layers["trace.plain_MBps"] = plain._window(rnd.seconds * 0.25).goodput_MBps()
        density = self.steps[0][0]
        layers.update(_mgard_stages(density, get_adapter("serial"),
                                    rnd.seconds * 0.25))
        layers["mgard.err_frac"] = self.ledger.err_frac["mgard"]
        layers["core.cold_call_ms"] = _cold_call_ms(get_adapter("serial"), density)
        return {"meter": traced, "layers": layers}


def _mgard_stages(data: np.ndarray, adapter, seconds: float) -> dict:
    """Replay MGARD-X's stages through the public stage functions, and
    the Huffman key coder on the MGARD symbols they produce."""
    hierarchy = Hierarchy(data.shape)
    factors = [level_factors(hierarchy, lvl) for lvl in range(hierarchy.total_levels)]
    ctx = ContextCache().get(("bench.replay",))   # persistent buffers, as in the codec
    abs_eb = _MGARD_REL.absolute_bound(data)
    dict_size = 4096
    huffman = HuffmanX(adapter=adapter)
    sizes = [hierarchy.num_coefficients(lvl) for lvl in range(hierarchy.total_levels)]
    sizes.append(int(np.prod(hierarchy.shape_at(hierarchy.total_levels))))
    bounds = np.cumsum([0] + sizes)
    state: dict = {}

    def do_decompose():
        coeffs, coarsest = decompose(data, hierarchy, adapter, factors, ctx)
        state["groups"] = coeffs + [coarsest.reshape(-1)]

    def do_quantize():
        state["bins"] = level_bins(abs_eb, len(state["groups"]))
        qgroups = quantize_levels(state["groups"], state["bins"], adapter)
        qflat = np.concatenate([q.reshape(-1) for q in qgroups])
        symbols, state["outliers"] = to_symbols(qflat, dict_size)
        state["keys"] = symbols.astype(np.int64)

    def do_keys_encode():
        state["payload"] = huffman.compress_keys(state["keys"], dict_size)

    def do_keys_decode():
        state["symbols"] = huffman.decompress_keys(state["payload"])

    def do_dequantize():
        qflat = from_symbols(state["symbols"], state["outliers"])
        qgroups = [qflat[bounds[i]:bounds[i + 1]] for i in range(len(sizes))]
        state["back"] = dequantize_levels(qgroups, state["bins"], adapter)

    def do_recompose():
        groups = state["back"]
        coarsest = groups[-1].reshape(hierarchy.shape_at(hierarchy.total_levels))
        state["out"] = recompose(groups[:-1], coarsest, hierarchy, adapter, factors, ctx)

    stages = (("mgard.decompose_ms", do_decompose), ("mgard.quantize_ms", do_quantize),
              ("huffman.keys_encode_ms", do_keys_encode),
              ("huffman.keys_decode_ms", do_keys_decode),
              ("mgard.dequantize_ms", do_dequantize), ("mgard.recompose_ms", do_recompose))
    samples: dict[str, list[float]] = {name: [] for name, _ in stages}
    deadline = _now() + seconds
    while len(samples["mgard.recompose_ms"]) < 3 or _now() < deadline:
        for name, fn in stages:
            samples[name].append(timed(None, "", fn)[1])
    if err_frac(data, state["out"], abs_eb) > 1.0:
        raise AssertionError("stage replay broke the MGARD-X bound")
    return {name: median(v) * 1e3 for name, v in samples.items()}


# ---------------------------------------------------------------------------
class ArchiveRW(_Direct):
    """Campaign cycles through ``repro.io`` and ``repro.progressive`` on a
    threaded adapter, over more shapes than the CMM cache holds."""

    name = "archive_rw"
    SHAPES = [(48, 48, 40 + k) for k in range(20)]
    PASS = len(SHAPES)
    EPS = (1e-1, 1e-2, 1e-3)           # retrieval bounds, as shares of the range
    VARS = (("density", "mgard-x", "mgard"), ("velocity", "zfp-x", "zfp"),
            ("particles", "huffman-x", "huffman"))
    _PROG_REL = Config(error_bound=1e-4, error_mode=ErrorMode.REL)

    def setup(self, tmp) -> None:
        t0 = _now()
        self.fields = [_fields(self.seed, k, shape)
                       for k, shape in enumerate(self.SHAPES)]
        self.generate_s = _now() - t0
        self.adapter = self._wrap(get_adapter("openmp", num_threads=2))
        self.cache = ContextCache()     # the default 16 entries, shared like a rank's CMM
        kw = {"adapter": self.adapter, "context_cache": self.cache}
        codecs = (MGARDX(_MGARD_REL, **kw), ZFPX(rate=10, **kw), HuffmanX(**kw))
        self.operators = [
            TimingCompressor(c, label, self.rec) if self.rec else c
            for c, (_, _, label) in zip(codecs, self.VARS)]
        self.refactorer = ProgressiveMGARD(self._PROG_REL, **kw)
        self.retriever = ProgressiveRetriever(**kw)
        # The portable reference: ZFP-X streams from the serial adapter.
        # What the threaded operator stores through the I/O layer must
        # be these bytes.
        reference = ZFPX(rate=10, adapter=get_adapter("serial"))
        self.zfp_ref = []
        for _, velocity, _ in self.fields:
            blob = reference.compress(velocity)
            self.zfp_ref.append((crc(blob), crc(reference.decompress(blob))))
        self.tmp = tmp
        self._op(0, Meter(), Ledger())

    def close(self) -> None:
        self.adapter.close()

    def _op(self, i: int, meter: Meter, ledger: Ledger) -> None:
        # Stride 7 through the 20 shapes: any stretch of a pass holds
        # small and large fields alike, so a window that ends mid-pass
        # does not lean to one end of the size range.
        k = (i * 7) % self.PASS
        fields = self.fields[k]
        bp_dir, store_dir = self.tmp / f"bp.{i}", self.tmp / f"store.{i}"
        try:
            with _op_span(self.rec, "op", i):
                seconds, ok = self._campaign(k, fields, bp_dir, store_dir, ledger)
        except Exception as exc:   # a failed op is a result, not a crash
            seconds, ok = 0.0, False
            self.first_error = self.first_error or repr(exc)
        finally:
            shutil.rmtree(bp_dir, ignore_errors=True)
            shutil.rmtree(store_dir, ignore_errors=True)
        moved = 2 * sum(x.nbytes for x in fields) + 2 * fields[0].nbytes
        meter.record(seconds, moved, ok)

    def _campaign(self, k, fields, bp_dir, store_dir, ledger) -> tuple[float, bool]:
        """Write a step, refactor and store the density, read the step
        back, retrieve the density under a bound; returns the timed
        seconds and whether every result checked out."""
        rec, density = self.rec, fields[0]
        eps = self.EPS[k % len(self.EPS)] * _value_range(density)
        seconds = 0.0
        writer = StepWriter(bp_dir, num_aggregators=2)
        with writer.step() as step:
            for rank, ((var, op, _), x, comp) in enumerate(
                    zip(self.VARS, fields, self.operators)):
                seconds += timed(rec, "io.put", step.put, var, x, rank, op, comp)[1]
        seconds += timed(rec, "io.close", writer.close)[1]
        (index, segments), t = timed(
            rec, "progressive.refactor", self.refactorer.refactor, density)
        seconds += t
        seconds += timed(rec, "progressive.store", write_store,
                         store_dir, index, segments, 2)[1]
        reader, t = timed(rec, "io.open", StepReader, bp_dir)
        seconds += t
        backs = []
        for rank, ((var, _, _), comp) in enumerate(zip(self.VARS, self.operators)):
            back, t = timed(rec, "io.get", reader.get, 0, var, rank, comp)
            seconds += t
            backs.append(back)
        (coarse, report), t = timed(
            rec, "progressive.retrieve", self.retriever.retrieve, store_dir, eps)
        seconds += t
        with _op_span(rec, "bench.verify"):
            ok = self._verify(k, fields, backs, coarse, report, eps,
                              bp_dir, store_dir, ledger)
        return seconds, ok

    def _verify(self, k, fields, backs, coarse, report, eps,
                bp_dir, store_dir, ledger: Ledger) -> bool:
        density, _, particles = fields
        ok = all(b.dtype == x.dtype and b.shape == x.shape
                 for b, x in zip(backs, fields))
        ok &= ledger.bounded("mgard", err_frac(
            density, backs[0], _MGARD_REL.absolute_bound(density)))
        ok &= crc(backs[1]) == self.zfp_ref[k][1]
        ok &= bool(np.array_equal(backs[2], particles))
        ok &= ledger.bounded("progressive", err_frac(density, coarse, eps))
        ok &= report.error_bound <= eps
        ok &= ledger.stream(("fetched", k), "fetched", report.total_bytes,
                            report.bytes_fetched, 0)
        # Stored bytes: codec streams as the I/O layer holds them ...
        payloads = BPReader(bp_dir)
        for rank, ((var, _, label), x) in enumerate(zip(self.VARS, fields)):
            stream = payloads.read_payload(f"step0/{var}", rank=rank)
            ok &= ledger.stream((label, k), label, x.nbytes, len(stream), crc(stream))
            if label == "zfp":
                ok &= crc(stream) == self.zfp_ref[k][0]
        # ... and files as the disk holds them.
        raw = {"bp": sum(x.nbytes for x in fields), "store": density.nbytes}
        for label, path in (("bp", bp_dir), ("store", store_dir)):
            size = data_crc = payload = 0
            for f in sorted(path.iterdir()):
                size += f.stat().st_size
                if f.name.startswith("data."):
                    data_crc ^= crc(f.read_bytes())
                    payload += BPFile.load(f).stored_bytes
            ok &= ledger.stream((label, k), label, raw[label], size, data_crc)
            ok &= ledger.stream(("payload", label, k), "payload", raw[label], payload, 0)
        if not ok and not self.first_error:
            self.first_error = f"cycle {k} failed verification"
        return bool(ok)

    def stored_frac(self) -> float:
        return self.ledger.stored_frac("bp", "store")

    def execute(self, rnd) -> dict | None:
        self.setup(rnd.scratch)
        try:
            rnd.ready()
            if rnd.setup_only:
                return None
            if self.rec is None:
                return {"meter": self._window(rnd.seconds)}
            return self._traced(rnd)
        finally:
            self.close()

    def _traced(self, rnd) -> dict:
        traced, layers = self._traced_window(rnd.seconds * 0.6)
        self_ms = self.rec.median_self()
        for key in ("io.put", "io.close", "io.open", "io.get",
                    "progressive.refactor", "progressive.store",
                    "progressive.retrieve"):
            layers[f"{key}_ms"] = self_ms[key]
        by = self.ledger.by_label
        files = by["bp"][1] + by["store"][1]
        layers.update({
            "io.bytes_written": files,
            "io.write_amp": files / by["payload"][1],
            "progressive.fetched_frac": self.ledger.stored_frac("fetched"),
            "progressive.err_frac": self.ledger.err_frac["progressive"],
            "mgard.err_frac": self.ledger.err_frac["mgard"],
        })
        plain = ArchiveRW(self.seed, None)
        plain.setup(rnd.scratch)
        try:
            layers["trace.plain_MBps"] = plain._window(rnd.seconds * 0.4).goodput_MBps()
        finally:
            plain.close()
        layers["core.cold_call_ms"] = _cold_call_ms(self.adapter.inner, self.fields[0][0])
        return {"meter": traced, "layers": layers}


# ---------------------------------------------------------------------------
def _service_config() -> ServiceConfig:
    return ServiceConfig(limits=BatchLimits(max_batch=16, max_latency_s=0.002),
                         workers=1, adapter="serial", tune="off")


@asynccontextmanager
async def _front_door(service, connections: int):
    """Start ``service`` behind ``serve_tcp`` and connect the clients, all
    on the calling loop; tear everything down on exit."""
    await service.start()
    server = await serve_tcp(service)
    host, port = server.sockets[0].getsockname()[:2]
    clients: list[BlastClient] = []
    try:
        for _ in range(connections):
            clients.append(await BlastClient.connect(host, port))
        yield clients
    finally:
        for client in clients:
            await client.close()
        server.close()
        await server.wait_closed()
        await service.close()


class _Served:
    """Shared closed loop of the served and clustered workloads: each of
    ``CLIENTS`` connections sends compress, then decompress of the
    returned stream, and waits for each reply (``run_blast`` semantics)."""

    CLIENTS = 8
    lanes = CLIENTS

    def __init__(self, seed: int, rec: Recorder | None) -> None:
        self.seed = seed
        self.rec = rec
        self.ledger = Ledger()
        self.first_error = ""
        self.refused = 0

    # -- subclass surface ------------------------------------------------
    def make_requests(self) -> list[tuple[CodecSpec, np.ndarray]]:
        raise NotImplementedError

    def plan(self, client: int, i: int) -> int:
        """Index into the request list of client ``client``'s i-th op."""
        raise NotImplementedError

    def make_service(self):
        raise NotImplementedError

    # -- setup -------------------------------------------------------------
    def prepare(self) -> None:
        """Inputs, and for each the direct codec's stream and decode: what
        the service must answer, byte for byte (the portability claim)."""
        t0 = _now()
        self.requests = self.make_requests()
        self.generate_s = _now() - t0
        serial = get_adapter("serial")
        codecs: dict = {}
        self.refs = []
        for key, (spec, data) in enumerate(self.requests):
            codec = codecs.setdefault(spec, spec.build(adapter=serial))
            blob = codec.compress(data)
            back = np.ascontiguousarray(codec.decompress(blob))
            self.refs.append((crc(blob), crc(back)))
            ok = self.ledger.stream(key, spec.name, data.nbytes, len(blob), crc(blob))
            if spec.name in ("mgard-x", "sz"):
                ok &= self.ledger.bounded(spec.name, err_frac(
                    data, back, spec.error_bound * _value_range(data)))
            elif spec.name in ("huffman-x", "lz4"):
                ok &= bool(np.array_equal(back.astype(data.dtype), data))
            if not ok:
                raise AssertionError(f"direct {spec.name} reference is wrong")

    # -- the loop ------------------------------------------------------------
    async def _call(self, client, op: str, spec, payload, rec, parent: int):
        sid = rec.begin(f"client.{op}", parent=parent) if rec else -1
        try:
            for _ in range(_MAX_REFUSALS):
                try:
                    return await client.request(op, spec, payload)
                except ServiceOverloaded:
                    self.refused += 1
                    await asyncio.sleep(0.001)
            return await client.request(op, spec, payload)
        finally:
            if rec:
                rec.finish(sid)

    async def _request(self, client, c: int, i: int, meter: Meter, rec) -> None:
        key = self.plan(c, i)
        spec, data = self.requests[key]
        sid = rec.begin("op", parent=-1, op_id=i * self.CLIENTS + c) if rec else -1
        t0 = _now()
        try:
            blob = await self._call(client, "compress", spec, data, rec, sid)
            back = await self._call(client, "decompress", spec, blob, rec, sid)
            failure = ""
        except Exception as exc:   # a failed op is a result, not a crash
            failure = repr(exc)
        seconds = _now() - t0
        if rec:
            rec.finish(sid)
        if not failure:
            back = np.asarray(back)
            if (crc(blob), crc(np.ascontiguousarray(back))) != self.refs[key] \
                    or back.shape != data.shape:
                failure = f"{spec.name} reply differs from the direct codec"
        if failure and not self.first_error:
            self.first_error = failure
        meter.record(seconds, 2 * data.nbytes, not failure)

    async def _window(self, clients, seconds: float, rec=None, min_each: int = 0) -> Meter:
        meter = Meter()
        deadline = meter.t_start + seconds

        async def loop(c: int, client) -> None:
            i = 0
            while i < min_each or _now() < deadline:
                await self._request(client, c, i, meter, rec)
                i += 1

        open_ = True

        async def pace() -> None:
            # On the loop thread, like the clients: a sample stalls them
            # for its 0.4 ms, under 1 % of the window.
            while open_:
                await asyncio.sleep(_PACE_EVERY_S)
                meter.sample_pace()

        sampler = asyncio.ensure_future(pace())
        try:
            await asyncio.gather(*(loop(c, cl) for c, cl in enumerate(clients)))
        finally:
            open_ = False
            await sampler
        return meter.stop()

    def stored_frac(self) -> float:
        return self.ledger.stored_frac()

    def execute(self, rnd) -> dict | None:
        return asyncio.run(self._main(rnd))

    async def _main(self, rnd) -> dict | None:
        self.prepare()
        service = self.make_service()
        async with _front_door(service, self.CLIENTS) as clients:
            await self._window(clients, 0.0, min_each=self.WARM_EACH)
            rnd.ready()
            if rnd.setup_only:
                return None
            if self.rec is None:
                return {"meter": await self._window(clients, rnd.seconds)}
            traced = await self._window(clients, rnd.seconds * 0.4, self.rec)
            return {"meter": traced,
                    "layers": await self._layers(rnd, service, clients, traced)}


class ServedSmall(_Served):
    """Tiny tiles, one spec: the serving path is the budget."""

    name = "served_small"
    TILES = 64
    WARM_EACH = 2          # one spec, one shape: two ops build every context
    SPEC = CodecSpec("zfp-x", rate=8.0)

    def make_requests(self):
        return [(self.SPEC, gaussian_random_field(
            (32, 32), -2.0, seed=self.seed * 1000 + t, dtype=np.float32))
            for t in range(self.TILES)]

    def plan(self, client: int, i: int) -> int:
        return (client * self.CLIENTS + i) % self.TILES

    def make_service(self):
        return ReductionService(_service_config())

    async def _layers(self, rnd, service, clients, traced: Meter) -> dict:
        s = rnd.seconds
        stats = service.stats
        layers = {
            "serve.mean_batch_size": stats.mean_batch_size,
            "serve.batches": stats.batches,
            "serve.peak_queue_depth": stats.peak_queue_depth,
            "serve.refused_frac": stats.rejected / (stats.submitted + stats.rejected),
            "serve.lat_p99_ms": traced.lat_ms(99),
        }
        # Door 3: the same TCP path, untraced.
        tcp = await self._window(clients, s * 0.2)
        layers["trace.plain_MBps"] = tcp.goodput_MBps()
        # Door 4: a frame there and back, no codec work.
        pings = []
        for _ in range(200):
            t0 = _now()
            await clients[0].ping()
            pings.append(_now() - t0)
        layers["serve.ping_rtt_us"] = median(pings) * 1e6
        # Door 2: ReductionService.submit without the socket.
        async with ReductionService(_service_config()) as local:
            callers = [ServiceClient(local)] * self.CLIENTS
            await self._window(callers, 0.0, min_each=self.WARM_EACH)
            inproc = await self._window(callers, s * 0.2)
        # Door 1: the worker alone, on batches of the size the service formed.
        batch = max(1, round(stats.mean_batch_size))
        worker_us = self._worker_door(s * 0.2, batch)
        layers.update({
            "serve.worker_us": worker_us,
            "serve.service_us": inproc.cost_us() - worker_us,
            "serve.framing_us": tcp.cost_us() - inproc.cost_us(),
        })
        return layers

    def _worker_door(self, seconds: float, batch: int) -> float:
        worker = Worker(0, get_adapter("serial"), get_adapter("serial"))
        tiles = [data for _, data in self.requests]
        samples, i = [], 0
        deadline = _now() + seconds
        try:
            while len(samples) < 3 or _now() < deadline:
                payloads = [tiles[(i + j) % len(tiles)] for j in range(batch)]
                i += batch
                t0 = _now()
                blobs = [v for _, v in worker.run_payloads("compress", self.SPEC, payloads)]
                backs = worker.run_payloads("decompress", self.SPEC, blobs)
                samples.append((_now() - t0) / batch)
                if any(tag != "ok" for tag, _ in backs):
                    raise AssertionError("worker door: a payload failed")
        finally:
            worker.close()
        return median(samples) * 1e6


class ClusterMixed(_Served):
    """The 16-spec mixed roster through a 4-shard cluster: routing is on
    the path and batching is bypassed."""

    name = "cluster_mixed"
    TILES = 4
    WARM_EACH = 4          # each connection's two specs, twice: every context it will use
    SHAPE = (64, 64)

    def make_requests(self):
        self.specs = mixed_specs(16)
        out = []
        for t in range(self.TILES):
            smooth = gaussian_random_field(
                self.SHAPE, -2.0, seed=self.seed * 1000 + t, dtype=np.float32)
            stepped = np.round(smooth * 4).astype(np.float32)
            for spec in self.specs:
                lossless = spec.name in ("huffman-x", "lz4")
                out.append((spec, stepped if lossless else smooth))
        return out

    def plan(self, client: int, i: int) -> int:
        # Each connection owns two roster entries (c and c + 8) and no two
        # share one, so no batch ever holds two requests.  Letting clients
        # walk the whole roster makes them fall into step over a few
        # seconds (answered together, they ask together), batches grow to
        # 8 and goodput quintuples mid-run: a convoy, not a steady state.
        n = len(self.specs)
        spec = client + self.CLIENTS * (i % 2)
        return ((i // 2) % self.TILES) * n + spec

    def make_service(self):
        return ClusterService(ClusterConfig(
            shards=4, backend="task", shard_max_pending=64,
            service=_service_config()))

    async def _layers(self, rnd, cluster, clients, traced: Meter) -> dict:
        s = rnd.seconds
        stats = cluster.stats
        per_shard = list(stats.per_shard.values())
        layers = {
            "cluster.shard_imbalance": max(per_shard) / (sum(per_shard) / 4),
            "cluster.refused_frac": stats.rejected / stats.submitted,
            "cluster.failovers": stats.failovers,
            "cluster.lat_p99_ms": traced.lat_ms(99),
        }
        routes = []
        for spec, data in self.requests:
            routes.append(timed(None, "", cluster.owner, "compress", spec, data)[1])
        layers["cluster.route_us"] = median(routes) * 1e6
        plain = await self._window(clients, s * 0.3)
        layers["trace.plain_MBps"] = plain.goodput_MBps()
        # The base: one bare service, same roster, same eight connections.
        bare = ReductionService(_service_config())
        async with _front_door(bare, self.CLIENTS) as direct:
            await self._window(direct, 0.0, min_each=self.WARM_EACH)
            base = await self._window(direct, s * 0.3)
        layers.update({
            "cluster.router_ms": plain.lat_ms(50) - base.lat_ms(50),
            "cluster.vs_service_ratio": plain.goodput_MBps() / base.goodput_MBps(),
            "cluster.base_service_MBps": base.goodput_MBps(),
            # Shard services are private to the router; the batching the
            # roster allows is read from the bare service it was split from.
            "serve.mean_batch_size": bare.stats.mean_batch_size,
            "serve.batches": bare.stats.batches,
            "serve.peak_queue_depth": bare.stats.peak_queue_depth,
            "serve.refused_frac": bare.stats.rejected
            / (bare.stats.submitted + bare.stats.rejected),
            "serve.lat_p99_ms": base.lat_ms(99),
        })
        serial = get_adapter("serial")
        for name, key in (("sz", "baselines.sz_roundtrip_ms"),
                          ("lz4", "baselines.lz4_roundtrip_ms")):
            samples = []
            for spec, data in self.requests:
                if spec.name == name:
                    codec = spec.build(adapter=serial)
                    samples.append(timed(
                        None, "", lambda: codec.decompress(codec.compress(data)))[1])
            layers[key] = median(samples) * 1e3
        return layers


WORKLOADS = {w.name: w for w in (DirectField, ArchiveRW, ServedSmall, ClusterMixed)}
