"""Fault-tolerant, restartable scale-out reduction campaigns.

:class:`CampaignRunner` drives the paper's §VII workload shape — N
ranks reducing a domain chunk-by-chunk into a BP output — on the
in-process MPI substrate (:mod:`repro.mpi_sim`), hardened end to end:

* every rank's adapter is wrapped ``FaultyAdapter → ResilientAdapter``,
  so injected device-batch failures and driver timeouts are retried
  with deterministic backoff, and a persistently failing device demotes
  to the serial adapter (graceful degradation);
* the output file is the only durable store: chunk *k*'s record is
  appended to ``final/data.0`` once chunks 0..k-1 are on disk, then
  fsynced, read back and checked against the CRC of the payload meant,
  so silently corrupted writes are detected and redone;
* ``run(resume=True)`` walks ``data.0``'s records, cuts the file at the
  first torn or CRC-bad one and continues from there — an injected
  kill, rank losses or a real crash never recompress a committed chunk;
* ranks listed in the plan drop out mid-run; survivors adopt their
  remaining chunks from the shared work queue (zero data loss).

Workdir layout: ``manifest.json`` (identity and rank progress, saved at
start, on kill and at the end) and ``final/{data.0,index.json}``.
Because every adapter produces bit-identical streams and records are
committed in chunk-id order, the output of an interrupted-and-resumed
campaign is **byte-identical** to an uninterrupted run — asserted by
digest equality in the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.adapters.base import get_adapter
from repro.compressors import build_codec
from repro.container import crc32
from repro.io.bp import HEADER_SIZE, BPVariable, header, parse_header, \
    parse_record, record_parts
from repro.io.engine import write_index
from repro.mpi_sim import RankDropout, run_ranks
from repro.resilience.adapter import FaultyAdapter, ResilientAdapter
from repro.resilience.errors import (
    CampaignKilled,
    CorruptPayloadFault,
    ResilienceExhausted,
    TransportFault,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import RetryPolicy, retry_call
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import Span, TRACER as _TRACER
from repro.util import atomic_write_json

MANIFEST_VERSION = 2


def cmm_digest(cache) -> str:
    """Digest of a ContextCache's key set (which contexts are warm).

    Matching digests across a restart mean the resumed run rebuilt the
    same reduction contexts — a cheap invariant that has caught
    key-schema drift between versions.
    """
    keys = sorted(repr(k) for k in getattr(cache, "_map", {}))
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


@dataclass
class CampaignManifest:
    """Campaign identity and per-rank progress (``manifest.json``).

    Completion is not recorded here: ``final/data.0`` says which chunks
    are done, and a resume trusts the disk.
    """

    fingerprint: str
    total_chunks: int
    rank_progress: dict[int, int] = field(default_factory=dict)
    context_digests: dict[int, str] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "total_chunks": self.total_chunks,
            # JSON keys are strings; normalize on load.
            "rank_progress": {str(k): v for k, v in self.rank_progress.items()},
            "context_digests": {
                str(k): v for k, v in self.context_digests.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignManifest":
        if d.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {d.get('version')!r} "
                f"(this release reads version {MANIFEST_VERSION})"
            )
        return cls(
            fingerprint=d["fingerprint"],
            total_chunks=int(d["total_chunks"]),
            rank_progress={
                int(k): int(v) for k, v in d.get("rank_progress", {}).items()
            },
            context_digests={
                int(k): v for k, v in d.get("context_digests", {}).items()
            },
        )

    def save(self, path) -> None:
        """Write atomically (fsync-and-rename): never a torn manifest."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        if _TRACER.enabled:
            with Span(_TRACER, "campaign.checkpoint", "resilience",
                      {"ranks": len(self.rank_progress)}):
                atomic_write_json(path, self.to_dict())
        else:
            atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "CampaignManifest | None":
        """The manifest at ``path``; None when there is none."""
        if not Path(path).exists():
            return None
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _chunk_name(cid: int) -> str:
    return f"chunk{cid:06d}"


def _meta(var: BPVariable) -> tuple:
    return var.name, var.shape, var.dtype, var.operator


def _sync(f) -> None:
    f.flush()
    os.fsync(f.fileno())


class _OutputLog:
    """``final/data.0``: one BP5X subfile, appended in chunk-id order.

    The header announces every chunk up front, and record *k* is
    byte-identical to what :meth:`~repro.io.bp.BPFile.tobytes` emits
    for ``chunk{k:06d}@0`` — the finished file is exactly what
    :class:`~repro.io.engine.BPWriter` would have written.  ``spans``
    holds each committed chunk's payload span; its length is the commit
    cursor, and ``end`` the byte offset the next record goes to.
    """

    def __init__(self, final_dir: Path, total: int) -> None:
        self.dir = final_dir
        self.path = final_dir / "data.0"
        self.total = total
        self.end = HEADER_SIZE
        self.spans: list[tuple[int, int]] = []

    @property
    def cursor(self) -> int:
        return len(self.spans)

    def create(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "wb") as f:
            f.write(header(self.total))
            _sync(f)
        self.end, self.spans = HEADER_SIZE, []

    def recover(self, expected) -> None:
        """Keep the leading run of good records and cut the file after it.

        ``expected(k)`` is the variable chunk *k* must be (its payload
        aside).  The walk stops at the first record that is truncated,
        fails its CRC or is not the chunk its position says.
        """
        (self.dir / "index.json").unlink(missing_ok=True)
        try:
            blob = self.path.read_bytes()
            intact = parse_header(blob) == self.total
        except (OSError, ValueError):
            intact = False
        if not intact:
            self.create()
            return
        off, spans = HEADER_SIZE, []
        while len(spans) < self.total:
            try:
                var, end = parse_record(blob, off)
            except ValueError:
                break
            if _meta(var) != _meta(expected(len(spans))):
                break
            spans.append((end - len(var.payload), len(var.payload)))
            off = end
        with open(self.path, "r+b") as f:
            f.truncate(off)
            _sync(f)
        self.end, self.spans = off, spans

    def append(self, var: BPVariable, crc: int) -> None:
        """Append ``var``'s record, read it back, check it against ``crc``.

        ``crc`` is the CRC32 of the payload meant; a silent flip on the
        way (the record's own CRC then matches the flipped bytes) leaves
        the file cut back to the cursor and raises
        :class:`CorruptPayloadFault` for the retry loop.
        """
        record = b"".join(record_parts(var))
        with open(self.path, "r+b") as f:
            f.seek(self.end)
            f.write(record)
            _sync(f)
            f.seek(self.end)
            try:
                stored = parse_record(f.read(len(record)), 0)[0].crc
            except ValueError:
                stored = None
            if stored != crc:
                f.truncate(self.end)
                _sync(f)
                raise CorruptPayloadFault(
                    f"chunk[{self.cursor}]",
                    "read-back CRC mismatch (payload corrupted in transit)",
                )
        self.end += len(record)
        self.spans.append((self.end - len(var.payload), len(var.payload)))

    def finish(self) -> None:
        """Write ``index.json`` from the spans the cursor recorded."""
        write_index(self.dir, (
            (_chunk_name(k), 0, 0, extent)
            for k, extent in enumerate(self.spans)
        ))


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    total_chunks: int
    resumed_chunks: int
    dropped_ranks: list[int]
    faults_injected: int
    retries: int
    output_path: Path
    output_digest: str
    rank_progress: dict[int, int] = field(default_factory=dict)

    @property
    def completed_this_run(self) -> int:
        return self.total_chunks - self.resumed_chunks


class CampaignRunner:
    """Run a chunked reduction campaign with faults, retries and restart.

    Parameters
    ----------
    data:
        Array to reduce; chunked along axis 0.
    workdir:
        Campaign directory (``manifest.json`` + ``final/`` output).
    make_compressor:
        ``callable(adapter) -> compressor``; defaults to the ``method``
        codec at rel-1e-3.  Called once per rank so each rank owns its
        contexts.
    method:
        Codec-table name: each record's operator tag (and fingerprint).
    ranks:
        Simulated rank count (threads via :func:`repro.mpi_sim.run_ranks`).
    chunk_elems:
        Elements along axis 0 per chunk.
    adapter_family:
        Backend each rank starts on (demotion target is always serial).
    plan:
        Optional :class:`FaultPlan`; ``None`` runs fault-free (the
        resilience machinery still guards against real failures).
    policy:
        Retry budget/backoff for device calls and chunk appends.
    sleep:
        Backoff sleeper passed through to retry loops (tests: no-op).
    """

    def __init__(
        self,
        data: np.ndarray,
        workdir,
        make_compressor=None,
        method: str = "mgard-x",
        ranks: int = 4,
        chunk_elems: int = 16,
        adapter_family: str = "serial",
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        timeout: float = 300.0,
        sleep=None,
    ) -> None:
        if ranks < 1:
            raise ValueError("need at least one rank")
        if chunk_elems < 1:
            raise ValueError("chunk_elems must be >= 1")
        self.data = np.ascontiguousarray(data)
        if self.data.ndim < 1 or self.data.shape[0] < 1:
            raise ValueError("data must have a non-empty leading axis")
        self.workdir = Path(workdir)
        self.manifest_path = self.workdir / "manifest.json"
        self.make_compressor = make_compressor or (
            lambda adapter: build_codec(method, {"error_bound": 1e-3},
                                        adapter))
        self.method = method
        self.ranks = ranks
        self.chunk_elems = chunk_elems
        self.adapter_family = adapter_family
        self.plan = plan
        self.policy = policy or RetryPolicy()
        self.timeout = timeout
        self._sleep = sleep

    # -- chunking ----------------------------------------------------------
    def chunk_bounds(self) -> list[tuple[int, int]]:
        n0 = self.data.shape[0]
        return [
            (start, min(start + self.chunk_elems, n0))
            for start in range(0, n0, self.chunk_elems)
        ]

    @property
    def total_chunks(self) -> int:
        return len(self.chunk_bounds())

    def fingerprint(self) -> str:
        """Campaign identity: same data + method + chunking ⇒ same value.

        Deliberately excludes the rank count and fault plan — a resume
        may use different parallelism or fault schedule and must still
        produce identical bytes.
        """
        h = hashlib.sha256()
        h.update(self.data.tobytes())
        h.update(str(self.data.shape).encode())
        h.update(np.dtype(self.data.dtype).str.encode())
        h.update(f":{self.method}:{self.chunk_elems}".encode())
        return h.hexdigest()

    def _variable(self, cid: int, payload: bytes = b"") -> BPVariable:
        """Chunk ``cid`` as the BP variable its output record holds."""
        n0 = self.data.shape[0]
        start = cid * self.chunk_elems
        rows = min(start + self.chunk_elems, n0) - start
        return BPVariable(f"{_chunk_name(cid)}@0",
                          (rows,) + self.data.shape[1:],
                          self.data.dtype.str, self.method, payload)

    # -- committing with corruption detection ------------------------------
    def _append(self, log: _OutputLog, injector: FaultInjector | None,
                cid: int, payload: bytes) -> None:
        """Append chunk ``cid`` at the cursor, retrying injected faults.

        The injected corruption is *silent* (the flipped bytes get a
        self-consistent record CRC, as a DMA flip would); detection is
        the read-back against the CRC of the payload we meant to write.
        """
        site = f"chunk[{cid}]"
        want = crc32(payload)

        def attempt():
            outgoing = payload
            if injector is not None:
                if injector.draw("transport", site):
                    raise TransportFault(site, "simulated chunk write failure")
                corrupted = injector.corrupt(payload, site)
                if corrupted is not None:
                    outgoing = corrupted
            log.append(self._variable(cid, outgoing), want)

        retry_call(attempt, self.policy, site=site, sleep=self._sleep)

    # -- the rank program --------------------------------------------------
    def _run_ranks(self, manifest: CampaignManifest, log: _OutputLog,
                   pending: list[int]) -> list:
        bounds = self.chunk_bounds()
        injector = FaultInjector(self.plan) if self.plan is not None else None
        work: queue.Queue[int] = queue.Queue()
        for cid in pending:
            work.put(cid)
        lock = threading.Lock()
        stop = threading.Event()
        ready: dict[int, tuple[bytes, int]] = {}  # computed, not yet on disk
        committed = [0]

        def commit(cid: int, payload: bytes, rank: int) -> None:
            """Park a payload, then append every chunk the cursor can take."""
            with lock:
                ready[cid] = (payload, rank)
                while not stop.is_set() and log.cursor in ready:
                    k = log.cursor
                    body, producer = ready.pop(k)
                    try:
                        self._append(log, injector, k, body)
                    except BaseException:
                        stop.set()
                        raise
                    manifest.rank_progress[producer] = (
                        manifest.rank_progress.get(producer, 0) + 1
                    )
                    committed[0] += 1
                    if injector is not None and injector.should_kill(
                            committed[0]):
                        stop.set()
                        raise CampaignKilled(log.cursor)

        def rank_program(comm):
            base = get_adapter(self.adapter_family)
            inner = base if injector is None else FaultyAdapter(base, injector)
            adapter = ResilientAdapter(
                inner, fallback="serial", policy=self.policy,
                sleep=self._sleep,
            )
            comp = self.make_compressor(adapter)
            # A listed rank always leaves: after its quota, or when the
            # queue runs dry first — never while holding a chunk.
            leaving = (injector is not None
                       and comm.rank in injector.plan.drop_ranks)
            my_done = 0
            while not stop.is_set():
                if leaving and injector.should_drop(comm.rank, my_done):
                    raise RankDropout(comm.rank, "injected drop-out")
                try:
                    cid = work.get_nowait()
                except queue.Empty:
                    if leaving:
                        raise RankDropout(comm.rank, "injected drop-out") \
                            from None
                    break
                start, end = bounds[cid]
                piece = self.data[start:end]
                if _TRACER.enabled:
                    with Span(_TRACER, "campaign.chunk", "resilience",
                              {"chunk": cid, "rank": comm.rank,
                               "elems": int(piece.shape[0])}):
                        payload = comp.compress(piece)
                else:
                    payload = comp.compress(piece)
                my_done += 1
                commit(cid, payload, comm.rank)
            cache = getattr(comp, "cache", None)
            if cache is not None:
                with lock:
                    manifest.context_digests[comm.rank] = cmm_digest(cache)
                    manifest.rank_progress.setdefault(comm.rank, 0)
            return my_done

        return run_ranks(
            self.ranks, rank_program,
            timeout=self.timeout, tolerate_dropouts=True,
        )

    # -- entry point -------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        fp = self.fingerprint()
        total = self.total_chunks
        log = _OutputLog(self.workdir / "final", total)
        manifest = None
        if resume:
            manifest = CampaignManifest.load(self.manifest_path)
            if manifest is not None and manifest.fingerprint != fp:
                raise ValueError(
                    "resume fingerprint mismatch: the campaign directory "
                    f"holds {manifest.fingerprint[:12]}…, this run is "
                    f"{fp[:12]}… (different data, method or chunking)"
                )
            log.recover(self._variable)
        else:
            if self.manifest_path.exists():
                raise ValueError(
                    f"{self.workdir} already holds a campaign manifest; "
                    "pass resume=True or use a fresh directory"
                )
            log.create()
        if manifest is None:
            manifest = CampaignManifest(fingerprint=fp, total_chunks=total)
        manifest.save(self.manifest_path)
        resumed = log.cursor
        if resume and _TRACER.enabled:
            with Span(_TRACER, "campaign.resume", "resilience",
                      {"resumed_chunks": resumed, "total": total}):
                pass

        faults0 = _faults_total()
        retries0 = _retries_total()
        results: list = []
        try:
            if resumed < total:
                results = self._run_ranks(
                    manifest, log, list(range(resumed, total))
                )
        except RuntimeError as exc:
            if isinstance(exc.__cause__, (CampaignKilled, ResilienceExhausted)):
                raise exc.__cause__ from None
            raise
        finally:
            manifest.save(self.manifest_path)

        dropped = [r.rank for r in results if isinstance(r, RankDropout)]
        if log.cursor < total:
            raise ResilienceExhausted(
                "campaign", self.ranks,
                RankDropout(None, f"{len(dropped)}/{self.ranks} ranks lost, "
                                  f"{total - log.cursor} chunks unfinished"),
            )
        log.finish()
        return CampaignResult(
            total_chunks=total,
            resumed_chunks=resumed,
            dropped_ranks=sorted(dropped),
            faults_injected=int(_faults_total() - faults0),
            retries=int(_retries_total() - retries0),
            output_path=log.dir,
            output_digest=output_digest(log.dir),
            rank_progress=dict(manifest.rank_progress),
        )


def _faults_total() -> float:
    return _METRICS.counter("hpdr_faults_injected_total").total()


def _retries_total() -> float:
    return _METRICS.counter("hpdr_retries_total").total()


def output_digest(final_dir) -> str:
    """SHA-256 over the final BP directory's files (sorted by name)."""
    final_dir = Path(final_dir)
    h = hashlib.sha256()
    for path in sorted(final_dir.iterdir()):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def reconstruct(workdir, make_compressor=None,
                adapter_family: str = "serial") -> np.ndarray:
    """Decode a completed campaign's output back into one array.

    Reads the final BP directory written by :class:`CampaignRunner` and
    concatenates the chunks along axis 0.  Each chunk decodes through
    the operator its record names, unless ``make_compressor`` is given:
    then one compressor it builds on ``adapter_family`` decodes every
    chunk.
    """
    from repro.io.engine import BPReader

    comp = (make_compressor(get_adapter(adapter_family))
            if make_compressor is not None else None)
    reader = BPReader(Path(workdir) / "final")
    pieces = []
    for key in sorted(reader.variables()):
        name = key.split("@")[0]
        pieces.append(reader.get(name, compressor=comp))
    return np.concatenate(pieces, axis=0)
