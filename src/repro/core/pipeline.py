"""Host-Device Execution Model pipeline (paper Section V, Fig. 9).

Builds the optimized reduction/reconstruction DAGs on a simulated
device:

* three in-order queues (the minimum depth, by Little's law, to keep
  one compute engine and two DMA engines busy);
* two input/output buffer sets, enforced by the *extra dependencies*
  (Fig. 9's dotted edges): the pipeline stage on queue X must not start
  until stage (X+2) mod 3's buffer-releasing operation finished;
* one kernel at a time (restriction 1) — guaranteed by the single
  compute-engine resource;
* one DMA per direction (restriction 2) — input copies on the H2D
  engine, output copies and (de)serialization on the D2H engine;
* the reconstruction launch-order reversal (red edges): the next
  chunk's deserialization is issued before the current chunk's output
  copy on their shared DMA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.device import SimDevice
from repro.machine.engine import Task, TaskKind, Trace
from repro.perf.models import KernelModel
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER, span

#: metadata embedded/extracted per chunk (bytes) — rides the DMA engines.
META_BYTES = 4096


def _record_pipeline_metrics(trace: Trace, direction: str) -> None:
    """Derive Fig. 9 health metrics from a completed simulated schedule.

    Queue wait is the idle time between consecutive tasks on each
    in-order stream: the per-queue sum of start-gaps, i.e. how long the
    stream head sat blocked on dependencies or a busy engine.
    """
    if not _TRACER.enabled:
        return
    per_queue: dict[str, list[Task]] = {}
    for t in trace.tasks:
        if t.queue is not None and t.scheduled:
            per_queue.setdefault(t.queue.name, []).append(t)
    wait = _METRICS.counter(
        "hpdr_pipeline_queue_wait_seconds_total",
        "idle gaps between consecutive tasks on each pipeline queue",
    )
    for qname, tasks in per_queue.items():
        tasks.sort(key=lambda t: (t.start, t.seq))
        gaps = 0.0
        prev_end = 0.0
        for t in tasks:
            if t.start > prev_end:
                gaps += t.start - prev_end
            prev_end = max(prev_end, t.end)
        wait.inc(gaps, queue=qname, direction=direction)
    _METRICS.gauge(
        "hpdr_pipeline_makespan_seconds", "simulated schedule makespan"
    ).set(trace.makespan, direction=direction)
    _METRICS.gauge(
        "hpdr_pipeline_overlap_ratio", "copy/compute overlap achieved"
    ).set(trace.overlap_ratio(), direction=direction)


@dataclass
class PipelineResult:
    """Outcome of one simulated pipeline execution."""

    trace: Trace
    chunk_sizes: list[int]
    total_in_bytes: int
    total_out_bytes: int

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    @property
    def throughput(self) -> float:
        """End-to-end input bytes per second."""
        return self.total_in_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def overlap_ratio(self) -> float:
        return self.trace.overlap_ratio()

    @property
    def hidden_copy_ratio(self) -> float:
        return self.trace.hidden_copy_ratio()


class ReductionPipeline:
    """Fig. 9 pipeline builder over a :class:`SimDevice`.

    Parameters
    ----------
    device:
        The simulated device.
    model:
        Chunk-size-dependent kernel model Φ (compression direction).
    num_queues:
        Pipeline depth (paper: 3 is the minimum for full overlap).
    num_buffers:
        Input/output buffer sets.  2 enables the paper's
        memory-footprint optimization via extra dependencies; 3 removes
        the anti-dependencies (ablation).
    overlapped:
        False degenerates to the naive copy-in / compute / copy-out
        serial pipeline (the "None" configuration of Fig. 13).
    context_cached:
        CMM on/off.  Off ⇒ every chunk allocates its buffers through
        the device's (possibly shared) runtime before use.
    reversed_order:
        Reconstruction launch-order reversal (red edges).  On by
        default; off for the ablation bench.
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan`.  Chunks
        whose kernel draws a ``device_batch`` fault are *re-executed*:
        the schedule gains a second kernel task (``…retry``) plus the
        runtime launch arbitration, so the simulated makespan prices in
        the recovery cost of the resilience layer.  Faults and modeled
        retries surface on the standard counters.
    """

    def __init__(
        self,
        device: SimDevice,
        model: KernelModel,
        num_queues: int = 3,
        num_buffers: int = 2,
        overlapped: bool = True,
        context_cached: bool = True,
        reversed_order: bool = True,
        staging_copies: bool | None = None,
        allocs_per_call: int = 4,
        call_overhead_s: float = 0.0,
        stage_split: bool = False,
        fault_plan=None,
    ) -> None:
        if num_queues < 1:
            raise ValueError(f"num_queues must be >= 1, got {num_queues}")
        if num_buffers < 2:
            raise ValueError(f"num_buffers must be >= 2, got {num_buffers}")
        self.device = device
        self.model = model
        self.num_queues = num_queues if overlapped else 1
        self.num_buffers = num_buffers
        self.overlapped = overlapped
        self.context_cached = context_cached
        self.reversed_order = reversed_order
        # Legacy pipelines stage through host buffers (application →
        # reduction buffer, reduction → I/O buffer); HPDR DMA-copies
        # directly from the application buffer (Section V).
        self.staging_copies = (not overlapped) if staging_copies is None else staging_copies
        if allocs_per_call < 0 or call_overhead_s < 0:
            raise ValueError("allocs_per_call/call_overhead_s must be non-negative")
        self.allocs_per_call = allocs_per_call
        # Host-side fixed cost per reduction invocation (e.g. cuSZ's
        # partially CPU-resident codebook construction).
        self.call_overhead_s = call_overhead_s
        # Emit one compute task per algorithm stage (decompose /
        # quantize / encode …) using the perf model's stage split —
        # finer-grained Fig. 1-style traces at identical total time.
        self.stage_split = stage_split
        self._injector = None
        if fault_plan is not None:
            # Lazy import: repro.resilience imports this module's users.
            from repro.resilience.faults import FaultInjector

            self._injector = FaultInjector(fault_plan)

    def _maybe_retry_kernel(self, queue, chunk: int, label: str) -> None:
        """Model kernel re-execution when the fault plan strikes."""
        if self._injector is None:
            return
        if not self._injector.draw("device_batch", "pipeline.kernel"):
            return
        _METRICS.counter(
            "hpdr_retries_total", "recovery re-attempts performed"
        ).inc(site="pipeline.kernel")
        # A failed batch pays launch arbitration again, then re-runs.
        self.device.runtime.launch(self.device, queue)
        self._submit_kernel(queue, chunk, f"{label}.retry")

    def _submit_kernel(self, queue, chunk: int, label: str) -> Task:
        """One fused kernel task, or a stage chain when splitting."""
        total = self.model.kernel_time(chunk)
        if not self.stage_split:
            return self.device.kernel(total, queue, label=label, nbytes=chunk)
        from repro.perf.models import STAGE_SPLIT

        split = STAGE_SPLIT.get(self.model.pipeline)
        if not split:
            return self.device.kernel(total, queue, label=label, nbytes=chunk)
        last = None
        for stage, frac in split.items():
            last = self.device.kernel(
                total * frac, queue, label=f"{label}.{stage}", nbytes=chunk
            )
        return last

    # ------------------------------------------------------------------
    def _alloc_tasks(self, queue, chunk_bytes: int, ratio: float) -> list[Task]:
        """Per-chunk runtime memory management when the CMM is disabled.

        Release-version tools allocate their reduction context on every
        call and free it afterwards; both directions serialize on the
        node-shared runtime, which is the Fig. 16 contention mechanism.
        """
        if self.call_overhead_s > 0:
            self.device.sim.submit(
                f"{self.device.spec.name}[{self.device.index}].call_overhead",
                TaskKind.HOST,
                self.device.host_memcpy,
                queue,
                duration=self.call_overhead_s,
            )
        # Kernel-launch arbitration always passes through the runtime.
        self.device.runtime.launch(self.device, queue)
        if self.context_cached:
            return []
        out_bytes = max(1, int(chunk_bytes / ratio))
        sizes = [chunk_bytes, out_bytes] + [chunk_bytes // 2] * max(
            0, self.allocs_per_call - 2
        )
        tasks = []
        for k, nbytes in enumerate(sizes[: self.allocs_per_call]):
            tasks.append(self.device.malloc(nbytes, queue, label=f"alloc{k}"))
            self.device.mem_in_use -= nbytes  # steady-state accounting only
        for k, nbytes in enumerate(sizes[: self.allocs_per_call]):
            self.device.free(nbytes, queue, label=f"free{k}")
        return tasks

    # ------------------------------------------------------------------
    def build_compression(
        self,
        chunk_sizes: list[int],
        ratio: float = 4.0,
    ) -> None:
        """Submit the compression DAG without running the simulator.

        Use this to co-schedule several devices' pipelines on one shared
        simulator (multi-GPU nodes), then call ``sim.run()`` once.
        """
        if not chunk_sizes:
            raise ValueError("need at least one chunk")
        if ratio <= 0:
            raise ValueError(f"ratio must be positive, got {ratio}")
        dev = self.device
        with span(
            "pipeline.build_compression",
            cat="pipeline",
            chunks=len(chunk_sizes),
            queues=self.num_queues,
        ):
            queues = dev.create_queues(self.num_queues)
            serialize_tasks: list[Task] = []

            for i, chunk in enumerate(chunk_sizes):
                q = queues[i % self.num_queues]
                out_bytes = max(1, int(chunk / ratio))
                deps: list[Task] = []
                # Buffer anti-dependency (dotted edges): with B buffer
                # sets, chunk i reuses chunk i-B's input buffer, which
                # frees at that chunk's serialization.
                j = i - self.num_buffers
                if self.overlapped and j >= 0:
                    deps.append(serialize_tasks[j])
                self._alloc_tasks(q, chunk, ratio)
                if self.staging_copies:
                    dev.host_copy(chunk, q, label=f"stage_in[{i}]")
                dev.h2d(chunk, q, deps=deps, label=f"h2d[{i}]")
                self._submit_kernel(q, chunk, f"reduce[{i}]")
                self._maybe_retry_kernel(q, chunk, f"reduce[{i}]")
                dev.d2h(out_bytes, q, label=f"out[{i}]")
                t_ser = dev.serialize(META_BYTES, q, label=f"ser[{i}]")
                if self.staging_copies:
                    dev.host_copy(out_bytes, q, label=f"stage_out[{i}]")
                serialize_tasks.append(t_ser)

    def run_compression(
        self,
        chunk_sizes: list[int],
        ratio: float = 4.0,
    ) -> PipelineResult:
        """Simulate compressing chunks of the given sizes (bytes)."""
        self.build_compression(chunk_sizes, ratio)
        with span("pipeline.run_compression", cat="pipeline",
                  chunks=len(chunk_sizes)):
            trace = self.device.sim.run()
        _record_pipeline_metrics(trace, direction="compress")
        return PipelineResult(
            trace=trace,
            chunk_sizes=list(chunk_sizes),
            total_in_bytes=int(sum(chunk_sizes)),
            total_out_bytes=int(sum(max(1, int(c / ratio)) for c in chunk_sizes)),
        )

    # ------------------------------------------------------------------
    def build_reconstruction(
        self,
        chunk_sizes: list[int],
        ratio: float = 4.0,
    ) -> None:
        """Submit the reconstruction DAG without running the simulator."""
        if not chunk_sizes:
            raise ValueError("need at least one chunk")
        dev = self.device
        with span(
            "pipeline.build_reconstruction",
            cat="pipeline",
            chunks=len(chunk_sizes),
            queues=self.num_queues,
        ):
            queues = dev.create_queues(self.num_queues)
            out_tasks: list[Task] = []
            deser_tasks: list[Task] = []
            pending: list[tuple] = []

            # First pass: create per-chunk task descriptors in *launch
            # order*.  With reversed_order, chunk i+1's deserialize is
            # issued before chunk i's output copy (they share the D2H
            # DMA engine).
            for i, chunk in enumerate(chunk_sizes):
                q = queues[i % self.num_queues]
                in_bytes = max(1, int(chunk / ratio))
                deps: list[Task] = []
                j = i - self.num_buffers
                if self.overlapped and j >= 0 and j < len(out_tasks):
                    deps.append(out_tasks[j])
                self._alloc_tasks(q, chunk, ratio)
                if self.staging_copies:
                    dev.host_copy(in_bytes, q, label=f"stage_in[{i}]")
                dev.h2d(in_bytes, q, deps=deps, label=f"h2d[{i}]")
                t_deser = dev.deserialize(META_BYTES, q, label=f"deser[{i}]")
                deser_tasks.append(t_deser)
                self._submit_kernel(q, chunk, f"recon[{i}]")
                self._maybe_retry_kernel(q, chunk, f"recon[{i}]")
                # Output copy launch: reversed order lets the *next*
                # chunk's deserialization win scheduler ties on the
                # shared DMA; the non-reversed ablation instead makes
                # the next deserialize explicitly wait for this copy.
                t_out = dev.d2h(chunk, q, label=f"out[{i}]")
                if self.staging_copies:
                    dev.host_copy(chunk, q, label=f"stage_out[{i}]")
                out_tasks.append(t_out)
                if not self.reversed_order and i + 1 < len(chunk_sizes):
                    pending.append((i + 1, t_out))

            for idx, t_out in pending:
                deser_tasks[idx].add_dep(t_out)

    def run_reconstruction(
        self,
        chunk_sizes: list[int],
        ratio: float = 4.0,
    ) -> PipelineResult:
        """Simulate reconstructing chunks (sizes are *decompressed* bytes)."""
        self.build_reconstruction(chunk_sizes, ratio)
        with span("pipeline.run_reconstruction", cat="pipeline",
                  chunks=len(chunk_sizes)):
            trace = self.device.sim.run()
        _record_pipeline_metrics(trace, direction="reconstruct")
        return PipelineResult(
            trace=trace,
            chunk_sizes=list(chunk_sizes),
            total_in_bytes=int(sum(max(1, int(c / ratio)) for c in chunk_sizes)),
            total_out_bytes=int(sum(chunk_sizes)),
        )


def chunk_sizes_for(total_bytes: int, chunk_bytes: int) -> list[int]:
    """Split a byte volume into fixed-size chunks (last may be short)."""
    if total_bytes <= 0:
        raise ValueError("total_bytes must be positive")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    full, rem = divmod(total_bytes, chunk_bytes)
    sizes = [chunk_bytes] * full
    if rem:
        sizes.append(rem)
    return sizes
