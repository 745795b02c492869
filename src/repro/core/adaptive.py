"""Adaptive chunk-size strategy (paper Algorithm 4, Section V-C).

Small chunks start the pipeline quickly (high overlap ratio) but
under-occupy the device; large chunks saturate it but expose the first
transfer's latency.  Algorithm 4 starts from a small user-specified
chunk and grows each next chunk to the largest size transferable while
the device reduces the current one:

    C_next = min( Θ(C_curr / Φ(C_curr)), C_limit )

with Φ the (roofline-modelled) reduction throughput and Θ(t) = t·β the
host-to-device transfer model.  The schedule therefore converges to the
steady state where copy time exactly hides under compute time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineResult, ReductionPipeline
from repro.machine.device import SimDevice
from repro.perf.models import KernelModel


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunables for Algorithm 4."""

    initial_chunk: int = 16 * 1000 * 1000   # C_init: small leading chunk
    max_chunk: int | None = None            # C_limit; default from device memory
    min_chunk: int = 1000 * 1000            # floor to avoid degenerate tails

    def __post_init__(self) -> None:
        if self.initial_chunk < 1:
            raise ValueError("initial_chunk must be positive")
        if self.min_chunk < 1:
            raise ValueError("min_chunk must be positive")


def bottleneck_chunk(model: KernelModel, ratio: float = 4.0) -> int:
    """Smallest chunk whose throughput Φ(C) keeps the pipeline stall-free.

    For compute-bound kernels (γ ≤ link bandwidth) that is full kernel
    saturation.  For transfer-bound kernels, the 2-buffer
    anti-dependency (h2d[i] waits on serialize[i-2]) makes the exact
    steady-state condition ``C/Φ + C/(ratio·link) ≤ C/link``, i.e.
    ``Φ ≥ link · ratio/(ratio-1)`` — the kernel plus the output copy
    must fit inside one input-copy period.  Shrinking the chunk below
    the size achieving that reintroduces the occupancy ramp for no
    benefit.
    """
    if ratio <= 1.0:
        headroom = 4.0  # incompressible data: require ample compute slack
    else:
        headroom = 1.05 * ratio / (ratio - 1.0)
    link = model.processor.link_h2d
    target = min(model.gamma, headroom * link)
    if target >= model.gamma:
        return int(model.c_threshold)
    # Invert the ramp: phi(C) = (floor + (1-floor)·C/C_th)·γ = target.
    frac = target / model.gamma
    c = (frac - model.ramp_floor) / (1.0 - model.ramp_floor) * model.c_threshold
    return int(min(max(c, 0.0), model.c_threshold))


def adaptive_schedule(
    total_bytes: int,
    model: KernelModel,
    config: AdaptiveConfig | None = None,
    ratio: float = 4.0,
) -> list[int]:
    """Chunk sizes per Algorithm 4 (lines 2-21).

    The returned sizes sum exactly to ``total_bytes``.  Beyond the
    verbatim recurrence ``C_next = min(Θ(C_curr/Φ(C_curr)), C_limit)``,
    chunks never drop below :func:`bottleneck_chunk` — the paper's Φ
    model is only profiled down to pipeline-efficient sizes ("we do not
    consider small chunk sizes that … would lead to an inefficient
    pipeline"), so the steady state must not drift back into the ramp.
    """
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be positive, got {total_bytes}")
    cfg = config if config is not None else AdaptiveConfig()
    c_limit = cfg.max_chunk
    if c_limit is None:
        # Two buffer sets of input+output must fit: keep a chunk within
        # a quarter of device memory.
        c_limit = int(model.processor.mem_capacity // 4)
    c_floor = max(cfg.min_chunk, bottleneck_chunk(model, ratio))
    c_curr = min(cfg.initial_chunk, total_bytes, c_limit)

    sizes = [c_curr]
    rest = total_bytes - c_curr
    while rest > 0:
        # Θ(C/Φ(C)): bytes transferable while the current chunk reduces.
        t_compute = c_curr / model.phi(c_curr)
        c_next = int(min(model.theta(t_compute), c_limit))
        c_next = max(c_next, min(c_floor, c_limit))
        c_next = min(c_next, rest)
        sizes.append(c_next)
        rest -= c_next
        c_curr = c_next
    return sizes


def run_adaptive_compression(
    device: SimDevice,
    model: KernelModel,
    total_bytes: int,
    ratio: float = 4.0,
    config: AdaptiveConfig | None = None,
    **pipeline_kwargs,
) -> PipelineResult:
    """Convenience: schedule chunks adaptively and run the Fig. 9 DAG."""
    sizes = adaptive_schedule(total_bytes, model, config, ratio=ratio)
    pipe = ReductionPipeline(device, model, **pipeline_kwargs)
    return pipe.run_compression(sizes, ratio=ratio)


def run_adaptive_reconstruction(
    device: SimDevice,
    model: KernelModel,
    total_bytes: int,
    ratio: float = 4.0,
    config: AdaptiveConfig | None = None,
    **pipeline_kwargs,
) -> PipelineResult:
    sizes = adaptive_schedule(total_bytes, model, config, ratio=ratio)
    pipe = ReductionPipeline(device, model, **pipeline_kwargs)
    return pipe.run_reconstruction(sizes, ratio=ratio)
