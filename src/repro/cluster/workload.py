"""Mixed codec workloads for cluster soaks and drills.

The cluster shards by ``(codec, dtype, shape-class)`` — deliberately
coarse, so one reduction configuration's traffic stays on one shard
where the serve layer batches it.  The flip side: a *single-spec*
workload exercises exactly one shard and measures nothing about the
cluster.  Every cluster-level load path (the blast ``--codec mixed``
mode, the nightly soak, the end-to-end benchmark's ``cluster_mixed``
workload) therefore drives a mixed
workload built here: a deterministic roster of specs whose route keys
are all distinct, so consistent hashing spreads them over the ring.

Only key-participating parameters vary (see
:meth:`~repro.serve.spec.CodecSpec.key`): zfp rates, huffman chunk
sizes, mgard/sz error bounds.  Order is fixed — the same roster on
every run and in every process.
"""

from __future__ import annotations

from repro.serve.spec import CodecSpec

#: deterministic mixed roster; every entry has a distinct route key.
_ROSTER: tuple[CodecSpec, ...] = (
    CodecSpec(name="zfp-x", rate=8.0),
    CodecSpec(name="huffman-x", chunk_size=1024),
    CodecSpec(name="lz4"),
    CodecSpec(name="sz", error_bound=1e-3),
    CodecSpec(name="zfp-x", rate=16.0),
    CodecSpec(name="huffman-x", chunk_size=4096),
    CodecSpec(name="sz", error_bound=1e-2),
    CodecSpec(name="zfp-x", rate=4.0),
    CodecSpec(name="mgard-x", error_bound=1e-3),
    CodecSpec(name="huffman-x", chunk_size=512),
    CodecSpec(name="sz", error_bound=1e-4),
    CodecSpec(name="zfp-x", rate=32.0),
    CodecSpec(name="mgard-x", error_bound=1e-2),
    CodecSpec(name="huffman-x", chunk_size=2048),
    CodecSpec(name="mgard-x", error_bound=1e-4),
    CodecSpec(name="zfp-x", rate=2.0),
)


def mixed_specs(n: int = 16) -> list[CodecSpec]:
    """``n`` specs with pairwise-distinct route keys (``n`` <= 16)."""
    if not 1 <= n <= len(_ROSTER):
        raise ValueError(f"n must be in [1, {len(_ROSTER)}], got {n}")
    return list(_ROSTER[:n])
