"""Codec specifications and batch/context keying for HPDR-Serve.

A :class:`CodecSpec` is the hashable description of one reduction
configuration (codec + bound/rate parameters).  The service uses it in
two keys:

* the **batch key** — ``(op, spec.key(), dtype, shape)`` for arrays,
  ``(op, spec.key(), "blob", size_class)`` for compressed streams —
  groups requests the micro-batcher may execute together.  Compress
  batches share the exact shape so the vectorized codec fast paths
  (e.g. :meth:`repro.ZFPX.compress_batch`) apply and the codec's CMM
  contexts are reused across every request in the batch;
* the **context key** — ``("serve", spec.key(), dtype, shape_class)``
  — addresses the pinned :class:`~repro.core.context.ReductionContext`
  a worker keeps per configuration.  The shape *class* (rank plus
  power-of-two element-count bucket) bounds how many serve contexts a
  many-shape workload can open while still separating workloads with
  very different working-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Hashable

import numpy as np

from repro.compressors import CODECS, build_codec, codec_key

#: request operations.  ``retrieve`` takes an ``HPRQ`` envelope (see
#: :mod:`repro.progressive.archive`) and answers with the bounded
#: reconstruction; like ``decompress`` it batches and routes by blob
#: size class, so it rides the cluster router unchanged.
OPS = ("compress", "decompress", "retrieve")


def _ceil_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length()) if n > 0 else 1


def shape_class(shape: tuple[int, ...]) -> tuple[int, int]:
    """Bucket a shape as ``(rank, next-pow2 element count)``.

    Contexts keyed by the class are shared by near-identical working
    sets (the scratch buffers inside grow geometrically, so a class
    reaches its own zero-alloc steady state) without one pinned context
    per exact shape.
    """
    elems = 1
    for s in shape:
        elems *= int(s)
    return (len(shape), _ceil_pow2(elems))


def size_class(nbytes: int) -> int:
    """Power-of-two byte bucket for opaque compressed streams."""
    return _ceil_pow2(int(nbytes))


def payload_nbytes(payload) -> int:
    """Bytes a request payload contributes to batch byte budgets."""
    nbytes = getattr(payload, "nbytes", None)  # ndarray / memoryview
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return int(np.asarray(payload).nbytes)


@dataclass(frozen=True)
class CodecSpec:
    """Hashable description of one reduction configuration.

    Only the parameters the named codec actually consumes participate
    in :meth:`key`, so e.g. two ``zfp-x`` specs differing in an unused
    ``error_bound`` land in the same batch and share contexts.
    """

    name: str = "zfp-x"
    error_bound: float = 1e-3
    error_mode: str = "rel"
    rate: float = 8.0
    dict_size: int = 4096
    chunk_size: int = 1024

    def __post_init__(self) -> None:
        if self.name not in SERVABLE_CODECS:
            raise ValueError(
                f"unknown codec {self.name!r}; servable: {SERVABLE_CODECS}"
            )
        if self.error_mode not in ("rel", "abs"):
            raise ValueError(f"error_mode must be rel|abs, got {self.error_mode!r}")
        # The spec is frozen, so its key tuple never changes: compute it
        # once here instead of on every batch_key() call (the service
        # builds a batch key per admitted request).
        object.__setattr__(self, "_key", codec_key(self.name, vars(self)))

    # ------------------------------------------------------------------
    def key(self) -> tuple[Hashable, ...]:
        """Minimal parameter tuple identifying this configuration."""
        return self._key

    def build(self, adapter: Any = None, context_cache: Any = None) -> Any:
        """Instantiate the codec on ``adapter`` sharing ``context_cache``.

        Every returned object satisfies ``compress(data) -> bytes`` /
        ``decompress(bytes) -> ndarray``; codecs with CMM support are
        handed the worker's shared cache so their working buffers
        persist across batches.
        """
        return build_codec(self.name, vars(self), adapter, context_cache)

    # ------------------------------------------------------------------
    def batch_key(self, op: str, payload) -> tuple[Hashable, ...]:
        """Grouping key for the micro-batcher (see module docstring)."""
        if op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {op!r}")
        if op == "compress":
            arr = np.asarray(payload)
            return (op,) + self.key() + (arr.dtype.str, arr.shape)
        return (op,) + self.key() + ("blob", size_class(len(payload)))

    def context_key(self, op: str, payload) -> tuple[Hashable, ...]:
        """Serve-layer CMM context key: (codec, dtype, shape-class)."""
        if op == "compress":
            arr = np.asarray(payload)
            return ("serve",) + self.key() + (arr.dtype.str,
                                              shape_class(arr.shape))
        return ("serve",) + self.key() + ("blob", (1, size_class(len(payload))))


#: codec names the service accepts: the table's codecs whose parameters
#: are all :class:`CodecSpec` fields.
SERVABLE_CODECS = tuple(
    name for name, codec in CODECS.items()
    if set(codec.params) <= {f.name for f in fields(CodecSpec)}
)
