"""HPDR-San runtime sanitizer ("tsan mode") — a wrapping device adapter.

:class:`SanitizingAdapter` wraps any backend and re-executes every GEM
batch in *shadow*: the group batch is copied and run as
:data:`SHADOW_PARTS` parts of the adapters' one partition routine
(:func:`~repro.adapters.base.run_parts`), one part at a time, with a
per-part shadow write-set derived by byte-diffing the working batch
against a pristine snapshot after each apply.  From those write-sets it
reports:

* **SAN-RACE** — a part wrote rows it does not own (a halo race: under
  concurrent execution another group reads or writes those rows), or
  the functor's output changes when the batch is partitioned
  differently (cross-block reads — results would depend on the
  adapter's scheduling).
* **SAN-ALIAS** — consecutive applies return memory that overlaps
  (scratch-backed outputs) while the functor does not declare
  ``reuses_output``; a batching adapter would silently overwrite
  results it has not yet copied.

The wrapper is transparent: the *inner* adapter produces the returned
result (and its spans), so sanitized runs are bit-identical to
unsanitized ones — just slower.  Enable globally with ``HPDR_SAN=1``
(``repro.adapters.get_adapter`` wraps every family), per-run with the
CLI ``--sanitize`` flag, or per-test with the ``sanitizing_adapter``
fixture.

Shadow execution costs ~3 extra batch passes per GEM call; it is never
active unless explicitly requested, keeping the steady-state perf record
intact (the perf gate refuses to run under ``HPDR_SAN``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.adapters.base import DeviceAdapter, _DelegatingAdapter, run_parts
from repro.check.errors import HaloRaceError, ScratchAliasError
from repro.trace.tracer import Span, TRACER as _TRACER
from repro.util import sanitize_enabled

#: Parts of the shadow schedule: write-set attribution and the alias
#: check run per part, and the purity check compares this partition
#: with the inner adapter's.  More parts attribute a race more finely,
#: at linearly more diff work.
SHADOW_PARTS = 8


def wrap_if_enabled(adapter: DeviceAdapter) -> DeviceAdapter:
    """Wrap ``adapter`` in a :class:`SanitizingAdapter` when requested.

    No-op when ``HPDR_SAN`` is unset or the adapter is already
    sanitizing.
    """
    if sanitize_enabled() and not isinstance(adapter, SanitizingAdapter):
        return SanitizingAdapter(adapter)
    return adapter


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if np.issubdtype(a.dtype, np.inexact):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


class _NotBlockPreserving(Exception):
    """A shadow part did not map n blocks to n outputs."""


class SanitizingAdapter(_DelegatingAdapter):
    """Shadow-memory sanitizer around any adapter; ``inner`` actually
    executes (and records the spans)."""

    def __init__(self, inner: DeviceAdapter) -> None:
        super().__init__(inner)
        self.family = inner.family
        #: GEM batches checked so far (so tests can assert coverage).
        self.checked_batches = 0

    # -- transparent delegation ------------------------------------------
    # DEM stages run whole-domain with global sync between them —
    # sequential on every backend, so there is nothing to race: only
    # GEM is intercepted, the rest is the delegation base's forwarding.
    def __getattr__(self, name: str) -> Any:
        # Anything not overridden (num_threads, strict, …)
        # behaves exactly like the wrapped adapter.
        return getattr(self.inner, name)

    @property
    def name(self) -> str:
        return f"san({self.inner.name})"

    # -- the sanitized execution path ------------------------------------
    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        if (
            not isinstance(batch, np.ndarray)
            or batch.ndim < 1
            or batch.shape[0] == 0
            or batch.size == 0
        ):
            return self.inner.execute_group_batch(functor, batch)
        # Shadow work gets its own span (cat "san") so traced sanitized
        # runs attribute the ~3x batch-pass overhead to the sanitizer,
        # not the codec; the inner adapter emits the real GEM span.
        if _TRACER.enabled:
            with Span(_TRACER, f"san.shadow.{functor.name}", "san",
                      {"groups": int(batch.shape[0])}):
                shadow = self._shadow_execute(functor, batch)
        else:
            shadow = self._shadow_execute(functor, batch)
        result = self.inner.execute_group_batch(functor, batch)
        res_arr = np.asarray(result)
        if (
            shadow is None
            or res_arr.ndim == 0
            or res_arr.shape[0] != batch.shape[0]
        ):
            # Not block-count-preserving (per shadow part, or on the
            # full batch): the abstraction layer rejects such functors
            # itself, with a clearer error than a shadow shape mismatch
            # would give.
            return result
        if not _bitwise_equal(np.asarray(shadow), np.asarray(result)):
            raise HaloRaceError(
                f"functor {functor.name!r} produced different results under "
                f"a different group partitioning — block outputs depend on "
                f"other blocks (cross-block reads or scheduling-dependent "
                f"state), which races under concurrent execution"
            )
        self.checked_batches += 1
        return result

    def _shadow_execute(self, functor, batch: np.ndarray) -> np.ndarray | None:
        """The launch as :data:`SHADOW_PARTS` parts, with write-set
        attribution.

        Runs on private copies so a misbehaving functor can never
        corrupt the caller's batch through the shadow pass.  Returns
        ``None`` when the functor is not block-count-preserving (each
        part must map n blocks to n outputs) — the purity comparison
        is meaningless there and the abstraction layer rejects such
        functors with its own validation error.
        """
        nblocks = batch.shape[0]
        snap = np.array(batch, copy=True)  # pristine, C-contiguous
        work = snap.copy()                 # the shadow's working memory
        work_rows = work.reshape(nblocks, -1).view(np.uint8)
        snap_rows = snap.reshape(nblocks, -1).view(np.uint8)
        attributed = np.zeros(nblocks, dtype=bool)
        reuses = bool(getattr(functor, "reuses_output", False))

        def checked(apply, parts):
            # Sequential, in group order: part i holds groups [lo, hi).
            lo, prev = 0, None
            for part in parts:
                hi = lo + part.shape[0]
                out = apply(part)
                out_arr = np.asarray(out)
                if out_arr.ndim == 0 or out_arr.shape[0] != hi - lo:
                    raise _NotBlockPreserving
                if prev is not None and not reuses and np.may_share_memory(out, prev):
                    raise ScratchAliasError(
                        f"functor {functor.name!r} returned memory overlapping "
                        f"its previous apply's output (groups [{lo}:{hi}) vs the "
                        f"part before) without declaring reuses_output — a "
                        f"batching adapter would overwrite results it has not "
                        f"yet copied"
                    )
                # Shadow write-set: rows whose bytes changed under this apply.
                written = (work_rows != snap_rows).any(axis=1)
                new_writes = written & ~attributed
                foreign = np.flatnonzero(new_writes[:lo]).tolist() + [
                    int(r) + hi for r in np.flatnonzero(new_writes[hi:])
                ]
                if foreign:
                    raise HaloRaceError(
                        f"functor {functor.name!r} executing groups [{lo}:{hi}) "
                        f"wrote into foreign group rows {foreign[:8]}"
                        f"{'…' if len(foreign) > 8 else ''} — overlapping "
                        f"write-sets between concurrently-executed blocks "
                        f"(halo race)"
                    )
                np.logical_or(attributed, written, out=attributed)
                lo, prev = hi, out
                yield out

        try:
            return run_parts(functor, work, SHADOW_PARTS, checked)
        except _NotBlockPreserving:
            return None
