"""HPDR-San runtime sanitizer ("tsan mode") — a wrapping device adapter.

:class:`SanitizingAdapter` wraps a real backend (serial or openmp) and
re-executes every GEM batch in *shadow*: the group batch is copied, the
functor is applied one block-group at a time, and a per-group shadow
write-set is derived by byte-diffing the working batch against a
pristine snapshot after each apply.  From those write-sets it reports:

* **SAN-RACE** — a group wrote rows it does not own (a halo race: under
  concurrent execution another group reads or writes those rows), or
  the functor's output changes when the batch is partitioned
  differently (cross-block reads — results would depend on the
  adapter's scheduling).
* **SAN-ALIAS** — consecutive applies return memory that overlaps
  (scratch-backed outputs) while the functor does not declare
  ``reuses_output``; a batching adapter would silently overwrite
  results it has not yet copied.

The wrapper is transparent: the *inner* adapter produces the returned
result (and its trace records), so sanitized runs are bit-identical to
unsanitized ones — just slower.  Enable globally with ``HPDR_SAN=1``
(``repro.adapters.get_adapter`` auto-wraps serial/openmp), per-run with
the CLI ``--sanitize`` flag, or per-test with the ``sanitizing_adapter``
fixture.

Shadow execution costs ~3 extra batch passes per GEM call; it is never
active unless explicitly requested, keeping the steady-state perf record
intact (the perf gate refuses to run under ``HPDR_SAN``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.adapters.base import DeviceAdapter, _DelegatingAdapter
from repro.check.errors import HaloRaceError, ScratchAliasError
from repro.trace.tracer import Span, TRACER as _TRACER
from repro.util import sanitize_enabled

#: Families the shadow machinery understands (real CPU concurrency).
SANITIZABLE_FAMILIES = ("serial", "openmp")


def wrap_if_enabled(adapter: DeviceAdapter) -> DeviceAdapter:
    """Wrap ``adapter`` in a :class:`SanitizingAdapter` when requested.

    No-op when ``HPDR_SAN`` is unset, the family has no shadow support
    (simulated GPU backends), or the adapter is already sanitizing.
    """
    if (
        sanitize_enabled()
        and adapter.family in SANITIZABLE_FAMILIES
        and not isinstance(adapter, SanitizingAdapter)
    ):
        return SanitizingAdapter(adapter)
    return adapter


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if np.issubdtype(a.dtype, np.inexact):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


class SanitizingAdapter(_DelegatingAdapter):
    """Shadow-memory sanitizer around a serial/openmp adapter.

    Parameters
    ----------
    inner:
        The adapter that actually executes (and records trace/timing).
    max_shadow_groups:
        Granularity of the shadow schedule.  The batch is split into at
        most this many contiguous group-chunks; write-set attribution
        and the alias check run per chunk, and the purity check compares
        this partitioning against the inner adapter's.  Higher = finer
        race attribution, linearly more diff work.
    """

    def __init__(self, inner: DeviceAdapter, max_shadow_groups: int = 8) -> None:
        if inner.family not in SANITIZABLE_FAMILIES:
            raise ValueError(
                f"SanitizingAdapter supports {SANITIZABLE_FAMILIES}, "
                f"got family {inner.family!r}"
            )
        if max_shadow_groups < 1:
            raise ValueError("max_shadow_groups must be >= 1")
        super().__init__(inner)
        self.family = inner.family
        self.max_shadow_groups = max_shadow_groups
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
            # Not block-count-preserving (per shadow chunk, or on the
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
        """Per-group execution with write-set attribution.

        Runs on private copies so a misbehaving functor can never
        corrupt the caller's batch through the shadow pass.  Returns
        ``None`` when the functor is not block-count-preserving (each
        chunk must map n blocks to n outputs) — the purity comparison
        is meaningless there and the abstraction layer rejects such
        functors with its own validation error.
        """
        nblocks = batch.shape[0]
        snap = np.array(batch, copy=True)  # pristine, C-contiguous
        work = snap.copy()                 # the shadow's working memory
        work_rows = work.reshape(nblocks, -1).view(np.uint8)
        snap_rows = snap.reshape(nblocks, -1).view(np.uint8)

        nchunks = min(nblocks, self.max_shadow_groups)
        bounds = np.linspace(0, nblocks, nchunks + 1, dtype=np.intp)
        attributed = np.zeros(nblocks, dtype=bool)
        reuses = bool(getattr(functor, "reuses_output", False))

        outs: list[np.ndarray] = []
        prev: np.ndarray | None = None
        for c in range(nchunks):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            out = functor.apply(work[lo:hi])
            out_arr = np.asarray(out)
            if out_arr.ndim == 0 or out_arr.shape[0] != hi - lo:
                return None
            if (
                prev is not None
                and not reuses
                and np.may_share_memory(out, prev)
            ):
                raise ScratchAliasError(
                    f"functor {functor.name!r} returned memory overlapping "
                    f"its previous apply's output (groups [{lo}:{hi}) vs the "
                    f"chunk before) without declaring reuses_output — a "
                    f"batching adapter would overwrite results it has not "
                    f"yet copied"
                )
            prev = out
            outs.append(np.array(out, copy=True))

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
            attributed |= written
        return np.concatenate(outs, axis=0)
