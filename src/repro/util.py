"""Small shared utilities."""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct


class CorruptStreamError(ValueError):
    """A reduction stream failed to parse (truncated or tampered)."""


def hot_path(fn=None, *, reason: str | None = None):
    """Mark a function/method as a zero-alloc steady-state hot path.

    Purely declarative (no runtime wrapping — the marked function is
    returned unchanged, so decorated kernels cost nothing): the marker
    is what ``scripts/hpdrlint.py`` keys on.  Inside a ``@hot_path``
    body the linter flags per-call allocations (``np.empty`` /
    ``np.zeros`` / ``.astype`` / ``.copy`` …, rule HPL001) and ufunc
    calls missing ``out=`` (rule HPL003); the enclosing module is
    treated as kernel code, where dtype-less array constructors
    (implicit float64, rule HPL002) are also flagged.  Genuine
    exceptions carry an inline ``# hpdrlint: disable=<rule> — why``.

    ``reason`` optionally documents *why* the path is hot (which bench
    pins it); it is surfaced by tooling, not used at runtime.
    """

    def mark(f):
        f.__hpdr_hot_path__ = True
        if reason is not None:
            f.__hpdr_hot_path_reason__ = reason
        return f

    return mark if fn is None else mark(fn)


@functools.lru_cache(maxsize=None)
def _axis_order(ndim: int, source: int, destination: int) -> tuple[int, ...]:
    for axis in (source, destination):
        if not -ndim <= axis < ndim:
            raise ValueError(f"axis {axis} is out of bounds for {ndim} dimensions")
    order = [a for a in range(ndim) if a != source % ndim]
    order.insert(destination % ndim, source % ndim)
    return tuple(order)


def move_axis(a, source: int, destination: int):
    """``np.moveaxis`` for one axis, as a view through a cached
    permutation: the 1-D kernels move an axis several times per call,
    and ``np.moveaxis`` rebuilds the order in Python each time."""
    return a.transpose(_axis_order(a.ndim, source, destination))


def atomic_write_bytes(path, data: bytes, fsync: bool = True) -> int:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    A reader (or a process restarted after a mid-write kill) sees either
    the previous complete file or the new complete file, never a torn
    prefix — the invariant campaign manifests and BP index files rely
    on.  The temp file lives in the target directory so the final
    ``os.replace`` stays within one filesystem.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        # Persist the rename itself (directory entry); best-effort on
        # platforms where directories cannot be fsynced.
        try:
            dfd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        except OSError:
            return len(data)
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)
    return len(data)


def atomic_write_json(path, obj, fsync: bool = True) -> int:
    """Serialize ``obj`` as JSON and :func:`atomic_write_bytes` it."""
    return atomic_write_bytes(
        path, json.dumps(obj, sort_keys=True).encode("utf-8"), fsync=fsync
    )


def read_chunk_index(blob, off: int, count: int) -> list[tuple[int, int]]:
    """``(offset, length)`` of each of the ``count`` bodies that follow
    a table of ``count`` little-endian u64 lengths at ``blob[off]``.

    The one index reader of the chunk-list containers (``HPST``, and
    the read-only ``HPDC`` and ``HUFP``): each holds a count, the
    lengths, then the bodies back to back.  Nothing is sized from a
    declared value before it is checked — the table must fit what is
    left of ``blob`` and the bodies what is left after the table;
    otherwise :class:`CorruptStreamError`.
    """
    room = len(blob) - off
    if not 0 <= count <= room // 8:
        raise CorruptStreamError(
            f"corrupt stream: an index of {count} chunks in {max(room, 0)} bytes"
        )
    lengths = struct.unpack_from(f"<{count}Q", blob, off)
    off += 8 * count
    if sum(lengths) > len(blob) - off:
        raise CorruptStreamError(
            "corrupt stream: chunk lengths run past the end of the container"
        )
    return list(zip(itertools.accumulate(lengths, initial=off), lengths))


def stream_errors(fn):
    """Decorator: low-level parse failures become :class:`CorruptStreamError`.

    Deserializers index, unpack and decode raw bytes; on truncated or
    tampered input those operations raise a zoo of exception types.  A
    library sitting in an I/O path must fail with one predictable error
    class instead.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CorruptStreamError:
            raise
        except (
            struct.error,
            IndexError,
            KeyError,
            TypeError,
            UnicodeDecodeError,
            OverflowError,
        ) as exc:
            raise CorruptStreamError(f"corrupt stream: {exc}") from exc
        except ValueError as exc:
            raise CorruptStreamError(str(exc)) from exc

    return wrapper
