"""Tunable-knob declarations and tuning keys.

A :class:`Knob` is one discrete search dimension — a name, the grid of
values the tuner may propose, and the hand-tuned default the search
starts from (and falls back to).  A :class:`KnobSpace` is an ordered
collection of knobs; it defines the configuration dictionaries every
strategy proposes and every cache entry stores.

The one shipped space is :func:`service_knob_space` (micro-batch limits
and worker device).  There is no per-codec space: a codec call has no
byte-neutral knob whose setting the code cannot already choose from the
launch size (DESIGN.md §3.1, "What the codec tuner found").

A :class:`TuningKey` identifies *what* a learned configuration applies
to: ``(codec, dtype, shape-class, backend)``.  The backend component
embeds the core count (``cpu4``) so a cache written on one machine
class is never misapplied on another — a knob setting that wins on 16
cores can lose on 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Knob:
    """One discrete tuning dimension."""

    name: str
    values: tuple[Any, ...]
    default: Any

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"knob {self.name!r} has no values")
        if self.default not in self.values:
            raise ValueError(
                f"knob {self.name!r}: default {self.default!r} not in "
                f"values {self.values!r}"
            )


class KnobSpace:
    """An ordered set of :class:`Knob` dimensions (the search grid)."""

    def __init__(self, knobs: Sequence[Knob]) -> None:
        if not knobs:
            raise ValueError("a KnobSpace needs at least one knob")
        names = [k.name for k in knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob names in {names}")
        self.knobs: tuple[Knob, ...] = tuple(knobs)
        self._by_name = {k.name: k for k in self.knobs}

    def __iter__(self) -> Iterator[Knob]:
        return iter(self.knobs)

    def __len__(self) -> int:
        return len(self.knobs)

    def __getitem__(self, name: str) -> Knob:
        return self._by_name[name]

    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)

    def default_config(self) -> dict[str, Any]:
        """The hand-tuned starting point (and the byte-identity anchor)."""
        return {k.name: k.default for k in self.knobs}

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``config`` is exactly on the grid."""
        extra = set(config) - set(self._by_name)
        if extra:
            raise ValueError(f"unknown knobs {sorted(extra)}; "
                             f"space has {list(self.names())}")
        for knob in self.knobs:
            if knob.name not in config:
                raise ValueError(f"config is missing knob {knob.name!r}")
            if config[knob.name] not in knob.values:
                raise ValueError(
                    f"knob {knob.name!r}: {config[knob.name]!r} not in "
                    f"allowed values {knob.values!r}"
                )

    def contains(self, config: Mapping[str, Any]) -> bool:
        try:
            self.validate(config)
        except ValueError:
            return False
        return True

    def grid_size(self) -> int:
        n = 1
        for knob in self.knobs:
            n *= len(knob.values)
        return n


# ---------------------------------------------------------------------------
# Tuning keys
# ---------------------------------------------------------------------------
def backend_id() -> str:
    """This machine's backend class, e.g. ``cpu4``.

    Learned configs are execution-environment-specific: the core count
    is the dominant variable on the simulated-accelerator stack, so it
    is the one baked into the key.
    """
    return f"cpu{os.cpu_count() or 1}"


@dataclass(frozen=True)
class TuningKey:
    """What a learned configuration applies to.

    The four components are the cache file's key format.  The entries
    this package writes are service-level (:meth:`for_service`): the
    reserved codec name ``__service__`` with a wildcard dtype/shape and
    ``serve-thread-<machine class>`` as ``backend`` (the ``thread``
    part keeps the keys older caches were written under).
    """

    codec: str
    dtype: str
    shape_class: tuple[int, int]
    backend: str

    def __str__(self) -> str:
        rank, elems = self.shape_class
        return f"{self.codec}|{self.dtype}|{rank}x{elems}|{self.backend}"

    @classmethod
    def parse(cls, text: str) -> "TuningKey":
        parts = text.split("|")
        if len(parts) != 4:
            raise ValueError(f"malformed tuning key {text!r}")
        codec, dtype, shape, backend = parts
        rank_s, _, elems_s = shape.partition("x")
        try:
            shape_class = (int(rank_s), int(elems_s))
        except ValueError:
            raise ValueError(f"malformed shape class in key {text!r}")
        return cls(codec, dtype, shape_class, backend)

    @classmethod
    def for_service(cls, *, backend: str | None = None) -> "TuningKey":
        """Service-level key (micro-batch limits, worker device)."""
        base = backend if backend is not None else backend_id()
        return cls(SERVICE_CODEC, "*", (0, 0), f"serve-thread-{base}")


#: reserved codec name for service-level (micro-batch) entries.
SERVICE_CODEC = "__service__"


# ---------------------------------------------------------------------------
# The service knob space
# ---------------------------------------------------------------------------
def _thread_grid() -> tuple[int, ...]:
    """Thread-count candidates, capped at the machine's core count."""
    cores = os.cpu_count() or 1
    grid = tuple(t for t in (1, 2, 4, 8) if t <= cores)
    return grid if grid else (1,)


def service_knob_space() -> KnobSpace:
    """Micro-batch limits + worker device — the serve-level search grid.

    ``max_latency_ms``/``max_bytes`` bound *when* a batch flushes, so
    they change scheduling, never bytes: every answer is byte-identical
    to the single-shot codec call (the serve conformance property), so
    the whole space is byte-neutral.
    """
    return KnobSpace((
        Knob("max_batch", (8, 16, 32, 64), 16),
        Knob("max_bytes", (1 << 20, 4 << 20, 16 << 20), 4 << 20),
        Knob("max_latency_ms", (1.0, 2.0, 5.0), 2.0),
        Knob("adapter", ("serial", "openmp"), "serial"),
        Knob("threads", _thread_grid(), 1),
    ))
