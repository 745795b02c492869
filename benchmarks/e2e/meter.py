"""Sample accounting shared by the workloads: op latencies and
completions corrected for the host's pace (:class:`Meter`),
first-occurrence byte/CRC bookkeeping for the exact metrics
(:class:`Ledger`), and the one-CPU pin every round runs under."""

from __future__ import annotations

import os
import time
from statistics import median, quantiles

import numpy as np

_now = time.perf_counter

#: what :func:`pace_kernel` takes on the calibration sandbox while nothing
#: else runs on its core.  Only fixes the scale of the corrected timings
#: (they read like wall time on an undisturbed host), not their spread.
REFERENCE_S = 350e-6


def pace_kernel() -> float:
    """Seconds a fixed piece of work takes right now: the host's pace.

    Pure Python on purpose: it owes nothing to the program under test, it
    keeps the interpreter lock, so the program's threads cannot run
    inside the reading, and it touches no memory to speak of, so what
    the program left in the caches does not move it.
    """
    t0 = _now()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    return _now() - t0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0..100): the rule ``repro.serve.loadgen``
    uses, so legacy records and these read alike, but owned here so a
    change to the program cannot redefine the benchmark's metrics."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))]


def err_frac(original: np.ndarray, restored: np.ndarray, abs_bound: float) -> float:
    """Observed L-infinity error as a fraction of the permitted bound.

    The permitted bound is ``abs_bound`` plus half a unit in the last
    place of the largest value in the output dtype: a codec that lands on
    the bound in exact arithmetic (SZ's grid does) cannot do better than
    the nearest float32 once it hands back float32.
    """
    diff = np.abs(restored.astype(np.float64) - original.astype(np.float64))
    rounding = float(np.spacing(np.abs(restored).max())) / 2
    return float(diff.max()) / (abs_bound + rounding)


class Meter:
    """One measured window: a latency, a completion time and a byte count
    per verified op; unverified ops only count as failed.

    The shared host changes speed by a quarter to a third for seconds to
    minutes at a time (a neighbour on the same physical core), which no
    statistic over one window and no window this benchmark can afford
    takes out.  So the loop that drives the ops also samples
    :func:`pace_kernel` between them, and every timing is divided by the
    host's pace when its op completed: the first sample taken after
    that moment over :data:`REFERENCE_S`.  A program that gets slower
    moves its ops and not the kernel, and shows in full; a host that
    gets slower moves both, and cancels.
    """

    def __init__(self) -> None:
        self.lat: list[float] = []
        self.t_end: list[float] = []
        self.nbytes: list[int] = []
        self.pace_s: list[float] = []
        self.pace_t: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.t_start = _now()
        self.t_stop = self.t_start

    def record(self, seconds: float, nbytes: int, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.lat.append(seconds)
        self.nbytes.append(nbytes)
        self.t_end.append(_now())

    def sample_pace(self) -> None:
        self.pace_s.append(pace_kernel())
        self.pace_t.append(_now())

    def stop(self) -> "Meter":
        self.t_stop = _now()
        self.sample_pace()      # so every op has a sample after it
        return self

    # -- derived ---------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.t_stop - self.t_start

    def _slowdown(self) -> np.ndarray:
        """Per verified op: host pace at its completion over the reference."""
        after = np.searchsorted(self.pace_t, self.t_end)
        return np.asarray(self.pace_s)[after] / REFERENCE_S

    def lat_ms(self, pct: float) -> float:
        return percentile(list(np.asarray(self.lat) / self._slowdown()), pct) * 1e3

    def goodput_MBps(self) -> float:
        """Verified bytes over the window's time, each stretch between two
        completions (one thread records, so they are in order) corrected
        like the op that ended it."""
        gaps = np.diff(self.t_end, prepend=self.t_start) / self._slowdown()
        return sum(self.nbytes) / 1e6 / float(gaps.sum())

    def raw(self) -> dict[str, float]:
        """The same three timings as the wall clock had them."""
        return {"goodput_MBps": sum(self.nbytes) / 1e6 / self.wall_s,
                "lat_p50_ms": percentile(self.lat, 50) * 1e3,
                "lat_p90_ms": percentile(self.lat, 90) * 1e3}

    def pace_ms(self) -> float:
        return median(self.pace_s) * 1e3

    def pace_drift_frac(self) -> float:
        """Inter-quartile range of the window's pace samples over their
        median: how much the host moved while the window was open."""
        if len(self.pace_s) < 4:
            return 0.0
        q1, _, q3 = quantiles(self.pace_s, n=4)
        return (q3 - q1) / median(self.pace_s)

    def cost_us(self) -> float:
        """Wall microseconds per verified op (inverse throughput)."""
        return self.wall_s / len(self.lat) * 1e6


class Ledger:
    """Exact metrics from the *first* occurrence of each input key, so
    ``stored_frac`` and ``stream_digest`` are functions of the seed and
    not of how many ops the window held.  A later occurrence must
    reproduce the first one byte for byte."""

    def __init__(self) -> None:
        self._seen: dict = {}
        self.digest = 0          # order-independent: sum of stream CRCs
        self.err_frac: dict[str, float] = {}       # label -> worst err / bound
        self.by_label: dict[str, list[int]] = {}   # label -> [raw, stored]

    def same(self, key, value) -> bool:
        """True when ``value`` equals what ``key`` first recorded."""
        return self._seen.setdefault(key, value) == value

    def stream(self, key, label: str, raw: int, stored: int, stream_crc: int) -> bool:
        """Account one stored stream under ``label``; True when it is new
        or identical to the first stream seen for ``key``."""
        if key in self._seen:
            return self._seen[key] == (stored, stream_crc)
        self._seen[key] = (stored, stream_crc)
        self.digest = (self.digest + stream_crc) & 0xFFFFFFFFFFFFFFFF
        acc = self.by_label.setdefault(label, [0, 0])
        acc[0] += raw
        acc[1] += stored
        return True

    def bounded(self, label: str, frac: float) -> bool:
        """Record an error-bounded result; True when the bound held."""
        self.err_frac[label] = max(self.err_frac.get(label, 0.0), frac)
        return frac <= 1.0

    @property
    def max_err_frac(self) -> float:
        return max(self.err_frac.values(), default=0.0)

    def stored_frac(self, *labels: str) -> float:
        """Stored over raw bytes, summed over ``labels`` (all when none)."""
        picked = [self.by_label.get(k, (0, 0)) for k in labels] if labels \
            else list(self.by_label.values())
        raw = sum(r for r, _ in picked)
        return sum(s for _, s in picked) / raw if raw else 0.0


def pin_to_fastest_cpu() -> int:
    """Restrict this process, and every thread and child it starts, to
    the one allowed CPU on which :func:`pace_kernel` runs fastest now.

    The program's threads take turns on the interpreter lock, so a second
    core adds no work done, only hand-offs between cores, and on a shared
    two-core host those hand-offs were most of what an unpinned round
    timed (``cluster_mixed`` ran 2.5x slower unpinned, and all three
    threaded workloads rose and fell by 30 % with the neighbours' load on
    the other core).  One CPU, chosen by measurement because the shared
    host's CPUs are not equally busy, makes the round a measurement of
    the program.
    """
    best_cpu, best = -1, float("inf")
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        took = min(pace_kernel() for _ in range(3))
        if took < best:
            best_cpu, best = cpu, took
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu
