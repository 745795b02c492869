"""The persistent tuning cache: CRC-validated, atomically written JSON.

One file holds every learned configuration, keyed by the string form of
:class:`~repro.tune.knobs.TuningKey`.  On-disk format (version 1)::

    {
      "format": "hpdr-tune",
      "version": 1,
      "crc": 2868347520,
      "entries": {
        "zfp-x|<f4|3x262144|cpu4": {
          "config": {"adapter": "serial", "threads": 1},
          "cost_s": 0.0123,
          "default_cost_s": 0.0130,
          "digest": "9f86d0…",
          "source": "repro tune"
        }
      }
    }

``crc`` is CRC-32 over the canonical (sorted-key, compact) JSON of the
``entries`` object alone, so any torn write, truncation or hand edit is
detected.  **A learning component must never be able to poison the
system**: every load failure — missing file, invalid JSON, wrong
format/version, CRC mismatch, malformed entry — degrades to an empty
cache (defaults everywhere) and bumps the
``hpdr_tune_cache_invalid_total`` counter; nothing raises on the read
path.

Writes go through read-merge-write + :func:`repro.util.atomic_write_bytes`
(tmp + fsync + rename): two processes racing :meth:`TuningCache.put`
can lose one of the two updates (last rename wins) but a reader can
never observe a torn file — the concurrency property the tune suite
pins with real racing processes.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.container import crc32
from repro.trace.metrics import REGISTRY as _METRICS
from repro.tune.knobs import TuningKey
from repro.util import atomic_write_bytes

#: on-disk schema identity.
CACHE_FORMAT = "hpdr-tune"
CACHE_VERSION = 1


def default_cache_path() -> Path:
    """``$HPDR_TUNE_CACHE`` > ``$XDG_CACHE_HOME/hpdr`` > ``~/.cache/hpdr``."""
    env = os.environ.get("HPDR_TUNE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hpdr" / "tuning.json"


@dataclass(frozen=True)
class TuneEntry:
    """One learned configuration plus the evidence that justified it."""

    config: dict[str, Any]
    cost_s: float
    default_cost_s: float = 0.0
    digest: str = ""
    source: str = ""

    @property
    def speedup(self) -> float:
        """Measured default-over-tuned ratio (1.0 when unknown)."""
        if self.cost_s <= 0 or self.default_cost_s <= 0:
            return 1.0
        return self.default_cost_s / self.cost_s

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: Any) -> "TuneEntry":
        if not isinstance(obj, dict) or not isinstance(obj.get("config"), dict):
            raise ValueError(f"malformed tune entry: {obj!r}")
        return cls(
            config=dict(obj["config"]),
            cost_s=float(obj.get("cost_s", 0.0)),
            default_cost_s=float(obj.get("default_cost_s", 0.0)),
            digest=str(obj.get("digest", "")),
            source=str(obj.get("source", "")),
        )


def _entries_crc(entries: dict[str, Any]) -> int:
    canonical = json.dumps(entries, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return crc32(canonical)


def _record_bytes(entries: dict[str, Any]) -> bytes:
    record = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "crc": _entries_crc(entries),
        "entries": entries,
    }
    return (json.dumps(record, sort_keys=True, indent=1) + "\n").encode("utf-8")


class CacheInvalid(ValueError):
    """Why a cache file was rejected (internal; never escapes reads)."""


def _parse_record(raw: bytes) -> dict[str, TuneEntry]:
    try:
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CacheInvalid(f"not JSON: {exc}")
    if not isinstance(record, dict):
        raise CacheInvalid("top level is not an object")
    if record.get("format") != CACHE_FORMAT:
        raise CacheInvalid(f"format {record.get('format')!r} != {CACHE_FORMAT!r}")
    if record.get("version") != CACHE_VERSION:
        raise CacheInvalid(
            f"schema version {record.get('version')!r} != {CACHE_VERSION}"
        )
    entries = record.get("entries")
    if not isinstance(entries, dict):
        raise CacheInvalid("entries is not an object")
    if record.get("crc") != _entries_crc(entries):
        raise CacheInvalid("CRC mismatch (torn write or hand edit)")
    parsed: dict[str, TuneEntry] = {}
    for key, value in entries.items():
        TuningKey.parse(key)  # raises ValueError on malformed keys
        parsed[key] = TuneEntry.from_json(value)
    return parsed


class TuningCache:
    """Read/write access to one tuning-cache file.

    All reads are forgiving (see module docstring); writes re-read the
    file first so concurrent writers merge instead of clobbering whole
    tables, then replace it atomically.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._ctr_invalid = _METRICS.counter(
            "hpdr_tune_cache_invalid_total",
            "tuning-cache loads rejected (bad CRC/version/JSON)",
        )

    # -- reads ---------------------------------------------------------
    def load(self) -> dict[str, TuneEntry]:
        """Every valid entry, or ``{}`` on any failure (never raises)."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return {}
        try:
            return _parse_record(raw)
        except (CacheInvalid, ValueError) as exc:
            self._ctr_invalid.inc(reason=type(exc).__name__)
            return {}

    def get(self, key: TuningKey | str) -> TuneEntry | None:
        return self.load().get(str(key))

    def __len__(self) -> int:
        return len(self.load())

    # -- writes --------------------------------------------------------
    def put(self, key: TuningKey | str, entry: TuneEntry) -> None:
        """Merge one entry into the file and replace it atomically."""
        if not isinstance(entry, TuneEntry):
            raise TypeError(f"put() takes a TuneEntry, got {type(entry)!r}")
        merged = {k: e.to_json() for k, e in self.load().items()}
        merged[str(key)] = entry.to_json()
        self._write(merged)

    def put_many(self, items: dict[str, TuneEntry]) -> None:
        merged = {k: e.to_json() for k, e in self.load().items()}
        for key, entry in items.items():
            merged[str(key)] = entry.to_json()
        self._write(merged)

    def evict(self, key: TuningKey | str) -> bool:
        """Drop one entry (invalidation); True when it existed."""
        entries = self.load()
        if str(key) not in entries:
            return False
        merged = {k: e.to_json() for k, e in entries.items()
                  if k != str(key)}
        self._write(merged)
        return True

    def clear(self) -> None:
        self._write({})

    def _write(self, entries: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self.path, _record_bytes(entries))

    # -- reporting -----------------------------------------------------
    def table(self) -> str:
        """Human-readable dump of the learned table (``repro tune``)."""
        entries = self.load()
        if not entries:
            return "(tuning cache is empty)"
        w = max(len(k) for k in entries)
        lines = [f"{'key'.ljust(w)} {'speedup':>8}  config"]
        for key in sorted(entries):
            e = entries[key]
            cfg = " ".join(f"{k}={v}" for k, v in sorted(e.config.items()))
            lines.append(f"{key.ljust(w)} {e.speedup:>7.2f}x  {cfg}")
        return "\n".join(lines)
