"""Tuning-cache tests: CRC validation, fail-open loads, atomic writes.

The cache is the one component a learning system persists across runs,
so corruption handling is the whole point: every malformed file must
load as *empty* (defaults everywhere), bump the invalid counter, and
never raise into the startup path consulting it.
"""

import json
import multiprocessing
import sys

import pytest

from repro.trace.metrics import REGISTRY
from repro.tune import (
    CACHE_FORMAT,
    CACHE_VERSION,
    TuneEntry,
    TuningCache,
    TuningKey,
    default_cache_path,
)

KEY = TuningKey("zfp-x", "<f4", (3, 4096), "cpu4")
ENTRY = TuneEntry(
    config={"adapter": "openmp", "threads": 4},
    cost_s=0.010,
    default_cost_s=0.013,
    digest="abc123",
    source="test",
)


@pytest.fixture
def cache(tmp_path):
    return TuningCache(tmp_path / "tuning.json")


def test_round_trip(cache):
    cache.put(KEY, ENTRY)
    got = cache.get(KEY)
    assert got == ENTRY
    assert got.speedup == pytest.approx(1.3)
    assert len(cache) == 1


def test_put_merges_instead_of_clobbering(cache):
    other = TuningKey("mgard-x", "<f8", (2, 1024), "cpu4")
    cache.put(KEY, ENTRY)
    cache.put(other, TuneEntry(config={"adapter": "serial", "threads": 1},
                               cost_s=0.5))
    entries = cache.load()
    assert set(entries) == {str(KEY), str(other)}


def test_evict_and_clear(cache):
    cache.put(KEY, ENTRY)
    assert cache.evict(KEY) is True
    assert cache.evict(KEY) is False
    cache.put(KEY, ENTRY)
    cache.clear()
    assert cache.load() == {}


def test_missing_file_loads_empty(cache):
    assert cache.load() == {}
    assert cache.get(KEY) is None


def _invalid_count():
    return REGISTRY.counter("hpdr_tune_cache_invalid_total").total()


def corrupt_crc(path):
    record = json.loads(path.read_text())
    record["crc"] = (record["crc"] + 1) & 0xFFFFFFFF
    path.write_text(json.dumps(record))


def corrupt_truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def corrupt_version(path):
    record = json.loads(path.read_text())
    record["version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(record))


def corrupt_format(path):
    record = json.loads(path.read_text())
    record["format"] = "not-" + CACHE_FORMAT
    path.write_text(json.dumps(record))


def corrupt_not_json(path):
    path.write_bytes(b"\x00\xffdefinitely not json")


def corrupt_bad_key(path):
    record = json.loads(path.read_text())
    entries = record["entries"]
    entries["not a tuning key"] = next(iter(entries.values()))
    # Keep the CRC honest so the *key* validation is what trips.
    import zlib

    record["crc"] = zlib.crc32(
        json.dumps(entries, sort_keys=True, separators=(",", ":")).encode()
    ) & 0xFFFFFFFF
    path.write_text(json.dumps(record))


@pytest.mark.parametrize("corrupt", [
    corrupt_crc,
    corrupt_truncate,
    corrupt_version,
    corrupt_format,
    corrupt_not_json,
    corrupt_bad_key,
], ids=lambda f: f.__name__)
def test_corrupt_file_loads_empty_and_counts(cache, corrupt):
    cache.put(KEY, ENTRY)
    corrupt(cache.path)
    before = _invalid_count()
    assert cache.load() == {}
    assert cache.get(KEY) is None
    assert _invalid_count() == before + 2  # one per load() above


def test_corrupt_cache_recovers_on_next_put(cache):
    cache.put(KEY, ENTRY)
    corrupt_crc(cache.path)
    cache.put(KEY, ENTRY)  # read-merge sees {}, rewrites a valid file
    assert cache.get(KEY) == ENTRY


def test_default_cache_path_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HPDR_TUNE_CACHE", str(tmp_path / "o.json"))
    assert default_cache_path() == tmp_path / "o.json"
    monkeypatch.delenv("HPDR_TUNE_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_path() == tmp_path / "xdg" / "hpdr" / "tuning.json"


def test_table_renders_entries(cache):
    assert "empty" in cache.table()
    cache.put(KEY, ENTRY)
    text = cache.table()
    assert str(KEY) in text
    assert "adapter=openmp" in text


def test_put_rejects_non_entry(cache):
    with pytest.raises(TypeError):
        cache.put(KEY, {"config": {}})


# ---------------------------------------------------------------------------
# Concurrent-writer atomicity: real processes racing put(); a reader
# polling throughout must never observe a torn or invalid file.
# ---------------------------------------------------------------------------
def _writer(path, codec, n, start, seen):
    sys.path.insert(0, "src")
    from repro.tune import TuneEntry, TuningCache, TuningKey

    cache = TuningCache(path)
    start.wait()
    for i in range(n):
        key = TuningKey(codec, "<f4", (3, 4096), f"cpu{i}")
        cache.put(key, TuneEntry(config={"adapter": "serial", "threads": 1},
                                 cost_s=0.001 * (i + 1)))
        if i == 0:
            # Hold the rest of the writes until the reader has read the
            # file once, so at least one read lands mid-race.
            seen.wait(30)


def test_concurrent_writers_never_tear(tmp_path):
    path = tmp_path / "tuning.json"
    ctx = multiprocessing.get_context("spawn")
    start, seen = ctx.Event(), ctx.Event()
    writers = [
        ctx.Process(target=_writer, args=(str(path), codec, 20, start, seen))
        for codec in ("zfp-x", "mgard-x")
    ]
    for w in writers:
        w.start()
    reader = TuningCache(path)
    invalid_before = _invalid_count()
    # The reader is polling before either writer writes a byte.
    reader.load()
    start.set()
    reads = 0
    while any(w.is_alive() for w in writers):
        if path.exists():
            reader.load()
            reads += 1
            seen.set()
    for w in writers:
        w.join()
        assert w.exitcode == 0
    # No read ever hit a torn/invalid file — atomic rename guarantees
    # every observed file is a complete record with a matching CRC.
    assert _invalid_count() == invalid_before
    assert reads > 0
    # Both writers' final updates survive the merge (last rename of each
    # key wins; the *other* writer's keys are merged in, not clobbered).
    final = reader.load()
    codecs = {TuningKey.parse(k).codec for k in final}
    assert codecs == {"zfp-x", "mgard-x"}
