"""The Huffman-X byte path on forced thread counts, and the retired
``HUFP`` container.

``HUFP`` was a second byte container: above 128 KiB a multi-threaded
adapter split the input into up to ``threads`` segments of at least
64 KiB (``SEG``), each a ``HUFX`` stream of its own.  Nothing writes it
and nothing reads it any more.  The sizes where the writer used to
change its segment count now pin the opposite property — the blob is the
serial blob whatever the thread count — with every adapter wrapped in
:class:`SanitizingAdapter`; a stored ``HUFP`` blob, hostile header or
not, is refused by name in bounded memory.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from repro import HuffmanX
from repro.adapters import get_adapter
from repro.check import SanitizingAdapter, assert_steady_state
from repro.util import CorruptStreamError

SEG = 1 << 16
#: ±1 around every former segment-count transition up to 4 segments.
BOUNDARY_SIZES = [
    SEG - 1, SEG, SEG + 1,
    2 * SEG - 1, 2 * SEG, 2 * SEG + 1,
    4 * SEG, 4 * SEG + 1,
]


def _san_openmp(threads: int) -> SanitizingAdapter:
    return SanitizingAdapter(get_adapter("openmp", num_threads=threads))


def _payload(rng, nbytes: int) -> bytes:
    # Low-entropy bytes: compressible, and decode touches every chunk.
    return rng.integers(0, 17, size=nbytes).astype(np.uint8).tobytes()


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("nbytes", BOUNDARY_SIZES)
def test_roundtrip_at_segment_boundaries(rng, threads, nbytes):
    codec = HuffmanX(adapter=_san_openmp(threads))
    data = _payload(rng, nbytes)
    blob = codec.compress(data)
    assert blob == HuffmanX().compress(data)
    assert codec.decompress(blob).tobytes() == data


@pytest.mark.parametrize("nbytes", [2 * SEG - 1, 2 * SEG, 2 * SEG + 1])
def test_cross_thread_count_decode(rng, nbytes):
    data = _payload(rng, nbytes)
    (blob,) = {HuffmanX(adapter=_san_openmp(t)).compress(data) for t in (1, 2, 4)}
    readers = [
        HuffmanX(adapter=_san_openmp(t)) for t in (1, 2, 4)
    ] + [HuffmanX(adapter=SanitizingAdapter(get_adapter("serial")))]
    for reader in readers:
        assert reader.decompress(blob).tobytes() == data


@pytest.mark.parametrize("threads", [2, 4])
def test_steady_state_under_sanitizer(rng, threads):
    # The sanitizer re-executes every GEM batch against the same context.
    codec = HuffmanX(adapter=_san_openmp(threads))
    data = _payload(rng, 3 * SEG)
    assert_steady_state(lambda: codec.compress(data), codec.cache)


# ----------------------------------------------------------------------
# The retired container
# ----------------------------------------------------------------------
def _byte_meta(nbytes: int) -> bytes:
    """The byte API's prefix for ``nbytes`` uint8 values: dtype-string
    length and ndim, then ``|u1`` and the one dimension."""
    return struct.pack("<BH", 3, 1) + b"|u1" + struct.pack("<q", nbytes)


def _parts(segments) -> list[bytes]:
    return [HuffmanX().compress_keys(s, 256) for s in segments]


def _hufp(segments, count=None, lengths=None) -> bytes:
    """A ``HUFP`` blob over ``segments``; ``count``/``lengths`` lie."""
    parts = _parts(segments)
    count = len(parts) if count is None else count
    lengths = [len(p) for p in parts] if lengths is None else lengths
    return b"".join([
        _byte_meta(sum(s.size for s in segments)),
        b"HUFP", struct.pack("<BI", 1, count),
        struct.pack(f"<{len(lengths)}Q", *lengths), *parts,
    ])


@pytest.fixture(scope="module")
def halves():
    keys = np.random.default_rng(7).integers(0, 17, size=6000).astype(np.uint8)
    return [keys[:4096], keys[4096:]]


def test_legacy_container_refused_single_and_batched(halves):
    blob = _hufp(halves)
    want = np.concatenate(halves)
    for codec in (HuffmanX(), HuffmanX(adapter=_san_openmp(2))):
        with pytest.raises(CorruptStreamError, match="HUFP .*retired"):
            codec.decompress(blob)
        # A batch holding a retired body is refused whole.
        with pytest.raises(CorruptStreamError, match="HUFP .*retired"):
            codec.decompress_batch([blob, codec.compress(want)])


TABLE = len(_byte_meta(0)) + 4 + 5    # offset of the length table
#: name -> blob from the two segments and their true coded lengths (a, b)
HOSTILE = {
    "count-0": lambda h, a, b: _hufp(h, count=0),
    "count-1": lambda h, a, b: _hufp(h, count=1),
    "count-max": lambda h, a, b: _hufp(h, count=2**32 - 1),
    "length-huge-first": lambda h, a, b: _hufp(h, lengths=[2**60, b]),
    "length-huge-last": lambda h, a, b: _hufp(h, lengths=[a, 2**60]),
    "length-short-by-8": lambda h, a, b: _hufp(h, lengths=[a, b - 8]),
    "cut-in-table": lambda h, a, b: _hufp(h)[: TABLE + 12],
    "cut-in-last-segment": lambda h, a, b: _hufp(h)[:-5],
    "version-2": lambda h, a, b: _hufp(h).replace(b"HUFP\x01", b"HUFP\x02"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_legacy_reader_rejects_hostile_header(halves, case):
    blob = HOSTILE[case](halves, *map(len, _parts(halves)))
    codec = HuffmanX()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            codec.decompress(blob)
        with pytest.raises(CorruptStreamError):
            codec.decompress_batch([blob, blob])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Nothing is sized from a declared count or length.
    assert peak < 1 << 20
