"""HUFP chunk-parallel byte-path decode under the sanitizer.

Exercises the segment-count boundaries (the container splits at
``_MIN_SEGMENT_BYTES`` = 64 KiB granularity) across thread counts, with
every adapter wrapped in :class:`SanitizingAdapter` — the exact
configuration where a halo race or context misuse between concurrent
segments would surface.
"""

import numpy as np
import pytest

from repro import HuffmanX
from repro.adapters import get_adapter
from repro.check import SanitizingAdapter
from repro.compressors.huffman.compressor import _MIN_SEGMENT_BYTES, _PAR_MAGIC

SEG = _MIN_SEGMENT_BYTES
#: ±1 around every segment-count transition up to 4 segments.
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
    out = codec.decompress(blob)
    assert out.tobytes() == data

    body_is_parallel = _PAR_MAGIC in blob[:64]
    expected_segments = max(1, min(threads, nbytes // SEG))
    assert body_is_parallel == (expected_segments > 1)


@pytest.mark.parametrize("nbytes", [2 * SEG - 1, 2 * SEG, 2 * SEG + 1])
def test_cross_thread_count_decode(rng, nbytes):
    # A stream written with N threads must decode bit-exactly with any
    # other thread count (and serially): the container is adapter-
    # agnostic by contract.
    data = _payload(rng, nbytes)
    blobs = {
        t: HuffmanX(adapter=_san_openmp(t)).compress(data) for t in (1, 2, 4)
    }
    readers = [
        HuffmanX(adapter=_san_openmp(t)) for t in (1, 2, 4)
    ] + [HuffmanX(adapter=SanitizingAdapter(get_adapter("serial")))]
    for blob in blobs.values():
        for reader in readers:
            assert reader.decompress(blob).tobytes() == data


@pytest.mark.parametrize("threads", [2, 4])
def test_segmented_steady_state_under_sanitizer(
    rng, threads, segments_finish_together
):
    # Segment tasks lease their blocks from one pool while the sanitizer
    # re-executes every GEM batch.  The most the pool can be asked for
    # is every task holding a whole call's blocks at once — threads x
    # one call — and how close a given run gets is the scheduler's
    # business.  So warm-up drives that concurrency; after it the
    # steady state is flat whatever the overlap.
    from repro.check import assert_steady_state

    codec = HuffmanX(adapter=_san_openmp(threads))
    data = _payload(rng, 3 * SEG)
    nseg = min(threads, 3)

    alone = HuffmanX(adapter=_san_openmp(1))
    alone.compress(data[: len(data) // nseg])
    one_call = alone.cache.alloc_events

    with segments_finish_together(nseg):
        codec.compress(data)
    assert one_call < codec.cache.alloc_events <= nseg * one_call
    assert_steady_state(lambda: codec.compress(data), codec.cache, warmup=0)
