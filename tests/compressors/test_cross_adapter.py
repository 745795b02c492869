"""Cross-adapter portability — the framework's central guarantee.

Data reduced on any backend must reconstruct bit-exactly on every other
backend (paper Section II-B: without portability, "data reduced by one
type of processor cannot be reconstructed by another type of processor
with a guarantee").
"""

import itertools

import numpy as np
import pytest

from repro import MGARDX, SZ, ZFPX, Config, ErrorMode, HuffmanX, get_adapter, list_adapters

FAMILIES = list_adapters()


@pytest.fixture(scope="module")
def field():
    axes = [np.linspace(0, 2 * np.pi, 20)] * 3
    x, y, z = np.meshgrid(*axes, indexing="ij")
    return (np.sin(x) + np.cos(y) * np.sin(2 * z)).astype(np.float32)


class TestStreamEquality:
    """Same input → byte-identical stream on every adapter."""

    def test_mgard_streams_equal(self, field):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        blobs = {
            fam: MGARDX(cfg, adapter=get_adapter(fam)).compress(field)
            for fam in FAMILIES
        }
        ref = blobs["serial"]
        assert all(b == ref for b in blobs.values())

    def test_zfp_streams_equal(self, field):
        blobs = {
            fam: ZFPX(rate=10, adapter=get_adapter(fam)).compress(field)
            for fam in FAMILIES
        }
        ref = blobs["serial"]
        assert all(b == ref for b in blobs.values())

    def test_huffman_streams_equal(self, rng):
        keys = rng.integers(0, 50, size=3000).astype(np.int64)
        blobs = {
            fam: HuffmanX(adapter=get_adapter(fam)).compress_keys(keys, 64)
            for fam in FAMILIES
        }
        ref = blobs["serial"]
        assert all(b == ref for b in blobs.values())

    def test_sz_streams_equal(self, field):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        blobs = {
            fam: SZ(cfg, adapter=get_adapter(fam)).compress(field)
            for fam in FAMILIES
        }
        ref = blobs["serial"]
        assert all(b == ref for b in blobs.values())


class TestCrossDecode:
    """Compress on A, decompress on B, for every ordered pair."""

    @pytest.mark.parametrize("src,dst", list(itertools.permutations(FAMILIES, 2)))
    def test_mgard_pairwise(self, src, dst, field):
        cfg = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
        blob = MGARDX(cfg, adapter=get_adapter(src)).compress(field)
        back = MGARDX(cfg, adapter=get_adapter(dst)).decompress(blob)
        assert np.max(np.abs(back - field)) <= 1e-2 * np.ptp(field)

    def test_zfp_gpu_to_cpu(self, field):
        blob = ZFPX(rate=12, adapter=get_adapter("cuda")).compress(field)
        back = ZFPX(rate=12, adapter=get_adapter("openmp")).decompress(blob)
        ref = ZFPX(rate=12, adapter=get_adapter("serial")).decompress(blob)
        assert np.array_equal(back, ref)  # identical reconstruction

    def test_strict_serial_oracle_agrees(self, field):
        """The per-block oracle confirms functor purity on real kernels."""
        strict = get_adapter("serial", strict=True)
        batched = get_adapter("cuda")
        a = ZFPX(rate=10, adapter=strict).compress(field)
        b = ZFPX(rate=10, adapter=batched).compress(field)
        assert a == b


@pytest.mark.parametrize("family", FAMILIES)
def test_empty_array_is_refused_the_same_way_on_every_backend(family):
    """Every ZFP mode and SZ refuse an empty array with a ValueError that
    names the codec, as MGARD-X does, whatever the backend."""
    from repro.compressors.zfp.embedded import ZFPEmbedded
    from repro.compressors.zfp.modes import ZFPAccuracy, ZFPPrecision

    adapter = get_adapter(family)
    codecs = [
        ("ZFP-X", ZFPX(adapter=adapter)),
        ("ZFP fix-accuracy", ZFPAccuracy(1e-3, adapter=adapter)),
        ("ZFP-embedded", ZFPEmbedded(adapter=adapter)),
        ("ZFP-X", ZFPPrecision(16, adapter=adapter)),  # fixed-rate ZFP-X
        ("SZ", SZ(adapter=adapter)),
    ]
    for who, codec in codecs:
        for shape in [(0,), (4, 0), (3, 0, 5)]:
            with pytest.raises(ValueError, match=f"^{who}.* non-empty"):
                codec.compress(np.zeros(shape, np.float32))
