"""Huffman-X end-to-end: bitstream, chunked decode, container format."""

import numpy as np
import pytest

from repro.adapters import list_adapters
from repro.compressors.huffman import HuffmanX, pack_bits


class TestBitstream:
    def test_pack_single_code(self):
        out = pack_bits(np.array([0b101]), np.array([3]))
        assert out[0] == 0b10100000

    def test_pack_across_byte_boundary(self):
        out = pack_bits(np.array([0b11111, 0b0001]), np.array([5, 4]))
        # stream: 11111 0001 → bytes 11111000 1xxxxxxx
        assert out[0] == 0b11111000
        assert out[1] == 0b10000000

    def test_zero_length_codes_write_nothing(self):
        out = pack_bits(np.array([7, 0, 3]), np.array([3, 0, 2]))
        # 111 then 11 → 11111xxx
        assert out[0] == 0b11111000

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1, 2]), np.array([3]))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 7, 255, 256, 4096, 10_000])
    def test_sizes(self, n, rng):
        keys = rng.integers(0, 64, size=n).astype(np.int32)
        h = HuffmanX(chunk_size=256)
        assert np.array_equal(h.decompress_keys(h.compress_keys(keys, 64)), keys)

    def test_nd_shape_restored(self, rng):
        keys = rng.integers(0, 10, size=(6, 7, 8)).astype(np.int16)
        h = HuffmanX()
        back = h.decompress_keys(h.compress_keys(keys, 10))
        assert back.shape == (6, 7, 8)
        assert back.dtype == np.int16
        assert np.array_equal(back, keys)

    def test_single_symbol_stream(self):
        keys = np.full(1000, 3, dtype=np.int64)
        h = HuffmanX()
        assert np.array_equal(h.decompress_keys(h.compress_keys(keys, 8)), keys)

    def test_geometric_distribution_compresses(self, rng):
        keys = np.minimum(rng.geometric(0.5, size=20_000) - 1, 255).astype(np.int64)
        h = HuffmanX()
        blob = h.compress_keys(keys, 256)
        assert len(blob) < keys.size  # < 1 byte per 8-byte symbol
        assert np.array_equal(h.decompress_keys(blob), keys)

    def test_uniform_distribution_near_log2(self, rng):
        keys = rng.integers(0, 16, size=50_000).astype(np.int64)
        h = HuffmanX()
        blob = h.compress_keys(keys, 16)
        payload_bits = 8 * len(blob)
        assert payload_bits / keys.size < 4.5  # ~log2(16)=4 bits/key + overhead

    def test_keys_out_of_range_rejected(self, rng):
        h = HuffmanX()
        with pytest.raises(ValueError):
            h.compress_keys(np.array([0, 5]), 4)
        with pytest.raises(ValueError):
            h.compress_keys(np.array([-1, 0]), 4)

    def test_non_integer_keys_rejected(self):
        h = HuffmanX()
        with pytest.raises(TypeError):
            h.compress_keys(np.array([1.5]), 4)

    def test_chunk_size_from_stream(self, rng):
        keys = rng.integers(0, 8, size=5000).astype(np.int64)
        blob = HuffmanX(chunk_size=128).compress_keys(keys, 8)
        # A decoder configured differently adopts the stream's chunking.
        back = HuffmanX(chunk_size=4096).decompress_keys(blob)
        assert np.array_equal(back, keys)

    def test_chunk_under_the_rule_need_not_be_a_power_of_two(self, rng):
        """A cap under the rule's pick is the chunk: 100 keys, which
        8-bit codes' groups of 8 do not divide (the packer takes 4)."""
        keys = rng.integers(0, 256, size=100_003).astype(np.int64)
        h = HuffmanX(chunk_size=100)
        blob = h.compress_keys(keys, 256)
        assert h._deserialize(blob)[7] == 100
        assert np.array_equal(h.decompress_keys(blob), keys)

    def test_decompress_does_not_mutate_chunk_size(self, rng):
        keys = rng.integers(0, 8, size=5000).astype(np.int64)
        blob = HuffmanX(chunk_size=128).compress_keys(keys, 8)
        h = HuffmanX(chunk_size=4096)
        h.decompress_keys(blob)
        # The stream's chunking must not leak into the decoder instance:
        # how it *encodes* is configuration, not whatever it last read.
        assert h.chunk_size == 4096
        assert len(HuffmanX(chunk_size=4096).compress_keys(keys, 8)) == len(
            h.compress_keys(keys, 8)
        )

    def test_chunk_size_must_fit_the_chunk_table(self):
        """A chunk's bit count (at most 16 bits a key) is stored as a
        uint32: a chunk whose count might not fit is refused up front."""
        from repro.compressors.huffman.compressor import _MAX_CHUNK

        assert HuffmanX(chunk_size=_MAX_CHUNK).chunk_size == _MAX_CHUNK
        for bad in (0, _MAX_CHUNK + 1):
            with pytest.raises(ValueError, match="chunk_size"):
                HuffmanX(chunk_size=bad)

    def test_wide_chunks_store_uint32_counts(self, rng):
        """Past 4,095 keys a chunk's count may not fit 16 bits: the
        decoder reads a uint32 table, named by the chunk field alone."""
        keys = rng.integers(0, 16, size=6000).astype(np.int64)
        h = HuffmanX()
        narrow = h.compress_keys(keys, 16)
        book, payload = h._deserialize(narrow)[4:7:2]
        lengths = book.lengths.astype(np.int64)[keys]
        counts = np.array([lengths[:5000].sum(), lengths[5000:].sum()])
        wide = h._serialize((6000,), keys.dtype, 16, 6000, book, counts,
                            payload, 5000)
        assert wide[wide.index(payload.tobytes()) - 8 :][:8] == (
            counts.astype("<u4").tobytes())
        assert np.array_equal(h.decompress_keys(wide), keys)

    def test_overlong_code_length_rejected(self):
        from repro.compressors.huffman.codebook import MAX_CODE_LENGTH, Codebook

        h = HuffmanX()
        lengths = np.array([MAX_CODE_LENGTH + 9, 2], dtype=np.uint8)
        book = Codebook(codes=np.zeros(2, dtype=np.uint64), lengths=lengths)
        blob = h._serialize(
            (4,), np.dtype(np.int64), 2, 4, book,
            np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint8), 256,
        )
        with pytest.raises(ValueError, match="24"):
            h.decompress_keys(blob)


class TestByteLevel:
    def test_lossless_float_array(self, rng):
        data = rng.normal(size=(40, 25)).astype(np.float64)
        h = HuffmanX()
        back = h.decompress(h.compress(data))
        assert back.dtype == np.float64
        assert np.array_equal(back, data)

    def test_lossless_bytes(self):
        raw = b"the quick brown fox" * 100
        h = HuffmanX()
        back = h.decompress(h.compress(raw))
        assert back.tobytes() == raw

    def test_bad_magic(self):
        h = HuffmanX()
        with pytest.raises(ValueError):
            h.decompress_keys(b"XXXX" + b"\x00" * 64)

    def test_compression_ratio_helper(self, rng):
        data = np.zeros((100,), dtype=np.float32)
        h = HuffmanX()
        blob = h.compress(data)
        assert h.compression_ratio(data, blob) > 1.0


class TestAdapterPortability:
    @pytest.mark.parametrize("family", list_adapters())
    def test_identical_streams_across_adapters(self, family, rng):
        from repro.adapters import get_adapter

        keys = rng.integers(0, 32, size=4000).astype(np.int64)
        reference = HuffmanX().compress_keys(keys, 32)
        other = HuffmanX(adapter=get_adapter(family)).compress_keys(keys, 32)
        assert reference == other  # bit-exact portability

    def test_cross_decode(self, rng):
        from repro.adapters import get_adapter

        keys = rng.integers(0, 100, size=3000).astype(np.int64)
        blob = HuffmanX(adapter=get_adapter("cuda")).compress_keys(keys, 128)
        back = HuffmanX(adapter=get_adapter("openmp")).decompress_keys(blob)
        assert np.array_equal(back, keys)

    def test_serial_container_decodes_on_openmp(self, rng):
        from repro.adapters import get_adapter

        raw = rng.integers(0, 256, size=300_000).astype(np.uint8).tobytes()
        blob = HuffmanX().compress(raw)
        par = HuffmanX(adapter=get_adapter("openmp", num_threads=4))
        assert par.compress(raw) == blob  # one container on every width
        assert par.decompress(blob).tobytes() == raw
