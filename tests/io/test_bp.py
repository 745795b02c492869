"""BP5-like container format."""

import numpy as np
import pytest

from repro import Config, ErrorMode, MGARDX
from repro.compressors import ALIASES, CODECS
from repro.io.bp import BPFile


class TestRawVariables:
    def test_put_get_roundtrip(self, rng):
        bp = BPFile()
        data = rng.normal(size=(10, 12)).astype(np.float32)
        bp.put("temperature", data)
        assert np.array_equal(bp.get("temperature"), data)

    def test_serialization_roundtrip(self, rng):
        bp = BPFile()
        a = rng.normal(size=(5, 6))
        b = rng.integers(0, 100, size=(7,)).astype(np.int32)
        bp.put("a", a)
        bp.put("b", b)
        bp2 = BPFile.frombytes(bp.tobytes())
        assert np.array_equal(bp2.get("a"), a)
        assert np.array_equal(bp2.get("b"), b)
        assert bp2.get("b").dtype == np.int32

    def test_file_save_load(self, rng, tmp_path):
        bp = BPFile()
        data = rng.normal(size=(4, 4))
        bp.put("x", data)
        n = bp.save(tmp_path / "out.bp")
        assert n > data.nbytes
        assert np.array_equal(BPFile.load(tmp_path / "out.bp").get("x"), data)

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            BPFile().get("nope")

    def test_crc_detects_corruption(self, rng):
        bp = BPFile()
        bp.put("x", rng.normal(size=(64,)))
        blob = bytearray(bp.tobytes())
        blob[-5] ^= 0xFF  # flip a payload byte
        with pytest.raises(ValueError, match="CRC"):
            BPFile.frombytes(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            BPFile.frombytes(b"ADIO" + bytes(16))


class TestOperators:
    def test_reduced_variable_roundtrip(self, smooth_2d):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        bp = BPFile()
        bp.put("psl", smooth_2d, operator="mgard-x", compressor=MGARDX(cfg))
        back = bp.get("psl", compressor=MGARDX(cfg))
        assert np.max(np.abs(back - smooth_2d)) <= 1e-3 * np.ptp(smooth_2d)

    def test_reduced_smaller_than_raw(self, smooth_2d):
        cfg = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
        bp = BPFile()
        bp.put("raw", smooth_2d)
        bp.put("red", smooth_2d, operator="mgard-x", compressor=MGARDX(cfg))
        raw = bp.variables["raw"].nbytes_stored
        red = bp.variables["red"].nbytes_stored
        assert red < raw

    def test_operator_from_registry(self, smooth_2d):
        bp = BPFile()
        data = smooth_2d.astype(np.float32)
        bp.put("v", data, operator="zfp-x")
        back = bp.get("v")  # the codec table's zfp-x at its defaults
        assert back.shape == data.shape

    def test_all_default_operators_registered(self, smooth_2d):
        """Every table name and every paper-baseline alias is a tag."""
        assert set(ALIASES.values()) <= set(CODECS)
        data = smooth_2d.astype(np.float32)
        for name in (*CODECS, *ALIASES):
            bp = BPFile()
            bp.put("v", data, operator=name)
            back = BPFile.frombytes(bp.tobytes()).get("v")
            assert back.shape == data.shape, name

    def test_unknown_operator(self, smooth_2d):
        bp = BPFile()
        with pytest.raises(KeyError, match="blosc"):
            bp.put("v", smooth_2d, operator="blosc")
        bp.put_reduced("v", b"", smooth_2d.shape, smooth_2d.dtype, "blosc")
        with pytest.raises(KeyError, match="blosc"):
            bp.get("v")

    def test_lossless_operator_exact(self, rng):
        bp = BPFile()
        data = rng.normal(size=(20, 20)).astype(np.float64)
        bp.put("v", data, operator="huffman-x")
        assert np.array_equal(bp.get("v"), data)

    def test_compression_ratio_property(self, smooth_2d):
        cfg = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
        bp = BPFile()
        bp.put("v", smooth_2d, operator="mgard-x", compressor=MGARDX(cfg))
        assert bp.compression_ratio > 1.0

    def test_put_reduced_payload(self, smooth_2d):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        comp = MGARDX(cfg)
        payload = comp.compress(smooth_2d)
        bp = BPFile()
        bp.put_reduced("v", payload, smooth_2d.shape, smooth_2d.dtype, "mgard-x")
        back = bp.get("v", compressor=MGARDX(cfg))
        assert back.shape == smooth_2d.shape
