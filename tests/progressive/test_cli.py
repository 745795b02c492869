"""CLI: ``repro refactor`` (HPGX/BP) and bounded ``repro retrieve``."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def field_file(tmp_path):
    rng = np.random.default_rng(4)
    data = (np.linspace(0, 1, 18 * 22).reshape(18, 22)
            + rng.normal(0, 0.05, (18, 22))).astype(np.float32)
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


def test_progressive_blob_roundtrip(field_file, tmp_path, capsys):
    src, data = field_file
    hpgx = tmp_path / "field.hpgx"
    out = tmp_path / "full.npy"
    assert main(["refactor", str(src), str(hpgx), "--eb", "1e-3"]) == 0
    report = capsys.readouterr().out
    assert "retrievable frontier" in report
    assert hpgx.read_bytes()[:4] == b"HPGX"

    from repro import Config, MGARDX

    oneshot = MGARDX(Config(error_bound=1e-3))
    want = oneshot.decompress(oneshot.compress(data))
    assert main(["retrieve", str(hpgx), str(out)]) == 0
    assert np.load(out).tobytes() == want.tobytes()


def test_progressive_bounded_retrieve(field_file, tmp_path, capsys):
    src, data = field_file
    hpgx = tmp_path / "field.hpgx"
    coarse = tmp_path / "coarse.npy"
    main(["refactor", str(src), str(hpgx), "--eb", "1e-3"])
    capsys.readouterr()
    assert main(["retrieve", str(hpgx), str(coarse),
                 "--error-bound", "0.05"]) == 0
    report = capsys.readouterr().out
    assert "achieved error" in report
    restored = np.load(coarse)
    assert np.max(np.abs(restored.astype(np.float64)
                         - data.astype(np.float64))) <= 0.05


def test_progressive_bp_store_roundtrip(field_file, tmp_path):
    src, data = field_file
    store = tmp_path / "field.bp"
    out = tmp_path / "level.npy"
    assert main(["refactor", str(src), str(store),
                 "--store", "bp", "--aggregators", "2"]) == 0
    assert (store / "index.json").exists()
    assert main(["retrieve", str(store), str(out), "--resolution", "2"]) == 0
    assert np.load(out).shape == data.shape


def test_retrieve_flag_validation(field_file, tmp_path, capsys):
    src, _data = field_file
    out = tmp_path / "out.npy"
    # Refactoring is always progressive; the level-granular flags are gone.
    for argv in (["refactor", str(src), str(tmp_path / "f"), "--progressive"],
                 ["refactor", str(src), str(tmp_path / "f"), "--precision",
                  "1e-6"],
                 ["retrieve", str(src), str(out), "--levels", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_unreachable_bound_exits_with_guidance(field_file, tmp_path, capsys):
    src, _data = field_file
    hpgx = tmp_path / "field.hpgx"
    out = tmp_path / "out.npy"
    main(["refactor", str(src), str(hpgx)])
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", str(hpgx), str(out), "--error-bound", "1e-300"])
    assert "retry with eps >=" in str(exc.value)
    assert not out.exists()


@pytest.mark.parametrize("make_input, message", [
    (lambda p: p.write_bytes(b"NOPE" + bytes(64)), "not an HPGX archive"),
    (lambda p: p.write_bytes(b"HPGX\x01\xff\xff\x00\x00{"),
     "archive index truncated"),
    (lambda p: p.mkdir(), "without index.json"),
    (lambda p: p.write_bytes(b"MGRF\x01\x03\x02\x04" + bytes(64)),
     "MGRF streams are no longer readable; re-run `repro refactor` on "
     "the source array"),
], ids=["not-an-archive", "truncated-index", "bare-directory", "mgrf"])
def test_bad_input_exits_with_a_message(make_input, message, tmp_path):
    src = tmp_path / "input"
    out = tmp_path / "out.npy"
    make_input(src)
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", str(src), str(out)])
    assert message in str(exc.value)
    assert "\n" not in str(exc.value)
    assert not out.exists()


#: SHA-256 of the HPGX archive ``refactor --eb 1e-4`` writes for
#: ``_integer_field()``: its segments carry ``HUFX`` version-2 key
#: streams (the version-1 archive differed only in their chunk tables).
REFACTOR_EB_1E4_SHA256 = (
    "43834b918294040ca127912a67b9db365b36bf195bf08920750956afcadbb099"
)


def _integer_field() -> np.ndarray:
    """A ramp plus integer noise: no libm, so the same bits everywhere."""
    i, j = np.indices((18, 22))
    noise = np.random.default_rng(4).integers(-64, 64, size=(18, 22))
    return (((i * 37 + j * 11) * 16 + noise) / 256.0).astype(np.float32)


def test_refactor_writes_the_pinned_archive(tmp_path):
    src = tmp_path / "F.npy"
    hpgx = tmp_path / "out.hpgx"
    np.save(src, _integer_field())
    assert main(["refactor", str(src), str(hpgx), "--eb", "1e-4"]) == 0
    digest = hashlib.sha256(hpgx.read_bytes()).hexdigest()
    assert digest == REFACTOR_EB_1E4_SHA256
