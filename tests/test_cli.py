"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import _envelope, _open_envelope, main


@pytest.fixture
def field_file(tmp_path, rng):
    data = rng.normal(size=(20, 24)).astype(np.float32)
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


class TestEnvelope:
    def test_roundtrip(self):
        method, payload = _open_envelope(_envelope("mgard-x", b"\x01\x02"))
        assert method == "mgard-x"
        assert payload == b"\x01\x02"

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            _open_envelope(b"NOPE....")


@pytest.mark.parametrize("method", ["mgard-x", "zfp-x", "sz", "huffman-x", "lz4"])
def test_compress_decompress_cycle(method, field_file, tmp_path, capsys):
    src, data = field_file
    hpdr = tmp_path / "out.hpdr"
    back = tmp_path / "back.npy"
    assert main(["compress", str(src), str(hpdr), "--method", method,
                 "--eb", "1e-3"]) == 0
    assert main(["decompress", str(hpdr), str(back)]) == 0
    restored = np.load(back)
    assert restored.shape == data.shape
    if method in ("huffman-x", "lz4"):
        assert np.array_equal(restored, data)
    else:
        assert np.max(np.abs(restored - data)) <= 1e-2 * np.ptp(data)


def test_info(field_file, tmp_path, capsys):
    src, _ = field_file
    hpdr = tmp_path / "out.hpdr"
    main(["compress", str(src), str(hpdr), "--method", "lz4"])
    assert main(["info", str(hpdr)]) == 0
    out = capsys.readouterr().out
    assert "method=lz4" in out


def test_refactor_retrieve_cycle(field_file, tmp_path, capsys):
    src, data = field_file
    hpgx = tmp_path / "f.hpgx"
    out = tmp_path / "coarse.npy"
    assert main(["refactor", str(src), str(hpgx), "--eb", "1e-5"]) == 0
    assert main(["retrieve", str(hpgx), str(out), "--resolution", "2"]) == 0
    coarse = np.load(out)
    assert coarse.shape == data.shape
    assert main(["retrieve", str(hpgx), str(out)]) == 0  # full retrieval
    full = np.load(out)
    assert np.max(np.abs(full - data)) < 1e-4 * np.ptp(data)


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "NYX" in out and "XGC" in out and "E3SM" in out


def test_adapter_flag(field_file, tmp_path):
    src, data = field_file
    hpdr = tmp_path / "out.hpdr"
    assert main(["compress", str(src), str(hpdr), "--method", "mgard-x",
                 "--adapter", "cuda"]) == 0


def test_unknown_method_rejected(field_file, tmp_path):
    src, _ = field_file
    with pytest.raises(SystemExit):
        main(["compress", str(src), str(tmp_path / "x"), "--method", "brotli"])


def test_zfp_accuracy_mode(field_file, tmp_path):
    src, data = field_file
    hpdr = tmp_path / "out.hpdr"
    back = tmp_path / "back.npy"
    assert main(["compress", str(src), str(hpdr), "--method", "zfp-accuracy",
                 "--tolerance", "0.01"]) == 0
    assert main(["decompress", str(hpdr), str(back)]) == 0
    restored = np.load(back)
    assert np.max(np.abs(restored - data)) <= 0.01


def test_blast_selfhost_roundtrip(capsys):
    assert main(["blast", "--selfhost", "--clients", "4", "--requests", "5",
                 "--codec", "zfp-x", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "20 requests" in out
    assert "mismatches=0" in out
    assert "errors=0" in out


def test_blast_requires_port_or_selfhost():
    with pytest.raises(SystemExit):
        main(["blast", "--clients", "1", "--requests", "1"])


def test_blast_bad_shape_rejected():
    with pytest.raises(SystemExit):
        main(["blast", "--selfhost", "--shape", "banana"])


_TRACE = {"--trace", "--metrics"}
_DEVICE = {"--adapter", "--threads"}
_TUNE = {"--tune", "--tuning-cache"}
_SERVICE = {"--workers", "--max-batch", "--max-latency-ms"}
_SHARDS = {"--shards", "--replicas", "--backend", "--shard-max-pending"}

#: every subcommand's options: shared flag groups come from parent
#: parsers, so a group that goes missing from one command shows here.
OPTION_SETS = {
    "compress": _TRACE | _DEVICE | {"--sanitize", "--method", "--eb",
                                    "--mode", "--rate", "--tolerance"},
    "decompress": _TRACE | _DEVICE | {"--sanitize"},
    "info": set(),
    "refactor": _TRACE | {"--eb", "--mode", "--bits-per-plane", "--max-planes",
                          "--store", "--aggregators"},
    "retrieve": _TRACE | {"--error-bound", "--resolution"},
    "campaign": _TRACE | {"--adapter", "--method", "--eb", "--mode", "--rate",
                          "--ranks", "--chunk-elems", "--faults", "--resume",
                          "--checkpoint-every"},
    "faultplan": {"--seed", "--system", "--nodes", "--hours",
                  "--device-batch-rate", "--timeout-rate", "--corrupt-rate",
                  "--transport-rate", "--drop-rank", "--drop-after-chunks",
                  "--kill-after-chunks"},
    "serve": _TRACE | _DEVICE | _TUNE | _SERVICE | {
        "--host", "--port", "--processes", "--max-bytes", "--max-pending"},
    "cluster": _TRACE | _DEVICE | _TUNE | _SERVICE | _SHARDS | {
        "--host", "--port", "--max-pending", "--vnodes"},
    "blast": _DEVICE | _TUNE | _SERVICE | _SHARDS | {
        "--host", "--port", "--selfhost", "--clients", "--requests",
        "--codec", "--rate", "--eb", "--shape", "--seed", "--verify",
        "--compress-only", "--processes", "--shm", "--cluster", "--kill-one",
        "--kill-after-ms"},
    "tune": _TRACE | {"--tuning-cache", "--seed", "--budget", "--clients"},
    "datasets": set(),
}


def _subparsers():
    import argparse

    from repro.cli import build_parser

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_subcommand_is_listed():
    assert set(_subparsers()) == set(OPTION_SETS)


@pytest.mark.parametrize("command", sorted(OPTION_SETS))
def test_subcommand_option_set(command):
    options = {opt for action in _subparsers()[command]._actions
               for opt in action.option_strings}
    assert options - {"-h", "--help"} == OPTION_SETS[command]


@pytest.mark.parametrize("command", ["compress", "refactor"])
def test_codec_commands_take_no_tune_flag(command, field_file, tmp_path,
                                          capsys):
    src, _ = field_file
    with pytest.raises(SystemExit) as exc:
        main([command, str(src), str(tmp_path / "out"), "--tune", "auto"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tune_writes_one_service_entry(tmp_path, capsys):
    from repro.tune import SERVICE_CODEC, TuningCache, TuningKey

    path = tmp_path / "tuning.json"
    assert main(["tune", "--tuning-cache", str(path), "--budget", "2",
                 "--clients", "4"]) == 0
    (key,) = TuningCache(path).load()
    assert TuningKey.parse(key).codec == SERVICE_CODEC
