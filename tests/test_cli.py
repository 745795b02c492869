"""Command-line interface."""

import numpy as np
import pytest

from repro.adapters import list_adapters
from repro.cli import _envelope, _open_envelope, main
from repro.resilience.campaign import reconstruct


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


@pytest.mark.parametrize("family", list_adapters())
def test_every_registered_adapter_is_a_cli_choice(family, field_file, tmp_path):
    """``--adapter`` offers the registry: every family compresses and
    decompresses, to the serial adapter's bytes."""
    src, data = field_file
    ref, hpdr, back = (tmp_path / n for n in ("ref.hpdr", "out.hpdr", "back.npy"))
    assert main(["compress", str(src), str(ref), "--method", "mgard-x"]) == 0
    assert main(["compress", str(src), str(hpdr), "--method", "mgard-x",
                 "--adapter", family]) == 0
    assert hpdr.read_bytes() == ref.read_bytes()
    assert main(["decompress", str(hpdr), str(back), "--adapter", family]) == 0
    assert np.load(back).shape == data.shape


@pytest.mark.parametrize("family", list_adapters())
def test_every_registered_adapter_can_be_sanitized(family, field_file, tmp_path):
    """``--sanitize`` wraps any ``--adapter``, and the stream is the
    unsanitized one."""
    src, _ = field_file
    ref, hpdr = tmp_path / "ref.hpdr", tmp_path / "san.hpdr"
    assert main(["compress", str(src), str(ref), "--method", "zfp-x"]) == 0
    assert main(["compress", str(src), str(hpdr), "--method", "zfp-x",
                 "--adapter", family, "--sanitize"]) == 0
    assert hpdr.read_bytes() == ref.read_bytes()


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


def test_zfp_accuracy_zero_tolerance_refused(field_file, tmp_path):
    """``--tolerance 0`` reaches ZFP accuracy mode, which refuses it;
    only an absent flag takes the default tolerance."""
    src, _ = field_file
    out = tmp_path / "out.hpdr"
    with pytest.raises(SystemExit, match="tolerance must be positive"):
        main(["compress", str(src), str(out), "--method", "zfp-accuracy",
              "--tolerance", "0"])
    assert not out.exists()


def test_campaign_takes_every_table_method(field_file, tmp_path, capsys):
    src, data = field_file
    assert main(["campaign", str(src), str(tmp_path / "c"), "--method",
                 "zfp-accuracy", "--ranks", "2", "--chunk-elems", "8"]) == 0
    assert np.max(np.abs(reconstruct(tmp_path / "c") - data)) <= 1e-3


def test_campaign_refuses_a_bad_parameter_before_writing(field_file, tmp_path):
    """The codec is built once before any rank starts: a parameter it
    refuses is compress's one-line message, and no output is left."""
    src, _ = field_file
    out = tmp_path / "c"
    with pytest.raises(SystemExit, match="zfp-x: rate must be in") as exc:
        main(["campaign", str(src), str(out), "--method", "zfp-x",
              "--rate", "0"])
    assert "\n" not in str(exc.value)
    assert not out.exists()


def test_blast_refuses_an_unservable_codec():
    with pytest.raises(SystemExit, match="servable"):
        main(["blast", "--selfhost", "--codec", "zfp-accuracy",
              "--clients", "1", "--requests", "1"])


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


@pytest.mark.parametrize("where", ["--selfhost", "--cluster"])
def test_threads_without_openmp_refused(where):
    """As on compress/decompress: --threads is refused, not ignored,
    unless the adapter is openmp (serve and cluster build their service
    config the same way; blast is the one that returns)."""
    with pytest.raises(SystemExit, match="--threads only applies to --adapter openmp"):
        main(["blast", where, "--threads", "2", "--clients", "1", "--requests", "1"])


@pytest.mark.parametrize("where", ["--selfhost", "--cluster"])
def test_nan_flush_deadline_refused(where):
    with pytest.raises(SystemExit, match="max_latency_s must be >= 0"):
        main(["blast", where, "--max-latency-ms", "nan", "--clients", "1",
              "--requests", "1"])


_TRACE = {"--trace", "--metrics"}
_DEVICE = {"--adapter", "--threads"}
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
                          "--ranks", "--chunk-elems", "--faults", "--resume"},
    "faultplan": {"--seed", "--system", "--nodes", "--hours",
                  "--device-batch-rate", "--timeout-rate", "--corrupt-rate",
                  "--transport-rate", "--drop-rank", "--drop-after-chunks",
                  "--kill-after-chunks"},
    "serve": _TRACE | _DEVICE | _SERVICE | {
        "--host", "--port", "--max-bytes", "--max-pending"},
    "cluster": _TRACE | _DEVICE | _SERVICE | _SHARDS | {
        "--host", "--port", "--max-pending", "--vnodes"},
    "blast": _DEVICE | _SERVICE | _SHARDS | {
        "--host", "--port", "--selfhost", "--clients", "--requests",
        "--codec", "--rate", "--eb", "--shape", "--seed", "--verify",
        "--compress-only", "--cluster", "--kill-one",
        "--kill-after-ms"},
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


def test_campaign_takes_no_checkpoint_every_flag(field_file, tmp_path,
                                                 capsys):
    src, _ = field_file
    with pytest.raises(SystemExit) as exc:
        main(["campaign", str(src), str(tmp_path / "c"),
              "--checkpoint-every", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()
