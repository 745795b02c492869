"""The codec table: every front door builds a codec from one name.

For the same parameters, the CLI envelope's payload, a BP record written
by tag and a served ``CodecSpec``'s codec are one stream, and each one
decodes through the others.
"""

import numpy as np
import pytest

from repro.cli import _envelope, _open_envelope, build_parser, main
from repro.compressors import ALIASES, CODECS, build_codec, codec_key
from repro.io.bp import BPFile
from repro.serve import SERVABLE_CODECS, CodecSpec

#: the CLI flag of each table parameter; ``dict_size`` and
#: ``chunk_size`` have none, so the CLI builds them at their defaults.
_FLAGS = {"error_bound": "--eb", "error_mode": "--mode", "rate": "--rate",
          "tolerance": "--tolerance"}


@pytest.fixture(scope="module")
def field():
    """Quarter-steps: lossless codecs find repeats, lossy ones a range."""
    rng = np.random.default_rng(5)
    return (np.round(rng.normal(size=(17, 12)) * 4) / 4).astype(np.float32)


def _cli_payload(name, data, tmp_path) -> bytes:
    """``repro compress`` at the table's defaults, spelled as flags."""
    src, out = tmp_path / "in.npy", tmp_path / "out.hpdr"
    np.save(src, data)
    flags = [str(x) for p, v in CODECS[name].params.items() if p in _FLAGS
             for x in (_FLAGS[p], v)]
    assert main(["compress", str(src), str(out), "--method", name,
                 *flags]) == 0
    method, payload = _open_envelope(out.read_bytes())
    assert method == name
    return bytes(payload)


def _cli_decode(name, blob, tmp_path) -> np.ndarray:
    hpdr, back = tmp_path / "x.hpdr", tmp_path / "back.npy"
    hpdr.write_bytes(_envelope(name, blob))
    assert main(["decompress", str(hpdr), str(back)]) == 0
    return np.load(back)


def _bp_decode(name, blob, data) -> np.ndarray:
    bp = BPFile()
    bp.put_reduced("v", blob, data.shape, data.dtype, name)
    return BPFile.frombytes(bp.tobytes()).get("v")


@pytest.mark.parametrize("name", list(CODECS))
def test_every_front_door_writes_and_reads_the_same_stream(name, field,
                                                           tmp_path):
    bp = BPFile()
    bp.put("v", field, operator=name)
    streams = {"cli": _cli_payload(name, field, tmp_path),
               "bp": bp.variables["v"].payload}
    decoders = {"cli": lambda b: _cli_decode(name, b, tmp_path),
                "bp": lambda b: _bp_decode(name, b, field)}
    if name in SERVABLE_CODECS:
        codec = CodecSpec(name, **CODECS[name].params).build()
        streams["spec"] = codec.compress(field)
        decoders["spec"] = codec.decompress
    assert len(set(streams.values())) == 1, {k: len(v) for k, v in streams.items()}
    want = build_codec(name).decompress(streams["cli"])
    for path, blob in streams.items():
        for reader, decode in decoders.items():
            got = np.asarray(decode(blob))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                f"{path} stream read through {reader}"
    if CODECS[name].lossless:
        assert want.tobytes() == field.tobytes()


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_alias_decodes_its_twins_stream(alias, field):
    twin = ALIASES[alias]
    bp = BPFile()
    bp.put("twin", field, operator=twin)
    bp.put("alias", field, operator=alias)
    assert bp.variables["alias"].payload == bp.variables["twin"].payload
    back = BPFile.frombytes(bp.tobytes())
    assert back.get("alias").tobytes() == back.get("twin").tobytes()
    assert (_bp_decode(alias, bp.variables["twin"].payload, field).tobytes()
            == back.get("twin").tobytes())


def test_servable_codecs_are_those_whose_parameters_are_spec_fields():
    assert set(SERVABLE_CODECS) == {"mgard-x", "zfp-x", "sz", "huffman-x", "lz4"}
    with pytest.raises(ValueError, match="zfp-accuracy"):
        CodecSpec("zfp-accuracy")


def test_key_holds_only_consumed_parameters():
    assert codec_key("zfp-x", {"rate": 4.0, "error_bound": 0.5}) == ("zfp-x", 4.0)
    assert codec_key("lz4", {"rate": 4.0}) == ("lz4",)
    assert codec_key("mgard-x") == ("mgard-x", 1e-4, "rel", 4096)
    assert CodecSpec("sz", error_bound=1e-2, rate=3.0).key() == ("sz", 1e-2, "rel")


def test_unknown_name_is_a_key_error():
    with pytest.raises(KeyError, match="blosc"):
        build_codec("blosc")
    with pytest.raises(KeyError, match="blosc"):
        codec_key("blosc")


def test_cli_choices_come_from_the_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    choices = {
        (command, action.dest): action.choices
        for command, parser in sub.choices.items()
        for action in parser._actions if action.dest in ("method", "codec")
    }
    assert choices == {("compress", "method"): list(CODECS),
                       ("campaign", "method"): list(CODECS),
                       ("blast", "codec"): [*CODECS, "mixed"]}
