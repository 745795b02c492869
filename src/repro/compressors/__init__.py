"""Reduction pipelines implemented on HPDR, plus evaluation baselines.

HPDR pipelines (Section IV case studies):

* :mod:`repro.compressors.mgard` — MGARD-X error-bounded lossy
  compression (multilevel decomposition + quantization + Huffman).
* :mod:`repro.compressors.zfp` — ZFP-X fixed-rate compression
  (4^d blocks, block-floating-point, near-orthogonal transform,
  bitplane truncation).
* :mod:`repro.compressors.huffman` — Huffman-X lossless compression
  (histogram, two-phase codebook, chunk-parallel encode/serialize).

Baselines (Section VI comparators):

* :mod:`repro.compressors.baselines.sz` — cuSZ-style dual-quantized
  Lorenzo predictor + Huffman.
* :mod:`repro.compressors.baselines.lz4` — NVCOMP-LZ4 stand-in
  (LZ77 byte compressor).

The codec table, :data:`CODECS`, is the one place a codec name becomes a
codec: the CLI (``--method`` and the ``.hpdr`` envelope), BP operator
tags, the service's ``CodecSpec`` and the campaign runner all call
:func:`build_codec`, and a spec's batch and route key is
:func:`codec_key`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Hashable, Mapping, NamedTuple

from repro.core.config import Config, ErrorMode
from repro.compressors.huffman import HuffmanX
from repro.compressors.zfp import ZFPX, ZFPAccuracy
from repro.compressors.mgard import MGARDX
from repro.compressors.baselines import LZ4, SZ

__all__ = ["HuffmanX", "ZFPX", "MGARDX", "Codec", "CODECS", "ALIASES",
           "build_codec", "codec_key"]


class Codec(NamedTuple):
    """``make(params, adapter, context_cache)`` builds the codec from
    ``params``: the parameters it consumes, in key order, with their
    defaults (the constructors' own).  ``lossless``: round trips are
    exact."""

    make: Callable[..., Any]
    params: Mapping[str, Any]
    lossless: bool = False


def _config(p: Mapping[str, Any]) -> Config:
    return Config(p["error_bound"], ErrorMode(p["error_mode"]))


#: codec name -> :class:`Codec`, in the order ``repro compress`` lists them.
CODECS: Mapping[str, Codec] = MappingProxyType({
    "mgard-x": Codec(
        lambda p, ad, cache: MGARDX(_config(p), ad, cache, p["dict_size"]),
        {"error_bound": 1e-4, "error_mode": "rel", "dict_size": 4096}),
    "zfp-x": Codec(lambda p, ad, cache: ZFPX(p["rate"], ad, cache),
                   {"rate": 8.0}),
    "zfp-accuracy": Codec(lambda p, ad, cache: ZFPAccuracy(p["tolerance"], ad),
                          {"tolerance": 1e-3}),
    "sz": Codec(lambda p, ad, cache: SZ(_config(p), ad),
                {"error_bound": 1e-4, "error_mode": "rel"}),
    "huffman-x": Codec(
        lambda p, ad, cache: HuffmanX(ad, p["chunk_size"], cache),
        {"chunk_size": 1024}, lossless=True),
    "lz4": Codec(lambda p, ad, cache: LZ4(ad), {}, lossless=True),
})

#: the paper's baseline BP tags -> the codec whose maths, and so
#: streams, they share.
ALIASES: Mapping[str, str] = MappingProxyType({
    "cusz": "sz", "nvcomp-lz4": "lz4", "mgard-gpu": "mgard-x",
    "zfp-cuda": "zfp-x",
})


def _params(name: str, given: Mapping[str, Any] | None) -> dict[str, Any]:
    """What codec ``name`` consumes: ``given``'s value, else the default."""
    if name not in CODECS:
        raise KeyError(f"unknown codec {name!r}; known: "
                       f"{sorted([*CODECS, *ALIASES])}")
    given = given or {}
    return {p: given.get(p, d) for p, d in CODECS[name].params.items()}


def codec_key(name: str,
              given: Mapping[str, Any] | None = None) -> tuple[Hashable, ...]:
    """``name`` and the parameters it consumes: configurations that
    differ only in a parameter the codec ignores share a key."""
    return (name, *_params(name, given).values())


def build_codec(name: str, given: Mapping[str, Any] | None = None,
                adapter: Any = None, context_cache: Any = None) -> Any:
    """Codec ``name`` (a table name or an alias) on ``adapter``, with the
    parameters ``given`` sets; codecs with CMM support share
    ``context_cache``.  An unknown name is a ``KeyError``, a bad
    parameter the constructor's ``ValueError``."""
    name = ALIASES.get(name, name)
    return CODECS[name].make(_params(name, given), adapter, context_cache)
