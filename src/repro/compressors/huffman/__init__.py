"""Huffman-X: lossless entropy coder built on HPDR abstractions.

Pipeline (paper Fig. 6 / Algorithm 2):

1. histogram — Global pipeline abstraction (all threads cooperatively
   update frequency counters).
2. sort + filter nonzero frequencies.
3. two-phase treeless codebook generation (canonical, length-limited).
4. encode — Locality abstraction (each key encodes independently;
   chunk-parallel).
5. serialize — Global pipeline abstraction (prefix-sum offsets compact
   variable-length codes into one stream).

The bitstream is *portable*: any adapter decodes any adapter's output
bit-exactly.
"""

from repro.compressors.huffman.codebook import (
    Codebook,
    build_codebook,
    canonical_codes,
    huffman_code_lengths,
)
from repro.compressors.huffman.bitstream import pack_bits
from repro.compressors.huffman.compressor import HuffmanX

__all__ = [
    "Codebook",
    "build_codebook",
    "canonical_codes",
    "huffman_code_lengths",
    "pack_bits",
    "HuffmanX",
]
