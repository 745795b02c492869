#!/usr/bin/env python
"""Portability across processor architectures (paper Section II-B).

The scenario the paper motivates: a simulation compresses its output on
one system's GPUs; collaborators must reconstruct it on *different*
hardware — other GPU vendors, or plain CPUs — with a guarantee.

This example compresses an XGC-style fusion dataset with all three HPDR
pipelines on every backend and checks the streams are byte-identical,
then cross-decodes each stream on every other backend.

Run:  python examples/portability.py
"""

import itertools

import numpy as np

from repro import (
    Config,
    ErrorMode,
    HuffmanX,
    MGARDX,
    ZFPX,
    get_adapter,
    list_adapters,
    rate_for_error_bound,
)
from repro.data import xgc_like

FAMILIES = list_adapters()


def main() -> None:
    data = xgc_like((2, 16, 256, 16), seed=7)
    print(f"dataset: XGC-like e_f {data.shape}, {data.dtype}, "
          f"{data.nbytes/1e6:.1f} MB\n")

    config = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    zfp_rate = rate_for_error_bound(config.error_bound, data.dtype, data.ndim)
    pipelines = {
        "MGARD-X": lambda fam: MGARDX(config, adapter=get_adapter(fam)),
        "ZFP-X": lambda fam: ZFPX(rate=zfp_rate, adapter=get_adapter(fam)),
        "Huffman-X": lambda fam: HuffmanX(adapter=get_adapter(fam)),
    }

    for name, factory in pipelines.items():
        # Identical bitstreams from every backend.
        blobs = {fam: factory(fam).compress(data) for fam in FAMILIES}
        reference = blobs["serial"]
        identical = all(b == reference for b in blobs.values())
        print(f"{name}: {len(reference)/1e6:.2f} MB, "
              f"bit-identical across {len(FAMILIES)} backends: {identical}")
        assert identical

        # Cross-decode: compress on A, reconstruct on B.
        failures = 0
        for src, dst in itertools.permutations(FAMILIES, 2):
            restored = factory(dst).decompress(blobs[src])
            restored = np.asarray(restored).reshape(data.shape)
            if name == "Huffman-X":
                ok = np.array_equal(restored, data)
            else:
                # MGARD guarantees the bound outright; fixed-rate ZFP
                # targets it heuristically (a few-x is acceptable).
                slack = 1.01 if name == "MGARD-X" else 8.0
                bound = config.error_bound * float(np.ptp(data))
                ok = np.max(np.abs(restored - data)) <= bound * slack
            failures += 0 if ok else 1
        pairs = len(FAMILIES) * (len(FAMILIES) - 1)
        print(f"  cross-decode: {pairs - failures}/{pairs} backend pairs OK")
        assert failures == 0
    print("\nEvery stream reconstructs on every backend — data written "
          "today stays readable on tomorrow's architecture.")


if __name__ == "__main__":
    main()
