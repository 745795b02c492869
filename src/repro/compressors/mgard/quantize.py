"""Per-level linear quantization (Algorithm 1, line 14).

Each decomposition level's coefficients — plus the coarsest
approximation, treated as one more group — get their own quantization
bin, sized so the per-group reconstruction errors compose into the
user's bound:

    δ_l = 2 · eb / (κ · (L + 1))

``κ`` absorbs the multilevel error amplification of recomposition
(interpolation and correction propagate per-level errors with a bounded
factor); the default is conservative and the compressor can verify and
tighten bins when asked.

Quantized integers map to Huffman symbols by zigzag with an escape
symbol (0): values outside the dictionary are emitted verbatim in an
outlier side channel, so the bound holds for arbitrarily wild data.

The per-level dispatch runs under the Map&Process abstraction, matching
the paper's mapping of quantization onto DEM.
"""

from __future__ import annotations

import numpy as np

from repro.core.abstractions import map_and_process

#: Default multilevel error-amplification allowance.  The per-group
#: budget eb/(L+1) already covers additive accumulation across levels;
#: empirical worst-case amplification over random/smooth inputs stays
#: below 0.6 at κ=1 (see tests/compressors/test_mgard_bounds.py), so
#: κ=1 keeps a ~2× safety margin without sacrificing ratio.
DEFAULT_KAPPA = 1.0


def level_bins(
    error_bound: float,
    num_groups: int,
    kappa: float = DEFAULT_KAPPA,
    s: float = 0.0,
) -> np.ndarray:
    """Bin size per group for an absolute error bound.

    ``s`` is MGARD's smoothness parameter: it redistributes the error
    budget across levels with weights ``2^(-s·g)`` (group 0 = finest
    coefficients, the last group = coarsest approximation).  ``s > 0``
    allows larger errors on fine-scale detail while keeping coarse
    scales — and with them smooth quantities of interest — accurate;
    ``s = 0`` is the uniform L∞-style split.  The total budget
    ``Σ ε_g = eb/κ`` is preserved for every ``s``, so the overall bound
    argument is unchanged.
    """
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    if num_groups < 1:
        raise ValueError("need at least one group")
    g = np.arange(num_groups, dtype=np.float64)
    weights = np.exp2(-s * g)
    eps = (error_bound / kappa) * weights / weights.sum()
    return 2.0 * eps


#: Codes dequantized per call when :func:`dequantize_levels` works in
#: place: NumPy stages an operand that overlaps the result, so the chunk
#: bounds that copy (256 KB a lane) instead of letting it span a group.
_IN_PLACE_CHUNK = 1 << 15


def quantize_levels(
    groups: list[np.ndarray],
    bins: np.ndarray,
    adapter=None,
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Quantize each coefficient group with its own bin (Map&Process).

    Groups may carry a leading batch axis — ``(N, size)`` planes with
    ``(N, L)`` bins, one row of bins per lane: lane ``i`` is quantized
    exactly as ``quantize_levels`` would quantize it alone.  ``out``, one
    int64 array per group (views of one plane, say), receives the codes
    instead of new arrays.
    """
    if len(groups) != bins.shape[-1]:
        raise ValueError(f"{len(groups)} groups but {bins.shape[-1]} bins")

    def _q(group: np.ndarray, i: int) -> np.ndarray:
        scaled = group / bins[..., i : i + 1]
        if out is None:
            return np.round(scaled).astype(np.int64)
        np.round(scaled, out=scaled)
        np.copyto(out[i], scaled, casting="unsafe")
        return out[i]

    return map_and_process(groups, lambda g: list(g), _q, adapter=adapter)


def dequantize_levels(
    qgroups: list[np.ndarray],
    bins: np.ndarray,
    adapter=None,
    in_place: bool = False,
) -> list[np.ndarray]:
    """Invert :func:`quantize_levels` (to bin centers), with or without
    its leading batch axis.

    ``in_place`` reuses each int64 group's memory for its float64 bin
    centres (the results are views of it) — for a caller whose codes
    die here — a chunk at a time, so no group-sized plane is made.
    """
    if len(qgroups) != bins.shape[-1]:
        raise ValueError(f"{len(qgroups)} groups but {bins.shape[-1]} bins")
    # Codes already turned into centres, per group: an adapter that
    # retries a failed launch (``ResilientAdapter``) must resume there,
    # not read centres as codes.  A chunk is written whole or not at all.
    done: dict[int, int] = {}

    def _dq(group: np.ndarray, i: int) -> np.ndarray:
        if not in_place:
            return group.astype(np.float64) * bins[..., i : i + 1]
        centres = group.view(np.float64)
        for lo in range(done.get(i, 0), group.shape[-1], _IN_PLACE_CHUNK):
            hi = lo + _IN_PLACE_CHUNK
            np.multiply(group[..., lo:hi], bins[..., i : i + 1],
                        out=centres[..., lo:hi])
            done[i] = hi
        return centres

    return map_and_process(qgroups, lambda g: list(g), _dq, adapter=adapter)


# ----------------------------------------------------------------------
# Zigzag symbol mapping with escape/outlier channel
# ----------------------------------------------------------------------
def to_symbols(
    q: np.ndarray, dict_size: int
) -> tuple[np.ndarray, np.ndarray | list[np.ndarray]]:
    """Map signed quantization codes to Huffman symbols.

    Symbol 0 is the escape marker; zigzag values ``z < dict_size - 1``
    map to ``z + 1``.  Returns ``(symbols, outliers)`` where outliers
    are the escaped raw codes in stream order — for ``(N, size)`` lanes
    a list of ``N`` arrays, each lane's own.
    """
    if dict_size < 2:
        raise ValueError(f"dict_size must be >= 2, got {dict_size}")
    z = q.astype(np.int64)  # the one working copy: zigzag, then symbols
    sign = np.right_shift(z, 63, out=np.empty(z.shape, np.int8),
                          casting="unsafe")    # 0 or -1: a byte holds it
    z <<= 1
    z ^= sign               # zigzag: 0,-1,1,-2,2… → 0,1,2,3,4…
    escaped = z >= dict_size - 1
    z += 1
    if escaped.any():
        z[escaped] = 0
        outliers = q[escaped].astype(np.int64, copy=False)
    else:
        outliers = np.empty(0, dtype=np.int64)
    if q.ndim == 1:
        return z, outliers
    per_lane = [np.count_nonzero(lane) for lane in escaped]
    return z, np.split(outliers, np.cumsum(per_lane)[:-1])


def from_symbols(symbols, outliers, in_place: bool = False) -> np.ndarray:
    """Invert :func:`to_symbols`; ``N`` symbol rows with a list of ``N``
    outlier arrays come back as one ``(N, size)`` plane.

    ``in_place`` turns ``symbols``, then an int64 plane, into the codes
    (and returns it) instead of working on a copy.
    """
    # the one working copy, unless the caller's plane is
    q = symbols if in_place else np.array(symbols, dtype=np.int64)
    lanes = [outliers] if q.ndim == 1 else outliers
    n_escaped = 0
    for row, lane in zip(np.atleast_2d(q), lanes, strict=True):
        n = row.size - np.count_nonzero(row)
        if n != lane.size:
            raise ValueError(f"{n} escape markers but {lane.size} outliers")
        n_escaped += n
    escaped = q == 0 if n_escaped else None
    q -= 1
    sign = np.bitwise_and(q, 1, out=np.empty(q.shape, np.int8),
                          casting="unsafe")
    np.negative(sign, out=sign)
    q >>= 1
    q ^= sign               # zigzag inverse
    if n_escaped:
        q[escaped] = np.concatenate(lanes)
    return q
