"""Reference kernels: the bodies the fast kernels replaced (tests only).

Each function here is the slow, obviously-right formulation the source
tree used before the key coder and the multilevel operators were
rewritten around fewer array passes.  ``test_kernel_oracles.py`` asserts
the fast kernels equal them bit for bit; nothing in ``src/`` imports
this module.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Huffman: code lengths and bit packing
# ---------------------------------------------------------------------------
def reference_tree_depths(freqs: np.ndarray) -> np.ndarray:
    """Unlimited Huffman code lengths by the two-queue merge, popping
    one node at a time (a tie between the queues takes the leaf).

    Needs at least two used symbols; the result is what
    ``huffman_code_lengths`` hands to its length limiter.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    nonzero = np.flatnonzero(freqs)
    order = nonzero[np.argsort(freqs[nonzero], kind="stable")]
    n = order.size
    leaf_w = freqs[order]
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    internal_w: list[int] = []
    li = 0  # next leaf
    ii = 0  # next unconsumed internal node
    next_id = n

    def _pop_min() -> int:
        nonlocal li, ii
        take_leaf = li < n and (
            ii >= len(internal_w) or int(leaf_w[li]) <= internal_w[ii]
        )
        if take_leaf:
            node = li
            li += 1
            return node
        node = n + ii
        ii += 1
        return node

    def _weight_of(node: int) -> int:
        return int(leaf_w[node]) if node < n else internal_w[node - n]

    while (n - li) + (len(internal_w) - ii) > 1:
        a = _pop_min()
        b = _pop_min()
        parent[a] = next_id
        parent[b] = next_id
        internal_w.append(_weight_of(a) + _weight_of(b))
        next_id += 1

    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.zeros(freqs.size, dtype=np.int64)
    lengths[order] = depth[:n]
    return lengths


def reference_limit_lengths(lengths: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp to ``max_len`` and repair the Kraft sum one step at a time:
    each round lengthens the longest code still under ``max_len`` (the
    lowest symbol among equals) by one bit."""
    lengths = lengths.astype(np.int64)
    used = lengths > 0
    over = lengths > max_len
    if not over.any():
        return lengths.astype(np.uint8)
    lengths[over] = max_len
    kraft = int(np.sum(2 ** (max_len - lengths[used])))
    budget = 1 << max_len
    while kraft > budget:
        candidates = np.flatnonzero(used & (lengths < max_len))
        pick = candidates[np.argmax(lengths[candidates])]
        kraft -= 2 ** (max_len - lengths[pick] - 1)
        lengths[pick] += 1
    return lengths.astype(np.uint8)


def reference_pack_bits(codes, lengths) -> np.ndarray:
    """Contiguous MSB-first stream of ``codes``, one bit at a time."""
    bits = []
    for code, length in zip(map(int, codes), map(int, lengths)):
        bits.extend((code >> (length - 1 - j)) & 1 for j in range(length))
    return np.packbits(np.array(bits, dtype=np.uint8))


# ---------------------------------------------------------------------------
# MGARD: 1-D operators through explicit index arrays
# ---------------------------------------------------------------------------
def _neighbours(level):
    """Per fine-only node: neighbour indices on the fine grid and their
    positions on the coarse grid, looked up rather than assumed."""
    left_idx = level.fine_idx - 1
    right_idx = level.fine_idx + 1
    coarse_pos_of = np.full(level.n, -1, dtype=np.int64)
    coarse_pos_of[level.coarse_idx] = np.arange(level.coarse_idx.size)
    assert (coarse_pos_of[left_idx] >= 0).all()
    assert (coarse_pos_of[right_idx] >= 0).all()
    return left_idx, right_idx, coarse_pos_of[left_idx], coarse_pos_of[right_idx]


def _bshape(w: np.ndarray, ndim: int) -> np.ndarray:
    return w.reshape((-1,) + (1,) * (ndim - 1))


def reference_lerp_fill(u: np.ndarray, level, axis: int) -> None:
    v = np.moveaxis(u, axis, 0)
    left_idx, right_idx, _, _ = _neighbours(level)
    wl = _bshape(level.wl, v.ndim)
    wr = _bshape(level.wr, v.ndim)
    v[level.fine_idx] = wl * v[left_idx] + wr * v[right_idx]


def reference_mass_apply(u: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(u, axis, 0)
    hL = _bshape(np.diff(level.coords), v.ndim)
    y = np.empty_like(v)
    y[1:-1] = (
        hL[:-1] * (v[:-2] + 2.0 * v[1:-1]) + hL[1:] * (2.0 * v[1:-1] + v[2:])
    ) / 6.0
    y[0] = hL[0] * (2.0 * v[0] + v[1]) / 6.0
    y[-1] = hL[-1] * (v[-2] + 2.0 * v[-1]) / 6.0
    return np.moveaxis(y, 0, axis)


def reference_restrict(y: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(y, axis, 0)
    _, _, left_pos, right_pos = _neighbours(level)
    b = v[level.coarse_idx].copy()
    yf = v[level.fine_idx]
    np.add.at(b, left_pos, _bshape(level.wl, v.ndim) * yf)
    np.add.at(b, right_pos, _bshape(level.wr, v.ndim) * yf)
    return np.moveaxis(b, 0, axis)


def reference_prolong(b: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(b, axis, 0)
    left_idx, right_idx, _, _ = _neighbours(level)
    out = np.zeros((level.n,) + v.shape[1:], dtype=b.dtype)
    out[level.coarse_idx] = v
    out[level.fine_idx] = (
        _bshape(level.wl, v.ndim) * out[left_idx]
        + _bshape(level.wr, v.ndim) * out[right_idx]
    )
    return np.moveaxis(out, 0, axis)
