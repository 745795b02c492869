"""Hash-ring invariants: determinism, balance, minimal disruption.

The minimal-disruption property is the one the cluster's failover
correctness leans on: when a shard is removed (adoption), only the keys
it owned may move.  Hypothesis drives it at 2/4/8 shards over arbitrary
key sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_VNODES, HashRing, mixed_specs, route_key

_KEYS = st.lists(
    st.one_of(st.text(max_size=12), st.integers(-1000, 1000),
              st.tuples(st.text(max_size=6), st.integers(0, 50))),
    min_size=1, max_size=40, unique=True,
)


def _ring(n: int) -> HashRing:
    return HashRing([f"s{i}" for i in range(n)])


def test_lookup_is_deterministic_across_instances():
    keys = [("zfp-x", 8.0, "<f4", (2, 1024)), "plain", 42]
    a, b = _ring(4), _ring(4)
    assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]


def test_add_remove_idempotent_and_contains():
    ring = _ring(2)
    assert "s0" in ring and len(ring) == 2
    ring.add("s0")  # idempotent
    assert len(ring) == 2
    ring.remove("nope")  # unknown: no-op
    ring.remove("s0")
    assert "s0" not in ring and len(ring) == 1
    assert ring.lookup("anything") == "s1"


def test_empty_ring_raises_lookup_error():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.lookup("k")


def test_vnodes_validation():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


def test_virtual_nodes_spread_load():
    """With vnodes, every shard owns a non-trivial share of many keys."""
    ring = _ring(4)
    share = ring.share([f"key-{i}" for i in range(4000)])
    assert sum(share.values()) == 4000
    for node, count in share.items():
        # Perfect balance is 1000; SHA-256 vnode placement keeps every
        # share within a loose band (the test pins "no starved shard").
        assert count > 400, f"{node} owns only {count}/4000 keys"


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), keys=_KEYS,
       victim=st.integers(0, 7))
def test_minimal_disruption_on_removal(n, keys, victim):
    """Removing one shard moves ONLY the keys that shard owned."""
    ring = _ring(n)
    before = {k: ring.lookup(k) for k in keys}
    dead = f"s{victim % n}"
    ring.remove(dead)
    for k in keys:
        after = ring.lookup(k)
        if before[k] == dead:
            assert after != dead, f"{k!r} still maps to the removed shard"
        else:
            assert after == before[k], (
                f"{k!r} moved from {before[k]} to {after} although "
                f"{dead} never owned it"
            )


def test_route_key_separates_mixed_roster():
    """Every mixed-workload spec routes independently (distinct keys)."""
    arr = np.zeros((16, 16), dtype=np.float32)
    keys = {route_key(s, "compress", arr) for s in mixed_specs()}
    assert len(keys) == len(mixed_specs())


def test_mixed_roster_keys_are_pinned():
    """The ring hashes these tuples, so a changed value or type moves a
    spec's traffic to another shard."""
    want = [
        ("zfp-x", 8.0), ("huffman-x", 1024), ("lz4",), ("sz", 1e-3, "rel"),
        ("zfp-x", 16.0), ("huffman-x", 4096), ("sz", 1e-2, "rel"),
        ("zfp-x", 4.0), ("mgard-x", 1e-3, "rel", 4096), ("huffman-x", 512),
        ("sz", 1e-4, "rel"), ("zfp-x", 32.0), ("mgard-x", 1e-2, "rel", 4096),
        ("huffman-x", 2048), ("mgard-x", 1e-4, "rel", 4096), ("zfp-x", 2.0),
    ]
    assert [repr(s.key()) for s in mixed_specs()] == [repr(k) for k in want]


def test_route_key_compress_vs_decompress_differ():
    spec = mixed_specs(1)[0]
    arr = np.zeros((16, 16), dtype=np.float32)
    assert route_key(spec, "compress", arr) != route_key(spec, "decompress",
                                                         b"x" * 100)


def test_route_key_buckets_by_shape_class():
    """Shapes in one class share a route key; different classes split."""
    spec = mixed_specs(1)[0]
    a = np.zeros((16, 16), dtype=np.float32)
    b = np.zeros((4, 64), dtype=np.float32)  # same rank, same elems
    c = np.zeros((256, 256), dtype=np.float32)
    assert route_key(spec, "compress", a) == route_key(spec, "compress", b)
    assert route_key(spec, "compress", a) != route_key(spec, "compress", c)


def test_default_vnodes_constant():
    assert DEFAULT_VNODES == 64


def test_mixed_specs_bounds():
    assert len(mixed_specs()) == 16
    assert len(mixed_specs(3)) == 3
    with pytest.raises(ValueError):
        mixed_specs(0)
    with pytest.raises(ValueError):
        mixed_specs(17)
