"""MGARD grid hierarchy construction."""

import numpy as np
import pytest

from repro.compressors.mgard.hierarchy import DimHierarchy, Hierarchy


class TestDimHierarchy:
    def test_dyadic_sizes(self):
        d = DimHierarchy(17)  # 17 → 9 → 5 → 3 → 2
        assert [d.size_at(l) for l in range(5)] == [17, 9, 5, 3, 2]
        assert d.num_levels == 4

    def test_even_sizes_keep_endpoint(self):
        d = DimHierarchy(16)  # 16 → 9 → 5 → 3 → 2
        lvl = d.level(0)
        assert lvl.coarse_idx[-1] == 15
        assert 15 not in lvl.fine_idx
        assert d.size_at(1) == 9

    def test_small_dims_do_not_decompose(self):
        for n in (1, 2):
            d = DimHierarchy(n)
            assert d.num_levels == 0
            assert d.size_at(0) == n
            assert d.size_at(5) == n

    def test_fine_nodes_have_interior_neighbors(self):
        """The slices the 1-D operators index with: fine-only nodes at
        ``1:2*nf:2``, coarse nodes at the evens plus the last node."""
        for n in (3, 4, 9, 10, 33, 100):
            lvl = DimHierarchy(n).level(0)
            assert lvl.nf == (n - 1) // 2
            assert np.array_equal(lvl.fine_idx, np.arange(n)[1 : 2 * lvl.nf : 2])
            evens = np.arange(0, n, 2)
            assert np.array_equal(lvl.coarse_idx[: evens.size], evens)
            assert lvl.n_coarse == lvl.coarse_idx.size == n - lvl.nf
            # Both neighbours of every fine-only node are coarse, at
            # coarse positions 0:nf (left) and 1:nf+1 (right).
            assert np.array_equal(lvl.coarse_idx[0 : lvl.nf], lvl.fine_idx - 1)
            assert np.array_equal(lvl.coarse_idx[1 : lvl.nf + 1], lvl.fine_idx + 1)

    def test_appended_last_node_has_no_fine_neighbour(self):
        for n in (4, 10, 100):
            lvl = DimHierarchy(n).level(0)
            assert lvl.coarse_idx[-1] == n - 1 and lvl.coarse_idx[-2] == n - 2
            assert lvl.fine_idx[-1] == n - 3
            assert lvl.n_coarse == lvl.nf + 2       # one past right's 1:nf+1

    def test_spacing_is_stored_per_level(self):
        coords = np.array([0.0, 0.1, 0.5, 0.6, 2.0, 2.5])
        d = DimHierarchy(6, coords)
        for lvl in d.levels:
            assert np.array_equal(lvl.h, np.diff(lvl.coords))

    def test_lerp_weights_sum_to_one(self):
        lvl = DimHierarchy(21).level(0)
        assert np.allclose(lvl.wl + lvl.wr, 1.0)
        assert np.all(lvl.wl > 0) and np.all(lvl.wr > 0)

    def test_uniform_grid_weights_are_half(self):
        lvl = DimHierarchy(9).level(0)
        assert np.allclose(lvl.wl, 0.5)

    def test_custom_coords(self):
        coords = np.array([0.0, 0.1, 0.5, 0.6, 2.0])
        d = DimHierarchy(5, coords)
        lvl = d.level(0)
        # Fine node 1 at 0.1 between 0.0 and 0.5: wr = 0.2.
        i = list(lvl.fine_idx).index(1)
        assert lvl.wr[i] == pytest.approx(0.2)

    def test_non_monotonic_coords_rejected(self):
        with pytest.raises(ValueError):
            DimHierarchy(3, np.array([0.0, 2.0, 1.0]))

    def test_coords_length_mismatch(self):
        with pytest.raises(ValueError):
            DimHierarchy(4, np.zeros(3))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DimHierarchy(0)


class TestHierarchy:
    def test_total_levels_is_max_over_dims(self):
        h = Hierarchy((33, 5, 2))
        assert h.total_levels == DimHierarchy(33).num_levels

    def test_shape_at_levels(self):
        h = Hierarchy((9, 5))
        assert h.shape_at(0) == (9, 5)
        assert h.shape_at(1) == (5, 3)
        assert h.shape_at(2) == (3, 2)

    def test_active_dims_drop_out(self):
        h = Hierarchy((17, 5))
        assert h.active_dims(0) == [0, 1]
        assert h.active_dims(2) == [0]  # dim1 exhausted at 2 levels

    def test_coefficient_counts_partition_data(self):
        for shape in [(12,), (9, 7), (6, 5, 4)]:
            h = Hierarchy(shape)
            total = sum(h.num_coefficients(l) for l in range(h.total_levels))
            total += int(np.prod(h.shape_at(h.total_levels)))
            assert total == int(np.prod(shape))

    def test_too_many_dims(self):
        with pytest.raises(ValueError):
            Hierarchy((2, 2, 2, 2, 2))
