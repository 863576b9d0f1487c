"""Unit and property tests for GridIndex."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grid import GridIndex, GridSpec


class TestBuild:
    def test_partition_is_total_and_disjoint(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        seen = np.concatenate(
            [idx.points_in_cell(r) for r in range(idx.num_nonempty_cells)]
        )
        assert sorted(seen.tolist()) == list(range(idx.num_points))

    def test_cell_ids_sorted_unique(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        ids = idx.cell_ids
        assert (np.diff(ids) > 0).all()

    def test_counts_sum_to_n(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        assert idx.cell_counts.sum() == idx.num_points

    def test_point_cell_rank_consistent(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        for i in range(0, idx.num_points, 17):
            rank = idx.cell_of_point(i)
            assert i in idx.points_in_cell(rank)

    def test_single_point(self):
        idx = GridIndex(np.array([[1.0, 2.0]]), 0.5)
        assert idx.num_nonempty_cells == 1
        assert list(idx.points_in_cell(0)) == [0]

    def test_all_points_identical(self):
        pts = np.ones((50, 3))
        idx = GridIndex(pts, 0.1)
        assert idx.num_nonempty_cells == 1
        assert idx.cell_counts[0] == 50

    def test_explicit_spec_epsilon_mismatch(self, small_uniform_2d):
        spec = GridSpec.from_points(small_uniform_2d, 1.0)
        with pytest.raises(ValueError, match="disagrees"):
            GridIndex(small_uniform_2d, 2.0, spec=spec)

    def test_memory_is_linear_in_n(self):
        rng = np.random.default_rng(0)
        small = GridIndex(rng.uniform(0, 10, (500, 2)), 1.0)
        big = GridIndex(rng.uniform(0, 10, (5000, 2)), 1.0)
        # O(N + C) with C <= N: 10x points => at most ~10x index bytes + slack
        assert big.memory_bytes() <= 12 * small.memory_bytes()


class TestSortedColumns:
    def test_columns_follow_point_order(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        cols = idx.sorted_columns()
        assert len(cols) == idx.ndim
        for d, col in enumerate(cols):
            assert col.flags.c_contiguous
            np.testing.assert_array_equal(col, idx.points[idx.point_order, d])
        # a cell's points are one contiguous run of every column
        rank = int(np.argmax(idx.cell_counts))
        s, c = idx.cell_starts[rank], idx.cell_counts[rank]
        np.testing.assert_array_equal(
            np.stack([col[s : s + c] for col in cols], axis=1),
            idx.points[idx.points_in_cell(rank)],
        )

    def test_built_lazily_once_and_counted(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        before = idx.memory_bytes()
        cols = idx.sorted_columns()
        assert idx.sorted_columns() is cols
        assert idx.memory_bytes() == before + idx.points.nbytes


class TestLookup:
    def test_lookup_hits_and_misses(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        ranks = idx.lookup(idx.cell_ids)
        np.testing.assert_array_equal(ranks, np.arange(idx.num_nonempty_cells))
        # an id guaranteed absent
        assert idx.lookup(np.array([idx.cell_ids.max() + 1]))[0] == -1
        assert idx.lookup(np.array([-5]))[0] == -1

    def test_lookup_empty_index(self):
        idx = GridIndex(np.empty((0, 2)), 1.0)
        assert idx.lookup(np.array([0, 1]))[0] == -1
        assert idx.num_nonempty_cells == 0

    def test_points_in_cell_bad_rank(self, small_uniform_2d):
        idx = GridIndex(small_uniform_2d, 1.0)
        with pytest.raises(IndexError):
            idx.points_in_cell(idx.num_nonempty_cells)

    @given(seed=st.integers(0, 2**32 - 1), ndim=st.integers(1, 3))
    def test_lookup_matches_membership(self, seed, ndim):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 5, size=(80, ndim))
        idx = GridIndex(pts, 0.8)
        coords = idx.spec.cell_coords(pts)
        ids = idx.spec.linearize(coords)
        ranks = idx.lookup(ids)
        assert (ranks >= 0).all()
        np.testing.assert_array_equal(idx.cell_ids[ranks], ids)
