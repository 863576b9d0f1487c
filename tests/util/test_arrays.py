"""Unit tests for repro.util.arrays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    as_points_array,
    ceil_div,
    check_epsilon,
    pairs_to_set,
    squared_distances,
    stable_argsort_desc,
)


class TestAsPointsArray:
    def test_list_input_becomes_float64(self):
        arr = as_points_array([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.shape == (2, 2)
        assert arr.flags.c_contiguous

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_points_array([1.0, 2.0, 3.0])

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="dimension"):
            as_points_array(np.empty((5, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_points_array([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_points_array([[np.inf, 0.0]])

    def test_empty_list_is_zero_points(self):
        arr = as_points_array([])
        assert arr.shape[0] == 0

    def test_no_copy_when_canonical(self):
        src = np.zeros((3, 2), dtype=np.float64, order="C")
        out = as_points_array(src)
        assert out is src or np.shares_memory(out, src)

    def test_copy_flag_forces_copy(self):
        src = np.zeros((3, 2), dtype=np.float64, order="C")
        out = as_points_array(src, copy=True)
        assert not np.shares_memory(out, src)


class TestCheckEpsilon:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            check_epsilon(bad)

    def test_accepts_positive(self):
        assert check_epsilon(0.5) == 0.5

    def test_coerces_to_float(self):
        assert isinstance(check_epsilon(1), float)


class TestCeilDiv:
    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_math(self, a, b):
        assert ceil_div(a, b) == -(-a // b) == (a + b - 1) // b

    def test_array_input(self):
        a = np.array([0, 1, 7, 8, 9])
        np.testing.assert_array_equal(ceil_div(a, 4), [0, 1, 2, 2, 3])


class TestStableArgsortDesc:
    def test_descending(self):
        v = np.array([3, 1, 4, 1, 5])
        out = v[stable_argsort_desc(v)]
        assert list(out) == sorted(v, reverse=True)

    def test_ties_keep_original_order(self):
        v = np.array([2, 5, 2, 5, 2])
        order = stable_argsort_desc(v)
        # the two 5s must appear in index order 1, 3; the 2s in order 0, 2, 4
        assert list(order) == [1, 3, 0, 2, 4]

    @given(st.lists(st.integers(-1000, 1000), max_size=100))
    def test_property_sorted_desc(self, xs):
        v = np.array(xs, dtype=np.int64)
        out = v[stable_argsort_desc(v)] if len(xs) else v
        assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))

    def test_float_values(self):
        v = np.array([0.5, 2.5, 1.5])
        assert list(stable_argsort_desc(v)) == [1, 2, 0]


class TestPairsToSet:
    def test_roundtrip(self):
        pairs = np.array([[0, 1], [1, 0], [2, 2]])
        assert pairs_to_set(pairs) == {(0, 1), (1, 0), (2, 2)}

    def test_empty(self):
        assert pairs_to_set(np.empty((0, 2), dtype=np.int64)) == set()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairs_to_set(np.zeros((3, 3)))


class TestSquaredDistances:
    @staticmethod
    def _rows(seed, n, ncols):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 1e3], size=(n, ncols))
        return rng.normal(size=(n, ncols)) * scale

    @pytest.mark.parametrize("ncols", range(1, 8))
    def test_bit_equal_to_row_sum_below_eight_columns(self, ncols):
        a = self._rows(ncols, 4000, ncols)
        b = self._rows(100 + ncols, 4000, ncols)
        ids = np.arange(len(a))
        got = squared_distances(a.T, b.T, ids, ids)
        assert got.tobytes() == ((a - b) ** 2).sum(axis=1).tobytes()

    @pytest.mark.parametrize("ncols", [8, 11])
    def test_accumulates_dimensions_in_index_order(self, ncols):
        # from 8 columns on a row-wise sum splits pairwise; the helper's
        # definition stays the sequential one
        a = self._rows(ncols, 2000, ncols)
        b = self._rows(7 * ncols, 2000, ncols)
        expected = (a[:, 0] - b[:, 0]) ** 2
        for d in range(1, ncols):
            expected = expected + (a[:, d] - b[:, d]) ** 2
        ids = np.arange(len(a))
        assert squared_distances(a.T, b.T, ids, ids).tobytes() == expected.tobytes()

    def test_gathered_columns_and_scalar_query(self):
        pts = self._rows(3, 300, 4)
        rng = np.random.default_rng(0)
        left, right = rng.integers(0, 300, 500), rng.integers(0, 300, 500)
        pair_rows = ((pts[left] - pts[right]) ** 2).sum(axis=1)
        assert squared_distances(pts.T, pts.T, left, right).tobytes() == pair_rows.tobytes()
        one_query = ((pts[left] - pts[7]) ** 2).sum(axis=1)
        assert squared_distances(pts.T, pts[7], left).tobytes() == one_query.tobytes()

    def test_leaves_inputs_untouched(self):
        a = self._rows(1, 50, 3)
        b = self._rows(2, 50, 3)
        a0, b0 = a.copy(), b.copy()
        squared_distances(a.T, b.T, np.arange(50), np.arange(50))
        squared_distances(list(a.T), b[0], np.arange(50))
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
