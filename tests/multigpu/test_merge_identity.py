"""Byte identity of the key-sort merge and the scalar LPT loop.

``merge_pairs`` sorts one int64 key per row and ``_lpt_partition`` loops
over Python scalars; both must reproduce, byte for byte, the two-key
``lexsort`` / ``np.unique(axis=0)`` merge and the NumPy-scalar heap loop
they replaced — the merged pairs and the shard membership of every
pooled run depend on it.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.multigpu import merge_pairs
from repro.multigpu.sharding import _lpt_partition
from repro.util import stable_argsort_desc


def _reference_merge(pairs_list, *, dedup=False):
    blocks = [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in pairs_list if len(p)]
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(blocks, axis=0)
    if dedup:
        return np.unique(pairs, axis=0)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _reference_lpt(ids, weights, num_shards):
    order = ids[stable_argsort_desc(weights[ids])]
    heap = [(0.0, s) for s in range(num_shards)]
    heapq.heapify(heap)
    members = [[] for _ in range(num_shards)]
    for q in order:
        load, s = heapq.heappop(heap)
        members[s].append(int(q))
        heapq.heappush(heap, (load + float(weights[q]), s))
    return members


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _self_pairs(rng, n=400, m=3000):
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    return np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])


@pytest.fixture
def lexsort_calls(monkeypatch):
    """Count ``np.lexsort`` calls — the overflow fallback's sort."""
    calls = []
    real = np.lexsort

    def spy(keys, *args, **kwargs):
        calls.append(len(keys))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


class TestMergePairsIdentity:
    def test_shuffled_self_pairs(self, lexsort_calls):
        rng = np.random.default_rng(0)
        pairs = _self_pairs(rng)
        rng.shuffle(pairs)
        blocks = np.array_split(pairs, 5)
        _assert_same_bytes(merge_pairs(blocks), _reference_merge(blocks))
        assert len(lexsort_calls) == 1  # the reference's only

    def test_bipartite_unequal_column_ranges(self):
        rng = np.random.default_rng(1)
        blocks = [
            np.stack([rng.integers(0, 50, 700), rng.integers(0, 90_000, 700)], 1),
            np.stack([rng.integers(40, 7_000, 300), rng.integers(0, 11, 300)], 1),
        ]
        _assert_same_bytes(merge_pairs(blocks), _reference_merge(blocks))
        _assert_same_bytes(
            merge_pairs(blocks, dedup=True), _reference_merge(blocks, dedup=True)
        )

    def test_duplicates_dedup(self):
        rng = np.random.default_rng(2)
        base = np.stack([rng.integers(0, 30, 500), rng.integers(0, 30, 500)], 1)
        blocks = [base, base[::-1], base[:77]]
        got = merge_pairs(blocks, dedup=True)
        _assert_same_bytes(got, _reference_merge(blocks, dedup=True))
        assert len(np.unique(got, axis=0)) == len(got)
        _assert_same_bytes(merge_pairs(blocks), _reference_merge(blocks))

    @pytest.mark.parametrize("dedup", [False, True])
    def test_empty_input(self, dedup):
        for blocks in ([], [np.empty((0, 2), dtype=np.int64)], [np.empty(0)]):
            _assert_same_bytes(
                merge_pairs(blocks, dedup=dedup), _reference_merge(blocks, dedup=dedup)
            )

    @pytest.mark.parametrize("dedup", [False, True])
    def test_single_row_and_int32_blocks(self, dedup):
        blocks = [np.array([[7, 3]], dtype=np.int32), np.array([[1, 9]], dtype=np.int32)]
        _assert_same_bytes(
            merge_pairs(blocks, dedup=dedup), _reference_merge(blocks, dedup=dedup)
        )

    @pytest.mark.parametrize("dedup", [False, True])
    def test_ids_near_2_pow_40_take_lexsort_fallback(self, lexsort_calls, dedup):
        rng = np.random.default_rng(3)
        big = 2**40 + rng.integers(0, 1000, (600, 2))
        blocks = [big, big[:50], np.array([[0, 2**40 + 5], [2**40, 0]])]
        got = merge_pairs(blocks, dedup=dedup)
        if not dedup:
            # the key a*m+b would overflow int64: merge_pairs must lexsort
            assert lexsort_calls == [2]
        _assert_same_bytes(got, _reference_merge(blocks, dedup=dedup))

    def test_key_path_used_below_overflow(self, lexsort_calls):
        # (max col-0 + 1) * (max col-1 + 1) == 2**63 exactly: still a key
        blocks = [np.array([[2**31 - 1, 2**32 - 1], [0, 0], [5, 2**32 - 1]])]
        got = merge_pairs(blocks)
        assert lexsort_calls == []
        _assert_same_bytes(got, _reference_merge(blocks))


class TestLptIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7])
    def test_skewed_weights_with_ties(self, num_shards):
        rng = np.random.default_rng(num_shards)
        # exponential skew, quantized so many weights (and bin loads) tie
        weights = np.floor(rng.exponential(5.0, 3000)).astype(np.float64)
        weights[::17] = 0.0
        ids = np.arange(len(weights), dtype=np.int64)
        assert _lpt_partition(ids, weights, num_shards) == _reference_lpt(
            ids, weights, num_shards
        )

    def test_cell_tied_weights(self):
        # every point of a cell shares its cell's workload, as in plan_shards
        rng = np.random.default_rng(9)
        cell_wl = rng.integers(1, 40, 60).astype(np.float64)
        weights = cell_wl[rng.integers(0, 60, 2500)]
        ids = np.arange(len(weights), dtype=np.int64)
        assert _lpt_partition(ids, weights, 4) == _reference_lpt(ids, weights, 4)
