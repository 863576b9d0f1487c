"""Answer checking: order-independent pair-set digests and the oracles.

A pair set is summarised as ``(count, digest)``: the digest is the
wrapping 64-bit sum of a splitmix64 hash of every directed pair
``(i, j)``, so two pair sets agree on it exactly when they hold the
same pairs (up to hash collisions), whatever order the engine emitted
them in. Digests are plain integers, so they cross process boundaries
as JSON.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 20
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(keys: np.ndarray) -> np.ndarray:
    z = keys + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _hash_sum(left: np.ndarray, right: np.ndarray) -> int:
    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for a in range(0, len(left), _CHUNK):
            i = left[a : a + _CHUNK].astype(np.uint64)
            j = right[a : a + _CHUNK].astype(np.uint64)
            total += _mix((i << np.uint64(32)) | j).sum(dtype=np.uint64)
    return int(total)


def pair_digest(pairs) -> dict:
    """``{"count", "digest"}`` of an ``(M, 2)`` array of directed pairs."""
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return {"count": 0, "digest": 0}
    return {"count": int(len(pairs)), "digest": _hash_sum(pairs[:, 0], pairs[:, 1])}


def self_join_oracle(points, epsilon: float) -> dict:
    """Digest of the ε self-join (self pairs included) from the cKDTree oracle."""
    from repro.baselines.ckdtree import kdtree_pairs

    return pair_digest(kdtree_pairs(points, epsilon, include_self=True))


def tamper(pairs: np.ndarray) -> np.ndarray:
    """A copy of ``pairs`` with one pair changed — for the checker self-test."""
    bad = np.array(pairs, copy=True)
    bad[0, 1] += 1
    return bad
