"""Array validation and small vectorized helpers used across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points_array",
    "ceil_div",
    "check_epsilon",
    "gather_slices",
    "pairs_to_set",
    "squared_distances",
    "stable_argsort_desc",
]


def as_points_array(points, *, copy: bool = False) -> np.ndarray:
    """Validate and normalize a dataset to a C-contiguous float64 ``(N, n)`` array.

    Parameters
    ----------
    points:
        Anything convertible to a 2-D float array; rows are points, columns
        are dimensions.
    copy:
        Force a copy even when the input is already in canonical form.

    Raises
    ------
    ValueError
        If the input is not 2-D, is empty along the dimension axis, or
        contains non-finite coordinates.
    """
    arr = np.asarray(points, dtype=np.float64, order="C")
    if copy and arr is points:
        arr = arr.copy()
    if arr.ndim == 1 and arr.size == 0:
        # Allow an empty dataset spelled as [] — treat as 0 points in 1-D.
        arr = arr.reshape(0, 1)
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("points must have at least one dimension")
    if arr.size:
        finite = np.isfinite(arr)
        if not finite.all():
            bad_rows = np.flatnonzero(~finite.all(axis=1))
            raise ValueError(
                "points must contain only finite coordinates; "
                f"{len(bad_rows)} of {len(arr)} rows have NaN/inf "
                f"(first offending row: {int(bad_rows[0])})"
            )
    return np.ascontiguousarray(arr)


def check_epsilon(epsilon: float) -> float:
    """Validate a distance threshold: finite and strictly positive."""
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon!r}")
    return eps


def ceil_div(a, b):
    """Ceiling integer division, elementwise for arrays.

    ``b`` must be positive. Works on Python ints and NumPy integer arrays.
    """
    return -(-a // b)


def stable_argsort_desc(values: np.ndarray) -> np.ndarray:
    """Stable descending argsort.

    NumPy has no stable descending kind, so we stably sort the negated key.
    For integer inputs the negation is exact; for floats, ties keep their
    original relative order (the property the work-queue relies on for
    reproducibility).
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        key = -values.astype(np.int64, copy=False)
    else:
        key = -values
    return np.argsort(key, kind="stable")


def pairs_to_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    """Convert an ``(M, 2)`` index-pair array to a Python set of tuples.

    Intended for tests and validation only (it is O(M) Python objects).
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return set()
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (M, 2), got {pairs.shape}")
    return set(map(tuple, pairs.tolist()))


def gather_slices(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i]+lengths[i]]`` without a
    Python loop.

    The workhorse of the vectorized grid traversals: variable-length slice
    gathering via one repeat and one arange.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ends = np.cumsum(lengths)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    return source[np.repeat(starts, lengths) + offsets]


def squared_distances(left, right, left_idx, right_idx=None) -> np.ndarray:
    """Squared Euclidean distances, accumulated one dimension at a time.

    ``left`` and ``right`` iterate the per-dimension coordinates of the
    two sides. Each left column is gathered at ``left_idx``; each right
    coordinate is gathered at ``right_idx`` when given, and otherwise
    used as is (one query's scalar, or a column already aligned with the
    gathered left side). ``d2 = (l0 - r0)**2``, then
    ``d2 += (ld - rd)**2`` for ``d = 1, 2, ...`` in index order. This is
    *the* definition of d² for every kernel, so engines that call it
    agree bit for bit at every dimensionality (a row-wise
    ``sum(axis=1)`` matches it only below 8 columns, where NumPy's
    pairwise summation does not yet split the row).
    """
    d2 = None
    for lc, rc in zip(left, right):
        d = lc[left_idx]
        d -= rc[right_idx] if right_idx is not None else rc
        d *= d
        if d2 is None:
            d2 = d
        else:
            d2 += d
    return d2
