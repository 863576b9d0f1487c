"""``engine="native"``: the fidelity-free array-native join backend.

The simulated engines (``"interpreted"``, ``"vectorized"``) reconstruct
the paper's SIMT machine cycle-for-cycle; this module computes the same
exact pair *set* with pure NumPy array passes and nothing else — no warp
accounting, no replay, no batch planning. Cell-pair blocks come from the
same :class:`~repro.grid.GridIndex` neighbor topology the kernels walk,
but only the lexicographically-positive half of the ``3**n`` offsets is
searched (plus each cell's id-increasing half internally): every hit is
emitted with its mirror, which restores the kernels' full directed pair
set at half the candidate volume. Queries visit in the paper's SORTBYWL
heaviest-cells-first order when the optimization config asks for it, and
each block is refined with one vectorized distance pass.
Results carry ``fidelity="none"``: ``batch_stats`` is empty, WEE is
undefined, and the pipeline times are host wall-clock seconds.

Dispatch is by the registry op's ``kind`` (:mod:`repro.runtime.ops`):
``"self"`` walks the half-neighborhood scheme above, every other kind is
executed through the op's ``queries`` attribute as a bipartite sweep.
The kNN driver never reaches this module directly — each of its
expansion rounds compiles to a bipartite sub-plan, so kNN-on-native is
just this backend run once per round.

The module also hosts the process worker backend
(``ShardingConfig(workers="process")``): shards of a pooled native join
fan out over a ``ProcessPoolExecutor`` whose workers share the dataset
through ``multiprocessing.shared_memory`` — or by re-opening the same
``.npy`` file when the dataset is a :class:`numpy.memmap`
(``load_dataset(..., mmap=True)``), in which case no process ever holds
a full resident copy. Each worker builds its grid index once (the bulk
``method="sorted"`` build) and then answers shards from it, each shard
arriving as the query order the host derived for the whole run at once
(:func:`native_shard_orders`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.result import JoinResult
from repro.core.sortbywl import sort_by_workload
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_workloads, iter_bipartite_blocks
from repro.grid.neighbors import neighbor_offsets, neighbor_ranks_for_offset
from repro.simt.streams import PipelineResult
from repro.util import gather_slices, squared_distances, stable_argsort_desc

__all__ = [
    "NATIVE_CHUNK_PAIRS",
    "SharedArray",
    "execute_shard_native",
    "native_query_order",
    "native_shard_orders",
    "run_shards_process",
    "share_array",
]

#: candidate pairs refined per vectorized block — bounds peak memory of
#: one distance pass (~64 MB of intermediates at the default)
NATIVE_CHUNK_PAIRS = 4_000_000


# ----------------------------------------------------------------------
# in-process execution
# ----------------------------------------------------------------------
def native_query_order(
    op, index: GridIndex, cfg, *, subset: np.ndarray | None = None
) -> np.ndarray:
    """The shard's query visiting order D' for the native engine.

    Mirrors the ops' ``prepare`` ordering — SORTBYWL heaviest-cells-first
    when ``cfg.uses_sorted_points``, dataset/subset order otherwise — but
    skips the result-size estimation the batch planner needs and the
    native engine does not.
    """
    if op.kind == "self":
        if cfg.uses_sorted_points:
            order = sort_by_workload(index, cfg.pattern)
            if subset is not None:
                keep = np.zeros(index.num_points, dtype=bool)
                keep[np.asarray(subset, dtype=np.int64)] = True
                order = order[keep[order]]
            return order
        if subset is not None:
            return np.asarray(subset, dtype=np.int64)
        return np.arange(index.num_points, dtype=np.int64)
    ids = (
        np.asarray(subset, dtype=np.int64)
        if subset is not None
        else np.arange(len(op.queries), dtype=np.int64)
    )
    if cfg.uses_sorted_points and len(ids):
        workloads, _ = bipartite_workloads(index, op.queries[ids])
        return ids[stable_argsort_desc(workloads)]
    return ids


def native_shard_orders(
    op, index: GridIndex, cfg, shards, *, cell_workloads: np.ndarray | None = None
) -> list[np.ndarray]:
    """Every shard's query order, indexed like ``shards``.

    Each entry equals ``native_query_order(op, index, cfg,
    subset=shard.points)``, but a sorted self-join derives the full D'
    once — from ``cell_workloads`` (the plan's, see
    :attr:`~repro.multigpu.sharding.ShardPlan.cell_workloads`) when
    given — and restricts it to each shard, instead of re-sorting the
    whole index per shard. Other orders are already per-shard work.
    """
    if op.kind != "self" or not cfg.uses_sorted_points:
        return [native_query_order(op, index, cfg, subset=s.points) for s in shards]
    order = sort_by_workload(index, cfg.pattern, workloads=cell_workloads)
    owner = np.full(index.num_points, -1, dtype=np.int64)
    for pos, shard in enumerate(shards):
        owner[shard.points] = pos
    owner = owner[order]
    return [order[owner == pos] for pos in range(len(shards))]


def _file_backed(arr) -> bool:
    base = arr
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _refiner(left, right, eps2):
    """``hits(qi, cj) -> kept indices`` for the ε distance predicate.

    Resident datasets get contiguous per-dimension columns refined by
    the kernels' shared d² (:func:`~repro.util.squared_distances`: 1-D
    gathers, no row materialization, no axis reduction); file-backed
    datasets keep row gathers so only the touched pages ever become
    resident.
    """
    if _file_backed(left) or _file_backed(right):

        def hits(qi, cj):
            d2 = ((left[qi] - right[cj]) ** 2).sum(axis=1)
            return np.flatnonzero(d2 <= eps2)

        return hits

    lcols = [np.ascontiguousarray(left[:, k]) for k in range(left.shape[1])]
    rcols = (
        lcols
        if right is left
        else [np.ascontiguousarray(right[:, k]) for k in range(right.shape[1])]
    )

    def hits(qi, cj):
        return np.flatnonzero(squared_distances(lcols, rcols, qi, cj) <= eps2)

    return hits


def _half_offsets(ndim: int) -> list[np.ndarray]:
    """The ``(3**n - 1) / 2`` lexicographically-positive neighbor offsets.

    For distinct adjacent cells A and B exactly one of ``B - A`` / ``A - B``
    is lex-positive, so walking only these offsets (plus the zero offset's
    id-increasing half within each cell) visits every unordered candidate
    pair exactly once from the query side; mirrored emission restores the
    full directed pair set. Because the relation is defined purely by the
    query's cell and id, a union over any query-subset partition (shards)
    still covers every pair exactly once.
    """
    out = []
    for off in neighbor_offsets(ndim):
        nz = np.flatnonzero(off)
        if nz.size and off[nz[0]] > 0:
            out.append(off)
    return out


def _offset_blocks(index, queries, nbr, *, chunk_pairs):
    """``(query_idx, candidate_idx)`` blocks for one neighbor-rank mapping."""
    valid = nbr >= 0
    if not valid.any():
        return
    q_sel = queries[valid]
    n_sel = nbr[valid]
    lengths = index.cell_counts[n_sel]
    csum = np.cumsum(lengths)
    start = 0
    while start < len(q_sel):
        base = csum[start - 1] if start > 0 else 0
        # largest stop with csum[stop-1] - base <= chunk_pairs, but at
        # least one query per block so oversized cells still progress
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        stop = min(max(stop, start + 1), len(q_sel))
        sl = slice(start, stop)
        lens = lengths[sl]
        qi = np.repeat(q_sel[sl], lens)
        cj = gather_slices(index.point_order, index.cell_starts[n_sel[sl]], lens)
        if qi.size:
            yield qi, cj
        start = stop


def _mirrored(qi, cj):
    out = np.empty((2 * len(qi), 2), dtype=np.int64)
    out[: len(qi), 0] = qi
    out[: len(qi), 1] = cj
    out[len(qi) :, 0] = cj
    out[len(qi) :, 1] = qi
    return out


def _self_join_blocks(index, order, *, include_self, chunk_pairs):
    eps2 = index.epsilon * index.epsilon
    queries = np.asarray(order, dtype=np.int64)
    if queries.size == 0 or index.num_points == 0:
        return
    hits = _refiner(index.points, index.points, eps2)
    if include_self:
        for start in range(0, len(queries), max(chunk_pairs, 1)):
            q = queries[start : start + chunk_pairs]
            yield np.stack([q, q], axis=1)
    q_rank = index.point_cell_rank[queries]
    # within-cell: the id-increasing half of each cell's pairs, mirrored
    for qi, cj in _offset_blocks(index, queries, q_rank, chunk_pairs=chunk_pairs):
        upper = np.flatnonzero(cj > qi)
        if not upper.size:
            continue
        qi = qi[upper]
        cj = cj[upper]
        keep = hits(qi, cj)
        if keep.size:
            yield _mirrored(qi[keep], cj[keep])
    # cross-cell: one lex-positive offset per unordered cell pair, mirrored
    for off in _half_offsets(index.ndim):
        nbr = neighbor_ranks_for_offset(index, off)[q_rank]
        for qi, cj in _offset_blocks(index, queries, nbr, chunk_pairs=chunk_pairs):
            keep = hits(qi, cj)
            if keep.size:
                yield _mirrored(qi[keep], cj[keep])


def _bipartite_blocks(queries, index, order, *, chunk_pairs):
    eps2 = index.epsilon * index.epsilon
    hits = _refiner(queries, index.points, eps2)
    for qi, cj in iter_bipartite_blocks(
        index, queries[order], query_ids=order, chunk_pairs=chunk_pairs
    ):
        keep = hits(qi, cj)
        if keep.size:
            yield np.stack([qi[keep], cj[keep]], axis=1)


def _join_blocks(kind, index, order, *, queries, include_self, chunk_pairs):
    """Pair blocks of one shard visiting ``order``, by op kind."""
    if kind == "self":
        return _self_join_blocks(
            index, order, include_self=include_self, chunk_pairs=chunk_pairs
        )
    return _bipartite_blocks(queries, index, order, chunk_pairs=chunk_pairs)


def execute_shard_native(
    op,
    index: GridIndex,
    cfg,
    *,
    subset: np.ndarray | None = None,
    order: np.ndarray | None = None,
    description: str | None = None,
    keep_fragments: bool = True,
    chunk_pairs: int = NATIVE_CHUNK_PAIRS,
) -> JoinResult:
    """Run one shard (or the whole join: ``subset=None``) natively.

    The returned pair set equals the simulated engines' merged set
    order-normalized (compare via
    :meth:`~repro.core.result.JoinResult.canonical_pairs`); fragments are
    the per-block pair buffers, so streaming consumption works unchanged.
    Pipeline times are host wall-clock, ``fidelity="none"``, and include
    deriving the query order. ``order`` is the shard's order when the
    caller already has it (a pooled run's :func:`native_shard_orders`);
    otherwise it is derived from ``subset``.
    """
    t0 = time.perf_counter()
    if order is None:
        order = native_query_order(op, index, cfg, subset=subset)
    fragments: list[np.ndarray] = []
    starts: list[float] = []
    ends: list[float] = []
    blocks = _join_blocks(
        op.kind,
        index,
        order,
        queries=getattr(op, "queries", None),
        include_self=getattr(op, "include_self", True),
        chunk_pairs=chunk_pairs,
    )
    prev = 0.0
    for block in blocks:
        now = time.perf_counter() - t0
        fragments.append(block)
        starts.append(prev)
        ends.append(now)
        prev = now
    wall = time.perf_counter() - t0
    pairs = (
        np.concatenate(fragments, axis=0)
        if fragments
        else np.empty((0, 2), dtype=np.int64)
    )
    pipeline = PipelineResult(
        total_seconds=wall,
        kernel_start=np.array(starts, dtype=np.float64),
        kernel_end=np.array(ends, dtype=np.float64),
        transfer_end=np.array(ends, dtype=np.float64),
    )
    return JoinResult(
        pairs=pairs,
        epsilon=op.result_epsilon(index),
        num_points=len(order),
        batch_stats=[],
        pipeline=pipeline,
        config_description=description if description is not None else op.describe(cfg),
        fragments=tuple(fragments) if keep_fragments else None,
        fidelity="none",
    )


# ----------------------------------------------------------------------
# process worker backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArray:
    """A picklable handle to an array workers can open without copying it.

    ``kind="shm"`` names a ``multiprocessing.shared_memory`` segment the
    host filled; ``kind="mmap"`` names the ``.npy``-backing file of a
    :class:`numpy.memmap` — workers re-open the file read-only, so a
    memory-mapped dataset is never made resident anywhere.
    """

    kind: str  # "shm" or "mmap"
    name: str  # segment name / file path
    shape: tuple
    dtype: str
    offset: int = 0


def _backing_memmap(arr: np.ndarray) -> np.memmap | None:
    """The file-backed memmap whose full buffer ``arr`` views, if any.

    Validation helpers (``as_points_array``) return base-ndarray *views*
    of a loaded memmap, so the walk follows ``.base``; the view must
    cover the map exactly — same start address, shape and dtype — for
    by-path sharing to be equivalent.
    """
    candidate = arr
    while candidate is not None:
        if isinstance(candidate, np.memmap) and getattr(candidate, "filename", None):
            same_data = (
                candidate.shape == arr.shape
                and candidate.dtype == arr.dtype
                and candidate.__array_interface__["data"][0]
                == arr.__array_interface__["data"][0]
            )
            return candidate if same_data else None
        candidate = getattr(candidate, "base", None)
    return None


def share_array(arr: np.ndarray):
    """Publish ``arr`` for worker processes: ``(handle, segment-or-None)``.

    File-backed memmaps (including validated views of one) are shared by
    path — no copy anywhere; anything else is copied once into a fresh
    shared-memory segment the caller must ``close()``/``unlink()`` after
    the pool shuts down.
    """
    mm = _backing_memmap(arr)
    if mm is not None:
        return (
            SharedArray(
                kind="mmap",
                name=str(mm.filename),
                shape=tuple(mm.shape),
                dtype=str(mm.dtype),
                offset=int(mm.offset),
            ),
            None,
        )
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[:] = arr
    return (
        SharedArray(kind="shm", name=shm.name, shape=tuple(arr.shape), dtype=str(arr.dtype)),
        shm,
    )


def _attach_array(handle: SharedArray):
    """Open a :class:`SharedArray` in this process; returns (array, keepalive)."""
    if handle.kind == "mmap":
        arr = np.memmap(
            handle.name,
            dtype=np.dtype(handle.dtype),
            mode="r",
            shape=handle.shape,
            offset=handle.offset,
        )
        return arr, arr
    from multiprocessing import shared_memory

    # under the fork start method workers share the host's resource
    # tracker, so attach-time registrations dedup against the creator's
    # and the host's unlink() retires the segment exactly once
    shm = shared_memory.SharedMemory(name=handle.name)
    arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
    return arr, shm


# per-worker state, set once by the pool initializer
_WORKER: dict = {}


def _worker_init(points_handle, queries_handle, epsilon, spec, include_self, kind):
    pts, pts_keep = _attach_array(points_handle)
    queries = None
    q_keep = None
    if queries_handle is not None:
        queries, q_keep = _attach_array(queries_handle)
    index = GridIndex.build(pts, epsilon, spec=spec, method="sorted")
    _WORKER.clear()
    _WORKER.update(
        index=index,
        queries=queries,
        include_self=include_self,
        kind=kind,
        keepalive=(pts_keep, q_keep),
    )


def _worker_run(task):
    """One shard in a worker: ``(shard_id, pid, pairs, start, end, num_queries)``.

    The task carries the shard's query order, derived once by the host
    (:func:`native_shard_orders`); the pid names the worker that ran it.
    ``start``/``end`` are ``time.perf_counter()`` stamps — the system-wide
    monotonic clock, so they share the host's time base and bound exactly
    the worker's own execution of the shard.
    """
    shard_id, order, chunk_pairs = task
    start = time.perf_counter()
    found = list(
        _join_blocks(
            _WORKER["kind"],
            _WORKER["index"],
            order,
            queries=_WORKER["queries"],
            include_self=_WORKER["include_self"],
            chunk_pairs=chunk_pairs,
        )
    )
    pairs = (
        np.concatenate(found, axis=0) if found else np.empty((0, 2), dtype=np.int64)
    )
    return shard_id, os.getpid(), pairs, start, time.perf_counter(), len(order)


def run_shards_process(
    op,
    index: GridIndex,
    cfg,
    shards,
    *,
    orders,
    num_workers: int,
    dispatch_order,
    completed=None,
    save_shard=None,
    deadline_check=None,
    crash_at: int | None = None,
    chunk_pairs: int = NATIVE_CHUNK_PAIRS,
):
    """Fan a pooled native join's shards over real worker processes.

    ``orders[shard_id]`` is each shard's query order
    (:func:`native_shard_orders`), shipped to the worker that runs it.
    ``dispatch_order`` is the shard-id dispatch sequence (the scheduler's
    most-work-first queue); ``completed`` maps already-durable shard ids
    to their results (checkpoint resume) — those are not re-executed.
    ``save_shard(shard_id, result)`` journals each completion as it
    arrives, in completion order, exactly like the inline scheduler.
    ``crash_at`` emulates a host crash after that many dispatches: the
    already-dispatched shards finish and journal, then
    :class:`~repro.resilience.faults.SimulatedCrashError` propagates.

    Returns ``(results, events)``: results indexed by shard id, events as
    ``(shard_id, device_id, start, end, num_pairs, num_points, kind)``
    tuples in host wall-clock seconds since pool start, spanning the
    worker's execution of the shard. ``device_id`` numbers the worker
    process that ran the shard (in the order workers first report back),
    so one id's events never overlap. A shard answered from ``completed``
    ran in no worker: its event is ``kind="journaled"`` on device -1 and
    spans ``[0, recorded seconds]`` of the run that journaled it, which
    no makespan or busy time counts.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

    from repro.resilience.faults import SimulatedCrashError

    completed = completed or {}
    results: list[JoinResult | None] = [None] * len(shards)
    events: list[tuple] = []
    shard_by_id = {s.shard_id: s for s in shards}

    points_handle, points_seg = share_array(index.points)
    queries_handle, queries_seg = (None, None)
    if op.kind != "self":
        queries_handle, queries_seg = share_array(op.queries)
    include_self = getattr(op, "include_self", True)
    t0 = time.perf_counter()
    crashed = False
    try:
        with ProcessPoolExecutor(
            max_workers=num_workers,
            initializer=_worker_init,
            initargs=(
                points_handle,
                queries_handle,
                float(index.epsilon),
                index.spec,
                include_self,
                op.kind,
            ),
        ) as pool:
            futures = []
            workers: dict[int, int] = {}  # pid -> device id
            dispatched = 0
            for shard_id in dispatch_order:
                shard = shard_by_id[shard_id]
                if deadline_check is not None:
                    deadline_check(f"shard {shard_id} dispatch")
                if crash_at is not None and dispatched >= crash_at:
                    crashed = True
                    break
                dispatched += 1
                cached = completed.get(shard_id)
                if cached is not None:
                    results[shard_id] = cached
                    events.append(
                        (shard_id, -1, 0.0, cached.total_seconds,
                         cached.num_pairs, len(shard.points), "journaled")
                    )
                    continue
                futures.append(
                    pool.submit(_worker_run, (shard_id, orders[shard_id], chunk_pairs))
                )
            for fut in as_completed(futures):
                shard_id, pid, pairs, start, end, num_queries = fut.result()
                start -= t0
                end -= t0
                device_id = workers.setdefault(pid, len(workers))
                result = JoinResult(
                    pairs=pairs,
                    epsilon=op.result_epsilon(index),
                    num_points=num_queries,
                    batch_stats=[],
                    pipeline=PipelineResult(
                        total_seconds=end - start,
                        kernel_start=np.array([start]),
                        kernel_end=np.array([end]),
                        transfer_end=np.array([end]),
                    ),
                    config_description=op.describe(cfg),
                    fidelity="none",
                )
                results[shard_id] = result
                if save_shard is not None:
                    save_shard(shard_id, result)
                events.append(
                    (shard_id, device_id, start, end, len(pairs), num_queries, "run")
                )
    finally:
        if points_seg is not None:
            points_seg.close()
            points_seg.unlink()
        if queries_seg is not None:
            queries_seg.close()
            queries_seg.unlink()
    if crashed:
        raise SimulatedCrashError(crash_at)
    return results, events
