"""The one runner that executes every :class:`~repro.runtime.plan.JoinPlan`.

``Runner.run(plan)`` is the only execution entry point of the codebase:
the single-device joins, the multi-device sharded joins and the
fault-injected resilient runs all pass through it. A single-device run is
just the degenerate pooled run — one shard, no scheduler — so the per-
shard function :func:`execute_shard` (estimate → batch plan → launch →
overflow re-plan loop) is the shared core of both paths.

The pooled path pulls :mod:`repro.multigpu` lazily: the runtime package
sits *below* multigpu in the import graph (multigpu's facades compile
into plans), so the upward reference resolves at call time, when the
package is fully initialized.

``Runner.stream(plan)`` yields the result pairs in blocks. Execution is
eager — the simulator prices the transfer pipeline over the whole batch
set — but consumption is incremental, backed by the per-batch fragments
the executor produced (see :meth:`repro.core.result.JoinResult.iter_pairs`).
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.core.executor import BatchExecutor, DeviceExecutor
from repro.core.batching import plan_batches, plan_batches_balanced
from repro.core.config import OptimizationConfig
from repro.core.result import JoinResult
from repro.grid import GridIndex
from repro.resilience.executor import FaultyExecutor
from repro.resilience.faults import SimulatedCrashError
from repro.runtime.config import NATIVE_ENGINE, RuntimeConfig
from repro.runtime.native import (
    execute_shard_native,
    native_shard_orders,
    run_shards_process,
)
from repro.runtime.plan import ExpansionStage, JoinPlan, NativeLaunchStage
from repro.simt import AtomicCounter, BufferOverflowError, CostParams, DeviceSpec

__all__ = [
    "DeadlineExceededError",
    "Runner",
    "execute_shard",
    "executor_from_runtime",
]

_MAX_REPLANS = 8


class DeadlineExceededError(RuntimeError):
    """A run's wall-clock deadline expired before it could finish.

    Raised at shard-dispatch boundaries (execution inside a shard is not
    interrupted), so a checkpointed run's journal stays consistent: every
    shard completed before the deadline fired is durable and a later
    ``Runner.resume`` picks up exactly there.
    """


class _Deadline:
    """Monotonic wall-clock budget checked at dispatch boundaries."""

    def __init__(self, seconds: float | None):
        self._expires = None if seconds is None else time.monotonic() + float(seconds)

    def check(self, where: str) -> None:
        if self._expires is not None and time.monotonic() >= self._expires:
            raise DeadlineExceededError(f"deadline exceeded before {where}")

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` for no deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())


def executor_from_runtime(
    runtime: RuntimeConfig, *, device_index: int = 0
) -> DeviceExecutor:
    """Build the :class:`DeviceExecutor` a runtime config describes.

    Pooled device ``d`` uses ``device_index=d`` (seeded ``seed + d``).
    """
    return DeviceExecutor(
        runtime.device if runtime.device is not None else DeviceSpec(),
        runtime.costs if runtime.costs is not None else CostParams(),
        seed=runtime.seed + device_index,
        replay_mode=runtime.replay_mode,
        engine=runtime.engine,
        overflow_policy=runtime.overflow_policy,
        overflow_growth=runtime.overflow.growth,
        max_overflow_retries=runtime.overflow.max_retries,
        overflow_backoff_seconds=runtime.overflow.backoff_seconds,
    )


def execute_shard(
    op,
    index: GridIndex,
    cfg: OptimizationConfig,
    executor: BatchExecutor,
    *,
    subset: np.ndarray | None = None,
    safety_z: float = 0.0,
    description: str | None = None,
    keep_fragments: bool = True,
) -> JoinResult:
    """Run one shard of a join (or the whole join: ``subset=None``).

    Prepare order/estimate/weights via the op, plan batches, launch; if a
    batch overflows its result buffer (the estimator under-guessed), the
    run is re-planned with a doubled estimate — the same recovery a
    production implementation needs, and a tested code path here.

    WORKQUEUE state (the atomic counter over this shard's D' slice) is
    private to this call; a fresh counter is built per launch attempt.
    """
    prep = op.prepare(index, cfg, subset=subset, safety_z=safety_z)
    est = prep.estimate
    for _attempt in range(_MAX_REPLANS):
        if cfg.balanced_batches:
            plan = plan_batches_balanced(
                prep.order, prep.weights, est, cfg.batch_result_capacity
            )
        else:
            plan = plan_batches(
                prep.order,
                est,
                cfg.batch_result_capacity,
                strided=not cfg.work_queue,
            )
        try:
            return _launch(
                op,
                index,
                cfg,
                prep.order,
                plan,
                executor,
                description=description,
                keep_fragments=keep_fragments,
            )
        except BufferOverflowError:
            # estimator under-guessed; double and re-plan
            est = max(est * 2, cfg.batch_result_capacity + 1)
    raise RuntimeError(
        f"batch planning failed to converge after {_MAX_REPLANS} attempts"
    )


def _launch(
    op,
    index: GridIndex,
    cfg: OptimizationConfig,
    order: np.ndarray,
    plan,
    executor: BatchExecutor,
    *,
    description: str | None,
    keep_fragments: bool,
) -> JoinResult:
    counter = AtomicCounter(name="workqueue") if cfg.work_queue else None
    outcome = executor.run_batches(
        op.kernel,
        plan.batches,
        op.make_args(index, cfg, order, counter),
        result_capacity=cfg.batch_result_capacity,
        num_streams=cfg.num_streams,
        issue_order="fifo" if cfg.work_queue else "random",
        coop_groups=cfg.work_queue and cfg.k > 1,
    )
    return JoinResult(
        pairs=outcome.merged_pairs(),
        epsilon=op.result_epsilon(index),
        num_points=len(order),
        batch_stats=outcome.batch_stats,
        pipeline=outcome.pipeline,
        config_description=description if description is not None else op.describe(cfg),
        overflow_retries=outcome.num_overflow_retries,
        overflow_wasted_seconds=outcome.overflow_wasted_seconds,
        fragments=tuple(outcome.pairs_per_batch) if keep_fragments else None,
    )


class Runner:
    """Executes compiled :class:`~repro.runtime.plan.JoinPlan`\\ s.

    Parameters
    ----------
    executor:
        Optional explicit :class:`~repro.core.executor.BatchExecutor` for
        single-device plans (e.g. a prebuilt or fault-wrapped one); by
        default the plan's :class:`RuntimeConfig` describes the executor.
    pool:
        Optional explicit :class:`~repro.multigpu.pool.DevicePool` for
        pooled plans (e.g. heterogeneous); by default a homogeneous pool
        is built from the runtime config. A reused pool's health records
        are re-armed per run, keeping seeded fault runs reproducible.

    After an execution, ``last_checkpoint_stats`` holds the
    :class:`~repro.resilience.checkpoint.CheckpointStats` of the run's
    journal (``None`` when the plan does not checkpoint).
    """

    def __init__(self, *, executor: BatchExecutor | None = None, pool=None):
        self.executor = executor
        self.pool = pool
        self.last_checkpoint_stats = None

    def run(self, plan: JoinPlan, *, deadline_seconds: float | None = None):
        """Execute the plan; pooled plans return a ``MultiJoinResult``.

        ``deadline_seconds`` is a wall-clock budget for this execution,
        checked at shard-dispatch boundaries —
        :class:`DeadlineExceededError` is raised when it expires. Plans
        carrying a :class:`~repro.runtime.plan.CheckpointStage` journal
        each completed shard durably as they go (a fresh run never
        *reads* the journal; see :meth:`resume`).
        """
        return self._execute(plan, resume=False, deadline_seconds=deadline_seconds)

    def resume(self, plan: JoinPlan, *, deadline_seconds: float | None = None):
        """Resume an interrupted checkpointed run.

        Replays the same schedule as :meth:`run`, but shards already
        durable in the plan's journal are answered from disk instead of
        re-executed — the merged result (pair bytes, trace signature) is
        bit-identical to an uninterrupted run because shard execution is
        deterministic and the merge is execution-order independent.
        Resuming with nothing journaled (or after a completed
        ``keep=False`` run dropped its journal) is simply a full run.
        """
        if plan.checkpoint_stage is None:
            raise ValueError(
                "resume() needs a checkpointed plan; compile with "
                "RuntimeConfig(checkpoint=CheckpointConfig(directory=...))"
            )
        return self._execute(plan, resume=True, deadline_seconds=deadline_seconds)

    def stream(
        self,
        plan: JoinPlan,
        *,
        chunk: int | None = None,
        deadline_seconds: float | None = None,
    ) -> Iterator[np.ndarray]:
        """Execute the plan and yield its result pairs in blocks.

        Without ``chunk``, blocks are the runner's natural fragments (one
        per batch on single-device runs); with ``chunk``, blocks are
        re-sliced to exactly ``chunk`` rows (last one short). The
        concatenation of all yielded blocks equals ``result.pairs``.
        """
        result = self.run(plan, deadline_seconds=deadline_seconds)
        yield from result.iter_pairs(chunk=chunk)

    # ------------------------------------------------------------------
    def _execute(self, plan: JoinPlan, *, resume: bool, deadline_seconds):
        deadline = _Deadline(deadline_seconds)
        self.last_checkpoint_stats = None
        if plan.stage(ExpansionStage) is not None:
            return self._run_knn(plan, resume=resume, deadline=deadline)
        if plan.pooled:
            return self._run_pooled(plan, resume=resume, deadline=deadline)
        return self._run_single(plan, resume=resume, deadline=deadline)

    def _open_journal(self, plan: JoinPlan, num_shards: int):
        stage = plan.checkpoint_stage
        if stage is None:
            return None
        from repro.resilience.checkpoint import CheckpointStore

        return CheckpointStore(stage.directory).journal(
            stage.fingerprint,
            kind=plan.op.kind,
            description=plan.merge_stage.description,
            num_shards=num_shards,
        )

    def _run_single(self, plan: JoinPlan, *, resume: bool, deadline: _Deadline):
        rc = plan.config
        journal = self._open_journal(plan, 1)
        if journal is not None:
            # live stats: visible even when a crash interrupts the run
            self.last_checkpoint_stats = journal.stats
        if journal is not None and resume and 0 in journal.completed_shards():
            # the run completed its (single) shard before the interruption
            result = journal.load_shard(0)
            self.last_checkpoint_stats = journal.stats
            journal.finalize(keep=plan.checkpoint_stage.keep)
            return result
        crash = rc.fault_plan.crash_point() if rc.fault_plan is not None else None
        if crash is not None and crash.at_shard <= 0:
            raise SimulatedCrashError(0)
        deadline.check("launch")
        if rc.engine == NATIVE_ENGINE:
            launch = plan.stage(NativeLaunchStage)
            result = execute_shard_native(
                plan.op,
                plan.index,
                rc.optimization,
                subset=plan.subset,
                description=plan.merge_stage.description,
                keep_fragments=rc.profiling.keep_fragments,
                chunk_pairs=launch.chunk_pairs,
            )
        else:
            executor = (
                self.executor if self.executor is not None else executor_from_runtime(rc)
            )
            resil = plan.resilience_stage
            if resil is not None and resil.fault_plan is not None:
                executor = FaultyExecutor(executor, 0, resil.fault_plan)
            result = execute_shard(
                plan.op,
                plan.index,
                rc.optimization,
                executor,
                subset=plan.subset,
                safety_z=rc.estimate_safety_z,
                description=plan.merge_stage.description,
                keep_fragments=rc.profiling.keep_fragments,
            )
        if journal is not None:
            journal.save_shard(0, result)
            self.last_checkpoint_stats = journal.stats
            journal.finalize(keep=plan.checkpoint_stage.keep)
        return result

    def _run_knn(self, plan: JoinPlan, *, resume: bool, deadline: _Deadline):
        """Drive a kNN plan: one residual bipartite sub-plan per ε round.

        Round ``r`` joins the still-pending queries against the full
        dataset at radius ``epsilon0 * growth**r``; queries with ≥ k
        in-radius neighbors are finalized (their true k nearest are
        within ε — any unexamined point is farther), the rest expand.
        Sub-plans are compiled with the *same* runtime config, so rounds
        inherit engine, sharding, recovery, faults and checkpointing
        unchanged.

        Checkpointing is two-level: the driver journal (shard id =
        round) persists each round's *merged* result, while the round's
        own sub-journal persists its shards as it runs. ``resume``
        replays completed rounds from the driver journal — evolving the
        pending set deterministically without re-execution — and resumes
        the first incomplete round mid-round from its sub-journal, so
        the final :class:`~repro.runtime.ops.KnnResult` is byte-identical
        to the uninterrupted run. A ``CrashPoint``'s ``at_shard`` counts
        shard dispatches across all executed rounds; the driver
        translates the ordinal into each round's frame.
        """
        import dataclasses

        from repro.runtime.ops import KnnConvergenceError, KnnResult
        from repro.runtime.plan import compile_similarity_join

        rc = plan.config
        op = plan.op
        expand = plan.expansion_stage
        pts = op.points
        n = len(pts)
        k = expand.k

        journal = self._open_journal(plan, expand.max_rounds)
        if journal is not None:
            # live stats: visible even when a crash interrupts the run
            self.last_checkpoint_stats = journal.stats
        completed = journal.load_completed() if (journal is not None and resume) else {}
        crash = rc.fault_plan.crash_point() if rc.fault_plan is not None else None
        dispatched = 0  # shard dispatches across executed rounds

        indices = np.full((n, k), -1, dtype=np.int64)
        distances = np.full((n, k), np.inf)
        pending = np.arange(n)
        eps = expand.epsilon0
        total_seconds = 0.0
        rounds = 0
        inner = Runner(executor=self.executor, pool=self.pool)

        while len(pending) and rounds < expand.max_rounds:
            r = rounds
            rounds += 1
            result = completed.get(r)
            if result is None:
                deadline.check(f"knn round {r}")
                round_rc = rc
                if crash is not None:
                    # shift the global crash ordinal into this round's
                    # frame; a round it cannot reach runs to completion
                    offset = max(0, crash.at_shard - dispatched)
                    round_rc = rc.with_(
                        fault_plan=dataclasses.replace(
                            rc.fault_plan,
                            crashes=(dataclasses.replace(crash, at_shard=offset),),
                        )
                    )
                index = plan.index if r == 0 else op.build_index(eps)
                round_plan = compile_similarity_join(index, pts[pending], round_rc)
                if resume and round_plan.checkpoint_stage is not None:
                    result = inner.resume(
                        round_plan, deadline_seconds=deadline.remaining()
                    )
                else:
                    result = inner.run(
                        round_plan, deadline_seconds=deadline.remaining()
                    )
                dispatched += (
                    len(round_plan.shard_stage.plan.shards)
                    if round_plan.pooled
                    else 1
                )
                if journal is not None:
                    journal.save_shard(r, result)
                    if inner.last_checkpoint_stats is not None:
                        # fold the round sub-journal's cost into the
                        # driver's stats: one ledger for the whole run
                        sub = inner.last_checkpoint_stats
                        journal.stats.writes += sub.writes
                        journal.stats.loads += sub.loads
                        journal.stats.bytes_written += sub.bytes_written
                        journal.stats.write_seconds += sub.write_seconds

            pairs = result.pairs  # (pending-local query idx, global neighbor)
            keep = pending[pairs[:, 0]] != pairs[:, 1]  # drop self matches
            pairs = pairs[keep]
            counts = np.bincount(pairs[:, 0], minlength=len(pending))
            done_rows = counts[pairs[:, 0]] >= k
            if done_rows.any():
                # finalize every finished query with one segmented sort:
                # by (query, distance, neighbor id) — the id tie-break
                # makes equal-distance neighbors engine-invariant
                q = pairs[done_rows, 0]
                nb = pairs[done_rows, 1]
                d = np.linalg.norm(pts[nb] - pts[pending[q]], axis=1)
                order = np.lexsort((nb, d, q))
                qs, nbs, ds = q[order], nb[order], d[order]
                pos = np.arange(len(qs)) - np.searchsorted(qs, qs, side="left")
                top = pos < k
                q_global = pending[qs[top]]
                indices[q_global, pos[top]] = nbs[top]
                distances[q_global, pos[top]] = ds[top]
            pending = pending[counts < k]
            eps *= expand.growth
            total_seconds += float(result.total_seconds)

        if len(pending):  # pragma: no cover - 2**48 expansion always suffices
            raise KnnConvergenceError(
                pending, rounds=rounds, epsilon=eps / expand.growth
            )
        if journal is not None:
            self.last_checkpoint_stats = journal.stats
            journal.finalize(keep=plan.checkpoint_stage.keep)
        return KnnResult(
            indices=indices,
            distances=distances,
            rounds=rounds,
            final_epsilon=eps / expand.growth,
            total_seconds=total_seconds,
        )

    def _run_pooled(self, plan: JoinPlan, *, resume: bool, deadline: _Deadline):
        # upward imports: multigpu compiles *into* this runtime, so the
        # runner resolves it lazily rather than at module import
        from repro.multigpu.join import MultiJoinResult
        from repro.multigpu.merge import merge_shard_results
        from repro.multigpu.metrics import pool_stats_from_trace
        from repro.multigpu.pool import DevicePool
        from repro.multigpu.scheduler import HostScheduler
        from repro.resilience.executor import arm_pool

        rc = plan.config
        if rc.engine == NATIVE_ENGINE and rc.sharding.workers == "process":
            return self._run_pooled_native_process(plan, resume=resume, deadline=deadline)
        shard_stage = plan.shard_stage
        pool = self.pool if self.pool is not None else DevicePool.from_runtime(rc)
        resil = plan.resilience_stage
        # native pools have no executors to wrap; arming with None still
        # re-arms device health for a fresh run
        armed = arm_pool(
            pool,
            resil.fault_plan
            if resil is not None and rc.engine != NATIVE_ENGINE
            else None,
        )
        scheduler = HostScheduler(pool, shard_stage.schedule, recovery=rc.recovery)
        op, index, opt = plan.op, plan.index, rc.optimization
        native_launch = plan.stage(NativeLaunchStage)

        journal = self._open_journal(plan, len(shard_stage.plan.shards))
        if journal is not None:
            # live stats: visible even when a crash interrupts the run
            self.last_checkpoint_stats = journal.stats
        completed = journal.load_completed() if (journal is not None and resume) else {}
        crash = rc.fault_plan.crash_point() if rc.fault_plan is not None else None
        dispatched = 0
        orders = (
            native_shard_orders(
                op,
                index,
                opt,
                shard_stage.plan.shards,
                cell_workloads=shard_stage.plan.cell_workloads,
            )
            if rc.engine == NATIVE_ENGINE
            else None
        )

        def run_shard(device, shard):
            nonlocal dispatched
            deadline.check(f"shard {shard.shard_id} dispatch")
            if crash is not None and dispatched >= crash.at_shard:
                raise SimulatedCrashError(crash.at_shard)
            dispatched += 1
            cached = completed.get(shard.shard_id)
            if cached is not None:
                # resumed: this shard's result is already durable — replay
                # it into the schedule instead of re-executing
                return cached
            if rc.engine == NATIVE_ENGINE:
                result = execute_shard_native(
                    op,
                    index,
                    opt,
                    order=orders[shard.shard_id],
                    keep_fragments=False,
                    chunk_pairs=native_launch.chunk_pairs,
                )
            else:
                executor = armed.get(device.device_id, device.executor)
                result = execute_shard(
                    op,
                    index,
                    opt,
                    executor,
                    subset=shard.points,
                    safety_z=rc.estimate_safety_z,
                    keep_fragments=False,
                )
            if journal is not None:
                journal.save_shard(shard.shard_id, result)
            return result

        results, trace = scheduler.run(shard_stage.plan, run_shard)
        if journal is not None:
            self.last_checkpoint_stats = journal.stats
            journal.finalize(keep=plan.checkpoint_stage.keep)

        # speculative re-execution is first-result-wins, so results[] holds
        # one copy per shard — but dedup anyway when it fired, making the
        # merge duplicate-safe by construction rather than by argument
        merge = plan.merge_stage
        speculated = trace.recovery is not None and trace.recovery.num_speculations > 0
        merged = merge_shard_results(
            results,
            trace,
            epsilon=op.result_epsilon(index),
            num_points=op.total_points(index),
            dedup=merge.dedup or speculated,
            config_description=merge.description,
        )
        stats = pool_stats_from_trace(trace, results, planner=shard_stage.plan.planner)
        return MultiJoinResult(
            pairs=merged.pairs,
            epsilon=merged.epsilon,
            num_points=merged.num_points,
            batch_stats=merged.batch_stats,
            pipeline=merged.pipeline,
            config_description=merged.config_description,
            overflow_retries=merged.overflow_retries,
            overflow_wasted_seconds=merged.overflow_wasted_seconds,
            fidelity=merged.fidelity,
            planner=shard_stage.plan.planner,
            schedule_mode=trace.mode,
            num_devices=pool.num_devices,
            pool_stats=stats,
            trace=trace if rc.profiling.keep_trace else None,
            shard_plan=shard_stage.plan,
        )

    def _run_pooled_native_process(
        self, plan: JoinPlan, *, resume: bool, deadline: _Deadline
    ):
        """Pooled native run over real worker processes.

        Shards fan out over a process pool (one worker per configured
        device) sharing the dataset via shared memory or a re-opened
        memory map; journaling, crash points, deadlines and resume follow
        the inline scheduler's semantics. Events carry host wall-clock
        times, so the trace reports real (not simulated) makespans — the
        merge itself is shard-id ordered and execution-order independent,
        which is what makes the merged pairs deterministic.
        """
        from repro.multigpu.join import MultiJoinResult
        from repro.multigpu.merge import merge_shard_results
        from repro.multigpu.metrics import pool_stats_from_trace
        from repro.multigpu.scheduler import ScheduleTrace, ShardEvent

        rc = plan.config
        shard_stage = plan.shard_stage
        op, index = plan.op, plan.index
        launch = plan.stage(NativeLaunchStage)

        journal = self._open_journal(plan, len(shard_stage.plan.shards))
        if journal is not None:
            self.last_checkpoint_stats = journal.stats
        completed = journal.load_completed() if (journal is not None and resume) else {}
        crash = rc.fault_plan.crash_point() if rc.fault_plan is not None else None

        shards = shard_stage.plan.shards
        dispatch = (
            shard_stage.plan.dispatch_order()
            if shard_stage.schedule == "dynamic"
            else [s.shard_id for s in shards]
        )
        try:
            results, raw_events = run_shards_process(
                op,
                index,
                rc.optimization,
                shards,
                orders=native_shard_orders(
                    op,
                    index,
                    rc.optimization,
                    shards,
                    cell_workloads=shard_stage.plan.cell_workloads,
                ),
                num_workers=shard_stage.num_devices,
                dispatch_order=dispatch,
                completed=completed,
                save_shard=journal.save_shard if journal is not None else None,
                deadline_check=deadline.check,
                crash_at=crash.at_shard if crash is not None else None,
                chunk_pairs=launch.chunk_pairs,
            )
        finally:
            if journal is not None:
                self.last_checkpoint_stats = journal.stats
        if journal is not None:
            journal.finalize(keep=plan.checkpoint_stage.keep)

        events = [
            ShardEvent(
                shard_id=sid,
                device_id=dev,
                start_seconds=start,
                end_seconds=end,
                num_pairs=num_pairs,
                num_points=num_points,
                kind=kind,
            )
            for sid, dev, start, end, num_pairs, num_points, kind in raw_events
        ]
        trace = ScheduleTrace(
            events=events,
            mode=shard_stage.schedule,
            num_devices=shard_stage.num_devices,
        )
        merge = plan.merge_stage
        merged = merge_shard_results(
            results,
            trace,
            epsilon=op.result_epsilon(index),
            num_points=op.total_points(index),
            dedup=merge.dedup,
            config_description=merge.description,
        )
        stats = pool_stats_from_trace(trace, results, planner=shard_stage.plan.planner)
        return MultiJoinResult(
            pairs=merged.pairs,
            epsilon=merged.epsilon,
            num_points=merged.num_points,
            batch_stats=merged.batch_stats,
            pipeline=merged.pipeline,
            config_description=merged.config_description,
            overflow_retries=merged.overflow_retries,
            overflow_wasted_seconds=merged.overflow_wasted_seconds,
            fidelity=merged.fidelity,
            planner=shard_stage.plan.planner,
            schedule_mode=trace.mode,
            num_devices=shard_stage.num_devices,
            pool_stats=stats,
            trace=trace if rc.profiling.keep_trace else None,
            shard_plan=shard_stage.plan,
        )
