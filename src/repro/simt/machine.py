"""The GPU machine: kernel launch, warp-ordered execution, and metrics.

``GpuMachine.launch`` runs a kernel function once per thread, *in warp issue
order*. Executing whole warps in the order the scheduler would dispatch them
makes device side effects realistic — in particular, the work-queue's atomic
counter hands out query points in exactly the order warps are issued, which
is the mechanism (Section III-D) by which the paper forces most-work-first
execution.

After execution the machine replays every warp in lock-step
(:func:`repro.simt.warp.replay_warp`) and schedules the warp durations onto
the device's issue slots (:func:`repro.simt.scheduler.makespan`), yielding
kernel cycles, seconds, and the profiler-style warp execution efficiency.

Two execution engines share that contract:

- ``engine="interpreted"`` — the thread-at-a-time reference interpreter
  described above; required for ``lockstep`` replay and for kernels
  without a bulk form;
- ``engine="vectorized"`` — the bulk-lane fast path
  (:mod:`repro.simt.vectorized`): a registered array-level implementation
  computes the whole launch at once and must reproduce the interpreter's
  pairs, charges and side effects exactly. Launches the fast path cannot
  serve (unregistered kernel, ``lockstep`` replay) fall back to the
  interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.simt.context import ThreadContext, ThreadTrace
from repro.simt.coop import CoopGroupTable
from repro.simt.costs import CostParams
from repro.simt.device import DeviceSpec
from repro.simt.memory import ResultBuffer
from repro.simt.scheduler import ScheduleResult, issue_order_permutation, makespan
from repro.simt.vectorized import (
    ENGINES,
    BulkLaunch,
    bulk_kernel_for,
    bulk_warp_stats,
    synthesize_traces,
)
from repro.simt.warp import WarpStats, replay_warp, replay_warps_aggregate
from repro.util import ceil_div

__all__ = ["GpuMachine", "KernelStats"]


@dataclass(frozen=True)
class KernelStats:
    """Profiler output of one simulated kernel invocation."""

    num_threads: int
    num_warps: int
    cycles: float
    seconds: float
    warp_stats: list[WarpStats] = field(repr=False)
    schedule: ScheduleResult = field(repr=False)
    traces: list[ThreadTrace] | None = field(default=None, repr=False)
    engine: str = "interpreted"

    @cached_property
    def _cycle_sums(self) -> tuple[float, float]:
        """(active, warp) cycle totals over all warps, reduced once —
        profiling reports read WEE per batch, so the reduction is cached."""
        total_active = 0.0
        total_warp = 0.0
        for w in self.warp_stats:
            total_active += w.active_cycles
            total_warp += w.warp_cycles
        return total_active, total_warp

    @property
    def warp_execution_efficiency(self) -> float:
        """Cycle-weighted average fraction of active lanes per executed warp
        — the Nvidia profiler metric the paper reports (in percent)."""
        total_active, total_warp = self._cycle_sums
        if total_warp == 0:
            return 1.0
        warp_size = self.warp_stats[0].warp_size if self.warp_stats else 32
        return total_active / (warp_size * total_warp)

    @property
    def mean_warp_wee(self) -> float:
        """Unweighted per-warp mean WEE (useful for diagnostics)."""
        if not self.warp_stats:
            return 1.0
        return float(np.mean([w.wee for w in self.warp_stats]))


class GpuMachine:
    """A simulated SIMT accelerator.

    Parameters
    ----------
    device:
        Hardware description; defaults to the paper's Quadro GP100 class.
    costs:
        Instruction cost model shared with :mod:`repro.perfmodel`.
    issue_order:
        ``"fifo"``, ``"random"`` or ``"workload_desc"`` — how the hardware
        scheduler orders warp dispatch. The work-queue kernels force
        ``"fifo"`` over a workload-sorted array, which *is* most-work-first.
    seed:
        Seed for the ``"random"`` issue order.
    replay_mode:
        ``"aggregate"`` (reconverge at region boundaries; matches the
        analytic model) or ``"lockstep"`` (event-by-event serialization).
    engine:
        ``"interpreted"`` (thread-at-a-time reference) or ``"vectorized"``
        (bulk-lane fast path for kernels with a registered bulk form;
        everything else falls back to the interpreter).
    """

    def __init__(
        self,
        device: DeviceSpec | None = None,
        costs: CostParams | None = None,
        *,
        issue_order: str = "fifo",
        seed=None,
        replay_mode: str = "aggregate",
        engine: str = "interpreted",
    ):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.device = device if device is not None else DeviceSpec()
        self.costs = costs if costs is not None else CostParams()
        self.issue_order = issue_order
        self.seed = seed
        self.replay_mode = replay_mode
        self.engine = engine

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel,
        num_threads: int,
        *args,
        result_buffer: ResultBuffer | None = None,
        coop_groups: bool = False,
        keep_traces: bool = False,
    ) -> KernelStats:
        """Run ``kernel(ctx, *args)`` for ``num_threads`` threads.

        Threads execute sequentially, whole warps at a time, in the
        scheduler's issue order; lanes within a warp run in lane order.
        ``keep_traces=True`` retains the per-thread traces on the returned
        stats for profiler post-analysis (:mod:`repro.simt.metrics`).

        Under ``engine="vectorized"`` the launch is computed by the
        kernel's bulk form instead, with identical results (see
        :mod:`repro.simt.vectorized`); launches the bulk form cannot serve
        run through the interpreter.
        """
        if num_threads < 0:
            raise ValueError("num_threads must be non-negative")
        ws = self.device.warp_size
        num_warps = int(ceil_div(num_threads, ws)) if num_threads else 0
        warp_order = self._warp_order(num_warps)

        if self.engine == "vectorized" and self.replay_mode == "aggregate":
            impl = bulk_kernel_for(kernel) if len(args) == 1 else None
            if impl is not None:
                return self._launch_bulk(
                    impl,
                    args[0],
                    num_threads,
                    num_warps,
                    warp_order,
                    result_buffer=result_buffer,
                    coop_groups=coop_groups,
                    keep_traces=keep_traces,
                )

        groups = CoopGroupTable(ws) if coop_groups else None
        traces: list[ThreadTrace | None] = [None] * num_threads
        for w in warp_order:
            base = int(w) * ws
            for tid in range(base, min(base + ws, num_threads)):
                ctx = ThreadContext(tid, ws, self.costs, result_buffer, groups)
                kernel(ctx, *args)
                traces[tid] = ctx.trace

        if self.replay_mode == "aggregate":
            warp_stats = replay_warps_aggregate(traces, num_warps, ws)
        else:
            warp_stats = [
                replay_warp(
                    [t for t in traces[w * ws : (w + 1) * ws] if t is not None],
                    ws,
                    self.replay_mode,
                )
                for w in range(num_warps)
            ]

        return self._finish_launch(
            num_threads,
            num_warps,
            warp_order,
            warp_stats,
            traces=[t for t in traces if t is not None] if keep_traces else None,
            engine="interpreted",
        )

    # ------------------------------------------------------------------
    def _warp_order(self, num_warps: int) -> np.ndarray:
        # Issue order must be decided before execution (it shapes atomics),
        # so it cannot depend on measured durations. "workload_desc" is only
        # meaningful post-hoc and is rejected here; the work-queue achieves
        # most-work-first by sorting the *data*, not the warp ids.
        if self.issue_order == "fifo":
            return np.arange(num_warps)
        if self.issue_order == "random":
            return issue_order_permutation(
                np.zeros(num_warps), "random", seed=self.seed
            )
        raise ValueError(
            "GpuMachine.launch supports issue_order 'fifo' or 'random'; "
            "most-work-first execution comes from sorted input data"
        )

    def _launch_bulk(
        self,
        impl,
        kernel_args,
        num_threads: int,
        num_warps: int,
        warp_order: np.ndarray,
        *,
        result_buffer: ResultBuffer | None,
        coop_groups: bool,
        keep_traces: bool,
    ) -> KernelStats:
        ws = self.device.warp_size
        launch = BulkLaunch(
            num_threads=num_threads,
            warp_size=ws,
            num_warps=num_warps,
            warp_order=warp_order,
            costs=self.costs,
            coop_groups=coop_groups,
        )
        result = impl(launch, kernel_args)
        if len(result.pairs) and result_buffer is None:
            raise RuntimeError("kernel launched without a result buffer")
        # warp statistics first: their per-thread label matrix is freed
        # before the pairs are widened into the buffer
        warp_stats = bulk_warp_stats(result, num_threads, num_warps, ws)
        if len(result.pairs):
            # one append: capacity overflow raises exactly when the
            # interpreted launch's cumulative emission would have
            result_buffer.append_pairs(result.pairs)
        return self._finish_launch(
            num_threads,
            num_warps,
            warp_order,
            warp_stats,
            traces=synthesize_traces(result, num_threads) if keep_traces else None,
            engine="vectorized",
        )

    def _finish_launch(
        self,
        num_threads: int,
        num_warps: int,
        warp_order: np.ndarray,
        warp_stats: list[WarpStats],
        *,
        traces,
        engine: str,
    ) -> KernelStats:
        durations = np.array(
            [s.warp_cycles + self.costs.c_warp_launch for s in warp_stats]
        )
        # scheduling must follow the same issue order used for execution
        sched = self._schedule(durations, warp_order)
        cycles = sched.makespan_cycles
        return KernelStats(
            num_threads=num_threads,
            num_warps=num_warps,
            cycles=cycles,
            seconds=self.device.cycles_to_seconds(cycles),
            warp_stats=warp_stats,
            schedule=sched,
            traces=traces,
            engine=engine,
        )

    def _schedule(self, durations: np.ndarray, warp_order: np.ndarray) -> ScheduleResult:
        # Reuse makespan() but with the explicit permutation chosen at launch.
        reordered = durations[warp_order]
        sched = makespan(reordered, self.device.warp_slots, order="fifo")
        # map start times back to warp-id indexing
        starts = np.zeros_like(sched.start_cycles)
        starts[warp_order] = sched.start_cycles
        return ScheduleResult(sched.makespan_cycles, sched.slot_finish_cycles, starts)
