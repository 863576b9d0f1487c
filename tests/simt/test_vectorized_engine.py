"""Equivalence proof of the bulk-lane engine against the interpreter.

The vectorized engine's contract (repro.simt.vectorized) is that an
``aggregate``-mode launch is indistinguishable from thread-by-thread
interpretation: identical pairs *in buffer order*, identical cycle totals
and warp statistics, identical queue-counter side effects. These tests
sweep the optimization space at machine level — pattern × k × queue ×
issue order × seed — and assert exact equality, not approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import BipartiteKernelArgs, bipartite_kernel
from repro.core.kernels import KernelArgs, selfjoin_kernel
from repro.grid import GridIndex
from repro.simt import (
    AtomicCounter,
    BufferOverflowError,
    DeviceSpec,
    GpuMachine,
    ResultBuffer,
    bulk_kernel_for,
    profile_kernel,
)
from repro.simt.vectorized import thread_issue_positions

_EPS = 0.8


def small_device(**kw) -> DeviceSpec:
    defaults = dict(num_sms=2, warps_per_sm_slot=2, warp_size=8)
    defaults.update(kw)
    return DeviceSpec(**defaults)


@pytest.fixture(scope="module")
def index() -> GridIndex:
    rng = np.random.default_rng(7)
    return GridIndex(rng.uniform(0.0, 6.0, size=(150, 2)), _EPS)


def make_args(index, *, k=1, pattern="full", use_queue=False, queue_len=None):
    order = np.arange(index.num_points, dtype=np.int64)
    counter = AtomicCounter() if use_queue else None
    queue = order[: queue_len if queue_len is not None else len(order)]
    return KernelArgs(
        index=index,
        batch=order,
        k=k,
        pattern=pattern,
        queue_counter=counter,
        queue_order=queue if use_queue else None,
    )


def launch(engine, kernel, args, *, issue_order="fifo", seed=0, num_threads=None,
           capacity=200_000, coop=None, keep_traces=False, replay_mode="aggregate"):
    machine = GpuMachine(
        small_device(),
        issue_order=issue_order,
        seed=seed,
        replay_mode=replay_mode,
        engine=engine,
    )
    buf = ResultBuffer(capacity)
    nt = args.num_threads if num_threads is None else num_threads
    if coop is None:
        coop = args.uses_queue and args.k > 1
    stats = machine.launch(
        kernel, nt, args, result_buffer=buf, coop_groups=coop,
        keep_traces=keep_traces,
    )
    return stats, buf.pairs()


def assert_stats_equal(a, b):
    assert a.num_threads == b.num_threads
    assert a.num_warps == b.num_warps
    assert a.cycles == b.cycles
    assert a.seconds == b.seconds
    assert a.warp_execution_efficiency == b.warp_execution_efficiency
    assert len(a.warp_stats) == len(b.warp_stats)
    for wa, wb in zip(a.warp_stats, b.warp_stats):
        assert wa.warp_cycles == wb.warp_cycles
        assert wa.active_cycles == wb.active_cycles
        assert wa.lanes == wb.lanes
        assert wa.warp_size == wb.warp_size
    np.testing.assert_array_equal(a.schedule.start_cycles, b.schedule.start_cycles)


def run_both(index, *, kernel=selfjoin_kernel, args_kw=None, **launch_kw):
    args_kw = args_kw or {}
    res = {}
    for engine in ("interpreted", "vectorized"):
        args = make_args(index, **args_kw)
        res[engine] = (*launch(engine, kernel, args, **launch_kw), args)
    (si, pi, ai), (sv, pv, av) = res["interpreted"], res["vectorized"]
    np.testing.assert_array_equal(pi, pv)
    assert_stats_equal(si, sv)
    if ai.uses_queue:
        assert ai.queue_counter.value == av.queue_counter.value
        assert ai.queue_counter.num_ops == av.queue_counter.num_ops
    assert si.engine == "interpreted"
    assert sv.engine == "vectorized"
    return si, sv


class TestSelfjoinEquivalence:
    @pytest.mark.parametrize("pattern", ["full", "unicomp", "lidunicomp"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("use_queue", [False, True])
    def test_static_and_queue_sweep(self, index, pattern, k, use_queue):
        run_both(
            index,
            args_kw=dict(pattern=pattern, k=k, use_queue=use_queue),
            issue_order="fifo",
        )

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("use_queue", [False, True])
    def test_random_issue_order(self, index, seed, use_queue):
        # the WORKQUEUE closed form must track the leaders' issue ranks,
        # not assume warp 0 fetches first
        run_both(
            index,
            args_kw=dict(pattern="lidunicomp", k=2, use_queue=use_queue),
            issue_order="random",
            seed=seed,
        )

    def test_queue_drained_tail(self, index):
        # more thread groups than queue slots: drained groups still pay
        # the fetch (atomic + shfl) and nothing else
        run_both(
            index,
            args_kw=dict(k=2, use_queue=True, queue_len=index.num_points // 3),
        )

    def test_launch_wider_than_batch(self, index):
        # guard threads beyond args.num_threads never run
        args_kw = dict(pattern="unicomp", k=2)
        nt = make_args(index, **args_kw).num_threads
        run_both(index, args_kw=args_kw, num_threads=nt + 13)

    def test_launch_narrower_than_batch(self, index):
        # a width cutting a query group mid-way: the missing threads'
        # candidate shares are never refined or charged
        args_kw = dict(pattern="full", k=4)
        nt = make_args(index, **args_kw).num_threads
        run_both(index, args_kw=args_kw, num_threads=nt // 2 + 1)

    def test_exclude_self(self, index):
        res = {}
        for engine in ("interpreted", "vectorized"):
            args = make_args(index, k=2, pattern="lidunicomp")
            args.include_self = False
            res[engine] = launch(engine, selfjoin_kernel, args)
        np.testing.assert_array_equal(res["interpreted"][1], res["vectorized"][1])
        assert_stats_equal(res["interpreted"][0], res["vectorized"][0])


class TestBipartiteEquivalence:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("use_queue", [False, True])
    def test_sweep(self, index, k, use_queue):
        # queries deliberately straddle the index bounds: out-of-grid cells
        # exercise the per-offset bounds handling
        rng = np.random.default_rng(5)
        queries = rng.uniform(-1.5, 7.5, size=(80, 2))
        order = np.arange(len(queries), dtype=np.int64)
        res = {}
        for engine in ("interpreted", "vectorized"):
            counter = AtomicCounter() if use_queue else None
            args = BipartiteKernelArgs(
                index=index,
                queries=queries,
                batch=order,
                k=k,
                queue_counter=counter,
                queue_order=order if use_queue else None,
            )
            res[engine] = launch(engine, bipartite_kernel, args)
        np.testing.assert_array_equal(res["interpreted"][1], res["vectorized"][1])
        assert_stats_equal(res["interpreted"][0], res["vectorized"][0])


class TestHigherDimensions:
    """Machine-level equivalence past 2-D: one d² definition at every ndim."""

    @staticmethod
    def _index(ndim):
        rng = np.random.default_rng(ndim)
        pts = np.concatenate(
            [rng.normal(1.5, 0.3, (60, ndim)), rng.uniform(0.0, 3.0, (40, ndim))]
        )
        return GridIndex(pts, 0.3 * ndim**0.5)

    @pytest.mark.parametrize("ndim", [3, 5])
    @pytest.mark.parametrize("pattern", ["full", "lidunicomp"])
    @pytest.mark.parametrize("k,use_queue", [(1, False), (8, True)])
    def test_selfjoin(self, ndim, pattern, k, use_queue):
        run_both(
            self._index(ndim),
            args_kw=dict(pattern=pattern, k=k, use_queue=use_queue),
            issue_order="random",
            seed=ndim,
        )

    @pytest.mark.parametrize("ndim", [4, 6])
    def test_exclude_self(self, ndim):
        index = self._index(ndim)
        res = {}
        for engine in ("interpreted", "vectorized"):
            args = make_args(index, k=8, pattern="unicomp", use_queue=True)
            args.include_self = False
            res[engine] = launch(engine, selfjoin_kernel, args)
        np.testing.assert_array_equal(res["interpreted"][1], res["vectorized"][1])
        assert_stats_equal(res["interpreted"][0], res["vectorized"][0])
        assert len(res["vectorized"][1]) > 0

    @pytest.mark.parametrize("ndim", [3, 5])
    @pytest.mark.parametrize("k", [1, 8])
    def test_bipartite(self, ndim, k):
        index = self._index(ndim)
        queries = np.random.default_rng(9).normal(1.5, 0.6, size=(50, ndim))
        order = np.arange(len(queries), dtype=np.int64)
        res = {}
        for engine in ("interpreted", "vectorized"):
            args = BipartiteKernelArgs(
                index=index,
                queries=queries,
                batch=order,
                k=k,
                queue_counter=AtomicCounter() if k > 1 else None,
                queue_order=order if k > 1 else None,
            )
            res[engine] = launch(engine, bipartite_kernel, args)
        np.testing.assert_array_equal(res["interpreted"][1], res["vectorized"][1])
        assert_stats_equal(res["interpreted"][0], res["vectorized"][0])
        assert len(res["vectorized"][1]) > 0


class TestFallbacks:
    def test_lockstep_replay_uses_interpreter(self, index):
        args = make_args(index)
        stats, _ = launch("vectorized", selfjoin_kernel, args, replay_mode="lockstep")
        assert stats.engine == "interpreted"

    def test_unregistered_kernel_uses_interpreter(self):
        def custom_kernel(ctx, arg):
            ctx.work("body", 1.0)

        assert bulk_kernel_for(custom_kernel) is None
        machine = GpuMachine(small_device(), engine="vectorized")
        stats = machine.launch(custom_kernel, 8, object())
        assert stats.engine == "interpreted"
        assert stats.cycles > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            GpuMachine(small_device(), engine="jit")


class TestDeviceSideEffects:
    def test_overflow_raises_on_both_engines(self, index):
        for engine in ("interpreted", "vectorized"):
            args = make_args(index)
            with pytest.raises(BufferOverflowError):
                launch(engine, selfjoin_kernel, args, capacity=7)

    def test_queue_without_coop_table_raises_on_both(self, index):
        for engine in ("interpreted", "vectorized"):
            args = make_args(index, k=2, use_queue=True)
            with pytest.raises(RuntimeError, match="cooperative-group"):
                launch(engine, selfjoin_kernel, args, coop=False)

    def test_group_size_must_divide_warp_on_both(self, index):
        for engine in ("interpreted", "vectorized"):
            args = make_args(index, k=16, use_queue=True)  # warp size is 8
            with pytest.raises(ValueError, match="divide"):
                launch(engine, selfjoin_kernel, args, coop=True)

    def test_fetch_add_bulk_matches_individual_fetches(self):
        a, b = AtomicCounter(), AtomicCounter()
        starts = [a.fetch_add() for _ in range(5)]
        assert b.fetch_add_bulk(5) == 0
        assert (a.value, a.num_ops) == (b.value, b.num_ops)
        assert starts[0] == 0
        with pytest.raises(ValueError):
            b.fetch_add_bulk(-1)


class TestProfilerEquivalence:
    def test_profile_kernel_matches(self, index):
        device = small_device()
        res = {}
        for engine in ("interpreted", "vectorized"):
            args = make_args(index, k=2, pattern="lidunicomp", use_queue=True)
            stats, _ = launch(engine, selfjoin_kernel, args, keep_traces=True)
            res[engine] = profile_kernel(stats, device)
        pi, pv = res["interpreted"], res["vectorized"]
        assert pi.warp_execution_efficiency == pv.warp_execution_efficiency
        assert pi.achieved_occupancy == pv.achieved_occupancy
        assert pi.total_cycles == pv.total_cycles
        bi = {b.label: (b.active_cycles, b.busy_cycles) for b in pi.breakdown}
        bv = {b.label: (b.active_cycles, b.busy_cycles) for b in pv.breakdown}
        assert bi == bv


class TestIssuePositions:
    def test_fifo_is_identity(self):
        pos = thread_issue_positions(np.arange(3), 4, 10)
        np.testing.assert_array_equal(pos, np.arange(10))

    def test_permuted_warps_keep_lane_order(self):
        # warp order [2, 0, 1] on warp size 4, 10 threads: warp 2 (tids
        # 8, 9) executes first, then warp 0, then warp 1
        pos = thread_issue_positions(np.array([2, 0, 1]), 4, 10)
        np.testing.assert_array_equal(pos, [2, 3, 4, 5, 6, 7, 8, 9, 0, 1])
