"""The benchmark workloads, run inside a fresh workload process.

Each workload generates its inputs from the seed (benchmark-side, not
timed), performs the program-side set-up (timed as ``setup_s``), one
untimed warm-up pass, then timed operations until its time budget is
spent. Every operation's answer is reduced to an order-independent
digest (see ``checks.py``) outside the timed region.

All timings are taken here, around calls into the program's public
functions; no program clock is trusted for an end-to-end figure. Two
program clocks in particular are known to be wrong and are not used:
the native engine's ``JoinResult.total_seconds`` leaves out the
SORTBYWL ordering, and the process pool's ``ShardEvent.device_id`` is
the dispatch slot rather than the worker that ran the shard (shards are
placed on workers from their wall-clock intervals instead, see
``worker_occupancy``).
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
import traceback

import numpy as np

from checks import pair_digest, tamper
from spans import Recorder

VM_PRESETS = (
    "gpucalcglobal",
    "unicomp",
    "lidunicomp",
    "k8",
    "sortbywl",
    "workqueue",
    "combined",
)

#: problem sizes; ``tiny`` exists for the benchmark's own self-test
SIZES = {
    "full": {
        "skewed_n": 500_000,
        "vm_n": 50_000,
        "serve_hot_n": 60_000,
        "serve_grid_n": 150_000,
        "serve_query_n": 30_000,
        "serve_fresh_n": 75_000,
        "serve_knn_n": 9_000,
    },
    "tiny": {
        "skewed_n": 20_000,
        "vm_n": 1_500,
        "serve_hot_n": 2_000,
        "serve_grid_n": 4_000,
        "serve_query_n": 1_000,
        "serve_fresh_n": 2_000,
        "serve_knn_n": 800,
    },
}

#: fewest timed passes a join workload runs, whatever its budget
MIN_PASSES = 2
#: untimed warm-up before measuring: at least one pass and this long, so
#: that the allocator's and the host's first-minute behaviour is not timed
WARMUP_SECONDS = 5.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def busy_per_op(ops) -> float:
    """Seconds during which at least one finished operation was outstanding,
    from its due time to its answer, per finished operation.

    Operations that run one after another give their mean latency;
    overlapping ones (requests waiting in a queue) are counted once.
    """
    total, cur_start, cur_end = 0.0, None, None
    done = [o for o in ops if o.state == "done"]
    for start, end in sorted((o.end - o.latency, o.end) for o in done):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / len(done) if done else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Op:
    """One timed operation: its latency (ending at ``end`` on
    ``time.perf_counter``), outcome and answer digest."""

    def __init__(self, name, latency, *, state="done", digest=None, expect=None, end=0.0):
        self.name = name
        self.latency = latency
        self.end = end
        self.state = state
        self.digest = digest
        self.expect = expect  # None: compared against the run's oracle

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "latency_s": self.latency,
            "state": self.state,
            "digest": self.digest,
            "expect": self.expect,
        }


class Workload:
    """Lifecycle: ``make_inputs`` → ``setup`` → ``warmup`` → ``run_phase``…

    ``run_phase`` returns ``(ops, figures)``, where ``figures`` holds the
    phase's ``join_s``, ``busy_s`` and ``completed_per_s``;
    ``layer_metrics`` turns a traced phase into the per-layer numbers.
    """

    name = ""
    #: per-operation latency limit for ``slo_met_share``, seconds
    slo_seconds = 0.0
    #: how ``join_s`` and ``busy_s`` are formed, printed beside them
    notes = {
        "join_s": "median pass time",
        "busy_s": "joins run one at a time: their mean latency",
        "completed_per_s": "joins in a pass / join_s, not a separate signal",
    }

    def __init__(self, size: str, seed: int, workdir, inject: str | None):
        self.cfg = SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.inject = inject

    def answer(self, pairs, first: bool) -> dict:
        """Digest of one answer; a ``corrupt`` self-test tampers the first."""
        if first and self.inject == "corrupt":
            pairs = tamper(pairs)
        return pair_digest(pairs)

    def cross_checks(self) -> list[Op]:
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# self-join workloads, timed pass by pass
# ----------------------------------------------------------------------
class JoinWorkload(Workload):
    """A self-join pass: ``GridIndex`` build, compile, ``Runner.run``."""

    epsilon = 0.0
    #: layer a pass's ``Runner.run`` is attributed to
    run_layer = "repro.runtime"

    def setup(self):
        from repro import PRESETS, RuntimeConfig

        self.points = self.data
        self.runtime = RuntimeConfig(optimization=PRESETS["sortbywl"], engine="native")

    def ops_of_pass(self):
        """Yield ``(op name, runtime)``: the joins one pass is made of."""
        yield "join", self.runtime

    def join(self, runtime, rec: Recorder):
        from repro import GridIndex, Runner, compile_self_join

        with rec.span("repro.grid", "GridIndex"):
            index = GridIndex(self.points, self.epsilon)
        with rec.span("repro.runtime", "compile_self_join"):
            plan = compile_self_join(index, runtime)
        runner = Runner()
        with rec.span(self.run_layer, "Runner.run"):
            result = runner.run(plan)
        self.last = (index, plan, runner)
        return result

    def run_phase(self, budget, rec, *, first_op=True, min_passes=MIN_PASSES):
        """Passes until ``budget`` seconds of pass time (at least ``min_passes``).

        ``join_s`` is the median pass time, ``busy_s`` the mean latency of
        a join.
        """
        ops: list[Op] = []
        passes: list[float] = []
        while sum(passes) < budget or len(passes) < min_passes:
            with rec.span("perfbench", "pass"):
                passes.append(self._one_pass(rec, ops, first_op))
        joins_per_pass = len({op.name for op in ops})
        figures = {
            "join_s": median(passes),
            "busy_s": busy_per_op(ops),
            "completed_per_s": joins_per_pass / median(passes),
        }
        return ops, figures

    def _one_pass(self, rec, ops, first_op) -> float:
        pass_seconds = 0.0
        for name, runtime in self.ops_of_pass():
            with rec.span("perfbench", f"op {name}"):
                t = time.perf_counter()
                result = self.join(runtime, rec)
                end = time.perf_counter()
            latency = end - t
            first = first_op and not ops
            if first and self.inject == "drop":
                ops.append(Op(name, latency, state="dropped", end=end))
            else:
                ops.append(Op(name, latency, digest=self.answer(result.pairs, first), end=end))
            if rec.enabled:
                self.record(name, result, rec)
            del result
            pass_seconds += latency
        return pass_seconds

    def warmup(self):
        self.run_phase(WARMUP_SECONDS, Recorder(False), first_op=False, min_passes=1)

    def record(self, name, result, rec: Recorder):
        """Keep per-layer counts from one traced result."""
        self.pairs = result.num_pairs
        self.pair_bytes = int(result.pairs.nbytes)

    def layer_metrics(self, rec: Recorder) -> dict:
        """Traced-pass spans, plus isolated probes of grid/core stages.

        The probes time public grid/core functions once more, on the last
        pass's grid, after the traced passes. They repeat work the pass
        already did, so their spans are not counted in the per-layer self
        time.
        """
        from repro.core import (
            estimate_result_size_detailed,
            point_workloads,
            sort_by_workload,
        )
        from repro.grid import neighbor_offsets, neighbor_ranks_for_offset

        index = self.last[0]
        probes = {}
        with rec.span("repro.grid", "probe neighbor_ranks_for_offset x3^n", counted=False) as sp:
            for offset in neighbor_offsets(index.ndim):
                neighbor_ranks_for_offset(index, offset)
        probes["grid.neighbor_lookup_s"] = sp.end - sp.start
        with rec.span("repro.core", "probe sort_by_workload", counted=False) as sp:
            sort_by_workload(index, "full")
        probes["core.order_s"] = sp.end - sp.start
        with rec.span("repro.core", "probe point_workloads", counted=False):
            workloads = point_workloads(index, "full")
        with rec.span("repro.core", "probe estimate_result_size_detailed", counted=False) as sp:
            estimate_result_size_detailed(index)
        probes["core.estimate_s"] = sp.end - sp.start
        # computed from the grid (the full 3^n neighborhood), not counted by a kernel
        candidates = int(workloads.sum())
        runs = rec.durations(self.run_layer, "Runner.run")
        passes = max(len(rec.durations("perfbench", "pass")), 1)
        return {
            **probes,
            "grid.build_s": median(rec.durations("repro.grid", "GridIndex")),
            "grid.cells": index.num_nonempty_cells,
            "core.candidates": candidates,
            "core.hit_ratio": self.pairs / candidates,
            "core.workload_skew": float(workloads.max() / workloads.mean()),
            "runtime.compile_s": median(rec.durations("repro.runtime", "compile_self_join")),
            "runtime.run_s": sum(runs) / passes,
            "runtime.pairs": self.pairs,
            "runtime.pair_bytes": self.pair_bytes,
        }


def worker_occupancy(events, num_workers: int):
    """Assign shard events to ``num_workers`` workers; ``[(worker, event)]``
    and each worker's busy seconds.

    A process pool's ``ShardEvent.device_id`` is the dispatch slot, not the
    worker that ran the shard, so the workers are worked out from the
    host wall-clock intervals instead: in start order, each shard goes to
    the worker that became free last before it started (or, if none was
    free, to the one that frees first).
    """
    free = [0.0] * num_workers
    busy = [0.0] * num_workers
    placed = []
    for ev in sorted(events, key=lambda e: (e.start_seconds, e.shard_id)):
        idle = [w for w in range(num_workers) if free[w] <= ev.start_seconds]
        if idle:
            w = max(idle, key=free.__getitem__)
        else:
            w = min(range(num_workers), key=free.__getitem__)
        free[w] = ev.end_seconds
        busy[w] += ev.end_seconds - ev.start_seconds
        placed.append((w, ev))
    return placed, busy


class SkewedSharded(JoinWorkload):
    """The paper's skewed case over process workers, mmap input, checkpoints."""

    name = "skewed-sharded"
    epsilon = 1e-4
    slo_seconds = 16.0
    num_workers = 2

    def make_inputs(self):
        self.data = _rng(self.seed, 2).exponential(1.0 / 40.0, size=(self.cfg["skewed_n"], 2))

    def setup(self):
        from repro import PRESETS, RuntimeConfig, ShardingConfig
        from repro.io import load_dataset, save_dataset

        path = self.workdir / "points.npy"
        save_dataset(path, self.data)
        self.points = load_dataset(path, mmap=True)
        self.runtime = RuntimeConfig(
            optimization=PRESETS["sortbywl"],
            engine="native",
            sharding=ShardingConfig(num_devices=self.num_workers, workers="process"),
        )
        self._ckpt_serial = itertools.count()

    def ops_of_pass(self):
        from repro.runtime import CheckpointConfig

        ckpt = self.workdir / f"ckpt-{next(self._ckpt_serial)}"
        yield "join", self.runtime.with_(checkpoint=CheckpointConfig(directory=str(ckpt)))

    def record(self, name, result, rec):
        """Pool and journal figures of the traced pass, from the result.

        The shard events are host wall-clock intervals relative to the
        pool's start, which is taken as the start of ``Runner.run``. The
        pool window (first shard start to last shard end) becomes a
        ``repro.multigpu`` span under ``Runner.run``, and the journal's
        total write time a ``repro.resilience`` span inside that window,
        where the parent writes each shard as it completes (its placement
        in the window is not known). The shards go on one track per worker.
        """
        super().record(name, result, rec)
        run = rec.last("repro.runtime", "Runner.run")
        events = result.trace.events
        first = min(ev.start_seconds for ev in events)
        makespan = max(ev.end_seconds for ev in events) - first
        window = rec.derive("repro.multigpu", "process pool (ScheduleTrace makespan)",
                            run.start + first, run.start + first + makespan,
                            parent=run.span_id)
        ckpt = self.last[2].last_checkpoint_stats
        rec.derive("repro.resilience", "checkpoint writes (CheckpointStats.write_seconds)",
                   window.start, window.start + min(ckpt.write_seconds, makespan),
                   parent=window.span_id)
        placed, busy = worker_occupancy(events, self.num_workers)
        for w, ev in placed:
            rec.derive("repro.multigpu", f"shard {ev.shard_id}", run.start + ev.start_seconds,
                       run.start + ev.end_seconds, parent=None, tid=1000 + w, counted=False)
        self.pool = {
            "multigpu.worker_busy_s": sum(busy),
            "multigpu.makespan_s": makespan,
            "multigpu.imbalance": max(busy) * len(busy) / sum(busy),
            "multigpu.host_overhead_s": (run.end - run.start) - makespan,
            "resilience.ckpt_writes": ckpt.writes,
            "resilience.ckpt_bytes": ckpt.bytes_written,
            "resilience.ckpt_write_s": ckpt.write_seconds,
        }

    def layer_metrics(self, rec):
        out = super().layer_metrics(rec)
        out.update(self.pool)
        return out


class VmPresets(JoinWorkload):
    """One pass runs the same join through the SIMT VM under seven presets."""

    name = "vm-presets"
    epsilon = 1e-3
    #: the vectorized engine's ``Runner.run`` is where the SIMT VM runs
    #: (with the ordering and batching it needs from ``repro.core``)
    run_layer = "repro.simt"
    slo_seconds = 3.0

    def make_inputs(self):
        self.data = _rng(self.seed, 4).exponential(1.0 / 40.0, size=(self.cfg["vm_n"], 2))

    def setup(self):
        from repro import PRESETS, RuntimeConfig

        self.points = self.data
        self.runtimes = {
            p: RuntimeConfig(optimization=PRESETS[p], engine="vectorized") for p in VM_PRESETS
        }
        self.per_preset: dict[str, dict] = {}

    def ops_of_pass(self):
        yield from self.runtimes.items()

    def record(self, name, result, rec):
        super().record(name, result, rec)
        row = self.per_preset.setdefault(name, {"run_s": []})
        row["run_s"].append(rec.durations("repro.simt", "Runner.run")[-1])
        row["sim_s"] = result.total_seconds
        row["wee"] = result.warp_execution_efficiency
        row["batches"] = result.num_batches

    def cross_checks(self):
        """The native engine must return the VM presets' pair set."""
        from repro import PRESETS, GridIndex, Runner, RuntimeConfig, compile_self_join

        rc = RuntimeConfig(optimization=PRESETS["sortbywl"], engine="native")
        result = Runner().run(compile_self_join(GridIndex(self.points, self.epsilon), rc))
        return [Op("native-engine", 0.0, digest=pair_digest(result.pairs))]

    def layer_metrics(self, rec):
        out = super().layer_metrics(rec)
        for preset, row in self.per_preset.items():
            out[f"simt.run_s.{preset}"] = median(row["run_s"])
            out[f"simt.sim_s.{preset}"] = row["sim_s"]
            out[f"simt.wee.{preset}"] = row["wee"]
            out[f"core.batches.{preset}"] = row["batches"]
        return out


# ----------------------------------------------------------------------
# open-loop serving
# ----------------------------------------------------------------------
class Served(Op):
    """One served request: its outcome plus the service's own accounting."""

    def __init__(self, req, latency, state, resp=None, end=0.0):
        super().__init__(req.tag, latency, state=state, end=end)
        self.kind = req.kind
        self.response = resp  # held only until the answer is digested
        self.cache_hit = resp.cache_hit if resp is not None else False
        self.queue_s = resp.queue_seconds if resp is not None else 0.0
        self.execute_s = resp.execute_seconds if resp is not None else 0.0
        self.pairs = self.pair_bytes = self.rounds = 0


class ServeOpen(Workload):
    """Seeded Poisson arrivals into an in-process ``JoinService``.

    The loop is open: request ``i`` is sent at its scheduled time whether
    or not earlier ones have finished, and its latency runs from that
    scheduled time. The mix covers hot-key self-joins (session-cache
    hits), self-joins at a fresh ε (cache misses), similarity joins and
    kNN, across three tenants.

    The service executes one request at a time. With two execution slots,
    overlapping requests share the interpreter and slow each other down
    by an amount that depends on how the schedule happened to stack them,
    and on a 2-core host the figures of ten seeds spread by 30 % of their
    median or more; a request run alone varies by about 3 %. Requests
    still wait behind the slot in the service's per-tenant fair queue,
    and admission and grid resolution for a waiting request still run
    beside the executing one.
    """

    name = "serve-open"
    slo_seconds = 1.5
    notes = {
        "join_s": "mean execute_seconds over the request multiset",
        "busy_s": "seconds with a request outstanding (due time to answer) per request",
        "completed_per_s": "follows the offered rate until the service saturates",
    }
    #: offered load, requests per second
    rate = 2.0
    #: requests the service executes at once
    max_concurrency = 1
    #: request mix: (kind of request, share of arrivals)
    mix = (("hot-self", 0.4), ("fresh-self", 0.2), ("similarity", 0.2), ("knn", 0.2))
    hot_epsilons = (2e-4, 3e-4)
    fresh_epsilon = (0.003, 0.004)
    similarity_epsilon = 0.005
    knn_k = 8
    knn_epsilon = 0.01
    tenants = 3
    #: longest wait for any one response before it counts as lost
    response_timeout = 60.0

    def make_inputs(self):
        rng = _rng(self.seed, 3)
        c = self.cfg
        self.data = {
            "hot": rng.exponential(1.0 / 40.0, size=(c["serve_hot_n"], 2)),
            "grid": rng.uniform(0.0, 1.0, size=(c["serve_grid_n"], 2)),
            "queries": rng.uniform(0.0, 1.0, size=(c["serve_query_n"], 2)),
            "fresh": rng.uniform(0.0, 1.0, size=(c["serve_fresh_n"], 2)),
            "knn": rng.uniform(0.0, 1.0, size=(c["serve_knn_n"], 2)),
        }

    def setup(self):
        from repro import PRESETS, RuntimeConfig
        from repro.serve import AdmissionPolicy, JoinService, ServeConfig

        self.runtime = RuntimeConfig(optimization=PRESETS["sortbywl"], engine="native")
        self.loop = asyncio.new_event_loop()
        admission = AdmissionPolicy(max_concurrency=self.max_concurrency)
        self.service = JoinService(ServeConfig(admission=admission))

        async def start():
            await self.service.start()
            for name, points in self.data.items():
                self.service.register_dataset(name, points)

        self.loop.run_until_complete(start())

    def request(self, kind: str, j: int, n: int, rng, tenant: str):
        """Request ``j`` of the ``n`` of one kind; parameters are stratified
        over the ``n`` so every schedule carries the same work mix."""
        from repro.serve import JoinRequest

        common = {"tenant": tenant, "runtime": self.runtime, "tag": kind}
        if kind == "hot-self":
            eps = self.hot_epsilons[j % len(self.hot_epsilons)]
            return JoinRequest(dataset="hot", epsilon=eps, **common)
        if kind == "fresh-self":
            lo, hi = self.fresh_epsilon
            eps = lo + (hi - lo) * (j + float(rng.uniform())) / n  # distinct: cache misses
            return JoinRequest(dataset="fresh", epsilon=eps, **common)
        if kind == "similarity":
            return JoinRequest(
                dataset="grid",
                epsilon=self.similarity_epsilon,
                kind="similarity",
                query_dataset="queries",
                **common,
            )
        return JoinRequest(
            dataset="knn", epsilon=self.knn_epsilon, kind="knn", k=self.knn_k, **common
        )

    def schedule(self, seconds: float, stream: int):
        """The whole arrival schedule, ``[(due offset, request)]``, from the seed.

        A Poisson process conditioned on its count: ``rate * seconds``
        arrival times drawn uniformly over the window, carrying the mix's
        kinds in exact proportions (tenants round-robin), shuffled.
        """
        rng = _rng(self.seed, stream)
        count = max(round(self.rate * seconds), len(self.mix))
        counts = [round(share * count) for _, share in self.mix]
        counts[0] += count - sum(counts)
        requests = []
        for (kind, _), n in zip(self.mix, counts):
            for j in range(n):
                tenant = f"tenant-{len(requests) % self.tenants}"
                requests.append(self.request(kind, j, n, rng, tenant))
        dues = np.sort(rng.uniform(0.0, seconds, size=count))
        return [(float(due), requests[k]) for due, k in zip(dues, rng.permutation(count))]

    def warmup(self):
        """Rounds of one request of each kind, one at a time, for WARMUP_SECONDS."""
        rng = _rng(self.seed, 9)

        async def rounds():
            end = time.perf_counter() + WARMUP_SECONDS
            while time.perf_counter() < end:
                for kind, _ in self.mix:
                    await self.service.run(self.request(kind, 0, 1, rng, "warmup"))

        self.loop.run_until_complete(rounds())

    def run_phase(self, budget, rec, *, first_op=True):
        self._phase = getattr(self, "_phase", 0) + 1
        plan = self.schedule(budget, stream=10 + self._phase)
        ops, stats = self.loop.run_until_complete(self._open_loop(plan, rec, first_op))
        if first_op and self.inject == "drop" and ops:
            ops[0].state, ops[0].digest = "dropped", None
        self.stats = stats
        self.ops = ops
        self.served = getattr(self, "served", []) + list(zip(ops, (r for _, r in plan)))
        # Means and busy time over the fixed request multiset, not
        # percentiles: a percentile over kinds of very different cost jumps
        # from one kind to the next. Requests that wait in the queue overlap
        # in time; busy_s counts that time once.
        done = [o for o in ops if o.state == "done"]
        last_done = max((o.end for o in done), default=stats["start"]) - stats["start"]
        figures = {
            "join_s": statistics.mean(o.execute_s for o in done) if done else 0.0,
            "busy_s": busy_per_op(ops),
            "completed_per_s": len(done) / last_done if last_done > 0 else 0.0,
        }
        return ops, figures

    async def _open_loop(self, plan, rec, first_op):
        svc = self.service
        start = time.perf_counter() + 0.05
        lags: list[float] = []
        inflight = [0, 0]  # current, max

        async def one(i, due, req):
            inflight[0] += 1
            inflight[1] = max(inflight[1], inflight[0])
            try:
                with rec.span("repro.serve", "JoinService.submit", tid=i + 1):
                    ticket = await svc.submit(req)
                with rec.span("repro.serve", "JoinService.result", tid=i + 1):
                    resp = await asyncio.wait_for(svc.result(ticket), self.response_timeout)
            except Exception as exc:  # a lost request must not stop the load
                if not isinstance(exc, asyncio.TimeoutError):
                    traceback.print_exc()
                end = time.perf_counter()
                return Served(req, end - due, type(exc).__name__, end=end)
            finally:
                inflight[0] -= 1
            end = time.perf_counter()
            return Served(req, end - due, resp.state, resp, end)

        tasks = []
        for i, (offset, req) in enumerate(plan):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(one(i, due, req)))
        ops = list(await asyncio.gather(*tasks))
        # answers are digested after the load, so the digests do not
        # compete with the service for the interpreter
        for i, op in enumerate(ops):
            resp, op.response = op.response, None
            if resp is not None and resp.ok:
                op.digest = self.answer(resp.result.pairs, first_op and i == 0)
                op.pairs = resp.result.num_pairs
                op.pair_bytes = int(resp.result.pairs.nbytes)
                op.rounds = getattr(resp.result, "rounds", 0)
        return ops, {"lag_max": max(lags, default=0.0), "inflight_max": inflight[1],
                     "start": start}

    def cross_checks(self) -> list[Op]:
        """Fill each served answer's expected digest from a direct run of the
        same request: ``Runner`` for joins, ``repro.apps.knn.knn`` for kNN."""
        from repro import GridIndex, Runner, compile_self_join, compile_similarity_join
        from repro.apps.knn import knn

        expected: dict[tuple, dict] = {}
        for op, req in self.served:
            key = (req.kind, req.dataset, req.epsilon, req.query_dataset, req.k)
            if key not in expected:
                points = self.data[req.dataset]
                if req.kind == "knn":
                    result = knn(points, req.k, runtime=req.runtime, epsilon0=req.epsilon)
                else:
                    index = GridIndex(points, req.epsilon)
                    plan = (
                        compile_self_join(index, req.runtime)
                        if req.kind == "self"
                        else compile_similarity_join(
                            index, self.data[req.query_dataset], req.runtime
                        )
                    )
                    result = Runner().run(plan)
                expected[key] = pair_digest(result.pairs)
            op.expect = expected[key]
        return []

    def layer_metrics(self, rec):
        done = [o for o in self.ops if o.state == "done"]
        queue = [o.queue_s for o in done]
        out = {
            "serve.queue_s_p50": quantile(queue, 0.5),
            "serve.queue_s_p90": quantile(queue, 0.9),
            "serve.cache_hit_rate": sum(o.cache_hit for o in self.ops) / len(self.ops),
            "serve.inflight_max": self.stats["inflight_max"],
            "serve.rejected": sum(1 for o in self.ops if o.state == "rejected"),
            "serve.generator_lag_s": self.stats["lag_max"],
            "apps.knn_rounds": max((o.rounds for o in done if o.kind == "knn"), default=0),
            "runtime.pairs": sum(o.pairs for o in done),
            "runtime.pair_bytes": sum(o.pair_bytes for o in done),
        }
        for kind in ("self", "similarity", "knn"):
            out[f"serve.exec_s.{kind}"] = median([o.execute_s for o in done if o.kind == kind])
        return out

    def close(self):
        if hasattr(self, "loop"):
            self.loop.run_until_complete(self.service.stop())
            self.loop.close()


WORKLOADS = {cls.name: cls for cls in (SkewedSharded, ServeOpen, VmPresets)}
