"""Device-level load-balance metrics, mirroring :mod:`repro.simt.metrics`.

The paper's headline metric, warp execution efficiency, is
``active lane-cycles / (warp_size × warp cycles)`` — the fraction of the
warp's lane-time that did useful work. The pool analogue is **device
execution efficiency**:

    DEE = Σ_d busy_d / (num_devices × makespan)

the fraction of the pool's device-time that ran kernels rather than
idling at the tail of an unbalanced schedule. A perfectly level plan
approaches 1.0; one straggler device drags DEE toward 1/N exactly the way
one hot lane drags WEE toward 1/32 (Tables III–VI, one level up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.multigpu.scheduler import PRODUCTIVE_KINDS, ScheduleTrace
from repro.util import Table, format_seconds

__all__ = ["DeviceStats", "PoolStats", "pool_stats_from_trace"]


@dataclass(frozen=True)
class DeviceStats:
    """One device's accounting over a pool run."""

    device_id: int
    num_shards: int
    busy_seconds: float
    kernel_seconds: float
    num_pairs: int

    def utilization(self, makespan: float) -> float:
        """Fraction of the run this device spent busy."""
        if makespan == 0:
            return 1.0
        return self.busy_seconds / makespan


@dataclass(frozen=True)
class PoolStats:
    """Pool-wide load-balance metrics of one multi-device run."""

    devices: list[DeviceStats]
    makespan_seconds: float
    schedule_mode: str = ""
    planner: str = ""

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def total_busy_seconds(self) -> float:
        return float(sum(d.busy_seconds for d in self.devices))

    @property
    def device_execution_efficiency(self) -> float:
        """The WEE analogue: busy device-time over allocated device-time."""
        if self.makespan_seconds == 0 or self.num_devices == 0:
            return 1.0
        return self.total_busy_seconds / (self.num_devices * self.makespan_seconds)

    @property
    def busy_imbalance(self) -> float:
        """Max/mean device busy time — 1.0 is a perfectly level finish
        (the device-level twin of ``ScheduleResult.slot_imbalance``)."""
        busy = np.array([d.busy_seconds for d in self.devices])
        mean = busy.mean() if len(busy) else 0.0
        if mean == 0:
            return 1.0
        return float(busy.max() / mean)

    def render(self) -> str:
        label = f"{self.planner}/{self.schedule_mode}".strip("/")
        t = Table(
            ["device", "shards", "busy", "kernel", "pairs", "util (%)"],
            title=f"Pool run ({label})" if label else "Pool run",
        )
        for d in self.devices:
            t.add_row(
                [
                    d.device_id,
                    d.num_shards,
                    format_seconds(d.busy_seconds),
                    format_seconds(d.kernel_seconds),
                    d.num_pairs,
                    f"{100 * d.utilization(self.makespan_seconds):.1f}",
                ]
            )
        footer = (
            f"makespan {format_seconds(self.makespan_seconds)}  |  device "
            f"execution efficiency {100 * self.device_execution_efficiency:.1f}%  |  "
            f"busy imbalance {self.busy_imbalance:.2f}"
        )
        return t.render() + "\n" + footer

    def __str__(self) -> str:  # pragma: no cover
        return self.render()


def pool_stats_from_trace(
    trace: ScheduleTrace,
    shard_results: list,
    *,
    planner: str = "",
) -> PoolStats:
    """Aggregate a scheduler trace plus per-shard results into pool stats.

    ``shard_results`` is indexed by shard id (the scheduler's return);
    ``kernel_seconds`` sums each shard's kernel-only time onto its device.
    """
    kernel_by_shard = np.array(
        [float(getattr(r, "kernel_seconds", 0.0)) if r is not None else 0.0
         for r in shard_results]
    )
    per_device: dict[int, dict] = {
        d: {"shards": 0, "busy": 0.0, "kernel": 0.0, "pairs": 0}
        for d in range(trace.num_devices)
    }
    for e in trace.events:
        if not e.ran:
            continue
        acc = per_device[e.device_id]
        acc["shards"] += 1
        acc["busy"] += e.duration_seconds
        acc["pairs"] += e.num_pairs
        # failed/cancelled attempts burned busy time but their kernel work
        # produced nothing — only the surviving attempt carries the shard's
        # kernel seconds, so attribution stays retry-count independent
        if e.kind in PRODUCTIVE_KINDS and e.shard_id < len(kernel_by_shard):
            acc["kernel"] += kernel_by_shard[e.shard_id]
    devices = [
        DeviceStats(
            device_id=d,
            num_shards=acc["shards"],
            busy_seconds=acc["busy"],
            kernel_seconds=acc["kernel"],
            num_pairs=acc["pairs"],
        )
        for d, acc in sorted(per_device.items())
    ]
    return PoolStats(
        devices=devices,
        makespan_seconds=trace.makespan_seconds,
        schedule_mode=trace.mode,
        planner=planner,
    )
