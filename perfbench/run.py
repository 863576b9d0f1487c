"""Repository benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload skewed-sharded --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``; the ``why`` of each is in BENCHMARK.json):

- ``skewed-sharded``  native self-join of 500k Expo(40) points, mmap input,
  two worker processes, checkpoint journal;
- ``serve-open``      open-loop Poisson load into an in-process JoinService;
- ``vm-presets``      SIMT-VM self-join of 50k Expo points under seven presets.

Each run starts fresh workload processes (``child.py``): a few that only
import the program and set up (their median is ``setup_s``), then one
that warms up and measures for ``--seconds``. The answers are checked
here against the cKDTree oracle (join workloads) or against direct
``Runner`` runs (served requests). With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics; with ``--trace 1``
the workload process also runs a traced phase, writes a Chrome
trace-event file under ``.perfbench/`` and the JSON carries the
per-layer metrics. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import self_join_oracle
from workloads import WORKLOADS, JoinWorkload, quantile

HERE = Path(__file__).resolve().parent
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 7
#: wall-clock budget of one whole run, seconds
RUN_LIMIT = 170.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem size; tiny is for the benchmark self-test")
    ap.add_argument("--inject", choices=("corrupt", "drop"), default=None,
                    help="self-test only: corrupt or drop the first answer")
    return ap.parse_args(argv)


class BenchError(RuntimeError):
    pass


def _child(args, mode: str, workdir: Path, deadline: float) -> dict:
    out = workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{mode}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--size", args.size, "--workdir", str(workdir), "--out", str(out),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the run's time limit") from exc
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    report = json.loads(out.read_text())
    out.unlink()
    return report


def _oracle(args) -> dict | None:
    """cKDTree digest of the join workloads' answer (outside any timing)."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    wl = WORKLOADS[args.workload](args.size, args.seed, None, None)
    if not isinstance(wl, JoinWorkload):
        return None
    wl.make_inputs()
    return self_join_oracle(wl.data, wl.epsilon)


def _evaluate(report, oracle) -> tuple[int, int]:
    """Mark every operation and cross-check ok or failed; ``(attempted, failed)``.

    An operation fails if it did not finish ``done`` (rejected, timed out,
    dropped, raised) or if its answer digest differs from the expected one.
    """
    attempted = failed = 0
    for op in [op for ph in report["phases"] for op in ph["ops"]] + report["checks"]:
        expect = op["expect"] if op["expect"] is not None else oracle
        op["ok"] = op["state"] == "done" and op["digest"] == expect
        attempted += 1
        failed += not op["ok"]
    return attempted, failed


def _end_to_end(report, setup_samples, attempted, failed) -> dict:
    """``{name: (value, unit, note)}`` of the end-to-end metrics.

    Computed from the untraced phase. BENCHMARK.json gates ``setup_s``,
    ``join_s``, ``busy_s`` and ``peak_rss_mb``. The others are printed
    only: the latency percentiles of a mix of kinds jump between kinds;
    ``completed_per_s`` follows the offered rate on serve-open and is
    ``1 / join_s`` (times the joins in a pass) on the join workloads;
    ``slo_met_share`` and ``failed_share`` read a constant 1 and 0 on a
    healthy run (``correct`` and ``failed`` gate the answers instead).
    """
    phase = report["phases"][0]
    figures = phase["figures"]
    ops = phase["ops"]
    ok = [op["latency_s"] for op in ops if op["ok"]]
    slo = report["slo_seconds"]
    return {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh-process set-ups"),
        "join_s": (figures["join_s"], "s", report["notes"]["join_s"]),
        "busy_s": (figures["busy_s"], "s", report["notes"]["busy_s"]),
        "peak_rss_mb": (report["parent_rss_mb"] + report["worker_rss_mb"], "MB",
                        f"parent {report['parent_rss_mb']:.1f} + largest worker "
                        f"{report['worker_rss_mb']:.1f}"),
        "latency_p50_s": (quantile(ok, 0.5), "s", f"n={len(ok)} operations"),
        "latency_p90_s": (quantile(ok, 0.9), "s", f"n={len(ok)} operations"),
        "completed_per_s": (figures["completed_per_s"], "1/s",
                            report["notes"]["completed_per_s"]),
        "slo_met_share": (sum(lat <= slo for lat in ok) / len(ops), "share",
                          f"limit {slo:g} s, n={len(ops)}"),
        "failed_share": (failed / attempted, "share",
                         f"{failed} of {attempted} operations and cross-checks failed"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    workdir = Path.cwd() / ".perfbench"
    workdir.mkdir(exist_ok=True)
    try:
        setups = [_child(args, "setup", workdir, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        report = _child(args, "full", workdir, deadline)
        oracle = _oracle(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    attempted, failed = _evaluate(report, oracle)
    e2e = _end_to_end(report, setups, attempted, failed)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<16} {value:12.6g} {unit:<6} {note}")
    if args.trace:
        layers = dict(report["layers"])
        layers["mem.parent_rss_mb"] = report["parent_rss_mb"]
        layers["mem.worker_rss_mb"] = report["worker_rss_mb"]
        print(f"  trace written to {report['trace_file']}")
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {
            m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
