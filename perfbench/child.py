"""One workload in a fresh process, so its peak RSS is its own.

Started by ``run.py``; writes a JSON report to ``--out``. With
``--mode setup`` it only imports the program and performs the
workload's set-up (one ``setup_s`` sample); with ``--mode full`` it also
warms up, runs the timed phases and, with ``--trace 1``, a traced phase
whose spans are written as a Chrome trace next to the report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: program modules each workload imports; their import time is set-up
PROGRAM_IMPORTS = {
    "skewed-sharded": ("repro", "repro.runtime", "repro.core", "repro.grid", "repro.io"),
    "serve-open": ("repro", "repro.runtime", "repro.serve", "repro.apps.knn"),
    "vm-presets": ("repro", "repro.runtime", "repro.core", "repro.grid"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(PROGRAM_IMPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "full"), default="full")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject", choices=("corrupt", "drop"), default=None)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    for module in PROGRAM_IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0

    import repro

    src = (Path.cwd() / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 3

    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    wl = WORKLOADS[args.workload](args.size, args.seed, workdir, args.inject)
    try:
        wl.make_inputs()
        t = time.perf_counter()
        wl.setup()
        report = {"setup_s": import_s + time.perf_counter() - t}
        if args.mode == "full":
            report.update(_measure(wl, args))
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report["parent_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    # RUSAGE_CHILDREN's ru_maxrss is the largest single reaped child
    report["worker_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    Path(args.out).write_text(json.dumps(report))
    return 0


def _measure(wl, args) -> dict:
    from spans import Recorder
    from workloads import median

    wl.warmup()
    phases = [(args.seconds, False)]
    if args.trace:
        phases = [(args.seconds / 2, False), (args.seconds / 2, True)]
    traced = Recorder(True)
    runs = []
    for i, (budget, on) in enumerate(phases):
        ops, figures = wl.run_phase(budget, traced if on else Recorder(False), first_op=i == 0)
        runs.append((on, ops, figures))
    layers = wl.layer_metrics(traced) if args.trace else {}
    checks = wl.cross_checks()
    out = {
        "slo_seconds": wl.slo_seconds,
        "notes": wl.notes,
        "checks": [c.to_json() for c in checks],
        "phases": [
            {"traced": on, "ops": [o.to_json() for o in ops], "figures": figures}
            for on, ops, figures in runs
        ],
    }
    if args.trace:
        (_, ops0, figures0), (_, ops1, figures1) = runs
        layers["trace.overhead_join_s"] = figures1["join_s"] - figures0["join_s"]
        layers["trace.overhead_latency_p50_s"] = median(
            [o.latency for o in ops1 if o.state == "done"]
        ) - median([o.latency for o in ops0 if o.state == "done"])
        for layer, seconds in traced.self_seconds().items():
            layers[f"self_s.{layer}"] = seconds
        trace_path = Path(args.out).with_suffix(".trace.json")
        traced.write_chrome_trace(trace_path)
        out["trace_file"] = str(trace_path)
        out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())
