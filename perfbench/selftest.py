"""Self-test of the benchmark at its smallest size (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload at ``--size tiny`` untraced and traced, and checks
that every end-to-end and per-layer metric is printed by name with its
unit, that every per-layer metric is exercised (non-zero) by at least
one workload, that the traced runs write spans for every layer, and that
the answer checker is not vacuous: a corrupted pair set and a dropped
response must each be counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
#: end-to-end metrics every run prints; BENCHMARK.json gates a subset
PRINTED_END_TO_END = {
    "setup_s", "join_s", "busy_s", "peak_rss_mb", "latency_p50_s", "latency_p90_s",
    "completed_per_s", "slo_met_share", "failed_share",
}
#: per-layer metrics that may legitimately read 0 on every workload
MAY_BE_ZERO = {"serve.rejected"}


def run(workload: str, trace: int, inject: str | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines) -> dict[str, tuple[str, str]]:
    """``{metric: (value, unit)}`` from the ``  name value unit …`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  "):
            out[parts[0]] = (parts[1], parts[2])
    return out


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(e2e) <= PRINTED_END_TO_END, set(e2e) - PRINTED_END_TO_END
    nonzero: set[str] = set()
    traced_layers: set[str] = set()

    for w in (w["name"] for w in spec["workloads"]):
        lines, result = run(w, 0)
        assert result["correct"] and result["failed"] == 0, (w, result)
        assert list(result["metrics"]) == list(e2e), (w, list(result["metrics"]))
        shown = printed(lines)
        missing = PRINTED_END_TO_END - set(shown)
        assert not missing, f"{w}: not printed {missing}"
        for name, m in result["metrics"].items():
            assert m["unit"] == e2e[name] == shown[name][1] and m["value"] != 0, (w, name, m)

        lines, result = run(w, 1)
        assert result["correct"], (w, result)
        assert list(result["metrics"]) == list(per_layer), (w, list(result["metrics"]))
        shown = printed(lines)
        for name, unit in per_layer.items():
            assert shown[name][1] == unit, f"{w}: {name} not printed with its unit"
            if result["metrics"][name]["value"] != 0:
                nonzero.add(name)
        trace_file = next(line.split()[-1] for line in lines if "trace written to" in line)
        events = json.loads(Path(trace_file).read_text())["traceEvents"]
        traced_layers |= {e["cat"] for e in events}

    missing = [n for n in per_layer if n not in nonzero and n not in MAY_BE_ZERO]
    assert not missing, f"per-layer metrics no workload exercised: {missing}"
    assert set(LAYERS) <= traced_layers, f"no spans for {set(LAYERS) - traced_layers}"

    for workload, inject in (("skewed-sharded", "corrupt"), ("skewed-sharded", "drop"),
                             ("vm-presets", "corrupt"), ("serve-open", "corrupt"),
                             ("serve-open", "drop")):
        lines, result = run(workload, 0, inject)
        assert not result["correct"] and result["failed"] >= 1, (workload, inject, result)
        assert float(printed(lines)["failed_share"][0]) > 0, (workload, inject)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
