"""Record the benchmark's baseline, ``out/BENCH_e2e.json``.

Runs every workload five times untraced (seeds 1-5) and once traced
(seed 1).  For each end-to-end and reported-only number it writes the
median, the quartiles and the raw values, and it keeps the traced run's
per-layer table.  Workloads that ``BENCHMARK.json`` does not gate
(``group-sweep`` and the service ones) are marked so.  Takes about twenty
minutes at full scale.
From the repository root::

    python3 benchmarks/e2e/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

from run import HERE, ROOT, RUN_BUDGET_S, WORKLOADS, Runner, run_one

SEEDS = (1, 2, 3, 4, 5)


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {entry["name"] for entry in contract["workloads"]}
    seconds = contract["run_seconds"]
    runs_per_workload = len(SEEDS) + 1
    runner = Runner("full", time.monotonic() + RUN_BUDGET_S * runs_per_workload * len(WORKLOADS))
    out = {
        "hardware": f"{platform.machine()}, {os.cpu_count()} vCPUs, Linux {platform.release()}",
        "python": platform.python_version(),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {},
    }
    try:
        for workload in WORKLOADS:
            runs = [run_one(runner, workload, seed, seconds, False, HERE / "golden")
                    for seed in SEEDS]
            traced, _ = run_one(runner, workload, SEEDS[0], seconds, True, HERE / "golden")
            if not all(result["correct"] for result, _ in runs) or not traced["correct"]:
                print(f"{workload}: incorrect output", file=sys.stderr)
                return 1
            first = runs[0][0]["metrics"]
            out["workloads"][workload] = {
                "gated": workload in gated,
                "end_to_end": {
                    name: dict(unit=first[name]["unit"], **summary(
                        [result["metrics"][name]["value"] for result, _ in runs]))
                    for name in first
                },
                "reported": {
                    name: summary([info[name] for _, info in runs])
                    for name in runs[0][1]
                },
                "per_layer": traced["metrics"],
                "attempted": sum(result["attempted"] for result, _ in runs),
                "failed": sum(result["failed"] for result, _ in runs),
            }
    finally:
        runner.close()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "BENCH_e2e.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
