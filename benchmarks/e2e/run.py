"""End-to-end benchmark: the paper's pipeline and the placement service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload web-sweep --seed 1 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e            # every workload

Each measured unit runs in a fresh interpreter (``worker.py``).  The
pipeline workloads time one sweep -> rounding -> replay -> post-hoc audit
pass per unit through the public library API, and rescale their times to
a reference speed with ``speed.py``'s probe; the service workloads load a
``repro serve`` subprocess from one process with at most two sender
threads (``BENCHMARK.json`` gates ``web-sweep``, ``web-drift`` and
``web-rerun`` only; README.md says why).  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced unit, measured next to an untraced one so
the tracing overhead shows.
Outputs are checked against ``golden/<workload>.json`` and the audit; any
mismatch exits 1.

Standard library only: the system under test is imported by the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # ``python -m benchmarks.e2e`` runs this file by path
    sys.path.insert(0, str(HERE))

from load import percentile  # noqa: E402

ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: name -> kind: ``sweep`` (one pipeline pass per unit), ``rerun`` (the
#: pipeline served from a warm cache) or ``serve`` (the HTTP service).
WORKLOADS = {
    "web-sweep": "sweep",
    "group-sweep": "sweep",
    "web-drift": "sweep",
    "web-rerun": "rerun",
    "serve-read": "serve",
    "serve-solve": "serve",
}

#: Set-up samples per run; ``web-rerun``'s set-up is a whole pipeline pass,
#: so it gets the one its unit measures.
SETUP_SAMPLES = 3

#: End-to-end metrics of the pipeline workloads.  Times are rescaled to the
#: reference speed of ``speed.py``'s probe; the raw ones are reported only.
PIPELINE_END_TO_END = {
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: End-to-end metrics of the service workloads (raw wall clock: the server
#: does the work in a process of its own, where no probe runs).
SERVICE_END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics of the pipeline workloads (spans around library calls).
PIPELINE_LAYERS = {
    "setup.inputs.self_s": "s",
    "assembly.self_s": "s",
    "assembly.calls": "count",
    "retarget.self_s": "s",
    "retarget.calls": "count",
    "lp.cold.self_s": "s",
    "lp.warm.self_s": "s",
    "lp.bootstrap.self_s": "s",
    "lp.solve_p50_ms": "ms",
    "lp.iterations": "count",
    "lp.warm_starts": "count",
    "lp.basis_crashes": "count",
    "lp.warm_degraded": "count",
    "rounding.self_s": "s",
    "audit.inline.self_s": "s",
    "audit.cache_hit.self_s": "s",
    "audit.posthoc.self_s": "s",
    "replay.self_s": "s",
    "replay.requests_per_s": "1/s",
    "sim.serve.fast": "count",
    "sim.serve.scan": "count",
    "sim.cache.repair": "count",
    "digest.self_s": "s",
    "digest.calls": "count",
    "cache.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "codec.self_s": "s",
    "artifacts.self_s": "s",
    "artifacts.bytes": "bytes",
    "runner.self_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_share": "ratio",
}

#: Per-layer metrics of the service workloads (client probes and /stats).
SERVICE_LAYERS = {
    "http.health_rtt_p50_ms": "ms",
    "http.lookup_rtt_p50_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.solve_p50_ms": "ms",
    "service.miss_overhead_p50_ms": "ms",
    "admission.shed": "count",
    "brownout.approx_served": "count",
    "brownout.stale_served": "count",
    "service.deadline_expired": "count",
    "gen.late_p99_ms": "ms",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_share": "ratio",
}

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


class Runner:
    """Starts workers for one invocation and cleans up after them."""

    def __init__(self, scale: str, deadline: float):
        self.scale = scale
        self.deadline = deadline
        self.work_root = HERE / ".work"
        self.count = 0

    def spawn(self, workload: str, seed: int, **fields) -> dict:
        self.count += 1
        work = self.work_root / f"{os.getpid()}-{self.count}"
        work.mkdir(parents=True)
        args = {
            "workload": workload, "kind": WORKLOADS[workload], "seed": seed,
            "scale": self.scale, "mode": "unit", "trace": False, "seconds": 1.0,
            "setup_samples": 1, "work": str(work),
        }
        args.update(fields)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        args["spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(args)],
            stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload}: worker overran the run budget") from None
        finally:
            # The worker leads a process group that also holds any server it
            # started: none may outlive the worker, finished, failed or overran.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def close(self) -> None:
        try:
            self.work_root.rmdir()
        except OSError:
            pass


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> List[dict]:
    """Untraced units until ``seconds`` of measured time, plus set-up samples."""
    kind = WORKLOADS[workload]
    if kind == "serve":
        return [runner.spawn(workload, seed, seconds=seconds, setup_samples=SETUP_SAMPLES)]
    units = [runner.spawn(workload, seed, seconds=seconds)]
    if kind == "sweep":
        while sum(sum(u["raw_pass_s"]) for u in units) < seconds:
            units.append(runner.spawn(workload, seed))
        setups = sum(len(u["setup_s"]) for u in units)
        for _ in range(SETUP_SAMPLES - setups):
            units.append(runner.spawn(workload, seed, mode="setup"))
    return units


def traced(runner: Runner, workload: str, seed: int, seconds: float) -> List[dict]:
    """One untraced and one traced unit, for the layers and the overhead."""
    half = max(1.0, seconds / 2)
    plain = runner.spawn(workload, seed, seconds=half)
    return [plain, runner.spawn(workload, seed, seconds=half, trace=True)]


# -- metrics -----------------------------------------------------------------------


def measured(units: List[dict]) -> List[dict]:
    """The units that ran a measured window (not set-up samples only)."""
    return [u for u in units if "op_ms" in u]


def _median_of(units: List[dict], key: str) -> float:
    return statistics.median([x for u in units for x in u[key]])


def _time_key(unit: dict) -> str:
    """``pass_s`` (rescaled) for pipeline units, ``wall_s`` for service units."""
    return "wall_s" if "wall_s" in unit else "pass_s"


def end_to_end(units: List[dict]) -> Dict[str, float]:
    window = measured(units)
    time_key = _time_key(window[0])
    return {
        time_key: _median_of(window, time_key),
        "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in window]),
        "setup_s": _median_of(units, "setup_s"),
    }


def reported(units: List[dict]) -> Dict[str, object]:
    """Numbers printed for people but not gated (see README.md)."""
    window = measured(units)
    ops = [ms for u in window for ms in u["op_ms"]]
    attempted = sum(u["attempted"] for u in window)
    info: Dict[str, object] = {
        "units": len(window),
        "ops": len(ops),
        "p50_ms": percentile(ops, 50),
        "p90_ms": percentile(ops, 90),
        "p99_ms": percentile(ops, 99),
        "error_share": sum(u["failed"] for u in window) / attempted,
    }
    if "raw_pass_s" in window[0]:
        raw = [x for u in window for x in u["raw_pass_s"]]
        norm = [x for u in window for x in u["pass_s"]]
        info["raw_pass_s"] = statistics.median(raw)
        info["raw_setup_s"] = _median_of(units, "raw_setup_s")
        info["slowdown"] = statistics.median([r / n for r, n in zip(raw, norm)])
    if "audit_violations" in window[0]:
        info["audit_violations"] = sum(u["audit_violations"] for u in window)
        info["rounding_gap_max"] = max(u["gap_max"] for u in window)
    if "goodput_rps" in window[0]:
        info["goodput_rps"] = statistics.median([u["goodput_rps"] for u in window])
        info["exact_share"] = min(u["exact_share"] for u in window)
        info["late_p99_ms"] = percentile([x for u in window for x in u["late_ms"]], 99)
        info["recomputed"] = sum(len(u["recomputed"]) for u in window)
    return info


def end_to_end_names(workload: str) -> Dict[str, str]:
    return SERVICE_END_TO_END if WORKLOADS[workload] == "serve" else PIPELINE_END_TO_END


def layer_names(workload: str) -> Dict[str, str]:
    return SERVICE_LAYERS if WORKLOADS[workload] == "serve" else PIPELINE_LAYERS


def per_layer(workload: str, units: List[dict]) -> Dict[str, float]:
    """The traced unit's layers; layers a workload never ran report 0."""
    plain, traced_unit = units
    layers = dict(traced_unit["layers"])
    time_key = _time_key(plain)
    untraced = statistics.median(plain[time_key])
    overhead = statistics.median(traced_unit[time_key]) - untraced
    layers["trace_overhead_share"] = overhead / untraced
    return {name: float(layers.get(name, 0.0)) for name in layer_names(workload)}


# -- correctness ---------------------------------------------------------------------


def _close(a: Optional[float], b: Optional[float], rel: float = 1e-6) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(1.0, abs(b))


def check(units: List[dict], golden: dict) -> List[str]:
    """Every wrong answer, as a message; empty means correct."""
    problems: List[str] = []
    for unit in units:
        problems += unit.get("problems", [])
        if unit.get("audit_violations"):
            problems.append(f"audit: {unit['audit_violations']} violation(s): "
                            f"{unit['audit_messages']}")
        for bounds in unit.get("bounds", []):
            for cls, expect in golden["bounds"].items():
                got = bounds.get(cls)
                if got is None or len(got) != len(expect) or not all(
                    _close(a, b) for a, b in zip(got, expect)
                ):
                    problems.append(f"golden: {cls} bounds {got} != {expect}")
        if "recomputed" in unit:
            if not unit["daemon_digest_ok"]:
                problems.append("the daemon task rebuilt in-process differs from the server's")
            for key, (served, in_process) in unit["recomputed"].items():
                if not _close(served, in_process):
                    problems.append(f"{key}: served {served}, in-process {in_process}")
                if key in golden["bounds"] and not _close(served, golden["bounds"][key]):
                    problems.append(f"golden: {key} served {served} != {golden['bounds'][key]}")
            for field, expect in golden.get("cost", {}).items():
                if not _close(unit["cost"].get(field), expect):
                    problems.append(f"golden: cost {field} {unit['cost'].get(field)} != {expect}")
    return problems


def load_golden(golden_dir: Path, workload: str, scale: str) -> dict:
    return json.loads((golden_dir / f"{workload}.json").read_text())[scale]


def write_golden(runner: Runner, workload: str, golden_dir: Path) -> None:
    """Record the default seed's answers as the golden file (both scales)."""
    out = {}
    for scale in ("full", "smoke"):
        runner.scale = scale
        if WORKLOADS[workload] == "serve":
            entry = runner.spawn(workload, 1, mode="golden")
            if workload == "serve-read":
                cost = runner.spawn(workload, 1)["cost"]
                entry["cost"] = {k: cost[k] for k in ("serve_cost", "reads", "migration_bytes")}
        else:
            entry = {"bounds": runner.spawn(workload, 1)["bounds"][0]}
        out[scale] = entry
    golden_dir.mkdir(exist_ok=True)
    (golden_dir / f"{workload}.json").write_text(json.dumps(out, indent=1) + "\n")


# -- output -------------------------------------------------------------------------


def render(workload: str, seed: int, metrics: Dict[str, float], units: Dict[str, str],
           info: Dict[str, object], problems: List[str]) -> str:
    lines = [f"== {workload} (seed {seed})"]
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:14.6g} {units[name]}")
    for name, value in info.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:32s} {text:>14s}  (reported only)")
    lines.append("  correct: " + ("yes" if not problems else "NO"))
    lines += [f"    {p}" for p in problems]
    return "\n".join(lines)


def run_one(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
            golden_dir: Path) -> Tuple[dict, Dict[str, object]]:
    """Measure and check one workload: (the result line, reported-only numbers)."""
    if trace:
        units = traced(runner, workload, seed, seconds)
        metrics, names = per_layer(workload, units), layer_names(workload)
    else:
        units = measure(runner, workload, seed, seconds)
        metrics, names = end_to_end(units), end_to_end_names(workload)
    problems = check(units, load_golden(golden_dir, workload, runner.scale))
    info = reported(units)
    print(render(workload, seed, metrics, names, info, problems), flush=True)
    window = measured(units)
    return {
        "correct": not problems,
        "attempted": sum(u["attempted"] for u in window),
        "failed": sum(u["failed"] for u in window),
        "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
    }, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced unit")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--golden", type=Path, default=HERE / "golden",
                        help="directory of golden answers")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's answers as the golden files")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runner = Runner(args.scale, time.monotonic() + RUN_BUDGET_S * len(workloads))
    try:
        if args.write_golden:
            for workload in workloads:
                write_golden(runner, workload, args.golden)
            return 0
        results = {
            w: run_one(runner, w, args.seed, args.seconds, bool(args.trace), args.golden)[0]
            for w in workloads
        }
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
