"""One measured unit of one workload, in a fresh interpreter.

``run.py`` starts this script once per unit, because the formulation memo
of :mod:`repro.runner.tasks` and ``repro.perf.PERF`` live for the whole
process: a second pass in the same interpreter would skip work the first
one did.  The single argument is a JSON object (see ``run.py``); the last
line of standard output is the unit's result as JSON.

Pipeline units start a :class:`speed.SpeedProbe` before they import the
system under test, and report each time twice: as measured (``raw_*``) and
rescaled to the reference speed, which ``run.py`` reports as the end-to-end
metric.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from speed import SpeedProbe


def sweep_unit(w, args, work: Path, probe: SpeedProbe) -> dict:
    from spans import Tracer

    scale = w.SCALES[args["scale"]]
    setup_tracer = Tracer()
    inputs = w.sweep_inputs(args["workload"], scale, args["seed"], setup_tracer)

    def setup_times() -> dict:
        # Every probe sample so far was taken during set-up.
        raw = time.monotonic() - args["spawn"]
        return {"raw_setup_s": [raw],
                "setup_s": [raw / probe.slowdown(float("-inf"), time.perf_counter())]}

    if args["mode"] == "setup":
        return setup_times()
    rerun = args["kind"] == "rerun"
    populate = w.sweep_pass(inputs, work / "cache", work / "runs") if rerun else None
    setup = setup_times()

    tracer = Tracer()
    if args["trace"]:
        w.trace_layers(tracer)
    counters0 = w.perf_counters()
    lp_solves0 = w.PERF.get("lp.solve")
    passes = []
    window_start = time.perf_counter()
    try:
        while not passes or (rerun and time.perf_counter() - window_start < args["seconds"]):
            passes.append(w.sweep_pass(inputs, work / "cache", work / "runs"))
    finally:
        tracer.unwrap_all()
    counters = {k: v - counters0[k] for k, v in w.perf_counters().items()}

    problems = []
    if rerun:
        if w.PERF.get("lp.solve") != lp_solves0 or any(p["executed"] for p in passes):
            problems.append("a rerun executed tasks instead of serving them from the cache")
        for p in passes:
            if p["bounds"] != populate["bounds"] or p["sim_costs"] != populate["sim_costs"]:
                problems.append("a rerun served results that differ from the populate pass")
                break
    result = {
        **setup,
        "raw_pass_s": [p["wall_s"] for p in passes],
        "pass_s": [probe.normalize(p["start"], p["wall_s"]) for p in passes],
        "op_ms": [s * 1000.0 for p in passes for s in p["op_s"]],
        "peak_rss_mb": w.peak_rss_mb(),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "audit_violations": sum(p["audit_violations"] for p in passes),
        "audit_messages": [m for p in passes for m in p["audit_messages"]],
        "gap_max": max(p["gap_max"] for p in passes),
        "bounds": [p["bounds"] for p in passes],
        "problems": problems,
    }
    if args["trace"]:
        result["layers"] = w.sweep_layers(tracer, passes, counters)
        result["layers"]["setup.inputs.self_s"] = setup_tracer.self_times()["setup.inputs"]
        _write_spans(args, tracer, result["layers"], w.EXPECTED_LAYERS[args["workload"]])
    return result


def serve_unit(w, args, work: Path) -> dict:
    scale = w.SCALES[args["scale"]]
    if args["mode"] == "golden":
        return w.serve_golden(args["workload"], scale, work)
    return w.serve_unit(
        args["workload"], scale, args["seed"], args["seconds"], work,
        traced=args["trace"], setup_samples=args["setup_samples"],
    )


def _write_spans(args, tracer, layers, expected_layers) -> None:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args['workload']}.json"
    path.write_text(json.dumps({
        "workload": args["workload"], "seed": args["seed"], "scale": args["scale"],
        "self_s": tracer.self_times(), "calls": tracer.calls(), "fired": tracer.fired,
        "expected_layers": sorted(expected_layers), "layers": layers,
        "spans": [s.to_dict() for s in tracer.spans],
    }))


def main() -> int:
    args = json.loads(sys.argv[1])
    if args["kind"] == "serve":
        # The server does the work in its own process, where no probe runs.
        import workloads as w

        result = serve_unit(w, args, Path(args["work"]))
    else:
        probe = SpeedProbe()
        import workloads as w

        result = sweep_unit(w, args, Path(args["work"]), probe)
        probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
