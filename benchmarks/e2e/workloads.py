"""The benchmark's workloads: seeded inputs and one measured unit each.

Imported by ``worker.py`` only, inside a fresh interpreter with ``src/`` on
``sys.path``.  Everything here drives the public library API (or a
``repro serve`` subprocess) and changes nothing under ``src/``.

How ``--seed`` enters the inputs
--------------------------------
LP solve time swings widely between LP instances: on the WEB trace, 31
drift-sized warm re-solves took 7-25 s across trace seeds and 11-50 s across
relabelings of one trace.  A seed that redrew the LPs would bury any change
under that spread.  So the sweeps keep one demand matrix (trace generator
seed 1) and the seed reorders the requests inside each demand interval: the
trace the simulators replay, every cache digest and the run artifacts
change, while every LP -- and so every golden bound -- stays the same.  The
service workloads keep one daemon (workload seed 1) and the seed draws the
query stream: arrival times and the query mix.
"""

from __future__ import annotations

import dataclasses
import json
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import load
from spans import Tracer

import repro.audit
import repro.core.bounds
import repro.core.formulation
import repro.runner.tasks
from repro.analysis.sweep import qos_sweep
from repro.core.classes import FIGURE1_CLASSES, get_class
from repro.core.costs import CostModel
from repro.core.formulation import Formulation
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.lp.model import LinearProgram
from repro.perf import PERF
from repro.runner import (
    BoundTask,
    ContinuousTask,
    ExperimentRunner,
    HeuristicSpec,
    ResultCache,
    RunWriter,
    SimulateTask,
    TaskFailure,
)
from repro.simulator.engine import Simulator
from repro.topology.generators import as_level_topology
from repro.topology.io import load_topology, save_topology
from repro.topology.zones import parse_zones
from repro.workload.demand import DemandMatrix
from repro.workload.generators import group_workload, web_workload
from repro.workload.trace import Request, Trace

TLAT_MS = 150.0
TOPOLOGY_SEED = 2
TRACE_SEED = 1
DAEMON_SEED = 1


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the measured benchmark, ``smoke`` the test."""

    nodes: int
    intervals: int
    web_objects: int
    web_requests_scale: float
    group_objects: int
    group_requests_scale: float
    web_levels: Tuple[float, ...]
    group_levels: Tuple[float, ...]
    classes: Tuple[str, ...]
    drift_classes: Tuple[str, ...]
    drift_levels: Tuple[float, ...]
    #: (heuristic, capacity, replicas) replayed after the sweep.
    sims: Tuple[Tuple[str, int, int], ...]
    serve_nodes: int
    serve_epochs: int
    serve_requests: int
    serve_objects: int
    read_rate: float
    read_burst: int
    solve_classes: Tuple[str, ...]
    solve_levels: Tuple[float, ...]
    solve_rate: float
    solve_burst: int
    #: Sequential client probes per transport measurement (traced runs).
    probes: int


SIMS = (("lru", 10, 2), ("coop-lru", 10, 2), ("greedy-global", 10, 2),
        ("qiu", 10, 3), ("random", 10, 3))

SCALES: Dict[str, Scale] = {
    "full": Scale(
        nodes=20, intervals=8,
        web_objects=80, web_requests_scale=0.15,
        group_objects=40, group_requests_scale=0.05,
        web_levels=(0.90, 0.95, 0.96, 0.99, 0.995),
        group_levels=(0.95, 0.99, 0.995, 0.999),
        classes=tuple(FIGURE1_CLASSES),
        drift_classes=("general", "storage-constrained"),
        drift_levels=tuple(round(0.95 + i * 1e-4, 4) for i in range(41)),
        sims=SIMS,
        serve_nodes=8, serve_epochs=6, serve_requests=400, serve_objects=16,
        read_rate=1000.0, read_burst=24000,
        solve_classes=tuple(FIGURE1_CLASSES[:5]),
        solve_levels=tuple(round(0.80 + i * 0.005, 3) for i in range(20)),
        solve_rate=20.0, solve_burst=600,
        probes=300,
    ),
    "smoke": Scale(
        nodes=8, intervals=4,
        web_objects=12, web_requests_scale=0.02,
        group_objects=8, group_requests_scale=0.01,
        web_levels=(0.90, 0.95),
        group_levels=(0.90, 0.95),
        classes=("general", "storage-constrained", "caching"),
        drift_classes=("general", "storage-constrained"),
        drift_levels=(0.95, 0.9501, 0.9502),
        sims=(("lru", 3, 2), ("qiu", 3, 2)),
        serve_nodes=6, serve_epochs=3, serve_requests=100, serve_objects=8,
        read_rate=200.0, read_burst=200,
        solve_classes=("general", "storage-constrained"),
        solve_levels=(0.80, 0.85, 0.90),
        solve_rate=10.0, solve_burst=20,
        probes=20,
    ),
}

#: Trace family of each pipeline workload (``web-rerun`` replays ``web-sweep``).
FAMILY = {"web-sweep": "web", "group-sweep": "group", "web-drift": "web", "web-rerun": "web"}


# -- sweep inputs --------------------------------------------------------------


def reorder_within_intervals(trace: Trace, intervals: int, seed: int) -> Trace:
    """Shuffle which request takes which timestamp inside each interval.

    The timestamps per interval and the (node, object) mix per interval are
    unchanged, so ``DemandMatrix.from_trace`` -- and every LP -- is too; the
    order the simulators see is new.  Interval assignment mirrors
    ``DemandMatrix`` exactly.
    """
    rng = np.random.default_rng(seed)
    interval_s = trace.duration_s / intervals
    times = np.array([r.time_s for r in trace.requests])
    bins = np.minimum((times / interval_s).astype(np.int64), intervals - 1)
    order = np.arange(len(times))
    for k in range(intervals):
        members = np.flatnonzero(bins == k)
        order[members] = rng.permutation(members)
    reqs = trace.requests
    shuffled = [
        Request(reqs[i].time_s, reqs[j].node, reqs[j].obj, reqs[j].is_write)
        for i, j in enumerate(order)
    ]
    return Trace(shuffled, trace.duration_s, trace.num_nodes, trace.num_objects, trace.name)


@dataclass
class SweepInputs:
    problem: MCPerfProblem
    levels: List[float]
    classes: List[str]
    sims: List[SimulateTask]


def sweep_inputs(workload: str, scale: Scale, seed: int, tracer: Tracer) -> SweepInputs:
    family = FAMILY[workload]
    with tracer.span("setup.inputs"):
        topology = as_level_topology(num_nodes=scale.nodes, seed=TOPOLOGY_SEED)
        if family == "web":
            base = web_workload(
                num_nodes=scale.nodes, num_objects=scale.web_objects,
                populations=topology.populations,
                requests_scale=scale.web_requests_scale, seed=TRACE_SEED,
            )
        else:
            base = group_workload(
                num_nodes=scale.nodes, num_objects=scale.group_objects,
                requests_scale=scale.group_requests_scale, seed=TRACE_SEED,
            )
        trace = reorder_within_intervals(base, scale.intervals, seed)
        demand = DemandMatrix.from_trace(trace, num_intervals=scale.intervals)
    if workload == "web-drift":
        levels, classes, sims = scale.drift_levels, scale.drift_classes, ()
    elif family == "web":
        levels, classes, sims = scale.web_levels, scale.classes, scale.sims
    else:
        levels, classes, sims = scale.group_levels, scale.classes, scale.sims
    problem = MCPerfProblem(
        topology=topology,
        demand=demand,
        goal=QoSGoal(tlat_ms=TLAT_MS, fraction=levels[0]),
        costs=CostModel.paper_defaults(),
        warmup_intervals=1,
    )
    interval_s = trace.duration_s / scale.intervals
    tasks = [
        SimulateTask(
            topology=topology, trace=trace,
            heuristic=HeuristicSpec(name, capacity=capacity, replicas=replicas,
                                    period_s=interval_s, tlat_ms=TLAT_MS),
            tlat_ms=TLAT_MS, warmup_s=interval_s, cost_interval_s=interval_s,
            label=f"simulate[{name}]", audit="fast",
        )
        for name, capacity, replicas in sims
    ]
    return SweepInputs(problem, list(levels), list(classes), tasks)


# -- one pipeline pass -----------------------------------------------------------


class StampedWriter(RunWriter):
    """A RunWriter that also notes when each task's result is recorded."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.answered: List[float] = []

    def record(self, **kwargs) -> None:
        super().record(**kwargs)
        self.answered.append(time.perf_counter())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sweep_pass(inputs: SweepInputs, cache_dir: Path, runs_dir: Path) -> Dict[str, object]:
    """Sweep -> rounding -> replay -> post-hoc audit, through one runner.

    The whole pipeline is submitted at once, so each task's answer latency
    (``op_s``) runs from the start of the pass to the moment its result is
    recorded: its percentiles are the times until that share of the
    answers is in.
    """
    writer = StampedWriter(root=runs_dir)
    runner = ExperimentRunner(jobs=1, cache=ResultCache(cache_dir), artifacts=writer)
    problem = inputs.problem

    def problem_factory(meta):
        goal = dataclasses.replace(problem.goal, fraction=float(meta["qos"]))
        return dataclasses.replace(problem, goal=goal)

    t0 = time.perf_counter()
    sweep = qos_sweep(
        problem, levels=inputs.levels, classes=inputs.classes,
        do_rounding=True, audit="fast", runner=runner,
    )
    sims = []
    if inputs.sims:
        sims = runner.map(inputs.sims)
    run_dir = runner.finalize()
    report = repro.audit.audit_run_dir(run_dir, problem_factory=problem_factory)
    wall = time.perf_counter() - t0

    gaps = [
        r.gap for per_level in sweep.results.values() for r in per_level.values()
        if r.feasible and r.gap is not None
    ]
    failed = len(sweep.failed_cells()) + sum(isinstance(s, TaskFailure) for s in sims)
    return {
        "start": t0,
        "wall_s": wall,
        "op_s": [t - t0 for t in writer.answered],
        "attempted": runner.tasks,
        "failed": failed,
        "executed": runner.executed,
        "cache_hits": runner.cache_hits,
        "cache_misses": runner.cache_misses,
        "bounds": {cls: sweep.series(cls) for cls in sweep.classes},
        "sim_costs": [None if isinstance(s, TaskFailure) else s.total_cost for s in sims],
        "gap_max": max(gaps) if gaps else 0.0,
        "audit_violations": len(report.violations),
        "audit_messages": [str(v) for v in report.violations[:5]],
        "cache_bytes": _dir_bytes(cache_dir),
        "artifact_bytes": _dir_bytes(Path(run_dir)),
    }


# -- layer tracing -----------------------------------------------------------------

#: PERF counters reported per layer, as (metric, counter).
PERF_COUNTERS = (
    ("lp.iterations", "lp.simplex.iterations"),
    ("lp.warm_starts", "lp.simplex.warm_starts"),
    ("lp.basis_crashes", "lp.simplex.basis_crash"),
    ("lp.warm_degraded", "lp.simplex.warm_degraded"),
    ("sim.serve.fast", "sim.serve.fast"),
    ("sim.serve.scan", "sim.serve.scan"),
    ("sim.cache.repair", "sim.cache.repair"),
)

#: Layers each sweep workload must exercise; ``lp.warm``/``lp.bootstrap``
#: are the warm-start path only drift-sized re-targets take.
EXPECTED_LAYERS = {
    "web-sweep": {"assembly", "retarget", "lp.cold", "rounding", "audit.inline",
                  "audit.posthoc", "replay", "digest", "cache", "codec",
                  "artifacts", "runner"},
    "web-drift": {"assembly", "retarget", "lp.cold", "lp.warm", "lp.bootstrap",
                  "rounding", "audit.inline", "audit.posthoc", "digest", "cache",
                  "codec", "artifacts", "runner"},
    "web-rerun": {"audit.cache_hit", "audit.posthoc", "digest", "cache", "codec",
                  "artifacts", "runner"},
}
EXPECTED_LAYERS["group-sweep"] = EXPECTED_LAYERS["web-sweep"]


def _lp_kind():
    """Name an LP span by the warm-start counters it moved."""
    warm0 = PERF.get("lp.simplex.warm_starts")
    crash0 = PERF.get("lp.simplex.basis_crash")

    def kind() -> str:
        if PERF.get("lp.simplex.basis_crash") > crash0:
            return "lp.bootstrap"
        if PERF.get("lp.simplex.warm_starts") > warm0:
            return "lp.warm"
        return "lp.cold"

    return kind


def _task_label(task, *args, **kwargs) -> str:
    return task.label


def trace_layers(tracer: Tracer) -> None:
    """Wrap every layer's public callables at the names callers use."""
    tracer.wrap(repro.core.bounds, "build_formulation", "assembly")
    tracer.wrap(repro.core.formulation, "build_formulation", "assembly")
    tracer.wrap(Formulation, "set_qos_fraction", "retarget")
    tracer.wrap(LinearProgram, "solve", "lp", classify=_lp_kind)
    tracer.wrap(repro.core.bounds, "round_solution", "rounding")
    tracer.wrap(repro.audit, "audit_lp_solution", "audit.inline")
    tracer.wrap(repro.audit, "audit_rounding", "audit.inline")
    tracer.wrap(repro.audit, "audit_run_dir", "audit.posthoc")
    for task_cls in (BoundTask, SimulateTask):
        tracer.wrap(task_cls, "run", None, cell=_task_label)
        tracer.wrap(task_cls, "audit_cached", "audit.cache_hit", cell=_task_label)
        tracer.wrap(task_cls, "encode", "codec")
        tracer.wrap(task_cls, "decode", "codec")
    tracer.wrap(Simulator, "run", "replay",
                count=lambda sim: {"replay.requests": len(sim.trace)})
    tracer.wrap(repro.runner.tasks, "digest_of", "digest")
    for attr in ("load_entry", "store", "quarantine"):
        tracer.wrap(ResultCache, attr, "cache")
    for attr in ("plan", "record", "finalize"):
        tracer.wrap(RunWriter, attr, "artifacts")
    tracer.wrap(ExperimentRunner, "map", "runner")


def sweep_layers(tracer: Tracer, passes: List[Dict[str, object]],
                 counters: Dict[str, int]) -> Dict[str, float]:
    """Per-pass layer metrics from a traced window of ``len(passes)`` passes."""
    n = len(passes)
    selfs = tracer.self_times()
    calls = tracer.calls()

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0) / n

    lp_ms = [d * 1000.0 for d in tracer.durations("lp.")]
    replay_s = sum(tracer.durations("replay"))
    hits = sum(p["cache_hits"] for p in passes)
    misses = sum(p["cache_misses"] for p in passes)
    wall = sum(p["wall_s"] for p in passes)
    layers = {
        "assembly.self_s": self_s("assembly"),
        "assembly.calls": calls.get("assembly", 0) / n,
        "retarget.self_s": self_s("retarget"),
        "retarget.calls": calls.get("retarget", 0) / n,
        "lp.cold.self_s": self_s("lp.cold"),
        "lp.warm.self_s": self_s("lp.warm"),
        "lp.bootstrap.self_s": self_s("lp.bootstrap"),
        "lp.solve_p50_ms": load.percentile(lp_ms, 50) if lp_ms else 0.0,
        "rounding.self_s": self_s("rounding"),
        "audit.inline.self_s": self_s("audit.inline"),
        "audit.cache_hit.self_s": self_s("audit.cache_hit"),
        "audit.posthoc.self_s": self_s("audit.posthoc"),
        "replay.self_s": self_s("replay"),
        "replay.requests_per_s": (
            tracer.counts["replay.requests"] / replay_s if replay_s else 0.0
        ),
        "digest.self_s": self_s("digest"),
        "digest.calls": calls.get("digest", 0) / n,
        "cache.self_s": self_s("cache"),
        "cache.hits": hits / n,
        "cache.misses": misses / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes": sum(p["cache_bytes"] for p in passes) / n,
        "codec.self_s": self_s("codec"),
        "artifacts.self_s": self_s("artifacts"),
        "artifacts.bytes": sum(p["artifact_bytes"] for p in passes) / n,
        "runner.self_s": self_s("runner"),
        "unattributed_s": (wall - sum(selfs.values())) / n,
        "traced_wall_s": wall / n,
    }
    for metric, _counter in PERF_COUNTERS:
        layers[metric] = counters.get(metric, 0) / n
    return layers


def perf_counters() -> Dict[str, int]:
    return {metric: PERF.get(counter) for metric, counter in PERF_COUNTERS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the placement service ----------------------------------------------------------


@dataclass
class Server:
    """One ``repro serve`` subprocess, run to its final epoch."""

    proc: subprocess.Popen
    state_dir: Path
    setup_s: float
    host: str = ""
    port: int = 0

    @staticmethod
    def start(topology_path: Path, state_dir: Path, scale: Scale, log_path: Path) -> "Server":
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "-t", str(topology_path), "--heuristic", "qiu",
            "--epochs", str(scale.serve_epochs), "--epoch-length", "600",
            "--requests", str(scale.serve_requests),
            "--objects", str(scale.serve_objects), "--zones", "3",
            "--snapshot-every", "2", "--seed", str(DAEMON_SEED),
            "--state-dir", str(state_dir),
        ]
        t0 = time.monotonic()
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=log)
        server = Server(proc, state_dir, 0.0)
        done = state_dir / "result.json"
        deadline = t0 + 60.0
        while not done.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                server.stop()
                raise RuntimeError(f"repro serve did not finish its epochs (see {log_path})")
            time.sleep(0.005)
        server.setup_s = time.monotonic() - t0
        endpoint = json.loads((state_dir / "endpoint.json").read_text())
        server.host, server.port = endpoint["host"], int(endpoint["port"])
        return server

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve_task(topology_path: Path, scale: Scale) -> ContinuousTask:
    """The daemon's task exactly as ``repro serve`` builds it from our flags."""
    topology = load_topology(topology_path)
    topology = dataclasses.replace(topology, zones=parse_zones("3", topology.num_nodes))
    return ContinuousTask(
        topology=topology,
        heuristic=HeuristicSpec(name="qiu", capacity=10, replicas=2,
                                period_s=600.0 / 8.0, tlat_ms=TLAT_MS),
        epochs=scale.serve_epochs, epoch_s=600.0,
        requests_per_epoch=scale.serve_requests, num_objects=scale.serve_objects,
        drift=0.25, workload_seed=DAEMON_SEED, tlat_ms=TLAT_MS,
        cost_interval_s=600.0, alpha=1.0, beta=1.0,
    )


def recompute_bound(task: ContinuousTask, traces, key: Tuple[str, float, int]) -> Optional[float]:
    """The service's bound answer for ``key``, solved in-process and cold."""
    cls, qos, epoch = key
    problem = MCPerfProblem(
        topology=task.topology,
        demand=DemandMatrix.from_trace(traces[epoch], num_intervals=4),
        goal=QoSGoal(tlat_ms=task.tlat_ms, fraction=qos, scope=GoalScope.PER_USER),
        costs=CostModel(alpha=task.alpha, beta=task.beta),
    )
    result = BoundTask(problem=problem, properties=get_class(cls).properties).run()
    return result.lp_cost if result.feasible else None


def serve_golden(workload: str, scale: Scale, work: Path) -> Dict[str, object]:
    """Every bound ``workload`` can ask for, solved in-process."""
    topology_path = work / "topology.json"
    save_topology(as_level_topology(num_nodes=scale.serve_nodes, seed=TOPOLOGY_SEED),
                  topology_path)
    task = serve_task(topology_path, scale)
    traces = task.materialize()[0]
    last = scale.serve_epochs - 1
    keys = [("general", 0.9, last)] if workload == "serve-read" else solve_keys(scale)
    return {"bounds": {
        "|".join(map(str, key)): recompute_bound(task, traces, key) for key in keys
    }}


def solve_keys(scale: Scale) -> List[Tuple[str, float, int]]:
    return [
        (cls, qos, epoch)
        for cls in scale.solve_classes
        for qos in scale.solve_levels
        for epoch in range(scale.serve_epochs)
    ]


def _bound_query(key: Tuple[str, float, int]) -> Dict[str, object]:
    return {"kind": "bound", "class": key[0], "qos": key[1], "epoch": key[2]}


@dataclass
class Stream:
    """The query stream of one service workload."""

    warmup: List[Tuple[str, Dict[str, object]]]
    nominal: List[Tuple[float, str, Dict[str, object]]]
    burst: List[Tuple[str, Dict[str, object]]]
    connections: int


def query_stream(workload: str, scale: Scale, seed: int, nominal_s: float) -> Stream:
    """Warm-up, the nominal-rate step and the saturation burst.

    Nominal arrivals are a Poisson process conditioned on its count
    (``rate * nominal_s`` uniform times), so every seed sends the same
    number of queries.  ``serve-read`` draws its query mix from the seed.
    ``serve-solve`` keeps one key order for every seed and one connection:
    a class's warm-start cost depends on which solve of that class came
    before it, and a seeded order (or two solves finishing in either order)
    moved the burst's capacity by up to a quarter.
    """
    rng = random.Random(seed)
    last = scale.serve_epochs - 1
    if workload == "serve-read":
        bound = ("bound", _bound_query(("general", 0.9, last)))
        mix = [("placement", {"kind": "placement"})] * 2 + [("cost", {"kind": "cost"}), bound]
        warmup = mix[1:]
        rate, burst, connections = scale.read_rate, scale.read_burst, 2
        draw = lambda: rng.choice(mix)  # noqa: E731
    else:
        keys = solve_keys(scale)
        order = random.Random(0)
        # Prime each class's warm-start store outside the measured keys, so
        # the window measures steady-state solves, not first-solve bootstraps.
        warmup = [("bound", _bound_query((cls, 0.9, last))) for cls in scale.solve_classes]
        rate, burst, connections = scale.solve_rate, scale.solve_burst, 1
        draw = lambda: ("bound", _bound_query(order.choice(keys)))  # noqa: E731
    times = sorted(rng.uniform(0.0, nominal_s) for _ in range(round(rate * nominal_s)))
    nominal = [(t,) + draw() for t in times]
    return Stream(warmup, nominal, [draw() for _ in range(burst)], connections)


def _requests(server: Server, entries) -> List[load.Request]:
    out = []
    for entry in entries:
        due, (kind, query) = (entry[0], entry[1:]) if len(entry) == 3 else (0.0, entry)
        out.append(load.Request(due, kind, load.query_bytes(server.host, server.port, query),
                                parse=kind == "bound"))
    return out


def _stats(server: Server) -> Dict[str, object]:
    return load.get_json(server.host, server.port, "/stats")


def _service_counters(stats: Dict[str, object]) -> Dict[str, float]:
    cache = stats["cache"]
    return {
        "hits": cache["hits"], "misses": cache["misses"],
        "coalesced": cache["coalesced"],
        "deadline_expired": cache["deadline_expired"],
        "shed": stats["admission"]["shed"],
        "approx_served": stats["brownout"]["approx_served"],
        "stale_served": stats["brownout"]["stale_served"],
    }


def serve_unit(workload: str, scale: Scale, seed: int, seconds: float, work: Path,
               traced: bool, setup_samples: int) -> Dict[str, object]:
    """Set the service up ``setup_samples`` times, then load the last one."""
    topology_path = work / "topology.json"
    save_topology(as_level_topology(num_nodes=scale.serve_nodes, seed=TOPOLOGY_SEED),
                  topology_path)
    setups = []
    for i in range(setup_samples):
        server = Server.start(topology_path, work / f"state{i}", scale, work / "serve.log")
        setups.append(server.setup_s)
        if i + 1 < setup_samples:
            server.stop()
    try:
        stream = query_stream(workload, scale, seed, nominal_s=0.6 * seconds)
        result = _drive(server, stream, scale, traced)
        result["peak_rss_mb"] = server.peak_rss_mb()
        # The daemon rebuilt in-process must match the server's own task
        # digest, or the recomputed answers below would check another problem.
        result["daemon_digest"] = _stats(server)["checkpoint"]["task"]
    finally:
        server.stop()
    task = serve_task(topology_path, scale)
    result["daemon_digest_ok"] = result.pop("daemon_digest") == task.cache_key()
    result["setup_s"] = setups
    result["recomputed"] = _recompute_sample(result.pop("answers"), task, seed)
    return result


def _drive(server: Server, stream: Stream, scale: Scale, traced: bool) -> Dict[str, object]:
    host, port = server.host, server.port
    _, warm = load.run_phase(host, port, _requests(server, stream.warmup), threads=1,
                             timeout_s=60.0)
    before = _stats(server) if traced else None
    _, nominal = load.run_phase(host, port, _requests(server, stream.nominal),
                                threads=stream.connections)
    burst_start, burst = load.run_phase(host, port, _requests(server, stream.burst),
                                        threads=stream.connections)
    burst_wall = max(o.done for o in burst) - burst_start
    everything = warm + nominal + burst
    answered = [o for o in nominal if o.ok]
    latencies = [o.latency_ms for o in answered]
    bound_answers = [o.answer for o in everything if o.ok and o.answer is not None]
    exact = [a for a in bound_answers if not a.get("approx") and not a.get("stale")]
    good_burst = [o for o in burst if o.ok and not (o.answer or {}).get("stale")]
    result: Dict[str, object] = {
        "wall_s": [burst_wall],
        "op_ms": latencies,
        "late_ms": [o.late_ms for o in nominal],
        "attempted": len(everything),
        "failed": sum(not o.ok for o in everything),
        "goodput_rps": len(good_burst) / burst_wall,
        "exact_share": len(exact) / len(bound_answers) if bound_answers else 1.0,
        "answers": [
            (a["class"], a["qos"], a["epoch"], a["lp_cost"],
             bool(a.get("approx") or a.get("stale")))
            for a in bound_answers
        ],
    }
    if traced:
        layers = _service_layers(server, before, _stats(server), nominal + burst,
                                 scale.probes, result["late_ms"])
        # The server is another process: no span here covers the burst.
        layers["traced_wall_s"] = layers["unattributed_s"] = burst_wall
        result["layers"] = layers
    result["cost"] = json.loads(
        load.exchange(host, port, load.query_bytes(host, port, {"kind": "cost"}), 10.0)[1]
    )
    return result


def _service_layers(server, before, after, outcomes, probes, late_ms):
    """Service-side numbers over the window, from /stats deltas and answers."""
    c0, c1 = _service_counters(before), _service_counters(after)
    delta = {k: c1[k] - c0[k] for k in c0}
    lookups = delta["hits"] + delta["misses"]
    misses = [o for o in outcomes if o.ok and o.answer is not None and not o.answer.get("cached")]
    solve_ms = [o.answer["solve_s"] * 1000.0 for o in misses]
    overhead_ms = [o.rtt_ms - o.answer["solve_s"] * 1000.0 for o in misses]
    host, port = server.host, server.port

    def rtt_p50(raw: bytes) -> float:
        samples = []
        for _ in range(probes):
            t0 = time.perf_counter()
            load.exchange(host, port, raw, 10.0)
            samples.append((time.perf_counter() - t0) * 1000.0)
        return load.percentile(samples, 50)

    return {
        "http.health_rtt_p50_ms": rtt_p50(load.http_bytes(host, port, "GET", "/health")),
        "http.lookup_rtt_p50_ms": rtt_p50(load.query_bytes(host, port, {"kind": "placement"})),
        "service.cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "service.coalesced": delta["coalesced"],
        "service.solve_p50_ms": load.percentile(solve_ms, 50) if solve_ms else 0.0,
        "service.miss_overhead_p50_ms": load.percentile(overhead_ms, 50) if overhead_ms else 0.0,
        "admission.shed": delta["shed"],
        "brownout.approx_served": delta["approx_served"],
        "brownout.stale_served": delta["stale_served"],
        "service.deadline_expired": delta["deadline_expired"],
        "gen.late_p99_ms": load.percentile(late_ms, 99),
    }


def _recompute_sample(answers, task: ContinuousTask, seed: int) -> Dict[str, list]:
    """``{key: [served, in-process]}`` for up to 20 distinct exact answers."""
    served: Dict[Tuple[str, float, int], Optional[float]] = {}
    for cls, qos, epoch, lp_cost, degraded in answers:
        if not degraded:  # approx/stale answers are counted by exact_share
            served.setdefault((cls, qos, epoch), lp_cost)
    keys = sorted(served)
    sample = random.Random(seed).sample(keys, min(20, len(keys)))
    traces = task.materialize()[0]
    return {
        "|".join(map(str, key)): [served[key], recompute_bound(task, traces, key)]
        for key in sample
    }
