"""Command-line interface for the replica-placement analysis toolkit.

Gives system designers the paper's workflow without writing Python::

    repro topology --nodes 20 --seed 2 -o topo.json
    repro workload web --nodes 20 --objects 80 --scale 0.1 -o trace.json
    repro bounds    -t topo.json -w trace.json --qos 0.95 --class caching
    repro select    -t topo.json -w trace.json --qos 0.95
    repro deploy    -t topo.json -w trace.json --qos 0.95 --zeta 3000
    repro simulate  -t topo.json -w trace.json --heuristic lru --capacity 20
    repro continuous -t topo.json --heuristic qiu --epochs 4 --drift 0.25 \
                     --zones 3 --faults 'zoneout:mtbf=21600,mttr=1800' --slo 0.99
    repro chaos 'flashcrowd:epochs=2-3,object=0,mult=8;zonepart:zone=1,at=900,down=900;crash:epoch=3;corrupt_checkpoint:at=1' \
                --workdir out/campaign

Every subcommand prints a human-readable report; ``--json`` switches to a
machine-readable dump.  Entry point: ``python -m repro.cli`` (also installed
as ``repro`` via the console-script hook).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Dict, List, Optional

from repro.core.classes import STANDARD_CLASSES, get_class, render_table3
from repro.errors import ValidationError
from repro.core.costs import CostModel
from repro.core.deployment import plan_deployment
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.selection import select_heuristic
from repro.runner import (
    BoundTask,
    HeuristicSpec,
    ResultCache,
    SimulateTask,
    TaskFailure,
    make_runner,
)
from repro.runner.resilience import ON_ERROR_MODES
from repro.solvers.registry import BACKEND_AUTO, BOUND_BACKENDS
from repro.topology.generators import as_level_topology
from repro.topology.io import load_topology, save_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import group_workload, web_workload
from repro.workload.io import load_trace, save_trace
from repro.workload.stats import characterize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replica-placement heuristic selection (Karlsson & Karamanolis, ICDCS 2004)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="errors only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="generate an AS-level topology")
    topo.add_argument("--nodes", type=int, default=20)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--skew", type=float, default=0.8, help="population skew")
    topo.add_argument(
        "--zones",
        default=None,
        metavar="SPEC",
        help=(
            "attach a zone map: an integer K (round-robin into K zones) or "
            "explicit groups like '0+1+2;3+4;5' covering every node"
        ),
    )
    topo.add_argument("-o", "--output", required=True)

    wl = sub.add_parser("workload", help="generate a WEB or GROUP trace")
    wl.add_argument("kind", choices=["web", "group"])
    wl.add_argument(
        "--nodes", type=int, default=None,
        help="number of sites (default: the --topology's size, else 20)",
    )
    wl.add_argument("--objects", type=int, default=80)
    wl.add_argument("--scale", type=float, default=0.1)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--topology", help="take site populations from this topology")
    wl.add_argument("-o", "--output", required=True)

    def runner_args(p):
        """Execution-infrastructure flags shared by every solver command."""
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for independent solves (1 = serial, exact historical path)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="content-addressed result cache; reruns skip already-solved tasks",
        )
        p.add_argument(
            "--run-dir",
            default=None,
            metavar="DIR",
            help="write runs/<timestamp>-<digest>/ artifacts (manifest, per-task JSON, timings)",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock limit per task attempt (default: none)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-attempts per task after a failure/timeout (exponential backoff)",
        )
        p.add_argument(
            "--on-error",
            choices=list(ON_ERROR_MODES),
            default="fail",
            help=(
                "after retries are exhausted: fail the whole run, or skip (record "
                "a structured TaskFailure and keep going)"
            ),
        )
        p.add_argument(
            "--resume",
            default=None,
            metavar="RUN_DIR",
            help="serve ok results from a previous run directory; only its failed/pending tasks re-execute",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help=(
                "emit per-stage timing/counter JSON (profile.json in the "
                "--run-dir, stderr otherwise); counters cover this process "
                "only, so pair with --jobs 1 for full coverage"
            ),
        )
        p.add_argument(
            "--audit",
            choices=["off", "fast", "full"],
            default=None,
            help=(
                "re-certify results (default: the REPRO_AUDIT env var, else "
                "off): fast = float checks of every LP row/bound + "
                "recomputed objective + from-scratch placement "
                "certificates; full = "
                "exact Fraction arithmetic on every row/bound + cross-"
                "backend differential re-solve.  Cache hits are re-audited "
                "and quarantined on failure.  Violations exit nonzero."
            ),
        )

    def problem_args(p):
        p.add_argument("-t", "--topology", required=True)
        p.add_argument("-w", "--workload", required=True)
        p.add_argument("--qos", type=float, default=0.95, help="QoS fraction")
        p.add_argument("--tlat", type=float, default=150.0, help="latency threshold (ms)")
        p.add_argument("--intervals", type=int, default=8)
        p.add_argument("--warmup", type=int, default=1)
        p.add_argument(
            "--scope",
            choices=[s.value for s in GoalScope],
            default=GoalScope.PER_USER.value,
        )
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        runner_args(p)

    bounds = sub.add_parser("bounds", help="compute a class's lower bound")
    problem_args(bounds)
    bounds.add_argument(
        "--class",
        dest="cls",
        default="general",
        choices=sorted(STANDARD_CLASSES),
    )
    bounds.add_argument("--no-rounding", action="store_true")
    bounds.add_argument(
        "--backend",
        choices=list(BOUND_BACKENDS),
        default=BACKEND_AUTO,
        help=(
            "solver backend: auto/scipy solve the monolithic LP with HiGHS; "
            "tree-dp and decomposed use the structural backends in "
            "repro.solvers; structure introspects the problem and picks"
        ),
    )

    select = sub.add_parser("select", help="run the §6.1 selection methodology")
    problem_args(select)
    select.add_argument("--classes", nargs="*", default=None)
    select.add_argument("--no-rounding", action="store_true")

    deploy = sub.add_parser("deploy", help="run the §6.2 deployment methodology")
    problem_args(deploy)
    deploy.add_argument("--zeta", type=float, default=3000.0, help="node-opening cost")
    deploy.add_argument("--max-nodes", type=int, default=None)

    sim = sub.add_parser("simulate", help="replay the trace against a heuristic")
    problem_args(sim)
    sim.add_argument(
        "--heuristic",
        required=True,
        choices=["lru", "lfu", "coop-lru", "greedy-global", "qiu", "random"],
    )
    sim.add_argument("--capacity", type=int, default=10, help="cache capacity (objects)")
    sim.add_argument("--replicas", type=int, default=2, help="replicas per object")
    sim.add_argument("--period", type=float, default=None, help="placement period (s)")
    sim.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject failures, e.g. 'poisson:mtbf=21600,mttr=1800' or "
            "'crash:node=3,at=600,down=1200;flaky:a=1,b=2,up=900,down=60'"
        ),
    )
    sim.add_argument(
        "--fault-seed", type=int, default=0, help="seed for generated fault schedules"
    )
    sim.add_argument(
        "--heal",
        action="store_true",
        help="wrap the heuristic in a re-replicating HealingPolicy",
    )
    sim.add_argument(
        "--heal-copies", type=int, default=2, help="live replicas HealingPolicy restores"
    )
    sim.add_argument(
        "--heal-zones",
        type=int,
        default=1,
        help="minimum distinct zones replicas must span (needs a zoned topology)",
    )
    sim.add_argument(
        "--heal-budget",
        type=int,
        default=None,
        metavar="N",
        help="max healing creations per budget window (default: unlimited)",
    )

    cont = sub.add_parser(
        "continuous",
        help="epoch-driven continuous placement under faults with SLO enforcement",
    )
    cont.add_argument("-t", "--topology", required=True)
    cont.add_argument(
        "--heuristic",
        required=True,
        choices=["lru", "lfu", "coop-lru", "greedy-global", "qiu", "random"],
    )
    cont.add_argument("--epochs", type=int, default=4, help="number of epochs")
    cont.add_argument(
        "--epoch-length", type=float, default=3600.0, metavar="S",
        help="seconds per epoch",
    )
    cont.add_argument(
        "--drift", type=float, default=0.25,
        help="per-epoch workload drift in [0,1]: popularity-rank rotation "
             "plus node-weight blending",
    )
    cont.add_argument(
        "--slo", type=float, default=None, metavar="FRACTION",
        help="per-epoch availability SLO target (e.g. 0.99); violations exit nonzero",
    )
    cont.add_argument(
        "--zones",
        default=None,
        metavar="SPEC",
        help="zone map overriding the topology's own: an integer K or "
             "explicit groups like '0+1;2+3'",
    )
    cont.add_argument("--requests", type=int, default=2000, help="requests per epoch")
    cont.add_argument("--objects", type=int, default=64, help="objects in the universe")
    cont.add_argument("--seed", type=int, default=0, help="workload seed")
    cont.add_argument("--tlat", type=float, default=150.0, help="latency threshold (ms)")
    cont.add_argument("--alpha", type=float, default=1.0)
    cont.add_argument("--beta", type=float, default=1.0)
    cont.add_argument("--capacity", type=int, default=10, help="cache capacity (objects)")
    cont.add_argument("--replicas", type=int, default=2, help="replicas per object")
    cont.add_argument("--period", type=float, default=None, help="placement period (s)")
    cont.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault spec over the whole horizon; zone clauses "
             "('zoneout:...', 'zonepart:...') need a zone map",
    )
    cont.add_argument(
        "--fault-seed", type=int, default=0, help="seed for generated fault schedules"
    )
    cont.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="workload-emulation spec layered on the drift stream "
             "(diurnal/flashcrowd/burst/writes/clock_skew clauses; see docs/CHAOS.md)",
    )
    cont.add_argument(
        "--heal", action="store_true",
        help="wrap the heuristic in a re-replicating HealingPolicy",
    )
    cont.add_argument(
        "--heal-copies", type=int, default=2, help="live replicas HealingPolicy restores"
    )
    cont.add_argument(
        "--heal-zones",
        type=int,
        default=1,
        help="minimum distinct zones replicas must span (needs a zone map)",
    )
    cont.add_argument(
        "--heal-budget",
        type=int,
        default=None,
        metavar="N",
        help="max healing creations per budget window (default: unlimited)",
    )
    cont.add_argument(
        "--shed-capacity",
        type=int,
        default=None,
        metavar="N",
        help="carried-replica cap between epochs; lowest-value replicas shed first",
    )
    cont.add_argument(
        "--object-size", type=float, default=1.0, metavar="BYTES",
        help="bytes per object for migration accounting",
    )
    runner_args(cont)

    serve = sub.add_parser(
        "serve",
        help="run the continuous loop as a supervised, checkpointed query service",
    )
    serve.add_argument("-t", "--topology", required=True)
    serve.add_argument(
        "--heuristic",
        required=True,
        choices=["lru", "lfu", "coop-lru", "greedy-global", "qiu", "random"],
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="journal + snapshots + endpoint.json; restarting with the same "
             "dir resumes from the last durable epoch",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port lands in endpoint.json)",
    )
    serve.add_argument("--epochs", type=int, default=4, help="number of epochs")
    serve.add_argument(
        "--epoch-length", type=float, default=3600.0, metavar="S",
        help="simulated seconds per epoch",
    )
    serve.add_argument(
        "--epoch-interval", type=float, default=0.0, metavar="S",
        help="wall-clock pacing between epochs (0 = step as fast as possible)",
    )
    serve.add_argument("--drift", type=float, default=0.25)
    serve.add_argument("--slo", type=float, default=None, metavar="FRACTION")
    serve.add_argument("--zones", default=None, metavar="SPEC")
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument("--objects", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--tlat", type=float, default=150.0)
    serve.add_argument("--alpha", type=float, default=1.0)
    serve.add_argument("--beta", type=float, default=1.0)
    serve.add_argument("--capacity", type=int, default=10)
    serve.add_argument("--replicas", type=int, default=2)
    serve.add_argument("--period", type=float, default=None)
    serve.add_argument("--faults", default=None, metavar="SPEC")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--workload", default=None, metavar="SPEC",
        help="workload-emulation spec (see `repro continuous --help`)",
    )
    serve.add_argument(
        "--heal", action="store_true",
        help="wrap the heuristic in a re-replicating HealingPolicy",
    )
    serve.add_argument(
        "--heal-copies", type=int, default=2,
        help="live replicas HealingPolicy restores",
    )
    serve.add_argument(
        "--heal-zones", type=int, default=1,
        help="minimum distinct zones replicas must span (needs a zone map)",
    )
    serve.add_argument(
        "--heal-budget", type=int, default=None, metavar="N",
        help="max healing creations per budget window (default: unlimited)",
    )
    serve.add_argument("--shed-capacity", type=int, default=None, metavar="N")
    serve.add_argument("--object-size", type=float, default=1.0, metavar="BYTES")
    serve.add_argument(
        "--snapshot-every", type=int, default=4, metavar="N",
        help="full snapshot (and journal truncation) every N epochs",
    )
    serve.add_argument(
        "--admission-limit", type=int, default=8, metavar="N",
        help="concurrent bound solves before queries are answered stale or "
             "shed with 429; past half of it, solves go approximate",
    )
    serve.add_argument(
        "--solve-timeout", type=float, default=30.0, metavar="S",
        help="per-request ceiling on bound solves (expiry counts a breaker failure)",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="in-process supervisor restarts before escalating",
    )
    serve.add_argument(
        "--exit-when-done", action="store_true",
        help="exit after the final epoch instead of serving until SIGTERM",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fault-injection spec (overrides $REPRO_SERVICE_CHAOS); see docs/CHAOS.md",
    )
    serve.add_argument("--json", action="store_true", help="machine-readable output")

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault campaign end-to-end and check its invariants",
    )
    chaos.add_argument(
        "plan",
        help="chaos plan: semicolon-separated clauses like "
             "'flashcrowd:epochs=2-3,object=0,mult=8;zonepart:zone=1,at=900,"
             "down=900;crash:epoch=3;corrupt_checkpoint:at=1' (docs/CHAOS.md)",
    )
    chaos.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="campaign artifacts: topology, state dir, serve logs, report.json",
    )
    chaos.add_argument(
        "--heuristic", default="qiu",
        choices=["lru", "lfu", "coop-lru", "greedy-global", "qiu", "random"],
    )
    chaos.add_argument("--epochs", type=int, default=6)
    chaos.add_argument(
        "--epoch-interval", type=float, default=0.25, metavar="S",
        help="wall-clock pacing of the chaos run's epochs (load needs time to land)",
    )
    chaos.add_argument("--requests", type=int, default=300, help="requests per epoch")
    chaos.add_argument("--objects", type=int, default=12)
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument(
        "--slo", type=float, default=0.9, metavar="FRACTION",
        help="availability SLO the healed plan must meet (checked as an invariant)",
    )
    chaos.add_argument(
        "--no-heal", action="store_true",
        help="run the bare heuristic instead of the healing wrapper",
    )
    chaos.add_argument(
        "--max-restarts", type=int, default=5,
        help="supervised relaunches of the serve subprocess after injected crashes",
    )
    chaos.add_argument(
        "--admission-limit", type=int, default=2, metavar="N",
        help="small on purpose: the campaign must push the service down its "
             "degrade ladder",
    )
    chaos.add_argument("--load-workers", type=int, default=6, metavar="N")
    chaos.add_argument("--json", action="store_true", help="machine-readable output")

    sweep = sub.add_parser("sweep", help="Figure-1 style QoS sweep of class bounds")
    problem_args(sweep)
    sweep.add_argument(
        "--levels", nargs="+", type=float, default=[0.9, 0.95, 0.99],
        help="QoS fractions to sweep",
    )
    sweep.add_argument("--classes", nargs="*", default=None)
    sweep.add_argument("--csv", help="also write the sweep as CSV to this path")
    sweep.add_argument(
        "--rounding", action="store_true", help="also round each bound to a feasible cost"
    )

    aud = sub.add_parser(
        "audit", help="re-verify a completed run directory's artifacts"
    )
    aud.add_argument("run_dir", help="a --run-dir produced run directory")
    aud.add_argument(
        "-t", "--topology", default=None,
        help="original topology input; with -w, enables full placement re-verification",
    )
    aud.add_argument(
        "-w", "--workload", default=None,
        help="original workload input (see -t)",
    )
    aud.add_argument(
        "--eps", type=float, default=None,
        help="slack for the rounded-cost >= lower-bound gate (default 1e-6)",
    )
    aud.add_argument(
        "--sim-eps", type=float, default=None,
        help="slack for the simulated-cost >= class-bound gate (default 1e-3)",
    )
    aud.add_argument("--json", action="store_true", help="machine-readable output")

    cache = sub.add_parser("cache", help="inspect or clear a result cache")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir", required=True, metavar="DIR", help="cache root to operate on"
    )
    cache.add_argument("--json", action="store_true", help="machine-readable output")

    sub.add_parser("classes", help="print the Table-3 class registry")
    return parser


def _load_problem(args) -> tuple:
    topology = load_topology(args.topology)
    trace = load_trace(args.workload)
    demand = DemandMatrix.from_trace(trace, num_intervals=args.intervals)
    problem = MCPerfProblem(
        topology=topology,
        demand=demand,
        goal=QoSGoal(tlat_ms=args.tlat, fraction=args.qos, scope=GoalScope(args.scope)),
        costs=CostModel(alpha=args.alpha, beta=args.beta),
        warmup_intervals=args.warmup,
    )
    return topology, trace, demand, problem


def _runner_for(args, label: str):
    """An :class:`~repro.runner.ExperimentRunner` from the shared CLI flags."""
    return make_runner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        run_dir=args.run_dir,
        label=label,
        task_timeout=args.task_timeout,
        retries=args.retries,
        on_error=args.on_error,
        resume=args.resume,
    )


def _finish_runner(args, runner) -> None:
    """Finalize artifacts; report to stderr (stdout stays parseable JSON)."""
    run_dir = runner.finalize()
    if getattr(args, "profile", False):
        from pathlib import Path

        from repro.perf import PERF

        snapshot = PERF.snapshot()
        if run_dir is not None:
            path = Path(run_dir) / "profile.json"
            path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
            print(f"profile written to {path}", file=sys.stderr)
        else:
            print(json.dumps({"profile": snapshot}), file=sys.stderr)
    if args.cache_dir is not None or run_dir is not None:
        message = runner.summary()
        if run_dir is not None:
            message += f" run_dir={run_dir}"
        print(message, file=sys.stderr)


def _with_zones(topology, spec):
    """Attach a ``--zones`` map to ``topology`` (no-op when spec is None)."""
    if spec is None:
        return topology
    import dataclasses

    from repro.topology.zones import parse_zones

    return dataclasses.replace(
        topology, zones=parse_zones(spec, topology.num_nodes)
    )


def _cmd_topology(args) -> int:
    topo = as_level_topology(
        num_nodes=args.nodes, seed=args.seed, population_skew=args.skew
    )
    try:
        topo = _with_zones(topo, args.zones)
    except ValidationError as exc:
        print(f"topology: bad --zones: {exc}", file=sys.stderr)
        return 2
    save_topology(topo, args.output)
    print(f"wrote {topo} to {args.output}")
    return 0


def _cmd_workload(args) -> int:
    populations = None
    if args.topology:
        populations = load_topology(args.topology).populations
    num_nodes = args.nodes
    if num_nodes is None:
        num_nodes = len(populations) if populations is not None else 20
    maker = web_workload if args.kind == "web" else group_workload
    trace = maker(
        num_nodes=num_nodes,
        num_objects=args.objects,
        populations=populations,
        requests_scale=args.scale,
        seed=args.seed,
    )
    save_trace(trace, args.output)
    print(f"wrote {characterize(trace)} to {args.output}")
    return 0


def _cmd_bounds(args) -> int:
    _topo, _trace, _demand, problem = _load_problem(args)
    cls = get_class(args.cls)
    task = BoundTask(
        problem=problem,
        properties=cls.properties,
        do_rounding=not args.no_rounding,
        backend=args.backend,
        diagnose=True,
        label=f"bound[{cls.name}]",
        audit=args.audit,
    )
    runner = _runner_for(args, "bounds")
    result = runner.map([task])[0]
    _finish_runner(args, runner)
    if isinstance(result, TaskFailure):
        if args.json:
            print(json.dumps({"class": cls.name, "failed": result.to_dict()}))
        else:
            print(str(result))
        return 1
    # A cache-served result may predate auditing; certify it now so
    # `bounds --audit` always reports a verdict.
    audit_report = getattr(result, "audit", None)
    if audit_report is None:
        audit_report = task.audit_cached(result)
    if args.json:
        print(
            json.dumps(
                {
                    "class": cls.name,
                    "feasible": result.feasible,
                    "lower_bound": result.lp_cost,
                    "feasible_cost": result.feasible_cost,
                    "gap": result.gap,
                    "reason": result.reason,
                    "solve_seconds": result.solve_seconds,
                    "backend_used": result.backend_used,
                    "audit": None if audit_report is None else audit_report.to_dict(),
                }
            )
        )
        if audit_report is not None and not audit_report.ok:
            return 1
    else:
        print(str(result))
        if audit_report is not None:
            print(audit_report.render())
            if not audit_report.ok:
                return 1
        if not result.feasible:
            return 1
    return 0


def _cmd_select(args) -> int:
    _topo, _trace, _demand, problem = _load_problem(args)
    runner = _runner_for(args, "select")
    report = select_heuristic(
        problem, classes=args.classes, do_rounding=not args.no_rounding, runner=runner
    )
    _finish_runner(args, runner)
    if args.json:
        print(
            json.dumps(
                {
                    "recommended": report.recommended,
                    "near_optimal": report.near_optimal,
                    "general_bound": report.general.lp_cost,
                    "bounds": {
                        name: report.bound(name) for name in report.results
                    },
                    "infeasible": report.infeasible,
                    "failed": sorted(report.failures),
                }
            )
        )
    else:
        print(report.render())
    return 0 if report.recommended else 1


def _cmd_deploy(args) -> int:
    topology, _trace, demand, problem = _load_problem(args)
    runner = _runner_for(args, "deploy")
    plan = plan_deployment(
        topology,
        demand,
        problem.goal,
        costs=problem.costs.with_zeta(args.zeta),
        max_nodes=args.max_nodes,
        warmup_intervals=args.warmup,
        do_rounding=False,
        runner=runner,
    )
    _finish_runner(args, runner)
    if args.json:
        print(
            json.dumps(
                {
                    "feasible": plan.feasible,
                    "open_nodes": plan.open_nodes,
                    "assignment": plan.assignment.tolist() if plan.assignment is not None else None,
                    "recommended": plan.recommended,
                    "reason": plan.reason,
                }
            )
        )
    else:
        print(plan.render())
    return 0 if plan.feasible else 1


def _cmd_simulate(args) -> int:
    from repro.simulator.metrics import availability_report

    topology, trace, _demand, _problem = _load_problem(args)
    period = args.period if args.period is not None else trace.duration_s / args.intervals
    spec = HeuristicSpec(
        name=args.heuristic,
        capacity=args.capacity,
        replicas=args.replicas,
        period_s=period,
        tlat_ms=args.tlat,
        heal=args.heal,
        heal_copies=args.heal_copies,
        heal_zones=args.heal_zones,
        heal_budget=args.heal_budget,
    )
    interval_s = trace.duration_s / args.intervals
    task = SimulateTask(
        topology=topology,
        trace=trace,
        heuristic=spec,
        tlat_ms=args.tlat,
        warmup_s=args.warmup * interval_s,
        cost_interval_s=interval_s,
        alpha=args.alpha,
        beta=args.beta,
        faults=args.faults or None,
        fault_seed=args.fault_seed,
        label=f"simulate[{args.heuristic}]",
        audit=args.audit,
    )
    runner = _runner_for(args, "simulate")
    result = runner.map([task])[0]
    _finish_runner(args, runner)
    if isinstance(result, TaskFailure):
        if args.json:
            print(json.dumps({"heuristic": args.heuristic, "failed": result.to_dict()}))
        else:
            print(str(result))
        return 1
    faults = args.faults or None
    if args.json:
        payload = {
            "heuristic": result.heuristic,
            "total_cost": result.total_cost,
            "storage_cost": result.storage_cost,
            "creation_cost": result.creation_cost,
            "qos": result.qos,
            "min_node_qos": result.min_node_qos,
            "meets_goal": result.meets(args.qos),
        }
        if faults is not None:
            payload.update(
                {
                    "availability": result.availability,
                    "unavailable_reads": result.unavailable_reads,
                    "node_downtime_s": result.node_downtime_s,
                    "repairs": result.repairs,
                    "mean_repair_time_s": result.mean_repair_time_s,
                    "healing_creations": result.healing_creations,
                    "healing_cost": result.healing_cost,
                }
            )
        print(json.dumps(payload))
    else:
        print(str(result))
        if faults is not None:
            print(availability_report(result))
        verdict = "meets" if result.meets(args.qos) else "MISSES"
        print(f"-> {verdict} the {args.qos:.3%} per-user goal")
    return 0 if result.meets(args.qos) else 1


def _cmd_continuous(args) -> int:
    from repro.errors import ValidationError
    from repro.runner import ContinuousTask

    topology = load_topology(args.topology)
    try:
        topology = _with_zones(topology, args.zones)
    except ValidationError as exc:
        print(f"continuous: bad --zones: {exc}", file=sys.stderr)
        return 2
    period = args.period if args.period is not None else args.epoch_length / 8.0
    spec = HeuristicSpec(
        name=args.heuristic,
        capacity=args.capacity,
        replicas=args.replicas,
        period_s=period,
        tlat_ms=args.tlat,
        heal=args.heal,
        heal_copies=args.heal_copies,
        heal_zones=args.heal_zones,
        heal_budget=args.heal_budget,
    )
    task = ContinuousTask(
        topology=topology,
        heuristic=spec,
        epochs=args.epochs,
        epoch_s=args.epoch_length,
        requests_per_epoch=args.requests,
        num_objects=args.objects,
        drift=args.drift,
        workload_seed=args.seed,
        workload=args.workload or None,
        tlat_ms=args.tlat,
        cost_interval_s=args.epoch_length,
        alpha=args.alpha,
        beta=args.beta,
        faults=args.faults or None,
        fault_seed=args.fault_seed,
        slo=args.slo,
        shed_capacity=args.shed_capacity,
        object_size_bytes=args.object_size,
        label=f"continuous[{args.heuristic}]",
        audit=args.audit,
    )
    runner = _runner_for(args, "continuous")
    # SIGTERM/SIGINT finish the current epoch, write the final manifest and
    # exit 3 — a partial-but-consistent result, not a stack trace.  The stop
    # flag is process-global (install_stop_check) because the task object
    # must stay picklable; with --jobs > 1 the workers cannot see it and a
    # signal falls back to the runner's normal teardown.
    import signal

    from repro.simulator.continuous import install_stop_check

    stop = {"requested": False}

    def _drain(signum, frame):
        if not stop["requested"]:
            print(
                "continuous: caught signal, finishing the current epoch ...",
                file=sys.stderr,
            )
        stop["requested"] = True

    old_handlers = {
        sig: signal.signal(sig, _drain) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    install_stop_check(lambda: stop["requested"])
    try:
        result = runner.map([task])[0]
    except ValidationError as exc:
        runner.finalize()
        print(f"continuous: {exc}", file=sys.stderr)
        return 2
    finally:
        install_stop_check(None)
        for sig, handler in old_handlers.items():
            signal.signal(sig, handler)
    _finish_runner(args, runner)
    if isinstance(result, TaskFailure):
        if args.json:
            print(json.dumps({"heuristic": args.heuristic, "failed": result.to_dict()}))
        else:
            print(str(result))
        return 1
    violated = result.slo_target is not None and result.slo_violations > 0
    if args.json:
        print(
            json.dumps(
                {
                    "heuristic": result.heuristic,
                    "epochs": len(result.epochs),
                    "serve_cost": result.serve_cost,
                    "migration_bytes": result.migration_bytes,
                    "reads": result.reads,
                    "unavailable_reads": result.unavailable_reads,
                    "availability": result.availability,
                    "worst_epoch_availability": result.worst_epoch_availability,
                    "slo_target": result.slo_target,
                    "slo_violations": result.slo_violations,
                    "slo_violation_epochs": result.slo_violation_epochs,
                    "shed_replicas": result.shed_replicas,
                    "final_unique_zones": result.final_unique_zones,
                    "interrupted": result.interrupted,
                    "epoch_reports": [e.to_dict() for e in result.epochs],
                }
            )
        )
    else:
        print(str(result))
        for e in result.epochs:
            flag = "  SLO VIOLATED" if e.slo_violated else ""
            print(
                f"  epoch {e.index}: serve={e.serve_cost:.1f} "
                f"migrated={e.migration_bytes:.0f}B "
                f"avail={e.availability:.4f} reads={e.reads} "
                f"unavailable={e.unavailable_reads} shed={e.shed_replicas}{flag}"
            )
        if result.slo_target is not None:
            verdict = (
                f"VIOLATES in {result.slo_violations} epoch(s)"
                if violated
                else "meets in every epoch"
            )
            print(f"-> {verdict} the {result.slo_target:.3%} availability SLO")
    if result.interrupted:
        # Distinct from both success (0) and SLO violation (1): the run was
        # drained early and the epochs reported are a prefix, not the plan.
        return 3
    return 1 if violated else 0


def _cmd_serve(args) -> int:
    """Run the placement daemon + query front-end until done or signalled.

    Exit codes: 0 — all epochs completed (and, without --exit-when-done, a
    signal ended the serving phase afterwards); 3 — drained by SIGTERM/
    SIGINT before the final epoch (state checkpointed, restart resumes);
    1 — the supervisor exhausted its restarts; 2 — bad configuration.
    ``REPRO_SERVICE_CHAOS`` crashes exit with their own code (57).
    """
    import asyncio
    import os
    import signal
    import threading

    from repro.errors import ValidationError
    from repro.runner import ContinuousTask
    from repro.runner.artifacts import atomic_write_text
    from repro.service import (
        CheckpointStore,
        DegradePolicy,
        PlacementDaemon,
        PlacementService,
        Supervisor,
        parse_service_chaos,
    )

    topology = load_topology(args.topology)
    try:
        topology = _with_zones(topology, args.zones)
        chaos = parse_service_chaos(args.chaos) if args.chaos else parse_service_chaos()
    except (ValidationError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    period = args.period if args.period is not None else args.epoch_length / 8.0
    spec = HeuristicSpec(
        name=args.heuristic,
        capacity=args.capacity,
        replicas=args.replicas,
        period_s=period,
        tlat_ms=args.tlat,
        heal=args.heal,
        heal_copies=args.heal_copies,
        heal_zones=args.heal_zones,
        heal_budget=args.heal_budget,
    )
    task = ContinuousTask(
        topology=topology,
        heuristic=spec,
        epochs=args.epochs,
        epoch_s=args.epoch_length,
        requests_per_epoch=args.requests,
        num_objects=args.objects,
        drift=args.drift,
        workload_seed=args.seed,
        workload=args.workload or None,
        tlat_ms=args.tlat,
        cost_interval_s=args.epoch_length,
        alpha=args.alpha,
        beta=args.beta,
        faults=args.faults or None,
        fault_seed=args.fault_seed,
        slo=args.slo,
        shed_capacity=args.shed_capacity,
        object_size_bytes=args.object_size,
        label=f"serve[{args.heuristic}]",
    )
    from pathlib import Path

    state_dir = Path(args.state_dir)
    store = CheckpointStore(state_dir, task.cache_key(), snapshot_every=args.snapshot_every)
    try:
        daemon = PlacementDaemon(
            task, store, chaos=chaos, epoch_interval_s=args.epoch_interval
        )
    except ValidationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    resumed_at = daemon.recover()
    if resumed_at:
        print(f"serve: recovered checkpoint, resuming at epoch {resumed_at}", file=sys.stderr)
    supervisor = Supervisor(daemon, max_restarts=args.max_restarts)
    try:
        policy = DegradePolicy(limit=args.admission_limit)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    service = PlacementService(
        daemon,
        policy=policy,
        supervisor=supervisor,
        chaos=chaos,
        solve_timeout_s=args.solve_timeout,
    )

    stop_event = threading.Event()
    loop_failure: List[BaseException] = []

    def _loop():
        try:
            supervisor.run(stop=stop_event.is_set)
        except BaseException as exc:  # noqa: BLE001 — reported by the watcher
            loop_failure.append(exc)

    async def _main() -> int:
        host, port = await service.start(args.host, args.port)
        atomic_write_text(
            state_dir / "endpoint.json",
            json.dumps({"host": host, "port": port, "pid": os.getpid()}),
        )
        print(f"serve: listening on {host}:{port} (state in {state_dir})", file=sys.stderr)
        aio_loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            aio_loop.add_signal_handler(sig, stop_event.set)
        worker = threading.Thread(target=_loop, name="placement-daemon", daemon=True)
        worker.start()
        announced_done = False
        while True:
            if stop_event.is_set():
                break
            if loop_failure:
                break
            if daemon.done and not announced_done:
                announced_done = True
                _write_result(interrupted=False)
                print("serve: all epochs complete", file=sys.stderr)
                if args.exit_when_done:
                    stop_event.set()
                    break
            await asyncio.sleep(0.05)
        stop_event.set()
        # Drain: the worker returns at the next epoch boundary; its state is
        # already durable (the loop journals before publishing).
        await aio_loop.run_in_executor(None, lambda: worker.join(timeout=600.0))
        await service.stop()
        if loop_failure:
            print(f"serve: daemon failed: {loop_failure[0]}", file=sys.stderr)
            return 1
        if not daemon.done:
            _write_result(interrupted=True)
            print(
                f"serve: drained at epoch {daemon.state.index}/{task.epochs}; "
                "state checkpointed, restart to resume",
                file=sys.stderr,
            )
            return 3
        _write_result(interrupted=False)
        return 0

    def _write_result(interrupted: bool) -> None:
        store.snapshot(daemon.state)
        atomic_write_text(
            state_dir / "result.json",
            json.dumps(daemon.result(interrupted=interrupted).to_dict(), indent=2),
        )

    try:
        code = asyncio.run(_main())
    except ValidationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "epochs_completed": daemon.state.index,
                    "epochs_total": task.epochs,
                    "done": daemon.done,
                    "recovered_from": daemon.recovered_from,
                    "restarts": supervisor.restarts,
                    "exit": code,
                }
            )
        )
    return code


def _cmd_chaos(args) -> int:
    """Run one fault campaign end-to-end and check its invariants.

    Exit codes: 0 — every invariant held; 1 — at least one invariant
    failed (details in <workdir>/report.json and the serve logs); 2 — the
    plan itself is malformed.
    """
    from repro.chaos import run_campaign
    from repro.errors import ValidationError

    try:
        report = run_campaign(
            args.plan,
            args.workdir,
            heuristic=args.heuristic,
            epochs=args.epochs,
            epoch_interval_s=args.epoch_interval,
            requests_per_epoch=args.requests,
            num_objects=args.objects,
            seed=args.seed,
            slo=args.slo,
            heal=not args.no_heal,
            max_restarts=args.max_restarts,
            admission_limit=args.admission_limit,
            load_workers=args.load_workers,
        )
    except ValidationError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.analysis.report import render_csv, render_sweep_table
    from repro.analysis.sweep import qos_sweep

    _topo, _trace, _demand, problem = _load_problem(args)
    runner = _runner_for(args, "sweep")
    sweep = qos_sweep(
        problem,
        levels=args.levels,
        classes=args.classes,
        do_rounding=args.rounding,
        runner=runner,
        audit=args.audit,
    )
    _finish_runner(args, runner)
    if args.json:
        print(
            json.dumps(
                {
                    "levels": sweep.levels,
                    "bounds": {
                        cls: sweep.series(cls) for cls in sweep.classes
                    },
                    "failed_cells": [
                        [cls, level] for cls, level in sweep.failed_cells()
                    ],
                }
            )
        )
    else:
        print(render_sweep_table(sweep, title="Lower bound per class vs QoS goal"))
    if args.csv:
        Path(args.csv).write_text(render_csv(sweep) + "\n")
        print(f"\nwrote CSV to {args.csv}")
    return 0


def _cmd_audit(args) -> int:
    from repro.audit import DEFAULT_EPS, audit_run_dir
    from repro.audit.posthoc import DEFAULT_SIM_EPS
    from repro.runner.artifacts import read_run

    # A torn or truncated manifest (or a torn line inside records.jsonl) is
    # an artifact-integrity failure, not an audit verdict: nothing in the
    # run can be verified from it.  Diagnose it up front and exit 2
    # (configuration/integrity) instead of letting the audit report a wall
    # of unverifiable cells.  The audit then works from this one read.
    try:
        run = read_run(args.run_dir)
    except (OSError, ValueError) as exc:
        print(
            f"audit: task records are corrupt (torn or truncated write): {exc}\n"
            "audit: the run directory cannot be verified; re-run the "
            "experiment or restore the manifest from backup",
            file=sys.stderr,
        )
        return 2

    problem_factory = None
    if args.topology and args.workload:
        topology = load_topology(args.topology)
        trace = load_trace(args.workload)
        demands: Dict[int, DemandMatrix] = {}  # by interval count

        def problem_factory(meta):
            """Rebuild a bound cell's problem from its manifest metadata."""
            qos = meta.get("qos")
            if qos is None:
                return None
            try:
                intervals = int(meta.get("intervals", 8))
                demand = demands.get(intervals)
                if demand is None:
                    demand = demands[intervals] = DemandMatrix.from_trace(
                        trace, num_intervals=intervals
                    )
                return MCPerfProblem(
                    topology=topology,
                    demand=demand,
                    goal=QoSGoal(
                        tlat_ms=float(meta.get("tlat_ms", 150.0)),
                        fraction=float(qos),
                        scope=GoalScope(meta.get("scope", GoalScope.PER_USER.value)),
                    ),
                    costs=CostModel(
                        alpha=float(meta.get("alpha", 1.0)),
                        beta=float(meta.get("beta", 1.0)),
                        gamma=float(meta.get("gamma", 0.0)),
                        delta=float(meta.get("delta", 0.0)),
                        zeta=float(meta.get("zeta", 0.0)),
                    ),
                    warmup_intervals=int(meta.get("warmup", 0)),
                )
            except (TypeError, ValueError, KeyError):
                return None
    elif args.topology or args.workload:
        print("audit: -t and -w must be given together", file=sys.stderr)
        return 2

    report = audit_run_dir(
        args.run_dir,
        run=run,
        problem_factory=problem_factory,
        eps=args.eps if args.eps is not None else DEFAULT_EPS,
        sim_eps=args.sim_eps if args.sim_eps is not None else DEFAULT_SIM_EPS,
    )
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats))
        else:
            print(f"cache at {stats['root']}")
            print(
                f"  {stats['entries']} entr{'y' if stats['entries'] == 1 else 'ies'}, "
                f"{stats['bytes']} bytes, {stats['seconds']:.2f}s of solve time saved"
            )
            for kind, count in sorted(stats["kinds"].items()):
                print(f"  {kind}: {count}")
    else:
        removed = cache.clear()
        if args.json:
            print(json.dumps({"removed": removed}))
        else:
            print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _configure_logging(args) -> None:
    """Map -q/-v/-vv to a root log level; safe to call once per invocation."""
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(args)
    if getattr(args, "profile", False):
        # One command = one profile: drop anything accumulated at import
        # time or by a previous main() call in the same process.
        from repro.perf import PERF

        PERF.reset()
    handlers = {
        "topology": _cmd_topology,
        "workload": _cmd_workload,
        "bounds": _cmd_bounds,
        "select": _cmd_select,
        "deploy": _cmd_deploy,
        "simulate": _cmd_simulate,
        "continuous": _cmd_continuous,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "sweep": _cmd_sweep,
        "audit": _cmd_audit,
        "cache": _cmd_cache,
        "classes": lambda a: (print(render_table3()), 0)[1],
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        # Invalid input (a non-finite cost or latency threshold, ...):
        # named and refused before it reaches a computation.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped to a consumer that closed early (e.g. `| head`).
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
