"""Hot-path micro-benchmarks (ISSUE 4): assembly, re-solve, serve path.

Measures the three optimized layers against their pre-optimization
equivalents at Figure-2 scale and records the speedups in
``benchmarks/out/BENCH_hot_paths.json``:

* **Formulation assembly** — the row-at-a-time builder it replaced
  (``tests/core/formulation_oracle.py``, the equivalence oracle) vs the
  vectorized block builder.  Target: >= 3x.  Each class's build time and
  pickled LP bytes are recorded alongside (report only).
* **Incremental re-solve** — re-solving after ``set_bounds`` fixes columns
  in place vs a cold solve of a copy of the patched model (what every
  re-solve cost before patches were kept in place).  Correctness here is counter-based:
  zero rebuilds on the patched path.
* **Hot re-solve** — QoS re-targets (drift-sized steps and coarse sweep
  levels) re-solved inside the retained HiGHS instance vs cold solves of
  the same patched model.  Targets: >= 5x drift, >= 1.5x coarse.
* **Simulator replay** — a serve-heavy trace replay answered by the
  nearest-live-replica cache vs the seed's request-by-request replay on
  the full-scan ``holders()`` path.  Target: >= 2x.
* **Periodic replay** — qiu and greedy-global served a period at a time
  (one gather per period) vs the same heuristic forced onto the
  per-request loop.  Bit-identical results and serve counts in every
  mode; target: >= 2.5x for qiu, >= 1.4x for greedy-global (whose own
  planning is about half of its batched replay).
* **Greedy rounding** — the Appendix-C rounder, which re-prices only the
  units a step touches, vs the per-cell loop that re-priced every pending
  unit (``tests/core/rounding_oracle.py``) on the WEB replica-constrained
  90% cell, the slowest of the Figure-2 sweep.  Identical placements in
  every mode; steps, units re-priced per step and time per step are
  recorded; target: >= 3x.
* **Fast LP audit** — ``audit_lp_solution(mode="fast")`` checking every
  bound and row in one NumPy pass vs the per-row audit it replaced
  (``tests/audit/fast_audit_oracle.py``, every row) on the WEB general
  LP.  Identical reports; target: >= 3x.
* **Cell payload bytes** — one Figure-2 WEB bound cell with rounding, as
  the cache stores it: the compressed array codec vs the dense JSON
  number list it replaced (``tests/runner/dense_codec.py``).  Identical
  decoded placements; target: the entry shrinks >= 10x.  Byte-based, so
  it is asserted in quick mode too.
* **Run writer** — ``RunWriter`` plan + record + finalize at 100 and
  1,000 records.  Each record appends one line to ``records.jsonl`` and
  ``manifest.json`` is written once, at finalize (asserted in quick mode
  too); target: the time per record at 1,000 is within 2x of that at 100,
  where the per-record manifest rewrite it replaced grew with the run.

``REPRO_BENCH_QUICK=1`` (CI's perf-smoke job) runs single repetitions and
skips the wall-clock ratio assertions — CI machines are too noisy for
timing gates — while still asserting every counter-based property and the
bit-identical results.  The recorded JSON then documents the measured
ratios wherever the bench runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time

import numpy as np
import pytest

from benchmarks.conftest import NUM_INTERVALS, OUT_DIR, SCALE, TLAT_MS, write_report
from repro.audit import audit_lp_solution
from repro.core.classes import STANDARD_CLASSES, get_class
from repro.core.formulation import build_formulation
from repro.core.rounding import _Rounder
from repro.heuristics import CooperativeLRUCaching, GreedyGlobalPlacement, QiuGreedyPlacement
from repro.perf import PERF
import repro.runner.artifacts
from repro.runner.artifacts import RunWriter
from repro.runner.cache import ResultCache
from repro.runner.tasks import BoundTask
from repro.serialize import array_to_jsonable
from repro.simulator.engine import Simulator
from tests.audit.fast_audit_oracle import oracle_fast_audit
from tests.core.formulation_oracle import build_formulation_loops
from tests.core.rounding_oracle import LoopRounder
from tests.runner.dense_codec import dense_array_from_jsonable, dense_array_to_jsonable

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REPS = 1 if QUICK else 3

#: Populated by the benches below; the final test writes it out.
RESULTS: dict = {"scale": SCALE, "quick": QUICK}


def best_of(fn, reps=REPS):
    """Minimum wall-clock over ``reps`` runs (min is noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# -- 1. formulation assembly -------------------------------------------------


def test_assembly_speedup(web_problem):
    props = get_class("general").properties
    t_legacy, form_l = best_of(lambda: build_formulation_loops(web_problem, props))
    t_vec, form_v = best_of(lambda: build_formulation(web_problem, props))
    assert form_l.lp.num_variables == form_v.lp.num_variables
    assert form_l.lp.num_constraints == form_v.lp.num_constraints
    speedup = t_legacy / t_vec
    # Report only: each class's build time and the bytes of its pickled LP
    # (what a runner worker ships), assembled as a solve would find it.
    per_class = {}
    for name in sorted(STANDARD_CLASSES):
        class_props = STANDARD_CLASSES[name].properties
        t_build, form = best_of(lambda: build_formulation(web_problem, class_props))
        form.lp.assembled()
        per_class[name] = {
            "build_ms": round(t_build * 1000, 2),
            "pickled_bytes": len(pickle.dumps(form.lp)),
        }
    RESULTS["assembly"] = {
        "variables": form_v.lp.num_variables,
        "constraints": form_v.lp.num_constraints,
        "legacy_ms": round(t_legacy * 1000, 2),
        "vectorized_ms": round(t_vec * 1000, 2),
        "speedup": round(speedup, 2),
        "target": 3.0,
        "per_class": per_class,
    }
    if not QUICK:
        assert speedup >= 3.0, f"assembly speedup {speedup:.2f}x below the 3x target"


# -- 2. incremental re-solve -------------------------------------------------


def test_incremental_resolve_speedup(web_problem):
    props = get_class("general").properties
    form = build_formulation(web_problem, props)
    lp = form.lp
    solution = lp.solve(backend="auto")
    store_vars = [int(j) for j in form.store_idx.ravel() if j >= 0][:8]
    arrays = lp.assembled()
    saved = [(float(arrays.lb[j]), float(arrays.ub[j])) for j in store_vars]

    def resolve(force_rebuild):
        for j in store_vars:
            value = 1.0 if solution.values[j] > 0.5 else 0.0
            lp.set_bounds(j, value, value)
        # The rebuild path solves a copy of the patched model, which starts
        # cold: what every re-solve paid before patches were kept in place.
        target = pickle.loads(pickle.dumps(lp)) if force_rebuild else lp
        out = target.solve(backend="auto")
        for j, (lo, up) in zip(store_vars, saved):
            lp.set_bounds(j, lo, up)
        return out

    t_cold, sol_cold = best_of(lambda: resolve(force_rebuild=True))
    PERF.reset()
    t_warm, sol_warm = best_of(lambda: resolve(force_rebuild=False))
    # The patched path must be assembly-free and land on the same optimum.
    assert PERF.get("lp.assembly.rebuild") == 0
    assert PERF.get("lp.assembly.reuse") == REPS
    assert sol_warm.objective == pytest.approx(sol_cold.objective, abs=1e-6)
    RESULTS["resolve"] = {
        "fixed_vars": len(store_vars),
        "rebuild_ms": round(t_cold * 1000, 2),
        "patched_ms": round(t_warm * 1000, 2),
        "speedup": round(t_cold / t_warm, 2),
        "rebuilds_on_patched_path": PERF.get("lp.assembly.rebuild"),
    }


# -- 2b. re-solves inside the retained HiGHS instance -------------------------


def test_warm_resolve_speedup(web_problem):
    """QoS re-targets re-solved hot inside the retained HiGHS instance vs cold.

    One cold solve establishes the instance.  Every further re-target —
    drift-sized steps (the daemon, fine sweeps) and the coarse levels of a
    Figure-1 sweep — pushes its patched QoS rows and restarts HiGHS's dual
    simplex from the retained basis; each is timed against a cold solve of
    the same patched model (an unpickled copy, which retains nothing).  The
    foreign link — a copy started from the previous basis through
    ``setBasis``, as the service's per-class warm store does — is gated
    against one cold solve.
    """
    from repro.solvers.registry import solve_lp

    props = get_class("general").properties
    form = build_formulation(web_problem, props)
    base = 0.95
    steps = 3 if QUICK else 8
    drift = [round(base + i * 1e-4, 6) for i in range(1, steps + 1)]
    coarse = [0.99, 0.90] if QUICK else [0.99, 0.96, 0.90, 0.995]

    form.set_qos_fraction(base)
    prev = form.lp.solve(backend="scipy")
    assert prev.is_optimal

    PERF.reset()
    form.set_qos_fraction(drift[0])
    foreign = pickle.loads(pickle.dumps(form.lp))
    t0 = time.perf_counter()
    assert solve_lp(foreign, "scipy", warm_start=prev).is_optimal
    set_basis_s = time.perf_counter() - t0

    def hot_vs_cold(levels):
        hot_s = cold_s = 0.0
        for level in levels:
            form.set_qos_fraction(level)
            cold_lp = pickle.loads(pickle.dumps(form.lp))
            t0 = time.perf_counter()
            hot = form.lp.solve(backend="scipy")
            hot_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            cold = cold_lp.solve(backend="scipy")
            cold_s += time.perf_counter() - t0
            # Warm is a hint, never an answer: optima must agree.
            assert hot.objective == pytest.approx(cold.objective, rel=1e-9)
        return hot_s, cold_s

    warm_s, cold_s = hot_vs_cold(drift)
    coarse_warm_s, coarse_cold_s = hot_vs_cold(coarse)
    speedup = cold_s / warm_s
    coarse_speedup = coarse_cold_s / coarse_warm_s
    RESULTS["resolve_warm"] = {
        "levels": steps,
        "delta_per_level": 1e-4,
        "set_basis_ms": round(set_basis_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "cold_ms": round(cold_s * 1000, 2),
        "speedup": round(speedup, 2),
        "coarse_levels": coarse,
        "coarse_warm_ms": round(coarse_warm_s * 1000, 2),
        "coarse_cold_ms": round(coarse_cold_s * 1000, 2),
        "coarse_speedup": round(coarse_speedup, 2),
        "warm_starts": PERF.get("lp.simplex.warm_starts"),
        "warm_degraded": PERF.get("lp.simplex.warm_degraded"),
        "basis_materialized": PERF.get("lp.basis.materialized"),
        "iterations": PERF.get("lp.simplex.iterations"),
        "rebuilds_on_patched_path": PERF.get("lp.assembly.rebuild"),
        "target": 5.0,
        "coarse_target": 1.5,
    }
    # Counter-based properties hold at any machine speed.
    assert PERF.get("lp.assembly.rebuild") == 0
    assert PERF.get("lp.simplex.warm_starts") == 1 + steps + len(coarse)
    assert PERF.get("lp.simplex.warm_degraded") == 0
    # The foreign link hands HiGHS its own snapshot: no statuses derived.
    assert PERF.get("lp.basis.materialized") == 0
    if not QUICK:
        assert speedup >= 5.0, f"warm re-solve speedup {speedup:.2f}x below the 5x target"
        assert coarse_speedup >= 1.5, (
            f"coarse re-solve speedup {coarse_speedup:.2f}x below the 1.5x target"
        )
        per_cold_s = cold_s / steps
        assert set_basis_s <= per_cold_s, (
            f"setBasis start {set_basis_s * 1000:.0f}ms slower than one cold solve"
            f" ({per_cold_s * 1000:.0f}ms)"
        )


# -- 3. simulator replay -----------------------------------------------------


def seed_best_latency(state, node, obj, scope="global", holders=None):
    """The seed's serve path: ``holders()`` rebuilt by scanning every node."""
    lat = state.topology.latency
    best = float(lat[node][state.topology.origin])
    if scope == "local":
        return 0.0 if state.holds(node, obj) else best
    candidates = holders if holders is not None else {
        n for n in state.topology.nodes()
        if n != state.topology.origin and obj in state._held[n]
    }
    for m in candidates:
        best = min(best, float(lat[node][m]))
    if state.holds(node, obj):
        best = 0.0
    return best


def seed_replay(topology, trace, heuristic, tlat_ms):
    """The seed's replay of an access-driven heuristic, request by request.

    Every read is served by ``seed_best_latency`` (the heuristic's own
    lookups too) and counted per node, as the seed's ``Simulator.run``
    did.  Returns ``(total_cost, qos)``.
    """
    sim = Simulator(topology, trace, heuristic, tlat_ms=tlat_ms)
    state, ctx = sim.state, sim.ctx
    state.best_latency = (
        lambda node, obj, scope="global", holders=None:
        seed_best_latency(state, node, obj, scope, holders)
    )
    heuristic.on_start(ctx)
    reads = covered = 0
    lat_sum = 0.0
    per_node_reads, per_node_covered = {}, {}
    for req in trace.requests:
        ctx.now_s = req.time_s
        if req.is_write:
            latency = 0.0
            state.record_write(req.obj)
        else:
            latency = state.best_latency(req.node, req.obj, heuristic.routing)
            reads += 1
            lat_sum += latency
            per_node_reads[req.node] = per_node_reads.get(req.node, 0) + 1
            if latency <= tlat_ms:
                covered += 1
                per_node_covered[req.node] = per_node_covered.get(req.node, 0) + 1
        heuristic.on_access(req, latency, ctx)
    state.finalize(trace.duration_s)
    total = state.storage_cost + state.creation_cost + state.update_cost
    return total, covered / reads


def test_replay_speedup(topology, web_trace):
    t_scan, (scan_cost, scan_qos) = best_of(
        lambda: seed_replay(topology, web_trace, CooperativeLRUCaching(10), TLAT_MS)
    )
    PERF.reset()
    t_cached, res_cached = best_of(
        lambda: Simulator(topology, web_trace, CooperativeLRUCaching(10), tlat_ms=TLAT_MS).run()
    )
    # Same replay, to the last digit — the cache is a pure speedup.
    assert res_cached.total_cost == pytest.approx(scan_cost, abs=1e-9)
    assert res_cached.qos == scan_qos
    # Every fault-free serve hit the O(1) path; no full scans.
    assert PERF.get("sim.serve.fast") > 0
    assert PERF.get("sim.serve.scan") == 0
    speedup = t_scan / t_cached
    RESULTS["replay"] = {
        "heuristic": "coop-lru",
        "requests": len(web_trace.requests),
        "scan_ms": round(t_scan * 1000, 2),
        "cached_ms": round(t_cached * 1000, 2),
        "speedup": round(speedup, 2),
        "fast_serves": PERF.get("sim.serve.fast"),
        "scan_serves": PERF.get("sim.serve.scan"),
        "cache_repairs": PERF.get("sim.cache.repair"),
        "target": 2.0,
    }
    if not QUICK:
        assert speedup >= 2.0, f"replay speedup {speedup:.2f}x below the 2x target"


@pytest.mark.parametrize(
    "name, cls, size, target",
    # Greedy-global's own planning is about half of its batched replay.
    [("qiu", QiuGreedyPlacement, 2, 2.5), ("greedy-global", GreedyGlobalPlacement, 10, 1.4)],
)
def test_periodic_replay_speedup(topology, web_trace, name, cls, size, target):
    """A period-batched replay against the per-request loop, same heuristic.

    A subclass with a no-op ``on_access`` forces the loop; both sides plan
    with the same array planner, so the ratio is the serve path's alone.
    """
    period_s = web_trace.duration_s / NUM_INTERVALS
    looped_cls = type(f"Loop{cls.__name__}", (cls,), {"on_access": lambda self, r, s, c: None})

    def replay(heuristic_cls):
        before = {k: PERF.get(k) for k in ("sim.serve.fast", "sim.serve.scan")}
        result = Simulator(
            topology, web_trace, heuristic_cls(size, period_s=period_s, tlat_ms=TLAT_MS),
            tlat_ms=TLAT_MS, warmup_s=period_s, cost_interval_s=period_s,
        ).run()
        return result, {k: PERF.get(k) - v for k, v in before.items()}

    t_loop, (res_loop, loop_counts) = best_of(lambda: replay(looped_cls))
    t_batched, (res_batched, batched_counts) = best_of(lambda: replay(cls))
    # Bit-identical results and the same serve counts, at any speed.
    assert json.dumps(res_batched.to_dict()) == json.dumps(res_loop.to_dict())
    assert batched_counts == loop_counts
    assert batched_counts["sim.serve.fast"] == web_trace.num_reads
    assert batched_counts["sim.serve.scan"] == 0
    speedup = t_loop / t_batched
    RESULTS.setdefault("replay_periodic", {})[name] = {
        "requests": len(web_trace.requests),
        "per_request_ms": round(t_loop * 1000, 2),
        "batched_ms": round(t_batched * 1000, 2),
        "speedup": round(speedup, 2),
        "fast_serves": batched_counts["sim.serve.fast"],
        "target": target,
    }
    if not QUICK:
        assert speedup >= target, (
            f"{name} batched replay {speedup:.2f}x below the {target}x target"
        )


# -- 4. greedy rounding --------------------------------------------------------


def test_rounding_speedup(web_problem):
    """The incremental rounder against the per-cell loop on one LP point."""
    form = build_formulation(web_problem, get_class("replica-constrained").properties)
    solution = form.lp.solve(backend="scipy").require_optimal()
    lp_store = form.store_array(solution.values)
    lp_store.clip(0.0, 1.0, out=lp_store)

    def rounded(rounder_cls):
        rounder = rounder_cls(form, lp_store.copy(), run_length=False)
        rounder.run()
        return rounder

    t_loop, loop = best_of(lambda: rounded(LoopRounder))
    t_new, new = best_of(lambda: rounded(_Rounder))
    # Same choices, same placement, to the byte.
    assert new.store.tobytes() == loop.store.tobytes()
    assert (new.rounded_up, new.rounded_down) == (loop.rounded_up, loop.rounded_down)
    units = len(new.units)
    steps = new.rounded_up + new.rounded_down
    # A step re-prices only the units it touched, never every pending one.
    assert new.repriced < units * steps
    speedup = t_loop / t_new
    RESULTS["rounding"] = {
        "class": "replica-constrained",
        "qos": web_problem.goal.fraction,
        "units": units,
        "rounded_up": new.rounded_up,
        "rounded_down": new.rounded_down,
        "steps": steps,
        "repriced": new.repriced,
        "repriced_per_step": round(new.repriced / steps, 2),
        "us_per_step": round(t_new / steps * 1e6, 1),
        "loop_ms": round(t_loop * 1000, 2),
        "incremental_ms": round(t_new * 1000, 2),
        "speedup": round(speedup, 2),
        "target": 3.0,
    }
    if not QUICK:
        assert speedup >= 3.0, f"rounding speedup {speedup:.2f}x below the 3x target"


# -- 5. fast LP audit ---------------------------------------------------------


def test_fast_audit_speedup(web_problem):
    """The vectorized fast audit against the per-row oracle, every row both."""
    form = build_formulation(web_problem, get_class("general").properties)
    lp = form.lp
    solution = lp.solve(backend="scipy").require_optimal()
    # A second point with violated bounds and rows, so identical reports
    # are compared on violations, not only on two clean passes.
    bent = dataclasses.replace(solution, values=solution.values * 1.01 - 0.002)

    def triples(report):
        return [(v.check, v.subject, v.amount) for v in report.violations]

    for point in (solution, bent):
        want = oracle_fast_audit(lp, point)
        got = audit_lp_solution(lp, point, mode="fast")
        assert (got.checks, triples(got), got.skipped) == (
            want.checks, triples(want), want.skipped
        )
    assert triples(audit_lp_solution(lp, bent, mode="fast"))

    t_loop, _ = best_of(lambda: oracle_fast_audit(lp, solution))
    PERF.reset()
    t_vec, report = best_of(lambda: audit_lp_solution(lp, solution, mode="fast"))
    assert report.ok, report.render()
    assert PERF.get("audit.lp.rows") == REPS * lp.num_constraints
    speedup = t_loop / t_vec
    RESULTS["audit"] = {
        "class": "general",
        "variables": lp.num_variables,
        "constraints": lp.num_constraints,
        "rows_checked": lp.num_constraints,
        "loop_ms": round(t_loop * 1000, 2),
        "vectorized_ms": round(t_vec * 1000, 2),
        "speedup": round(speedup, 2),
        "target": 3.0,
    }
    if not QUICK:
        assert speedup >= 3.0, f"fast audit speedup {speedup:.2f}x below the 3x target"


# -- 6. cell payload bytes ----------------------------------------------------


def test_cell_payload_bytes(web_problem, tmp_path):
    """One rounded cell's cache entry: compressed arrays vs dense lists."""
    task = BoundTask(web_problem, get_class("general").properties, backend="scipy")
    result = task.run()
    store = result.rounding.store
    new = task.encode(result)
    old = task.encode(result)
    old["rounding"]["store"] = dense_array_to_jsonable(store)

    def entry_bytes(payload, name):
        cache = ResultCache(tmp_path / name)
        cache.store(task.cache_key(), task.kind, json.dumps(payload), 1.0)
        return cache._path(task.cache_key()).stat().st_size

    new_bytes, old_bytes = entry_bytes(new, "new"), entry_bytes(old, "old")
    decoded = task.decode(json.loads(json.dumps(new))).rounding.store
    dense = dense_array_from_jsonable(json.loads(json.dumps(old))["rounding"]["store"])
    assert decoded.dtype == dense.dtype and decoded.shape == dense.shape
    assert decoded.tobytes() == dense.tobytes() == store.tobytes()
    t_old, _ = best_of(lambda: json.dumps(dense_array_to_jsonable(store)))
    t_new, _ = best_of(lambda: json.dumps(array_to_jsonable(store)))
    ratio = old_bytes / new_bytes
    RESULTS["payload"] = {
        "class": "general",
        "qos": web_problem.goal.fraction,
        "store_shape": list(store.shape),
        "store_ones": int(np.count_nonzero(store)),
        "dense_bytes": old_bytes,
        "compressed_bytes": new_bytes,
        "shrink": round(ratio, 2),
        "dense_store_ms": round(t_old * 1000, 3),
        "compressed_store_ms": round(t_new * 1000, 3),
        "target": 10.0,
    }
    assert ratio >= 10.0, f"payload shrank only {ratio:.2f}x (target 10x)"


# -- 7. run writer ------------------------------------------------------------


def test_run_writer_scaling(web_problem, tmp_path, monkeypatch):
    """Per-record cost of a run directory stays flat as the run grows."""
    task = BoundTask(web_problem, get_class("general").properties, backend="scipy")
    result = task.run()
    payload = json.dumps(task.encode(result))
    audit = {"mode": "fast", "checks": ["status", "bounds", "rows"], "violations": [],
             "skipped": []}
    writes = []
    atomic_write_text = repro.runner.artifacts.atomic_write_text

    def counted(path, text):
        writes.append(path.name)
        atomic_write_text(path, text)

    monkeypatch.setattr(repro.runner.artifacts, "atomic_write_text", counted)

    def write_run(n):
        writer = RunWriter(root=tmp_path / f"runs-{n}", label=f"scaling-{n}")
        keys = [f"{i:064x}" for i in range(n)]
        ids = writer.plan([("bound", f"cell-{i}", key) for i, key in enumerate(keys)])
        for i, key in zip(ids, keys):
            writer.record(
                index=i, kind="bound", label=f"cell-{i}", key=key, cached=True,
                seconds=0.01, attempts=1, payload=payload, audit=audit,
                meta={"class": "general", "qos": 0.9},
            )
        return writer.finalize()

    per_record = {}
    for n in (100, 1000):
        writes.clear()
        seconds, run_dir = best_of(lambda: write_run(n))
        assert writes.count("manifest.json") == REPS  # once per run, at finalize
        assert set(writes) == {"manifest.json", "timing.txt"}  # record() creates no file
        lines = (run_dir / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2 * n
        per_record[n] = {
            "total_ms": round(seconds * 1000, 2),
            "per_record_us": round(seconds / n * 1e6, 1),
            "records_jsonl_bytes": (run_dir / "records.jsonl").stat().st_size,
            "manifest_bytes": (run_dir / "manifest.json").stat().st_size,
        }
    ratio = per_record[1000]["per_record_us"] / per_record[100]["per_record_us"]
    RESULTS["run_writer"] = {
        "records": {str(n): v for n, v in per_record.items()},
        "payload_bytes": len(payload),
        "manifest_writes_per_run": 1,
        "per_record_ratio": round(ratio, 2),
        "target": 2.0,
    }
    if not QUICK:
        assert ratio <= 2.0, (
            f"per-record time at 1,000 records is {ratio:.2f}x that at 100 (target <= 2x)"
        )


# -- report ------------------------------------------------------------------


def test_write_hot_paths_report():
    """Runs last (file order): persists the JSON record + a readable table."""
    assert {
        "assembly", "resolve", "resolve_warm", "replay", "replay_periodic", "rounding",
        "audit", "payload", "run_writer",
    } <= set(RESULTS), (
        "hot-path benches must run before the report (run the whole module)"
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_hot_paths.json").write_text(
        json.dumps(RESULTS, indent=2, sort_keys=True) + "\n"
    )
    a, r, s = RESULTS["assembly"], RESULTS["resolve"], RESULTS["replay"]
    w, g, d = RESULTS["resolve_warm"], RESULTS["rounding"], RESULTS["audit"]
    b, rw = RESULTS["payload"], RESULTS["run_writer"]
    lines = [
        "Hot-path micro-benchmarks (min over %d reps, scale=%s)" % (REPS, SCALE),
        "",
        "  stage               before      after    speedup",
        "  ----------------  --------  ---------  ---------",
        f"  assembly          {a['legacy_ms']:7.1f}ms {a['vectorized_ms']:7.1f}ms"
        f"  {a['speedup']:7.2f}x",
        f"  re-solve (fixed)  {r['rebuild_ms']:7.1f}ms {r['patched_ms']:7.1f}ms"
        f"  {r['speedup']:7.2f}x",
        f"  re-solve (drift)  {w['cold_ms']:7.1f}ms {w['warm_ms']:7.1f}ms"
        f"  {w['speedup']:7.2f}x",
        f"  re-solve (coarse) {w['coarse_cold_ms']:7.1f}ms {w['coarse_warm_ms']:7.1f}ms"
        f"  {w['coarse_speedup']:7.2f}x",
        f"  replay (coop-lru) {s['scan_ms']:7.1f}ms {s['cached_ms']:7.1f}ms"
        f"  {s['speedup']:7.2f}x",
        *(
            f"  {'replay (' + name + ')':<18}"
            f"{p['per_request_ms']:7.1f}ms {p['batched_ms']:7.1f}ms  {p['speedup']:7.2f}x"
            for name, p in RESULTS["replay_periodic"].items()
        ),
        f"  rounding (greedy) {g['loop_ms']:7.1f}ms {g['incremental_ms']:7.1f}ms"
        f"  {g['speedup']:7.2f}x",
        f"  audit (fast LP)   {d['loop_ms']:7.1f}ms {d['vectorized_ms']:7.1f}ms"
        f"  {d['speedup']:7.2f}x",
        f"  cell entry bytes  {b['dense_bytes']:9d} {b['compressed_bytes']:9d}"
        f"  {b['shrink']:7.2f}x",
        "",
        "  build per class   "
        + ", ".join(
            f"{name} {c['build_ms']:.0f}ms/{c['pickled_bytes'] / 1e6:.2f}MB"
            for name, c in a["per_class"].items()
        ),
        f"  assembly: {a['variables']} vars / {a['constraints']} rows;"
        f" replay: {s['requests']} requests,"
        f" {s['fast_serves']} O(1) serves, {s['scan_serves']} scans,"
        f" {s['cache_repairs']} column repairs",
        f"  hot re-solves: {w['levels']} drift steps and"
        f" {len(w['coarse_levels'])} coarse levels,"
        f" {w['warm_starts']} warm starts / {w['warm_degraded']} degraded,"
        f" setBasis start {w['set_basis_ms']:.0f}ms",
        f"  rounding: {g['class']} at {g['qos']:.0%}, {g['units']} units"
        f" ({g['rounded_up']} up / {g['rounded_down']} down), identical placements;"
        f" {g['repriced_per_step']:.2f} units re-priced and {g['us_per_step']:.0f}us per step",
        f"  fast audit: {d['class']} LP, every one of {d['rows_checked']} rows"
        f" and {d['variables']} bounds checked, identical reports",
        f"  cell entry: {b['class']} at {b['qos']:.0%}, store {b['store_shape']}"
        f" ({b['store_ones']} ones), identical decoded placement;"
        f" store to JSON {b['dense_store_ms']:.2f}ms -> {b['compressed_store_ms']:.2f}ms",
        "  run writer: "
        + ", ".join(
            f"{n} records {r['total_ms']:.0f}ms ({r['per_record_us']:.0f}us/record)"
            for n, r in rw["records"].items()
        )
        + f"; per-record ratio {rw['per_record_ratio']:.2f}x, one manifest write per run",
    ]
    write_report("hot_paths", "\n".join(lines))
