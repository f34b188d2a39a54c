"""Certificate-level audits on real (tiny) MC-PERF instances."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.audit import (
    audit_bound_result,
    audit_lp_solution,
    audit_placement,
    audit_rounding,
    audit_sim_result,
    exact_objective,
    sim_gate_violation,
    AuditReport,
)
from repro.core.bounds import compute_lower_bound
from repro.core.classes import get_class
from repro.core.costs import CostModel
from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import star_topology
from repro.workload.demand import DemandMatrix
from tests.conftest import make_trace


@pytest.fixture(scope="module")
def tiny_problem():
    """A 4-node star with a handful of requests: solves in milliseconds."""
    topo = star_topology(num_leaves=3, hub_latency_ms=100.0)
    trace = make_trace(
        [(10, 1, 0), (20, 1, 0), (30, 2, 1), (40, 3, 1), (50, 2, 0), (60, 1, 1)],
        duration_s=120.0,
        num_nodes=4,
        num_objects=2,
    )
    demand = DemandMatrix.from_trace(trace, num_intervals=2)
    return MCPerfProblem(
        topology=topo,
        demand=demand,
        # 50 ms < the 100 ms hub hop, so replicas must be placed (lp_cost > 0)
        goal=QoSGoal(tlat_ms=50.0, fraction=0.9),
        costs=CostModel.paper_defaults(),
    )


@pytest.fixture(scope="module")
def audited_result(tiny_problem):
    return compute_lower_bound(
        tiny_problem, get_class("storage-constrained").properties, audit="full"
    )


def test_honest_solve_audits_clean(audited_result):
    assert audited_result.feasible
    report = audited_result.audit
    assert report is not None
    assert report.ok, report.render()
    for check in ("status", "objective", "placement", "bound-gate"):
        assert check in report.checks


def test_full_mode_runs_exact_and_dual(audited_result):
    report = audited_result.audit
    assert report.mode == "full"
    assert "var-bound" in report.checks
    assert "constraint" in report.checks
    assert "dual" in report.checks
    assert not report.skipped


def test_audit_off_attaches_nothing(tiny_problem, monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    result = compute_lower_bound(tiny_problem, get_class("storage-constrained").properties)
    assert result.audit is None


def test_env_var_turns_auditing_on(tiny_problem, monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "fast")
    result = compute_lower_bound(tiny_problem, get_class("storage-constrained").properties)
    assert result.audit is not None
    assert result.audit.mode == "fast"
    assert result.audit.ok


def test_exact_objective_matches_float(tiny_problem):
    form = build_formulation(tiny_problem, get_class("storage-constrained").properties)
    solution = form.lp.solve(backend="scipy")
    exact = exact_objective(form.lp, solution.values)
    assert abs(float(exact) - float(solution.objective)) <= 1e-6 * (
        1.0 + abs(float(solution.objective))
    )


def test_audit_lp_solution_flags_corrupted_value(tiny_problem):
    form = build_formulation(tiny_problem, get_class("storage-constrained").properties)
    solution = form.lp.solve(backend="scipy")
    values = np.asarray(solution.values, dtype=float).copy()
    values[0] += 10.0  # blow a bound or a constraint row, and the objective
    corrupted = dataclasses.replace(solution, values=values)
    report = audit_lp_solution(form.lp, corrupted, mode="full")
    assert not report.ok


def test_audit_rounding_flags_cost_tampering(tiny_problem):
    form = build_formulation(tiny_problem, get_class("storage-constrained").properties)
    solution = form.lp.solve(backend="scipy")
    from repro.core.rounding import round_solution

    rounding = round_solution(form, solution)
    clean = audit_rounding(form, rounding, form.bound_cost(solution))
    assert clean.ok, clean.render()

    tampered = dataclasses.replace(
        rounding,
        cost=dataclasses.replace(rounding.cost, storage=rounding.cost.storage - 50.0),
    )
    report = audit_rounding(form, tampered, form.bound_cost(solution))
    assert not report.ok
    assert any(v.check in ("cost", "bound-gate") for v in report.violations)


def test_audit_placement_flags_fractional_store(tiny_problem):
    form = build_formulation(tiny_problem, get_class("storage-constrained").properties)
    solution = form.lp.solve(backend="scipy")
    from repro.core.rounding import round_solution

    rounding = round_solution(form, solution)
    store = np.asarray(rounding.store, dtype=float).copy()
    store.flat[0] = 0.5
    report = audit_placement(form, store)
    assert not report.ok
    assert any("fractional" in v.message for v in report.violations)


def test_audit_bound_result_accepts_honest_payload(tiny_problem, audited_result):
    report = audit_bound_result(
        tiny_problem, audited_result.properties, audited_result, mode="fast"
    )
    assert report.ok, report.render()


def test_audit_bound_result_flags_inflated_bound(tiny_problem, audited_result):
    forged = dataclasses.replace(audited_result, lp_cost=audited_result.lp_cost * 3.0)
    report = audit_bound_result(tiny_problem, forged.properties, forged, mode="fast")
    assert not report.ok
    assert any(v.check == "bound-gate" for v in report.violations)


def test_audit_bound_result_flags_nonfinite_bound(tiny_problem, audited_result):
    forged = dataclasses.replace(audited_result, lp_cost=float("nan"))
    report = audit_bound_result(tiny_problem, forged.properties, forged, mode="fast")
    assert not report.ok
    assert any(v.check == "artifact" for v in report.violations)


def test_audit_sim_result_flags_corruption():
    from repro.runner.tasks import HeuristicSpec, SimulateTask
    from tests.conftest import make_trace as mk

    topo = star_topology(num_leaves=3, hub_latency_ms=100.0)
    trace = mk(
        [(5, 1, 0), (15, 2, 0), (25, 3, 1), (35, 1, 1)],
        duration_s=60.0,
        num_nodes=4,
        num_objects=2,
    )
    task = SimulateTask(
        topology=topo,
        trace=trace,
        heuristic=HeuristicSpec(name="lru", capacity=2),
        cost_interval_s=30.0,
    )
    result = task.run()
    assert audit_sim_result(result).ok

    payload = task.encode(result)
    payload["storage_cost"] = -5.0
    corrupted = task.decode(payload)
    report = audit_sim_result(corrupted)
    assert not report.ok

    payload = task.encode(result)
    payload["covered_reads"] = payload["reads"] + 7
    report = audit_sim_result(task.decode(payload))
    assert not report.ok


def test_sim_gate_violation():
    report = AuditReport()
    assert sim_gate_violation(report, simulated_cost=90.0, class_bound=100.0,
                              eps=1e-3, subject="lru vs caching")
    assert not report.ok
    ok_report = AuditReport()
    assert not sim_gate_violation(ok_report, simulated_cost=110.0,
                                  class_bound=100.0, eps=1e-3, subject="x")
    assert ok_report.ok
