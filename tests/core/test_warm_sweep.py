"""Warm-started QoS sweeps: counter wiring, exactness, auditing.

Every re-target — drift-sized or coarse — re-solves inside the LP's
retained HiGHS instance, hot from its last optimal basis; only an optimal
outcome keeps the instance.  A warm-started sweep must survive the full
audit — the certificates cannot tell (and must not care) how the optimum
was reached.
"""

import numpy as np
import pytest

from repro.audit.certificates import audit_bound_result
from repro.core.bounds import compute_lower_bound
from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.perf import PERF
from repro.topology.generators import star_topology
from repro.workload.demand import DemandMatrix


def tiny_problem(fraction=0.5):
    topo = star_topology(num_leaves=3, hub_latency_ms=200.0)
    reads = np.zeros((4, 2, 2))
    reads[1, :, 0] = 2
    reads[2, 1, 0] = 1
    reads[3, :, 1] = 1
    return MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction),
    )


def fine_levels(base=0.5, steps=4):
    return [round(base + i * 0.001, 6) for i in range(steps)]


def test_fine_sweep_fires_warm_starts():
    form = build_formulation(tiny_problem(0.5))
    before = PERF.get("lp.simplex.warm_starts")
    costs = []
    for level in fine_levels():
        form.set_qos_fraction(level)
        result = compute_lower_bound(
            form.problem, None, do_rounding=False, formulation=form
        )
        assert result.feasible
        costs.append(result.lp_cost)
    assert PERF.get("lp.simplex.warm_starts") > before
    # Exactness: each warm level must equal a fresh cold build.
    for level, cost in zip(fine_levels(), costs):
        fresh = compute_lower_bound(tiny_problem(level), None, do_rounding=False)
        assert cost == pytest.approx(fresh.lp_cost, abs=1e-8)


def retarget_and_solve(form, fraction):
    """Re-target ``form`` and solve it; returns (result, warm starts, degraded)."""
    warm0 = PERF.get("lp.simplex.warm_starts")
    degraded0 = PERF.get("lp.simplex.warm_degraded")
    form.set_qos_fraction(fraction)
    result = compute_lower_bound(form.problem, None, do_rounding=False, formulation=form)
    return (
        result,
        PERF.get("lp.simplex.warm_starts") - warm0,
        PERF.get("lp.simplex.warm_degraded") - degraded0,
    )


def test_coarse_retarget_hot_starts_retained_instance():
    form = build_formulation(tiny_problem(0.5))
    compute_lower_bound(form.problem, None, do_rounding=False, formulation=form)
    assert form.lp._highs is not None
    result, warm, degraded = retarget_and_solve(form, 0.7)
    assert (warm, degraded) == (1, 0)
    assert form.lp._highs is not None
    fresh = compute_lower_bound(tiny_problem(0.7), None, do_rounding=False)
    assert result.lp_cost == pytest.approx(fresh.lp_cost, abs=1e-8)


def test_fine_retarget_keeps_warm_hint():
    form = build_formulation(tiny_problem(0.5))
    compute_lower_bound(form.problem, None, do_rounding=False, formulation=form)
    retained = form.lp._highs
    assert retained is not None
    result, warm, degraded = retarget_and_solve(form, 0.5005)
    assert (warm, degraded) == (1, 0)
    assert form.lp._highs is retained
    fresh = compute_lower_bound(tiny_problem(0.5005), None, do_rounding=False)
    assert result.lp_cost == pytest.approx(fresh.lp_cost, abs=1e-8)


def test_warm_sweep_passes_full_audit():
    form = build_formulation(tiny_problem(0.5))
    before = PERF.get("lp.simplex.warm_starts")
    for level in fine_levels():
        form.set_qos_fraction(level)
        result = compute_lower_bound(
            form.problem, None, do_rounding=True, formulation=form, audit="full"
        )
        assert result.feasible
        assert result.audit is not None and result.audit.ok, result.audit.violations
        # Post-hoc artifact audit agrees with the in-solve one.
        report = audit_bound_result(form.problem, None, result, mode="full")
        assert report.ok, report.violations
    assert PERF.get("lp.simplex.warm_starts") > before


def test_non_optimal_outcome_clears_warm_hint():
    form = build_formulation(tiny_problem(0.5))
    compute_lower_bound(form.problem, None, do_rounding=False, formulation=form)
    assert form.lp._highs is not None
    # More required coverage than there are reads: LP-infeasible, past the
    # structural precheck.  The retained instance must not survive it.
    row = next(row for row, *_rest in form.qos_meta.values() if row >= 0)
    form.lp.set_rhs(row, 1e6)
    degraded0 = PERF.get("lp.simplex.warm_degraded")
    result = compute_lower_bound(
        form.problem, None, do_rounding=False, formulation=form
    )
    assert result.status == "infeasible"
    assert PERF.get("lp.simplex.warm_degraded") == degraded0 + 1
    assert form.lp._highs is None
