"""Tests for the lower-bound driver and its ordering invariants."""

import dataclasses

import numpy as np
import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.classes import get_class
from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties
from repro.workload.demand import DemandMatrix
from repro.topology.generators import star_topology


def test_general_bound_is_lowest(web_problem):
    general = compute_lower_bound(web_problem, do_rounding=False)
    assert general.feasible
    for name in ["storage-constrained", "replica-constrained", "cooperative-caching"]:
        result = compute_lower_bound(
            web_problem, get_class(name).properties, do_rounding=False
        )
        if result.feasible:
            assert result.lp_cost >= general.lp_cost - 1e-6, name


def test_bound_monotone_in_qos(web_problem):
    costs = []
    for fraction in [0.7, 0.8, 0.9]:
        goal = dataclasses.replace(web_problem.goal, fraction=fraction)
        p = dataclasses.replace(web_problem, goal=goal)
        result = compute_lower_bound(p, do_rounding=False)
        assert result.feasible
        costs.append(result.lp_cost)
    assert costs[0] <= costs[1] + 1e-6 <= costs[2] + 2e-6


def test_bound_monotone_in_latency_threshold(web_problem):
    loose = dataclasses.replace(
        web_problem, goal=QoSGoal(tlat_ms=400.0, fraction=0.9)
    )
    tight = dataclasses.replace(
        web_problem, goal=QoSGoal(tlat_ms=120.0, fraction=0.9)
    )
    r_loose = compute_lower_bound(loose, do_rounding=False)
    r_tight = compute_lower_bound(tight, do_rounding=False)
    if r_loose.feasible and r_tight.feasible:
        assert r_loose.lp_cost <= r_tight.lp_cost + 1e-6


def test_more_constrained_class_never_cheaper(web_problem):
    """Adding a property can only raise (or keep) the bound."""
    base = compute_lower_bound(
        web_problem, HeuristicProperties(reactive=True), do_rounding=False
    )
    more = compute_lower_bound(
        web_problem,
        HeuristicProperties(reactive=True, history_window=1),
        do_rounding=False,
    )
    if base.feasible and more.feasible:
        assert more.lp_cost >= base.lp_cost - 1e-6


def test_infeasible_class_reported(web_problem):
    goal = dataclasses.replace(web_problem.goal, fraction=0.99999)
    p = dataclasses.replace(web_problem, goal=goal)
    result = compute_lower_bound(p, get_class("caching").properties)
    assert not result.feasible
    assert result.lp_cost is None
    assert result.gap is None
    assert "goal" in result.reason or "infeasible" in result.reason


def test_result_str_forms(web_problem):
    feasible = compute_lower_bound(web_problem, do_rounding=False)
    assert "bound=" in str(feasible)
    goal = dataclasses.replace(web_problem.goal, fraction=0.99999)
    p = dataclasses.replace(web_problem, goal=goal)
    infeasible = compute_lower_bound(p, get_class("caching").properties)
    assert "cannot meet" in str(infeasible)


def test_gap_computed(web_problem):
    result = compute_lower_bound(web_problem)
    assert result.feasible_cost is not None
    assert result.gap is not None
    assert result.gap >= -1e-9


def test_keep_store_returns_matrix(web_problem):
    result = compute_lower_bound(web_problem, do_rounding=False, keep_store=True)
    assert result.store_lp is not None
    inst = web_problem.instance(HeuristicProperties())
    assert result.store_lp.shape == (
        inst.num_storers,
        inst.num_intervals,
        inst.num_objects,
    )


def test_formulation_reuse(web_problem):
    form = build_formulation(web_problem, None)
    a = compute_lower_bound(web_problem, None, do_rounding=False, formulation=form)
    b = compute_lower_bound(web_problem, None, do_rounding=False)
    assert a.lp_cost == pytest.approx(b.lp_cost, rel=1e-9)


def test_timing_and_size_metadata(web_problem):
    result = compute_lower_bound(web_problem, do_rounding=False)
    assert result.solve_seconds > 0
    assert result.num_variables > 0
    assert result.num_constraints > 0


def test_tiny_instance_matches_pinned_simplex_bound():
    # 3.0 is the bound the retired pure-Python simplex computed here.
    topo = star_topology(num_leaves=2, hub_latency_ms=200.0)
    reads = np.zeros((3, 2, 1))
    reads[1, :, 0] = 1
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=1.0),
    )
    for backend in ("auto", "scipy"):
        result = compute_lower_bound(problem, backend=backend, do_rounding=False)
        assert result.lp_cost == pytest.approx(3.0, abs=1e-9)
