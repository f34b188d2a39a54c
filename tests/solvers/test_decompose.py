"""Per-object decomposition: equivalence with the monolithic LP per scope."""

import numpy as np
import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.costs import CostModel
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.solvers.decompose import (
    decomposition_applicable,
    solve_decomposed,
)
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload


@pytest.fixture(scope="module")
def fig2_instance():
    """A small fig-2-style instance: AS topology + WEB trace + paper costs."""
    topo = as_level_topology(10, seed=2)
    trace = web_workload(num_nodes=10, num_objects=8, requests_scale=0.01, seed=4)
    demand = DemandMatrix.from_trace(trace, 3)
    return topo, demand


def _problem(fig2, scope, fraction=0.9, **kwargs):
    topo, demand = fig2
    return MCPerfProblem(
        topology=topo,
        demand=demand,
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=scope),
        costs=kwargs.pop("costs", CostModel.paper_defaults()),
        **kwargs,
    )


#: The monolithic ``auto`` LP bound of each scope on ``fig2_instance`` (the
#: general class at 90 %).  Aggregating scopes are solved by the monolith
#: itself; separable ones must sum to the same bound.
PINNED_LP_COST = {
    GoalScope.PER_OBJECT: 53.575,
    GoalScope.PER_USER_OBJECT: 67.9375,
    GoalScope.PER_USER: 43.97222222222223,
    GoalScope.OVERALL: 30.57,
}


@pytest.mark.parametrize("scope", list(PINNED_LP_COST))
def test_decomposed_matches_monolith(fig2_instance, scope):
    problem = _problem(fig2_instance, scope)
    pinned = PINNED_LP_COST[scope]
    reference = compute_lower_bound(problem, backend="auto", do_rounding=False)
    decomposed = compute_lower_bound(problem, backend="decomposed", do_rounding=False)
    assert reference.lp_cost == pytest.approx(pinned, rel=1e-9)
    assert decomposed.feasible == reference.feasible
    assert decomposed.lp_cost == pytest.approx(pinned, rel=1e-9)
    if scope in (GoalScope.PER_USER, GoalScope.OVERALL):
        reason = decomposed.extras["decomposition_fallback"]
        assert scope.value in reason and "aggregates objects" in reason
        structured = compute_lower_bound(problem, backend="structure", do_rounding=False)
        assert structured.backend_used != "decomposed"
        assert structured.lp_cost == pytest.approx(pinned, rel=1e-9)
    else:
        assert decomposed.backend_used == "decomposed"
        assert decomposed.extras["decomposition"]["mode"] == "separable"


def test_separable_rounding_is_feasible_and_bounded(fig2_instance):
    problem = _problem(fig2_instance, GoalScope.PER_OBJECT)
    decomposed = solve_decomposed(problem, jobs=2)
    assert decomposed.rounding is not None and decomposed.rounding.feasible
    assert decomposed.feasible_cost >= decomposed.lp_cost - 1e-6
    assert decomposed.extras["decomposition"]["jobs"] == 2
    # The stitched store covers every object slot.
    serial = solve_decomposed(problem, jobs=1, keep_store=True)
    assert serial.store_lp.shape[2] == problem.demand.num_objects
    assert serial.lp_cost == pytest.approx(decomposed.lp_cost, rel=1e-9)


@pytest.mark.parametrize("scope", [GoalScope.PER_USER_OBJECT, GoalScope.PER_USER])
def test_infeasible_detected(fig2_instance, scope):
    # One distant storage node at full coverage: structurally impossible.
    problem = _problem(fig2_instance, scope, fraction=1.0, storage_nodes=[1])
    problem = MCPerfProblem(
        topology=problem.topology,
        demand=problem.demand,
        goal=QoSGoal(tlat_ms=1.0, fraction=1.0, scope=scope),
        costs=problem.costs,
        storage_nodes=[1],
    )
    reference = compute_lower_bound(problem, backend="auto", do_rounding=False)
    decomposed = compute_lower_bound(problem, backend="decomposed", do_rounding=False)
    assert not reference.feasible and not decomposed.feasible
    assert decomposed.reason


def test_zero_demand(fig2_instance):
    topo, _demand = fig2_instance
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=np.zeros((10, 2, 4))),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.9, scope=GoalScope.PER_OBJECT),
        costs=CostModel.paper_defaults(),
    )
    decomposed = solve_decomposed(problem)
    assert decomposed.feasible and decomposed.lp_cost == 0.0
    assert decomposed.feasible_cost == 0.0
    assert decomposed.extras["decomposition"]["mode"] == "empty"


def test_applicability_gates(fig2_instance):
    problem = _problem(fig2_instance, GoalScope.PER_OBJECT)
    assert decomposition_applicable(problem)[0]
    ok, reason = decomposition_applicable(
        problem, HeuristicProperties(storage_constraint=StorageConstraint.PER_NODE)
    )
    assert not ok and "storage" in reason
    ok, reason = decomposition_applicable(
        problem, HeuristicProperties(replica_constraint=ReplicaConstraint.UNIFORM)
    )
    assert not ok and "replica" in reason
    zeta = _problem(
        fig2_instance, GoalScope.PER_OBJECT, costs=CostModel.paper_defaults().with_zeta(100.0)
    )
    ok, reason = decomposition_applicable(zeta)
    assert not ok and "opening" in reason


def test_inapplicable_instances_fall_back_to_monolith(fig2_instance):
    problem = _problem(fig2_instance, GoalScope.PER_USER)
    props = HeuristicProperties(storage_constraint=StorageConstraint.PER_NODE)
    decomposed = solve_decomposed(problem, properties=props, do_rounding=False)
    reference = compute_lower_bound(problem, props, backend="auto", do_rounding=False)
    assert "decomposition_fallback" in decomposed.extras
    assert decomposed.feasible == reference.feasible
    if reference.feasible:
        assert decomposed.lp_cost == pytest.approx(reference.lp_cost, rel=1e-9)


def test_full_audit_attaches_backend_differential(fig2_instance):
    problem = _problem(fig2_instance, GoalScope.PER_OBJECT)
    result = solve_decomposed(problem, audit="full", audit_subject="decompose-test")
    assert result.audit is not None
    assert result.audit.ok, [v.message for v in result.audit.violations]


def test_constrained_classes_still_match_when_separable(fig2_instance):
    # Know/Hist/React fixings and a per-object replica count stay inside one
    # object, so these classes still split (caching-style classes carry a
    # storage constraint and fall back).
    from repro.core.classes import get_class

    problem = _problem(fig2_instance, GoalScope.PER_OBJECT)
    for name in ("reactive", "replica-constrained-per-object"):
        props = get_class(name).properties
        reference = compute_lower_bound(problem, props, backend="auto", do_rounding=False)
        decomposed = solve_decomposed(problem, props, do_rounding=False)
        assert decomposed.extras["decomposition"]["mode"] == "separable", name
        assert decomposed.feasible == reference.feasible
        if reference.feasible:
            assert decomposed.lp_cost == pytest.approx(reference.lp_cost, rel=1e-6)
