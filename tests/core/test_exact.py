"""Tests for exact MC-PERF solving (HiGHS MIP on the class's own LP).

Literal optima and brackets were pinned on the earlier hand-written branch
and bound: its proved optima must hold exactly, and where it stopped at
its node limit, the MIP optimum must lie inside the bracket it left.
"""

import numpy as np
import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.classes import get_class
from repro.core.costs import CostModel
from repro.core.exact import compute_exact_bound
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties, StorageConstraint
from repro.topology.generators import as_level_topology, star_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload
from tests.core.brute import brute_force_optimum


def tiny_problem(reads, fraction=0.6):
    topo = star_topology(num_leaves=2, hub_latency_ms=200.0)
    return MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=np.asarray(reads, dtype=float)),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=GoalScope.OVERALL),
        costs=CostModel.paper_defaults(),
    )


@pytest.mark.parametrize(
    "props",
    [
        HeuristicProperties(),
        HeuristicProperties(reactive=True),
        HeuristicProperties(storage_constraint=StorageConstraint.UNIFORM),
    ],
    ids=lambda p: p.describe(),
)
def test_exact_matches_brute_force(props):
    reads = np.zeros((3, 2, 2))
    reads[1, 0, 0] = 2
    reads[1, 1, 0] = 1
    reads[2, 1, 1] = 3
    problem = tiny_problem(reads)
    exact = compute_exact_bound(problem, props)
    brute, _ = brute_force_optimum(problem, props)
    if not exact.feasible:
        assert brute is None
        return
    assert exact.status == "optimal"
    # The exact mode optimizes the LP objective; the brute force
    # uses the class accounting, which adds capacity-fill terms the LP
    # objective cannot see.  The LP-side optimum therefore lower-bounds the
    # accounting optimum, and for the unconstrained classes they coincide.
    assert exact.exact_cost <= brute + 1e-6
    if props.storage_constraint is StorageConstraint.NONE:
        assert exact.exact_cost == pytest.approx(brute, abs=1e-6)


def test_exact_infeasible_matches_lp():
    reads = np.zeros((3, 2, 1))
    reads[1, 0, 0] = 1
    problem = tiny_problem(reads, fraction=1.0)
    exact = compute_exact_bound(problem, HeuristicProperties(reactive=True))
    assert not exact.feasible
    lp = compute_lower_bound(problem, HeuristicProperties(reactive=True))
    assert not lp.feasible


def sandwich_problem():
    topo = as_level_topology(num_nodes=6, seed=4)
    trace = web_workload(num_nodes=6, num_objects=8, requests_scale=0.01, seed=2)
    demand = DemandMatrix.from_trace(trace, num_intervals=4)
    return MCPerfProblem(
        topology=topo,
        demand=demand,
        goal=QoSGoal(tlat_ms=150.0, fraction=0.7),
    )


def test_exact_sandwiched_between_lp_and_rounding():
    problem = sandwich_problem()
    lp = compute_lower_bound(problem, do_rounding=True)
    exact = compute_exact_bound(problem, node_limit=3_000)
    assert lp.feasible and exact.feasible
    assert exact.lower_bound >= lp.lp_cost - 1e-6
    # Pinned: the proved integral optimum of this instance.
    assert exact.status == "optimal"
    assert exact.exact_cost == pytest.approx(25.0, abs=1e-6)
    assert lp.lp_cost <= exact.exact_cost + 1e-6
    assert exact.exact_cost <= lp.feasible_cost + 1e-6
    gap = exact.rounding_gap
    assert gap is None or gap >= -1e-9


def test_exact_storage_constrained_bracket():
    problem = sandwich_problem()
    props = HeuristicProperties(storage_constraint=StorageConstraint.UNIFORM)
    exact = compute_exact_bound(problem, props, node_limit=3_000)
    assert exact.feasible
    # The earlier search stopped at 3000 nodes with the bracket [44.45, 50].
    assert exact.status == "optimal"
    assert exact.exact_cost == pytest.approx(46.0, abs=1e-6)
    assert 44.453333 - 1e-5 <= exact.exact_cost <= 50.0
    assert exact.lower_bound == exact.exact_cost


def test_exact_store_is_integral_when_returned():
    reads = np.zeros((3, 2, 1))
    reads[1, :, 0] = 2
    problem = tiny_problem(reads, fraction=0.5)
    exact = compute_exact_bound(problem)
    assert exact.feasible and exact.status == "optimal"
    assert exact.store is not None
    assert set(np.unique(exact.store)) <= {0.0, 1.0}


def test_node_limit_reports_bracket(web_problem):
    topo = as_level_topology(num_nodes=6, seed=4)
    trace = web_workload(num_nodes=6, num_objects=10, requests_scale=0.02, seed=3)
    demand = DemandMatrix.from_trace(trace, num_intervals=4)
    problem = MCPerfProblem(
        topology=topo, demand=demand, goal=QoSGoal(tlat_ms=150.0, fraction=0.8)
    )
    exact = compute_exact_bound(problem, node_limit=3)
    assert exact.feasible
    # Three nodes of the earlier search left the bracket [33.12, 37];
    # HiGHS proves 37 within them.
    assert exact.status == "optimal"
    assert exact.exact_cost == pytest.approx(37.0, abs=1e-6)
    assert 33.120488 - 1e-5 <= exact.exact_cost <= 37.0

    # A model HiGHS cannot close at its root node stops with a bracket.
    props = get_class("replica-constrained-per-object").properties
    limited = compute_exact_bound(web_problem, props, node_limit=1)
    assert limited.feasible
    assert limited.status == "node-limit"
    assert limited.lower_bound == pytest.approx(117.0, abs=1e-6)
    assert limited.exact_cost == pytest.approx(120.0, abs=1e-6)
    assert limited.lp_cost <= limited.lower_bound + 1e-6
    assert limited.rounding_gap is None
    assert set(np.unique(limited.store)) <= {0.0, 1.0}
