"""Exact tree-DP backend: applicability gates and LP-equality properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bounds import compute_lower_bound
from repro.core.exact import compute_exact_bound
from repro.core.costs import CostModel
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties, StorageConstraint
from repro.solvers.tree_dp import solve_tree_dp, tree_dp_applicable
from repro.topology.generators import (
    line_topology,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.workload.demand import DemandMatrix


def _problem(topology, seed=0, objects=4, intervals=1, costs=None, **kwargs):
    rng = np.random.default_rng(seed)
    n = topology.num_nodes
    reads = rng.integers(0, 5, size=(n, intervals, objects)).astype(float)
    writes = rng.integers(0, 2, size=(n, intervals, objects)).astype(float)
    return MCPerfProblem(
        topology=topology,
        demand=DemandMatrix(reads=reads, writes=writes),
        goal=kwargs.pop("goal", QoSGoal(tlat_ms=150.0, fraction=1.0)),
        costs=costs or CostModel(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0),
        **kwargs,
    )


def _assert_matches_lp(problem):
    dp = solve_tree_dp(problem, keep_store=True)
    lp = compute_lower_bound(problem, backend="auto", do_rounding=False)
    assert dp.feasible and lp.feasible
    assert dp.lp_cost == pytest.approx(lp.lp_cost, rel=1e-6, abs=1e-6)
    # The tree solution is integral and optimal: zero rounding gap.
    assert dp.feasible_cost == pytest.approx(dp.lp_cost, rel=1e-9)
    assert np.all((dp.store_lp == 0) | (dp.store_lp == 1))
    return dp


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 15),
    seed=st.integers(0, 10_000),
    intervals=st.integers(1, 3),
)
def test_lp_mip_and_tree_dp_agree(n, seed, intervals):
    """Three exact answers on a tree: the LP bound, the MIP optimum, the DP.

    Where the DP applies the cover LP is integral, so HiGHS's LP and MIP
    optima and the DP's cost (which never assembles the LP) coincide.
    """
    problem = _problem(tree_topology(n, seed=seed), seed=seed, objects=3, intervals=intervals)
    assume(tree_dp_applicable(problem)[0])
    lp = compute_lower_bound(problem, backend="scipy", do_rounding=False)
    exact = compute_exact_bound(problem)
    dp = solve_tree_dp(problem)
    assert lp.backend_used == "scipy" and exact.status == "optimal"
    assert exact.exact_cost == pytest.approx(lp.lp_cost, rel=1e-6, abs=1e-6)
    assert dp.lp_cost == pytest.approx(lp.lp_cost, rel=1e-6, abs=1e-6)
    assert dp.feasible_cost == pytest.approx(dp.lp_cost, rel=1e-9)


def test_matches_lp_on_star():
    _assert_matches_lp(_problem(star_topology(7, hub_latency_ms=120.0), seed=1))


def test_matches_lp_on_line():
    _assert_matches_lp(_problem(line_topology(9, hop_latency_ms=60.0), seed=2))


@pytest.mark.parametrize("seed", range(6))
def test_matches_lp_on_random_trees(seed):
    topo = tree_topology(4 + 3 * seed, seed=seed)
    _assert_matches_lp(_problem(topo, seed=seed, objects=3))


@pytest.mark.parametrize(
    "scope", [GoalScope.PER_USER, GoalScope.OVERALL, GoalScope.PER_OBJECT]
)
def test_full_coverage_collapses_scopes(scope):
    # At fraction == 1 every scope demands the same per-cell coverage, so
    # the DP (which ignores the scope) must match the LP under each.
    topo = tree_topology(11, seed=7)
    problem = _problem(topo, seed=7, goal=QoSGoal(tlat_ms=150.0, fraction=1.0, scope=scope))
    _assert_matches_lp(problem)


def test_matches_lp_with_write_costs():
    # delta > 0 weights replicas by per-object write traffic.
    topo = tree_topology(10, seed=4)
    costs = CostModel(alpha=1.0, beta=0.0, gamma=0.0, delta=0.5)
    _assert_matches_lp(_problem(topo, seed=4, costs=costs))


def test_matches_lp_single_interval_with_beta():
    topo = tree_topology(10, seed=9)
    costs = CostModel(alpha=1.0, beta=2.0, gamma=0.0, delta=0.0)
    _assert_matches_lp(_problem(topo, seed=9, intervals=1, costs=costs))


def test_matches_lp_multi_interval_without_beta():
    topo = tree_topology(8, seed=3)
    _assert_matches_lp(_problem(topo, seed=3, intervals=3))


def test_zero_demand_costs_nothing():
    topo = tree_topology(6, seed=1)
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=np.zeros((6, 2, 3))),
        goal=QoSGoal(tlat_ms=150.0, fraction=1.0),
        costs=CostModel(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0),
    )
    dp = solve_tree_dp(problem)
    assert dp.feasible and dp.lp_cost == 0.0 and dp.feasible_cost == 0.0


def test_applicability_gates():
    tree = tree_topology(8, seed=0)
    base = _problem(tree, seed=0)
    assert tree_dp_applicable(base)[0]

    ok, reason = tree_dp_applicable(_problem(ring_topology(6), seed=0))
    assert not ok and "tree" in reason

    partial = _problem(tree, seed=0, goal=QoSGoal(tlat_ms=150.0, fraction=0.9))
    ok, reason = tree_dp_applicable(partial)
    assert not ok and "fraction" in reason

    ok, reason = tree_dp_applicable(
        base, HeuristicProperties(storage_constraint=StorageConstraint.PER_NODE)
    )
    assert not ok and "general" in reason

    gamma = _problem(tree, seed=0, costs=CostModel(alpha=1.0, beta=0.0, gamma=4.0, delta=0.0))
    assert not tree_dp_applicable(gamma)[0]

    beta_multi = _problem(
        tree, seed=0, intervals=2, costs=CostModel(alpha=1.0, beta=1.0, gamma=0.0, delta=0.0)
    )
    ok, reason = tree_dp_applicable(beta_multi)
    assert not ok and "interval" in reason

    restricted = _problem(tree, seed=0, storage_nodes=[1, 2])
    assert not tree_dp_applicable(restricted)[0]

    with pytest.raises(ValueError, match="not applicable"):
        solve_tree_dp(partial)


def test_backend_used_and_extras():
    problem = _problem(tree_topology(9, seed=6), seed=6)
    dp = solve_tree_dp(problem)
    assert dp.backend_used == "tree-dp"
    assert dp.status == "optimal"
    assert dp.extras["tree_dp"]["replicas"] >= 0
