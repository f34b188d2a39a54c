"""Solver-backend registry: names, dispatch, auto-selection."""

import numpy as np
import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.costs import CostModel
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.lp.model import LinearProgram
from repro.solvers import registry
from repro.solvers.registry import (
    BACKEND_AUTO,
    BACKEND_DECOMPOSED,
    BACKEND_STRUCTURE,
    BACKEND_TREE_DP,
    BOUND_BACKENDS,
    LP_BACKENDS,
    SolverBackend,
    estimated_lp_variables,
    get_backend,
    register_backend,
    registered_backends,
    select_backend,
    solve_lp,
)
from repro.topology.generators import as_level_topology, tree_topology
from repro.workload.demand import DemandMatrix


def _small_lp() -> LinearProgram:
    lp = LinearProgram(name="t")
    x = lp.var("x", obj=1.0)
    lp.add_row([x], [1.0], ">=", 2.0)
    return lp


def _problem(topology, fraction=1.0, scope=GoalScope.PER_USER, num_objects=3):
    n = topology.num_nodes
    rng = np.random.default_rng(0)
    reads = rng.integers(0, 4, size=(n, 2, num_objects)).astype(float)
    return MCPerfProblem(
        topology=topology,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=scope),
        costs=CostModel(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0),
    )


def test_backend_name_constants():
    assert LP_BACKENDS == ("auto", "scipy")
    assert set(LP_BACKENDS) < set(BOUND_BACKENDS)
    assert BACKEND_STRUCTURE in BOUND_BACKENDS
    assert BACKEND_TREE_DP in BOUND_BACKENDS
    assert BACKEND_DECOMPOSED in BOUND_BACKENDS


def test_builtin_backends_registered():
    names = registered_backends()
    for name in LP_BACKENDS:
        assert name in names
        assert get_backend(name).name == name


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown LP backend: 'nope'"):
        get_backend("nope")
    with pytest.raises(ValueError, match="unknown LP backend"):
        _small_lp().solve(backend="nope")


def test_solve_lp_dispatch_agrees_across_backends():
    objectives = [
        solve_lp(_small_lp(), backend=name).require_optimal().objective
        for name in LP_BACKENDS
    ]
    assert objectives == pytest.approx([2.0, 2.0])


def test_register_custom_backend():
    calls = []

    def solver(model, **kwargs):
        calls.append(model.name)
        from repro.lp.scipy_backend import solve_with_scipy

        return solve_with_scipy(model)

    register_backend(SolverBackend(name="custom-test", solve=solver))
    try:
        solution = _small_lp().solve(backend="custom-test")
        assert solution.is_optimal and calls == ["t"]
    finally:
        registry._REGISTRY.pop("custom-test", None)


def test_estimated_lp_variables_errs_high():
    problem = _problem(as_level_topology(8, seed=1), fraction=0.9)
    from repro.core.formulation import build_formulation

    actual = build_formulation(problem).lp.num_variables
    assert estimated_lp_variables(problem) >= actual


def test_select_backend_picks_tree_dp_on_trees():
    problem = _problem(tree_topology(12, seed=3), fraction=1.0)
    assert select_backend(problem) == BACKEND_TREE_DP


def test_select_backend_prefers_decomposition_only_when_large(monkeypatch):
    topo = as_level_topology(8, seed=1)
    per_object = _problem(topo, fraction=0.9, scope=GoalScope.PER_OBJECT)
    assert select_backend(per_object) == BACKEND_AUTO  # small: monolith wins
    monkeypatch.setattr(registry, "DECOMPOSITION_MIN_VARIABLES", 1)
    assert select_backend(per_object) == BACKEND_DECOMPOSED
    # Aggregating scopes never split, however large.
    for scope in (GoalScope.PER_USER, GoalScope.OVERALL):
        assert select_backend(_problem(topo, fraction=0.9, scope=scope)) == BACKEND_AUTO


def test_structure_backend_routes_through_compute_lower_bound():
    problem = _problem(tree_topology(10, seed=5), fraction=1.0)
    result = compute_lower_bound(problem, backend=BACKEND_STRUCTURE)
    assert result.backend_used == BACKEND_TREE_DP
    reference = compute_lower_bound(problem, backend=BACKEND_AUTO)
    assert result.lp_cost == pytest.approx(reference.lp_cost, rel=1e-6)
