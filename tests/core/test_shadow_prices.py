"""Tests for LP duals and QoS shadow prices."""

import numpy as np
import pytest

from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import star_topology
from repro.workload.demand import DemandMatrix


def tiny_problem(fraction):
    topo = star_topology(num_leaves=2, hub_latency_ms=200.0)
    reads = np.zeros((3, 2, 1))
    reads[1, :, 0] = 2
    reads[2, :, 0] = 2
    return MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction),
    )


def test_duals_returned_by_scipy_backend():
    form = build_formulation(tiny_problem(0.5))
    solution = form.lp.solve().require_optimal()
    assert solution.duals is not None
    assert len(solution.duals) == form.lp.num_constraints


def test_shadow_prices_match_finite_differences():
    """The dual-based marginal cost must predict the bound's local slope."""
    eps = 0.02
    base = 0.5
    form = build_formulation(tiny_problem(base))
    solution = form.lp.solve().require_optimal()
    prices = form.qos_shadow_prices(solution)
    predicted = solution.objective + eps * sum(prices.values())

    bumped = build_formulation(tiny_problem(base + eps))
    bumped_solution = bumped.lp.solve().require_optimal()
    assert bumped_solution.objective == pytest.approx(predicted, rel=1e-6)


def test_shadow_prices_nonnegative_for_binding_requirements():
    form = build_formulation(tiny_problem(0.75))
    solution = form.lp.solve().require_optimal()
    prices = form.qos_shadow_prices(solution)
    assert prices  # both leaves have QoS rows
    assert all(v >= -1e-9 for v in prices.values())
    # The fractional LP is binding here: tightening costs something.
    assert sum(prices.values()) > 0


def test_shadow_prices_zero_when_goal_is_slack():
    # Origin within threshold: the goal is free, rows absent or slack.
    topo = star_topology(num_leaves=2, hub_latency_ms=100.0)
    reads = np.zeros((3, 2, 1))
    reads[1, :, 0] = 2
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.9),
    )
    form = build_formulation(problem)
    solution = form.lp.solve().require_optimal()
    prices = form.qos_shadow_prices(solution)
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in prices.values())
