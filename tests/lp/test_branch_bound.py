"""Tests for the branch-and-bound 0/1 solver."""

import numpy as np
import pytest

from repro.lp.branch_bound import IPResult, solve_integer
from repro.lp.model import LinearProgram
from repro.audit.certificates import check_solution


def knapsack(values, weights, capacity):
    """max Σ v x  <=>  min Σ -v x  s.t.  Σ w x <= capacity, x binary."""
    lp = LinearProgram()
    for j, v in enumerate(values):
        lp.var(f"x{j}", upper=1.0, obj=-float(v))
    lp.add_row(list(range(len(values))), [float(w) for w in weights], "<=", float(capacity))
    return lp


def test_knapsack_exact_optimum():
    # values 10, 6, 4; weights 5, 4, 3; capacity 7:
    # {10} (w=5) and {6, 4} (w=7) both reach value 10; {10, 4} is too heavy.
    lp = knapsack([10, 6, 4], [5, 4, 3], 7)
    result = solve_integer(lp, [0, 1, 2])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-10.0)
    assert check_solution(lp, result.values).feasible


def test_knapsack_brute_force_agreement():
    import itertools

    rng = np.random.default_rng(11)
    values = rng.integers(1, 15, size=8)
    weights = rng.integers(1, 10, size=8)
    capacity = int(weights.sum() // 2)
    lp = knapsack(values, weights, capacity)
    result = solve_integer(lp, list(range(8)), node_limit=100_000)
    best = min(
        -float(values[np.array(bits, dtype=bool)].sum())
        for bits in itertools.product([0, 1], repeat=8)
        if float(weights[np.array(bits, dtype=bool)].sum()) <= capacity
    )
    assert result.status == "optimal"
    assert result.objective == pytest.approx(best)


def test_integral_lp_needs_one_node():
    lp = LinearProgram()
    lp.var("x", upper=1.0, obj=1.0)
    lp.add_row([0], [1.0], ">=", 1.0)
    result = solve_integer(lp, [0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(1.0)
    assert result.nodes == 1


def test_infeasible_detected():
    lp = LinearProgram()
    lp.var("x", upper=1.0)
    lp.add_row([0], [1.0], ">=", 2.0)
    result = solve_integer(lp, [0])
    assert result.status == "infeasible"
    assert result.objective is None


def test_fractional_lp_with_integral_gap():
    # min x0 + x1 s.t. x0 + x1 >= 1.5 over binaries: LP = 1.5, IP = 2.
    lp = LinearProgram()
    lp.var("a", upper=1.0, obj=1.0)
    lp.var("b", upper=1.0, obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 1.5)
    result = solve_integer(lp, [0, 1])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)
    assert result.best_bound == pytest.approx(2.0)
    assert result.gap == pytest.approx(0.0)


def test_node_limit_returns_valid_bracket():
    # A wider instance; with node_limit=1 only the root is solved.
    rng = np.random.default_rng(3)
    values = rng.integers(5, 20, size=10)
    weights = rng.integers(3, 9, size=10)
    lp = knapsack(values, weights, 20)
    full = solve_integer(lp, list(range(10)), node_limit=100_000)
    limited = solve_integer(lp, list(range(10)), node_limit=2)
    assert full.status == "optimal"
    assert limited.status in ("optimal", "node-limit")
    assert limited.best_bound <= full.objective + 1e-9


def test_incumbent_objective_only_seed():
    lp = knapsack([10, 6, 4], [5, 4, 3], 7)
    # Seed with the known optimum (objective only, no values).
    result = solve_integer(lp, [0, 1, 2], incumbent=(-14.0, None))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-14.0)


def test_bad_integer_bounds_rejected():
    lp = LinearProgram()
    lp.var("x", upper=5.0)
    with pytest.raises(ValueError, match="within"):
        solve_integer(lp, [0])


def test_mixed_integer_continuous():
    # One binary decision plus a continuous helper.
    lp = LinearProgram()
    x = lp.var("x", upper=1.0, obj=3.0)  # binary
    y = lp.var("y", upper=10.0, obj=1.0)  # continuous
    lp.add_row([x, y], [2.0, 1.0], ">=", 3.0)
    result = solve_integer(lp, [x])
    assert result.status == "optimal"
    # x=1, y=1 -> 4 vs x=0, y=3 -> 3: continuous-only is cheaper.
    assert result.objective == pytest.approx(3.0)
    assert result.values[x] == pytest.approx(0.0)
