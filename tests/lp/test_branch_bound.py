"""Tests for exact integer solving with HiGHS's MIP solver (``solve_mip``).

HiGHS runs its own branch and bound (with cuts and presolve), so the node
counts it reports are its own; the optima and the bracket contract are
what these tests hold it to.  The literals were pinned on the earlier
hand-written branch and bound: proved optima must match them exactly and
node-limited runs must land inside the bracket it left.
"""

import itertools

import numpy as np
import pytest

from repro.audit.certificates import check_solution
from repro.lp.model import LinearProgram
from repro.lp.scipy_backend import solve_mip
from repro.lp.solution import SolveStatus


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
    result = solve_mip(lp, [0, 1, 2])
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(-10.0)
    assert result.dual_bound == result.objective
    assert check_solution(lp, result.values).feasible


def test_knapsack_brute_force_agreement():
    rng = np.random.default_rng(11)
    values = rng.integers(1, 15, size=8)
    weights = rng.integers(1, 10, size=8)
    capacity = int(weights.sum() // 2)
    lp = knapsack(values, weights, capacity)
    result = solve_mip(lp, range(8))
    best = min(
        -float(values[np.array(bits, dtype=bool)].sum())
        for bits in itertools.product([0, 1], repeat=8)
        if float(weights[np.array(bits, dtype=bool)].sum()) <= capacity
    )
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(best)
    assert result.objective == pytest.approx(-40.0)


def test_integral_lp_needs_one_node():
    lp = LinearProgram()
    lp.var("x", upper=1.0, obj=1.0)
    lp.add_row([0], [1.0], ">=", 1.0)
    result = solve_mip(lp, [0])
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(1.0)
    assert result.nodes <= 1


def test_infeasible_detected():
    lp = LinearProgram()
    lp.var("x", upper=1.0)
    lp.add_row([0], [1.0], ">=", 2.0)
    result = solve_mip(lp, [0])
    assert result.status is SolveStatus.INFEASIBLE
    assert result.objective is None and result.values is None


def test_fractional_lp_with_integral_gap():
    # min x0 + x1 s.t. x0 + x1 >= 1.5 over binaries: LP = 1.5, IP = 2.
    lp = LinearProgram()
    lp.var("a", upper=1.0, obj=1.0)
    lp.var("b", upper=1.0, obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 1.5)
    assert lp.solve().objective == pytest.approx(1.5)
    result = solve_mip(lp, [0, 1])
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(2.0)
    assert result.dual_bound == pytest.approx(2.0)


def test_node_limit_returns_valid_bracket():
    rng = np.random.default_rng(3)
    values = rng.integers(5, 20, size=10)
    weights = rng.integers(3, 9, size=10)
    lp = knapsack(values, weights, 20)
    full = solve_mip(lp, range(10))
    limited = solve_mip(lp, range(10), node_limit=2)
    assert full.status is SolveStatus.OPTIMAL
    assert full.objective == pytest.approx(-63.0)
    # Two nodes of the earlier search left the bracket [-63.25, none].
    assert limited.status in (SolveStatus.OPTIMAL, SolveStatus.NODE_LIMIT)
    assert -63.25 - 1e-9 <= limited.dual_bound <= full.objective + 1e-9
    if limited.objective is not None:
        assert limited.objective >= full.objective - 1e-9


def test_mixed_integer_continuous():
    # One binary decision plus a continuous helper.
    lp = LinearProgram()
    x = lp.var("x", upper=1.0, obj=3.0)  # binary
    y = lp.var("y", upper=10.0, obj=1.0)  # continuous
    lp.add_row([x, y], [2.0, 1.0], ">=", 3.0)
    result = solve_mip(lp, [x])
    assert result.status is SolveStatus.OPTIMAL
    # x=1, y=1 -> 4 vs x=0, y=3 -> 3: continuous-only is cheaper.
    assert result.objective == pytest.approx(3.0)
    assert result.values[x] == pytest.approx(0.0)


def test_continuous_columns_stay_fractional():
    # min y s.t. 2 y >= 1: y = 0.5 is optimal when y is continuous.
    lp = LinearProgram()
    x = lp.var("x", upper=1.0, obj=1.0)
    y = lp.var("y", upper=1.0, obj=1.0)
    lp.add_row([x], [2.0], ">=", 1.0)
    lp.add_row([y], [2.0], ">=", 1.0)
    result = solve_mip(lp, [x])
    assert result.status is SolveStatus.OPTIMAL
    assert result.values[x] == pytest.approx(1.0)
    assert result.values[y] == pytest.approx(0.5)
    assert result.objective == pytest.approx(1.5)


def test_mip_leaves_the_retained_lp_instance_alone():
    lp = knapsack([10, 6, 4], [5, 4, 3], 7)
    relaxed = lp.solve()
    retained = lp._highs
    assert retained is not None
    solve_mip(lp, [0, 1, 2])
    assert lp._highs is retained
    assert lp.solve().objective == pytest.approx(relaxed.objective)


def test_violating_incumbent_is_an_error(monkeypatch):
    from repro.lp import scipy_backend

    monkeypatch.setattr(scipy_backend, "_violates", lambda cache, values: True)
    result = solve_mip(knapsack([10, 6, 4], [5, 4, 3], 7), [0, 1, 2])
    assert result.status is SolveStatus.ERROR
    assert result.objective is None
    assert "violates" in result.message
