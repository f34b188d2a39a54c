"""LP backend tests.

HiGHS is the one LP solver.  Every optimum and status below was computed by
the pure-Python simplex this repository used to ship as a second solver,
and is pinned here as a literal; HiGHS must reproduce each one.  Random
instances are certified by weak duality instead of by a second solve.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.certificates import check_solution
from repro.audit.exact import dual_bound
from repro.lp.model import LinearProgram
from repro.lp.solution import SolveStatus

BACKENDS = ["auto", "scipy"]


def diet_lp():
    """min x + 2y  s.t.  x + y >= 2, x <= 3, y <= 3  ->  optimum 2 at (2, 0)."""
    lp = LinearProgram()
    lp.var("x", upper=3.0, obj=1.0)
    lp.var("y", upper=3.0, obj=2.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 2.0)
    return lp


@pytest.mark.parametrize("backend", BACKENDS)
def test_simple_optimum(backend):
    sol = diet_lp().solve(backend=backend)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert sol.values[0] == pytest.approx(2.0, abs=1e-6)
    assert sol.values[1] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_equality_constraint(backend):
    lp = LinearProgram()
    lp.var("x", obj=1.0)
    lp.var("y", obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], "==", 4.0)
    lp.add_row([0, 1], [1.0, -1.0], "<=", 0.0)  # x <= y
    sol = lp.solve(backend=backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(4.0, abs=1e-6)
    assert check_solution(lp, sol.values).feasible


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_detected(backend):
    lp = LinearProgram()
    lp.var("x", upper=1.0)
    lp.add_row([0], [1.0], ">=", 2.0)
    sol = lp.solve(backend=backend)
    assert sol.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded_detected(backend):
    lp = LinearProgram()
    lp.var("x", obj=-1.0)  # minimize -x with x unbounded above
    sol = lp.solve(backend=backend)
    assert sol.status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("backend", BACKENDS)
def test_lower_bounds_shift(backend):
    lp = LinearProgram()
    lp.var("x", lower=1.5, obj=2.0)
    sol = lp.solve(backend=backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(3.0, abs=1e-6)
    assert sol.values[0] == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_lower_bounds(backend):
    lp = LinearProgram()
    lp.var("x", lower=-2.0, upper=2.0, obj=1.0)
    sol = lp.solve(backend=backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(-2.0, abs=1e-6)
    assert sol.values[0] == pytest.approx(-2.0, abs=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_degenerate_redundant_equalities(backend):
    lp = LinearProgram()
    lp.var("x", obj=1.0)
    lp.var("y", obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], "==", 2.0)
    lp.add_row([0, 1], [2.0, 2.0], "==", 4.0)  # redundant copy
    sol = lp.solve(backend=backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(2.0, abs=1e-6)


def mixed_lp():
    """4 vars, all three senses, one negative lower bound."""
    lp = LinearProgram(name="mixed")
    lp.var("a", upper=2.0, obj=1.0)
    lp.var("b", lower=-1.0, upper=1.0, obj=-0.5)
    lp.var("c", upper=3.0, obj=0.25)
    lp.var("d", upper=1.0, obj=-1.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 0.5)
    lp.add_row([1, 2], [1.0, 2.0], "<=", 4.0)
    lp.add_row([0, 3], [1.0, 1.0], "==", 1.5)
    return lp


def beale_lp():
    """Beale (1955): cycles under naive Dantzig pricing with fixed tie-breaks."""
    lp = LinearProgram(name="beale")
    lp.var("x1", obj=-0.75)
    lp.var("x2", obj=150.0)
    lp.var("x3", obj=-0.02)
    lp.var("x4", obj=6.0)
    lp.add_row([0, 1, 2, 3], [0.25, -60.0, -0.04, 9.0], "<=", 0.0)
    lp.add_row([0, 1, 2, 3], [0.5, -90.0, -0.02, 3.0], "<=", 0.0)
    lp.add_row([2], [1.0], "<=", 1.0)
    return lp


def degenerate_ties_lp():
    """Six identical rows: heavy ratio-test degeneracy."""
    lp = LinearProgram(name="degenerate")
    for j in range(4):
        lp.var(f"x{j}", upper=1.0, obj=-1.0)
    for _ in range(6):
        lp.add_row([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], "<=", 2.0)
    return lp


#: Box-bounded ``<=`` instances: (upper bounds, costs, rows as (coeffs, rhs)).
RANDOM_INSTANCES = [
    ([3, 2, 1, 1], [-2, -3, -3, 2], [([1, 2, 0, 1], 6), ([1, 1, 0, 0], 6), ([-1, 2, 1, -2], 2)]),
    ([4, 1], [3, -2], [([2, 2], 1), ([-1, 2], 2)]),
    ([1, 2, 2, 2], [-1, 2, -3, 1], [([2, 1, 2, -2], 6)]),
    ([1, 1, 4, 1], [-2, 2, 1, -3], []),
    ([4, 4, 4], [0, 3, -3], [([0, 1, -1], 2), ([1, 2, 0], 1), ([1, 2, -1], 3), ([-1, 2, -2], 3)]),
    ([1, 2, 3], [2, 0, -1], [([2, -2, -1], 2), ([0, 0, -2], 0), ([-2, -2, -2], 6), ([-2, 1, 1], 1)]),
    ([3, 4], [-1, -1], [([1, -1], 3), ([2, -2], 4)]),
    ([3, 3, 4, 1], [3, 2, -2, -1], [([-1, 2, 2, -2], 3), ([2, -2, 1, -2], 3), ([2, -1, -1, -1], 5)]),
    ([1, 1, 3], [3, -1, 2], [([1, 2, -2], 2)]),
    ([4, 1], [-1, 1], [([1, 1], 4), ([1, 2], 6), ([2, 2], 5), ([2, -2], 0)]),
    ([2, 4, 3, 4], [-2, 2, -2, 0], [([-2, -2, 0, 1], 2), ([2, -2, 0, 0], 6), ([-1, 2, -2, -1], 5), ([0, 2, 1, 2], 5)]),
    ([4], [0], []),
]

#: The retired simplex's optimum of each RANDOM_INSTANCES entry.
RANDOM_OPTIMA = [-13.5, -1.0, -7.0, -5.0, -12.0, -1.0, -7.0, -6.0, -1.0, 0.0, -10.0, 0.0]


def instance_lp(upper, costs, rows):
    lp = LinearProgram()
    for j, (ub, obj) in enumerate(zip(upper, costs)):
        lp.var(f"x{j}", upper=float(ub), obj=float(obj))
    for coeffs, rhs in rows:
        idx = [j for j, a in enumerate(coeffs) if a]
        lp.add_row(idx, [float(coeffs[j]) for j in idx], "<=", float(rhs))
    return lp


PINNED = [
    ("mixed", mixed_lp, -1.0),
    ("beale", beale_lp, -0.05),
    ("degenerate-ties", degenerate_ties_lp, -2.0),
] + [
    (f"random{i}", lambda inst=inst: instance_lp(*inst), optimum)
    for i, (inst, optimum) in enumerate(zip(RANDOM_INSTANCES, RANDOM_OPTIMA))
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("build, optimum", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_highs_reproduces_pinned_simplex_optima(build, optimum, backend):
    lp = build()
    sol = lp.solve(backend=backend)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(optimum, abs=1e-9)
    assert check_solution(lp, sol.values).feasible


def test_require_optimal_raises_on_infeasible():
    lp = LinearProgram()
    lp.var("x", upper=1.0)
    lp.add_row([0], [1.0], ">=", 2.0)
    with pytest.raises(RuntimeError, match="infeasible"):
        lp.solve().require_optimal()


def test_solution_by_name():
    lp = diet_lp()
    sol = lp.solve()
    assert sol.values[lp.column("x")] == pytest.approx(2.0, abs=1e-6)


@st.composite
def random_lp(draw):
    """Small random LPs with a guaranteed-feasible region (0 is feasible)."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    upper = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    costs = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
        rhs = draw(st.integers(min_value=0, max_value=6))  # 0 stays feasible
        if any(coeffs):
            rows.append((coeffs, rhs))
    return instance_lp(upper, costs, rows)


@settings(max_examples=60, deadline=None)
@given(random_lp())
def test_random_instances_certified_by_weak_duality(lp):
    """A feasible point whose cost meets a weak-duality bound is optimal."""
    sol = lp.solve(backend="scipy")
    assert sol.status is SolveStatus.OPTIMAL  # 0 is always feasible, box bounded
    assert check_solution(lp, sol.values).feasible
    bound, uncertified = dual_bound(lp, sol.duals)
    assert uncertified == []
    assert abs(Fraction(sol.objective) - bound) <= Fraction(1, 10**9)
