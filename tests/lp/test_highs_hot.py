"""Re-solves inside the retained HiGHS instance.

The scipy backend keeps its HiGHS instance on the model after an optimal
solve; a re-solve pushes only what the patch API changed and restarts
HiGHS's dual simplex from its retained basis.  The invariant: for any
sequence of patches the hot re-solve lands where a fresh cold solve does,
in status and objective.  A re-solve after row-bound patches alone is
first answered from the retained basis and factor without running HiGHS,
and then it is HiGHS's own re-run of that step to the bit.
"""

import copy
import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import compute_lower_bound
from repro.core.formulation import build_formulation
from repro.lp.basis import AT_LOWER, AT_UPPER, BASIC, NB_FREE, Basis
from repro.lp.model import LinearProgram, Sense
from repro.perf import PERF
from repro.solvers.registry import solve_lp
from tests.core.test_warm_sweep import tiny_problem
from tests.lp.test_backends import mixed_lp
from tests.lp.test_warm_start import build_random_lp


def enum_walk_basis(highs_basis, cache):
    """Reference conversion: walk HiGHS's per-variable status enums.

    The oracle the backend's deferred basis must reproduce status for
    status, whenever its statuses are first read.
    """
    from scipy.optimize._highspy import _core as h

    b = h.HighsBasisStatus
    code = np.full(max(map(int, b.__members__.values())) + 1, -1, dtype=np.int8)
    for theirs, ours in (
        (b.kLower, AT_LOWER), (b.kUpper, AT_UPPER), (b.kBasic, BASIC), (b.kZero, NB_FREE)
    ):
        code[int(theirs)] = ours
    cols = code[np.fromiter(map(int, highs_basis.col_status), dtype=np.int64)]
    # HiGHS holds the rows in model order.
    row_basic = np.array([int(status) == int(b.kBasic) for status in highs_basis.row_status])
    rows = np.array([
        BASIC if basic else AT_UPPER if sense == Sense.GE.code else AT_LOWER
        for basic, sense in zip(row_basic, cache.sense)
    ])
    return np.concatenate([cols, rows]).astype(np.int8)


def random_lp(seed, nvars=10, nrows=7):
    """A feasible LP over every column kind (boxed, fixed, free) and row sense."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram(name=f"hot-{seed}")
    x0 = np.empty(nvars)
    for j in range(nvars):
        kind = rng.integers(0, 6)
        cost = float(rng.choice([0.0, rng.uniform(-2, 2)], p=[0.15, 0.85]))
        if kind == 0:  # fixed
            x0[j] = float(rng.uniform(0.0, 1.0))
            lp.var(f"x{j}", lower=x0[j], upper=x0[j], obj=cost)
        elif kind == 1:  # free, kept bounded by a box row below
            x0[j] = 0.0
            lp.var(f"x{j}", lower=-np.inf, upper=None, obj=cost)
            lp.add_row([j], [1.0], "<=", 2.0)
            lp.add_row([j], [1.0], ">=", -2.0)
        else:
            upper = float(rng.uniform(0.5, 3.0))
            x0[j] = float(rng.uniform(0.0, upper))
            lp.var(f"x{j}", upper=upper, obj=cost)
    for _ in range(nrows):
        k = int(rng.integers(2, 5))
        idx = sorted(int(i) for i in rng.choice(nvars, size=k, replace=False))
        coeffs = rng.uniform(0.2, 2.0, size=k)
        activity = float(coeffs @ x0[idx])
        sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        slack = 0.0 if sense == "==" else float(rng.uniform(0.0, 1.0))
        rhs = activity + slack if sense == "<=" else activity - slack
        lp.add_row(idx, [float(c) for c in coeffs], sense, rhs)
    lp.var("idle", lower=-np.inf, upper=None)  # free, in no row: nonbasic at zero
    return lp


def assert_same_outcome(hot, cold):
    assert hot.status is cold.status
    if cold.is_optimal:
        assert abs(hot.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))


def cold_solve(lp):
    """A fresh cold solve of ``lp`` as it stands (the copy retains nothing)."""
    fresh = copy.deepcopy(lp)
    assert fresh._highs is None
    return fresh.solve(backend="scipy")


patch_step = st.tuples(
    st.sampled_from(["rhs", "bounds", "objective", "infeasible"]),
    st.integers(0, 1_000),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.lists(patch_step, min_size=1, max_size=6))
def test_hot_resolve_equals_cold_across_patch_sequences(seed, steps):
    lp = random_lp(seed)
    assert_same_outcome(lp.solve(backend="scipy"), cold_solve(lp))
    infeasible_row = None
    for kind, pick, u in steps:
        if kind == "rhs":
            row = pick % lp.num_constraints
            lp.set_rhs(row, lp.assembled().rhs()[row] * (0.5 + u))
        elif kind == "bounds":
            j = pick % lp.num_variables
            lo = lp.assembled().lb[j]
            lo = 0.0 if not np.isfinite(lo) else lo
            lp.set_bounds(j, lower=lo, upper=lo + 3.0 * u)
        elif kind == "objective":
            lp.set_objective(pick % lp.num_variables, 4.0 * u - 2.0)
        elif infeasible_row is None:  # infeasible <-> feasible
            infeasible_row = lp.num_constraints - 1
            saved = lp.assembled().rhs()[infeasible_row]
            le = lp.assembled().sense[infeasible_row] == Sense.LE.code
            lp.set_rhs(infeasible_row, -1e6 if le else 1e6)
        else:
            lp.set_rhs(infeasible_row, saved)
            infeasible_row = None
        hot = lp.solve(backend="scipy")
        assert_same_outcome(hot, cold_solve(lp))
        assert (lp._highs is not None) == hot.is_optimal


@settings(max_examples=15, deadline=None)
@given(levels=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
def test_coarse_qos_jumps_equal_fresh_cold_builds(levels):
    form = build_formulation(tiny_problem(levels[0]))
    for level in levels:
        form.set_qos_fraction(level)
        hot = compute_lower_bound(form.problem, None, do_rounding=False, formulation=form)
        cold = compute_lower_bound(tiny_problem(level), None, do_rounding=False)
        assert hot.status == cold.status
        if cold.feasible:
            assert hot.lp_cost == pytest.approx(cold.lp_cost, rel=1e-9, abs=1e-9)


def test_resolve_pushes_only_changes_and_starts_hot():
    lp = random_lp(11)
    lp.solve(backend="scipy")
    retained = lp._highs
    warm0 = PERF.get("lp.simplex.warm_starts")
    lp.set_rhs(0, lp.assembled().rhs()[0])  # a no-op patch
    again = lp.solve(backend="scipy")
    assert again.is_optimal and lp._highs is retained
    assert PERF.get("lp.simplex.warm_starts") == warm0 + 1


def test_non_optimal_hot_outcome_resolves_cold():
    lp = random_lp(15)
    lp.solve(backend="scipy")
    # Starve the retained instance: its hot run stops at the iteration
    # limit, which no fresh instance shares.
    lp._highs.highs.setOptionValue("simplex_iteration_limit", 0)
    row = int(np.flatnonzero(lp.assembled().sense == Sense.GE.code)[0])
    lp.set_rhs(row, 1e6)
    degraded0 = PERF.get("lp.simplex.warm_degraded")
    sol = lp.solve(backend="scipy")
    assert sol.status is cold_solve(lp).status
    assert PERF.get("lp.simplex.warm_degraded") == degraded0 + 1
    assert lp._highs is None


def test_structural_edit_or_new_options_solve_cold():
    lp = random_lp(12)
    lp.solve(backend="scipy")
    warm0 = PERF.get("lp.simplex.warm_starts")
    lp.solve(backend="scipy", presolve="off")  # options changed
    lp.var("extra", upper=1.0, obj=1.0)  # new assembled arrays
    sol = lp.solve(backend="scipy", presolve="off")
    assert sol.is_optimal
    assert PERF.get("lp.simplex.warm_starts") == warm0
    assert lp._highs.cache is lp._arrays


def test_kill_switch_retains_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_LP_WARM", "0")
    lp = random_lp(13)
    assert lp.solve(backend="scipy").is_optimal
    assert lp._highs is None


def test_pickling_drops_the_instance():
    lp = random_lp(14)
    want = lp.solve(backend="scipy")
    assert lp._highs is not None
    for clone in (pickle.loads(pickle.dumps(lp)), copy.deepcopy(lp)):
        assert clone._highs is None
        assert clone._arrays is not None  # the assembled arrays travel
        assert clone.solve(backend="scipy").objective == want.objective
    assert lp._highs is not None  # the original keeps its own


@pytest.mark.parametrize("seed", range(40))
def test_vectorized_basis_matches_enum_walk(seed):
    lp = random_lp(seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):  # the cold solve, then hot re-solves
        sol = lp.solve(backend="scipy")
        if sol.is_optimal:
            want = enum_walk_basis(lp._highs.highs.getBasis(), lp._arrays)
            np.testing.assert_array_equal(sol.basis.statuses, want)
        row = int(rng.integers(0, lp.num_constraints))
        lp.set_rhs(row, lp.assembled().rhs()[row] * float(rng.uniform(0.7, 1.3)))


@pytest.mark.parametrize("seed", range(20))
def test_basis_read_late_is_the_snapshot_of_its_own_solve(seed):
    """A basis read only after the instance has hot-solved to another
    vertex still describes the solve that returned it."""
    lp = random_lp(seed)
    sol = lp.solve(backend="scipy")
    if not sol.is_optimal:
        return
    want = enum_walk_basis(lp._highs.highs.getBasis(), lp._arrays)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        # New costs keep the point feasible, so the instance re-solves hot;
        # "idle" (the last column, in no row) keeps its zero cost.
        for j in range(lp.num_variables - 1):
            lp.set_objective(j, float(rng.uniform(-2.0, 2.0)))
        assert lp.solve(backend="scipy").is_optimal
        if not np.array_equal(enum_walk_basis(lp._highs.highs.getBasis(), lp._arrays), want):
            break
    else:
        pytest.fail("no cost patch moved HiGHS to another vertex")
    np.testing.assert_array_equal(sol.basis.statuses, want)


def test_statuses_are_derived_once_and_only_when_read():
    lp = random_lp(21)
    before = PERF.get("lp.basis.materialized")
    sol = lp.solve(backend="scipy")
    lp.solve(backend="scipy")
    assert PERF.get("lp.basis.materialized") == before
    first = sol.basis.statuses
    assert PERF.get("lp.basis.materialized") == before + 1
    assert sol.basis.statuses is first
    assert PERF.get("lp.basis.materialized") == before + 1


def test_deferred_basis_pickles_as_its_statuses():
    lp = random_lp(22)
    sol = lp.solve(backend="scipy")
    clone = pickle.loads(pickle.dumps(sol.basis))
    assert clone.source is None
    assert (clone.nvars, clone.nrows) == (sol.basis.nvars, sol.basis.nrows)
    np.testing.assert_array_equal(clone.statuses, sol.basis.statuses)
    np.testing.assert_array_equal(copy.deepcopy(sol.basis).statuses, sol.basis.statuses)


def test_snapshot_enters_set_basis_without_conversion():
    lp = random_lp(23)
    sol = lp.solve(backend="scipy")
    other = copy.deepcopy(lp)
    before = PERF.get("lp.basis.materialized")
    warm0 = PERF.get("lp.simplex.warm_starts")
    iters0 = PERF.get("lp.simplex.iterations")
    again = solve_lp(other, backend="scipy", warm_start=sol)
    assert PERF.get("lp.simplex.warm_starts") == warm0 + 1
    assert PERF.get("lp.simplex.iterations") == iters0
    assert PERF.get("lp.basis.materialized") == before
    assert again.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)


def test_sweep_without_a_basis_consumer_derives_no_statuses():
    from repro.analysis.sweep import qos_sweep
    from repro.core.classes import get_class

    before = PERF.get("lp.basis.materialized")
    sweep = qos_sweep(
        tiny_problem(0.5), levels=[0.5, 0.5001, 0.7], classes=[get_class("general")],
        do_rounding=True,
    )
    assert all(cell.feasible for cell in sweep.results["general"].values())
    assert PERF.get("lp.basis.materialized") == before


@pytest.mark.parametrize("seed", range(10))
def test_foreign_basis_round_trips_through_set_basis(seed):
    lp = random_lp(seed)
    sol = lp.solve(backend="scipy")
    assert isinstance(sol.basis, Basis)
    assert sol.basis.matches(lp.num_variables, lp.num_constraints)
    assert sol.basis.is_wellformed()
    other = copy.deepcopy(lp)
    warm0 = PERF.get("lp.simplex.warm_starts")
    iters0 = PERF.get("lp.simplex.iterations")
    again = solve_lp(other, backend="scipy", warm_start=sol)
    assert PERF.get("lp.simplex.warm_starts") == warm0 + 1
    # Already optimal: HiGHS accepts it and pivots no further.
    assert PERF.get("lp.simplex.iterations") == iters0
    assert again.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(again.basis.statuses, sol.basis.statuses)


def linprog_problem(lp):
    """``lp`` in ``linprog``'s shape: >= rows negated into an A_ub block
    with the <= rows, == rows in A_eq, bounds as (lower, upper or None)."""
    from scipy import sparse

    a = lp.assembled()
    matrix = sparse.csr_array((a.data, a.indices, a.indptr), shape=(a.nrows, a.nvars))
    rhs, eq = a.rhs(), a.sense == Sense.EQ.code
    sign = np.where(a.sense == Sense.GE.code, -1.0, 1.0)
    ub = np.flatnonzero(~eq)
    a_ub = sparse.csr_array(matrix[ub] * sign[ub][:, None]) if len(ub) else None
    a_eq = matrix[np.flatnonzero(eq)] if eq.any() else None
    bounds = [(lo, None if hi == np.inf else hi) for lo, hi in zip(a.lb, a.ub)]
    b_ub = (rhs * sign)[ub] if len(ub) else None
    return a.c, a_ub, b_ub, a_eq, rhs[eq] if eq.any() else None, bounds


def test_scipy_values_and_duals_match_linprog():
    # Two oracles.  ``milp`` without integer columns hands HiGHS the same LP
    # in the same form (rows in model order, lhs <= A x <= rhs), so the
    # same point exactly.  ``linprog`` hands it the rows regrouped, the >=
    # rows negated into a <=-block over an ==-block, so its marginals come
    # in that order with those signs, equal to rounding.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    nonzero = {"<=": 0, ">=": 0, "==": 0}
    for seed in range(12):
        lp = build_random_lp(seed, senses=("<=", ">=", "=="))
        sol = lp.solve(backend="scipy")
        a = lp.assembled()
        matrix = sparse.csr_array((a.data, a.indices, a.indptr), shape=(a.nrows, a.nvars))
        same = milp(
            a.c, constraints=LinearConstraint(matrix, a.row_lower, a.row_upper),
            bounds=Bounds(a.lb, a.ub),
        )
        assert sol.is_optimal == (same.status == 0)
        if not sol.is_optimal:
            continue
        np.testing.assert_array_equal(sol.values, same.x)
        assert sol.objective == same.fun
        c, a_ub, b_ub, a_eq, b_eq, bounds = linprog_problem(lp)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        assert ref.status == 0
        ineq, eq = iter(ref.ineqlin.marginals), iter(ref.eqlin.marginals)
        for row, dual in enumerate(sol.duals):
            sense = ("<=", ">=", "==")[a.sense[row]]
            want = next(eq) if sense == "==" else next(ineq)
            assert dual == pytest.approx(-want if sense == ">=" else want, rel=1e-9, abs=1e-12)
            assert dual >= 0 if sense == ">=" else dual <= 0 if sense == "<=" else True
            nonzero[sense] += dual != 0.0
    assert all(nonzero.values()), nonzero  # every sense had a binding row


def test_basisless_hint_solves_cold_without_degrading():
    # The hint comes from another LP (a fresh model retains no HiGHS
    # instance), and without a basis there is nothing to start from.
    hint = dataclasses.replace(mixed_lp().solve(backend="scipy"), basis=None)
    lp = mixed_lp()
    lp.set_rhs(1, 3.0)
    warm0 = PERF.get("lp.simplex.warm_starts")
    degraded0 = PERF.get("lp.simplex.warm_degraded")
    sol = solve_lp(lp, backend="scipy", warm_start=hint)
    assert sol.backend == "scipy"
    assert PERF.get("lp.simplex.warm_starts") == warm0
    assert PERF.get("lp.simplex.warm_degraded") == degraded0
    cold = mixed_lp()
    cold.set_rhs(1, 3.0)
    assert sol.objective == pytest.approx(cold.solve(backend="scipy").objective, abs=1e-8)


class _ShiftedHighs:
    """A HiGHS instance whose optimal point is replaced by ``values``."""

    def __init__(self, highs, values):
        self._highs, self._values = highs, values

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        solution = self._highs.getSolution()
        return SimpleNamespace(col_value=list(self._values), row_dual=solution.row_dual)


@pytest.mark.parametrize(
    "excess, breaks",
    [
        ((2.0, 0.0), True),   # the <= row only
        ((0.0, 2.0), True),   # the == row only
        ((2.0, 2.0), True),   # both
        ((0.5, 0.5), False),  # both, within tolerance
    ],
)
def test_post_solve_row_check_rejects_a_point_breaking_a_row(monkeypatch, excess, breaks):
    """An "optimal" HiGHS point that breaks a row by more than the
    tolerance is an error, checked against the model's own rows."""
    from repro.lp import scipy_backend
    from repro.lp.solution import SolveStatus

    tol = scipy_backend._CHECK_TOL
    le, eq = excess
    lp = LinearProgram(name="row-check")
    lp.var("x", upper=10.0, obj=1.0)
    lp.var("y", upper=10.0, obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], "<=", 4.0, name="le")
    lp.add_row([0, 1], [1.0, -1.0], "==", 0.0, name="eq")
    lp.add_row([0], [1.0], ">=", 1.0, name="ge")
    # x - y = eq * tol and x + y = 4 + le * tol; both within the bounds.
    point = np.array([2.0 + (le + eq) * tol / 2, 2.0 + (le - eq) * tol / 2])

    init = scipy_backend._HighsRun.__init__

    def shifted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.highs = _ShiftedHighs(self.highs, point)

    monkeypatch.setattr(scipy_backend._HighsRun, "__init__", shifted_init)
    sol = lp.solve(backend="scipy")
    if breaks:
        assert sol.status is SolveStatus.ERROR
        assert sol.message == "HiGHS optimum violates the constraints beyond tolerance"
        np.testing.assert_array_equal(sol.values, point)
    else:
        assert sol.status is SolveStatus.OPTIMAL


# -- re-solves answered from the retained basis ----------------------------------


def kept_count():
    return PERF.get("lp.simplex.basis_kept")


def kept_solve(lp):
    """Solve ``lp``; True with the solution if the retained basis answered it."""
    kept0, warm0 = kept_count(), PERF.get("lp.simplex.warm_starts")
    sol = lp.solve(backend="scipy")
    kept = kept_count() - kept0
    assert kept in (0, 1)
    if kept:
        assert PERF.get("lp.simplex.warm_starts") == warm0 + 1  # a kept solve is warm
    return bool(kept), sol


def forced_run(lp):
    """Re-solve ``lp`` by pushing its patches to the retained instance and
    running HiGHS, as every hot re-solve did before bases were kept."""
    from repro.lp.scipy_backend import highs_core

    run = lp._highs
    run.push()
    return run.solve(highs_core())


def assert_bit_identical(a, b):
    assert a.status is b.status
    assert a.values.tobytes() == b.values.tobytes()
    assert a.objective == b.objective
    assert a.duals.tobytes() == b.duals.tobytes()


@pytest.mark.parametrize("cls", ["general", "storage-constrained"])
def test_kept_solve_is_highs_own_rerun_to_the_bit(cls, web_problem):
    """A drift-sized re-target answered from the retained basis equals, in
    values, objective and duals, HiGHS re-running the same step on an
    identical twin formulation."""
    from repro.core.classes import get_class

    problem, props = web_problem, get_class(cls).properties
    kept_steps = 0
    for step in range(4):
        level, nxt = round(0.9 + step * 1e-4, 4), round(0.9 + (step + 1) * 1e-4, 4)
        twins = [build_formulation(problem, props) for _ in range(2)]
        for form in twins:
            form.set_qos_fraction(level)
            assert form.lp.solve(backend="scipy").is_optimal
            form.set_qos_fraction(nxt)
        kept, sol = kept_solve(twins[0].lp)
        assert_bit_identical(sol, forced_run(twins[1].lp))
        kept_steps += kept
    assert kept_steps == 4


@pytest.mark.parametrize("seed", range(12))
def test_kept_solve_on_random_lps_is_highs_own_rerun_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    twins = [random_lp(seed), random_lp(seed)]
    for lp in twins:
        assert lp.solve(backend="scipy").is_optimal
    row = int(rng.integers(0, twins[0].num_constraints))
    rhs = twins[0].assembled().rhs()[row] * (1.0 + 1e-6)
    for lp in twins:
        lp.set_rhs(row, rhs)
    kept, sol = kept_solve(twins[0])
    assert kept
    assert_bit_identical(sol, forced_run(twins[1]))


rhs_step = st.tuples(
    st.integers(0, 1_000), st.sampled_from([1e-6, 1e-3, 0.05, 0.5]), st.floats(-1.0, 1.0)
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.lists(rhs_step, min_size=1, max_size=8))
def test_rhs_only_sequences_equal_cold_and_keep_only_feasible_points(seed, steps):
    lp = random_lp(seed)
    assert_same_outcome(lp.solve(backend="scipy"), cold_solve(lp))
    for pick, scale, u in steps:
        row = pick % lp.num_constraints
        rhs = lp.assembled().rhs()[row]
        lp.set_rhs(row, rhs + scale * u * max(1.0, abs(rhs)))
        kept, sol = kept_solve(lp)
        assert_same_outcome(sol, cold_solve(lp))
        if kept:
            a = lp.assembled()
            activity, _, _ = lp.row_activities(sol.values)
            assert np.all(sol.values >= a.lb - 1e-7) and np.all(sol.values <= a.ub + 1e-7)
            assert np.all(activity >= a.row_lower - 1e-7)
            assert np.all(activity <= a.row_upper + 1e-7)
            assert sol.objective == float(np.cumsum(a.c * sol.values)[-1])


def test_first_solve_keeps_nothing():
    lp = random_lp(31)
    before = kept_count()
    assert lp.solve(backend="scipy").is_optimal
    assert kept_count() == before


def test_a_cost_or_column_bound_patch_runs_highs():
    lp = random_lp(32)
    lp.solve(backend="scipy")
    j = next(j for j in range(lp.num_variables) if lp.assembled().ub[j] > lp.assembled().lb[j])
    before = kept_count()
    lp.set_objective(j, lp.assembled().c[j] + 0.25)
    assert lp.solve(backend="scipy").is_optimal
    assert kept_count() == before
    lo, hi = lp.assembled().lb[j], lp.assembled().ub[j]
    lp.set_bounds(j, lower=lo, upper=hi + 1.0)
    assert lp.solve(backend="scipy").is_optimal
    assert kept_count() == before
    # Row bounds alone, once more: the retained basis answers again.
    lp.set_rhs(0, lp.assembled().rhs()[0])
    kept, _ = kept_solve(lp)
    assert kept


def test_a_coarse_jump_that_breaks_feasibility_runs_highs(web_problem):
    form = build_formulation(web_problem)
    assert form.lp.solve(backend="scipy").is_optimal
    before = kept_count()
    iters0 = PERF.get("lp.simplex.iterations")
    form.set_qos_fraction(0.99)
    sol = form.lp.solve(backend="scipy")
    assert kept_count() == before
    assert PERF.get("lp.simplex.iterations") > iters0  # HiGHS pivoted to the new vertex
    assert_same_outcome(sol, cold_solve(form.lp))


def test_mutating_a_returned_solution_cannot_change_the_next_kept_solve(web_problem):
    """The instance keeps its own copies of the point and duals it hands
    out, after a HiGHS run and after a kept solve alike."""
    form, twin = build_formulation(web_problem), build_formulation(web_problem)
    sol = form.lp.solve(backend="scipy")
    twin.lp.solve(backend="scipy")
    for level in (0.9001, 0.9002):
        sol.values[:] = 123.0
        sol.duals[:] = -7.0
        for f in (form, twin):
            f.set_qos_fraction(level)
        kept, sol = kept_solve(form.lp)
        assert kept
        assert_bit_identical(sol, kept_solve(twin.lp)[1])
