"""Revised-simplex engine tests: cold contract, duals, anti-cycling, the
pure-Python kernel, and warm starts from HiGHS's basis."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.audit.certificates import check_solution
from repro.lp.basis import Basis
from repro.lp.model import LinearProgram
from repro.lp.revised import get_engine, solve_revised
from repro.lp.solution import SolveStatus
from repro.perf import PERF
from repro.solvers.registry import solve_lp
from tests.lp.test_warm_start import build_random_lp


def mixed_lp():
    """4 vars, all three senses, one negative lower bound; optimum -1.0."""
    lp = LinearProgram(name="revised-mixed")
    lp.var("a", upper=2.0, obj=1.0)
    lp.var("b", lower=-1.0, upper=1.0, obj=-0.5)
    lp.var("c", upper=3.0, obj=0.25)
    lp.var("d", upper=1.0, obj=-1.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 0.5)
    lp.add_row([1, 2], [1.0, 2.0], "<=", 4.0)
    lp.add_row([0, 3], [1.0, 1.0], "==", 1.5)
    return lp


def test_cold_solve_matches_scipy():
    lp = mixed_lp()
    got = solve_revised(lp)
    want = lp.solve(backend="scipy")
    assert got.status is SolveStatus.OPTIMAL
    assert got.objective == pytest.approx(want.objective, abs=1e-8)
    assert check_solution(lp, got.values).feasible


def test_duals_match_scipy():
    lp = mixed_lp()
    got = solve_revised(lp)
    want = lp.solve(backend="scipy")
    assert got.duals is not None and want.duals is not None
    np.testing.assert_allclose(got.duals, want.duals, atol=1e-7)


def test_solution_carries_wellformed_basis():
    lp = mixed_lp()
    sol = solve_revised(lp)
    assert isinstance(sol.basis, Basis)
    assert sol.basis.matches(lp.num_variables, lp.num_constraints)
    assert sol.basis.is_wellformed()


def test_beale_cycling_instance_terminates():
    # Beale (1955): cycles forever under naive Dantzig pricing with
    # fixed tie-breaks.  The Bland switch must drive it to the optimum.
    lp = LinearProgram(name="beale")
    lp.var("x1", obj=-0.75)
    lp.var("x2", obj=150.0)
    lp.var("x3", obj=-0.02)
    lp.var("x4", obj=6.0)
    lp.add_row([0, 1, 2, 3], [0.25, -60.0, -0.04, 9.0], "<=", 0.0)
    lp.add_row([0, 1, 2, 3], [0.5, -90.0, -0.02, 3.0], "<=", 0.0)
    lp.add_row([2], [1.0], "<=", 1.0)
    sol = solve_revised(lp, max_iterations=1_000)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_degenerate_ties_terminate():
    # Many identical rows -> heavy ratio-test degeneracy.
    lp = LinearProgram(name="degenerate")
    for j in range(4):
        lp.var(f"x{j}", upper=1.0, obj=-1.0)
    for _ in range(6):
        lp.add_row([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], "<=", 2.0)
    sol = solve_revised(lp, max_iterations=1_000)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-8)


def test_pure_python_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_LP_PURE", "1")
    lp = mixed_lp()
    sol = solve_revised(lp)
    engine = get_engine(lp)
    assert engine._sparse is None  # the numpy kernel really is in charge
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(lp.solve(backend="scipy").objective, abs=1e-8)


def test_assembly_without_scipy(monkeypatch):
    # The engine reads the model's array cache, and assembly must not
    # require scipy: without it the cache carries RHS/bound vectors but
    # no CSR matrices (only the unreachable scipy backend misses them).
    import repro.lp.model as model_mod

    monkeypatch.setattr(model_mod, "_sparse", False)
    monkeypatch.setenv("REPRO_LP_PURE", "1")
    lp = mixed_lp()
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.to_arrays()
    assert a_ub is None and a_eq is None
    assert b_ub is not None and b_eq is not None
    sol = solve_revised(lp)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-8)
    # The patch API still lands on the cached RHS vectors.
    lp.set_rhs(1, 3.0)
    patched = solve_revised(lp)
    assert patched.status is SolveStatus.OPTIMAL
    assert check_solution(lp, patched.values).feasible


def test_iteration_and_refactorization_counters():
    lp = mixed_lp()
    before_iter = PERF.get("lp.simplex.iterations")
    before_refac = PERF.get("lp.simplex.refactorizations")
    solve_revised(lp)
    assert PERF.get("lp.simplex.iterations") > before_iter
    assert PERF.get("lp.simplex.refactorizations") > before_refac


def test_scipy_solution_carries_warm_startable_basis():
    lp = mixed_lp()
    sol = lp.solve(backend="scipy")
    assert isinstance(sol.basis, Basis)
    assert sol.basis.matches(lp.num_variables, lp.num_constraints)
    assert sol.basis.is_wellformed()
    # HiGHS's optimal basis is already optimal for the revised simplex.
    before = PERF.get("lp.simplex.iterations")
    warm = solve_revised(lp, warm_basis=sol.basis)
    assert PERF.get("lp.simplex.iterations") == before
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(sol.objective, abs=1e-9)


def test_scipy_values_and_duals_match_linprog():
    # linprog is the oracle: same HiGHS model, so the same point exactly;
    # its marginals come in <=-block/==-block order with >= rows negated.
    nonzero = {"<=": 0, ">=": 0, "==": 0}
    for seed in range(12):
        lp = build_random_lp(seed, senses=("<=", ">=", "=="))
        sol = lp.solve(backend="scipy")
        c, a_ub, b_ub, a_eq, b_eq, bounds = lp.to_arrays()
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        assert sol.is_optimal == (ref.status == 0)
        if not sol.is_optimal:
            continue
        np.testing.assert_array_equal(sol.values, ref.x)
        assert sol.objective == ref.fun
        ineq, eq = iter(ref.ineqlin.marginals), iter(ref.eqlin.marginals)
        for row, dual in enumerate(sol.duals):
            sense = lp.constraints[row].sense.value
            want = next(eq) if sense == "==" else next(ineq)
            assert dual == (-want if sense == ">=" else want)
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
    assert sol.objective == pytest.approx(solve_revised(lp).objective, abs=1e-8)
