"""Warm-start equivalence and degradation tests.

The invariant: a warm-started re-solve is a *performance hint only* — for
any patch sequence it must land on the same optimum a cold solve finds,
and any defect in the hint (stale shape, malformed statuses, disabled via
environment) must degrade to the cold path rather than fail.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.basis import AT_LOWER, Basis
from repro.lp.model import LinearProgram
from repro.lp.solution import LPSolution, SolveStatus
from repro.perf import PERF
from repro.solvers.registry import solve_lp


def build_random_lp(seed, nvars=8, nrows=6, senses=(">=", "<=")):
    rng = np.random.default_rng(seed)
    lp = LinearProgram(name=f"warm-{seed}")
    for j in range(nvars):
        lp.var(f"x{j}", upper=float(rng.uniform(0.5, 3.0)), obj=float(rng.uniform(-2, 2)))
    for _ in range(nrows):
        k = int(rng.integers(2, 5))
        idx = sorted(int(i) for i in rng.choice(nvars, size=k, replace=False))
        coeffs = [float(v) for v in rng.uniform(0.2, 2.0, size=k)]
        sense = senses[int(rng.integers(0, len(senses)))]
        rhs = float(rng.uniform(0.5, 2.5))
        lp.add_row(idx, coeffs, sense, rhs)
    return lp


def apply_random_patch(lp, rng):
    """One patch from the supported re-solve vocabulary, chosen at random."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        row = int(rng.integers(0, lp.num_constraints))
        lp.set_rhs(row, float(rng.uniform(0.3, 2.0)))
    elif kind == 1:
        var = int(rng.integers(0, lp.num_variables))
        lp.set_bounds(var, lower=0.0, upper=float(rng.uniform(0.5, 3.0)))
    else:
        var = int(rng.integers(0, lp.num_variables))
        value = float(rng.uniform(0.0, 0.5))
        lp.set_bounds(var, value, value)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), patches=st.integers(1, 4))
def test_warm_equals_cold_across_patches(seed, patches):
    # The same model, the same patch sequence, two solve strategies.
    warm_lp = build_random_lp(seed)
    cold_lp = build_random_lp(seed)
    prev = warm_lp.solve(backend="scipy")
    for rng in (np.random.default_rng(seed + 1),):
        for _ in range(patches):
            state = rng.bit_generator.state
            apply_random_patch(warm_lp, rng)
            rng.bit_generator.state = state
            apply_random_patch(cold_lp, rng)
    warm = solve_lp(warm_lp, backend="scipy", warm_start=prev if prev.is_optimal else None)
    cold = cold_lp.solve(backend="scipy")
    assert warm.status is cold.status
    if cold.is_optimal:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    patches=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.3, 2.5)), min_size=1, max_size=4
    ),
)
def test_warm_from_scipy_basis_equals_cold_on_mixed_senses(seed, patches):
    # HiGHS's own optimal basis, re-used after RHS patches on <=/>=/== rows:
    # hot inside the retained instance, and through setBasis on a copy.
    senses = ("<=", ">=", "==")
    warm_lp = build_random_lp(seed, senses=senses)
    cold_lp = build_random_lp(seed, senses=senses)
    prev = warm_lp.solve(backend="scipy")
    if not prev.is_optimal:
        return
    assert isinstance(prev.basis, Basis)
    for row, rhs in patches:
        warm_lp.set_rhs(row, rhs)
        cold_lp.set_rhs(row, rhs)
    copied_lp = copy.deepcopy(warm_lp)  # drops the retained instance
    cold = cold_lp.solve(backend="scipy")
    for lp in (warm_lp, copied_lp):
        warm0 = PERF.get("lp.simplex.warm_starts")
        degraded0 = PERF.get("lp.simplex.warm_degraded")
        warm = solve_lp(lp, backend="scipy", warm_start=prev)
        assert warm.status is cold.status
        assert warm.backend == "scipy"
        assert PERF.get("lp.simplex.warm_starts") == warm0 + 1
        if cold.is_optimal:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            # An RHS patch keeps the basis dual feasible: HiGHS's dual
            # simplex finishes from it without falling back cold.
            assert PERF.get("lp.simplex.warm_degraded") == degraded0


def test_chained_warm_solves_keep_exactness():
    lp = build_random_lp(3)
    cold_ref = build_random_lp(3)
    prev = lp.solve(backend="scipy")
    rng = np.random.default_rng(99)
    for _ in range(5):
        row = int(rng.integers(0, lp.num_constraints))
        rhs = float(rng.uniform(0.3, 2.0))
        lp.set_rhs(row, rhs)
        cold_ref.set_rhs(row, rhs)
        sol = solve_lp(lp, backend="scipy", warm_start=prev)
        cold = cold_ref.solve(backend="scipy")
        assert sol.status is cold.status
        if cold.is_optimal:
            assert sol.objective == pytest.approx(cold.objective, abs=1e-7)
            prev = sol  # second link onward is basis-to-basis
        else:
            prev = None


def test_solution_dict_roundtrip_preserves_basis():
    lp = build_random_lp(5)
    sol = lp.solve(backend="scipy")
    assert isinstance(sol.basis, Basis)
    back = LPSolution.from_dict(sol.to_dict())
    assert isinstance(back.basis, Basis)
    np.testing.assert_array_equal(back.basis.statuses, sol.basis.statuses)
    # The deserialized handle must still warm-start a model that retains
    # no HiGHS instance of its own.
    fresh, cold = build_random_lp(5), build_random_lp(5)
    for model in (fresh, cold):
        model.set_rhs(0, 1.1)
    warm0 = PERF.get("lp.simplex.warm_starts")
    warm = solve_lp(fresh, backend="scipy", warm_start=back)
    assert PERF.get("lp.simplex.warm_starts") == warm0 + 1
    assert warm.objective == pytest.approx(cold.solve(backend="scipy").objective, abs=1e-7)


def test_absent_or_corrupt_basis_payload_degrades():
    lp = build_random_lp(6)
    sol = lp.solve(backend="scipy")
    payload = sol.to_dict()
    payload["basis"] = {"statuses": "garbage"}
    back = LPSolution.from_dict(payload)
    assert back.basis is None  # tolerant decode: corrupt -> cold re-solve
    payload.pop("basis")
    assert LPSolution.from_dict(payload).basis is None


def test_stale_shape_basis_falls_back_to_cold():
    lp = build_random_lp(7)
    wrong = Basis(statuses=np.full(3, AT_LOWER, dtype=np.int8), nvars=2, nrows=1)
    before = PERF.get("lp.simplex.warm_starts")
    sol = solve_lp(lp, backend="scipy", warm_start=wrong)
    assert sol.status is SolveStatus.OPTIMAL
    assert PERF.get("lp.simplex.warm_starts") == before
    assert sol.objective == pytest.approx(lp.solve(backend="scipy").objective, abs=1e-8)


def test_malformed_statuses_degrade_not_crash():
    lp = build_random_lp(8)
    n, m = lp.num_variables, lp.num_constraints
    # Right shape, nonsense content: zero basic columns.  setBasis is never
    # offered it; the fresh model solves cold.
    bogus = Basis(statuses=np.full(n + m, AT_LOWER, dtype=np.int8), nvars=n, nrows=m)
    warm0 = PERF.get("lp.simplex.warm_starts")
    degraded0 = PERF.get("lp.simplex.warm_degraded")
    sol = solve_lp(lp, backend="scipy", warm_start=bogus)
    assert sol.status is SolveStatus.OPTIMAL
    assert PERF.get("lp.simplex.warm_starts") == warm0
    assert PERF.get("lp.simplex.warm_degraded") == degraded0 + 1
    assert sol.objective == pytest.approx(
        build_random_lp(8).solve(backend="scipy").objective, abs=1e-8
    )


def test_kill_switch_disables_warm_path(monkeypatch):
    monkeypatch.setenv("REPRO_LP_WARM", "0")
    lp = build_random_lp(9)
    prev = lp.solve(backend="scipy")
    lp.set_rhs(0, 0.9)
    before = PERF.get("lp.simplex.warm_starts")
    sol = solve_lp(lp, backend="scipy", warm_start=prev)
    assert sol.is_optimal
    assert PERF.get("lp.simplex.warm_starts") == before
