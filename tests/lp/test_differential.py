"""Weak-duality certificates on random MC-PERF instances.

Small random instances are solved with HiGHS and audited in ``full`` mode,
whose ``dual`` check bounds the optimum from below with the solution's row
duals (:func:`repro.audit.dual_bound`).  The instances cover the general,
storage-constrained and replica-constrained classes — the last two carry
the columns with no finite upper bound (``capacity``, the replica counts),
which get implied bounds.

Each seed's optimum is also pinned to the value the pure-Python simplex,
once this repository's second LP solver, computed for it.
"""

from __future__ import annotations

import copy
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import DEFAULT_TOL, audit_lp_solution, dual_bound, exact_objective
from repro.core.classes import get_class
from repro.core.costs import CostModel
from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload

SEEDS = [3, 11, 29, 47]
CLASSES = ["general", "storage-constrained", "replica-constrained"]

#: The retired simplex's optimum for each seed's class (``CLASSES[seed % 3]``).
SIMPLEX_OPTIMA = {
    3: 8.999999999999998,
    11: 13.55056179775281,
    29: 7.572115384615385,
    47: 7.734375,
}


def random_problem(seed):
    """A small random MC-PERF instance, different per seed."""
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 7))
    num_objects = int(rng.integers(2, 5))
    trace = web_workload(
        num_nodes=num_nodes,
        num_objects=num_objects,
        requests_scale=0.01,
        duration_s=7200.0,
        seed=seed,
    )
    demand = DemandMatrix.from_trace(trace, num_intervals=2)
    level = float(rng.choice([0.6, 0.75, 0.9]))
    tlat = float(rng.choice([100.0, 150.0]))
    return MCPerfProblem(
        topology=as_level_topology(num_nodes=num_nodes, seed=seed),
        demand=demand,
        goal=QoSGoal(tlat_ms=tlat, fraction=level),
        costs=CostModel.paper_defaults(),
    )


def solved(seed, class_name):
    """(lp, HiGHS solution) for one instance, or skip when it is infeasible."""
    form = build_formulation(random_problem(seed), get_class(class_name).properties)
    solution = form.lp.solve(backend="scipy")
    if not solution.is_optimal:
        pytest.skip(f"seed {seed} / {class_name}: {solution.status.value}")
    return form.lp, solution


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_highs_reproduces_pinned_simplex_optimum(seed):
    lp, solution = solved(seed, CLASSES[seed % 3])
    assert solution.objective == pytest.approx(SIMPLEX_OPTIMA[seed], rel=1e-9)
    report = audit_lp_solution(lp, solution, mode="full")
    assert report.ok, report.render()
    assert "dual" in report.checks


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_audit_differential_reports_agreement(seed):
    """The full audit's lower bound L(y*) agrees with the reported optimum."""
    lp, solution = solved(seed, CLASSES[seed % 3])
    report = audit_lp_solution(lp, solution, mode="full")
    assert report.ok, report.render()
    assert "dual" in report.checks
    assert not [v for v in report.violations if v.check == "dual"]


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_audit_differential_flags_forged_objective(seed):
    """An objective forged by +10 disagrees with L(y*): the audit fails."""
    lp, solution = solved(seed, CLASSES[seed % 3])
    forged = dataclasses.replace(solution, objective=solution.objective + 10.0)
    report = audit_lp_solution(lp, forged, mode="full")
    assert not report.ok
    dual = [v for v in report.violations if v.check == "dual"]
    assert dual and "L(y)" in dual[0].message


instances = st.tuples(st.integers(0, 200), st.sampled_from(CLASSES))


@settings(max_examples=15, deadline=None)
@given(instance=instances, noise_seed=st.integers(0, 2**32 - 1))
def test_perturbed_duals_never_exceed_the_optimum(instance, noise_seed):
    """(a) Any sign-clipped y bounds the optimum from below."""
    lp, solution = solved(*instance)
    rng = np.random.default_rng(noise_seed)
    y = np.asarray(solution.duals, dtype=float)
    y = y + rng.normal(0.0, max(1.0, float(np.abs(y).max())), size=len(y))
    bound, uncertified = dual_bound(lp, y, exact_objective(lp, solution.values))
    if uncertified:
        return  # no finite box term: L(y) is -inf, trivially below
    limit = Fraction(DEFAULT_TOL) * max(1, abs(Fraction(solution.objective)))
    assert bound <= Fraction(solution.objective) + limit


@settings(max_examples=15, deadline=None)
@given(instance=instances)
def test_optimal_duals_certify_the_optimum(instance):
    """(b) L(y*) equals the optimum within tol; the audit records ``dual``."""
    lp, solution = solved(*instance)
    bound, uncertified = dual_bound(lp, solution.duals, exact_objective(lp, solution.values))
    assert uncertified == []
    objective = Fraction(solution.objective)
    assert abs(objective - bound) <= Fraction(DEFAULT_TOL) * max(1, abs(objective))
    report = audit_lp_solution(lp, solution, mode="full")
    assert report.ok, report.render()
    assert "dual" in report.checks


@settings(max_examples=15, deadline=None)
@given(instance=instances)
def test_forged_objective_is_flagged(instance):
    """(c) An objective forged by +10 sits above L(y*): flagged ``dual``."""
    lp, solution = solved(*instance)
    forged = dataclasses.replace(solution, objective=solution.objective + 10.0)
    report = audit_lp_solution(lp, forged, mode="full")
    dual = [v for v in report.violations if v.check == "dual"]
    assert dual and "L(y)" in dual[0].message


@settings(max_examples=15, deadline=None)
@given(instance=instances, pick=st.integers(0, 2**32 - 1))
def test_flipped_qos_coefficient_is_caught(instance, pick):
    """(d) A point audited against a copy of its model with one QoS-row
    coefficient sign-flipped is flagged by ``dual`` or ``constraint``.

    The flipped term is one that moves the point: a non-negligible term of
    a QoS row with a non-zero dual.  Elsewhere the point may still be
    feasible and optimal for the copy, and then no check should fire.
    """
    lp, solution = solved(*instance)
    x = solution.values
    arrays = lp.assembled()
    candidates = [
        entry
        for row in range(lp.num_constraints)
        if lp.row_name(row).startswith("qos") and solution.duals[row] != 0
        for entry in range(arrays.indptr[row], arrays.indptr[row + 1])
        if abs(arrays.data[entry] * x[arrays.indices[entry]]) > 1e-3
    ]
    if not candidates:
        return  # no QoS row binds at this point
    entry = candidates[pick % len(candidates)]
    mutated = copy.deepcopy(lp)
    # In place, in the arrays every check reads.
    coeffs = mutated.assembled().data
    coeffs[entry] = -coeffs[entry]
    report = audit_lp_solution(mutated, solution, mode="full")
    assert {v.check for v in report.violations} & {"dual", "constraint"}, report.render()


def test_unbounded_zero_cost_column_is_uncertified():
    """``r_j < 0`` on a column with no upper bound and no cost has no
    implied bound: ``dual`` is flagged as uncertified, never passed."""
    from repro.lp.model import LinearProgram

    lp = LinearProgram()
    lp.var("x", upper=5.0, obj=1.0)
    lp.var("z")  # no upper bound, no cost
    lp.add_row([0, 1], [1.0, 1.0], ">=", 1.0)
    solution = lp.solve(backend="scipy")
    assert solution.objective == pytest.approx(0.0, abs=1e-12)
    # y = 1 is dual feasible in sign but leaves r_z = -1.
    forged = dataclasses.replace(solution, duals=[1.0])
    report = audit_lp_solution(lp, forged, mode="full")
    flagged = [v for v in report.violations if v.check == "dual"]
    assert flagged and "uncertified" in flagged[0].message
    assert flagged[0].subject == "z"
