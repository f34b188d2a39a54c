"""The vectorized fast audit against its per-row oracle.

``audit_lp_solution(mode="fast")`` checks every bound and row in one NumPy
pass, reading bounds and costs from the model's assembled cache and rows
from :meth:`LinearProgram.row_activities`.  The per-row audit it replaced
(``tests/audit/fast_audit_oracle.py``) walks the columns and rows one at a
time instead; on every finite point both must produce the same checks, the
same (check, subject, amount) violations and the same overflow notes.  ``check_solution`` is held to its own loop oracle the
same way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import audit_lp_solution, check_solution
from repro.lp.model import LinearProgram
from repro.lp.solution import LPSolution, SolveStatus
from repro.perf import PERF
from tests.audit.fast_audit_oracle import columns as column_objects
from tests.audit.fast_audit_oracle import loop_check_solution, oracle_fast_audit, row_activity
from tests.audit.fast_audit_oracle import rows as row_objects

#: Offsets that land a value or a row just inside, on, or just past the
#: default 1e-6 tolerance, plus clear violations either way.
OFFSETS = [-1.5, -2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6, 1.5]

COEFFS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def audit_cases(draw):
    """A random LP, patched after assembly, and a point that strains it."""
    nvars = draw(st.integers(1, 8))
    lp = LinearProgram(name="audit-case")
    for j in range(nvars):
        lower = draw(st.sampled_from([0.0, -1.0, 0.5]))
        upper = draw(st.sampled_from([None, lower, lower + 1.0, lower + 3.0]))
        lp.var(f"x{j}", lower=lower, upper=upper, obj=draw(COEFFS))

    var_ix = st.integers(0, nvars - 1)
    for _ in range(draw(st.integers(1, 4))):
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if draw(st.booleans()):
            # A row names each column at most once (the model refuses repeats).
            idx = draw(st.lists(var_ix, max_size=nvars, unique=True))
            lp.add_row(idx, [draw(COEFFS) for _ in idx], sense, draw(COEFFS))
        else:
            rows = [
                draw(st.lists(var_ix, max_size=nvars, unique=True))
                for _ in range(draw(st.integers(0, 4)))
            ]
            indptr = np.cumsum([0] + [len(r) for r in rows])
            flat = [i for r in rows for i in r]
            named = draw(st.booleans())
            lp.add_rows_bulk(
                indptr, flat, [draw(COEFFS) for _ in flat], sense,
                [draw(COEFFS) for _ in rows],
                names=[f"blk{lp.num_constraints + r}" for r in range(len(rows))] if named else None,
            )

    # Patch after assembly: these pin that the patch API writes the arrays
    # every reader reads.
    lp.assembled()
    for _ in range(draw(st.integers(0, 4))):
        j = draw(var_ix)
        kind = draw(st.sampled_from(["bound", "objective"]))
        if kind == "bound":
            lower = draw(st.sampled_from([0.0, -2.0, 1.0]))
            lp.set_bounds(j, lower, draw(st.sampled_from([None, lower, lower + 2.0])))
        else:
            lp.set_objective(j, draw(COEFFS))

    # A point with injected bound violations.
    x = []
    for v in column_objects(lp):
        where = draw(st.sampled_from(["lower", "upper", "inside"]))
        if where == "lower":
            x.append(v.lower + draw(st.sampled_from(OFFSETS)))
        elif where == "upper" and v.upper is not None:
            x.append(v.upper + draw(st.sampled_from(OFFSETS)))
        else:
            x.append(draw(st.floats(-4.0, 4.0, allow_nan=False)))

    # Row RHS patched relative to the point's activity: some rows sit on
    # the tolerance edge, some are violated outright, some keep their RHS.
    for row, con in enumerate(row_objects(lp)):
        if draw(st.booleans()):
            lp.set_rhs(row, row_activity(con, x) + draw(st.sampled_from(OFFSETS)))

    recomputed = sum(v.objective * x[v.index] for v in column_objects(lp) if v.objective)
    objective = recomputed + draw(st.sampled_from([0.0, 1e-9, 1e-3, 5.0]))
    values = np.asarray(x) if draw(st.booleans()) else x
    solution = LPSolution(status=SolveStatus.OPTIMAL, objective=objective, values=values)
    return lp, solution, draw(st.sampled_from([1, 3, 25]))


def triples(report):
    return [(v.check, v.subject, v.amount) for v in report.violations]


@settings(max_examples=300, deadline=None)
@given(audit_cases())
def test_fast_audit_matches_per_row_oracle(case):
    lp, solution, max_reported = case
    want = oracle_fast_audit(lp, solution, max_reported=max_reported)
    got = audit_lp_solution(lp, solution, mode="fast", max_reported=max_reported)
    assert got.checks == want.checks
    assert triples(got) == triples(want)
    assert got.skipped == want.skipped


@settings(max_examples=300, deadline=None)
@given(audit_cases())
def test_row_activities_equal_constraint_activity_bit_for_bit(case):
    lp, solution, _ = case
    activity, senses, rhs = lp.row_activities(solution.values)
    every = row_objects(lp)
    want = np.array([row_activity(con, solution.values) for con in every], dtype=np.float64)
    assert activity.tobytes() == want.tobytes()
    assert [int(s) for s in senses] == [con.sense.code for con in every]
    assert rhs.tolist() == [con.rhs for con in every]


@settings(max_examples=300, deadline=None)
@given(audit_cases())
def test_check_solution_matches_loop_oracle(case):
    lp, solution, _ = case
    want = loop_check_solution(lp, solution.values)
    got = check_solution(lp, solution.values)
    assert got.feasible == want.feasible
    assert got.objective == want.objective
    assert [(v.kind, v.name, v.amount) for v in got.violations] == [
        (v.kind, v.name, v.amount) for v in want.violations
    ]


# -- every row, not a sample --------------------------------------------------


def strided_lp(rows=1100):
    """``rows`` one-variable ``<=`` rows, all satisfied at x = 0."""
    lp = LinearProgram(name="strided")
    lp.var("x", lower=-10.0, upper=10.0, obj=1.0)
    indptr = np.arange(rows + 1)
    lp.add_rows_bulk(indptr, np.zeros(rows, dtype=np.int64), np.ones(rows), "<=", np.ones(rows))
    return lp


def test_row_the_old_stride_skipped_is_reported():
    # The sampled audit checked rows 0, 2, 4, ... of these 1100 (stride 2);
    # row 1 is violated and was never looked at.
    lp = strided_lp()
    lp.set_rhs(1, -0.5)
    solution = LPSolution(status=SolveStatus.OPTIMAL, objective=0.0, values=[0.0])
    report = audit_lp_solution(lp, solution, mode="fast")
    assert triples(report) == [("constraint", "c1", 0.5)]
    assert not any("sampled" in s for s in report.skipped)
    assert triples(oracle_fast_audit(lp, solution)) == triples(report)


def test_fast_audit_counts_every_row():
    lp = strided_lp()
    solution = LPSolution(status=SolveStatus.OPTIMAL, objective=0.0, values=[0.0])
    PERF.reset()
    assert audit_lp_solution(lp, solution, mode="fast").ok
    assert audit_lp_solution(lp, solution, mode="full").ok
    assert PERF.get("audit.lp.rows") == 2 * lp.num_constraints
    assert PERF.snapshot()["timers"]["audit.lp"]["calls"] == 2


# -- non-finite values --------------------------------------------------------


def two_var_lp():
    lp = LinearProgram(name="two")
    lp.var("x", upper=1.0, obj=1.0)
    lp.var("y", upper=1.0, obj=1.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 1.0, name="cover")
    return lp


@pytest.mark.parametrize("mode", ["fast", "full"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_a_status_violation(mode, bad):
    lp = two_var_lp()
    solution = LPSolution(status=SolveStatus.OPTIMAL, objective=1.0, values=[1.0, bad])
    report = audit_lp_solution(lp, solution, mode=mode)
    assert not report.ok
    assert triples(report) == [("status", "non-finite", 1.0)]
    assert f"y={bad}" in report.violations[0].message
    # Nothing else ran on a point that has no meaning.
    assert report.checks == ["status"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_solution_reports_non_finite_values(bad):
    report = check_solution(two_var_lp(), [bad, 0.5])
    assert not report.feasible
    assert report.violations[0].kind == "non-finite"
    assert report.violations[0].name == "x"
