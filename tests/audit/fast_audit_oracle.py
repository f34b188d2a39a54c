"""The per-row fast audit, frozen as the vectorized fast path's oracle.

This is ``repro.audit.exact.audit_lp_solution`` in ``mode="fast"`` as it
stood before the fast path ran on arrays, with constraint sampling off:
it walks every column and every row in Python, one at a time.  The model
no longer keeps per-column and per-row objects, so :func:`columns` and
:func:`rows` rebuild those views from the assembled arrays, and
:func:`row_activity` is the per-row sum the row objects computed.  It has
no non-finite check (NaN compares False everywhere, so NaN values pass
it); the property tests feed it finite points only.

:func:`loop_check_solution` is the per-row ``check_solution`` of the same
era, the oracle of the vectorized one in :mod:`repro.audit.certificates`.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.audit.certificates import ValidationReport, Violation
from repro.audit.report import DEFAULT_TOL, AuditReport, AuditViolation
from repro.lp.model import LinearProgram, Sense
from repro.lp.solution import LPSolution, SolveStatus

_SENSE_OF_CODE = {sense.code: sense for sense in Sense}


def columns(model: LinearProgram):
    """Every column as an object: ``index``, ``name``, ``lower``, ``upper``
    (None when unbounded above) and ``objective``."""
    arrays = model.assembled()
    return [
        SimpleNamespace(
            index=j, name=model.var_name(j), lower=lower,
            upper=None if upper == float("inf") else upper, objective=objective,
        )
        for j, (lower, upper, objective) in enumerate(
            zip(arrays.lb.tolist(), arrays.ub.tolist(), arrays.c.tolist())
        )
    ]


def rows(model: LinearProgram):
    """Every row as an object: ``name``, ``indices``, ``coeffs``, ``sense``, ``rhs``."""
    arrays = model.assembled()
    rhs = arrays.rhs().tolist()
    return [
        SimpleNamespace(
            name=model.row_name(r),
            indices=arrays.indices[arrays.indptr[r]:arrays.indptr[r + 1]].tolist(),
            coeffs=arrays.data[arrays.indptr[r]:arrays.indptr[r + 1]].tolist(),
            sense=_SENSE_OF_CODE[int(arrays.sense[r])],
            rhs=rhs[r],
        )
        for r in range(arrays.nrows)
    ]


def row_activity(con, values) -> float:
    """One row's activity, summed left to right from 0.0.

    An explicit loop: ``sum()`` compensates float rounding since Python
    3.12, which would make the result depend on the interpreter.
    """
    act = 0.0
    for i, c in zip(con.indices, con.coeffs):
        act += c * float(values[i])
    return act


def _constraint_violation_float(con, values, tol: float) -> Optional[float]:
    """Float violation magnitude of one row, or None when satisfied."""
    act = row_activity(con, values)
    if con.sense is Sense.LE:
        excess = act - con.rhs
    elif con.sense is Sense.GE:
        excess = con.rhs - act
    else:
        excess = abs(act - con.rhs)
    return excess if excess > tol else None


def _keep_worst(
    report: AuditReport, found: List[AuditViolation], check: str, max_reported: int
) -> None:
    """Attach the worst ``max_reported`` violations, noting any overflow."""
    found.sort(key=lambda v: -v.amount)
    report.violations.extend(found[:max_reported])
    if len(found) > max_reported:
        report.skip(
            check,
            f"{len(found) - max_reported} further violations "
            f"(worst {max_reported} reported)",
        )


def oracle_fast_audit(
    model: LinearProgram,
    solution: LPSolution,
    tol: float = DEFAULT_TOL,
    max_reported: int = 25,
) -> AuditReport:
    """The per-row float audit of ``solution`` against ``model``."""
    report = AuditReport(mode="fast")
    report.ran("status")
    if solution.status is not SolveStatus.OPTIMAL:
        report.flag(
            "status", solution.status.value,
            message="audited solution does not claim optimality",
        )
        return report

    values = solution.values
    if len(values) != model.num_variables:
        report.flag(
            "status", "shape", amount=abs(len(values) - model.num_variables),
            message=f"value vector has length {len(values)}, "
            f"model has {model.num_variables} variables",
        )
        return report

    # Variable bounds.
    report.ran("var-bound")
    found: List[AuditViolation] = []
    variables = columns(model)
    for v in variables:
        x = float(values[v.index])
        if x < v.lower - tol:
            found.append(AuditViolation("var-bound", v.name, v.lower - x))
        elif v.upper is not None and x > v.upper + tol:
            found.append(AuditViolation("var-bound", v.name, x - v.upper))
    _keep_worst(report, found, "var-bound", max_reported)

    # Primal feasibility.
    report.ran("constraint")
    found = []
    for con in rows(model):
        excess = _constraint_violation_float(con, values, tol)
        if excess is not None:
            found.append(
                AuditViolation("constraint", con.name, float(excess))
            )
    _keep_worst(report, found, "constraint", max_reported)

    # Objective recomputation.
    report.ran("objective")
    recomputed = sum(
        v.objective * float(values[v.index])
        for v in variables
        if v.objective
    )
    drift = abs(recomputed - float(solution.objective))
    allowance = tol * max(1.0, abs(recomputed))
    if drift > allowance:
        report.flag(
            "objective", "objective", float(drift),
            message=f"recomputed c.x = {float(recomputed):.9g}, "
            f"solver reported {float(solution.objective):.9g}",
        )
    return report


def loop_check_solution(model: LinearProgram, values, tol: float = 1e-6) -> ValidationReport:
    """Check ``values`` against every bound and constraint, one object at a time."""
    if len(values) != model.num_variables:
        raise ValueError(
            f"value vector has length {len(values)}, model has {model.num_variables} variables"
        )
    violations: List[Violation] = []
    variables = columns(model)

    for v in variables:
        x = float(values[v.index])
        if x < v.lower - tol:
            violations.append(Violation("lower", v.name, v.lower - x))
        if v.upper is not None and x > v.upper + tol:
            violations.append(Violation("upper", v.name, x - v.upper))

    for con in rows(model):
        act = row_activity(con, values)
        if con.sense is Sense.LE and act > con.rhs + tol:
            violations.append(Violation("constraint", con.name, act - con.rhs))
        elif con.sense is Sense.GE and act < con.rhs - tol:
            violations.append(Violation("constraint", con.name, con.rhs - act))
        elif con.sense is Sense.EQ and abs(act - con.rhs) > tol:
            violations.append(Violation("constraint", con.name, abs(act - con.rhs)))

    objective = sum(v.objective * float(values[v.index]) for v in variables)
    return ValidationReport(feasible=not violations, objective=objective, violations=violations)
