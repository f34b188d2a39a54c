"""Exact-arithmetic re-checking of LP solutions.

The LP layer (:mod:`repro.lp`) runs in floating point end to end — assembly,
both backends, validation.  This module re-derives the certificates in
:class:`fractions.Fraction` arithmetic: every float is lifted *exactly*
(``Fraction(x)`` reproduces the binary float, no decimal rounding), every
constraint activity and the objective are recomputed as rationals, and
tolerance comparisons happen on exact numbers.  That rules out the one
failure mode a float checker shares with the solver under audit: accumulated
rounding in the *checker's own* sums masking (or fabricating) a violation.

Two entry points:

* :func:`audit_lp_solution` — the in-solve certificate: primal feasibility,
  variable bounds and objective recomputation for an :class:`LPSolution`
  against its :class:`LinearProgram`.  ``mode="fast"`` checks every row
  and every bound in float arithmetic, in one vectorized pass over the
  model's arrays; ``mode="full"`` checks every row and every bound exactly,
  and certifies the objective from below by weak duality (:func:`dual_bound`).
* :func:`dual_bound` — the weak-duality lower bound ``L(y)`` that the
  solution's row duals prove, in exact arithmetic.
* :func:`exact_objective` — the rational objective value of a point.

Reports are capped at ``max_reported`` *worst* violations per family (sorted
by magnitude) with the total count noted, matching the ISSUE's
"per-constraint worst violations" contract without flooding manifests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import math

import numpy as np

from repro.audit.report import DEFAULT_TOL, AuditReport, AuditViolation
from repro.lp.model import LinearProgram, Sense
from repro.lp.solution import LPSolution, SolveStatus
from repro.perf import PERF


def exact_objective(model: LinearProgram, values: Sequence[float]) -> Fraction:
    """The rational objective ``c . x`` of a point (no constant term)."""
    c = model.assembled().c
    total = Fraction(0)
    for j in np.flatnonzero(c).tolist():
        total += Fraction(float(c[j])) * Fraction(float(values[j]))
    return total


def _row_excess_exact(
    indices, coeffs, sense: int, lower: float, upper: float, fx: List[Fraction]
) -> Fraction:
    """Exact violation of one row at the lifted point ``fx`` (<= 0 when satisfied)."""
    act = Fraction(0)
    for i, c in zip(indices, coeffs):
        act += Fraction(c) * fx[i]
    if sense == Sense.LE.code:
        return act - Fraction(upper)
    if sense == Sense.GE.code:
        return Fraction(lower) - act
    return abs(act - Fraction(lower))


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


def audit_lp_solution(
    model: LinearProgram,
    solution: LPSolution,
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    max_reported: int = 25,
) -> AuditReport:
    """Certify an LP solution against the original model.

    Checks (all recorded in the report's ``checks`` list):

    * ``status`` — the solve claims optimality, and every value is finite;
    * ``var-bound`` — every value within its variable's [lower, upper];
    * ``constraint`` — primal feasibility of every row;
    * ``objective`` — ``c . x`` matches the solver-reported objective
      within ``tol`` (relative to the objective's magnitude);
    * ``dual`` (``full`` only) — the reported objective exceeds the
      weak-duality bound :func:`dual_bound` of the solution's row duals by
      at most ``tol`` (relative), so no feasible point is cheaper.

    ``full`` runs every comparison in exact :class:`fractions.Fraction`
    arithmetic; ``fast`` uses floats, one vectorized pass per check.
    """
    report = AuditReport(mode=mode)
    with PERF.timer("audit.lp"):
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

        # Every comparison with NaN is False, so a non-finite value would
        # pass the float checks silently (and cannot be lifted to a
        # Fraction): flag it before any other check runs.
        x = np.asarray(values, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(x))
        if len(bad):
            shown = ", ".join(
                f"{model.var_name(j)}={x[j]}" for j in bad[:max_reported].tolist()
            )
            report.flag(
                "status", "non-finite", amount=float(len(bad)),
                message=f"{len(bad)} non-finite value(s): {shown}",
            )
            return report

        if mode == "full":
            _check_exact(report, model, solution, values, tol, max_reported)
        else:
            _check_float(report, model, solution, x, tol, max_reported)
        PERF.count("audit.lp.rows", model.num_constraints)
    return report


def _check_float(report, model, solution, x, tol, max_reported) -> None:
    """The float checks, each one vectorized pass over the model's arrays.

    Bounds and costs come from the assembled arrays; rows come from
    :meth:`~repro.lp.model.LinearProgram.row_activities`.  Names are
    rendered only for flagged entries.
    """
    cache = model.assembled()

    report.ran("var-bound")
    lb, ub = cache.lb, cache.ub
    below = x < lb - tol
    flagged = np.flatnonzero(below | (x > ub + tol))
    amounts = np.where(below, lb - x, x - ub)[flagged]
    found = [
        AuditViolation("var-bound", model.var_name(j), float(a))
        for j, a in zip(flagged.tolist(), amounts.tolist())
    ]
    _keep_worst(report, found, "var-bound", max_reported)

    report.ran("constraint")
    activity, senses, rhs = model.row_activities(x)
    excess = np.where(
        senses == Sense.LE.code,
        activity - rhs,
        np.where(senses == Sense.GE.code, rhs - activity, np.abs(activity - rhs)),
    )
    flagged = np.flatnonzero(excess > tol)
    found = [
        AuditViolation("constraint", model.row_name(row), float(e))
        for row, e in zip(flagged.tolist(), excess[flagged].tolist())
    ]
    _keep_worst(report, found, "constraint", max_reported)

    report.ran("objective")
    # Non-zero costs in index order, added left to right by ``sum``.
    nz = np.flatnonzero(cache.c)
    recomputed = sum((cache.c[nz] * x[nz]).tolist())
    drift = abs(recomputed - float(solution.objective))
    if drift > tol * max(1.0, abs(recomputed)):
        report.flag(
            "objective", "objective", float(drift),
            message=f"recomputed c.x = {float(recomputed):.9g}, "
            f"solver reported {float(solution.objective):.9g}",
        )


def _check_exact(report, model, solution, values, tol, max_reported) -> None:
    """The same checks in exact :class:`fractions.Fraction` arithmetic, then ``dual``."""
    ftol = Fraction(tol)
    arrays = model.assembled()
    fx = [Fraction(v) for v in np.asarray(values, dtype=np.float64).tolist()]

    report.ran("var-bound")
    found: List[AuditViolation] = []
    for j, (lower, upper) in enumerate(zip(arrays.lb.tolist(), arrays.ub.tolist())):
        below = Fraction(lower) - fx[j] if math.isfinite(lower) else -1
        above = fx[j] - Fraction(upper) if math.isfinite(upper) else -1
        if below > ftol:
            found.append(AuditViolation("var-bound", model.var_name(j), float(below)))
        elif above > ftol:
            found.append(AuditViolation("var-bound", model.var_name(j), float(above)))
    _keep_worst(report, found, "var-bound", max_reported)

    report.ran("constraint")
    found = []
    indptr = arrays.indptr.tolist()
    indices, coeffs = arrays.indices.tolist(), arrays.data.tolist()
    rows = zip(arrays.sense.tolist(), arrays.row_lower.tolist(), arrays.row_upper.tolist())
    for row, (sense, lower, upper) in enumerate(rows):
        lo, hi = indptr[row], indptr[row + 1]
        excess = _row_excess_exact(indices[lo:hi], coeffs[lo:hi], sense, lower, upper, fx)
        if excess > ftol:
            found.append(AuditViolation("constraint", model.row_name(row), float(excess)))
    _keep_worst(report, found, "constraint", max_reported)

    report.ran("objective")
    recomputed = exact_objective(model, values)
    drift = abs(recomputed - Fraction(float(solution.objective)))
    if drift > Fraction(tol) * max(Fraction(1), abs(recomputed)):
        report.flag(
            "objective", "objective", float(drift),
            message=f"recomputed c.x = {float(recomputed):.9g}, "
            f"solver reported {float(solution.objective):.9g}",
        )

    duals = solution.duals
    if duals is None:
        report.skip("dual", "the solution carries no row duals")
        return
    report.ran("dual")
    duals = np.asarray(duals, dtype=np.float64)
    if len(duals) != model.num_constraints or not np.isfinite(duals).all():
        report.flag("dual", "duals", message=(
            f"uncertified: {len(duals)} row duals for {model.num_constraints} "
            "rows, or a non-finite one"
        ))
        return
    # The implied column bounds rest on x being feasible, which the
    # checks above have just decided.
    feasible = not any(
        v.check in ("var-bound", "constraint") for v in report.violations
    )
    with PERF.timer("audit.lp.dual"):
        bound, uncertified = dual_bound(model, duals, recomputed if feasible else None)
    if uncertified:
        report.flag("dual", uncertified[0], message=(
            f"uncertified: {len(uncertified)} column(s) with no finite or "
            "implied bound on the side their reduced cost points to"
        ))
        return
    objective = Fraction(float(solution.objective))
    gap = objective - bound
    if gap > ftol * max(Fraction(1), abs(objective)):
        report.flag(
            "dual", "dual", float(gap),
            message=f"weak-duality bound L(y) = {float(bound):.9g} is below "
            f"the reported objective {float(objective):.9g}",
        )


def dual_bound(
    model: LinearProgram,
    duals: Sequence[float],
    upper_cost: Optional[Fraction] = None,
) -> Tuple[Optional[Fraction], List[str]]:
    """The weak-duality lower bound ``L(y)`` on ``model``'s optimum, exactly.

    ``duals`` holds one finite value per row, in model row order.  Each is
    first clipped to its valid sign (shadow-price convention: ``> 0`` only
    on a row with a finite lower bound, ``< 0`` only on one with a finite
    upper bound — so ``>= 0`` on ``>=`` rows, ``<= 0`` on ``<=`` rows, free
    on ``==`` rows), and any ``y`` with valid signs bounds every feasible
    point from below (Neumaier & Shcherbina, Math. Prog. 99, 2004)::

        r    = c - A^T y
        L(y) = sum_i y_i * (row_lower_i if y_i > 0 else row_upper_i)
               + sum_j min(r_j * l_j, r_j * u_j)

    Every float is lifted exactly to a :class:`~fractions.Fraction`, so
    the bound is the rational number the floats denote.  Rows with a zero
    dual contribute nothing and are skipped.

    A column with ``r_j < 0`` and no finite upper bound (``r_j > 0`` and no
    finite lower bound) would make ``L(y) = -inf``.  ``upper_cost`` — the
    exact cost ``c . x`` of a feasible point — supplies one when every cost
    and every lower bound is non-negative: every optimum then has
    ``c_j x_j <= c . x``, so ``u_j = upper_cost / c_j`` cuts off no optimum.
    Returns ``(L(y), [])``, or ``(None, names)`` naming the columns that
    got no such bound — ``L(y)`` is then not a certificate.
    """
    arrays = model.assembled()
    # A positive dual prices a row's lower bound, a negative one its upper
    # bound; a dual pointing at an infinite bound is clipped to zero.
    y = np.asarray(duals, dtype=np.float64)
    y = np.where(
        y > 0, np.where(np.isfinite(arrays.row_lower), y, 0.0),
        np.where(np.isfinite(arrays.row_upper), y, 0.0),
    )
    live = np.flatnonzero(y)
    lifted = {}  # distinct float -> its Fraction; MC-PERF rows share few values

    def lift(value: float) -> Fraction:
        f = lifted.get(value)
        if f is None:
            f = lifted[value] = Fraction(value)
        return f

    ys = [lift(v) for v in y[live].tolist()]
    rhs = np.where(y > 0, arrays.row_lower, arrays.row_upper)[live]
    bound = sum((lift(b) * fy for b, fy in zip(rhs.tolist(), ys)), Fraction(0))

    # r = c - A^T y over the live rows' nonzeros, one Fraction per column.
    costs = arrays.c.tolist()
    r = [lift(cj) for cj in costs]
    indptr = arrays.indptr
    for row, fy in zip(live.tolist(), ys):
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        for j, a in zip(arrays.indices[lo:hi].tolist(), arrays.data[lo:hi].tolist()):
            r[j] -= lift(a) * fy

    lower, upper = arrays.lb.tolist(), arrays.ub.tolist()
    implied = upper_cost is not None and bool(
        np.all(arrays.c >= 0) and np.all(arrays.lb >= 0)
    )
    uncertified: List[str] = []
    for j, rj in enumerate(r):
        if not rj:
            continue
        if rj > 0:
            if math.isfinite(lower[j]):
                bound += rj * lift(lower[j])
            else:
                uncertified.append(model.var_name(j))
        elif math.isfinite(upper[j]):
            bound += rj * lift(upper[j])
        elif implied and costs[j] > 0:
            bound += rj * upper_cost / lift(costs[j])
        else:
            uncertified.append(model.var_name(j))
    if uncertified:
        return None, uncertified
    return bound, []
