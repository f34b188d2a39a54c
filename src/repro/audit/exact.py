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
    total = Fraction(0)
    for v in model.variables:
        if v.objective:
            total += Fraction(v.objective) * Fraction(float(values[v.index]))
    return total


def _constraint_violation_exact(con, values, tol: Fraction) -> Optional[Fraction]:
    """Exact violation magnitude of one row, or None when satisfied."""
    act = Fraction(0)
    for i, c in zip(con.indices, con.coeffs):
        act += Fraction(float(c)) * Fraction(float(values[int(i)]))
    rhs = Fraction(con.rhs)
    if con.sense is Sense.LE:
        excess = act - rhs
    elif con.sense is Sense.GE:
        excess = rhs - act
    else:
        excess = abs(act - rhs)
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
                f"{model.variables[j].name}={x[j]}" for j in bad[:max_reported]
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

    Bounds and costs come from the assembled cache, which the patch API
    keeps in step with the :class:`~repro.lp.model.Variable` objects; rows
    come from :meth:`~repro.lp.model.LinearProgram.row_activities`.  Names
    are looked up only for flagged entries.
    """
    cache = model.assembled()

    report.ran("var-bound")
    lb, ub = cache.lb, cache.ub
    below = x < lb - tol
    flagged = np.flatnonzero(below | (x > ub + tol))
    amounts = np.where(below, lb - x, x - ub)[flagged]
    found = [
        AuditViolation("var-bound", model.variables[j].name, float(a))
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
        AuditViolation("constraint", model.constraints[row].name, float(e))
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

    report.ran("var-bound")
    found: List[AuditViolation] = []
    for v in model.variables:
        fx = Fraction(float(values[v.index]))
        below = Fraction(v.lower) - fx
        above = fx - Fraction(v.upper) if v.upper is not None else Fraction(-1)
        if below > ftol:
            found.append(AuditViolation("var-bound", v.name, float(below)))
        elif above > ftol:
            found.append(AuditViolation("var-bound", v.name, float(above)))
    _keep_worst(report, found, "var-bound", max_reported)

    report.ran("constraint")
    found = []
    for con in model.constraints:
        excess = _constraint_violation_exact(con, values, ftol)
        if excess is not None:
            found.append(AuditViolation("constraint", con.name, float(excess)))
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
    first clipped to its valid sign (shadow-price convention:
    ``>= 0`` on ``>=`` rows, ``<= 0`` on ``<=`` rows, free on ``==`` rows),
    and any ``y`` with valid signs bounds every feasible point from below
    (Neumaier & Shcherbina, Math. Prog. 99, 2004)::

        r    = c - A^T y
        L(y) = b^T y + sum_j min(r_j * l_j, r_j * u_j)

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
    nvars = model.num_variables
    y = np.asarray(duals, dtype=np.float64)
    lengths, senses, rhs, flat_idx, flat_cf = model.constraints.columnar()
    y = np.where(
        senses == Sense.GE.code, np.maximum(y, 0.0),
        np.where(senses == Sense.LE.code, np.minimum(y, 0.0), y),
    )
    live = np.flatnonzero(y)
    lifted = {}  # distinct float -> its Fraction; MC-PERF rows share few values

    def lift(value: float) -> Fraction:
        f = lifted.get(value)
        if f is None:
            f = lifted[value] = Fraction(value)
        return f

    ys = [lift(v) for v in y[live].tolist()]
    bound = sum(
        (lift(b) * fy for b, fy in zip(rhs[live].tolist(), ys)), Fraction(0)
    )

    # r = c - A^T y over the live rows' nonzeros, one Fraction per column.
    costs = [v.objective for v in model.variables]
    r = [lift(float(cj)) for cj in costs]
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    for row, fy in zip(live.tolist(), ys):
        lo, hi = int(starts[row]), int(starts[row + 1])
        for j, a in zip(flat_idx[lo:hi].tolist(), flat_cf[lo:hi].tolist()):
            r[j] -= lift(a) * fy

    implied = upper_cost is not None and all(
        v.objective >= 0 and v.lower >= 0 for v in model.variables
    )
    uncertified: List[str] = []
    for j in range(nvars):
        rj = r[j]
        if not rj:
            continue
        v = model.variables[j]
        if rj > 0:
            if math.isfinite(v.lower):
                bound += rj * lift(float(v.lower))
            else:
                uncertified.append(v.name)
        elif v.upper is not None and math.isfinite(v.upper):
            bound += rj * lift(float(v.upper))
        elif implied and costs[j] > 0:
            bound += rj * upper_cost / lift(float(costs[j]))
        else:
            uncertified.append(v.name)
    if uncertified:
        return None, uncertified
    return bound, []
