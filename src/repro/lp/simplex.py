"""Scipy-free simplex backend — now the revised simplex (ISSUE 9).

This backend exists for two reasons:

1. **Differential testing** — tests solve small instances with both this
   solver and the scipy/HiGHS backend and require matching optima, guarding
   against mis-assembled constraint matrices.
2. **Portability** — environments without scipy can still solve toy models.

Historically it was a dense two-phase tableau; it is now a thin wrapper
over :mod:`repro.lp.revised` — a revised simplex over sparse columns with
product-form basis updates.  The pivot logic shares *nothing* with
scipy/HiGHS (only the LU factorization uses ``scipy.sparse.linalg.splu``
when scipy happens to be importable; a numpy dense-inverse kernel covers
scipy-less installs), so the differential-testing value is preserved; the
backend warm-starts from a caller's basis itself.

Problem form solved::

    minimize    c^T x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lower <= x <= upper  (upper may be None = +inf)

Unlike the old tableau, bounds are handled natively (no shifting, no extra
rows) and the solution carries duals and a reusable
:class:`~repro.lp.basis.Basis` handle.
"""

from __future__ import annotations

from typing import Optional

from repro.lp.basis import Basis

# Re-exported: the historical public names of this module.
from repro.lp.revised import SimplexError, _SingularBasis, solve_revised
from repro.lp.solution import LPSolution
from repro.perf import PERF

__all__ = ["SimplexError", "solve_with_simplex"]


def solve_with_simplex(
    model,
    max_iterations: int = 100_000,
    warm_start: Optional[object] = None,
) -> LPSolution:
    """Solve a :class:`repro.lp.model.LinearProgram` with the fallback simplex.

    ``warm_start`` may be a :class:`~repro.lp.basis.Basis` or an
    :class:`~repro.lp.solution.LPSolution` carrying one.  The revised
    simplex re-certifies it against the current arrays; a singular basis,
    the iteration cap or a non-optimal warm outcome re-solves cold and
    counts ``lp.simplex.warm_degraded``.
    """
    basis = getattr(warm_start, "basis", warm_start)
    if isinstance(basis, Basis) and basis.matches(model.num_variables, model.num_constraints):
        try:
            solution = solve_revised(model, warm_basis=basis, max_iterations=max_iterations)
        except (SimplexError, _SingularBasis):
            solution = None
        if solution is not None and solution.is_optimal:
            return solution
        PERF.count("lp.simplex.warm_degraded")
    return solve_revised(model, max_iterations=max_iterations)
