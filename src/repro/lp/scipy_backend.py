"""Production LP backend: HiGHS through scipy's vendored bindings.

The paper solved its LP relaxations with CPLEX.  HiGHS is likewise an exact
(to tolerance) simplex/interior-point solver, so the computed lower bounds are
identical up to numerical tolerance — the substitution is documented in
DESIGN.md.

The model is handed to HiGHS exactly as ``scipy.optimize.linprog(method=
"highs")`` would hand it — same matrix, row order, bounds and options — but
through ``scipy.optimize._highspy._core`` directly, because ``linprog``
discards the optimal basis HiGHS ends with.  That basis is returned as a
:class:`~repro.lp.basis.Basis`, so the next drift-sized re-solve warm-starts
the revised simplex from it instead of rebuilding one.  This is the only
module that touches the private bindings.
"""

from __future__ import annotations

import numpy as np

from repro.lp.basis import AT_LOWER, AT_UPPER, BASIC, NB_FREE, Basis
from repro.lp.solution import LPSolution, SolveStatus

#: ``linprog``'s post-solve feasibility tolerance (``sqrt(1e-9) * 10``): an
#: "optimal" point violating a bound or row by more is reported as an error.
_CHECK_TOL = float(np.sqrt(1e-9) * 10)


def solve_with_scipy(model, **options) -> LPSolution:
    """Solve a :class:`repro.lp.model.LinearProgram` with HiGHS.

    Parameters
    ----------
    model:
        The LP to solve (minimization).
    options:
        HiGHS options set on top of ``linprog``'s defaults, by their HiGHS
        names (e.g. ``presolve="off"``).
    """
    # Imported here so ``import repro.lp`` stays cheap; the "auto" backend
    # turns an import failure into a warned fallback.
    from scipy import sparse
    from scipy.optimize._highspy import _core as h

    c, a_ub, b_ub, a_eq, b_eq, _bounds = model.to_arrays()
    cache = model._arrays
    n = len(c)
    if n == 0:
        return LPSolution(
            status=SolveStatus.OPTIMAL, objective=0.0, values=np.zeros(0), backend="scipy"
        )

    # HiGHS sees rows as lhs <= A x <= rhs: the <= block (>= rows negated
    # by to_arrays) over the == block, as linprog stacks them.
    blocks = [a for a in (a_ub, a_eq) if a is not None]
    n_ub = 0 if b_ub is None else len(b_ub)
    b_eq = np.zeros(0) if b_eq is None else b_eq
    rhs = np.concatenate([np.zeros(0) if b_ub is None else b_ub, b_eq])
    lhs = np.concatenate([np.full(n_ub, -np.inf), b_eq])
    a = sparse.csc_array(sparse.vstack(blocks)) if blocks else sparse.csc_array((0, n))

    lp = h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = len(rhs)
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = len(rhs)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = cache.lb
    lp.col_upper_ = cache.ub
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data

    highs = h._Highs()
    settings = {
        "presolve": "on",
        "output_flag": False,
        "log_to_console": False,
        "highs_debug_level": int(h.HighsDebugLevel.kHighsDebugLevelNone),
        "simplex_strategy": int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    }
    settings.update(options)
    for key, value in settings.items():
        if highs.setOptionValue(key, value) == h.HighsStatus.kError:
            raise ValueError(f"bad HiGHS option {key}={value!r}")
    if highs.passModel(lp) == h.HighsStatus.kError:
        model_status = h.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    # linprog's mapping, including "a model HiGHS rejects is infeasible".
    status = {
        h.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
        h.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
        h.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
        h.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    }.get(model_status, SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return LPSolution(
            status=status, values=np.zeros(n), backend="scipy", message=message
        )

    solution = highs.getSolution()
    values = np.array(solution.col_value, dtype=float)
    row_value = np.array(solution.row_value, dtype=float)
    slack = rhs - row_value
    if not (
        np.all(values >= cache.lb - _CHECK_TOL)
        and np.all(values <= cache.ub + _CHECK_TOL)
        and np.all(slack[:n_ub] >= -_CHECK_TOL)
        and np.all(np.abs(slack[n_ub:]) <= _CHECK_TOL)
    ):
        return LPSolution(
            status=SolveStatus.ERROR, values=values, backend="scipy",
            message="HiGHS optimum violates the constraints beyond tolerance",
        )

    # HiGHS row i of the model lives at position row_pos[i] of its block.
    highs_row = np.where(cache.row_is_eq, n_ub + cache.row_pos, cache.row_pos)
    duals = np.array(solution.row_dual, dtype=float)[highs_row]
    # A >= row was negated into <= form, so its sensitivity to the original
    # rhs flips sign: duals of >= rows come out >= 0 (more requirement
    # costs more), the shadow-price convention callers use.
    duals[cache.row_flip] = -duals[cache.row_flip]
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        objective=float(highs.getInfo().objective_function_value),
        values=values,
        backend="scipy",
        message=message,
        duals=duals,
        basis=_basis(h, highs.getBasis(), cache, highs_row),
    )


def _basis(h, highs_basis, cache, highs_row) -> "Basis | None":
    """HiGHS's final basis in :mod:`repro.lp.basis` terms, or None.

    Structural columns map status for status.  Row statuses describe the
    row activity ``A x``; the revised simplex's slack is ``s = b - A x``,
    so a nonbasic row puts its slack at zero — the slack's upper bound for
    ``>=`` rows, its lower bound for ``<=`` and ``==`` rows.
    """
    if not highs_basis.valid:
        return None
    b = h.HighsBasisStatus
    code = np.full(max(map(int, b.__members__.values())) + 1, -1, dtype=np.int8)
    for theirs, ours in (
        (b.kLower, AT_LOWER), (b.kUpper, AT_UPPER), (b.kBasic, BASIC), (b.kZero, NB_FREE)
    ):
        code[int(theirs)] = ours
    cols = code[np.fromiter(map(int, highs_basis.col_status), dtype=np.int64)]
    if (cols < 0).any():
        return None
    row_basic = (
        np.fromiter(map(int, highs_basis.row_status), dtype=np.int64) == int(b.kBasic)
    )[highs_row]
    rows = np.where(
        row_basic, BASIC, np.where(cache.row_flip, AT_UPPER, AT_LOWER)
    ).astype(np.int8)
    basis = Basis(np.concatenate([cols, rows]), len(cols), len(rows))
    return basis if basis.is_wellformed() else None
