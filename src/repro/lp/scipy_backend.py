"""Production LP backend: HiGHS through scipy's vendored bindings.

The paper solved its LP relaxations with CPLEX.  HiGHS is likewise an exact
(to tolerance) simplex/interior-point solver, so the computed lower bounds are
identical up to numerical tolerance — the substitution is documented in
DESIGN.md.

The model is handed to HiGHS in HiGHS's own form, the one
:class:`~repro.lp.model.LPArrays` holds: column costs and bounds, the rows
in model order with their own signs, and ``row_lower <= A x <= row_upper``,
with ``scipy.optimize.linprog(method="highs")``'s options.  It goes through
``scipy.optimize._highspy._core`` directly, because ``linprog`` neither
returns the optimal basis nor keeps its HiGHS instance.

Only that one extension is loaded (:func:`highs_core`), once per process and
on the first solve: importing ``scipy.optimize`` to reach it, and
``scipy.sparse`` to build its matrix, would load about 500 modules and
40 MB that no solve uses.  The extension is registered
under its package name, so a later ``import scipy.optimize`` reuses it.  The
column-wise matrix HiGHS takes is built from the model's assembled CSR rows
with NumPy, entry for entry what ``scipy.sparse.csc_array`` would give, so
no solve imports ``scipy.sparse`` either.

This backend keeps the basis and the instance:

* The ``_Highs`` instance stays on the model (``model._highs``) after an
  optimal solve.  A re-solve of the same assembled arrays pushes only the
  rows, column bounds and costs the patch API changed since the last run,
  and HiGHS's dual simplex restarts from its retained basis and factor —
  the hot start every QoS sweep level takes.
* A re-solve whose patches since the last HiGHS run touched only row
  bounds is first answered from the retained factor, without a run: the
  retained optimal basis stays optimal while its basic solution
  ``B x_B = r_N - A_N x_N`` keeps every column bound and row within
  HiGHS's own primal feasibility tolerance (costs and column bounds did
  not change, so it stays dual feasible).  Such a solve counts
  ``lp.simplex.basis_kept`` and returns the retained duals and basis.
* A :class:`~repro.lp.basis.Basis` from another LP of the same shape (the
  service's per-class warm store) enters a fresh instance through
  ``setBasis``.

An optimal solve returns HiGHS's values and row duals, and its basis as a
deferred handle over HiGHS's ``getBasis()`` snapshot (a copy, a few
microseconds): statuses are derived only if someone reads them, and a
snapshot handed back to ``setBasis`` needs no conversion at all.

Either warm start is a hint: a non-optimal warm outcome is re-solved cold
and counts ``lp.simplex.warm_degraded``.

:func:`solve_mip` hands the same model to HiGHS's MIP solver with chosen
columns integral (the exact mode of :mod:`repro.core.exact`), on a fresh
instance, and checks its incumbent as an LP optimum is checked.  HiGHS's
MIP solver may print a stray line to stdout even with ``output_flag`` off,
so nothing should parse the stdout of a MIP solve.  This is the only
module that touches the private bindings.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from repro.lp.basis import AT_LOWER, AT_UPPER, BASIC, NB_FREE, Basis
from repro.lp.solution import LPSolution, MIPSolution, SolveStatus
from repro.perf import PERF

#: ``linprog``'s post-solve feasibility tolerance (``sqrt(1e-9) * 10``): an
#: "optimal" point violating a bound or row by more is reported as an error.
_CHECK_TOL = float(np.sqrt(1e-9) * 10)

#: Sense codes of the assembled rows (:attr:`repro.lp.model.LPArrays.sense`).
_LE, _GE = 0, 1

#: The HiGHS bindings' module name inside scipy (scipy >= 1.15).
_CORE_NAME = "scipy.optimize._highspy._core"
#: The service solves on several threads; the first to solve loads the
#: extension, the others wait for it.
_LOAD_LOCK = threading.Lock()
_CORE = None


def highs_core():
    """The HiGHS bindings, loaded once per process without ``scipy.optimize``.

    The ``_core`` extension is found in scipy's ``optimize/_highspy``
    directory and registered in ``sys.modules`` under its package name, so
    a later ``import scipy.optimize`` finds it there instead of
    initializing it twice.  The load is timed as ``lp.highs.load``.
    """
    global _CORE
    if _CORE is None:
        with _LOAD_LOCK:
            if _CORE is None:
                with PERF.timer("lp.highs.load"):
                    _CORE = sys.modules.get(_CORE_NAME) or _load_core()
    return _CORE


def _load_core():
    import scipy

    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [directory])
    if found is None:
        raise ImportError(f"HiGHS bindings not found: no _core extension in {directory}")
    spec = importlib.util.spec_from_file_location(_CORE_NAME, found.origin)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE_NAME] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE_NAME]
        raise
    return core


def _colwise(cache):
    """The cache's rows as HiGHS's column-wise ``(start, index, value)``.

    A stable sort of the row-major entries by column keeps each column's
    entries in row order — what ``scipy.sparse.csc_array`` makes of the
    same rows, entry for entry.
    """
    order = np.argsort(cache.indices, kind="stable")
    start = np.zeros(cache.nvars + 1, dtype=np.int64)
    np.cumsum(np.bincount(cache.indices, minlength=cache.nvars), out=start[1:])
    return start, cache.entry_rows()[order], cache.data[order]


def _load(h, cache, options, integral=None):
    """A fresh HiGHS instance holding ``cache``; True if HiGHS accepted the model.

    The model goes in HiGHS's own form with ``linprog``'s settings and then
    ``options`` on top.  ``integral`` (a boolean per column) makes a MIP:
    the flagged columns integral, the others continuous.
    """
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cache.nvars
    lp.num_row_ = lp.a_matrix_.num_row_ = cache.nrows
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cache.c, cache.lb, cache.ub
    # The rows in model order with their own signs: lhs <= A x <= rhs.
    lp.row_lower_, lp.row_upper_ = cache.row_lower, cache.row_upper
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _colwise(cache)
    if integral is not None:
        kinds = (h.HighsVarType.kContinuous, h.HighsVarType.kInteger)
        lp.integrality_ = [kinds[flag] for flag in integral.tolist()]
    highs = h._Highs()
    settings = {
        "presolve": "on",
        "output_flag": False,
        "log_to_console": False,
        "highs_debug_level": int(h.HighsDebugLevel.kHighsDebugLevelNone),
        "simplex_strategy": int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    }
    for key, value in {**settings, **options}.items():
        if highs.setOptionValue(key, value) == h.HighsStatus.kError:
            raise ValueError(f"bad HiGHS option {key}={value!r}")
    return highs, highs.passModel(lp) != h.HighsStatus.kError


def _violates(cache, values) -> bool:
    """Does ``values`` break a column bound or a row beyond ``_CHECK_TOL``?

    Checked against the model's own rows, not HiGHS's row values; the patch
    API never edits a matrix entry.
    """
    activity = np.bincount(
        cache.entry_rows(), weights=cache.data * values[cache.indices], minlength=cache.nrows,
    )
    return not (
        np.all(values >= cache.lb - _CHECK_TOL)
        and np.all(values <= cache.ub + _CHECK_TOL)
        and np.all(activity >= cache.row_lower - _CHECK_TOL)
        and np.all(activity <= cache.row_upper + _CHECK_TOL)
    )


#: Why a model without columns (HiGHS calls it empty) is infeasible.
_EXCLUDES_ZERO = "a row without columns excludes 0"


def _admits_zero(cache) -> bool:
    """Can a model without columns be solved?  Every row's activity is 0."""
    return bool(np.all(cache.row_lower <= 0.0) and np.all(cache.row_upper >= 0.0))


class _HighsRun:
    """A HiGHS instance plus the costs and bounds it was last given.

    Valid for re-solves while the model's assembled arrays are the same
    object (no structural edit since) and the options are unchanged; the
    copies are what a re-solve diffs the patched arrays against.  After an
    optimal run it also keeps that run's outcome (``optimum``): private
    copies of the values and duals, the basis handle and HiGHS's message,
    which a re-solve answered from the retained factor (:meth:`keep`) starts
    from, and the run's basic variables (``basic``, read on first use).
    """

    __slots__ = (
        "highs", "accepted", "cache", "options", "c", "lb", "ub", "row_lower", "row_upper",
        "optimum", "basic",
    )

    def __init__(self, h, cache, options):
        self.cache, self.options = cache, options
        self._remember(cache)
        self.highs, self.accepted = _load(h, cache, options)
        self.optimum = self.basic = None

    def _remember(self, cache) -> None:
        self.c, self.lb, self.ub = cache.c.copy(), cache.lb.copy(), cache.ub.copy()
        self.row_lower, self.row_upper = cache.row_lower.copy(), cache.row_upper.copy()

    def push(self) -> None:
        """Hand HiGHS the row bounds, column bounds and costs patched since the last run."""
        cache, highs = self.cache, self.highs
        changed_r = np.flatnonzero(
            (cache.row_lower != self.row_lower) | (cache.row_upper != self.row_upper)
        )
        changed_c = np.flatnonzero(cache.c != self.c)
        changed_b = np.flatnonzero((cache.lb != self.lb) | (cache.ub != self.ub))
        self._remember(cache)
        for i in changed_r.tolist():
            highs.changeRowBounds(i, cache.row_lower[i], cache.row_upper[i])
        if len(changed_b):
            highs.changeColsBounds(
                len(changed_b), changed_b.astype(np.int32), cache.lb[changed_b],
                cache.ub[changed_b],
            )
        if len(changed_c):
            highs.changeColsCost(len(changed_c), changed_c.astype(np.int32), cache.c[changed_c])

    def keep(self, h) -> "LPSolution | None":
        """The retained optimal basis re-certified for the patched row bounds.

        Applies only when the patches since the last run touched row bounds
        alone.  The basic values are solved fresh on HiGHS's retained factor,
        ``B x_B = r_N - A_N x_N``: ``r_N`` is each nonbasic row's active
        bound (``row_lower`` for ``>=`` rows, ``row_upper`` for ``<=`` and
        ``==`` rows, 0 for a basic row) and ``A_N x_N`` the activity of the
        nonbasic columns at their retained values.  If the point keeps every
        column bound and row within HiGHS's ``primal_feasibility_tolerance``,
        the basis is still optimal: costs and column bounds did not change,
        so it stays dual feasible, and the retained duals and basis hold.
        Returns None when it does not apply or the point is infeasible; the
        caller then runs HiGHS.
        """
        cache, highs, optimum = self.cache, self.highs, self.optimum
        if optimum is None or not (
            np.array_equal(cache.c, self.c)
            and np.array_equal(cache.lb, self.lb)
            and np.array_equal(cache.ub, self.ub)
        ):
            return None
        values, duals, basis, message = optimum
        ok = h.HighsStatus.kOk
        if self.basic is None:  # one read per run: a kept solve pivots nothing
            status, self.basic = highs.getBasicVariables()
            if status != ok:
                return None
        basic = self.basic
        is_col = basic >= 0
        cols = basic[is_col]
        nonbasic = values.copy()
        nonbasic[cols] = 0.0
        rows = cache.entry_rows()
        bound = np.where(cache.sense == _GE, cache.row_lower, cache.row_upper)
        bound[-1 - basic[~is_col]] = 0.0
        # Solved as HiGHS solves it, negated: x_B = -B^-1 (A_N x_N - r_N),
        # so a basic zero comes out as HiGHS's -0.0.
        status, solved = highs.getBasisSolve(
            np.bincount(rows, weights=cache.data * nonbasic[cache.indices], minlength=cache.nrows)
            - bound
        )
        if status != ok:
            return None
        x = values.copy()
        x[cols] = -solved[is_col]
        status, tol = highs.getOptionValue("primal_feasibility_tolerance")
        if status != ok or not (np.all(x >= cache.lb - tol) and np.all(x <= cache.ub + tol)):
            return None
        activity = np.bincount(rows, weights=cache.data * x[cache.indices], minlength=cache.nrows)
        if not (
            np.all(activity >= cache.row_lower - tol) and np.all(activity <= cache.row_upper + tol)
        ):
            return None
        self.optimum = (x, duals, basis, message)
        return LPSolution(
            status=SolveStatus.OPTIMAL,
            # Summed in column order, as HiGHS sums its objective.
            objective=float(np.cumsum(cache.c * x)[-1]),
            values=x.copy(),
            backend="scipy",
            message=message,
            duals=duals.copy(),
            basis=basis,
        )

    def set_basis(self, h, basis: Basis) -> bool:
        """Start from a foreign basis; False if rejected.

        A deferred handle over a snapshot of rows of the same senses goes
        to HiGHS as is; any other handle is translated from its statuses
        (the inverse of :meth:`_HighsSnapshot.statuses`).
        """
        if not self.accepted:
            return False
        source = basis.source
        if isinstance(source, _HighsSnapshot) and source.fits(self.cache):
            return self.highs.setBasis(source.highs_basis) != h.HighsStatus.kError
        if not basis.is_wellformed():
            return False
        b = h.HighsBasisStatus
        # HiGHS's status for each of our codes, indexed BASIC..NB_FREE.
        theirs = np.array([b.kBasic, b.kLower, b.kUpper, b.kZero], dtype=object)
        row_basic = basis.statuses[basis.nvars:] == BASIC
        # A nonbasic row sits at its only finite bound: the upper one for
        # <= rows, the lower one for >= rows, either for == rows.
        at_upper = self.cache.sense == _LE
        highs_basis = h.HighsBasis()
        highs_basis.col_status = theirs[basis.statuses[: basis.nvars]].tolist()
        highs_basis.row_status = theirs[
            np.where(row_basic, BASIC, np.where(at_upper, AT_UPPER, AT_LOWER))
        ].tolist()
        highs_basis.alien = False  # have HiGHS check it rather than repair it
        return self.highs.setBasis(highs_basis) != h.HighsStatus.kError

    def solve(self, h) -> LPSolution:
        """Run HiGHS and read the outcome back in model terms."""
        cache, highs = self.cache, self.highs
        self.optimum = self.basic = None
        model_status = h.HighsModelStatus.kModelError
        if self.accepted:
            highs.run()
            model_status = highs.getModelStatus()
            PERF.count("lp.simplex.iterations", highs.getInfo().simplex_iteration_count)
        message = highs.modelStatusToString(model_status)
        # A model HiGHS rejects (kModelError) is an error, not infeasible.
        status = {
            h.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
            h.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
            h.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
        }.get(model_status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return LPSolution(
                status=status, values=np.zeros(cache.nvars), backend="scipy", message=message
            )

        solution = highs.getSolution()
        values = np.array(solution.col_value, dtype=float)
        if _violates(cache, values):
            return LPSolution(
                status=SolveStatus.ERROR, values=values, backend="scipy",
                message="HiGHS optimum violates the constraints beyond tolerance",
            )

        snapshot = highs.getBasis()
        # HiGHS's row duals in model order are shadow prices already:
        # >= 0 on >= rows, <= 0 on <= rows.
        duals = np.array(solution.row_dual, dtype=float)
        basis = (
            Basis.deferred(_HighsSnapshot(snapshot, cache), cache.nvars, cache.nrows)
            if snapshot.valid else None
        )
        # Private copies: callers may mutate the arrays they receive.
        self.optimum = (values.copy(), duals.copy(), basis, message)
        return LPSolution(
            status=SolveStatus.OPTIMAL,
            objective=float(highs.getInfo().objective_function_value),
            values=values,
            backend="scipy",
            message=message,
            duals=duals,
            basis=basis,
        )


class _HighsSnapshot:
    """HiGHS's basis after one solve, rows in model order.

    Keeps the sense codes of the assembled rows (not the arrays object),
    which a structural edit replaces but never mutates, so the snapshot
    stays convertible after the model moves on.
    """

    __slots__ = ("highs_basis", "sense")

    def __init__(self, highs_basis, cache):
        self.highs_basis, self.sense = highs_basis, cache.sense

    def fits(self, cache) -> bool:
        """Do ``cache``'s rows have the same senses, so HiGHS's row statuses mean the same?"""
        return self.sense is cache.sense or np.array_equal(self.sense, cache.sense)

    def statuses(self) -> np.ndarray:
        """The basis in :mod:`repro.lp.basis` terms.

        Columns map status for status.  Row statuses describe the row
        activity ``A x``; the basis format's slack is ``s = b - A x``, so
        a nonbasic row puts its slack at zero — the slack's upper bound for
        ``>=`` rows, its lower bound for ``<=`` and ``==`` rows.
        """
        codes, basis = _status_codes(), self.highs_basis
        cols = codes[np.fromiter(map(int, basis.col_status), dtype=np.intp)]
        row_basic = codes[np.fromiter(map(int, basis.row_status), dtype=np.intp)] == BASIC
        rows = np.where(row_basic, BASIC, np.where(self.sense == _GE, AT_UPPER, AT_LOWER))
        return np.concatenate([cols, rows.astype(np.int8)])


@functools.lru_cache(maxsize=None)
def _status_codes() -> np.ndarray:
    """Our status code for each HiGHS ``HighsBasisStatus`` value (-1: none)."""
    b = highs_core().HighsBasisStatus
    codes = np.full(max(map(int, b.__members__.values())) + 1, -1, dtype=np.int8)
    for theirs, ours in (
        (b.kLower, AT_LOWER), (b.kUpper, AT_UPPER), (b.kBasic, BASIC), (b.kZero, NB_FREE)
    ):
        codes[int(theirs)] = ours
    return codes


def solve_with_scipy(model, warm_start=None, **options) -> LPSolution:
    """Solve a :class:`repro.lp.model.LinearProgram` with HiGHS.

    Parameters
    ----------
    model:
        The LP to solve (minimization).
    warm_start:
        A :class:`~repro.lp.basis.Basis` (or an
        :class:`~repro.lp.solution.LPSolution` carrying one) from another
        LP of the same shape.  Used only when the model has no retained
        HiGHS instance to hot-start from; a rejected basis solves cold.
    options:
        HiGHS options set on top of ``linprog``'s defaults, by their HiGHS
        names (e.g. ``presolve="off"``).
    """
    # Loaded on the first solve, not with the module: a process that solves
    # no LP (a cache-served rerun, a trace replay) never pays for it.
    h = highs_core()

    from repro.solvers.registry import warm_starts_enabled

    cache = model.assembled()
    run, model._highs = model._highs, None
    if cache.nvars == 0:
        if _admits_zero(cache):
            return LPSolution(
                status=SolveStatus.OPTIMAL, objective=0.0, values=np.zeros(0), backend="scipy"
            )
        return LPSolution(
            status=SolveStatus.INFEASIBLE, values=np.zeros(0), backend="scipy",
            message=_EXCLUDES_ZERO,
        )
    warm = warm_starts_enabled()
    if run is not None and warm and run.cache is cache and run.options == options:
        kept = run.keep(h)
        if kept is not None:
            PERF.count("lp.simplex.basis_kept")
            PERF.count("lp.simplex.warm_starts")
            model._highs = run
            return kept
        run.push()
    else:
        run = None
        basis = getattr(warm_start, "basis", warm_start)
        if warm and isinstance(basis, Basis) and basis.matches(cache.nvars, cache.nrows):
            run = _HighsRun(h, cache, options)
            if not run.set_basis(h, basis):
                PERF.count("lp.simplex.warm_degraded")
                run = None
    if run is not None:
        PERF.count("lp.simplex.warm_starts")
        solution = run.solve(h)
        if solution.is_optimal:
            model._highs = run
            return solution
        # A warm start is a hint, never a correctness dependency: a
        # non-optimal warm outcome is re-established by a cold solve.
        PERF.count("lp.simplex.warm_degraded")
    run = _HighsRun(h, cache, options)
    solution = run.solve(h)
    if solution.is_optimal and warm:
        model._highs = run
    return solution


def solve_mip(model, integer, node_limit=None, time_limit_s=None) -> MIPSolution:
    """Minimize ``model`` with the columns indexed by ``integer`` integral.

    One HiGHS MIP solve, proved to ``mip_rel_gap = 0``, on an instance of
    its own: the model's retained LP instance (``model._highs``) is neither
    read nor replaced, so a later hot-started LP solve is unaffected.
    ``node_limit`` is HiGHS's ``mip_max_nodes`` and ``time_limit_s`` its
    ``time_limit``; a limit reached returns the incumbent found so far
    (None if none) and HiGHS's proven dual bound.  An incumbent outside the
    bounds or rows beyond the LP path's tolerance, or not integral within
    it, is an ERROR.
    """
    h = highs_core()
    cache = model.assembled()
    if cache.nvars == 0:
        if _admits_zero(cache):
            return MIPSolution(
                status=SolveStatus.OPTIMAL, objective=0.0, values=np.zeros(0), dual_bound=0.0
            )
        return MIPSolution(status=SolveStatus.INFEASIBLE, message=_EXCLUDES_ZERO)
    flags = np.zeros(cache.nvars, dtype=bool)
    flags[np.asarray(integer, dtype=np.intp)] = True
    options = {"mip_rel_gap": 0.0}
    if node_limit is not None:
        options["mip_max_nodes"] = int(node_limit)
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    highs, accepted = _load(h, cache, options, flags)
    model_status = h.HighsModelStatus.kModelError
    if accepted:
        highs.run()
        model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    status = {
        h.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
        h.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
        h.HighsModelStatus.kSolutionLimit: SolveStatus.NODE_LIMIT,
        h.HighsModelStatus.kTimeLimit: SolveStatus.TIME_LIMIT,
    }.get(model_status, SolveStatus.ERROR)
    if status in (SolveStatus.ERROR, SolveStatus.INFEASIBLE):
        return MIPSolution(status=status, message=message)
    info = highs.getInfo()
    nodes = max(int(info.mip_node_count), 0)
    objective = float(info.objective_function_value)
    if not np.isfinite(objective):
        # A limit reached before any incumbent: only the bound is known.
        return MIPSolution(
            status=status, dual_bound=float(info.mip_dual_bound), nodes=nodes, message=message
        )
    values = np.array(highs.getSolution().col_value, dtype=float)
    fractional = np.abs(values[flags] - np.round(values[flags])) > _CHECK_TOL
    if _violates(cache, values) or fractional.any():
        return MIPSolution(
            status=SolveStatus.ERROR, values=values, nodes=nodes,
            message="HiGHS incumbent violates the constraints or integrality beyond tolerance",
        )
    optimal = status is SolveStatus.OPTIMAL
    return MIPSolution(
        status=status,
        objective=objective,
        values=values,
        dual_bound=objective if optimal else float(info.mip_dual_bound),
        nodes=nodes,
        message=message,
    )
