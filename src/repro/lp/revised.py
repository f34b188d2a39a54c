"""Revised simplex over sparse columns with basis reuse (ISSUE 9).

This is the engine behind the ``"simplex"`` backend, warm-started from a
caller's basis or cold.  It replaces the dense
two-phase tableau: instead of carrying an m×(n+m) tableau through every
pivot, it keeps the constraint matrix in sparse column form and represents
the basis inverse as a **product-form factorization** — a periodically
rebuilt LU factor plus an eta file of rank-one pivot updates.

Standard form
-------------

The model ``min c^T x,  A x {<=,>=,==} b,  l <= x <= u`` becomes::

    min c^T x   s.t.   A x + s = b

with one slack per row, bounded by the row sense (``<=``: ``s in [0, inf)``,
``>=``: ``s in (-inf, 0]``, ``==``: ``s == 0``).  A basis is m columns of
``[A | I]``; the nonbasic columns sit at a bound (or at zero for free
variables).  That status vector is the opaque :class:`~repro.lp.basis.Basis`
handle callers thread between solves.

Warm starts
-----------

``solve_revised(model, warm_basis=...)`` re-certifies the given basis
against the *current* (possibly patched) arrays:

* RHS/bound patches (``set_rhs``/``fix_var``/``set_bound``) keep the old
  basis **dual feasible** — the dual simplex restores primal feasibility,
  typically in a handful of pivots.
* Objective patches keep it **primal feasible** — the primal simplex
  finishes the job.
* Neither (or a singular/ill-shaped basis) — the caller falls back to a
  cold solve; nothing here guesses.

The engine is cached on the model and survives across patched re-solves
(patches never change matrix *values*), so the sweep fast path pays zero
refactorizations when consecutive solves share a basis.

Kernels
-------

Factorization uses ``scipy.sparse.linalg.splu`` when scipy is importable
and a dense-inverse numpy kernel otherwise, preserving the historical
no-scipy degrade path (toy sizes only).  All matrix-vector products run on
numpy arrays either way, so the two kernels share every pivot rule.

Anti-cycling: Dantzig pricing normally; after :data:`BLAND_AFTER`
consecutive degenerate pivots the loops switch to Bland's smallest-index
rule (entering and leaving) until progress resumes.

Perf counters: ``lp.simplex.iterations`` (pivots), ``lp.simplex.warm_starts``
(solves that ran from an installed caller basis), and
``lp.simplex.refactorizations`` (LU rebuilds, including the initial one).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.lp.basis import AT_LOWER, AT_UPPER, BASIC, NB_FREE, Basis
from repro.lp.solution import LPSolution, SolveStatus
from repro.perf import PERF

#: Primal feasibility tolerance (absolute, on variable bounds).
PRIMAL_TOL = 1e-7
#: Dual feasibility tolerance (on reduced costs).
DUAL_TOL = 1e-7
#: Pivot elements smaller than this are rejected (refactor, then ban).
PIVOT_TOL = 1e-9
#: Ratio-test tie window.
TIE_TOL = 1e-9
#: Rebuild the LU factor after this many eta updates.
REFACTOR_EVERY = 64
#: Switch to Bland's rule after this many consecutive degenerate pivots.
BLAND_AFTER = 30

_SENSE_LE = 0
_SENSE_GE = 1
_SENSE_EQ = 2


class SimplexError(RuntimeError):
    """Internal simplex failure: iteration cap, numerically dead pivots."""


class _SingularBasis(Exception):
    """The requested basis matrix is singular (warm path degrades to cold)."""


def _pure_forced() -> bool:
    return os.environ.get("REPRO_LP_PURE", "") not in ("", "0")


def _scipy_modules():
    """(sparse, splu) or None — scipy is optional for this engine."""
    if _pure_forced():
        return None
    try:
        from scipy import sparse
        from scipy.sparse.linalg import splu
    except Exception:
        return None
    return sparse, splu


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lens[i])`` for all i."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - offs)


class _Budget:
    """Shared iteration budget across the phases of one solve."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SimplexError(
                f"simplex iteration limit exceeded ({self.limit})"
            )


class RevisedSimplexEngine:
    """Revised simplex bound to one model's cached arrays.

    The engine snapshots the *structure* (sparsity pattern, senses) at
    construction and reads the *numbers* (``c``/``b_all``/``lb``/``ub``)
    from the model's array cache at every solve, so in-place patches are
    picked up without any rebuild.  A structural edit replaces the array
    cache, which orphans the engine (``valid_for`` fails) — the model then
    constructs a fresh one.
    """

    def __init__(self, model) -> None:
        model.to_arrays()  # make sure the array cache exists
        cache = model._arrays
        self._cache = cache
        n = cache.nvars
        lengths, sense_codes, _rhs, flat_idx, flat_cf = model.constraints.columnar()
        m = len(lengths)
        self._n = n
        self._m = m
        self._flat_idx = flat_idx
        self._flat_cf = flat_cf
        self._row_of_entry = np.repeat(np.arange(m, dtype=np.int64), lengths)

        # CSC triple of A (model row order, unflipped) for column extraction.
        order = np.argsort(flat_idx, kind="stable")
        self._csc_rows = self._row_of_entry[order]
        self._csc_vals = flat_cf[order]
        counts = np.bincount(flat_idx, minlength=n) if len(flat_idx) else np.zeros(n, dtype=np.int64)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        self._csc_ptr = ptr

        # Slack bounds by sense.
        inf = np.inf
        self._slack_lb = np.where(sense_codes == _SENSE_GE, -inf, 0.0)
        self._slack_ub = np.where(sense_codes == _SENSE_LE, inf, 0.0)

        mods = _scipy_modules()
        if mods is not None:
            sparse, splu = mods
            indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            self._A_csr = sparse.csr_matrix((flat_cf, flat_idx, indptr), shape=(m, n))
            self._A_csc = self._A_csr.tocsc()
            self._sparse = sparse
            self._splu = splu
        else:
            self._A_csr = None
            self._sparse = None
            self._splu = None

        # Basis state (populated by _install_*).
        self._statuses: Optional[np.ndarray] = None
        self._basis_cols: Optional[np.ndarray] = None
        self._basis_pos = np.full(n + m, -1, dtype=np.int64)
        self._xB: Optional[np.ndarray] = None
        self._factor = None  # splu object or dense inverse
        #: Eta file: (pivot row, nonzero rows of w, their values, w[p]).
        #: Eta columns are sparse (tens of nonzeros in thousands of rows),
        #: so each update touches only its nonzeros.
        self._etas: List[Tuple[int, np.ndarray, np.ndarray, float]] = []
        self._banned: set = set()

    # -- structure helpers -------------------------------------------------

    def valid_for(self, model) -> bool:
        """Still bound to the model's current array cache?"""
        return model._arrays is self._cache

    def _Atv(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` (length n)."""
        if self._A_csr is not None:
            return self._A_csr.T.dot(y)
        if not len(self._flat_idx):
            return np.zeros(self._n)
        return np.bincount(
            self._flat_idx,
            weights=self._flat_cf * y[self._row_of_entry],
            minlength=self._n,
        )

    def _Av(self, x: np.ndarray) -> np.ndarray:
        """``A x`` (length m) for a structural vector x."""
        if self._A_csr is not None:
            return self._A_csr.dot(x)
        if not len(self._flat_idx):
            return np.zeros(self._m)
        return np.bincount(
            self._row_of_entry,
            weights=self._flat_cf * x[self._flat_idx],
            minlength=self._m,
        )

    def _col_dense(self, j: int) -> np.ndarray:
        """Column j of ``[A | I]`` as a dense m-vector."""
        v = np.zeros(self._m)
        if j < self._n:
            s, e = self._csc_ptr[j], self._csc_ptr[j + 1]
            np.add.at(v, self._csc_rows[s:e], self._csc_vals[s:e])
        else:
            v[j - self._n] = 1.0
        return v

    # -- factorization -----------------------------------------------------

    def _factorize(self) -> None:
        """Rebuild the LU factor of the current basis; clears the eta file."""
        m, n = self._m, self._n
        cols = self._basis_cols
        PERF.count("lp.simplex.refactorizations")
        self._etas = []
        if m == 0:
            self._factor = ()
            return
        is_slack = cols >= n
        t_cols = cols[~is_slack]
        t_pos = np.flatnonzero(~is_slack)
        starts = self._csc_ptr[t_cols]
        lens = self._csc_ptr[t_cols + 1] - starts
        g = _gather_ranges(starts, lens)
        rows = np.concatenate([self._csc_rows[g], cols[is_slack] - n])
        posn = np.concatenate([np.repeat(t_pos, lens), np.flatnonzero(is_slack)])
        vals = np.concatenate([self._csc_vals[g], np.ones(int(is_slack.sum()))])
        if self._sparse is not None:
            B = self._sparse.csc_matrix((vals, (rows, posn)), shape=(m, m))
            try:
                self._factor = self._splu(B)
            except Exception as exc:  # RuntimeError: exactly singular
                self._factor = None
                raise _SingularBasis(str(exc)) from None
        else:
            Bd = np.zeros((m, m))
            np.add.at(Bd, (rows, posn), vals)
            try:
                self._factor = np.linalg.inv(Bd)
            except np.linalg.LinAlgError as exc:
                self._factor = None
                raise _SingularBasis(str(exc)) from None

    def _factor_ftran(self, v: np.ndarray) -> np.ndarray:
        if self._m == 0:
            return v
        if self._sparse is not None:
            return self._factor.solve(v)
        return self._factor.dot(v)

    def _factor_btran(self, v: np.ndarray) -> np.ndarray:
        if self._m == 0:
            return v
        if self._sparse is not None:
            return self._factor.solve(v, trans="T")
        return self._factor.T.dot(v)

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` through the factor plus the eta file (chronological)."""
        x = self._factor_ftran(v)
        for p, idx, vals, wp in self._etas:
            xp = x[p] / wp
            if xp != 0.0:
                x[idx] -= xp * vals
            x[p] = xp
        return x

    def _btran(self, v: np.ndarray) -> np.ndarray:
        """``B^-T v`` — eta transposes in reverse order, then the factor."""
        y = v
        for p, idx, vals, wp in reversed(self._etas):
            y[p] = (y[p] - (vals @ y[idx] - y[p] * wp)) / wp
        return self._factor_btran(y)

    # -- basis installation ------------------------------------------------

    def _sanitize_statuses(self, statuses: np.ndarray, lb, ub) -> np.ndarray:
        """Repair nonbasic statuses that point at bounds that no longer exist."""
        st = statuses.astype(np.int8, copy=True)
        nonbasic = st != BASIC
        lo_inf = np.isneginf(lb)
        up_inf = np.isposinf(ub)
        bad_lo = nonbasic & (st == AT_LOWER) & lo_inf
        st[bad_lo & ~up_inf] = AT_UPPER
        st[bad_lo & up_inf] = NB_FREE
        bad_up = nonbasic & (st == AT_UPPER) & up_inf
        st[bad_up & ~lo_inf] = AT_LOWER
        st[bad_up & lo_inf] = NB_FREE
        bad_free = nonbasic & (st == NB_FREE) & ~(lo_inf & up_inf)
        st[bad_free & ~lo_inf] = AT_LOWER
        st[bad_free & lo_inf & ~up_inf] = AT_UPPER
        return st

    def _install_basis(self, basis: Basis, lb, ub) -> bool:
        """Adopt a caller basis; False when it cannot seed this model."""
        n, m = self._n, self._m
        if not basis.matches(n, m) or not basis.is_wellformed():
            return False
        st = self._sanitize_statuses(basis.statuses, lb, ub)
        if (
            self._factor is not None
            and self._statuses is not None
            and np.array_equal(st, self._statuses)
        ):
            return True  # same basis the engine already holds — keep the factor
        basis_cols = np.flatnonzero(st == BASIC).astype(np.int64)
        old = (self._statuses, self._basis_cols, self._factor, self._etas)
        self._statuses = st
        self._basis_cols = basis_cols
        self._basis_pos.fill(-1)
        self._basis_pos[basis_cols] = np.arange(m)
        try:
            self._factorize()
        except _SingularBasis:
            self._statuses, self._basis_cols, self._factor, self._etas = old
            if self._basis_cols is not None:
                self._basis_pos.fill(-1)
                self._basis_pos[self._basis_cols] = np.arange(m)
            return False
        return True

    def _install_cold(self, lb, ub) -> None:
        """All-slack basis; structural variables at their nearest bound."""
        n, m = self._n, self._m
        st = np.empty(n + m, dtype=np.int8)
        s_lb, s_ub = lb[:n], ub[:n]
        st[:n] = np.where(
            np.isfinite(s_lb), AT_LOWER, np.where(np.isfinite(s_ub), AT_UPPER, NB_FREE)
        )
        st[n:] = BASIC
        self._statuses = st
        self._basis_cols = (n + np.arange(m)).astype(np.int64)
        self._basis_pos.fill(-1)
        self._basis_pos[self._basis_cols] = np.arange(m)
        self._factorize()

    # -- state recomputation ----------------------------------------------

    def _nonbasic_values(self, lb, ub) -> np.ndarray:
        """Full-length value vector with basics at zero."""
        st = self._statuses
        x = np.zeros(self._n + self._m)
        at_lo = st == AT_LOWER
        x[at_lo] = lb[at_lo]
        at_up = st == AT_UPPER
        x[at_up] = ub[at_up]
        return x

    def _recompute_xB(self, b, lb, ub) -> None:
        xN = self._nonbasic_values(lb, ub)
        r = b - self._Av(xN[: self._n]) - xN[self._n:]
        self._xB = self._ftran(r)

    def _fresh_duals(self, c_all) -> Tuple[np.ndarray, np.ndarray]:
        """Recompute ``y`` (row duals) and reduced costs ``d`` from scratch."""
        cB = c_all[self._basis_cols].copy()
        y = self._btran(cB)
        d = c_all - np.concatenate([self._Atv(y), y])
        d[self._basis_cols] = 0.0
        return y, d

    def _entering_mask(self, d, lb, ub, tol_scale: float = 1.0) -> np.ndarray:
        """Nonbasic columns whose reduced cost can improve the objective."""
        st = self._statuses
        tol = DUAL_TOL * tol_scale
        movable = (ub - lb) > 0
        return (
            ((st == AT_LOWER) & (d < -tol) & movable)
            | ((st == AT_UPPER) & (d > tol) & movable)
            | ((st == NB_FREE) & (np.abs(d) > tol))
        )

    def _primal_feasible(self, lb, ub, tol_scale: float = 1.0) -> bool:
        blb = lb[self._basis_cols]
        bub = ub[self._basis_cols]
        tol = PRIMAL_TOL * tol_scale
        return bool(
            (self._xB >= blb - tol).all() and (self._xB <= bub + tol).all()
        )

    # -- pivot mechanics ---------------------------------------------------

    def _apply_pivot(self, p: int, q: int, new_value: float, leave_to: int,
                     w: np.ndarray, b, lb, ub) -> None:
        """Swap column q into row-position p; leaving column r goes to a bound."""
        r = int(self._basis_cols[p])
        self._statuses[r] = leave_to
        self._statuses[q] = BASIC
        self._basis_pos[r] = -1
        self._basis_pos[q] = p
        self._basis_cols[p] = q
        self._xB[p] = new_value
        idx = np.flatnonzero(w)
        self._etas.append((p, idx, w[idx], float(w[p])))
        self._banned.clear()
        if len(self._etas) >= REFACTOR_EVERY:
            self._factorize()
            self._recompute_xB(b, lb, ub)

    def _choose_pivot_row(self, theta_arr, theta, g, bland: bool) -> int:
        ties = np.flatnonzero(theta_arr <= theta + TIE_TOL)
        if bland:
            return int(ties[np.argmin(self._basis_cols[ties])])
        return int(ties[np.argmax(np.abs(g[ties]))])

    # -- primal simplex (serves as phase 1 and phase 2) --------------------

    def _primal_loop(self, c_all, b, lb, ub, budget: _Budget, phase1: bool) -> str:
        """Bounded-variable primal simplex.

        ``phase1=True`` minimizes the total bound infeasibility of the
        basic variables (costs recomputed every iteration as violations
        come and go); the ratio test stops basics at the *first* bound in
        their path, which covers both the feasible-side block and an
        infeasible basic reaching its violated bound.  The same ratio code
        runs phase 2, where no violations exist and it reduces to the
        classic nearest-bound test.
        """
        n, m = self._n, self._m
        degen_streak = 0
        bland = False
        while True:
            basis_cols = self._basis_cols
            blb = lb[basis_cols]
            bub = ub[basis_cols]
            xB = self._xB
            if phase1:
                above = xB > bub + PRIMAL_TOL
                below = xB < blb - PRIMAL_TOL
                if not above.any() and not below.any():
                    return "feasible"
                cB = above.astype(np.float64) - below.astype(np.float64)
                y = self._btran(cB)
                d = -np.concatenate([self._Atv(y), y])
                d[basis_cols] = 0.0
            else:
                _y, d = self._fresh_duals(c_all)
            elig = self._entering_mask(d, lb, ub)
            if self._banned:
                elig[list(self._banned)] = False
            cand = np.flatnonzero(elig)
            if not len(cand):
                if self._banned:
                    # Only numerically dead columns remain.
                    raise SimplexError("no usable entering column (numerical)")
                return "infeasible" if phase1 else "optimal"
            if bland:
                q = int(cand[0])
            else:
                q = int(cand[np.argmax(np.abs(d[cand]))])
            st_q = self._statuses[q]
            t = 1.0 if (st_q == AT_LOWER or (st_q == NB_FREE and d[q] < 0)) else -1.0
            w = self._ftran(self._col_dense(q))
            g = t * w
            budget.spend()

            # Blocking bound per basic: decreasing basics stop at their
            # violated upper bound (phase 1) else their lower bound;
            # increasing basics symmetric.  Infinite targets yield theta=inf.
            with np.errstate(divide="ignore", invalid="ignore"):
                theta_arr = np.full(m, np.inf)
                to_status = np.full(m, AT_LOWER, dtype=np.int8)
                pos = g > PIVOT_TOL
                if pos.any():
                    hit_up = pos & (xB > bub + PRIMAL_TOL)
                    target = np.where(hit_up, bub, blb)
                    theta_arr[pos] = (xB[pos] - target[pos]) / g[pos]
                    to_status[hit_up] = AT_UPPER
                neg = g < -PIVOT_TOL
                if neg.any():
                    hit_lo = neg & (xB < blb - PRIMAL_TOL)
                    target = np.where(hit_lo, blb, bub)
                    theta_arr[neg] = (xB[neg] - target[neg]) / g[neg]
                    to_status[neg & ~hit_lo] = AT_UPPER
            np.maximum(theta_arr, 0.0, out=theta_arr)
            theta_arr[np.isnan(theta_arr)] = np.inf
            theta_own = ub[q] - lb[q]  # inf for free/one-sided columns
            theta_block = float(theta_arr.min()) if m else np.inf

            if theta_own <= theta_block:
                if not np.isfinite(theta_own):
                    if phase1:
                        raise SimplexError("phase-1 ray (numerical)")
                    return "unbounded"
                # Bound flip: no basis change.
                self._xB = xB - theta_own * g
                self._statuses[q] = AT_UPPER if st_q == AT_LOWER else AT_LOWER
                degen_streak, bland = self._track_degeneracy(
                    theta_own, degen_streak, bland
                )
                continue
            if not np.isfinite(theta_block):
                if phase1:
                    raise SimplexError("phase-1 ray (numerical)")
                return "unbounded"
            p = self._choose_pivot_row(theta_arr, theta_block, g, bland)
            if abs(w[p]) < PIVOT_TOL:
                self._handle_dead_pivot(q, b, lb, ub)
                continue
            theta = float(theta_arr[p])
            nb_val = lb[q] if st_q == AT_LOWER else (ub[q] if st_q == AT_UPPER else 0.0)
            self._xB = xB - theta * g
            self._apply_pivot(p, q, nb_val + t * theta, int(to_status[p]), w, b, lb, ub)
            degen_streak, bland = self._track_degeneracy(theta, degen_streak, bland)

    def _track_degeneracy(self, step: float, streak: int, bland: bool):
        if step <= TIE_TOL:
            streak += 1
            if streak >= BLAND_AFTER:
                bland = True
        else:
            streak = 0
            bland = False
        return streak, bland

    def _handle_dead_pivot(self, q: int, b, lb, ub) -> None:
        """Pivot element vanished: refactorize once, then ban the column."""
        if self._etas:
            self._factorize()
            self._recompute_xB(b, lb, ub)
        else:
            self._banned.add(int(q))

    # -- dual simplex (the warm re-certification path) ---------------------

    def _dual_loop(self, c_all, b, lb, ub, budget: _Budget) -> str:
        """Bounded-variable dual simplex from a dual-feasible basis.

        Reduced costs are updated incrementally (the pivot row is computed
        anyway for the ratio test) and recomputed from scratch after each
        refactorization, so a k-pivot warm re-solve costs k BTRAN/FTRAN
        pairs — not k full d recomputations.
        """
        n, m = self._n, self._m
        _y, d = self._fresh_duals(c_all)
        degen_streak = 0
        bland = False
        while True:
            basis_cols = self._basis_cols
            blb = lb[basis_cols]
            bub = ub[basis_cols]
            xB = self._xB
            below = xB < blb - PRIMAL_TOL
            above = xB > bub + PRIMAL_TOL
            viol = below | above
            if not viol.any():
                return "optimal"
            budget.spend()
            viol_idx = np.flatnonzero(viol)
            if bland:
                p = int(viol_idx[np.argmin(basis_cols[viol_idx])])
            else:
                amounts = np.where(
                    below[viol_idx],
                    blb[viol_idx] - xB[viol_idx],
                    xB[viol_idx] - bub[viol_idx],
                )
                p = int(viol_idx[np.argmax(amounts)])
            is_above = bool(above[p])

            e_p = np.zeros(m)
            e_p[p] = 1.0
            rho = self._btran(e_p)
            alpha = np.concatenate([self._Atv(rho), rho])
            alpha[basis_cols] = 0.0

            st = self._statuses
            movable = (ub - lb) > 0
            if is_above:
                elig = (
                    ((st == AT_LOWER) & (alpha > PIVOT_TOL) & movable)
                    | ((st == AT_UPPER) & (alpha < -PIVOT_TOL) & movable)
                    | ((st == NB_FREE) & (np.abs(alpha) > PIVOT_TOL))
                )
            else:
                elig = (
                    ((st == AT_LOWER) & (alpha < -PIVOT_TOL) & movable)
                    | ((st == AT_UPPER) & (alpha > PIVOT_TOL) & movable)
                    | ((st == NB_FREE) & (np.abs(alpha) > PIVOT_TOL))
                )
            if self._banned:
                elig[list(self._banned)] = False
            cand = np.flatnonzero(elig)
            if not len(cand):
                if self._banned:
                    raise SimplexError("no usable dual pivot (numerical)")
                return "infeasible"
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best + TIE_TOL]
            if bland:
                q = int(ties.min())
            else:
                q = int(ties[np.argmax(np.abs(alpha[ties]))])

            w = self._ftran(self._col_dense(q))
            if abs(w[p]) < PIVOT_TOL:
                self._handle_dead_pivot(q, b, lb, ub)
                _y, d = self._fresh_duals(c_all)
                continue
            bound_val = bub[p] if is_above else blb[p]
            delta = float(xB[p] - bound_val)
            step = delta / float(w[p])
            st_q = st[q]
            nb_val = lb[q] if st_q == AT_LOWER else (ub[q] if st_q == AT_UPPER else 0.0)
            r = int(basis_cols[p])
            beta = float(d[q] / w[p])
            self._xB = xB - step * w
            self._apply_pivot(
                p, q, nb_val + step, AT_UPPER if is_above else AT_LOWER, w, b, lb, ub
            )
            if self._etas:
                # Incremental dual update; alpha already in hand.
                d = d - beta * alpha
                d[r] = -beta
                d[self._basis_cols] = 0.0
            else:
                # A refactorization just ran inside _apply_pivot.
                _y, d = self._fresh_duals(c_all)
            degen_streak, bland = self._track_degeneracy(
                abs(beta), degen_streak, bland
            )

    # -- driver ------------------------------------------------------------

    def solve(
        self,
        warm_basis: Optional[Basis] = None,
        max_iterations: int = 100_000,
    ) -> LPSolution:
        cache = self._cache
        n, m = self._n, self._m
        c_all = np.concatenate([cache.c, np.zeros(m)])
        lb = np.concatenate([cache.lb, self._slack_lb])
        ub = np.concatenate([cache.ub, self._slack_ub])
        b = cache.b_all
        budget = _Budget(max_iterations)
        self._banned.clear()

        warm = warm_basis is not None and self._install_basis(warm_basis, lb, ub)
        if not warm:
            if warm_basis is not None:
                raise _SingularBasis("warm basis rejected")
            self._install_cold(lb, ub)
        self._recompute_xB(b, lb, ub)

        outcome: Optional[str] = None
        if warm:
            PERF.count("lp.simplex.warm_starts")
            _y, d = self._fresh_duals(c_all)
            if not self._entering_mask(d, lb, ub).any():
                outcome = self._dual_loop(c_all, b, lb, ub, budget)
        if outcome is None:
            if not self._primal_feasible(lb, ub):
                r = self._primal_loop(c_all, b, lb, ub, budget, phase1=True)
                if r == "infeasible":
                    outcome = "infeasible"
            if outcome is None:
                outcome = self._primal_loop(c_all, b, lb, ub, budget, phase1=False)

        # Terminal verification: recompute the basic values and reduced
        # costs through the (cheap) factored representation; numerical
        # drift triggers one refactorize-and-polish round.
        if outcome == "optimal":
            for _attempt in range(2):
                self._recompute_xB(b, lb, ub)
                primal_ok = self._primal_feasible(lb, ub, tol_scale=10.0)
                _y, d = self._fresh_duals(c_all)
                dual_ok = not self._entering_mask(d, lb, ub, tol_scale=10.0).any()
                if primal_ok and dual_ok:
                    break
                self._factorize()
                self._recompute_xB(b, lb, ub)
                if not self._primal_feasible(lb, ub):
                    r = self._primal_loop(c_all, b, lb, ub, budget, phase1=True)
                    if r == "infeasible":
                        outcome = "infeasible"
                        break
                outcome = self._primal_loop(c_all, b, lb, ub, budget, phase1=False)
                if outcome != "optimal":
                    break

        PERF.count("lp.simplex.iterations", budget.used)
        if outcome == "infeasible":
            return LPSolution(status=SolveStatus.INFEASIBLE, backend="simplex")
        if outcome == "unbounded":
            return LPSolution(status=SolveStatus.UNBOUNDED, backend="simplex")

        x = self._nonbasic_values(lb, ub)
        x[self._basis_cols] = np.clip(
            self._xB, lb[self._basis_cols], ub[self._basis_cols]
        )
        values = x[:n].copy()
        objective = float(cache.c @ values)
        y, _d = self._fresh_duals(c_all)
        return LPSolution(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            values=values,
            backend="simplex",
            duals=y.copy(),
            basis=Basis(self._statuses.copy(), n, m),
        )


# -- module-level entry points ---------------------------------------------


def get_engine(model) -> RevisedSimplexEngine:
    """The model's cached engine, rebuilt if structural edits orphaned it."""
    engine = getattr(model, "_engine", None)
    if engine is None or not engine.valid_for(model):
        engine = RevisedSimplexEngine(model)
        model._engine = engine
    return engine


def solve_revised(
    model,
    warm_basis: Optional[Basis] = None,
    max_iterations: int = 100_000,
) -> LPSolution:
    """Solve ``model`` with the revised simplex (cold, or from a basis).

    Raises :class:`SimplexError` on the iteration cap and
    :class:`_SingularBasis` (internal) when a warm basis cannot seed the
    model — :func:`repro.lp.simplex.solve_with_simplex` catches both and
    degrades to a cold solve.
    """
    return get_engine(model).solve(
        warm_basis=warm_basis, max_iterations=max_iterations
    )
