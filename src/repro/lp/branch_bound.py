"""Exact 0/1 integer solving by LP-based branch and bound.

The paper (§5): "an IP problem can be solved exactly with an IP solver,
resulting in a tight lower bound.  However, such an approach is feasible
only at a very small scale."  This module provides that exact mode for
small-to-medium MC-PERF instances: best-first branch and bound over a
declared set of binary variables, with the scipy/HiGHS LP relaxation as the
node bound.

Designed for correctness and observability rather than raw speed — node
and time limits make partial runs useful (they still return a valid lower
bound and, usually, an incumbent).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.solution import LPSolution, SolveStatus

_INT_TOL = 1e-6


@dataclass
class IPResult:
    """Outcome of a branch-and-bound run.

    Attributes
    ----------
    status:
        ``"optimal"`` — incumbent proven optimal; ``"infeasible"`` — no
        integral solution exists; ``"node-limit"`` / ``"time-limit"`` —
        search truncated (``best_bound`` still lower-bounds the optimum and
        ``incumbent`` upper-bounds it, when present).
    objective:
        Incumbent objective (None without an incumbent).
    values:
        Incumbent variable values.
    best_bound:
        Proven lower bound on the integral optimum.
    nodes:
        LP relaxations solved.
    """

    status: str
    objective: Optional[float] = None
    values: Optional[np.ndarray] = None
    best_bound: float = float("-inf")
    nodes: int = 0

    @property
    def gap(self) -> Optional[float]:
        if self.objective is None or self.best_bound == float("-inf"):
            return None
        if abs(self.objective) < 1e-12:
            return 0.0 if abs(self.objective - self.best_bound) < 1e-9 else None
        return (self.objective - self.best_bound) / abs(self.objective)


def solve_integer(
    model: LinearProgram,
    integer_vars: Sequence[int],
    node_limit: int = 5_000,
    time_limit_s: Optional[float] = None,
    incumbent: Optional[Tuple[float, np.ndarray]] = None,
    tol: float = 1e-9,
) -> IPResult:
    """Minimize the model with the given variables restricted to {0, 1}.

    Parameters
    ----------
    model:
        The LP; bounds of ``integer_vars`` must lie within [0, 1].
    integer_vars:
        Indices required to be binary at the optimum.
    incumbent:
        Optional ``(objective, values)`` warm start (e.g. a rounded
        solution) used to prune from the first node; ``values`` may be
        None when only the objective is known — the result then reports
        that objective without a value vector unless the search improves
        on it.
    """
    integer_vars = [int(j) for j in integer_vars]
    arrays = model.assembled()
    for j in integer_vars:
        if arrays.lb[j] < -tol or arrays.ub[j] > 1 + tol:
            raise ValueError(f"integer variable {model.var_name(j)} must be within [0, 1]")

    deadline = time.perf_counter() + time_limit_s if time_limit_s else None
    best_obj: Optional[float] = None
    best_values: Optional[np.ndarray] = None
    if incumbent is not None:
        best_obj = float(incumbent[0])
        if incumbent[1] is not None:
            best_values = np.asarray(incumbent[1], dtype=float)

    # A node is a set of variable fixings {index: 0 or 1}.
    counter = itertools.count()  # FIFO tie-break for equal bounds
    root_solution = _solve_with_fixings(model, {})
    nodes = 1
    if root_solution.status is SolveStatus.INFEASIBLE:
        return IPResult(status="infeasible", nodes=nodes)
    if root_solution.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(f"root LP failed: {root_solution.message}")

    heap: List[Tuple[float, int, Dict[int, float], LPSolution]] = []
    heapq.heappush(heap, (root_solution.objective, next(counter), {}, root_solution))
    proven_bound = root_solution.objective
    status = "optimal"

    while heap:
        bound, _tie, fixings, solution = heapq.heappop(heap)
        proven_bound = bound
        if best_obj is not None and bound >= best_obj - tol:
            # Everything remaining is no better than the incumbent.
            proven_bound = best_obj
            break
        if nodes >= node_limit:
            status = "node-limit"
            break
        if deadline is not None and time.perf_counter() > deadline:
            status = "time-limit"
            break

        branch_var = _most_fractional(solution.values, integer_vars)
        if branch_var is None:
            # Integral solution: candidate incumbent.
            if best_obj is None or solution.objective < best_obj - tol:
                best_obj = solution.objective
                best_values = np.asarray(solution.values, dtype=float)
            continue

        for value in (0.0, 1.0):
            child_fix = dict(fixings)
            child_fix[branch_var] = value
            child = _solve_with_fixings(model, child_fix, warm=solution)
            nodes += 1
            if child.status is not SolveStatus.OPTIMAL:
                continue  # infeasible branch (or numerically dead)
            if best_obj is not None and child.objective >= best_obj - tol:
                continue  # pruned by bound
            heapq.heappush(
                heap, (child.objective, next(counter), child_fix, child)
            )

    if not heap and status == "optimal":
        proven_bound = best_obj if best_obj is not None else proven_bound

    if best_obj is None:
        if status == "optimal":
            return IPResult(status="infeasible", nodes=nodes, best_bound=proven_bound)
        return IPResult(status=status, nodes=nodes, best_bound=proven_bound)
    return IPResult(
        status=status,
        objective=best_obj,
        values=best_values,
        best_bound=min(proven_bound, best_obj),
        nodes=nodes,
    )


def _solve_with_fixings(
    model: LinearProgram,
    fixings: Dict[int, float],
    warm: Optional[LPSolution] = None,
) -> LPSolution:
    """Solve the LP with temporary variable fixings (bounds restored after).

    Fixings go through the model's patch API so the cached solver arrays
    stay in sync and every node re-solve is assembly-free.  ``warm`` is the
    parent node's relaxation: a child differs from its parent by one
    bound fixing, so the parent basis stays dual feasible and the dual
    simplex usually re-certifies it in a few pivots.
    """
    saved = []
    try:
        arrays = model.assembled()
        for j, value in fixings.items():
            saved.append((j, float(arrays.lb[j]), float(arrays.ub[j])))
            model.fix_var(j, value)
        return model.solve(backend="scipy", warm_start=warm)
    finally:
        for j, lower, upper in saved:
            model.set_bounds(j, lower, upper)


def _most_fractional(values, integer_vars: Sequence[int]) -> Optional[int]:
    """The integer variable farthest from integrality (None if all integral)."""
    best = None
    best_frac = _INT_TOL
    for j in integer_vars:
        x = float(values[j])
        frac = min(x - np.floor(x), np.ceil(x) - x)
        if frac > best_frac:
            best_frac = frac
            best = j
    return best
