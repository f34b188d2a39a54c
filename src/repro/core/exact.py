"""Exact MC-PERF solving (the paper's "tight lower bound" mode).

§5 of the paper: solving the IP exactly gives the tight bound but "is
feasible only at a very small scale"; the method therefore uses LP
relaxation + rounding.  :func:`compute_exact_bound` supplies the exact mode
as one HiGHS MIP solve of the class's own LP with the store columns
integral.  It reports the LP bound and the greedy rounded cost next to the
integral optimum, so the LP-vs-rounded gap splits into the bound's slack
and the rounder's.  Useful for

* measuring the *true* integrality gap of the rounding on instances beyond
  brute-force size, and
* small production problems where the designer wants the exact optimum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.formulation import build_formulation
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties
from repro.core.rounding import round_solution
from repro.lp.scipy_backend import solve_mip
from repro.lp.solution import SolveStatus

logger = logging.getLogger(__name__)


@dataclass
class ExactBoundResult:
    """Exact (or node-limited) IP optimum for one heuristic class.

    Costs include the formulation's objective constant, so they are
    directly comparable to :class:`~repro.core.bounds.LowerBoundResult`.
    """

    feasible: bool
    status: str = ""
    exact_cost: Optional[float] = None  # incumbent (optimal when status == "optimal")
    lower_bound: Optional[float] = None  # proven bound (== exact_cost when optimal)
    lp_cost: Optional[float] = None
    rounded_cost: Optional[float] = None
    nodes: int = 0
    store: Optional[np.ndarray] = None
    reason: str = ""

    @property
    def rounding_gap(self) -> Optional[float]:
        """True integrality gap of the rounding: (rounded - exact) / exact."""
        if (
            self.exact_cost is None
            or self.rounded_cost is None
            or self.status != "optimal"
            or self.exact_cost <= 0
        ):
            return None
        return (self.rounded_cost - self.exact_cost) / self.exact_cost


def compute_exact_bound(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    node_limit: int = 5_000,
    time_limit_s: Optional[float] = None,
) -> ExactBoundResult:
    """Solve the class-restricted MC-PERF instance to integral optimality.

    Only the ``store`` variables are integral: with integral stores, the
    optimal ``create``/``covered``/capacity values are automatically
    integral-consistent, so the search space is exactly the placement
    space.  ``node_limit`` caps HiGHS's branch-and-bound nodes and
    ``time_limit_s`` its run time; either limit leaves the bracket
    ``[lower_bound, exact_cost]``.  A failed MIP solve raises
    ``RuntimeError``, as a failed LP solve does.
    """
    props = properties or HeuristicProperties()
    form = build_formulation(problem, props)
    if form.structurally_infeasible:
        return ExactBoundResult(
            feasible=False, status="structurally-infeasible", reason=form.infeasible_reason
        )

    lp_solution = form.lp.solve()
    if lp_solution.status is SolveStatus.INFEASIBLE:
        return ExactBoundResult(
            feasible=False,
            status="infeasible",
            reason="LP relaxation infeasible: the class cannot meet the goal",
        )
    lp_solution.require_optimal()
    constant = form.objective_constant
    lp_cost = form.bound_cost(lp_solution)

    rounded_cost = None
    if isinstance(problem.goal, QoSGoal):
        rounding = round_solution(form, lp_solution)
        if rounding.feasible:
            rounded_cost = rounding.total_cost

    result = solve_mip(
        form.lp,
        form.store_idx[form.store_idx >= 0],
        node_limit=node_limit,
        time_limit_s=time_limit_s,
    )
    logger.debug(
        "exact[%s]: status=%s nodes=%d", props.describe(), result.status.value, result.nodes
    )
    if result.status is SolveStatus.ERROR:
        raise RuntimeError(f"MIP solve failed: {result.message}")
    if result.status is SolveStatus.INFEASIBLE:
        return ExactBoundResult(
            feasible=False, status="infeasible", lp_cost=lp_cost, nodes=result.nodes,
            reason="no integral placement meets the goal",
        )

    store = None
    if result.values is not None:
        store = (form.store_array(result.values) >= 0.5).astype(float)
    return ExactBoundResult(
        feasible=True,
        status=result.status.value,
        exact_cost=None if result.objective is None else result.objective + constant,
        lower_bound=None
        if result.dual_bound == float("-inf")
        else result.dual_bound + constant,
        lp_cost=lp_cost,
        rounded_cost=rounded_cost,
        nodes=result.nodes,
        store=store,
    )
