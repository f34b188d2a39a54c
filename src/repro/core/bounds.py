"""Lower-bound computation (§5).

:func:`compute_lower_bound` is the paper's core operation: build the MC-PERF
LP for a heuristic class, solve the relaxation (the *lower bound*), and run
the rounding algorithm (the *feasible cost* demonstrating tightness).

A class that cannot meet the performance goal at any cost — e.g. local
caching above 99 % QoS on the WEB workload — yields ``feasible=False``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.formulation import Formulation, build_formulation
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties
from repro.core.rounding import RoundingResult, round_solution
from repro.lp.solution import SolveStatus
from repro.solvers.registry import (
    BACKEND_AUTO,
    BACKEND_DECOMPOSED,
    BACKEND_STRUCTURE,
    BACKEND_TREE_DP,
    select_backend,
)

logger = logging.getLogger(__name__)


@dataclass
class LowerBoundResult:
    """A class's lower bound on an MC-PERF instance.

    Attributes
    ----------
    feasible:
        Whether the class can meet the performance goal at all.
    lp_cost:
        The LP-relaxation optimum — the lower bound (None when infeasible).
    feasible_cost:
        Cost of the rounded integral solution (None if rounding skipped or
        the class is infeasible).
    gap:
        Relative rounding gap ``(feasible_cost - lp_cost) / lp_cost``; the
        paper reports this stays within ~10 %.
    backend_used:
        The backend that actually produced the bound: ``"scipy"`` for
        every monolithic LP solve, or the structural backend's name.
    audit:
        The in-solve :class:`~repro.audit.report.AuditReport` when auditing
        was on (``--audit`` / ``REPRO_AUDIT``); serialized so a resumed run
        knows the cell was already verified.
    """

    properties: HeuristicProperties
    feasible: bool
    lp_cost: Optional[float] = None
    feasible_cost: Optional[float] = None
    rounding: Optional[RoundingResult] = None
    status: str = ""
    reason: str = ""
    backend_used: str = ""
    solve_seconds: float = 0.0
    round_seconds: float = 0.0
    num_variables: int = 0
    num_constraints: int = 0
    store_lp: Optional[np.ndarray] = None
    audit: Optional[object] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def gap(self) -> Optional[float]:
        if self.lp_cost is None or self.feasible_cost is None or self.lp_cost <= 0:
            return None
        return (self.feasible_cost - self.lp_cost) / self.lp_cost

    def __str__(self) -> str:
        if not self.feasible:
            return f"[{self.properties.describe()}] cannot meet the goal ({self.reason})"
        lp = f"{self.lp_cost:.1f}" if self.lp_cost is not None else "n/a"
        feas = f"{self.feasible_cost:.1f}" if self.feasible_cost is not None else "n/a"
        return f"[{self.properties.describe()}] bound={lp} feasible={feas}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer.

        ``store_lp`` and ``extras`` are deliberately not serialized: the
        former is an opt-in debugging payload (``keep_store=True``), the
        latter may hold rich diagnosis objects whose text already lives in
        ``reason``.
        """
        return {
            "properties": self.properties.to_dict(),
            "feasible": self.feasible,
            "lp_cost": self.lp_cost,
            "feasible_cost": self.feasible_cost,
            "rounding": None if self.rounding is None else self.rounding.to_dict(),
            "status": self.status,
            "reason": self.reason,
            "backend_used": self.backend_used,
            "solve_seconds": self.solve_seconds,
            "round_seconds": self.round_seconds,
            "num_variables": self.num_variables,
            "num_constraints": self.num_constraints,
            "audit": None if self.audit is None else self.audit.to_dict(),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "LowerBoundResult":
        """Inverse of :meth:`to_dict`."""
        from repro.audit.report import AuditReport
        from repro.core.properties import HeuristicProperties
        from repro.core.rounding import RoundingResult
        from repro.serialize import optional_float

        rounding = payload.get("rounding")
        audit = payload.get("audit")
        return LowerBoundResult(
            properties=HeuristicProperties.from_dict(payload["properties"]),
            feasible=bool(payload["feasible"]),
            lp_cost=optional_float(payload.get("lp_cost")),
            feasible_cost=optional_float(payload.get("feasible_cost")),
            rounding=None if rounding is None else RoundingResult.from_dict(rounding),
            status=str(payload.get("status", "")),
            reason=str(payload.get("reason", "")),
            backend_used=str(payload.get("backend_used", "")),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
            round_seconds=float(payload.get("round_seconds", 0.0)),
            num_variables=int(payload.get("num_variables", 0)),
            num_constraints=int(payload.get("num_constraints", 0)),
            audit=None if audit is None else AuditReport.from_dict(audit),
        )


def compute_lower_bound(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    do_rounding: bool = True,
    run_length: bool = False,
    backend: str = BACKEND_AUTO,
    keep_store: bool = False,
    formulation: Optional[Formulation] = None,
    diagnose: bool = False,
    audit: Optional[str] = None,
    audit_subject: str = "",
    warm_start: Optional[object] = None,
) -> LowerBoundResult:
    """Lower bound (and rounded feasible cost) for one heuristic class.

    Parameters
    ----------
    problem:
        System + workload + goal + costs.
    properties:
        Class properties; None computes the general lower bound.
    do_rounding:
        Also produce a feasible integral cost: the Appendix-C greedy
        rounding for QoS goals, the add-then-trim constructor
        (:mod:`repro.core.rounding_avg`) for average-latency goals.
    run_length:
        Use run-length rounding (faster, slightly costlier solutions).
    backend:
        Solver backend (:data:`~repro.solvers.registry.BOUND_BACKENDS`).
        ``"auto"``/``"scipy"`` solve the monolithic LP with HiGHS;
        ``"tree-dp"`` and ``"decomposed"`` route to the structural
        backends in :mod:`repro.solvers` (which ignore ``formulation``,
        ``run_length`` and ``diagnose``); and
        ``"structure"`` introspects the problem to pick among them
        (:func:`~repro.solvers.registry.select_backend`).
    keep_store:
        Retain the fractional LP store matrix on the result.
    formulation:
        Reuse a pre-built formulation (must match problem/properties).
    diagnose:
        On LP infeasibility, run the constraint-family deletion filter
        (:mod:`repro.lp.diagnose`) and name the binding families in
        ``reason`` — a few extra solves, only on the failure path.
    audit:
        Audit mode (``"off"``/``"fast"``/``"full"``); None reads the
        ``REPRO_AUDIT`` environment variable.  When on, the solve and the
        rounding are re-certified (:mod:`repro.audit`) and the
        :class:`~repro.audit.report.AuditReport` is attached to the result.
        ``full`` adds exact :class:`fractions.Fraction` arithmetic and the
        weak-duality certificate of the bound.
    audit_subject:
        Identifier recorded on any violations — the runner passes the
        task's content digest so a flagged cell is traceable to its
        cached artifact.
    warm_start:
        Basis hint for the LP solve — a :class:`~repro.lp.basis.Basis` or
        a previous :class:`~repro.lp.solution.LPSolution` — from another
        LP of the same shape.  A reused ``formulation`` needs none: its LP
        keeps the HiGHS instance of its last optimal solve, which is how
        QoS sweeps hot-start each level from the one before.  Unusable
        hints silently degrade to a cold solve.
    """
    props = properties or HeuristicProperties()
    if backend == BACKEND_STRUCTURE:
        backend = select_backend(problem, props)
    if backend == BACKEND_TREE_DP:
        from repro.solvers.tree_dp import solve_tree_dp

        return solve_tree_dp(
            problem, props,
            do_rounding=do_rounding, keep_store=keep_store,
            audit=audit, audit_subject=audit_subject,
        )
    if backend == BACKEND_DECOMPOSED:
        from repro.solvers.decompose import solve_decomposed

        return solve_decomposed(
            problem, props,
            do_rounding=do_rounding, keep_store=keep_store,
            audit=audit, audit_subject=audit_subject,
        )
    form = formulation or build_formulation(problem, props)
    result = LowerBoundResult(
        properties=props,
        feasible=False,
        num_variables=form.lp.num_variables,
        num_constraints=form.lp.num_constraints,
    )
    if form.structurally_infeasible:
        result.status = "structurally-infeasible"
        result.reason = form.infeasible_reason
        logger.debug("class %s structurally infeasible: %s", props.describe(), result.reason)
        return result

    t0 = time.perf_counter()
    solution = form.lp.solve(backend=backend, warm_start=warm_start)
    result.solve_seconds = time.perf_counter() - t0
    result.status = solution.status.value
    result.backend_used = solution.backend

    if solution.status is SolveStatus.INFEASIBLE:
        result.reason = "LP relaxation infeasible: the class cannot meet the goal"
        if diagnose:
            from repro.lp.diagnose import diagnose_infeasibility

            diagnosis = diagnose_infeasibility(form.lp, backend=backend)
            result.reason += f" ({diagnosis.render()})"
            result.extras["diagnosis"] = diagnosis
        return result
    if solution.status is not SolveStatus.OPTIMAL:
        result.reason = f"LP solve failed: {solution.message}"
        return result

    result.feasible = True
    result.lp_cost = form.bound_cost(solution)
    # Warm-start handle for callers that re-solve under drift (the service
    # daemon); never serialized.
    result.extras["basis"] = solution.basis

    # Post-solve audit hook: certify the LP point before anything consumes
    # it.  Lazy import — repro.audit re-exports the certificate layer that
    # repro.lp/repro.core expose, so a module-level import would cycle.
    from repro.audit import resolve_mode

    audit_mode = resolve_mode(audit)
    audit_report = None
    if audit_mode != "off":
        from repro.audit import audit_lp_solution

        t0 = time.perf_counter()
        # ``full`` includes the weak-duality ``dual`` check: O(nnz), so
        # every cell gets it, unsampled.
        audit_report = audit_lp_solution(form.lp, solution, mode=audit_mode)
        audit_report.subject = audit_subject
        result.extras["audit_seconds"] = time.perf_counter() - t0

    logger.debug(
        "bound[%s] = %.3f (%d vars, %d rows, %.2fs)",
        props.describe(), result.lp_cost, result.num_variables,
        result.num_constraints, result.solve_seconds,
    )
    if keep_store:
        result.store_lp = form.store_array(solution.values)

    from repro.core.goals import QoSGoal

    if do_rounding:
        t0 = time.perf_counter()
        if isinstance(problem.goal, QoSGoal):
            # audit="off": the certificate runs below with the true
            # lp_cost, so the bound gate is included exactly once.
            rounding = round_solution(
                form, solution, run_length=run_length, audit="off"
            )
        else:
            from repro.core.rounding_avg import round_average_latency

            rounding = round_average_latency(form, solution)
        result.round_seconds = time.perf_counter() - t0
        result.rounding = rounding
        result.feasible_cost = rounding.total_cost
        if not rounding.feasible:
            result.extras["rounding_infeasible"] = True
        if audit_report is not None:
            from repro.audit import audit_rounding

            audit_report.merge(
                audit_rounding(
                    form, rounding, result.lp_cost,
                    mode=audit_mode, subject=audit_subject,
                )
            )
    result.audit = audit_report
    return result
