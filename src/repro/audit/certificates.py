"""Solution certificates: the one source of truth for "is this result trustworthy".

Consolidates the checks that historically lived in ``repro.lp.validate``
(float-tolerance LP feasibility) and ``repro.core.verify`` (placement
integrality / creation legality / goal / cost) — both deleted; ``repro.lp``
and ``repro.core`` re-export the names from here — and adds the
result-level certificates the audit subsystem is built on:

* :func:`check_solution` / :func:`verify_placement` — the historical APIs,
  unchanged semantics.
* :func:`audit_placement` — a placement certificate as an
  :class:`~repro.audit.report.AuditReport`: storage/replica-constraint/QoS
  satisfaction recomputed *from scratch* (instance arithmetic, never the LP
  arrays).
* :func:`audit_rounding` — placement certificate + independent cost
  recomputation + the ``rounded_cost >= lower_bound - eps`` gate.
* :func:`audit_bound_result` — the artifact-level certificate for a
  (possibly cache-served) :class:`~repro.core.bounds.LowerBoundResult`:
  internal consistency, from-scratch placement re-verification against a
  freshly lowered instance, and the bound gate.  This is what the runner
  runs on cache *hits* to catch on-disk corruption and stale digests.
* :func:`audit_sim_result` / :func:`sim_gate_violation` — simulate-side
  consistency and the ``simulated_cost >= class_lower_bound - eps`` gate.

Tolerance policy: float comparisons use an absolute-or-relative allowance
``max(tol, tol * |reference|)``; cost-ordering gates use the looser ``eps``
the caller supplies (see docs/AUDIT.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.audit.report import DEFAULT_EPS, DEFAULT_TOL, AuditReport

# repro.lp and repro.core imports stay function-local: both packages
# re-export this module's historical APIs from their __init__, so a
# module-level import here would close an import cycle during package
# initialization.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bounds import LowerBoundResult
    from repro.core.evaluate import CostBreakdown
    from repro.core.formulation import Formulation
    from repro.core.problem import MCPerfProblem
    from repro.core.properties import HeuristicProperties
    from repro.lp.model import LinearProgram
    from repro.simulator.continuous import ContinuousResult
    from repro.simulator.engine import SimulationResult

#: Which Table-3 class bounds each simulated heuristic must respect: a
#: heuristic is a member of its class, so its measured cost can never beat
#: the class's lower bound (Figures 5-7's central claim).
HEURISTIC_CLASS: Dict[str, str] = {
    "lru": "caching",
    "lfu": "caching",
    "coop-lru": "cooperative-caching",
    "greedy-global": "storage-constrained",
    "qiu": "replica-constrained",
    "random": "replica-constrained",
}


def allowance(tol: float, reference: float) -> float:
    """Absolute-or-relative slack: ``max(tol, tol * |reference|)``."""
    return max(tol, tol * abs(reference))


# ---------------------------------------------------------------------------
# Historical APIs (formerly lp/validate.py and core/verify.py).
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    """One violated constraint or bound."""

    kind: str  # "constraint" | "lower" | "upper"
    name: str
    amount: float

    def __str__(self) -> str:
        return f"{self.kind} {self.name}: violated by {self.amount:.3g}"


@dataclass
class ValidationReport:
    """Outcome of checking a point against a model."""

    feasible: bool
    objective: float
    violations: List[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible


def check_solution(model: LinearProgram, values, tol: float = 1e-6) -> ValidationReport:
    """Check ``values`` against every bound and constraint of ``model``.

    Returns a :class:`ValidationReport`; ``report.feasible`` is True when all
    values are finite and all bounds and constraints hold within ``tol``.
    Violations come in model order: ``non-finite`` values first, then
    ``lower``/``upper`` per variable, then ``constraint`` per row.
    """
    from repro.lp.model import Sense

    if len(values) != model.num_variables:
        raise ValueError(
            f"value vector has length {len(values)}, model has {model.num_variables} variables"
        )
    x = np.asarray(values, dtype=np.float64)
    cache = model.assembled()
    violations: List[Violation] = [
        Violation("non-finite", model.var_name(j), float("inf"))
        for j in np.flatnonzero(~np.isfinite(x)).tolist()
    ]

    # lower <= upper, so at most one of the two fires per variable.
    low = x < cache.lb - tol
    flagged = np.flatnonzero(low | (x > cache.ub + tol))
    amounts = np.where(low, cache.lb - x, x - cache.ub)[flagged]
    violations.extend(
        Violation("lower" if low[j] else "upper", model.var_name(j), amount)
        for j, amount in zip(flagged.tolist(), amounts.tolist())
    )

    act, senses, rhs = model.row_activities(x)
    le = senses == Sense.LE.code
    ge = senses == Sense.GE.code
    eq = ~(le | ge)
    flagged = np.flatnonzero(
        (le & (act > rhs + tol)) | (ge & (act < rhs - tol)) | (eq & (np.abs(act - rhs) > tol))
    )
    amounts = np.where(ge, rhs - act, np.where(le, act - rhs, np.abs(act - rhs)))
    violations.extend(
        Violation("constraint", model.row_name(row), amount)
        for row, amount in zip(flagged.tolist(), amounts[flagged].tolist())
    )

    # Every term, left to right by ``sum``, like the per-variable loop.
    objective = sum((cache.c * x).tolist())
    return ValidationReport(feasible=not violations, objective=objective, violations=violations)


@dataclass
class PlacementReport:
    """Outcome of verifying a placement."""

    valid: bool
    integral: bool
    creation_legal: bool
    goal_met: bool
    cost: Optional[CostBreakdown] = None
    problems: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid

    def __str__(self) -> str:
        if self.valid:
            return f"valid placement ({self.cost})"
        return "invalid placement: " + "; ".join(self.problems)


def _placement_report(
    instance,
    properties,
    goal,
    costs,
    store: np.ndarray,
    allowed: Optional[np.ndarray],
    count_opening: bool,
    tol: float,
    max_reported: int,
) -> PlacementReport:
    """The placement certificate against a lowered instance (no LP needed)."""
    from repro.core.evaluate import meets_goal, solution_cost

    problems: List[str] = []

    expected = (instance.num_storers, instance.num_intervals, instance.num_objects)
    if store.shape != expected:
        raise ValueError(f"store has shape {store.shape}, expected {expected}")

    # 1. integrality
    fractional = np.nonzero((store > tol) & (store < 1 - tol))
    integral = len(fractional[0]) == 0
    if not integral:
        for ns, i, k in list(zip(*fractional))[:max_reported]:
            problems.append(f"fractional store[{ns},{i},{k}]={store[ns, i, k]:.4f}")

    # 2. creation legality
    creation_legal = True
    if allowed is not None:
        cur = np.asarray(store, dtype=float)
        initial = (
            np.asarray(instance.initial_store, dtype=float)
            if instance.initial_store is not None
            else np.zeros((store.shape[0], store.shape[2]))
        )
        # Each cell against the interval before it (the initial placement
        # before interval 0): a rise by more than tol is a creation.
        prev = np.concatenate([initial[:, None, :], cur[:, :-1, :]], axis=1)
        bad = (cur > prev + tol) & ~np.asarray(allowed, dtype=bool)
        # Offenders in (storer, object, interval) order.
        offenders = np.nonzero(bad.transpose(0, 2, 1))
        creation_legal = len(offenders[0]) == 0
        for ns, k, i in zip(*(axis[: max(max_reported, 0)] for axis in offenders)):
            problems.append(
                f"creation at store[{ns},{i},{k}] violates the "
                "class's history/knowledge restriction"
            )

    # 3. goal
    goal_met = meets_goal(instance, goal, store)
    if not goal_met:
        problems.append("performance goal not met")

    # 4. cost
    cost = solution_cost(
        instance,
        properties,
        costs,
        store,
        goal=goal,
        count_opening=count_opening,
    )

    return PlacementReport(
        valid=integral and creation_legal and goal_met,
        integral=integral,
        creation_legal=creation_legal,
        goal_met=goal_met,
        cost=cost,
        problems=problems,
    )


def verify_placement(
    form: Formulation,
    store: np.ndarray,
    tol: float = 1e-6,
    max_reported: int = 10,
) -> PlacementReport:
    """Verify a store matrix against a formulation's class and goal."""
    return _placement_report(
        form.instance,
        form.properties,
        form.problem.goal,
        form.problem.costs,
        store,
        form.allowed_create,
        form.open_index is not None,
        tol,
        max_reported,
    )


# ---------------------------------------------------------------------------
# Result-level certificates (AuditReport-producing).
# ---------------------------------------------------------------------------


def _fold_placement(report: AuditReport, placement: PlacementReport, subject: str) -> None:
    """Translate a PlacementReport into AuditViolation records."""
    report.ran("placement")
    if placement.valid:
        return
    for problem in placement.problems:
        report.flag("placement", subject, message=problem)


def audit_placement(
    form: Formulation,
    store: np.ndarray,
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    subject: str = "",
) -> AuditReport:
    """Certify an integral store matrix as a feasible class placement.

    Everything is recomputed from the lowered instance — coverage, goal
    satisfaction, creation legality, cost — never read back from LP arrays.
    """
    report = AuditReport(mode=mode, subject=subject)
    _fold_placement(report, verify_placement(form, store, tol=tol), subject or "store")
    return report


def audit_rounding(
    form: Formulation,
    rounding,
    lp_cost: Optional[float],
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
    subject: str = "",
) -> AuditReport:
    """Certify a :class:`~repro.core.rounding.RoundingResult`.

    Placement certificate + independent cost recomputation (the stored
    :class:`CostBreakdown` must match a from-scratch ``solution_cost``) +
    the ``rounded_cost >= lower_bound - eps`` gate.  A rounding the rounder
    itself marked infeasible is a legitimate answer, not a violation — only
    the placement checks that still apply (integrality, legality) run then.
    """
    from repro.core.goals import QoSGoal

    report = AuditReport(mode=mode, subject=subject)
    placement = verify_placement(form, rounding.store, tol=tol)
    if rounding.feasible:
        _fold_placement(report, placement, subject or "rounding")
    else:
        # Expect the from-scratch check to agree that the goal is unmet.
        report.ran("placement")
        if placement.goal_met and isinstance(form.problem.goal, QoSGoal):
            report.flag(
                "placement", subject or "rounding",
                message="rounding flagged infeasible but the goal is met on recheck",
            )
        for problem in placement.problems:
            if "goal" not in problem:
                report.flag("placement", subject or "rounding", message=problem)

    report.ran("cost")
    recomputed = placement.cost.total if placement.cost is not None else None
    if recomputed is not None:
        drift = abs(recomputed - rounding.total_cost)
        if drift > allowance(tol, recomputed):
            report.flag(
                "cost", subject or "rounding", drift,
                message=f"stored cost {rounding.total_cost:.9g} != "
                f"recomputed {recomputed:.9g}",
            )

    if lp_cost is not None and rounding.feasible:
        report.ran("bound-gate")
        shortfall = lp_cost - rounding.total_cost
        if shortfall > allowance(eps, lp_cost):
            report.flag(
                "bound-gate", subject or "rounding", shortfall,
                message=f"rounded cost {rounding.total_cost:.9g} below "
                f"lower bound {lp_cost:.9g}",
            )
    return report


def audit_bound_result(
    problem: "MCPerfProblem",
    properties: Optional["HeuristicProperties"],
    result: "LowerBoundResult",
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
    subject: str = "",
) -> AuditReport:
    """Artifact-level certificate for a (possibly cache-served) bound result.

    Works from the result payload alone plus the original problem — no LP
    assembly.  The problem is lowered to a fresh
    :class:`~repro.core.problem.PlacementInstance` (cheap numpy), and the
    rounding store (when present) is re-verified from scratch: integrality,
    creation legality, goal satisfaction, cost recomputation, and the
    ``rounded >= bound`` gate.  Run by the scheduler on every cache hit
    when auditing is on, so a flipped coefficient or truncated payload on
    disk is caught before it contaminates a sweep.
    """
    from repro.core.formulation import compute_allowed_create
    from repro.core.properties import HeuristicProperties

    report = AuditReport(mode=mode, subject=subject)
    props = properties or result.properties or HeuristicProperties()

    report.ran("artifact")
    if result.feasible:
        if result.lp_cost is None or not np.isfinite(result.lp_cost):
            report.flag(
                "artifact", subject or "bound", message="feasible result without a finite lp_cost"
            )
            return report
        if result.lp_cost < -allowance(tol, 1.0):
            report.flag(
                "artifact", subject or "bound", -result.lp_cost,
                message=f"negative lower bound {result.lp_cost:.9g}",
            )
        if result.status and result.status != "optimal":
            report.flag(
                "artifact", subject or "bound",
                message=f"feasible result with non-optimal status {result.status!r}",
            )
    else:
        if not result.status:
            report.flag(
                "artifact", subject or "bound",
                message="infeasible result without a status",
            )
        return report

    rounding = result.rounding
    if rounding is None:
        return report

    report.ran("artifact")
    if result.feasible_cost is not None:
        drift = abs(result.feasible_cost - rounding.total_cost)
        if drift > allowance(tol, rounding.total_cost):
            report.flag(
                "artifact", subject or "bound", drift,
                message=f"feasible_cost {result.feasible_cost:.9g} != "
                f"rounding cost {rounding.total_cost:.9g}",
            )

    # From-scratch placement re-verification against a freshly lowered
    # instance (never the LP arrays, which a cache hit does not even have).
    instance = problem.instance(props)
    allowed = compute_allowed_create(instance, props)
    try:
        placement = _placement_report(
            instance, props, problem.goal, problem.costs,
            np.asarray(rounding.store, dtype=float), allowed,
            count_opening=False, tol=tol, max_reported=10,
        )
    except ValueError as exc:
        report.flag("artifact", subject or "bound", message=str(exc))
        return report

    if rounding.feasible:
        _fold_placement(report, placement, subject or "bound")
    report.ran("cost")
    if placement.cost is not None:
        drift = abs(placement.cost.total - rounding.total_cost)
        if drift > allowance(tol, placement.cost.total):
            report.flag(
                "cost", subject or "bound", drift,
                message=f"stored rounding cost {rounding.total_cost:.9g} != "
                f"from-scratch cost {placement.cost.total:.9g}",
            )

    if rounding.feasible:
        report.ran("bound-gate")
        shortfall = result.lp_cost - rounding.total_cost
        if shortfall > allowance(eps, result.lp_cost):
            report.flag(
                "bound-gate", subject or "bound", shortfall,
                message=f"rounded cost {rounding.total_cost:.9g} below "
                f"lower bound {result.lp_cost:.9g}",
            )
    return report


def audit_sim_result(
    result: "SimulationResult",
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    subject: str = "",
) -> AuditReport:
    """Internal-consistency certificate for a simulation result payload.

    Catches the corruption a cache flip can introduce: negative cost
    components, covered reads exceeding served reads, per-node QoS outside
    [0, 1].
    """
    report = AuditReport(mode=mode, subject=subject)
    report.ran("artifact")
    name = subject or "simulate"
    for label, value in (
        ("storage_cost", result.storage_cost),
        ("creation_cost", result.creation_cost),
        ("update_cost", result.update_cost),
    ):
        if not np.isfinite(value) or value < -tol:
            report.flag(
                "artifact", name, abs(float(value)),
                message=f"{label} = {value!r} is negative or non-finite",
            )
    if result.covered_reads > result.reads:
        report.flag(
            "artifact", name, float(result.covered_reads - result.reads),
            message=f"covered_reads {result.covered_reads} exceeds reads {result.reads}",
        )
    if min(result.reads, result.covered_reads, result.creations) < 0:
        report.flag("artifact", name, message="negative event counter")
    for node, q in result.qos_per_node.items():
        if not (-tol <= q <= 1.0 + tol):
            report.flag(
                "artifact", name, abs(float(q)),
                message=f"qos_per_node[{node}] = {q!r} outside [0, 1]",
            )
    return report


def audit_continuous_result(
    result: "ContinuousResult",
    mode: str = "fast",
    tol: float = DEFAULT_TOL,
    subject: str = "",
) -> AuditReport:
    """Internal-consistency certificate for a continuous-run payload.

    The epoch reports are the source of truth the aggregates derive from;
    a cache flip that corrupts either side breaks one of these identities:
    non-finite/negative per-epoch costs or migration, availabilities
    outside [0, 1], SLO flags contradicting the stated target, or a final
    placement inconsistent with the last epoch's recorded size.
    """
    report = AuditReport(mode=mode, subject=subject)
    report.ran("artifact")
    name = subject or "continuous"
    for epoch in result.epochs:
        for label, value in (
            ("serve_cost", epoch.serve_cost),
            ("migration_bytes", epoch.migration_bytes),
        ):
            if not np.isfinite(value) or value < -tol:
                report.flag(
                    "artifact", name, abs(float(value)),
                    message=f"epoch {epoch.index} {label} = {value!r} "
                    "is negative or non-finite",
                )
        if not (-tol <= epoch.availability <= 1.0 + tol):
            report.flag(
                "artifact", name, abs(float(epoch.availability)),
                message=f"epoch {epoch.index} availability "
                f"{epoch.availability!r} outside [0, 1]",
            )
        if min(epoch.reads, epoch.unavailable_reads, epoch.creations) < 0:
            report.flag(
                "artifact", name,
                message=f"epoch {epoch.index} has a negative event counter",
            )
        if result.slo_target is not None:
            expect = epoch.availability < result.slo_target - tol
            if epoch.slo_violated != expect and abs(
                epoch.availability - result.slo_target
            ) > tol:
                report.flag(
                    "artifact", name,
                    message=f"epoch {epoch.index} slo_violated="
                    f"{epoch.slo_violated} contradicts availability "
                    f"{epoch.availability!r} vs target {result.slo_target!r}",
                )
    if result.epochs and len(result.final_placement) != result.epochs[-1].placement_size:
        report.flag(
            "artifact", name,
            message=f"final placement has {len(result.final_placement)} "
            f"replicas but the last epoch recorded "
            f"{result.epochs[-1].placement_size}",
        )
    return report


def sim_gate_violation(
    report: AuditReport,
    simulated_cost: float,
    class_bound: float,
    eps: float,
    subject: str,
) -> bool:
    """Apply the ``simulated_cost >= class_lower_bound - eps`` gate.

    Returns True (and records a ``sim-gate`` violation) when a heuristic's
    measured cost undercuts its class's lower bound — the end-to-end
    inconsistency the paper's method rules out.
    """
    report.ran("sim-gate")
    shortfall = class_bound - simulated_cost
    if shortfall > allowance(eps, class_bound):
        report.flag(
            "sim-gate", subject, shortfall,
            message=f"simulated cost {simulated_cost:.9g} below class "
            f"lower bound {class_bound:.9g}",
        )
        return True
    return False
