"""Per-object decomposition of MC-PERF.

Objects couple in the monolithic LP through shared resource rows —
storage-capacity rows (16), uniform replica rows (17), node-opening
variables (13)/(14) — and through QoS rows whose scope aggregates objects
(``PER_USER`` / ``OVERALL``).  When none of these couplings is present
(:func:`decomposition_applicable`), the goal scope is separable
(``PER_OBJECT`` / ``PER_USER_OBJECT``): every QoS row mentions a single
object, so the instance is *exactly* the sum of independent per-object
MC-PERF instances.  Each becomes a :class:`~repro.runner.tasks.BoundTask`
solved through the existing :class:`~repro.runner.execute.ExperimentRunner`
pool; bounds, roundings and stores are summed/stitched back together.

Every other instance — an aggregating scope included — falls back to the
monolithic ``auto`` LP with the blocking coupling named in
``extras["decomposition_fallback"]``.  Decomposed results can be
differentially audited against the monolith via
:func:`repro.audit.differential.audit_backend_agreement`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import LowerBoundResult, compute_lower_bound
from repro.core.evaluate import CostBreakdown
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.core.rounding import RoundingResult
from repro.solvers.registry import BACKEND_AUTO, BACKEND_DECOMPOSED

_SEPARABLE_SCOPES = (GoalScope.PER_OBJECT, GoalScope.PER_USER_OBJECT)


def decomposition_applicable(
    problem: MCPerfProblem, properties: Optional[HeuristicProperties] = None
) -> Tuple[bool, str]:
    """Whether the instance splits by object (separable scope, no shared rows).

    Returns ``(ok, reason)``; ``reason`` names the coupling that blocks the
    split.  Know/Hist/React create fixings are fine — the sphere-of-
    knowledge aggregation is per-object.  ``ReplicaConstraint.PER_OBJECT``
    is fine too (one replica-count variable per object).
    """
    props = properties or HeuristicProperties()
    if not isinstance(problem.goal, QoSGoal):
        return False, "decomposition needs a QoS goal (routing rows couple via scopes)"
    if problem.goal.scope not in _SEPARABLE_SCOPES:
        return False, (
            f"the {problem.goal.scope.value} goal scope aggregates objects into "
            "shared QoS rows"
        )
    if props.storage_constraint is not StorageConstraint.NONE:
        return False, "storage-capacity rows couple objects on each node"
    if props.replica_constraint is ReplicaConstraint.UNIFORM:
        return False, "the uniform replica-count variable couples objects"
    if problem.costs.zeta > 0:
        return False, "node-opening variables couple objects on each node"
    return True, ""


def _object_problem(problem: MCPerfProblem, obj: int) -> MCPerfProblem:
    """The single-object slice of ``problem`` (object ``obj`` becomes index 0)."""
    demand = problem.demand.restrict_objects([obj])
    initial = None
    if problem.initial_placement is not None:
        initial = np.asarray(problem.initial_placement)[:, [obj]]
    return dataclasses.replace(problem, demand=demand, initial_placement=initial)


def _resolve_jobs(jobs: Optional[int], num_tasks: int) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    if num_tasks >= 8:
        return min(4, os.cpu_count() or 1)
    return 1


def _remap_scope_key(key: object, obj: int) -> object:
    """Translate a single-object subproblem's scope key back to the monolith's."""
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "k":
            return ("k", obj)
        if len(key) == 2:
            return (key[0], obj)
    return key


def _zero_result(
    problem: MCPerfProblem, props: HeuristicProperties, do_rounding: bool, keep_store: bool
) -> LowerBoundResult:
    """The trivial bound for a demandless instance: store nothing, cost zero."""
    result = LowerBoundResult(
        properties=props,
        feasible=True,
        lp_cost=0.0,
        status="optimal",
        backend_used=BACKEND_DECOMPOSED,
    )
    shape = (
        len(problem.storer_ids()),
        problem.demand.num_intervals,
        problem.demand.num_objects,
    )
    if keep_store:
        result.store_lp = np.zeros(shape)
    if do_rounding:
        result.rounding = RoundingResult(
            store=np.zeros(shape),
            cost=CostBreakdown(),
            feasible=True,
            fractional_units=0,
            rounded_up=0,
            rounded_down=0,
            repaired=0,
        )
        result.feasible_cost = 0.0
    result.extras["decomposition"] = {"mode": "empty", "objects": 0}
    return result


def solve_decomposed(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    do_rounding: bool = True,
    keep_store: bool = False,
    jobs: Optional[int] = None,
    audit: Optional[str] = None,
    audit_subject: str = "",
) -> LowerBoundResult:
    """Lower bound via per-object decomposition.

    Falls back to the monolithic ``auto`` path (with an ``extras`` note)
    when the instance has a coupling the decomposition cannot split.
    """
    props = properties or HeuristicProperties()
    ok, reason = decomposition_applicable(problem, props)
    if not ok:
        result = compute_lower_bound(
            problem,
            props,
            do_rounding=do_rounding,
            backend=BACKEND_AUTO,
            keep_store=keep_store,
            audit=audit,
            audit_subject=audit_subject,
        )
        result.extras["decomposition_fallback"] = reason
        return result

    active = [int(k) for k in problem.demand.active_objects()]
    if not active:
        return _zero_result(problem, props, do_rounding, keep_store)

    t0 = time.perf_counter()
    result = _solve_separable(problem, props, active, do_rounding, keep_store, jobs)
    result.solve_seconds = time.perf_counter() - t0

    from repro.audit import resolve_mode

    mode = resolve_mode(audit)
    if mode != "off" and result.feasible:
        from repro.audit import audit_backend_agreement, resolve_sample, selected_for_sample

        if mode == "full" and selected_for_sample(audit_subject, resolve_sample()):
            ta = time.perf_counter()
            result.audit = audit_backend_agreement(
                problem, props, result, mode=mode, subject=audit_subject
            )
            result.extras["audit_seconds"] = time.perf_counter() - ta
    return result


def _solve_separable(
    problem: MCPerfProblem,
    props: HeuristicProperties,
    active: List[int],
    do_rounding: bool,
    keep_store: bool,
    jobs: Optional[int],
) -> LowerBoundResult:
    subs = [(k, _object_problem(problem, k)) for k in active]
    jobs = _resolve_jobs(jobs, len(subs))

    if jobs > 1 and not keep_store:
        from repro.runner.execute import ExperimentRunner
        from repro.runner.tasks import BoundTask

        tasks = [
            BoundTask(
                problem=sub,
                properties=props,
                do_rounding=do_rounding,
                backend=BACKEND_AUTO,
                label=f"object-{k}",
            )
            for k, sub in subs
        ]
        results = ExperimentRunner(jobs=jobs).map(tasks)
    else:
        results = [
            compute_lower_bound(
                sub,
                props,
                do_rounding=do_rounding,
                backend=BACKEND_AUTO,
                keep_store=keep_store,
            )
            for _k, sub in subs
        ]

    combined = LowerBoundResult(properties=props, feasible=True, lp_cost=0.0)
    combined.status = "optimal"
    combined.backend_used = BACKEND_DECOMPOSED
    combined.extras["decomposition"] = {
        "mode": "separable",
        "objects": len(active),
        "jobs": jobs,
    }
    shape = (
        len(problem.storer_ids()),
        problem.demand.num_intervals,
        problem.demand.num_objects,
    )
    store_lp = np.zeros(shape) if keep_store else None
    rounding_store = np.zeros(shape) if do_rounding else None
    cost = CostBreakdown()
    qos: Dict[object, float] = {}
    frac_units = up = down = repaired = legalized = 0
    rounding_feasible = True

    for (k, _sub), res in zip(subs, results):
        combined.num_variables += res.num_variables
        combined.num_constraints += res.num_constraints
        combined.round_seconds += res.round_seconds
        if not res.feasible:
            combined.feasible = False
            combined.lp_cost = None
            combined.status = res.status
            combined.reason = f"object {k}: {res.reason}"
            return combined
        combined.lp_cost += res.lp_cost
        if store_lp is not None and res.store_lp is not None:
            store_lp[:, :, k] = res.store_lp[:, :, 0]
        if do_rounding and res.rounding is not None:
            r = res.rounding
            rounding_store[:, :, k] = r.store[:, :, 0]
            cost.storage += r.cost.storage
            cost.creation += r.cost.creation
            cost.penalty += r.cost.penalty
            cost.writes += r.cost.writes
            cost.opening += r.cost.opening
            for name, value in r.cost.adjustments.items():
                cost.adjustments[name] = cost.adjustments.get(name, 0.0) + value
            frac_units += r.fractional_units
            up += r.rounded_up
            down += r.rounded_down
            repaired += r.repaired
            legalized += r.legalized
            rounding_feasible = rounding_feasible and r.feasible
            for key, value in r.qos.items():
                qos[_remap_scope_key(key, k)] = value

    combined.store_lp = store_lp
    if do_rounding:
        combined.rounding = RoundingResult(
            store=rounding_store,
            cost=cost,
            feasible=rounding_feasible,
            fractional_units=frac_units,
            rounded_up=up,
            rounded_down=down,
            repaired=repaired,
            legalized=legalized,
            qos=qos,
        )
        combined.feasible_cost = cost.total
        if not rounding_feasible:
            combined.extras["rounding_infeasible"] = True
    return combined
