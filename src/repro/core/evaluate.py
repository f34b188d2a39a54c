"""Evaluating placement solutions against an MC-PERF instance.

Shared between the rounding algorithm (which must verify feasibility and
price candidate roundings) and the bound/selection drivers (which report the
cost of the feasible solution).  Cost accounting follows the paper:

* storage alpha per object-interval — or, under a storage/replica
  constraint, alpha on the *provisioned* capacity with the Figure-5
  adjustments (every node padded to the max capacity ``cmax``; every object
  padded to the max replica count);
* creation beta per replica created (store rising 0 -> 1), including the
  Figure-5 capacity-fill creation adjustments;
* optional gamma late-access penalties, delta write costs and zeta node
  costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.costs import CostModel
from repro.core.goals import AverageLatencyGoal, GoalScope, PerformanceGoal, QoSGoal, scope_key
from repro.core.problem import PlacementInstance
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)


def creations_from_store(
    store: np.ndarray, initial: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-(ns, i, k) replica creations implied by a store matrix.

    ``create[ns, i, k] = max(0, store[ns, i, k] - store[ns, i-1, k])`` with
    the initial placement as interval −1 (constraint (3)/(4)).  Works for
    fractional matrices too (used when pricing roundings).
    """
    prev = np.zeros_like(store)
    prev[:, 1:, :] = store[:, :-1, :]
    if initial is not None:
        prev[:, 0, :] = initial
    return np.maximum(store - prev, 0.0)


def coverage_matrix(instance: PlacementInstance, store: np.ndarray) -> np.ndarray:
    """Per-(nd, i, k) covered fraction ``min(1, sum of reachable stores)``.

    Origin-covered demanders are fully covered.  Fractional stores yield the
    LP's fractional coverage, integral stores the 0/1 coverage.
    """
    cov = np.einsum("ds,sik->dik", instance.reach.astype(float), store)
    cov = np.minimum(cov, 1.0)
    cov[instance.origin_covers.astype(bool), :, :] = 1.0
    return cov


def qos_by_scope(
    instance: PlacementInstance, goal: QoSGoal, store: np.ndarray
) -> Dict[object, float]:
    """Achieved covered-read fraction per goal-scope key.

    The reads and the covered reads are laid out one goal scope per row and
    each row is reduced along itself: a row sums in the order its scope's
    ``(demander, interval, object)`` slice sums, so every value is the
    per-scope slice's to the bit.
    """
    cov = coverage_matrix(instance, store)
    reads = instance.qos_reads()
    num_d, intervals, num_k = reads.shape
    scope = goal.scope
    # Axis order and row shape that put one scope per row.
    axes, shape = {
        GoalScope.OVERALL: ((0, 1, 2), (1, num_d * intervals * num_k)),
        GoalScope.PER_USER: ((0, 1, 2), (num_d, intervals * num_k)),
        GoalScope.PER_OBJECT: ((2, 0, 1), (num_k, num_d * intervals)),
        GoalScope.PER_USER_OBJECT: ((0, 2, 1), (num_d * num_k, intervals)),
    }[scope]

    def row_sums(values: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(values.transpose(axes)).reshape(shape).sum(axis=1)

    denom, covered = row_sums(reads), row_sums(reads * cov)
    if scope is GoalScope.OVERALL:
        return {"all": float(covered[0] / denom[0]) if denom[0] > 0 else 1.0}
    rows = np.flatnonzero(denom > 0)
    if scope is GoalScope.PER_USER:
        keys = rows.tolist()
    elif scope is GoalScope.PER_OBJECT:
        keys = [("k", k) for k in rows.tolist()]
    else:
        keys = [(nd, k) for nd, k in zip((rows // num_k).tolist(), (rows % num_k).tolist())]
    return dict(zip(keys, (covered[rows] / denom[rows]).tolist()))


def meets_goal(
    instance: PlacementInstance,
    goal: PerformanceGoal,
    store: np.ndarray,
    tol: float = 1e-9,
) -> bool:
    """Whether an (integral) store matrix satisfies the performance goal.

    For the average-latency goal, each read is routed to the best servable
    replica (or the origin) — the optimal routing, matching constraint (8).
    """
    if isinstance(goal, QoSGoal):
        return qos_met(goal, qos_by_scope(instance, goal, store), tol)
    lat = average_latency_by_scope(instance, goal, store)
    return all(v <= goal.tavg_ms + tol for v in lat.values())


def qos_met(goal: QoSGoal, achieved: Dict[object, float], tol: float = 1e-9) -> bool:
    """Whether every scope's achieved QoS (``qos_by_scope``) reaches the goal."""
    return all(v >= goal.fraction - tol for v in achieved.values())


def average_latency_by_scope(
    instance: PlacementInstance, goal: AverageLatencyGoal, store: np.ndarray
) -> Dict[object, float]:
    """Mean read latency per scope key under best-replica routing."""
    reads = instance.qos_reads()
    nd_count, intervals, objects = reads.shape
    holders = store > 0.5
    lat_num: Dict[object, float] = {}
    lat_den: Dict[object, float] = {}

    for nd in range(nd_count):
        servable = np.nonzero(instance.serve[nd])[0]
        base = float(instance.origin_latency[nd])
        for k in range(objects):
            col = reads[nd, :, k]
            for i in np.nonzero(col)[0]:
                best = base
                for ns in servable:
                    if holders[ns, i, k]:
                        best = min(best, float(instance.latency[nd, ns]))
                key = scope_key(goal.scope, nd, k)
                lat_num[key] = lat_num.get(key, 0.0) + best * float(col[i])
                lat_den[key] = lat_den.get(key, 0.0) + float(col[i])
    return {key: lat_num[key] / lat_den[key] for key in lat_den}


@dataclass
class CostBreakdown:
    """Itemized replication cost of a concrete placement."""

    storage: float = 0.0
    creation: float = 0.0
    penalty: float = 0.0
    writes: float = 0.0
    opening: float = 0.0
    adjustments: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.storage + self.creation + self.penalty + self.writes + self.opening

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        return {
            "storage": self.storage,
            "creation": self.creation,
            "penalty": self.penalty,
            "writes": self.writes,
            "opening": self.opening,
            "adjustments": dict(self.adjustments),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CostBreakdown":
        """Inverse of :meth:`to_dict`."""
        return CostBreakdown(
            storage=float(payload["storage"]),
            creation=float(payload["creation"]),
            penalty=float(payload.get("penalty", 0.0)),
            writes=float(payload.get("writes", 0.0)),
            opening=float(payload.get("opening", 0.0)),
            adjustments={str(k): float(v) for k, v in payload.get("adjustments", {}).items()},
        )

    def __str__(self) -> str:
        parts = [f"storage={self.storage:.1f}", f"creation={self.creation:.1f}"]
        for name, value in (
            ("penalty", self.penalty),
            ("writes", self.writes),
            ("opening", self.opening),
        ):
            if value:
                parts.append(f"{name}={value:.1f}")
        return f"total={self.total:.1f} ({', '.join(parts)})"


def solution_cost(
    instance: PlacementInstance,
    props: HeuristicProperties,
    costs: CostModel,
    store: np.ndarray,
    goal: Optional[PerformanceGoal] = None,
    count_opening: bool = False,
) -> CostBreakdown:
    """Cost of a store matrix under the class's accounting (Figure 5 bottom).

    ``store`` may be fractional (pricing LP points) or integral (feasible
    solutions); the SC/RC capacity paddings follow the paper's rounding-
    algorithm adjustments.
    """
    out = CostBreakdown()
    create = creations_from_store(store, instance.initial_store)
    total_create = float(create.sum())
    intervals = store.shape[1]
    active = np.nonzero(instance.qos_reads().sum(axis=(0, 1)) > 0)[0]

    sc = props.storage_constraint
    rc = props.replica_constraint
    per_node_interval = store.sum(axis=2)  # (Ns, I) objects stored
    per_object_interval = store.sum(axis=0)  # (I, K) replicas of each object

    if sc is StorageConstraint.UNIFORM:
        cmax = float(per_node_interval.max()) if per_node_interval.size else 0.0
        out.storage = costs.alpha * cmax * store.shape[0] * intervals
        fill = float(np.maximum(cmax - per_node_interval.max(axis=1), 0.0).sum())
        out.creation = costs.beta * (total_create + fill)
        out.adjustments["sc_capacity_fill"] = costs.beta * fill
    elif sc is StorageConstraint.PER_NODE:
        caps = per_node_interval.max(axis=1) if per_node_interval.size else np.zeros(0)
        out.storage = costs.alpha * intervals * float(caps.sum())
        out.creation = costs.beta * total_create
    elif rc is ReplicaConstraint.UNIFORM:
        act = per_object_interval[:, active] if len(active) else per_object_interval
        rmax = float(act.max()) if act.size else 0.0
        out.storage = costs.alpha * intervals * len(active) * rmax
        fill = float(np.maximum(rmax - act.max(axis=0), 0.0).sum()) if act.size else 0.0
        out.creation = costs.beta * (total_create + fill)
        out.adjustments["rc_replica_fill"] = costs.beta * fill
    elif rc is ReplicaConstraint.PER_OBJECT:
        act = per_object_interval[:, active] if len(active) else per_object_interval
        reps = act.max(axis=0) if act.size else np.zeros(0)
        out.storage = costs.alpha * intervals * float(reps.sum())
        out.creation = costs.beta * total_create
    else:
        out.storage = costs.alpha * float(store.sum())
        out.creation = costs.beta * total_create

    if costs.delta > 0:
        writes_per_ik = instance.writes.sum(axis=0)
        out.writes = costs.delta * float((writes_per_ik * per_object_interval).sum())

    if costs.gamma > 0 and isinstance(goal, QoSGoal):
        cov = coverage_matrix(instance, store)
        pen = np.maximum(instance.origin_latency - goal.tlat_ms, 0.0)
        out.penalty = costs.gamma * float(
            (instance.qos_reads() * (1.0 - cov) * pen[:, None, None]).sum()
        )

    if count_opening and costs.zeta > 0:
        used = (store.sum(axis=(1, 2)) > 1e-9).sum()
        out.opening = costs.zeta * float(used)

    return out
