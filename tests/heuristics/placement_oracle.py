"""The per-node placement loops, frozen as the array planners' oracle.

``oracle_plan_object`` is ``QiuGreedyPlacement.plan_object`` and
``oracle_greedy_plan`` is ``GreedyGlobalPlacement.plan`` as they stood
before both planners ran on arrays: Qiu's greedy scores every candidate
node in Python each round, and the storage-constrained greedy finds each
round's best (node, object) pair by looping over the nodes.  Both take
the heuristic whose ``_reach``/``_origin``/``replicas``/``capacity``/
``place_inactive`` they read (set by ``on_start``).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np


def oracle_plan_object(heuristic, demand_k: np.ndarray, num_nodes: int) -> Set[int]:
    """Greedy replica locations for one object given its per-node demand."""
    chosen: Set[int] = set()
    if heuristic.replicas == 0:
        return chosen
    uncovered = demand_k.astype(float).copy()
    uncovered[heuristic._reach[:num_nodes, heuristic._origin]] = 0.0
    candidates = [ns for ns in range(num_nodes) if ns != heuristic._origin]
    for _ in range(min(heuristic.replicas, len(candidates))):
        gains = [
            (float(uncovered[heuristic._reach[:num_nodes, ns]].sum()), -ns)
            for ns in candidates
            if ns not in chosen
        ]
        if not gains:
            break
        best_gain, neg_ns = max(gains)
        ns = -neg_ns
        if best_gain <= 0.0 and not heuristic.place_inactive and chosen:
            break
        if best_gain <= 0.0 and not heuristic.place_inactive and not chosen:
            # No coverage benefit at all; skip this object entirely.
            break
        chosen.add(ns)
        uncovered[heuristic._reach[:num_nodes, ns]] = 0.0
    return chosen


def oracle_qiu_targets(heuristic, demand: np.ndarray, num_nodes: int) -> List[Set[int]]:
    """Per-node objects ``QiuGreedyPlacement.on_interval`` placed for ``demand``."""
    targets: List[Set[int]] = [set() for _ in range(num_nodes)]
    for k in range(demand.shape[1]):
        col = demand[:, k]
        if col.sum() <= 0 and not heuristic.place_inactive:
            continue
        for ns in oracle_plan_object(heuristic, col, num_nodes):
            targets[ns].add(k)
    return targets


def oracle_greedy_plan(heuristic, demand: np.ndarray, num_nodes: int) -> List[Set[int]]:
    """Per-node contents for one period, by the node-by-node selection loop."""
    placements: List[Set[int]] = [set() for _ in range(num_nodes)]
    if heuristic.capacity == 0:
        return placements
    reach, origin = heuristic._reach, heuristic._origin
    uncovered = demand.copy().astype(float)
    # Demand already satisfied by the origin is not worth replicating for.
    for nd in range(num_nodes):
        if reach[nd][origin]:
            uncovered[nd, :] = 0.0
    # gains[ns, k]: demand newly covered by placing k at ns.
    gains = reach[:num_nodes, :num_nodes].T.astype(float) @ uncovered
    open_nodes = [ns for ns in range(num_nodes) if ns != origin]
    while True:
        best_gain = 0.0
        best: Optional[Tuple[int, int]] = None
        for ns in open_nodes:
            if len(placements[ns]) >= heuristic.capacity:
                continue
            k = int(np.argmax(gains[ns]))
            if gains[ns][k] > best_gain:
                best_gain = float(gains[ns][k])
                best = (ns, k)
        if best is None or best_gain <= 0.0:
            break
        ns, k = best
        placements[ns].add(k)
        # Demand of k at nodes now covered by ns stops contributing.
        newly = reach[:num_nodes, ns] & (uncovered[:, k] > 0)
        if newly.any():
            delta = np.where(newly, uncovered[:, k], 0.0)
            uncovered[:, k] -= delta
            gains[:, k] -= reach[:num_nodes, :num_nodes].T.astype(float) @ delta
        gains[ns][k] = 0.0

    # Pad with locally hottest objects — capacity is paid for anyway.
    order = np.argsort(-demand, axis=1)
    for ns in open_nodes:
        for k in order[ns]:
            if len(placements[ns]) >= heuristic.capacity:
                break
            if demand[ns][k] <= 0:
                break
            placements[ns].add(int(k))
    return placements
