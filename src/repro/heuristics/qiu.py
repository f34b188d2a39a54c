"""Replica-constrained greedy placement (Qiu, Padmanabhan & Voelker [11]).

A centralized heuristic that maintains a fixed number of replicas per object
(the same number for every object — the paper's uniform replica constraint)
and periodically re-places them greedily: each object's replicas go to the
nodes that cover the most of its demand within the latency threshold.  This
is the paper's recommended heuristic for the GROUP workload.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.heuristics.base import PlacementHeuristic


class QiuGreedyPlacement(PlacementHeuristic):
    """Periodic replica-constrained greedy placement.

    Parameters
    ----------
    replicas_per_object:
        The fixed replication factor R (0 = origin only).
    period_s:
        Re-placement period.
    tlat_ms:
        Coverage threshold; from the simulation context when omitted.
    clairvoyant:
        Plan with the coming period's demand (proactive variant).
    place_inactive:
        Also place replicas of objects with no demand in the planning
        window (the strict reading of the replica constraint).  Off by
        default: replicas without demand only add cost.
    history_window:
        How many past periods of demand to plan with; ``None`` (default)
        accumulates all history — the Table-3 replica-constrained class has
        multi-interval history.
    """

    routing = "global"

    def __init__(
        self,
        replicas_per_object: int,
        period_s: float = 3600.0,
        tlat_ms: Optional[float] = None,
        clairvoyant: bool = False,
        place_inactive: bool = False,
        history_window: Optional[int] = None,
    ):
        if replicas_per_object < 0:
            raise ValueError("replicas_per_object must be non-negative")
        if period_s <= 0:
            raise ValueError("period must be positive")
        if history_window is not None and history_window < 1:
            raise ValueError("history_window must be >= 1 (or None for all history)")
        self.replicas = replicas_per_object
        self.period_s = period_s
        self.tlat_ms = tlat_ms
        self.clairvoyant = clairvoyant
        self.place_inactive = place_inactive
        self.history_window = history_window
        self._history: List[np.ndarray] = []

    def describe(self) -> str:
        kind = "proactive" if self.clairvoyant else "reactive"
        return f"QiuGreedy(R={self.replicas}, {kind})"

    def on_start(self, ctx) -> None:
        if self.tlat_ms is None:
            self.tlat_ms = ctx.tlat_ms
        self._reach = (ctx.topology.latency <= self.tlat_ms).astype(bool)
        self._origin = ctx.topology.origin
        self._history = []

    def on_adopt(self, ctx) -> None:
        """Take over mid-run keeping the accumulated demand history.

        Pre-existing replicas are reconciled at the next re-placement.
        """
        history = self._history
        self.on_start(ctx)
        self._history = history

    def _windowed_demand(self, past_demand: np.ndarray) -> np.ndarray:
        """Demand summed over the configured history window."""
        self._history.append(past_demand)
        if self.history_window is not None:
            self._history = self._history[-self.history_window :]
        return np.sum(self._history, axis=0)

    def plan(self, demand: np.ndarray, num_nodes: int) -> np.ndarray:
        """Greedy replica locations for every object at once.

        Returns an ``(num_nodes, K)`` mask, True where node ``n`` gets a
        replica of object ``k``.  Each round scores every (candidate,
        object) pair with one product ``reach.T @ uncovered`` and gives each
        object its first best candidate: the most newly covered demand,
        the smallest node on ties.  An object stops at its first round
        without gain, unless ``place_inactive``.
        """
        chosen = np.zeros(demand.shape, dtype=bool)
        candidates = num_nodes - (self._origin < num_nodes)
        rounds = min(self.replicas, candidates)
        if rounds <= 0:
            return chosen
        reach = self._reach[:num_nodes, :num_nodes]
        reach_t = reach.T.astype(float)
        uncovered = demand.astype(float)
        uncovered[self._reach[:num_nodes, self._origin]] = 0.0
        objects = np.arange(demand.shape[1])
        placing = np.ones(demand.shape[1], dtype=bool)
        for _ in range(rounds):
            gains = reach_t @ uncovered
            gains[chosen] = -1.0
            if self._origin < num_nodes:
                gains[self._origin] = -1.0
            best = np.argmax(gains, axis=0)
            if not self.place_inactive:
                placing &= gains[best, objects] > 0.0
            chosen[best[placing], objects[placing]] = True
            uncovered[reach[:, best] & placing] = 0.0
        return chosen

    def plan_object(self, demand_k: np.ndarray, num_nodes: int) -> Set[int]:
        """Greedy replica locations for one object given its per-node demand."""
        return set(np.flatnonzero(self.plan(demand_k[:, None], num_nodes)[:, 0]).tolist())

    def on_interval(self, index, ctx, past_demand, next_demand) -> None:
        if self.clairvoyant and next_demand is not None:
            demand = next_demand
        else:
            demand = self._windowed_demand(past_demand)
        if float(demand.sum()) <= 0.0 and not self.place_inactive:
            # A window with no observed demand carries no signal; keep the
            # current (possibly adopted) placement instead of dropping it.
            return
        num_nodes = ctx.num_nodes
        chosen = self.plan(demand, num_nodes)
        for ns in range(num_nodes):
            if ns == self._origin:
                continue
            current = ctx.state.contents(ns)
            wanted = set(np.flatnonzero(chosen[ns]).tolist())
            for obj in current - wanted:
                ctx.drop_replica(ns, obj)
            for obj in wanted - current:
                ctx.create_replica(ns, obj)
