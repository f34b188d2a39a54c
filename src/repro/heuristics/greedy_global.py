"""Greedy global placement (storage-constrained, Kangasharju-style [4]).

A centralized heuristic that runs periodically: given the demand observed in
the last period and a fixed per-node storage capacity, it greedily fills the
caches with the placements that cover the most demand within the latency
threshold (global routing — a replica anywhere within the threshold serves a
node).  This is the paper's recommended heuristic for the WEB workload.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.heuristics.base import PlacementHeuristic


class GreedyGlobalPlacement(PlacementHeuristic):
    """Periodic storage-constrained greedy placement.

    Parameters
    ----------
    capacity:
        Objects each node may store.
    period_s:
        Re-placement period (paper configurations: hourly).
    tlat_ms:
        Latency threshold used for coverage decisions; taken from the
        simulation context at start when omitted.
    clairvoyant:
        Plan with the coming period's demand instead of the last one
        (prefetching/proactive variant).
    history_window:
        How many past periods of demand to plan with; ``None`` (default)
        accumulates all history — the Table-3 storage-constrained class has
        multi-interval history.  ``1`` reacts to the last period only.
    """

    routing = "global"

    def __init__(
        self,
        capacity: int,
        period_s: float = 3600.0,
        tlat_ms: Optional[float] = None,
        clairvoyant: bool = False,
        history_window: Optional[int] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if period_s <= 0:
            raise ValueError("period must be positive")
        if history_window is not None and history_window < 1:
            raise ValueError("history_window must be >= 1 (or None for all history)")
        self.capacity = capacity
        self.period_s = period_s
        self.tlat_ms = tlat_ms
        self.clairvoyant = clairvoyant
        self.history_window = history_window
        self._history: List[np.ndarray] = []
        self._last_demand: Optional[np.ndarray] = None

    def describe(self) -> str:
        kind = "proactive" if self.clairvoyant else "reactive"
        hist = "all" if self.history_window is None else str(self.history_window)
        return f"GreedyGlobal(capacity={self.capacity}, {kind}, hist={hist})"

    def on_start(self, ctx) -> None:
        if self.tlat_ms is None:
            self.tlat_ms = ctx.tlat_ms
        self._reach = (ctx.topology.latency <= self.tlat_ms).astype(bool)
        self._origin = ctx.topology.origin
        self._history = []
        self._last_demand = None

    def on_adopt(self, ctx) -> None:
        """Take over mid-run keeping the accumulated demand history.

        Pre-existing replicas (placed by a predecessor or a healing policy)
        are reconciled at the next period boundary's re-placement.
        """
        history = self._history
        last = self._last_demand
        self.on_start(ctx)
        self._history = history
        self._last_demand = last

    def _windowed_demand(self, past_demand: np.ndarray) -> np.ndarray:
        """Demand summed over the configured history window."""
        self._history.append(past_demand)
        if self.history_window is not None:
            self._history = self._history[-self.history_window :]
        return np.sum(self._history, axis=0)

    # -- the greedy core ---------------------------------------------------------

    def plan(self, demand: np.ndarray, num_nodes: int) -> List[Set[int]]:
        """Choose per-node contents for one period.

        Greedily adds the placement with the largest uncovered demand gain
        until caches are full or no placement helps, then pads remaining
        capacity with the locally hottest objects (a full cache costs the
        same and can only help).
        """
        placements: List[Set[int]] = [set() for _ in range(num_nodes)]
        if self.capacity == 0:
            return placements
        reach = self._reach[:num_nodes, :num_nodes]
        reach_t = reach.T.astype(float)
        uncovered = demand.astype(float)
        # Demand already satisfied by the origin is not worth replicating for.
        uncovered[self._reach[:num_nodes, self._origin]] = 0.0
        # gains[ns, k]: demand newly covered by placing k at ns.
        gains = reach_t @ uncovered
        room = np.full(num_nodes, self.capacity)
        open_nodes = [ns for ns in range(num_nodes) if ns != self._origin]
        if self._origin < num_nodes:
            room[self._origin] = 0
        # A full node's gains are -inf, so it is never picked, and ``top``
        # holds each node's largest gain.  A pick only lowers column k, so
        # only the rows whose maximum may sit in that column are re-reduced.
        gains[room <= 0] = -np.inf
        top = gains.max(axis=1)
        while True:
            # The first node holding the largest gain, then its first object.
            ns = int(top.argmax())
            if top[ns] <= 0.0:
                break
            k = int(gains[ns].argmax())
            placements[ns].add(k)
            room[ns] -= 1
            column = gains[:, k]
            stale = column >= top
            # Demand of k at nodes now covered by ns stops contributing.
            delta = uncovered[:, k] * reach_t[ns]
            if delta.any():
                uncovered[:, k] -= delta
                column -= reach_t @ delta
            column[ns] = 0.0
            if room[ns] <= 0:
                gains[ns] = -np.inf
            rows = stale.nonzero()[0]
            top[rows] = gains[rows].max(axis=1)

        # Pad with locally hottest objects — capacity is paid for anyway.
        order = np.argsort(-demand, axis=1)
        for ns in open_nodes:
            for k in order[ns]:
                if len(placements[ns]) >= self.capacity:
                    break
                if demand[ns][k] <= 0:
                    break
                placements[ns].add(int(k))
        return placements

    def on_interval(self, index, ctx, past_demand, next_demand) -> None:
        if self.clairvoyant and next_demand is not None:
            demand = next_demand
        else:
            demand = self._windowed_demand(past_demand)
        if float(demand.sum()) <= 0.0:
            # A window with no observed demand carries no signal; keep the
            # current (possibly adopted) placement instead of dropping it.
            return
        self._last_demand = demand
        self._apply_plan(ctx, demand)

    def on_recovery(self, event, ctx) -> None:
        """Refill a recovered node immediately instead of waiting a period."""
        from repro.faults.events import NodeRecover

        if isinstance(event, NodeRecover) and self._last_demand is not None:
            self._apply_plan(ctx, self._last_demand)

    def _apply_plan(self, ctx, demand: np.ndarray) -> None:
        placements = self.plan(demand, ctx.num_nodes)
        for ns in range(ctx.num_nodes):
            if ns == self._origin:
                continue
            current = ctx.state.contents(ns)
            target = placements[ns]
            for obj in current - target:
                ctx.drop_replica(ns, obj)
            for obj in target - current:
                ctx.create_replica(ns, obj)
