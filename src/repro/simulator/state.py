"""Replica state and cost tracking during simulation.

:class:`ReplicaState` is the authoritative record of which node holds which
object at the current simulation time.  It integrates storage cost over time
(alpha per object per evaluation-interval-equivalent of wall time) and
counts replica creations (beta each), mirroring the MC-PERF cost function
(1) so simulated heuristic costs are directly comparable to the bounds.

The origin node implicitly stores every object for free and is not tracked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.perf import PERF
from repro.topology.graph import Topology


class ReplicaState:
    """Which node stores which objects, with cost integration.

    Parameters
    ----------
    topology:
        The system; ``topology.origin`` stores everything for free.
    num_objects:
        Object universe size.
    alpha / beta:
        Unit storage (per object per ``interval_s``) and creation costs.
    interval_s:
        The wall-time equivalent of one storage-cost unit (the paper: one
        hour costs 1).
    """

    def __init__(
        self,
        topology: Topology,
        num_objects: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        delta: float = 0.0,
        interval_s: float = 3600.0,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.topology = topology
        self.num_objects = num_objects
        self.alpha = alpha
        self.beta = beta
        self.delta = delta
        self.interval_s = interval_s

        self._held: List[Set[int]] = [set() for _ in topology.nodes()]
        #: Inverse index: per-object holder sets, so ``holders()`` is O(1)
        #: instead of a scan over every node.
        self._holders: List[Set[int]] = [set() for _ in range(num_objects)]
        self._lat = np.asarray(topology.latency, dtype=float)
        #: Nearest-live-replica cache: ``_best[n, k]`` = min latency from n
        #: to the origin or any holder of k (ignoring n's own copy, which
        #: short-circuits to 0 at read time).  Columns validate lazily and
        #: update incrementally on ``create``; ``drop``/faults invalidate.
        self._best = np.empty((topology.num_nodes, num_objects), dtype=float)
        self._best_valid = np.zeros(num_objects, dtype=bool)
        self._since: Dict[Tuple[int, int], float] = {}
        self.storage_cost = 0.0
        self.creation_cost = 0.0
        self.update_cost = 0.0
        self.creations = 0
        self.drops = 0
        #: Per-node peak occupancy and per-object live / peak replica counts,
        #: as plain ints (``peak_occupancy`` and ``max_replicas_per_object``
        #: hand them out as arrays).
        self._peak_occupancy = [0] * topology.num_nodes
        self._replica_counts = [0] * num_objects
        self._max_replicas = [0] * num_objects
        #: Liveness/link state under fault injection; None = fault-free run
        #: (the masking branches below are then skipped entirely).
        self.faults = None

    # -- queries ---------------------------------------------------------------

    def holds(self, node: int, obj: int) -> bool:
        """Whether ``node`` currently stores ``obj`` (origin always does)."""
        if node == self.topology.origin:
            return True
        return obj in self._held[node]

    def holders(self, obj: int) -> Set[int]:
        """All non-origin nodes currently storing ``obj``."""
        return set(self._holders[obj])

    def occupancy(self, node: int) -> int:
        return len(self._held[node])

    def contents(self, node: int) -> Set[int]:
        return set(self._held[node])

    @property
    def peak_occupancy(self) -> np.ndarray:
        """Most objects each node held at once."""
        return np.array(self._peak_occupancy, dtype=np.int64)

    @property
    def max_replicas_per_object(self) -> np.ndarray:
        """Most non-origin replicas each object had at once."""
        return np.array(self._max_replicas, dtype=np.int64)

    # -- mutation -----------------------------------------------------------------

    def create(self, node: int, obj: int, time_s: float) -> bool:
        """Place a replica; returns False (no-op) if already held or at origin.

        Under fault injection a creation on a crashed node also fails (and
        charges nothing) — healing policies retry with backoff.
        """
        if not self._install(node, obj, time_s):
            return False
        self.creations += 1
        self.creation_cost += self.beta
        return True

    def adopt(self, node: int, obj: int, time_s: float) -> bool:
        """Install a replica carried over from a previous run segment.

        Identical to :meth:`create` except that no creation cost (beta) is
        charged and ``creations`` does not advance — the replica was paid
        for when it was first created; an epoch boundary
        (:mod:`repro.simulator.continuous`) merely hands it to the next
        simulator instance.  Storage accrues from ``time_s`` as usual.
        """
        return self._install(node, obj, time_s)

    def _install(self, node: int, obj: int, time_s: float) -> bool:
        """Record a new replica (no cost charged); False if it cannot be."""
        if node == self.topology.origin:
            return False
        held = self._held[node]
        if obj in held:
            return False
        if self.faults is not None and not self.faults.is_alive(node):
            return False
        if not 0 <= obj < self.num_objects:
            raise IndexError(f"object {obj} out of range")
        held.add(obj)
        self._holders[obj].add(node)
        if self._best_valid[obj]:
            # A new holder can only lower latencies: fold its column in.
            np.minimum(self._best[:, obj], self._lat[:, node], out=self._best[:, obj])
        self._since[(node, obj)] = time_s
        if len(held) > self._peak_occupancy[node]:
            self._peak_occupancy[node] = len(held)
        count = self._replica_counts[obj] + 1
        self._replica_counts[obj] = count
        if count > self._max_replicas[obj]:
            self._max_replicas[obj] = count
        return True

    def record_write(self, obj: int) -> float:
        """Charge one update message per current replica (extension (12)).

        Returns the cost charged.  The origin's permanent copy is free, as
        in the bound's accounting.
        """
        if self.delta <= 0:
            return 0.0
        cost = self.delta * float(self._replica_counts[obj])
        self.update_cost += cost
        return cost

    def drop(self, node: int, obj: int, time_s: float) -> bool:
        """Remove a replica, accruing its storage cost.  Returns False if absent."""
        if obj not in self._held[node]:
            return False
        self._held[node].discard(obj)
        self._holders[obj].discard(node)
        # Losing a holder can raise latencies; recompute the column lazily.
        self._best_valid[obj] = False
        start = self._since.pop((node, obj))
        if time_s < start:
            raise ValueError("drop before create")
        self.storage_cost += self.alpha * (time_s - start) / self.interval_s
        self._replica_counts[obj] -= 1
        self.drops += 1
        return True

    def lose_all(self, node: int, time_s: float) -> List[Tuple[int, int]]:
        """Drop every replica held by a crashed node, charging its storage up
        to the crash instant.  Returns the ``(node, obj)`` pairs lost."""
        lost = [(node, obj) for obj in sorted(self._held[node])]
        for _, obj in lost:
            self.drop(node, obj, time_s)
        return lost

    def finalize(self, end_time_s: float) -> None:
        """Accrue storage cost for replicas still held at the end of the run."""
        for (node, obj), start in list(self._since.items()):
            if end_time_s < start:
                raise ValueError("finalize before last create")
            self.storage_cost += self.alpha * (end_time_s - start) / self.interval_s
            self._since[(node, obj)] = end_time_s  # idempotent finalize

    # -- serving ---------------------------------------------------------------------

    def best_latency(
        self, node: int, obj: int, scope: str = "global", holders: Optional[Set[int]] = None
    ) -> float:
        """Lowest access latency for ``node`` to reach ``obj``.

        ``scope="local"`` restricts serving to the node itself plus the
        origin (plain caching); ``"global"`` allows any holder (cooperative
        caching, centralized placement).

        Under fault injection, dead nodes and degraded links are masked out:
        a request from a crashed node, or one partitioned from every replica
        and the origin, gets ``inf`` (an unavailable read).  Requests are
        otherwise served by the closest *surviving* replica or the origin.

        The common path — fault-free, global scope, no explicit candidate
        set — answers from the nearest-live-replica cache in O(1); explicit
        ``holders`` and fault runs take the scan (:meth:`scan_latency`),
        which is also the oracle the cache is cross-checked against in
        tests.
        """
        if self.faults is not None:
            return self._best_latency_faulty(node, obj, scope, holders)
        if scope == "local":
            if self.holds(node, obj):
                return 0.0
            return float(self.topology.latency[node][self.topology.origin])
        if scope != "global":
            raise ValueError(f"unknown routing scope: {scope!r}")
        if holders is not None:
            return self.scan_latency(node, obj, holders=holders)
        PERF.count("sim.serve.fast")
        if not self._best_valid[obj]:
            self._repair_column(obj)
        if node == self.topology.origin or obj in self._held[node]:
            return 0.0
        return float(self._best[node, obj])

    def serve_latencies(self, nodes: np.ndarray, objs: np.ndarray, scope: str) -> np.ndarray:
        """Fault-free :meth:`best_latency` of every read ``(nodes[i], objs[i])``.

        One gather against the current placement: the nearest-replica
        matrix (stale columns repaired first) under global scope, the
        origin column under local scope, and 0 where the node holds the
        object or is the origin.  Global reads count as ``sim.serve.fast``
        exactly as one :meth:`best_latency` call each would.
        """
        if scope == "local":
            latency = self._lat[nodes, self.topology.origin]
        elif scope == "global":
            PERF.count("sim.serve.fast", len(nodes))
            for obj in np.unique(objs[~self._best_valid[objs]]).tolist():
                self._repair_column(obj)
            latency = self._best[nodes, objs]
        else:
            raise ValueError(f"unknown routing scope: {scope!r}")
        held = np.zeros((len(self._held), self.num_objects), dtype=bool)
        for node, objects in enumerate(self._held):
            if objects:
                held[node, list(objects)] = True
        held[self.topology.origin] = True
        latency[held[nodes, objs]] = 0.0
        return latency

    def scan_latency(
        self, node: int, obj: int, holders: Optional[Set[int]] = None
    ) -> float:
        """Full-scan global-scope serve latency (the cache's oracle).

        Identical semantics to the cached path: closest of the origin and
        every (given or current) holder, 0 for a node holding the object.
        """
        PERF.count("sim.serve.scan")
        lat = self.topology.latency
        best = float(lat[node][self.topology.origin])
        candidates = holders if holders is not None else self._holders[obj]
        for m in candidates:
            best = min(best, float(lat[node][m]))
        if self.holds(node, obj):
            best = 0.0
        return best

    def _repair_column(self, obj: int) -> None:
        """Recompute one object's nearest-replica column (vectorized)."""
        PERF.count("sim.cache.repair")
        col = self._best[:, obj]
        np.copyto(col, self._lat[:, self.topology.origin])
        for m in self._holders[obj]:
            np.minimum(col, self._lat[:, m], out=col)
        self._best_valid[obj] = True

    def invalidate_serve_cache(self) -> None:
        """Drop every cached nearest-replica column (fault events call this:
        liveness and link changes shift effective latencies wholesale)."""
        self._best_valid[:] = False

    def _best_latency_faulty(
        self, node: int, obj: int, scope: str, holders: Optional[Set[int]]
    ) -> float:
        """The liveness-masked variant of :meth:`best_latency`."""
        PERF.count("sim.serve.scan")
        faults = self.faults
        if not faults.is_alive(node):
            return float("inf")
        best = faults.lat(node, self.topology.origin)
        if scope == "local":
            if self.holds(node, obj):
                best = 0.0
            return best
        if scope != "global":
            raise ValueError(f"unknown routing scope: {scope!r}")
        candidates = holders if holders is not None else self.holders(obj)
        for m in candidates:
            best = min(best, faults.lat(node, m))
        if self.holds(node, obj):
            best = 0.0
        return best

    def covered(self, node: int, obj: int, tlat_ms: float, scope: str = "global") -> bool:
        """Whether ``node`` can read ``obj`` within the latency threshold."""
        return self.best_latency(node, obj, scope) <= tlat_ms
