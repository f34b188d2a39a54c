"""The trace-replay engine.

Replays a request trace in time order against a placement heuristic:

1. At each period boundary (for periodic heuristics), fire
   ``on_interval`` with the demand of the closed period (and the coming
   period's demand for clairvoyant heuristics).  Boundaries fall at
   ``0, period, 2 period, ...`` accumulated by repeated addition; a read
   at a boundary is served after it fires and counts in the period it
   opens.
2. For each request, measure the latency under the heuristic's routing
   scope *before* letting the heuristic react (a cache miss is a miss even
   though the object is inserted right after), count it against the QoS
   goal, then fire ``on_access``.

Heuristics that do not override ``on_access`` (the centralized periodic
placements) keep their placement fixed between boundaries.  On fault-free
runs the engine therefore serves each period's reads as one gather over
the trace's columns; the result equals the per-request loop's to the
bit.  Everything else takes the per-request loop.

Costs accrue in :class:`~repro.simulator.state.ReplicaState` with the same
units as the MC-PERF objective, so simulated costs are directly comparable
to the computed lower bounds (Figure 2 of the paper).

With a :class:`~repro.faults.schedule.FaultSchedule` the engine additionally
fires fault events in time order between requests: crashed nodes drop their
replicas (storage charged up to the crash instant) and are masked out of
routing, degraded links inflate the effective latency, and the
``on_failure`` / ``on_recovery`` heuristic hooks let placement react.  Reads
with no live path are counted as *unavailable* rather than slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.heuristics.base import PlacementHeuristic
from repro.perf import PERF
from repro.simulator.state import ReplicaState
from repro.topology.graph import Topology
from repro.workload.trace import Trace


@dataclass
class SimulationResult:
    """Measured cost and QoS of a deployed heuristic on a trace."""

    heuristic: str
    storage_cost: float
    creation_cost: float
    update_cost: float
    creations: int
    reads: int
    covered_reads: int
    #: Covered-read fraction per node, over the nodes that issued at least
    #: one served post-warmup read.  Nodes with zero such reads (e.g. down
    #: for the whole run) are *excluded*, not reported as a perfect 1.0.
    qos_per_node: Dict[int, float] = field(default_factory=dict)
    peak_occupancy: Optional[np.ndarray] = None
    max_replicas_per_object: Optional[np.ndarray] = None
    mean_latency_ms: float = 0.0
    # -- availability under fault injection (all zero on fault-free runs) --
    #: Post-warmup reads with no live path to any replica or the origin
    #: (requester crashed, or partitioned from everything).  Excluded from
    #: ``reads`` — QoS is judged on the reads the system could serve.
    unavailable_reads: int = 0
    #: Lost replicas re-replicated by a healing policy.
    repairs: int = 0
    #: Mean loss-to-heal latency over those repairs.
    mean_repair_time_s: float = 0.0
    #: Replica creations performed by healing (included in creation_cost).
    healing_creations: int = 0
    #: Re-replication cost in cost units (healing_creations * beta).
    healing_cost: float = 0.0
    #: Total node-seconds spent down across the run.
    node_downtime_s: float = 0.0
    # -- SLO verdict (stamped by repro.faults.slo.apply_slo; None = unjudged) --
    #: Availability target this run was judged against, if any.
    slo_target: Optional[float] = None
    #: Whether the run's availability fell below ``slo_target``.
    slo_violated: bool = False

    @property
    def total_cost(self) -> float:
        return self.storage_cost + self.creation_cost + self.update_cost

    @property
    def qos(self) -> float:
        """Covered fraction of the reads the system could serve."""
        return self.covered_reads / self.reads if self.reads else 1.0

    @property
    def availability(self) -> float:
        """Fraction of issued post-warmup reads that found a live path."""
        issued = self.reads + self.unavailable_reads
        return self.reads / issued if issued else 1.0

    @property
    def min_node_qos(self) -> float:
        """Worst per-node QoS — what a per-user goal is judged on.

        Nodes that issued zero served reads are excluded (a node that was
        down the whole run must not count as a perfectly-served user).
        """
        return min(self.qos_per_node.values()) if self.qos_per_node else 1.0

    def meets(self, fraction: float, per_user: bool = True) -> bool:
        level = self.min_node_qos if per_user else self.qos
        return level >= fraction - 1e-12

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        from repro.serialize import array_to_jsonable, json_key_pairs

        return {
            "heuristic": self.heuristic,
            "storage_cost": self.storage_cost,
            "creation_cost": self.creation_cost,
            "update_cost": self.update_cost,
            "creations": self.creations,
            "reads": self.reads,
            "covered_reads": self.covered_reads,
            "qos_per_node": json_key_pairs(self.qos_per_node),
            "peak_occupancy": array_to_jsonable(self.peak_occupancy),
            "max_replicas_per_object": array_to_jsonable(self.max_replicas_per_object),
            "mean_latency_ms": self.mean_latency_ms,
            "unavailable_reads": self.unavailable_reads,
            "repairs": self.repairs,
            "mean_repair_time_s": self.mean_repair_time_s,
            "healing_creations": self.healing_creations,
            "healing_cost": self.healing_cost,
            "node_downtime_s": self.node_downtime_s,
            "slo_target": self.slo_target,
            "slo_violated": self.slo_violated,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_dict`."""
        from repro.serialize import array_from_jsonable, int_key_pairs

        return SimulationResult(
            heuristic=str(payload["heuristic"]),
            storage_cost=float(payload["storage_cost"]),
            creation_cost=float(payload["creation_cost"]),
            update_cost=float(payload["update_cost"]),
            creations=int(payload["creations"]),
            reads=int(payload["reads"]),
            covered_reads=int(payload["covered_reads"]),
            qos_per_node=int_key_pairs(payload.get("qos_per_node", {})),
            peak_occupancy=array_from_jsonable(payload.get("peak_occupancy")),
            max_replicas_per_object=array_from_jsonable(
                payload.get("max_replicas_per_object")
            ),
            mean_latency_ms=float(payload.get("mean_latency_ms", 0.0)),
            unavailable_reads=int(payload.get("unavailable_reads", 0)),
            repairs=int(payload.get("repairs", 0)),
            mean_repair_time_s=float(payload.get("mean_repair_time_s", 0.0)),
            healing_creations=int(payload.get("healing_creations", 0)),
            healing_cost=float(payload.get("healing_cost", 0.0)),
            node_downtime_s=float(payload.get("node_downtime_s", 0.0)),
            slo_target=(
                None
                if payload.get("slo_target") is None
                else float(payload["slo_target"])
            ),
            slo_violated=bool(payload.get("slo_violated", False)),
        )

    def __str__(self) -> str:
        text = (
            f"{self.heuristic}: cost={self.total_cost:.1f} "
            f"(storage={self.storage_cost:.1f}, creation={self.creation_cost:.1f}), "
            f"QoS={self.qos:.5f} (worst node {self.min_node_qos:.5f})"
        )
        if self.unavailable_reads or self.node_downtime_s or self.repairs:
            text += (
                f", availability={self.availability:.5f} "
                f"({self.unavailable_reads} unavailable reads, "
                f"{self.repairs} repairs, "
                f"MTTR={self.mean_repair_time_s:.0f}s)"
            )
        if self.slo_target is not None:
            verdict = "VIOLATED" if self.slo_violated else "met"
            text += f", SLO>={self.slo_target:g} {verdict}"
        return text


class SimulationContext:
    """What heuristics see while the trace plays."""

    def __init__(
        self,
        topology: Topology,
        trace: Trace,
        state: ReplicaState,
        tlat_ms: float,
        assignment: Optional[np.ndarray] = None,
        fault_state=None,
        availability=None,
    ):
        self.topology = topology
        self.trace = trace
        self.state = state
        self.tlat_ms = tlat_ms
        self.assignment = assignment
        self.now_s = 0.0
        #: Liveness under fault injection (None on fault-free runs).
        self.fault_state = fault_state
        #: Availability counters (always present; healing policies write here).
        self.availability = availability

    def is_alive(self, node: int) -> bool:
        """Whether ``node`` is up (always True without fault injection)."""
        return self.fault_state is None or self.fault_state.is_alive(node)

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def num_objects(self) -> int:
        return self.trace.num_objects

    def create_replica(self, node: int, obj: int) -> bool:
        return self.state.create(node, obj, self.now_s)

    def drop_replica(self, node: int, obj: int) -> bool:
        return self.state.drop(node, obj, self.now_s)

    def holds(self, node: int, obj: int) -> bool:
        return self.state.holds(node, obj)


class Simulator:
    """Replays a trace against one heuristic.

    Parameters
    ----------
    topology / trace:
        The system and workload.
    heuristic:
        The placement heuristic under test.
    tlat_ms:
        Latency threshold for QoS accounting.
    alpha / beta / delta:
        Storage, creation and per-replica update-message unit costs (match
        the bound's cost model; delta implements extension (12)).
    cost_interval_s:
        Wall time worth one storage-cost unit (paper: 1 hour).
    warmup_s:
        Requests before this time do not count toward QoS (they still warm
        caches and accrue cost) — pair with the bound's ``warmup_intervals``.
    assignment:
        Optional per-site access node (deployment scenario §6.2): a request
        from site s is served through ``assignment[s]``; latency is the
        user-to-assigned-node leg plus the serving leg.
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` consumed in
        time order alongside the trace.  An empty (or absent) schedule takes
        the exact fault-free code path.
    initial_placement:
        Optional ``(node, obj)`` pairs adopted (creation-cost-free) before
        the trace starts — replicas carried across an epoch boundary by
        :mod:`repro.simulator.continuous`.  When given, the heuristic is
        started via ``on_adopt`` instead of ``on_start`` so it inherits the
        pre-existing state instead of assuming an empty system.
    """

    def __init__(
        self,
        topology: Topology,
        trace: Trace,
        heuristic: PlacementHeuristic,
        tlat_ms: float,
        alpha: float = 1.0,
        beta: float = 1.0,
        delta: float = 0.0,
        cost_interval_s: float = 3600.0,
        warmup_s: float = 0.0,
        assignment: Optional[np.ndarray] = None,
        faults=None,
        initial_placement: Optional[List[Tuple[int, int]]] = None,
    ):
        if trace.num_nodes > topology.num_nodes:
            raise ValueError("trace references more nodes than the topology has")
        self.topology = topology
        self.trace = trace
        self.heuristic = heuristic
        self.tlat_ms = tlat_ms
        self.warmup_s = warmup_s
        self.assignment = assignment
        self.state = ReplicaState(
            topology,
            trace.num_objects,
            alpha=alpha,
            beta=beta,
            delta=delta,
            interval_s=cost_interval_s,
        )
        from repro.faults.runtime import AvailabilityStats, FaultState

        self.fault_events = []
        self.fault_state = None
        if faults is not None and len(faults) > 0:
            faults.validate_for(topology)
            self.fault_events = list(faults)
            self.fault_state = FaultState(topology)
            self.state.faults = self.fault_state
        self.initial_placement = initial_placement
        self.stats = AvailabilityStats()
        self.ctx = SimulationContext(
            topology,
            trace,
            self.state,
            tlat_ms,
            assignment,
            fault_state=self.fault_state,
            availability=self.stats,
        )

    # -- serving --------------------------------------------------------------

    def _served_latency(self, node: int, obj: int) -> float:
        """Latency a read sees under the heuristic's routing, during a fault run."""
        scope = self.heuristic.routing
        if self.assignment is None:
            return self.state.best_latency(node, obj, scope)
        access = int(self.assignment[node])
        leg = self.fault_state.lat(node, access)  # inf if the access node is down
        return leg + self.state.best_latency(access, obj, scope)

    # -- fault handling -----------------------------------------------------------

    def _apply_fault(self, event) -> None:
        """Apply one fault event: liveness, replica accounting, hooks."""
        from repro.faults.events import (
            LinkDegrade,
            LinkRestore,
            NodeCrash,
            NodeRecover,
            ReplicaLoss,
        )

        self.ctx.now_s = event.time_s
        self.fault_state.apply(event)
        # Liveness/link changes shift effective latencies wholesale; drop
        # the nearest-replica cache (drops below re-invalidate per column).
        self.state.invalidate_serve_cache()
        if isinstance(event, NodeCrash):
            lost = self.state.lose_all(event.node, event.time_s)
            self.heuristic.on_failure(event, self.ctx, lost)
        elif isinstance(event, ReplicaLoss):
            lost: List[Tuple[int, int]] = []
            if self.state.drop(event.node, event.obj, event.time_s):
                lost = [(event.node, event.obj)]
            self.heuristic.on_failure(event, self.ctx, lost)
        elif isinstance(event, LinkDegrade):
            self.heuristic.on_failure(event, self.ctx, [])
        elif isinstance(event, (NodeRecover, LinkRestore)):
            self.heuristic.on_recovery(event, self.ctx)
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown fault event: {event!r}")

    # -- driving -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        trace = self.trace
        heuristic = self.heuristic
        period = heuristic.period_s
        boundaries = period_boundaries(period, trace.columns[0])
        demands = self._demands(boundaries) if period is not None else None

        if self.initial_placement is not None:
            for node, obj in self.initial_placement:
                self.state.adopt(int(node), int(obj), 0.0)
            heuristic.on_adopt(self.ctx)
        else:
            heuristic.on_start(self.ctx)

        if self.fault_state is None and not acts_on_access(heuristic):
            tally = self._replay_periods(boundaries, demands)
        else:
            tally = self._replay_requests(boundaries, demands)
        reads, covered, lat_sum, qos_per_node = tally

        fstate = self.fault_state
        self.ctx.now_s = trace.duration_s
        if fstate is not None:
            fstate.finalize(trace.duration_s)
        self.state.finalize(trace.duration_s)

        stats = self.stats
        return SimulationResult(
            heuristic=heuristic.describe(),
            storage_cost=self.state.storage_cost,
            creation_cost=self.state.creation_cost,
            update_cost=self.state.update_cost,
            creations=self.state.creations,
            reads=reads,
            covered_reads=covered,
            qos_per_node=qos_per_node,
            peak_occupancy=self.state.peak_occupancy,
            max_replicas_per_object=self.state.max_replicas_per_object,
            mean_latency_ms=lat_sum / reads if reads else 0.0,
            unavailable_reads=stats.unavailable_reads,
            repairs=stats.repairs,
            mean_repair_time_s=(
                stats.repair_time_s / stats.repairs if stats.repairs else 0.0
            ),
            healing_creations=stats.healing_creations,
            healing_cost=stats.healing_creations * self.state.beta,
            node_downtime_s=fstate.node_downtime_s if fstate is not None else 0.0,
        )

    def _demands(self, boundaries: List[float]) -> np.ndarray:
        """Read counts per period, ``(len(boundaries) + 1, N, K)``.

        Row ``p + 1`` counts the reads served between boundary ``p`` and
        the next one, so a read at a boundary belongs to the period that
        boundary opens; row 0 is period 0's empty past.
        """
        trace = self.trace
        times, nodes, objs, writes = trace.columns
        reads = ~writes
        row = np.searchsorted(boundaries, times[reads], side="right")
        shape = (len(boundaries) + 1, trace.num_nodes, trace.num_objects)
        counts = np.bincount(
            (row * shape[1] + nodes[reads]) * shape[2] + objs[reads],
            minlength=shape[0] * shape[1] * shape[2],
        )
        return counts.reshape(shape).astype(np.float64)

    def _fire_boundary(self, index: int, boundaries: List[float], demands: np.ndarray) -> None:
        """``on_interval`` for the period that starts at ``boundaries[index]``."""
        heuristic = self.heuristic
        nxt = demands[index + 1] if heuristic.clairvoyant else None
        self.ctx.now_s = boundaries[index]
        heuristic.on_interval(index, self.ctx, demands[index], nxt)

    def _replay_periods(self, boundaries: List[float], demands: Optional[np.ndarray]):
        """Serve each period's reads in one gather.

        Fault-free runs of a heuristic that acts only at boundaries: its
        placement is fixed between two boundaries, so every read of a
        period sees the same replicas.  Counts and sums are taken in trace
        order, so the result equals the per-request loop's to the bit.
        """
        times, nodes, objs, writes = self.trace.columns
        state = self.state
        at = np.flatnonzero(~writes)
        r_nodes, r_objs = nodes[at], objs[at]
        # Period i's requests are served after boundary i fires and before
        # boundary i + 1 does (a request at a boundary comes after it).
        cuts = [0, *np.searchsorted(times[at], boundaries).tolist(), len(at)]
        w_at = np.flatnonzero(writes) if state.delta > 0 else at[:0]
        w_objs = objs[w_at].tolist()
        w_cuts = [0, *np.searchsorted(times[w_at], boundaries).tolist(), len(w_at)]
        access = None if self.assignment is None else np.asarray(self.assignment, dtype=np.int64)
        latency = np.empty(len(at))
        for period in range(len(boundaries) + 1):
            if period:
                self._fire_boundary(period - 1, boundaries, demands)
            lo, hi = cuts[period], cuts[period + 1]
            if hi > lo:
                scope = self.heuristic.routing
                node, obj = r_nodes[lo:hi], r_objs[lo:hi]
                if access is None:
                    latency[lo:hi] = state.serve_latencies(node, obj, scope)
                else:
                    via = access[node]
                    latency[lo:hi] = self.topology.latency[node, via] + state.serve_latencies(
                        via, obj, scope
                    )
            for obj in w_objs[w_cuts[period] : w_cuts[period + 1]]:
                state.record_write(obj)

        counted = times[at] >= self.warmup_s
        live = np.isfinite(latency)
        self.stats.unavailable_reads += int(np.count_nonzero(counted & ~live))
        counted &= live
        latency, who = latency[counted], r_nodes[counted]
        hit = latency <= self.tlat_ms
        # The loop's running sum: from 0.0, left to right.
        lat_sum = float(np.cumsum(np.concatenate(([0.0], latency)))[-1])
        seen, first = np.unique(who, return_index=True)
        per_node = np.bincount(who, minlength=self.trace.num_nodes).tolist()
        per_node_hits = np.bincount(who[hit], minlength=self.trace.num_nodes).tolist()
        qos_per_node = {
            n: per_node_hits[n] / per_node[n] for n in seen[np.argsort(first)].tolist()
        }
        return len(latency), int(np.count_nonzero(hit)), lat_sum, qos_per_node

    def _replay_requests(self, boundaries: List[float], demands: Optional[np.ndarray]):
        """Serve one request at a time, firing ``on_access`` after each.

        Fault events and period boundaries fire in time order between
        requests (faults first on ties, so placement decisions see the
        post-fault world).  Fault-free serves read the nearest-replica
        cache inline and count as ``sim.serve.fast`` once, at the end.
        """
        trace = self.trace
        heuristic = self.heuristic
        ctx = self.ctx
        state = self.state
        fstate = self.fault_state
        fevents = self.fault_events
        stats = self.stats
        warmup_s = self.warmup_s
        tlat_ms = self.tlat_ms
        inf = math.inf

        origin = self.topology.origin
        held = state._held
        best = state._best
        valid = state._best_valid
        to_origin = self.topology.latency[:, origin].tolist()
        access = leg = None
        if self.assignment is not None:
            access = [int(a) for a in self.assignment]
            leg = [float(self.topology.latency[n][a]) for n, a in enumerate(access)]
        fast = 0

        reads = 0
        covered = 0
        lat_sum = 0.0
        per_node_reads: Dict[int, int] = {}
        per_node_covered: Dict[int, int] = {}
        fi = 0
        bi = 0
        fault_t = fevents[0].time_s if fevents else inf
        boundary_t = boundaries[0] if boundaries else inf

        times, nodes, objs, writes = trace.columns
        for req, t, node, obj, is_write in zip(
            trace.requests, times.tolist(), nodes.tolist(), objs.tolist(), writes.tolist()
        ):
            while fault_t <= t or boundary_t <= t:
                if fault_t <= boundary_t:
                    self._apply_fault(fevents[fi])
                    fi += 1
                    fault_t = fevents[fi].time_s if fi < len(fevents) else inf
                else:
                    self._fire_boundary(bi, boundaries, demands)
                    bi += 1
                    boundary_t = boundaries[bi] if bi < len(boundaries) else inf

            ctx.now_s = t
            if fstate is not None and not fstate.is_alive(node):
                # The requesting site is down: its users see the outage, not
                # a slow read.  The request is never issued to the system.
                if not is_write and t >= warmup_s:
                    stats.unavailable_reads += 1
                continue
            if is_write:
                state.record_write(obj)
                heuristic.on_access(req, 0.0, ctx)
                continue
            if fstate is not None:
                latency = self._served_latency(node, obj)
            else:
                via = node if access is None else access[node]
                scope = heuristic.routing
                if scope == "global":
                    fast += 1
                    if not valid[obj]:
                        state._repair_column(obj)
                    latency = 0.0 if via == origin or obj in held[via] else best.item(via, obj)
                elif scope == "local":
                    latency = 0.0 if via == origin or obj in held[via] else to_origin[via]
                else:
                    raise ValueError(f"unknown routing scope: {scope!r}")
                if leg is not None:
                    latency = leg[node] + latency
            if latency == inf:
                # Alive but partitioned from every replica and the origin.
                if t >= warmup_s:
                    stats.unavailable_reads += 1
                continue  # nothing was fetched; the heuristic sees nothing
            if t >= warmup_s:
                reads += 1
                lat_sum += latency
                per_node_reads[node] = per_node_reads.get(node, 0) + 1
                if latency <= tlat_ms:
                    covered += 1
                    per_node_covered[node] = per_node_covered.get(node, 0) + 1
            heuristic.on_access(req, latency, ctx)

        if fast:
            PERF.count("sim.serve.fast", fast)
        # Trailing fault events (after the last request) still count for
        # downtime and storage accounting.
        while fi < len(fevents) and fevents[fi].time_s <= trace.duration_s:
            self._apply_fault(fevents[fi])
            fi += 1
        qos_per_node = {
            n: per_node_covered.get(n, 0) / cnt for n, cnt in per_node_reads.items()
        }
        return reads, covered, lat_sum, qos_per_node


def period_boundaries(period_s: Optional[float], times: np.ndarray) -> List[float]:
    """The period boundaries a replay fires, in order.

    ``0, period, 2 period, ...`` accumulated by repeated addition, up to
    the last request's time: none for a non-periodic heuristic or an empty
    trace, and none after the last request.
    """
    boundaries: List[float] = []
    if period_s is None or len(times) == 0:
        return boundaries
    last = times[-1]
    boundary = 0.0
    while boundary <= last:
        boundaries.append(boundary)
        boundary += period_s
    return boundaries


def acts_on_access(heuristic: PlacementHeuristic) -> bool:
    """Whether ``heuristic`` overrides :meth:`PlacementHeuristic.on_access`.

    One that does not changes placement only at period boundaries (and on
    fault hooks), so a fault-free replay may serve a period at a time.
    """
    return type(heuristic).on_access is not PlacementHeuristic.on_access


def simulate(
    topology: Topology,
    trace: Trace,
    heuristic: PlacementHeuristic,
    tlat_ms: float,
    **kwargs,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(topology, trace, heuristic, tlat_ms, **kwargs).run()
