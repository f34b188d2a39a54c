"""Continuous (epoch-driven) placement under sustained faults.

The paper evaluates heuristics on a single trace against a fixed workload;
a deployed wide-area system instead runs *continuously*: demand drifts, a
fault storm spans many placement rounds, and each round inherits the
replicas of the previous one.  :func:`run_continuous` models this as a
sequence of epochs:

1. the previous epoch's surviving placement is carried across the boundary
   and *adopted* (no creation cost — those bytes were already paid for),
   shedding the lowest-value replicas first if node capacity shrank;
2. a fresh instance of the heuristic runs the epoch's trace (workload
   drift = a different per-epoch trace, e.g. :mod:`repro.workload.drift`)
   against the epoch's slice of the full fault schedule
   (:meth:`~repro.faults.schedule.FaultSchedule.slice` carries open
   crashes/partitions in);
3. *migration* — replicas present at the epoch's end that were not carried
   in — is accounted in bytes, separately from the serve-side cost the
   paper's model charges (storage + creation + update);
4. each epoch's availability is judged against an optional
   :class:`~repro.faults.slo.AvailabilitySLO`; violating epochs are flagged.

The result aggregates per-epoch reports plus the final placement and its
zone spread, so heuristics can be ranked by the three axes that matter for
continuous operation: serve cost, migration traffic, and SLO compliance.

The loop is factored into a *pure* per-epoch step so long-running callers
can checkpoint at epoch boundaries: :class:`ContinuousState` is the entire
inter-epoch carry (cursor, adopted placement, shed-value demand, reports)
and :func:`step_epoch` maps ``(state, trace) -> state'`` without mutating
its input.  :func:`run_continuous` is the batch driver over that step; the
placement service daemon (:mod:`repro.service.daemon`) is the supervised
one, journaling each post-epoch state so a ``kill -9`` mid-epoch replays
the interrupted epoch deterministically and converges to the same
placements an uninterrupted run produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.slo import AvailabilitySLO, apply_slo
from repro.heuristics.base import PlacementHeuristic
from repro.simulator.engine import SimulationResult, Simulator
from repro.topology.graph import Topology
from repro.workload.trace import Trace


@dataclass
class EpochReport:
    """One epoch's outcome, summarized for manifests and benchmarks."""

    index: int
    serve_cost: float
    migration_bytes: float
    reads: int
    unavailable_reads: int
    availability: float
    qos: float
    slo_violated: bool
    creations: int
    repairs: int
    shed_replicas: int
    placement_size: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "serve_cost": self.serve_cost,
            "migration_bytes": self.migration_bytes,
            "reads": self.reads,
            "unavailable_reads": self.unavailable_reads,
            "availability": self.availability,
            "qos": self.qos,
            "slo_violated": self.slo_violated,
            "creations": self.creations,
            "repairs": self.repairs,
            "shed_replicas": self.shed_replicas,
            "placement_size": self.placement_size,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "EpochReport":
        return EpochReport(
            index=int(payload["index"]),
            serve_cost=float(payload["serve_cost"]),
            migration_bytes=float(payload["migration_bytes"]),
            reads=int(payload["reads"]),
            unavailable_reads=int(payload["unavailable_reads"]),
            availability=float(payload["availability"]),
            qos=float(payload["qos"]),
            slo_violated=bool(payload["slo_violated"]),
            creations=int(payload["creations"]),
            repairs=int(payload["repairs"]),
            shed_replicas=int(payload["shed_replicas"]),
            placement_size=int(payload["placement_size"]),
        )


@dataclass
class ContinuousResult:
    """Aggregate outcome of an epoch-driven run."""

    heuristic: str
    object_size_bytes: float
    slo_target: Optional[float]
    epochs: List[EpochReport] = field(default_factory=list)
    final_placement: List[Tuple[int, int]] = field(default_factory=list)
    final_unique_zones: int = 0
    #: True when the run was stopped early (SIGTERM drain / daemon stop):
    #: the epochs recorded are valid, but the horizon was not completed, so
    #: the result must never be cached under the full task's digest.
    interrupted: bool = False

    @property
    def serve_cost(self) -> float:
        """Paper-model cost (storage + creation + update) summed over epochs."""
        return sum(e.serve_cost for e in self.epochs)

    @property
    def migration_bytes(self) -> float:
        return sum(e.migration_bytes for e in self.epochs)

    @property
    def reads(self) -> int:
        return sum(e.reads for e in self.epochs)

    @property
    def unavailable_reads(self) -> int:
        return sum(e.unavailable_reads for e in self.epochs)

    @property
    def availability(self) -> float:
        issued = self.reads + self.unavailable_reads
        return self.reads / issued if issued else 1.0

    @property
    def worst_epoch_availability(self) -> float:
        return min((e.availability for e in self.epochs), default=1.0)

    @property
    def slo_violation_epochs(self) -> List[int]:
        return [e.index for e in self.epochs if e.slo_violated]

    @property
    def slo_violations(self) -> int:
        return len(self.slo_violation_epochs)

    @property
    def shed_replicas(self) -> int:
        return sum(e.shed_replicas for e in self.epochs)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        return {
            "heuristic": self.heuristic,
            "object_size_bytes": self.object_size_bytes,
            "slo_target": self.slo_target,
            "epochs": [e.to_dict() for e in self.epochs],
            "final_placement": [[int(n), int(o)] for n, o in self.final_placement],
            "final_unique_zones": self.final_unique_zones,
            "interrupted": self.interrupted,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "ContinuousResult":
        return ContinuousResult(
            heuristic=str(payload["heuristic"]),
            object_size_bytes=float(payload["object_size_bytes"]),
            slo_target=(
                None
                if payload.get("slo_target") is None
                else float(payload["slo_target"])
            ),
            epochs=[EpochReport.from_dict(e) for e in payload.get("epochs", [])],
            final_placement=[
                (int(n), int(o)) for n, o in payload.get("final_placement", [])
            ],
            final_unique_zones=int(payload.get("final_unique_zones", 0)),
            interrupted=bool(payload.get("interrupted", False)),
        )

    def __str__(self) -> str:
        text = (
            f"{self.heuristic}: {len(self.epochs)} epochs"
            f"{' (interrupted)' if self.interrupted else ''}, "
            f"serve_cost={self.serve_cost:.1f}, "
            f"migration={self.migration_bytes:.0f}B, "
            f"availability={self.availability:.5f} "
            f"(worst epoch {self.worst_epoch_availability:.5f})"
        )
        if self.slo_target is not None:
            text += (
                f", SLO>={self.slo_target:g}: "
                f"{self.slo_violations}/{len(self.epochs)} epochs violated"
            )
        return text


def shed_to_capacity(
    placement: Sequence[Tuple[int, int]],
    capacity: Optional[int],
    value: Optional[Dict[Tuple[int, int], float]] = None,
) -> Tuple[List[Tuple[int, int]], int]:
    """Trim a carried placement to a per-node replica capacity.

    Over-capacity nodes shed their *lowest-value* replicas (value = the
    previous epoch's read demand for that ``(node, obj)``; ties drop the
    highest object id first for determinism) rather than refusing to start
    — the graceful-degradation half of the epoch handoff.  Returns the kept
    pairs (sorted) and the number shed.
    """
    if capacity is None:
        return sorted(placement), 0
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    per_node: Dict[int, List[int]] = {}
    for node, obj in placement:
        per_node.setdefault(node, []).append(obj)
    kept: List[Tuple[int, int]] = []
    shed = 0
    for node, objs in sorted(per_node.items()):
        if len(objs) <= capacity:
            kept.extend((node, obj) for obj in objs)
            continue
        # Most valuable first; drop the tail beyond capacity.
        ranked = sorted(
            objs,
            key=lambda obj: (-(value or {}).get((node, obj), 0.0), obj),
        )
        kept.extend((node, obj) for obj in ranked[:capacity])
        shed += len(objs) - capacity
    return sorted(kept), shed


def _epoch_demand(trace: Trace) -> Dict[Tuple[int, int], float]:
    """Per-``(node, obj)`` read counts — the shed-value signal."""
    _times, nodes, objects, writes = trace.columns
    keys, counts = np.unique(
        nodes[~writes] * trace.num_objects + objects[~writes], return_counts=True
    )
    return {
        divmod(key, trace.num_objects): float(count)
        for key, count in zip(keys.tolist(), counts.tolist())
    }


@dataclass
class ContinuousState:
    """The complete inter-epoch carry of a continuous run.

    Everything the next :func:`step_epoch` call depends on lives here, so a
    JSON round-trip of this state at an epoch boundary is a *checkpoint*:
    restoring it and replaying the remaining epoch traces (which are
    deterministic in their seed) reproduces the uninterrupted run exactly.
    """

    #: Index of the next epoch to run (== number of epochs completed).
    index: int = 0
    #: Fault-schedule time offset of the next epoch's start.
    offset: float = 0.0
    #: The placement carried out of the last completed epoch.
    carried: List[Tuple[int, int]] = field(default_factory=list)
    #: Last epoch's per-``(node, obj)`` read demand (shed-value signal);
    #: only tracked when a shed capacity is configured.
    prev_demand: Optional[Dict[Tuple[int, int], float]] = None
    #: Display name captured from the first epoch's heuristic.
    heuristic_name: str = ""
    epochs: List[EpochReport] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (checkpoint snapshot / journal record)."""
        return {
            "index": self.index,
            "offset": self.offset,
            "carried": [[int(n), int(o)] for n, o in self.carried],
            "prev_demand": (
                None
                if self.prev_demand is None
                else [[int(n), int(o), float(v)] for (n, o), v in sorted(self.prev_demand.items())]
            ),
            "heuristic_name": self.heuristic_name,
            "epochs": [e.to_dict() for e in self.epochs],
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "ContinuousState":
        prev = payload.get("prev_demand")
        return ContinuousState(
            index=int(payload["index"]),
            offset=float(payload["offset"]),
            carried=[(int(n), int(o)) for n, o in payload.get("carried", [])],
            prev_demand=(
                None
                if prev is None
                else {(int(n), int(o)): float(v) for n, o, v in prev}
            ),
            heuristic_name=str(payload.get("heuristic_name", "")),
            epochs=[EpochReport.from_dict(e) for e in payload.get("epochs", [])],
        )


def step_epoch(
    topology: Topology,
    trace: Trace,
    heuristic_factory: Callable[[], PlacementHeuristic],
    state: ContinuousState,
    tlat_ms: float,
    *,
    faults=None,
    slo: Optional[AvailabilitySLO] = None,
    capacity: Optional[int] = None,
    object_size_bytes: float = 1.0,
    alpha: float = 1.0,
    beta: float = 1.0,
    delta: float = 0.0,
    cost_interval_s: float = 3600.0,
    warmup_s: float = 0.0,
) -> Tuple[ContinuousState, EpochReport, SimulationResult]:
    """Run exactly one epoch; returns ``(new_state, report, sim_result)``.

    Pure with respect to ``state``: the input is not mutated, so a caller
    that crashes mid-step can retry from the same state and get the same
    answer (the trace and the fault-schedule slice are both deterministic).
    ``faults`` is the *full-horizon* schedule — the step slices out its own
    ``[offset, offset + trace.duration_s)`` window, exactly like the batch
    loop always did.
    """
    index = state.index
    epoch_faults = None
    if faults is not None and len(faults) > 0:
        epoch_faults = faults.slice(state.offset, state.offset + trace.duration_s)
    placement, shed = shed_to_capacity(state.carried, capacity, state.prev_demand)
    heuristic = heuristic_factory()
    sim = Simulator(
        topology,
        trace,
        heuristic,
        tlat_ms,
        alpha=alpha,
        beta=beta,
        delta=delta,
        cost_interval_s=cost_interval_s,
        warmup_s=warmup_s if index == 0 else 0.0,
        faults=epoch_faults,
        initial_placement=placement if index > 0 else None,
    )
    result = sim.run()
    if slo is not None:
        apply_slo(result, slo)
    non_origin = [n for n in topology.nodes() if n != topology.origin]
    final = sorted(
        (node, obj) for node in non_origin for obj in sim.state.contents(node)
    )
    migrated = len(set(final) - set(placement if index > 0 else []))
    report = EpochReport(
        index=index,
        serve_cost=result.total_cost,
        migration_bytes=migrated * object_size_bytes,
        reads=result.reads,
        unavailable_reads=result.unavailable_reads,
        availability=result.availability,
        qos=result.qos,
        slo_violated=result.slo_violated,
        creations=result.creations,
        repairs=result.repairs,
        shed_replicas=shed,
        placement_size=len(final),
    )
    new_state = ContinuousState(
        index=index + 1,
        offset=state.offset + trace.duration_s,
        carried=final,
        prev_demand=_epoch_demand(trace) if capacity is not None else None,
        heuristic_name=state.heuristic_name or result.heuristic,
        epochs=state.epochs + [report],
    )
    return new_state, report, result


def finalize_continuous(
    topology: Topology,
    state: ContinuousState,
    *,
    object_size_bytes: float = 1.0,
    slo: Optional[AvailabilitySLO] = None,
    interrupted: bool = False,
) -> ContinuousResult:
    """Package an inter-epoch state as the run's :class:`ContinuousResult`."""
    # The durable origin counts toward spread — it serves like any replica.
    spread_nodes = {topology.origin}
    spread_nodes.update(n for n, _ in state.carried)
    return ContinuousResult(
        heuristic=state.heuristic_name,
        object_size_bytes=object_size_bytes,
        slo_target=None if slo is None else slo.target,
        epochs=list(state.epochs),
        final_placement=list(state.carried),
        final_unique_zones=len(topology.zones_of(spread_nodes)),
        interrupted=interrupted,
    )


#: Process-wide stop predicate consulted by :func:`run_continuous` when the
#: caller passes no explicit ``stop``.  The CLI's signal handlers install a
#: flag check here because the task object itself must stay picklable (a
#: callable field would break the process-pool path).
_GLOBAL_STOP: Optional[Callable[[], bool]] = None


def install_stop_check(fn: Optional[Callable[[], bool]]) -> None:
    """Install (or clear, with None) the process-wide graceful-stop check."""
    global _GLOBAL_STOP
    _GLOBAL_STOP = fn


def run_continuous(
    topology: Topology,
    traces: Sequence[Trace],
    heuristic_factory: Callable[[], PlacementHeuristic],
    tlat_ms: float,
    *,
    faults=None,
    slo: Optional[AvailabilitySLO] = None,
    capacity: Optional[int] = None,
    object_size_bytes: float = 1.0,
    alpha: float = 1.0,
    beta: float = 1.0,
    delta: float = 0.0,
    cost_interval_s: float = 3600.0,
    warmup_s: float = 0.0,
    on_epoch: Optional[Callable[[EpochReport, SimulationResult], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> ContinuousResult:
    """Run one heuristic through a sequence of epoch traces.

    Parameters
    ----------
    traces:
        One trace per epoch, each rebased to start at t=0 (workload drift =
        different traces; see :func:`repro.workload.drift.drifting_traces`).
        All must share the topology's node universe and one object universe.
    heuristic_factory:
        Zero-argument callable producing a *fresh* heuristic instance per
        epoch (heuristics carry private state; reusing one instance would
        leak metadata across the adoption boundary).
    faults:
        Full-horizon :class:`~repro.faults.schedule.FaultSchedule`; each
        epoch consumes its :meth:`~repro.faults.schedule.FaultSchedule.slice`
        with open faults carried in.
    slo:
        Optional per-epoch availability objective; violating epochs are
        flagged on both the epoch report and its SimulationResult.
    capacity:
        Per-node replica cap applied to the *carried* placement at each
        boundary (shed lowest-value first).  The heuristic's own capacity
        limits still apply to what it creates during the epoch.
    object_size_bytes:
        Byte size per replica transfer for migration accounting.
    warmup_s:
        Warm-up window of the *first* epoch only; later epochs inherit a
        warmed system.
    on_epoch:
        Optional callback fired after each epoch (progress reporting).
    stop:
        Optional zero-argument predicate checked *between* epochs (a signal
        handler's flag, typically).  When it returns True the run ends at
        the last completed epoch boundary with ``interrupted=True`` — the
        completed epochs are intact, nothing mid-epoch is lost, and the
        runner layer refuses to cache the partial result.
    """
    if not traces:
        raise ValueError("need at least one epoch trace")
    if object_size_bytes <= 0:
        raise ValueError("object size must be positive")
    num_objects = traces[0].num_objects
    for t in traces:
        if t.num_objects != num_objects:
            raise ValueError("all epoch traces must share one object universe")
    if faults is not None and len(faults) > 0:
        faults.validate_for(topology)

    if stop is None:
        stop = _GLOBAL_STOP
    state = ContinuousState()
    interrupted = False
    for trace in traces:
        if stop is not None and stop():
            interrupted = True
            break
        state, report, result = step_epoch(
            topology,
            trace,
            heuristic_factory,
            state,
            tlat_ms,
            faults=faults,
            slo=slo,
            capacity=capacity,
            object_size_bytes=object_size_bytes,
            alpha=alpha,
            beta=beta,
            delta=delta,
            cost_interval_s=cost_interval_s,
            warmup_s=warmup_s,
        )
        if on_epoch is not None:
            on_epoch(report, result)

    return finalize_continuous(
        topology,
        state,
        object_size_bytes=object_size_bytes,
        slo=slo,
        interrupted=interrupted,
    )
