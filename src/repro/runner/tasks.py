"""Picklable task units for the experiment runner.

The paper's methodology is a grid of independent computations: one LP bound
(+ rounding) per (heuristic class x QoS level), one trace replay per
simulated heuristic.  Each grid cell becomes a :class:`BoundTask` or
:class:`SimulateTask` — a frozen, picklable value object that

* computes its own content-addressed ``cache_key()``,
* knows how to ``run()`` itself inside any process (serial or a
  ``ProcessPoolExecutor`` worker), and
* encodes/decodes its result for the on-disk cache and run artifacts.

Formulation reuse across sweep levels (the RHS-only re-targeting of
:meth:`~repro.core.formulation.Formulation.set_qos_fraction`) survives the
move into worker processes through a small per-process memo: tasks that share
a ``reuse_key()`` (same problem modulo QoS fraction, same class) are chunked
onto the same worker by the scheduler, and the first task's formulation is
re-targeted for the rest — exactly the single-process fast path the sweeps
always used.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from repro.core.bounds import LowerBoundResult, compute_lower_bound
from repro.core.costs import CostModel
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties
from repro.runner.digest import digest_of
from repro.simulator.engine import SimulationResult, simulate
from repro.topology.graph import Topology
from repro.workload.trace import Trace

#: Per-process formulation memo: reuse_key -> Formulation.  Bounded because a
#: formulation holds the full LP and its retained HiGHS instance; chunks run
#: one reuse group at a time, so one entry captures every reuse the schedule
#: allows.  The scheduler clears it before every chunk
#: (:func:`clear_formulations`), so a chunk's first solve is always cold.
_FORMULATIONS: "OrderedDict[str, object]" = OrderedDict()
_FORMULATION_CAPACITY = 1


def clear_formulations() -> None:
    """Forget every memoized formulation.

    A chunk's results must not depend on what its process solved before:
    a memo entry left by an earlier ``map()`` (or inherited by a forked
    worker) would hot-start the chunk's first task from another level's
    basis, and a degenerate LP can then land on a different optimal vertex.
    """
    _FORMULATIONS.clear()


def _memoize_formulation(key: str, form: object) -> None:
    _FORMULATIONS[key] = form
    _FORMULATIONS.move_to_end(key)
    while len(_FORMULATIONS) > _FORMULATION_CAPACITY:
        _FORMULATIONS.popitem(last=False)


@dataclass(frozen=True)
class BoundTask:
    """One lower-bound computation: LP solve (+ optional rounding).

    ``properties=None`` computes the general bound.  The QoS level lives in
    ``problem.goal.fraction`` — sweeps materialize one task per (class,
    level) with :func:`dataclasses.replace`-d goals.
    """

    problem: MCPerfProblem
    properties: Optional[HeuristicProperties] = None
    do_rounding: bool = True
    run_length: bool = False
    backend: str = "auto"
    diagnose: bool = False
    #: Allow RHS-only formulation reuse across tasks sharing ``reuse_key()``.
    reuse_formulation: bool = False
    #: Display name for artifacts/reports; not part of the cache key.
    label: str = ""
    #: Audit mode ("off"/"fast"/"full"; None reads ``REPRO_AUDIT``).
    #: Deliberately *not* part of the cache key: auditing verifies a result,
    #: it never changes one, so an audited and an unaudited run must share
    #: cache entries.  Cache hits are re-certified via :meth:`audit_cached`.
    audit: Optional[str] = None
    #: Warm-start hint for the LP solve (:class:`~repro.lp.basis.Basis` or
    #: a previous :class:`~repro.lp.solution.LPSolution`).  Like ``audit``,
    #: not part of the cache key: a warm start accelerates a solve, it never
    #: changes the optimum.  The service daemon threads its per-class basis
    #: store through here (``dataclasses.replace(task, warm_basis=...)``).
    warm_basis: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    kind = "bound"

    def cache_key(self) -> str:
        return digest_of(
            "bound-task",
            self._problem_key,
            self.problem.goal,
            self.properties,
            self.do_rounding,
            self.run_length,
            self.backend,
            self.diagnose,
        )

    def reuse_key(self) -> Optional[str]:
        """Group key for formulation sharing; None when reuse is impossible.

        Only the QoS fraction may differ inside a group — everything else
        (topology, demand, scope, threshold, costs, class) is part of the
        key, matching what :meth:`Formulation.set_qos_fraction` can re-target.
        Cached in ``__dict__`` across pickling.
        """
        return self._reuse_key

    @cached_property
    def _problem_key(self) -> str:
        """Digest of the problem without its goal: the one walk of the
        topology and demand both keys derive from, cached in ``__dict__``
        across pickling."""
        fields = dataclasses.fields(self.problem)
        return digest_of(
            "problem",
            {f.name: getattr(self.problem, f.name) for f in fields if f.name != "goal"},
        )

    @cached_property
    def _reuse_key(self) -> Optional[str]:
        goal = self.problem.goal
        if not self.reuse_formulation or not isinstance(goal, QoSGoal):
            return None
        return digest_of(
            "formulation", self._problem_key, dataclasses.replace(goal, fraction=1.0),
            self.properties,
        )

    def run(self) -> LowerBoundResult:
        problem = self.problem
        form = None
        reuse_key = self.reuse_key()
        if reuse_key is not None:
            from repro.core.formulation import build_formulation

            form = _FORMULATIONS.get(reuse_key)
            if form is None:
                form = build_formulation(problem, self.properties)
                _memoize_formulation(reuse_key, form)
            else:
                _FORMULATIONS.move_to_end(reuse_key)
                form.set_qos_fraction(problem.goal.fraction)
            problem = form.problem
        from repro.audit import resolve_mode

        # Full-mode violations carry the task's content digest, so a flagged
        # cell is traceable to its exact cached artifact.
        audit_subject = self.cache_key() if resolve_mode(self.audit) == "full" else ""
        return compute_lower_bound(
            problem,
            self.properties,
            do_rounding=self.do_rounding,
            run_length=self.run_length,
            backend=self.backend,
            formulation=form,
            diagnose=self.diagnose,
            audit=self.audit,
            audit_subject=audit_subject,
            warm_start=self.warm_basis,
        )

    def audit_cached(self, result: LowerBoundResult, key: str = ""):
        """Artifact-level re-certification of a cache-served result.

        Returns an :class:`~repro.audit.report.AuditReport` (None when
        auditing is off).  The scheduler treats a failing report as a cache
        miss: the entry is quarantined and the cell re-solved.
        """
        from repro.audit import audit_bound_result, resolve_mode

        mode = resolve_mode(self.audit)
        if mode == "off":
            return None
        return audit_bound_result(
            self.problem, self.properties, result,
            mode=mode, subject=key or self.label,
        )

    def describe(self) -> Dict[str, object]:
        """Manifest metadata enabling post-hoc auditing (``repro audit``).

        Records the class name (matched against the Table-3 registry), the
        goal level and everything needed to rebuild the problem against the
        original topology/workload inputs.
        """
        from repro.core.classes import STANDARD_CLASSES

        props = self.properties or HeuristicProperties()
        cls = None
        for candidate in STANDARD_CLASSES.values():
            if candidate.properties == props:
                cls = candidate.name
                break
        goal = self.problem.goal
        meta: Dict[str, object] = {
            "class": cls,
            "scope": goal.scope.value,
            "tlat_ms": goal.tlat_ms,
            "intervals": self.problem.demand.num_intervals,
            "warmup": self.problem.warmup_intervals,
            "backend": self.backend,
            "do_rounding": self.do_rounding,
        }
        if isinstance(goal, QoSGoal):
            meta["qos"] = goal.fraction
        else:
            meta["tavg_ms"] = goal.tavg_ms
        costs = self.problem.costs
        for name in ("alpha", "beta", "gamma", "delta", "zeta"):
            meta[name] = getattr(costs, name)
        return meta

    @staticmethod
    def encode(result: LowerBoundResult) -> Dict[str, object]:
        return result.to_dict()

    @staticmethod
    def decode(payload: Dict[str, object]) -> LowerBoundResult:
        return LowerBoundResult.from_dict(payload)


@dataclass(frozen=True)
class HeuristicSpec:
    """A deployable heuristic as data, so simulate tasks stay picklable.

    Mirrors the CLI's heuristic surface (name + sizing knobs + optional
    healing wrapper); ``build()`` materializes the stateful heuristic inside
    the process that will run the replay.
    """

    name: str
    capacity: int = 10
    replicas: int = 2
    period_s: Optional[float] = None
    tlat_ms: float = 150.0
    heal: bool = False
    heal_copies: int = 2
    #: Zone-spread floor for the healing wrapper (1 = off).
    heal_zones: int = 1
    #: Healing creations per hour of simulated time (None = unlimited).
    heal_budget: Optional[int] = None

    def build(self):
        from repro.heuristics import (
            CooperativeLRUCaching,
            GreedyGlobalPlacement,
            LFUCaching,
            LRUCaching,
            QiuGreedyPlacement,
            RandomPlacement,
        )

        if self.name == "lru":
            heuristic = LRUCaching(self.capacity)
        elif self.name == "lfu":
            heuristic = LFUCaching(self.capacity)
        elif self.name == "coop-lru":
            heuristic = CooperativeLRUCaching(self.capacity)
        elif self.name == "greedy-global":
            heuristic = GreedyGlobalPlacement(
                self.capacity, period_s=self.period_s, tlat_ms=self.tlat_ms
            )
        elif self.name == "qiu":
            heuristic = QiuGreedyPlacement(
                self.replicas, period_s=self.period_s, tlat_ms=self.tlat_ms
            )
        elif self.name == "random":
            heuristic = RandomPlacement(self.replicas, period_s=self.period_s)
        else:
            raise ValueError(f"unknown heuristic {self.name!r}")
        if self.heal:
            from repro.faults import HealingPolicy

            heuristic = HealingPolicy(
                heuristic,
                copies=self.heal_copies,
                min_unique_zones=self.heal_zones,
                repair_budget=self.heal_budget,
            )
        return heuristic


@dataclass(frozen=True)
class SimulateTask:
    """One trace replay of a heuristic (optionally under injected faults).

    Faults stay in their CLI spec-string form; the schedule is generated
    deterministically from ``fault_seed`` inside ``run()``, so the task
    pickles small and replays identically everywhere.
    """

    topology: Topology
    trace: Trace
    heuristic: HeuristicSpec
    tlat_ms: float = 150.0
    warmup_s: float = 0.0
    cost_interval_s: float = 3600.0
    alpha: float = 1.0
    beta: float = 1.0
    faults: Optional[str] = None
    fault_seed: int = 0
    label: str = ""
    #: Audit mode; see :class:`BoundTask.audit` (not part of the cache key).
    audit: Optional[str] = None

    kind = "simulate"

    def cache_key(self) -> str:
        return digest_of(
            "simulate-task",
            self.topology,
            self.trace,
            self.heuristic,
            self.tlat_ms,
            self.warmup_s,
            self.cost_interval_s,
            self.alpha,
            self.beta,
            self.faults,
            self.fault_seed,
        )

    def reuse_key(self) -> Optional[str]:
        return None

    def run(self) -> SimulationResult:
        schedule = None
        if self.faults:
            from repro.faults import parse_faults

            schedule = parse_faults(
                self.faults,
                num_nodes=self.topology.num_nodes,
                num_objects=self.trace.num_objects,
                duration_s=self.trace.duration_s,
                origin=self.topology.origin,
                seed=self.fault_seed,
                zones=self.topology.zones,
            )
            schedule.validate_for(self.topology)
        return simulate(
            self.topology,
            self.trace,
            self.heuristic.build(),
            tlat_ms=self.tlat_ms,
            warmup_s=self.warmup_s,
            cost_interval_s=self.cost_interval_s,
            alpha=self.alpha,
            beta=self.beta,
            faults=schedule,
        )

    def audit_cached(self, result: SimulationResult, key: str = ""):
        """Consistency re-check of a cache-served replay (None when off)."""
        from repro.audit import audit_sim_result, resolve_mode

        mode = resolve_mode(self.audit)
        if mode == "off":
            return None
        return audit_sim_result(result, mode=mode, subject=key or self.label)

    def describe(self) -> Dict[str, object]:
        """Manifest metadata for the post-hoc sim-gate (``repro audit``)."""
        return {
            "heuristic": self.heuristic.name,
            "tlat_ms": self.tlat_ms,
            "warmup_s": self.warmup_s,
            "alpha": self.alpha,
            "beta": self.beta,
            "faults": self.faults,
        }

    @staticmethod
    def summarize(result: SimulationResult) -> Dict[str, object]:
        """Availability digest the manifest aggregates (``availability`` block)."""
        return {
            "availability": result.availability,
            "unavailable_reads": result.unavailable_reads,
            "slo_target": result.slo_target,
            "slo_violations": 1 if result.slo_violated else 0,
        }

    @staticmethod
    def encode(result: SimulationResult) -> Dict[str, object]:
        return result.to_dict()

    @staticmethod
    def decode(payload: Dict[str, object]) -> SimulationResult:
        return SimulationResult.from_dict(payload)


@dataclass(frozen=True)
class ContinuousTask:
    """One epoch-driven continuous-placement run (drift + faults + SLO).

    The workload is synthesized *inside* ``run()`` from the drift
    parameters (deterministic in ``workload_seed``), and the fault spec
    string is parsed over the full ``epochs * epoch_s`` horizon with the
    topology's zone map — so the task pickles small and replays identically
    everywhere, exactly like :class:`SimulateTask`.
    """

    topology: Topology
    heuristic: HeuristicSpec
    epochs: int = 4
    epoch_s: float = 3600.0
    requests_per_epoch: int = 2000
    num_objects: int = 64
    drift: float = 0.25
    zipf_exponent: float = 0.9
    workload_seed: int = 0
    #: Optional workload-emulation spec (:func:`repro.workload.emulate.
    #: parse_emulation` grammar, e.g. ``"diurnal:amp=0.5;flashcrowd:
    #: start=2,end=3,obj=0,mult=8"``).  When set, traces come from
    #: :func:`~repro.workload.emulate.emulated_traces` layered on the same
    #: drift substreams; when None, plain :func:`~repro.workload.drift.
    #: drifting_traces`.
    workload: Optional[str] = None
    tlat_ms: float = 150.0
    warmup_s: float = 0.0
    cost_interval_s: float = 3600.0
    alpha: float = 1.0
    beta: float = 1.0
    faults: Optional[str] = None
    fault_seed: int = 0
    #: Per-epoch availability SLO target (None = unjudged).
    slo: Optional[float] = None
    #: Per-node cap applied to carried placements at epoch boundaries.
    shed_capacity: Optional[int] = None
    object_size_bytes: float = 1.0
    label: str = ""
    #: Audit mode; see :class:`BoundTask.audit` (not part of the cache key).
    audit: Optional[str] = None

    kind = "continuous"

    def __post_init__(self) -> None:
        # The serve cost and every bound query price with these: refuse a
        # non-finite one here, by name, as the cost model does.
        CostModel(alpha=self.alpha, beta=self.beta)

    def cache_key(self) -> str:
        return digest_of(
            "continuous-task",
            self.topology,
            self.heuristic,
            self.epochs,
            self.epoch_s,
            self.requests_per_epoch,
            self.num_objects,
            self.drift,
            self.zipf_exponent,
            self.workload_seed,
            self.workload,
            self.tlat_ms,
            self.warmup_s,
            self.cost_interval_s,
            self.alpha,
            self.beta,
            self.faults,
            self.fault_seed,
            self.slo,
            self.shed_capacity,
            self.object_size_bytes,
        )

    def reuse_key(self) -> Optional[str]:
        return None

    def materialize(self):
        """``(traces, schedule, slo)`` deterministically from the task's fields.

        The placement-service daemon steps epochs itself (checkpointing at
        each boundary), so the workload/fault materialization is factored
        out of :meth:`run` — both paths must see byte-identical inputs for
        crash recovery to converge on the batch run's placements.
        """
        from repro.faults import AvailabilitySLO, parse_faults
        from repro.workload.drift import drifting_traces

        duration_s = self.epochs * self.epoch_s
        schedule = None
        if self.faults:
            schedule = parse_faults(
                self.faults,
                num_nodes=self.topology.num_nodes,
                num_objects=self.num_objects,
                duration_s=duration_s,
                origin=self.topology.origin,
                seed=self.fault_seed,
                zones=self.topology.zones,
            )
            schedule.validate_for(self.topology)
        if self.workload:
            from repro.workload.emulate import emulated_traces

            traces = emulated_traces(
                self.topology.num_nodes,
                self.num_objects,
                epochs=self.epochs,
                epoch_s=self.epoch_s,
                requests_per_epoch=self.requests_per_epoch,
                spec=self.workload,
                drift=self.drift,
                zipf_exponent=self.zipf_exponent,
                populations=self.topology.populations,
                zones=self.topology.zones,
                seed=self.workload_seed,
            )
        else:
            traces = drifting_traces(
                self.topology.num_nodes,
                self.num_objects,
                epochs=self.epochs,
                epoch_s=self.epoch_s,
                requests_per_epoch=self.requests_per_epoch,
                drift=self.drift,
                zipf_exponent=self.zipf_exponent,
                populations=self.topology.populations,
                seed=self.workload_seed,
            )
        slo = None if self.slo is None else AvailabilitySLO(self.slo)
        return traces, schedule, slo

    def run(self, stop=None):
        from repro.simulator.continuous import run_continuous

        traces, schedule, slo = self.materialize()
        return run_continuous(
            self.topology,
            traces,
            self.heuristic.build,
            tlat_ms=self.tlat_ms,
            faults=schedule,
            slo=slo,
            capacity=self.shed_capacity,
            object_size_bytes=self.object_size_bytes,
            alpha=self.alpha,
            beta=self.beta,
            cost_interval_s=self.cost_interval_s,
            warmup_s=self.warmup_s,
            stop=stop,
        )

    def audit_cached(self, result, key: str = ""):
        """Consistency re-check of a cache-served continuous run."""
        from repro.audit import audit_continuous_result, resolve_mode

        mode = resolve_mode(self.audit)
        if mode == "off":
            return None
        return audit_continuous_result(result, mode=mode, subject=key or self.label)

    def describe(self) -> Dict[str, object]:
        """Manifest metadata for post-hoc inspection."""
        return {
            "heuristic": self.heuristic.name,
            "heal": self.heuristic.heal,
            "heal_zones": self.heuristic.heal_zones,
            "epochs": self.epochs,
            "epoch_s": self.epoch_s,
            "drift": self.drift,
            "workload": self.workload,
            "tlat_ms": self.tlat_ms,
            "faults": self.faults,
            "slo": self.slo,
        }

    @staticmethod
    def summarize(result) -> Dict[str, object]:
        """Availability digest the manifest aggregates (``availability`` block)."""
        return {
            "availability": result.availability,
            "unavailable_reads": result.unavailable_reads,
            "slo_target": result.slo_target,
            "slo_violations": result.slo_violations,
        }

    @staticmethod
    def encode(result) -> Dict[str, object]:
        return result.to_dict()

    @staticmethod
    def decode(payload: Dict[str, object]):
        from repro.simulator.continuous import ContinuousResult

        return ContinuousResult.from_dict(payload)
