"""Composable workload emulation for the continuous-placement epoch loop.

:func:`drifting_traces` models slow demand drift; real wide-area services
additionally see *shaped* load — day/night cycles, flash crowds on single
objects, regional bursts, write-heavy maintenance windows.  This module
layers those shapes on top of the drift substrate with a clause grammar
mirroring :mod:`repro.faults.spec` (semicolon-separated
``kind:key=value,…``)::

    diurnal:amp=0.5,period=8,phase=0
    flashcrowd:epochs=1-2,object=0,mult=40
    burst:epochs=2-3,nodes=2+3,mult=5
    burst:epochs=2-3,zone=1,mult=5
    writes:fraction=0.3,epochs=1-3
    clock_skew:ms=500,seed=3

Two properties the chaos campaign (and the property tests) rely on:

* **determinism** — for a fixed seed the emitted traces are identical
  call-to-call (epoch ``e`` draws from substream ``seed + 7919 * e``,
  matching :func:`drifting_traces`);
* **mass conservation** — each epoch's trace holds *exactly*
  ``envelope[e]`` requests, where the envelope is computed arithmetically
  from the clauses (:func:`emulation_envelope`), so "total request count
  matches the requested rate envelope" is an equality, not a statistic.
  Per-object counts are apportioned by largest remainder, and clock skew
  wraps timestamps inside the epoch instead of shifting them out of it.

The spec threads through :class:`repro.runner.tasks.ContinuousTask` via
its ``workload`` field, so the batch loop, the service daemon and crash
recovery all see byte-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.workload.generators import WorkloadSpec, synthetic_workload
from repro.workload.trace import Trace
from repro.workload.zipf import zipf_weights


@dataclass(frozen=True)
class Diurnal:
    """Volume modulation: ``1 + amp * sin(2π (e + phase) / period)``."""

    amp: float = 0.5
    period: float = 8.0
    phase: float = 0.0

    def factor(self, epoch: int) -> float:
        return 1.0 + self.amp * math.sin(
            2.0 * math.pi * (epoch + self.phase) / self.period
        )


@dataclass(frozen=True)
class FlashCrowd:
    """Extra volume on one object inside an epoch window.

    ``mult`` follows :func:`~repro.workload.generators.flash_crowd_workload`:
    the object receives ``mult`` times its fair share
    (``base / num_objects``) of *additional* requests per windowed epoch.
    """

    start: int
    end: int
    obj: int = 0
    mult: float = 20.0

    def extra(self, epoch: int, base: int, num_objects: int) -> int:
        if not self.start <= epoch <= self.end:
            return 0
        return int(round(base / num_objects * self.mult))


@dataclass(frozen=True)
class RegionBurst:
    """Scale a node group's demand weight inside a window (volume unchanged)."""

    start: int
    end: int
    nodes: Tuple[int, ...] = ()
    zone: Optional[int] = None
    mult: float = 4.0


@dataclass(frozen=True)
class WriteWindow:
    """Write fraction override inside a window."""

    fraction: float
    start: int = 0
    end: int = 10**9


@dataclass(frozen=True)
class ClockSkew:
    """Per-node clock offsets applied to request timestamps.

    Each node's offset is a deterministic draw in ``[-ms, +ms]``; shifted
    timestamps wrap modulo the epoch length, so the request count per
    epoch is untouched — skew reorders demand, it never loses it.
    """

    ms: float
    seed: int = 0


@dataclass(frozen=True)
class EmulationPlan:
    """Parsed emulation clauses; compose onto the drift substrate."""

    clauses: Tuple[str, ...] = ()
    diurnal: Optional[Diurnal] = None
    flashes: Tuple[FlashCrowd, ...] = ()
    bursts: Tuple[RegionBurst, ...] = ()
    writes: Tuple[WriteWindow, ...] = ()
    skew: Optional[ClockSkew] = None


def _bad(clause: str, why: str) -> ValidationError:
    return ValidationError(f"bad workload clause {clause!r}: {why}")


def _params(body: str, clause: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise _bad(clause, f"malformed key=value pair {item!r}")
        params[key.strip().lower()] = value.strip()
    return params


def _pop_float(params: Dict[str, str], key: str, clause: str, default=None) -> float:
    if key not in params:
        if default is None:
            raise _bad(clause, f"missing required key {key!r}")
        return float(default)
    raw = params.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise _bad(clause, f"{key}={raw!r} is not a number") from None


def _pop_int(params: Dict[str, str], key: str, clause: str, default=None) -> int:
    return int(_pop_float(params, key, clause, default))


def _pop_window(params: Dict[str, str], clause: str, default=None) -> Tuple[int, int]:
    if "epochs" not in params:
        if default is None:
            raise _bad(clause, "missing required key 'epochs'")
        return default
    raw = params.pop("epochs")
    lo, sep, hi = raw.partition("-")
    try:
        start = int(lo)
        end = int(hi) if sep else start
    except ValueError:
        raise _bad(clause, f"epochs window {raw!r} is not 'a-b'") from None
    if start < 0 or end < start:
        raise _bad(clause, f"epochs window {raw!r} must satisfy 0 <= a <= b")
    return start, end


def parse_emulation(spec: str) -> EmulationPlan:
    """Parse an emulation spec string; raises ``ValidationError`` on errors."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValidationError("empty workload emulation spec")
    clauses: List[str] = []
    diurnal: Optional[Diurnal] = None
    flashes: List[FlashCrowd] = []
    bursts: List[RegionBurst] = []
    writes: List[WriteWindow] = []
    skew: Optional[ClockSkew] = None
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        clauses.append(clause)
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        params = _params(body, clause)
        if kind == "diurnal":
            amp = _pop_float(params, "amp", clause, default=0.5)
            if not 0.0 <= amp < 1.0:
                raise _bad(clause, "amp must be in [0, 1)")
            period = _pop_float(params, "period", clause, default=8.0)
            if period <= 0:
                raise _bad(clause, "period must be positive")
            diurnal = Diurnal(
                amp=amp, period=period,
                phase=_pop_float(params, "phase", clause, default=0.0),
            )
        elif kind == "flashcrowd":
            start, end = _pop_window(params, clause, default=(0, 10**9))
            mult = _pop_float(params, "mult", clause, default=20.0)
            if mult <= 0:
                raise _bad(clause, "mult must be positive")
            flashes.append(
                FlashCrowd(
                    start=start, end=end,
                    obj=_pop_int(params, "object", clause, default=0),
                    mult=mult,
                )
            )
        elif kind == "burst":
            start, end = _pop_window(params, clause)
            mult = _pop_float(params, "mult", clause, default=4.0)
            if mult <= 0:
                raise _bad(clause, "mult must be positive")
            nodes: Tuple[int, ...] = ()
            zone = None
            if "nodes" in params:
                raw_nodes = params.pop("nodes")
                try:
                    nodes = tuple(int(n) for n in raw_nodes.split("+"))
                except ValueError:
                    raise _bad(clause, f"nodes={raw_nodes!r} is not 'a+b+…'") from None
            elif "zone" in params:
                zone = _pop_int(params, "zone", clause)
            else:
                raise _bad(clause, "burst needs nodes= or zone=")
            bursts.append(
                RegionBurst(start=start, end=end, nodes=nodes, zone=zone, mult=mult)
            )
        elif kind == "writes":
            fraction = _pop_float(params, "fraction", clause)
            if not 0.0 <= fraction <= 1.0:
                raise _bad(clause, "fraction must be in [0, 1]")
            start, end = _pop_window(params, clause, default=(0, 10**9))
            writes.append(WriteWindow(fraction=fraction, start=start, end=end))
        elif kind == "clock_skew":
            ms = _pop_float(params, "ms", clause)
            if ms < 0:
                raise _bad(clause, "ms must be >= 0")
            skew = ClockSkew(ms=ms, seed=_pop_int(params, "seed", clause, default=0))
        else:
            raise _bad(clause, "unknown clause kind")
        if params:
            raise _bad(clause, f"unknown keys {sorted(params)}")
    if not clauses:
        raise ValidationError("empty workload emulation spec")
    return EmulationPlan(
        clauses=tuple(clauses),
        diurnal=diurnal,
        flashes=tuple(flashes),
        bursts=tuple(bursts),
        writes=tuple(writes),
        skew=skew,
    )


def emulation_envelope(
    plan: EmulationPlan,
    *,
    epochs: int,
    requests_per_epoch: int,
    num_objects: int,
) -> List[int]:
    """The exact per-epoch request counts the emulated traces must hit.

    This is the arithmetic side of the mass-conservation contract: the
    generator emits exactly these totals, and the property test checks
    both against each other.
    """
    envelope: List[int] = []
    for epoch in range(epochs):
        base = requests_per_epoch
        if plan.diurnal is not None:
            base = max(1, int(round(base * plan.diurnal.factor(epoch))))
        extra = sum(f.extra(epoch, base, num_objects) for f in plan.flashes)
        envelope.append(base + extra)
    return envelope


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing exactly to ``total``, by largest remainder."""
    if total <= 0:
        return np.zeros(len(weights), dtype=np.int64)
    shares = weights / weights.sum() * total
    counts = np.floor(shares).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainders = shares - counts
        # Stable tie-break on index keeps the apportionment deterministic.
        order = np.lexsort((np.arange(len(weights)), -remainders))
        counts[order[:short]] += 1
    return counts


def _write_fraction(plan: EmulationPlan, epoch: int, default: float) -> float:
    for window in plan.writes:
        if window.start <= epoch <= window.end:
            return window.fraction
    return default


def _burst_populations(
    plan: EmulationPlan,
    epoch: int,
    pops: np.ndarray,
    zones: Optional[Sequence[int]],
) -> np.ndarray:
    scaled = pops
    for burst in plan.bursts:
        if not burst.start <= epoch <= burst.end:
            continue
        if scaled is pops:
            scaled = pops.copy()
        if burst.nodes:
            for node in burst.nodes:
                if not 0 <= node < len(scaled):
                    raise ValidationError(
                        f"burst clause names node {node}, topology has "
                        f"{len(scaled)} nodes"
                    )
                scaled[node] *= burst.mult
        elif burst.zone is not None:
            if zones is None:
                raise ValidationError(
                    "burst clause with zone= needs a zone map "
                    "(topology zones or --zones)"
                )
            members = [n for n, z in enumerate(zones) if z == burst.zone]
            if not members:
                raise ValidationError(
                    f"burst clause names zone {burst.zone}, which is empty"
                )
            for node in members:
                scaled[node] *= burst.mult
    return scaled


def _skewed(trace: Trace, skew: ClockSkew, epoch: int, epoch_s: float) -> Trace:
    rng = np.random.default_rng(skew.seed + 104_729 * epoch)
    offsets = (rng.random(trace.num_nodes) * 2.0 - 1.0) * skew.ms / 1000.0
    times, nodes, objects, writes = trace.columns
    times = np.minimum((times + offsets[nodes]) % epoch_s, epoch_s * (1 - 1e-12))
    return Trace.from_columns(
        (times, nodes, objects, writes),
        duration_s=trace.duration_s,
        num_nodes=trace.num_nodes,
        num_objects=trace.num_objects,
        name=trace.name,
    )


def emulated_traces(
    num_nodes: int,
    num_objects: int,
    *,
    epochs: int,
    epoch_s: float,
    requests_per_epoch: int,
    spec,
    drift: float = 0.25,
    zipf_exponent: float = 0.9,
    populations: Optional[Sequence[float]] = None,
    zones: Optional[Sequence[int]] = None,
    write_fraction: float = 0.0,
    seed: int = 0,
    name: str = "emulated",
) -> List[Trace]:
    """One trace per epoch: the drift substrate shaped by emulation clauses.

    ``spec`` is a spec string or a pre-parsed :class:`EmulationPlan`.  The
    drift mechanics (popularity-rank rotation, node-weight blending, the
    per-epoch seed substream) are identical to :func:`drifting_traces`, so
    a plan with no clauses addressed to an epoch reproduces the plain
    drifting workload there.
    """
    plan = parse_emulation(spec) if isinstance(spec, str) else spec
    if epochs < 1:
        raise ValueError("need at least one epoch")
    if not 0.0 <= drift <= 1.0:
        raise ValueError("drift must be in [0, 1]")
    if requests_per_epoch < 1:
        raise ValueError("need at least one request per epoch")
    for flash in plan.flashes:
        if not 0 <= flash.obj < num_objects:
            raise ValidationError(
                f"flashcrowd object {flash.obj} out of range "
                f"(universe has {num_objects} objects)"
            )
    weights = zipf_weights(num_objects, zipf_exponent)
    pops = (
        np.ones(num_nodes, dtype=float)
        if populations is None
        else np.asarray(populations, dtype=float).copy()
    )
    if pops.shape != (num_nodes,):
        raise ValueError("populations must have one entry per node")
    envelope = emulation_envelope(
        plan,
        epochs=epochs,
        requests_per_epoch=requests_per_epoch,
        num_objects=num_objects,
    )
    rank_shift = int(round(drift * num_objects))
    rank_of = np.arange(num_objects)
    traces: List[Trace] = []
    for epoch in range(epochs):
        base = requests_per_epoch
        if plan.diurnal is not None:
            base = max(1, int(round(base * plan.diurnal.factor(epoch))))
        counts = _apportion(weights[rank_of], base)
        # Flash-crowd extras land entirely on their target objects — the
        # spike is a popularity inversion, not a uniform volume bump.
        # base + extras == envelope[epoch] by construction (same arithmetic
        # as emulation_envelope), keeping mass conservation an equality.
        for flash in plan.flashes:
            counts[flash.obj] += flash.extra(epoch, base, num_objects)
        assert int(counts.sum()) == envelope[epoch]
        spec_epoch = WorkloadSpec(
            num_nodes=num_nodes,
            num_objects=num_objects,
            counts=counts,
            populations=_burst_populations(plan, epoch, pops, zones),
            duration_s=epoch_s,
            write_fraction=_write_fraction(plan, epoch, write_fraction),
            seed=seed + 7919 * epoch,
            name=f"{name}[{epoch}]",
        )
        trace = synthetic_workload(spec_epoch)
        if plan.skew is not None and plan.skew.ms > 0:
            trace = _skewed(trace, plan.skew, epoch, epoch_s)
        traces.append(trace)
        rank_of = (rank_of + rank_shift) % num_objects
        pops = (1.0 - drift) * pops + drift * np.roll(pops, 1)
    return traces
