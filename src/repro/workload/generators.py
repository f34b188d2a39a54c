"""Synthetic workload generators (WEB and GROUP stand-ins).

Both paper workloads span one day over a common object set accessed from all
sites, with request volume per site proportional to its user population:

* ``web_workload`` — Zipf popularity anchored to the paper's aggregates
  (most-popular 36 K accesses, least-popular 1, 1 000 objects, ≈300 K
  requests at full scale).
* ``group_workload`` — uniform popularity, every object popular
  (8.5 K–36 K accesses per object at full scale, ≈16 M requests in the paper;
  the default here scales that down — see ``requests_scale``).

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.workload.trace import Trace
from repro.workload.zipf import zipf_mandelbrot_counts

DAY_S = 86_400.0


@dataclass
class WorkloadSpec:
    """Declarative description of a synthetic workload.

    Attributes
    ----------
    num_nodes / num_objects:
        Universe sizes.
    counts:
        Per-object access counts (popularity curve), length ``num_objects``.
    populations:
        Per-node demand weights; uniform when omitted.
    duration_s:
        Trace extent (paper: one day).
    write_fraction:
        Fraction of requests that are writes (paper experiments: 0).
    diurnal:
        When true, request times follow a day/night intensity curve instead
        of a homogeneous process.
    """

    num_nodes: int
    num_objects: int
    counts: np.ndarray
    populations: Optional[np.ndarray] = None
    duration_s: float = DAY_S
    write_fraction: float = 0.0
    diurnal: bool = False
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.num_nodes <= 0 or self.num_objects <= 0:
            raise ValueError("universe sizes must be positive")
        if self.counts.shape != (self.num_objects,):
            raise ValueError("counts must have one entry per object")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.populations is not None:
            self.populations = np.asarray(self.populations, dtype=float)
            if self.populations.shape != (self.num_nodes,):
                raise ValueError("populations must have one entry per node")
            if self.populations.sum() <= 0:
                raise ValueError("populations must have positive total weight")


def _sample_times(rng: np.random.Generator, size: int, duration_s: float, diurnal: bool):
    """Request timestamps: homogeneous, or thinned to a diurnal intensity."""
    if not diurnal:
        return rng.uniform(0.0, duration_s, size=size)
    # Diurnal curve: intensity 1 + sin-bump peaking mid-day; inverse-CDF via
    # rejection on the (bounded) density.
    times = np.empty(size)
    filled = 0
    while filled < size:
        batch = max(size - filled, 64)
        t = rng.uniform(0.0, duration_s, size=2 * batch)
        intensity = 1.0 + np.sin(np.pi * (t / duration_s))  # in [1, 2]
        keep = t[rng.uniform(0.0, 2.0, size=t.shape) < intensity][: size - filled]
        times[filled : filled + len(keep)] = keep
        filled += len(keep)
    return times


def synthetic_workload(spec: WorkloadSpec) -> Trace:
    """Materialize a :class:`WorkloadSpec` into a request trace.

    Each object's accesses are spread across nodes with a multinomial draw
    proportional to node populations, and across time per
    ``spec.diurnal``.  The draws are made object by object, node by node;
    the trace sorts the collected arrays once.
    """
    rng = np.random.default_rng(spec.seed)
    pops = (
        spec.populations
        if spec.populations is not None
        else np.ones(spec.num_nodes, dtype=float)
    )
    probs = pops / pops.sum()

    times, nodes, objs, writes = [], [], [], []  # one array per (object, node) draw
    for obj, count in enumerate(spec.counts):
        if count == 0:
            continue
        node_counts = rng.multinomial(int(count), probs)
        for node, node_count in enumerate(node_counts):
            if node_count == 0:
                continue
            times.append(_sample_times(rng, int(node_count), spec.duration_s, spec.diurnal))
            writes.append(
                rng.random(int(node_count)) < spec.write_fraction
                if spec.write_fraction > 0
                else np.zeros(int(node_count), dtype=bool)
            )
            nodes.append(np.full(int(node_count), node))
            objs.append(np.full(int(node_count), obj))

    columns = ((), (), (), ())
    if times:
        # Guard the open upper end of the trace extent.
        times = np.minimum(np.concatenate(times), spec.duration_s * (1 - 1e-12))
        columns = (times, *(np.concatenate(a) for a in (nodes, objs, writes)))

    return Trace.from_columns(
        columns,
        duration_s=spec.duration_s,
        num_nodes=spec.num_nodes,
        num_objects=spec.num_objects,
        name=spec.name,
    )


def synthetic_request_stream(spec: WorkloadSpec, chunk_size: int = 65_536):
    """Stream a :class:`WorkloadSpec` as ``(nodes, times_s, objs, is_write)`` batches.

    The streaming counterpart of :func:`synthetic_workload` for traces too
    large to hold in memory as one :class:`~repro.workload.trace.Trace`:
    each yielded batch holds at most ``chunk_size`` requests as parallel
    numpy arrays, ready for
    :meth:`~repro.workload.demand.DemandMatrix.from_stream`.  Requests are
    drawn i.i.d. from the spec's popularity/population curves (a
    multinomial view of the same distribution ``synthetic_workload``
    realizes with exact per-object counts); the total request count equals
    ``spec.counts.sum()`` and the draw is deterministic per seed.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    rng = np.random.default_rng(spec.seed)
    pops = (
        spec.populations
        if spec.populations is not None
        else np.ones(spec.num_nodes, dtype=float)
    )
    node_probs = pops / pops.sum()
    total = int(spec.counts.sum())
    if total == 0:
        return
    obj_probs = spec.counts / float(total)

    remaining = total
    while remaining > 0:
        size = min(chunk_size, remaining)
        objs = rng.choice(spec.num_objects, size=size, p=obj_probs)
        nodes = rng.choice(spec.num_nodes, size=size, p=node_probs)
        times = np.minimum(
            _sample_times(rng, size, spec.duration_s, spec.diurnal),
            spec.duration_s * (1 - 1e-12),
        )
        is_write = (
            rng.random(size) < spec.write_fraction
            if spec.write_fraction > 0
            else np.zeros(size, dtype=bool)
        )
        yield nodes, times, objs, is_write
        remaining -= size


def web_workload(
    num_nodes: int = 20,
    num_objects: int = 1000,
    populations: Optional[Sequence[float]] = None,
    requests_scale: float = 1.0,
    duration_s: float = DAY_S,
    seed: int = 0,
    diurnal: bool = False,
) -> Trace:
    """The WEB workload: heavy-tailed Zipf popularity (WorldCup98-like).

    At ``requests_scale == 1`` and 1 000 objects the popularity curve is a
    Zipf–Mandelbrot fit to the paper's three aggregates: rank 1 gets 36 000
    accesses, the last rank gets 1, and the trace totals ≈300 K requests.
    Scaling shrinks the counts proportionally while keeping the least-popular
    object at a single access, preserving the heavy tail that drives the
    paper's WEB conclusions.
    """
    if requests_scale <= 0:
        raise ValueError("requests_scale must be positive")
    max_count = max(int(round(36_000 * requests_scale)), 2)
    total = int(round(300_000 * requests_scale))
    total = min(max(total, max_count, num_objects), num_objects * max_count)
    counts = zipf_mandelbrot_counts(num_objects, max_count=max_count, min_count=1, total=total)
    spec = WorkloadSpec(
        num_nodes=num_nodes,
        num_objects=num_objects,
        counts=counts,
        populations=None if populations is None else np.asarray(populations, dtype=float),
        duration_s=duration_s,
        seed=seed,
        diurnal=diurnal,
        name="WEB",
    )
    return synthetic_workload(spec)


def flash_crowd_workload(
    num_nodes: int = 20,
    num_objects: int = 100,
    populations: Optional[Sequence[float]] = None,
    base_scale: float = 0.05,
    flash_object: int = 0,
    flash_start_frac: float = 0.5,
    flash_duration_frac: float = 0.25,
    flash_multiplier: float = 50.0,
    duration_s: float = DAY_S,
    seed: int = 0,
) -> Trace:
    """A WEB-like trace with a flash crowd on one object.

    The background is the standard heavy-tailed WEB traffic; during the
    flash window, ``flash_object`` receives ``flash_multiplier`` times its
    fair share of extra requests from every site — the classic stressor for
    placement heuristics (popularity changes faster than a daily planner
    reacts, which is exactly where the evaluation-interval and history
    properties bite).
    """
    if not 0 <= flash_object < num_objects:
        raise ValueError("flash_object out of range")
    if not 0.0 <= flash_start_frac < 1.0:
        raise ValueError("flash_start_frac must be in [0, 1)")
    if flash_duration_frac <= 0 or flash_start_frac + flash_duration_frac > 1.0:
        raise ValueError("flash window must fit inside the trace")
    if flash_multiplier <= 0:
        raise ValueError("flash_multiplier must be positive")

    base = web_workload(
        num_nodes=num_nodes,
        num_objects=num_objects,
        populations=populations,
        requests_scale=base_scale,
        duration_s=duration_s,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 7_919)
    pops = (
        np.asarray(populations, dtype=float)
        if populations is not None
        else np.ones(num_nodes)
    )
    probs = pops / pops.sum()
    extra = int(round(len(base) / num_objects * flash_multiplier))
    start = flash_start_frac * duration_s
    width = flash_duration_frac * duration_s
    node_counts = rng.multinomial(extra, probs)
    times = [rng.uniform(start, start + width, size=int(count)) for count in node_counts]
    flash = (
        np.minimum(np.concatenate(times), duration_s * (1 - 1e-12)),
        np.repeat(np.arange(len(node_counts)), node_counts),
        np.full(extra, flash_object),
        np.zeros(extra, dtype=bool),
    )
    return Trace.from_columns(
        [np.concatenate(pair) for pair in zip(base.columns, flash)],
        duration_s=duration_s,
        num_nodes=num_nodes,
        num_objects=num_objects,
        name="FLASH",
    )


def group_workload(
    num_nodes: int = 20,
    num_objects: int = 1000,
    populations: Optional[Sequence[float]] = None,
    requests_scale: float = 1.0,
    duration_s: float = DAY_S,
    seed: int = 0,
    diurnal: bool = False,
) -> Trace:
    """The GROUP workload: uniform popularity, all objects active.

    At full scale each object draws between 8 500 and 36 000 accesses
    (uniformly), matching the paper's collaborative-project trace (~16 M
    requests over 1 000 objects).  ``requests_scale`` shrinks the band
    proportionally (floored at one access per object) so laptop-scale runs
    keep the defining property that *no* object is unpopular.
    """
    if requests_scale <= 0:
        raise ValueError("requests_scale must be positive")
    rng = np.random.default_rng(seed + 1_000_003)
    low = max(int(round(8_500 * requests_scale)), 1)
    high = max(int(round(36_000 * requests_scale)), low + 1)
    counts = rng.integers(low, high + 1, size=num_objects)
    spec = WorkloadSpec(
        num_nodes=num_nodes,
        num_objects=num_objects,
        counts=counts,
        populations=None if populations is None else np.asarray(populations, dtype=float),
        duration_s=duration_s,
        seed=seed,
        diurnal=diurnal,
        name="GROUP",
    )
    return synthetic_workload(spec)
