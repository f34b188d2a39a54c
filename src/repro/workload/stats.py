"""Workload characterization.

Used to sanity-check that the synthetic traces reproduce the paper's
aggregate statistics, and to compute the minimum inter-reference time needed
for Theorem 3's per-access evaluation-interval selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.workload.trace import Trace


@dataclass
class WorkloadStats:
    """Summary statistics of a trace."""

    name: str
    num_requests: int
    num_reads: int
    num_writes: int
    num_nodes: int
    num_objects: int
    duration_s: float
    max_object_count: int
    min_object_count: int
    active_objects: int
    zipf_exponent: Optional[float]
    reads_per_node: np.ndarray

    def __str__(self) -> str:
        zipf = f"{self.zipf_exponent:.2f}" if self.zipf_exponent is not None else "n/a"
        return (
            f"{self.name}: {self.num_requests} requests "
            f"({self.num_reads} reads / {self.num_writes} writes) over "
            f"{self.active_objects}/{self.num_objects} objects, "
            f"popularity {self.min_object_count}..{self.max_object_count}, "
            f"zipf~{zipf}"
        )


def object_counts(trace: Trace) -> np.ndarray:
    """Read counts per object id."""
    _times, _nodes, objects, writes = trace.columns
    return np.bincount(objects[~writes], minlength=trace.num_objects)


def fit_zipf_exponent(counts: np.ndarray) -> Optional[float]:
    """Least-squares slope of log(count) vs log(rank) over active objects.

    Returns None when fewer than three distinct active ranks exist.
    """
    active = np.sort(counts[counts > 0])[::-1].astype(float)
    if len(active) < 3:
        return None
    ranks = np.arange(1, len(active) + 1, dtype=float)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(active), 1)
    return float(-slope)


def characterize(trace: Trace) -> WorkloadStats:
    """Compute a :class:`WorkloadStats` summary for a trace."""
    counts = object_counts(trace)
    active = counts[counts > 0]
    _times, nodes, _objects, writes = trace.columns
    per_node = np.bincount(nodes[~writes], minlength=trace.num_nodes)
    return WorkloadStats(
        name=trace.name,
        num_requests=len(trace),
        num_reads=trace.num_reads,
        num_writes=trace.num_writes,
        num_nodes=trace.num_nodes,
        num_objects=trace.num_objects,
        duration_s=trace.duration_s,
        max_object_count=int(active.max()) if len(active) else 0,
        min_object_count=int(active.min()) if len(active) else 0,
        active_objects=int((counts > 0).sum()),
        zipf_exponent=fit_zipf_exponent(counts),
        reads_per_node=per_node,
    )


def min_interarrival(
    trace: Trace, interaction: Optional[np.ndarray] = None
) -> Tuple[float, float]:
    """The two smallest distinct inter-access gaps m1 < m2 across interacting nodes.

    This is the quantity Theorem 3 needs: the minimum time between any two
    accesses among node pairs ``(n, m)`` with ``A[n][m] == 1`` (nodes that can
    affect each other).  When ``interaction`` is omitted, all nodes interact
    (global knowledge).

    Returns ``(m1, m2)``; ``m2 == inf`` when no second distinct gap exists.
    """
    times, nodes, _objects, _writes = trace.columns
    if interaction is None:
        gaps = np.diff(times)
    else:
        # Times visible to each node = accesses on nodes in its sphere.
        sees = np.asarray(interaction, dtype=bool)[:, nodes]
        gaps = np.concatenate([np.diff(times[sees[n]]) for n in range(trace.num_nodes)])
    gaps = np.unique(gaps[gaps > 0]).tolist()
    if not gaps:
        return float("inf"), float("inf")
    m1 = gaps[0]
    m2 = gaps[1] if len(gaps) > 1 else float("inf")
    return m1, m2
