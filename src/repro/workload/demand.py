"""Demand matrices — the workload view consumed by MC-PERF.

The IP formulation never sees individual requests: it sees ``read[n, i, k]``
(and optionally ``write[n, i, k]``) counts per node, evaluation interval and
object.  :class:`DemandMatrix` buckets a trace into those counts and offers
the aggregations the formulation and the rounding algorithm need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workload.trace import Trace


@dataclass
class DemandMatrix:
    """Per-(node, interval, object) read/write counts.

    Attributes
    ----------
    reads / writes:
        ``(N, I, K)`` non-negative count arrays.
    interval_s:
        Length of one evaluation interval in seconds (the paper's Δ).
    """

    reads: np.ndarray
    writes: Optional[np.ndarray] = None
    interval_s: float = 3600.0

    def __post_init__(self) -> None:
        self.reads = np.asarray(self.reads, dtype=float)
        if self.reads.ndim != 3:
            raise ValueError("reads must be a (nodes, intervals, objects) array")
        if np.any(self.reads < 0):
            raise ValueError("read counts must be non-negative")
        if self.writes is None:
            self.writes = np.zeros_like(self.reads)
        else:
            self.writes = np.asarray(self.writes, dtype=float)
            if self.writes.shape != self.reads.shape:
                raise ValueError("writes must match the shape of reads")
            if np.any(self.writes < 0):
                raise ValueError("write counts must be non-negative")
        if self.interval_s <= 0:
            raise ValueError("interval length must be positive")

    # -- construction --------------------------------------------------------

    @staticmethod
    def _accumulate(
        reads: np.ndarray,
        writes: np.ndarray,
        interval_s: float,
        nodes,
        times_s,
        objs,
        is_write,
    ) -> None:
        """Scatter-add one batch of requests into the count arrays."""
        nodes = np.asarray(nodes, dtype=np.int64)
        objs = np.asarray(objs, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        intervals = np.minimum(
            (np.asarray(times_s, dtype=float) / interval_s).astype(np.int64),
            reads.shape[1] - 1,
        )
        if is_write.any():
            w = is_write
            np.add.at(writes, (nodes[w], intervals[w], objs[w]), 1.0)
        if not is_write.all():
            r = ~is_write
            np.add.at(reads, (nodes[r], intervals[r], objs[r]), 1.0)

    @staticmethod
    def from_trace(trace: Trace, num_intervals: int) -> "DemandMatrix":
        """Bucket a trace into ``num_intervals`` equal evaluation intervals."""
        if num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        interval_s = trace.duration_s / num_intervals
        reads = np.zeros((trace.num_nodes, num_intervals, trace.num_objects))
        writes = np.zeros_like(reads)
        if len(trace):
            times, nodes, objs, is_write = trace.columns
            DemandMatrix._accumulate(
                reads, writes, interval_s, nodes, times, objs, is_write
            )
        return DemandMatrix(reads=reads, writes=writes, interval_s=interval_s)

    @staticmethod
    def from_stream(
        chunks,
        num_nodes: int,
        num_objects: int,
        num_intervals: int,
        duration_s: float,
    ) -> "DemandMatrix":
        """Bucket a streamed request sequence without materializing it.

        ``chunks`` yields ``(nodes, times_s, objs, is_write)`` array
        batches (see
        :func:`repro.workload.generators.synthetic_request_stream`); each
        batch is scatter-added into the ``(N, I, K)`` counts and dropped.
        Peak memory is one chunk plus the counts — million-request traces
        bucket without a million ``Request`` objects ever existing.
        """
        if num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        interval_s = duration_s / num_intervals
        reads = np.zeros((num_nodes, num_intervals, num_objects))
        writes = np.zeros_like(reads)
        for nodes, times_s, objs, is_write in chunks:
            DemandMatrix._accumulate(
                reads, writes, interval_s, nodes, times_s, objs, is_write
            )
        return DemandMatrix(reads=reads, writes=writes, interval_s=interval_s)

    # -- shape ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.reads.shape[0]

    @property
    def num_intervals(self) -> int:
        return self.reads.shape[1]

    @property
    def num_objects(self) -> int:
        return self.reads.shape[2]

    # -- aggregations ----------------------------------------------------------

    @property
    def total_reads(self) -> float:
        return float(self.reads.sum())

    def reads_per_node(self) -> np.ndarray:
        """Total reads per node — the QoS constraint denominators."""
        return self.reads.sum(axis=(1, 2))

    def reads_per_object(self) -> np.ndarray:
        """Total reads per object (popularity)."""
        return self.reads.sum(axis=(0, 1))

    def reads_per_interval(self) -> np.ndarray:
        return self.reads.sum(axis=(0, 2))

    def active_objects(self) -> np.ndarray:
        """Indices of objects with at least one read or write."""
        activity = self.reads.sum(axis=(0, 1)) + self.writes.sum(axis=(0, 1))
        return np.nonzero(activity > 0)[0]

    def first_access_interval(self) -> np.ndarray:
        """``(N, K)`` first interval in which node n reads object k (−1 = never).

        Used by the activity-history/reactive fixings.
        """
        n, i, k = self.reads.shape
        first = np.full((n, k), -1, dtype=np.int64)
        accessed = self.reads > 0
        for interval in range(i - 1, -1, -1):
            mask = accessed[:, interval, :]
            first[mask] = interval
        return first

    def accessed(self) -> np.ndarray:
        """Boolean ``(N, I, K)``: node n read object k during interval i."""
        return self.reads > 0

    def coarsen(self, factor: int) -> "DemandMatrix":
        """Merge every ``factor`` consecutive intervals (Theorem 2 experiments)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        n, i, k = self.reads.shape
        out_i = (i + factor - 1) // factor
        reads = np.zeros((n, out_i, k))
        writes = np.zeros_like(reads)
        for interval in range(i):
            reads[:, interval // factor, :] += self.reads[:, interval, :]
            writes[:, interval // factor, :] += self.writes[:, interval, :]
        return DemandMatrix(reads=reads, writes=writes, interval_s=self.interval_s * factor)

    def restrict_nodes(self, keep) -> "DemandMatrix":
        """Project onto a node subset (order preserved) without remapping demand."""
        keep = list(keep)
        return DemandMatrix(
            reads=self.reads[keep].copy(),
            writes=self.writes[keep].copy(),
            interval_s=self.interval_s,
        )

    def restrict_objects(self, keep) -> "DemandMatrix":
        """Project onto an object subset (order preserved).

        The per-object decomposition (:mod:`repro.solvers.decompose`)
        slices one object out per subproblem with this.
        """
        keep = list(keep)
        return DemandMatrix(
            reads=self.reads[:, :, keep].copy(),
            writes=self.writes[:, :, keep].copy(),
            interval_s=self.interval_s,
        )

    def __repr__(self) -> str:
        return (
            f"DemandMatrix(nodes={self.num_nodes}, intervals={self.num_intervals}, "
            f"objects={self.num_objects}, reads={self.total_reads:.0f})"
        )
