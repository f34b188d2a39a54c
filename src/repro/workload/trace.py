"""Request traces.

A :class:`Trace` is an immutable, ordered sequence of timestamped object
accesses, the common currency between the workload generators, the
demand-matrix builder (LP side) and the trace-driven simulator
(deployed-heuristic side).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Request:
    """One object access.

    Ordering is by time (then node/object/kind) so traces can be sorted and
    merged cheaply.
    """

    time_s: float
    node: int
    obj: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.time_s < math.inf:
            raise ValueError(f"request time must be finite and non-negative, got {self.time_s}")
        if self.node < 0 or self.obj < 0:
            raise ValueError("node and object ids must be non-negative")


#: The dataclass order of :class:`Request` (its fields, compared as a tuple),
#: as a sort key that never calls the generated ``__lt__``.
_ORDER = attrgetter("time_s", "node", "obj", "is_write")
_TIME = attrgetter("time_s")
_NODE = attrgetter("node")
_OBJ = attrgetter("obj")
_WRITE = attrgetter("is_write")


@dataclass(frozen=True)
class Trace:
    """An immutable, ordered request trace with known extent.

    A trace never changes after construction, so :attr:`columns` (built on
    first use) and every content digest taken from them stay valid for its
    whole life.

    Attributes
    ----------
    requests:
        Requests sorted by time, as a tuple.
    duration_s:
        Trace extent in seconds; requests must fall in ``[0, duration_s)``.
    num_nodes / num_objects:
        Declared universe sizes (must cover every request).
    """

    requests: Tuple[Request, ...]
    duration_s: float
    num_nodes: int
    num_objects: int
    name: str = "trace"

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration_s}")
        if self.num_nodes <= 0 or self.num_objects <= 0:
            raise ValueError("universe sizes must be positive")
        requests = tuple(sorted(self.requests, key=_ORDER))
        object.__setattr__(self, "requests", requests)
        # Times are finite, so the last request holds the latest one.
        if requests and (
            requests[-1].time_s >= self.duration_s
            or max(map(_NODE, requests)) >= self.num_nodes
            or max(map(_OBJ, requests)) >= self.num_objects
        ):
            # Name the first offender in trace order.
            for req in requests:
                if req.time_s >= self.duration_s:
                    raise ValueError(
                        f"request at {req.time_s}s outside trace duration {self.duration_s}s"
                    )
                if req.node >= self.num_nodes:
                    raise ValueError(f"request node {req.node} >= num_nodes {self.num_nodes}")
                if req.obj >= self.num_objects:
                    raise ValueError(
                        f"request object {req.obj} >= num_objects {self.num_objects}"
                    )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @cached_property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(times, nodes, objects, writes)`` as read-only ``float64`` /
        ``int64`` / ``int64`` / ``bool_`` arrays in trace order.

        Built once per trace (25 bytes per request) and shared by the
        digest, the demand matrix and serialization.
        """
        reqs, count = self.requests, len(self.requests)
        columns = (
            np.fromiter(map(_TIME, reqs), dtype=np.float64, count=count),
            np.fromiter(map(_NODE, reqs), dtype=np.int64, count=count),
            np.fromiter(map(_OBJ, reqs), dtype=np.int64, count=count),
            np.fromiter(map(_WRITE, reqs), dtype=np.bool_, count=count),
        )
        for column in columns:
            column.flags.writeable = False
        return columns

    def __getstate__(self) -> dict:
        # Pickled and deep-copied arrays come back writeable: leave the
        # columns out and let the copy build its own.
        return {k: v for k, v in self.__dict__.items() if k != "columns"}

    @property
    def num_reads(self) -> int:
        return len(self.requests) - self.num_writes

    @property
    def num_writes(self) -> int:
        return int(np.count_nonzero(self.columns[3]))

    # -- slicing -------------------------------------------------------------

    def between(self, start_s: float, end_s: float) -> List[Request]:
        """Requests with ``start_s <= time < end_s`` (binary search on the sorted list)."""
        lo = bisect.bisect_left(self.requests, start_s, key=_TIME)
        out = []
        for req in self.requests[lo:]:
            if req.time_s >= end_s:
                break
            out.append(req)
        return out

    def for_node(self, node: int) -> List[Request]:
        return [r for r in self.requests if r.node == node]

    def for_object(self, obj: int) -> List[Request]:
        return [r for r in self.requests if r.obj == obj]

    def filter(self, predicate) -> "Trace":
        """A new trace keeping requests where ``predicate(request)`` is true."""
        return Trace(
            requests=[r for r in self.requests if predicate(r)],
            duration_s=self.duration_s,
            num_nodes=self.num_nodes,
            num_objects=self.num_objects,
            name=self.name,
        )

    def remap_nodes(self, mapping: dict, num_nodes: Optional[int] = None) -> "Trace":
        """Reassign request origins through ``mapping`` (deployment scenario).

        Nodes missing from the mapping keep their id.  Used when the users of
        a closed site are assigned to a nearby open node.
        """
        new_n = num_nodes if num_nodes is not None else self.num_nodes
        return Trace(
            requests=[
                Request(r.time_s, int(mapping.get(r.node, r.node)), r.obj, r.is_write)
                for r in self.requests
            ],
            duration_s=self.duration_s,
            num_nodes=new_n,
            num_objects=self.num_objects,
            name=self.name,
        )

    @staticmethod
    def concat(traces: Iterable["Trace"], name: str = "concat") -> "Trace":
        """Play traces back to back: each starts when the previous one ends.

        Used for workload-shift experiments (e.g. WEB-like traffic turning
        GROUP-like mid-day for the on-line adaptation extension).
        """
        traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace to concatenate")
        requests = []
        offset = 0.0
        for t in traces:
            for r in t.requests:
                requests.append(Request(r.time_s + offset, r.node, r.obj, r.is_write))
            offset += t.duration_s
        return Trace(
            requests=requests,
            duration_s=offset,
            num_nodes=max(t.num_nodes for t in traces),
            num_objects=max(t.num_objects for t in traces),
            name=name,
        )

    @staticmethod
    def merge(traces: Iterable["Trace"], name: str = "merged") -> "Trace":
        """Union of traces over a common universe (max of extents/sizes)."""
        traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace to merge")
        return Trace(
            requests=[r for t in traces for r in t.requests],
            duration_s=max(t.duration_s for t in traces),
            num_nodes=max(t.num_nodes for t in traces),
            num_objects=max(t.num_objects for t in traces),
            name=name,
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, requests={len(self.requests)}, "
            f"nodes={self.num_nodes}, objects={self.num_objects}, "
            f"duration={self.duration_s:.0f}s)"
        )
