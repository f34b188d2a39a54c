"""Request traces.

A :class:`Trace` is an immutable, ordered sequence of timestamped object
accesses, the common currency between the workload generators, the
demand-matrix builder (LP side) and the trace-driven simulator
(deployed-heuristic side).

A trace *is* its four columns, ``(times, nodes, objects, writes)``:
read-only ``float64`` / ``int64`` / ``int64`` / ``bool_`` arrays in trace
order, 25 bytes per request.  Builders hand it arrays
(:meth:`Trace.from_columns`); it sorts them once with ``np.lexsort`` and
validates them with whole-column reductions.  The per-request
:class:`Request` records (:attr:`Trace.requests`) are a view built on
first use, for the few callers that hand records to user code.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.perf import PERF


class _Fields(NamedTuple):
    time_s: float
    node: int
    obj: int
    is_write: bool = False


class Request(_Fields):
    """One object access, as a ``(time_s, node, obj, is_write)`` tuple.

    Ordering is by time (then node/object/kind) so traces can be sorted and
    merged cheaply.
    """

    __slots__ = ()

    def __new__(cls, time_s: float, node: int, obj: int, is_write: bool = False) -> "Request":
        if not 0 <= time_s < math.inf or node < 0 or obj < 0:
            raise _refusal(time_s, node, obj)
        return tuple.__new__(cls, (time_s, node, obj, is_write))


def _refusal(time_s: float, node: int, obj: int) -> ValueError:
    """Why a request with these fields is refused."""
    if not 0 <= time_s < math.inf:
        return ValueError(f"request time must be finite and non-negative, got {time_s}")
    return ValueError("node and object ids must be non-negative")


_DTYPES = (np.float64, np.int64, np.int64, np.bool_)
#: A record from already-validated column values, without the checks.
_RECORD = partial(tuple.__new__, Request)


def _records(columns: Sequence[np.ndarray]) -> List[Request]:
    return list(map(_RECORD, zip(*(column.tolist() for column in columns))))


class Trace:
    """An immutable, ordered request trace with known extent.

    ``Trace(requests, duration_s, num_nodes, num_objects, name)`` takes an
    iterable of :class:`Request` records; :meth:`from_columns` takes the
    four columns.  Both sort and validate the same way: a request outside
    the universe is refused by naming the first offender in trace order.

    Attributes
    ----------
    columns:
        ``(times, nodes, objects, writes)`` in trace order, read-only.
    duration_s:
        Trace extent in seconds; requests must fall in ``[0, duration_s)``.
    num_nodes / num_objects:
        Declared universe sizes (must cover every request).
    """

    def __init__(
        self,
        requests: Iterable[Request],
        duration_s: float,
        num_nodes: int,
        num_objects: int,
        name: str = "trace",
    ) -> None:
        columns = tuple(zip(*requests)) or ((),) * 4
        self._build(columns, duration_s, num_nodes, num_objects, name)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence],
        duration_s: float,
        num_nodes: int,
        num_objects: int,
        name: str = "trace",
    ) -> "Trace":
        """A trace from ``(times, nodes, objects, writes)``, in any request order."""
        trace = cls.__new__(cls)
        trace._build(columns, duration_s, num_nodes, num_objects, name)
        return trace

    def _build(self, columns, duration_s, num_nodes, num_objects, name) -> None:
        times, nodes, objects, writes = (
            np.asarray(column, dtype=dtype) for column, dtype in zip(columns, _DTYPES)
        )
        if times.ndim != 1 or not times.shape == nodes.shape == objects.shape == writes.shape:
            raise ValueError("trace columns must be 1-D arrays of one length")
        # The record checks first, on the first bad request in the given
        # order: the one a loop building Requests would have stopped at.
        bad = ~((times >= 0) & (times < math.inf)) | (nodes < 0) | (objects < 0)
        if bad.any():
            i = int(bad.argmax())
            raise _refusal(times[i].item(), nodes[i].item(), objects[i].item())
        if not 0 < duration_s < math.inf:
            raise ValueError(f"duration must be positive and finite, got {duration_s}")
        if num_nodes <= 0 or num_objects <= 0:
            raise ValueError("universe sizes must be positive")
        # Stable, so equal records keep their given order: Request order.
        order = np.lexsort((writes, objects, nodes, times))
        columns = tuple(column[order] for column in (times, nodes, objects, writes))
        times, nodes, objects, _writes = columns
        out = (times >= duration_s) | (nodes >= num_nodes) | (objects >= num_objects)
        if out.any():
            # Name the first offender in trace order.
            i = int(out.argmax())
            if times[i] >= duration_s:
                raise ValueError(
                    f"request at {times[i].item()}s outside trace duration {duration_s}s"
                )
            if nodes[i] >= num_nodes:
                raise ValueError(f"request node {nodes[i].item()} >= num_nodes {num_nodes}")
            raise ValueError(f"request object {objects[i].item()} >= num_objects {num_objects}")
        for column in columns:
            column.flags.writeable = False
        self.__dict__.update(
            columns=columns,
            duration_s=duration_s,
            num_nodes=num_nodes,
            num_objects=num_objects,
            name=name,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Trace is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Trace is immutable: cannot delete {name!r}")

    def __getstate__(self) -> dict:
        # The request view is rebuilt on demand, never pickled.
        return {k: v for k, v in self.__dict__.items() if k != "requests"}

    def __setstate__(self, state: dict) -> None:
        # Pickled and deep-copied arrays come back writeable.
        for column in state["columns"]:
            column.flags.writeable = False
        self.__dict__.update(state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name, self.duration_s, self.num_nodes, self.num_objects) == (
            other.name, other.duration_s, other.num_nodes, other.num_objects
        ) and all(map(np.array_equal, self.columns, other.columns))

    def __hash__(self) -> int:
        return hash((self.name, self.duration_s, self.num_nodes, self.num_objects, len(self)))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return iter(self.requests)

    @cached_property
    def requests(self) -> Tuple[Request, ...]:
        """The requests in trace order, as records (built once, on first use)."""
        PERF.count("trace.requests.materialized")
        return tuple(_records(self.columns))

    @property
    def num_reads(self) -> int:
        return len(self) - self.num_writes

    @property
    def num_writes(self) -> int:
        return int(np.count_nonzero(self.columns[3]))

    # -- slicing -------------------------------------------------------------

    def between(self, start_s: float, end_s: float) -> List[Request]:
        """Requests with ``start_s <= time < end_s`` (binary search on the times)."""
        times = self.columns[0]
        lo = np.searchsorted(times, start_s, side="left")
        hi = max(lo, np.searchsorted(times, end_s, side="left"))
        return _records([column[lo:hi] for column in self.columns])

    def for_node(self, node: int) -> List[Request]:
        return _records([column[self.columns[1] == node] for column in self.columns])

    def for_object(self, obj: int) -> List[Request]:
        return _records([column[self.columns[2] == obj] for column in self.columns])

    def filter(self, predicate) -> "Trace":
        """A new trace keeping requests where ``predicate(request)`` is true."""
        keep = np.fromiter(map(predicate, self.requests), dtype=np.bool_, count=len(self))
        return Trace.from_columns(
            [column[keep] for column in self.columns],
            self.duration_s, self.num_nodes, self.num_objects, self.name,
        )

    def remap_nodes(self, mapping: dict, num_nodes: Optional[int] = None) -> "Trace":
        """Reassign request origins through ``mapping`` (deployment scenario).

        Nodes missing from the mapping keep their id.  Used when the users of
        a closed site are assigned to a nearby open node.
        """
        times, nodes, objects, writes = self.columns
        lookup = np.array([mapping.get(n, n) for n in range(self.num_nodes)], dtype=np.int64)
        return Trace.from_columns(
            (times, lookup[nodes], objects, writes),
            self.duration_s,
            num_nodes if num_nodes is not None else self.num_nodes,
            self.num_objects,
            self.name,
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
        offsets = np.cumsum([0.0] + [t.duration_s for t in traces]).tolist()
        times = [t.columns[0] + offset for t, offset in zip(traces, offsets)]
        rest = [np.concatenate(column) for column in zip(*(t.columns[1:] for t in traces))]
        return Trace.from_columns(
            [np.concatenate(times), *rest],
            duration_s=offsets[-1],
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
        return Trace.from_columns(
            [np.concatenate(column) for column in zip(*(t.columns for t in traces))],
            duration_s=max(t.duration_s for t in traces),
            num_nodes=max(t.num_nodes for t in traces),
            num_objects=max(t.num_objects for t in traces),
            name=name,
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, requests={len(self)}, "
            f"nodes={self.num_nodes}, objects={self.num_objects}, "
            f"duration={self.duration_s:.0f}s)"
        )
