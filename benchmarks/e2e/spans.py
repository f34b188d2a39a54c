"""An in-memory span tracer built from the benchmark side.

The tracer replaces a layer's public callables, at the names their callers
look them up by, with wrappers that record one span per call: its name,
start, end, the span that was open when it started (its parent) and the id
of the runner cell it ran for.  Spans stay in memory until the benchmark
writes them out.  A layer's self time is its spans' duration minus the part
covered by their child spans, so the self times of all layers plus the time
no span covers add up to the traced wall clock.

Nothing under ``src/`` is modified on disk: :meth:`Tracer.unwrap_all`
restores every replaced attribute.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell")

    def __init__(self, name: str, start: float, parent: Optional[int], cell: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "cell": self.cell,
        }


class Tracer:
    """Records nested spans around wrapped callables (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.fired: Dict[str, int] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.cell = ""
        self._stack: List[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.cell))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark-side code (the input generators)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: Optional[str],
        classify: Optional[Callable[[], Callable[[], str]]] = None,
        cell: Optional[Callable[..., str]] = None,
        count: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``layer`` names the span (None records no span, only the cell id).
        ``classify()`` runs before the call and returns a function that
        names the span after it; ``cell(*args)`` gives the cell id the call
        (and everything under it) runs for; ``count(*args)`` returns
        per-layer counters to add.
        """
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        if inspect.ismodule(owner):
            site = f"{owner.__name__}.{attr}"
        else:
            site = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        self.fired.setdefault(site, 0)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.fired[site] += 1
            saved_cell = tracer.cell
            if cell is not None:
                tracer.cell = cell(*args, **kwargs)
            index = tracer._open(layer) if layer is not None else None
            name = classify() if classify is not None else None
            try:
                return func(*args, **kwargs)
            finally:
                if index is not None:
                    if name is not None:
                        tracer.spans[index].name = name()
                    tracer._close(index)
                if count is not None:
                    for key, value in count(*args, **kwargs).items():
                        tracer.counts[key] += value
                tracer.cell = saved_cell

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds each span name spent outside its child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            totals[span.name] += (span.end - span.start) - children
        return dict(totals)

    def durations(self, prefix: str) -> List[float]:
        """Wall seconds of every span whose name starts with ``prefix``."""
        return [s.end - s.start for s in self.spans if s.name.startswith(prefix)]

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return dict(totals)
