"""Lightweight instrumentation for the hot paths (ISSUE 4).

The pipeline's performance claims are measured, not asserted: every hot
layer (LP assembly, incremental re-solve, simulator serve path) reports
into a process-wide :class:`Profiler` singleton, ``PERF``.

Two kinds of instruments:

* **Counters** — plain integer increments (``PERF.count("lp.patch.rhs")``).
  Always on: they are cheap (one dict update) and CI's perf-smoke job
  asserts on them (e.g. "zero full rebuilds after the initial assembly"),
  so they must not depend on a flag.
* **Timers** — ``with PERF.timer("lp.solve"):`` accumulates wall-clock
  seconds and call counts per phase.  Also always on; a
  ``perf_counter()`` pair per phase is noise next to the phases being
  timed (LP solves, trace replay).

``--profile`` on the CLI does not *enable* anything — it only controls
whether the snapshot is written out (per-stage timing JSON into the run
directory, or stderr without one).

Counter names in use across the tree::

    lp.assembly.rebuild   assembled() joined the columns and rows added since its last run
    lp.assembly.reuse     assembled() served the arrays as they stand
    lp.highs.load         timer: loading HiGHS's bindings, once per process (outside lp.solve)
    lp.patch.bound        set_bounds() patched column bounds in place
    lp.patch.rhs          set_rhs() patched a row bound in place
    lp.solve              LinearProgram.solve() calls
    lp.simplex.iterations        HiGHS simplex pivots
    lp.simplex.warm_starts       solves started hot or from a caller-provided basis
    lp.simplex.warm_degraded     warm attempts that fell back to a cold solve
    lp.simplex.basis_kept        row-bound-only re-solves answered from the retained
                                 optimal basis and factor, without a HiGHS run
                                 (also counted as warm_starts)
    lp.basis.materialized        deferred basis handles whose statuses were derived
    form.build.vectorized  build_formulation() calls (its time: timer form.build)
    form.retarget         set_qos_fraction() RHS-only re-target
    form.store.pruned     store cells dropped outside their (storer, object) demand window
    form.store.dominated  in-window store cells of dominated (storer, object) pairs, dropped
    audit.lp.rows         LP rows audit_lp_solution checked (its time: timer audit.lp)
    audit.lp.dual         timer: the full audit's weak-duality check (inside audit.lp)
    sim.serve.fast        reads answered from the replica cache (the replay adds them in bulk)
    sim.serve.scan        reads served by the full scan (fault windows, explicit holders)
    sim.cache.repair      nearest-replica cache column recomputed
    trace.requests.materialized  a trace built its per-request record view (the
                                 per-request replay, filter()); zero in a bounds-only run
    service.requests      HTTP requests the placement service accepted
    service.epoch         daemon epochs stepped (also a timer)
    service.cache.hit / service.cache.miss   bound-query result cache
    service.coalesced     queries folded into an identical in-flight solve
    service.shed          admission-queue rejections (HTTP 429)
    service.deadline      per-request deadlines that expired (HTTP 504)
    service.stale         degraded last-known-good answers (stale=true)
    service.breaker.trip  circuit breaker transitions to open
    service.drop          connections dropped by chaos injection
    service.recover       daemon restarts that resumed from a checkpoint
    service.supervisor.restart   in-process supervisor restarts

Multiprocessing caveat: each worker process has its own ``PERF``; the
profile a runner emits covers the parent process only.  Run with
``--jobs 1`` when you want the counters to cover the whole pipeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class Profiler:
    """Accumulates named counters and phase timers.

    All state is plain dicts; ``snapshot()`` returns a JSON-safe copy and
    ``reset()`` clears everything (CLI entry points reset so one command
    equals one profile).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timer_seconds: Dict[str, float] = {}
        self.timer_calls: Dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock seconds (and a call count) under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.timer_seconds[name] = self.timer_seconds.get(name, 0.0) + elapsed
            self.timer_calls[name] = self.timer_calls.get(name, 0) + 1

    def get(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    def seconds(self, name: str) -> float:
        """Accumulated seconds under a timer (0.0 if never entered)."""
        return self.timer_seconds.get(name, 0.0)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe copy of all instruments, sorted for stable output."""
        return {
            "timers": {
                name: {
                    "seconds": self.timer_seconds[name],
                    "calls": self.timer_calls.get(name, 0),
                }
                for name in sorted(self.timer_seconds)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def reset(self) -> None:
        """Clear every counter and timer."""
        self.counters.clear()
        self.timer_seconds.clear()
        self.timer_calls.clear()


#: Process-wide profiler; every hot path reports here.
PERF = Profiler()
