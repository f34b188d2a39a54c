"""Placement-as-a-service: query front-end + supervised placement daemon.

The batch pipeline answers "where should object X live / what does class C
cost" once per invocation and forgets everything when the process exits.
This package keeps answering — robustness-first:

* :mod:`repro.service.server` — a stdlib-asyncio HTTP/JSON endpoint serving
  placement / bound / cost queries against the daemon's live state, with
  single-flight request coalescing, per-request deadlines and an in-memory
  result cache keyed by the runner's content digests;
* :mod:`repro.service.daemon` — the continuous-placement epoch loop
  (:mod:`repro.simulator.continuous`) wrapped in a supervisor with a
  write-ahead journal + atomic snapshots (:mod:`repro.service.checkpoint`),
  so a ``kill -9`` mid-epoch restarts from the last epoch boundary and
  converges to the same placements an uninterrupted run produces;
* :mod:`repro.service.policy` — overload and failure hardening as one
  degrade ladder: by admission depth and circuit-breaker state each bound
  query is answered ``exact``, ``approx`` (a cheap one-interval bound),
  ``stale`` (a TTL-bounded last-known-good answer with its age) or
  ``shed`` (429 when admission is full, 503 when the breaker is open);
* :mod:`repro.service.chaos` — deterministic ``REPRO_SERVICE_CHAOS`` fault
  injection (dropped connections, slow solves, crash-on-checkpoint, torn
  checkpoints), one injector of the unified :mod:`repro.chaos` plan
  grammar, so every recovery path is testable;
* :mod:`repro.service.loadgen` — a closed-loop load generator (used by
  ``benchmarks/test_service_load.py`` and CI's service-smoke job) that
  accounts for every request it issues, so a silently dropped response is
  a hard failure, not a gap in a histogram.

Entry point: ``repro serve`` (see :mod:`repro.cli`); docs in
``docs/SERVICE.md``.
"""

from __future__ import annotations

from repro.service.chaos import SERVICE_CHAOS_ENV, ServiceChaos, parse_service_chaos
from repro.service.checkpoint import CheckpointStore
from repro.service.client import ServiceClient
from repro.service.daemon import PlacementDaemon, Supervisor
from repro.service.loadgen import run_load
from repro.service.policy import BreakerOpenError, DegradePolicy
from repro.service.server import PlacementService

__all__ = [
    "BreakerOpenError",
    "CheckpointStore",
    "DegradePolicy",
    "PlacementDaemon",
    "PlacementService",
    "SERVICE_CHAOS_ENV",
    "ServiceChaos",
    "ServiceClient",
    "Supervisor",
    "parse_service_chaos",
    "run_load",
]
