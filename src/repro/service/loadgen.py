"""Closed-loop load generator with zero-silent-loss accounting.

``workers`` threads each run a closed loop — issue a request, wait for its
outcome, issue the next — against a running placement service.  Closed
loops are the honest way to drive a service you are also crash-testing:
an open loop (fixed arrival rate) conflates server slowness with client
backlog, while a closed loop's throughput *is* the service's sustainable
rate at that concurrency.

The invariant the benchmark and CI smoke assert on: **every request is
accounted**.  ``issued == ok + shed + stale + errors + connection_errors +
timeouts``, checked by :meth:`LoadReport.accounted`.  A dropped connection
(chaos ``drop``) is a *connection error* — visible, counted — never a gap
in a histogram.  ``lost`` exists only to make the invariant's violation
impossible to miss: it is computed, asserted zero, and reported.

Throughput is reported as **goodput** — non-stale 2xx answers per second —
and latency percentiles cover 2xx answers only: a refused connect returns
in microseconds, so counting it as throughput or latency would make an
outage look like a speed-up.  After a refused connection a worker backs
off exponentially (capped) instead of spinning on the closed port.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.service.client import ServiceClient, ServiceConnectionError


@dataclass
class LoadReport:
    """Aggregate outcome of one load run."""

    duration_s: float = 0.0
    issued: int = 0
    ok: int = 0
    shed: int = 0  # 429: admission full and no fresh LKG, Retry-After honoured
    stale: int = 0  # 200 with stale=true: LKG answers, breaker open or admission full
    unready: int = 0  # 503: not ready / circuit open with no LKG
    errors: int = 0  # other non-2xx (400/404/500/504)
    connection_errors: int = 0  # refused / reset / chaos-dropped
    timeouts: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # 2xx answers only

    @property
    def accounted(self) -> int:
        return (
            self.ok
            + self.shed
            + self.stale
            + self.unready
            + self.errors
            + self.connection_errors
            + self.timeouts
        )

    @property
    def lost(self) -> int:
        """Requests issued but never accounted — must always be zero."""
        return self.issued - self.accounted

    @property
    def goodput_rps(self) -> float:
        """Non-stale 2xx answers per second."""
        return 0.0 if self.duration_s <= 0 else self.ok / self.duration_s

    def latency_percentile(self, pct: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def merge(self, other: "LoadReport") -> None:
        self.issued += other.issued
        self.ok += other.ok
        self.shed += other.shed
        self.stale += other.stale
        self.unready += other.unready
        self.errors += other.errors
        self.connection_errors += other.connection_errors
        self.timeouts += other.timeouts
        self.latencies_ms.extend(other.latencies_ms)

    def to_dict(self) -> Dict[str, object]:
        return {
            "duration_s": self.duration_s,
            "issued": self.issued,
            "ok": self.ok,
            "shed": self.shed,
            "stale": self.stale,
            "unready": self.unready,
            "errors": self.errors,
            "connection_errors": self.connection_errors,
            "timeouts": self.timeouts,
            "lost": self.lost,
            "goodput_rps": self.goodput_rps,
            "latency_ms": {
                "p50": self.latency_percentile(50),
                "p90": self.latency_percentile(90),
                "p99": self.latency_percentile(99),
                "max": max(self.latencies_ms, default=0.0),
            },
        }


#: Default query mix: mostly cheap placement/cost lookups, some expensive
#: bound solves — enough pressure to exercise admission without making the
#: whole run solver-bound.
DEFAULT_MIX: Sequence[Dict[str, object]] = (
    {"kind": "placement"},
    {"kind": "placement"},
    {"kind": "cost"},
    {"kind": "bound", "class": "general", "qos": 0.9},
)


#: Backoff after a refused connection: the first wait, doubled per further
#: consecutive refusal up to the cap, reset by any answer.
BACKOFF_FIRST_S = 0.01
BACKOFF_MAX_S = 0.2


def _worker(
    client: ServiceClient,
    mix: Sequence[Dict[str, object]],
    stop_at: float,
    seed: int,
    report: LoadReport,
) -> None:
    rng = random.Random(seed)
    backoff_s = BACKOFF_FIRST_S
    while time.monotonic() < stop_at:
        query = dict(mix[rng.randrange(len(mix))])
        report.issued += 1
        t0 = time.perf_counter()
        try:
            response = client.query(**query)
        except socket.timeout:
            report.timeouts += 1
            continue
        except (ServiceConnectionError, OSError):
            report.connection_errors += 1
            time.sleep(max(0.0, min(backoff_s, stop_at - time.monotonic())))
            backoff_s = min(2 * backoff_s, BACKOFF_MAX_S)
            continue
        backoff_s = BACKOFF_FIRST_S
        if response.ok:
            report.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        if response.status == 429:
            report.shed += 1
            time.sleep(min(response.retry_after_s or 0.05, 0.5))
        elif response.status == 503:
            report.unready += 1
        elif response.ok and response.payload.get("stale"):
            report.stale += 1
        elif response.ok:
            report.ok += 1
        else:
            report.errors += 1


def run_load(
    host: str,
    port: int,
    *,
    duration_s: float = 5.0,
    workers: int = 4,
    mix: Optional[Sequence[Dict[str, object]]] = None,
    timeout_s: float = 10.0,
    seed: int = 0,
) -> LoadReport:
    """Drive the service for ``duration_s`` and return the merged report.

    Per-worker reports are merged only after every thread joins, so the
    totals are exact — the accounting invariant is checkable, not
    statistical.
    """
    mix = tuple(mix) if mix else DEFAULT_MIX
    stop_at = time.monotonic() + duration_s
    reports = [LoadReport() for _ in range(workers)]
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                ServiceClient(host, port, timeout_s=timeout_s),
                mix,
                stop_at,
                seed + i,
                reports[i],
            ),
            daemon=True,
        )
        for i in range(workers)
    ]
    t0 = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        # Generous slack over the nominal duration: a worker can be blocked
        # in one last in-flight request for up to its client timeout.
        thread.join(duration_s + timeout_s + 30.0)
    total = LoadReport(duration_s=time.monotonic() - t0)
    for report in reports:
        total.merge(report)
    return total
