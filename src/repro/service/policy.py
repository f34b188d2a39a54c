"""One degrade ladder for bound queries: exact → approx → stale → shed.

A bound query costs an LP solve, so under overload or a failing solver
tier the service answers with less than the exact bound rather than
queueing or erroring.  :class:`DegradePolicy` owns every input of that
decision and answers it once per query, with one of four tiers:

``exact``
    Admission depth below :data:`APPROX_DEPTH` of the limit: the full
    LP bound.
``approx``
    Depth at or past :data:`APPROX_DEPTH`: the cheap one-interval
    ``structure`` solve, marked ``approx: true`` (never above the exact
    bound; ``tests/service/test_approx_bound.py``).
``stale``
    No solve slot: the breaker is open, or all ``limit`` slots are taken.
    The class's last-known-good (LKG) answer is served if it is at most
    :data:`STALE_TTL_S` old, marked ``stale: true`` with its ``age_s`` and
    the ``cause`` (``breaker-open`` or ``admission-full``).
``shed``
    The same two causes with no fresh LKG: 429 with ``Retry-After`` when
    admission is full, 503 when the breaker is open.

The breaker trips after :data:`BREAKER_FAILURES` consecutive solver
failures (solver errors and expired request deadlines), stays open for
:data:`BREAKER_COOLDOWN_S`, then lets exactly one half-open probe through:
its success closes the breaker, its failure re-opens it.
:meth:`DegradePolicy.guard` is installed as the solver registry's dispatch
guard (:func:`repro.solvers.registry.install_solve_guard`), so every LP
solve in the process, daemon solves included, feeds the same accounting
and is refused fast while the breaker is open.

Each bound answer is counted once, under ``service.tier.<tier>``.
Thread-safe: solves run on executor threads while the asyncio loop asks
for tiers.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.perf import PERF

#: ``Retry-After`` seconds on a 429.
RETRY_AFTER_S = 1.0
#: Consecutive solver failures that open the breaker.
BREAKER_FAILURES = 3
#: Seconds the breaker stays open before its half-open probe.
BREAKER_COOLDOWN_S = 5.0
#: Fraction of the admission limit in flight past which solves go approximate.
APPROX_DEPTH = 0.5
#: Maximum age, in seconds, of a last-known-good answer that may be served.
STALE_TTL_S = 60.0

EXACT, APPROX, STALE, SHED = "exact", "approx", "stale", "shed"
TIERS = (EXACT, APPROX, STALE, SHED)

#: The two causes of the stale-or-shed step.
BREAKER_OPEN = "breaker-open"
ADMISSION_FULL = "admission-full"

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class BreakerOpenError(RuntimeError):
    """Raised instead of dispatching a solve while the breaker is open."""


class DegradePolicy:
    """In-flight count, breaker state and LKG store behind one lock."""

    def __init__(self, limit: int = 8, *, clock: Callable[[], float] = time.monotonic):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self.admitted = 0
        self._state = CLOSED
        self._streak = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0
        self.failures = 0
        self._lkg: Dict[str, Tuple[Dict[str, object], float]] = {}
        self.tiers = dict.fromkeys(TIERS, 0)
        self.shed_by_cause = dict.fromkeys((ADMISSION_FULL, BREAKER_OPEN), 0)
        self.stale_expired = 0

    # -- the ladder ----------------------------------------------------------

    def solve_tier(self) -> str:
        """The tier a solve started now would run at: exact or approx."""
        with self._lock:
            return APPROX if self._in_flight >= APPROX_DEPTH * self.limit else EXACT

    def enter(self) -> Optional[str]:
        """Take a solve slot, or return why there is none.

        ``None`` means the slot is taken (give it back with :meth:`leave`);
        otherwise the cause, :data:`BREAKER_OPEN` or :data:`ADMISSION_FULL`,
        goes to :meth:`degrade`.
        """
        with self._lock:
            if self._breaker_state() == OPEN:
                return BREAKER_OPEN
            if self._in_flight >= self.limit:
                return ADMISSION_FULL
            self._in_flight += 1
            self.admitted += 1
            return None

    def leave(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)

    def answer(self, payload: Dict[str, object], *, cached: bool) -> Tuple[int, Dict[str, object]]:
        """A solved (or cached) bound, counted as exact or approx."""
        tier = APPROX if payload.get("approx") else EXACT
        with self._lock:
            self._count(tier)
        return 200, dict(payload, cached=cached, stale=False, tier=tier)

    def degrade(self, class_name: str, cause: str) -> Tuple[int, Dict[str, object]]:
        """The stale-or-shed step: the class's fresh LKG, else a refusal.

        An LKG older than :data:`STALE_TTL_S` counts
        ``service.stale.expired`` and is not served: an unbounded-staleness
        answer would serve yesterday's bound long after the solver died.
        """
        with self._lock:
            entry = self._lkg.get(class_name)
            if entry is not None:
                payload, at = entry
                age = self._clock() - at
                if age <= STALE_TTL_S:
                    self._count(STALE)
                    return 200, dict(
                        payload, cached=True, stale=True, tier=STALE, age_s=age, cause=cause
                    )
                self.stale_expired += 1
                PERF.count("service.stale.expired")
            self._count(SHED)
            self.shed_by_cause[cause] += 1
            if cause == ADMISSION_FULL:
                return 429, {
                    "error": "overloaded, request shed",
                    "retry_after_s": RETRY_AFTER_S,
                    "class": class_name,
                    "cause": cause,
                }
            return 503, {
                "error": "solver circuit open and no fresh last-known-good result",
                "class": class_name,
                "cause": cause,
            }

    def remember(self, class_name: str, payload: Dict[str, object]) -> None:
        """Record a solved answer as the class's last-known-good."""
        with self._lock:
            self._lkg[class_name] = (payload, self._clock())

    def _count(self, tier: str) -> None:
        """Count one answer at ``tier``; the caller holds the lock."""
        self.tiers[tier] += 1
        PERF.count(f"service.tier.{tier}")

    # -- the breaker ---------------------------------------------------------

    @property
    def breaker(self) -> str:
        with self._lock:
            return self._breaker_state()

    def _breaker_state(self) -> str:
        """The state under the lock, promoting open to half-open."""
        if self._state == OPEN and self._clock() - self._opened_at >= BREAKER_COOLDOWN_S:
            self._state = HALF_OPEN
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """Whether a solve may be dispatched now: half-open admits one probe."""
        with self._lock:
            state = self._breaker_state()
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return state == CLOSED

    def record_success(self) -> None:
        with self._lock:
            self._streak = 0
            self._probing = False
            self._state = CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._probing = False
            self._streak += 1
            # A failed half-open probe re-opens at once and re-arms the cooldown.
            if self._state == HALF_OPEN or (
                self._state == CLOSED and self._streak >= BREAKER_FAILURES
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._streak = 0
                self.trips += 1
                PERF.count("service.breaker.trip")

    def guard(self, backend: str, thunk: Callable[[], object]) -> object:
        """Solve guard for :func:`repro.solvers.registry.install_solve_guard`."""
        if not self.allow():
            raise BreakerOpenError(
                f"solver circuit open (cooldown {BREAKER_COOLDOWN_S:g}s)"
            )
        try:
            result = thunk()
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result

    def status(self) -> Dict[str, object]:
        """JSON-safe snapshot for ``/stats``."""
        with self._lock:
            return {
                "limit": self.limit,
                "in_flight": self._in_flight,
                "admitted": self.admitted,
                "breaker": self._breaker_state(),
                "trips": self.trips,
                "failures": self.failures,
                "tiers": dict(self.tiers),
                "shed_by_cause": dict(self.shed_by_cause),
                "stale_expired": self.stale_expired,
                "lkg_classes": sorted(self._lkg),
            }
