"""Tiered overload adaptation: degrade answer quality before refusing.

The admission queue (:mod:`repro.service.admission`) converts overload
into honest 429s — but a shed request gets *nothing*, and under a flash
crowd that is often worse than an approximate or slightly stale answer.
:class:`BrownoutController` inserts two tiers between "full service" and
"shed", keyed off the one pressure signal the service already has: the
admission queue's in-flight depth.

``normal``  (pressure < ``brownout_depth``)
    Exact LP bound solves, full demand resolution.

``brownout``  (pressure >= ``brownout_depth``)
    Bound queries are answered with a cheap approximation — the demand
    matrix collapses to one interval and the solve routes through the
    ``structure`` backend, which takes one of three routes: the exact
    tree DP when the topology is a tree metric, the separable per-object
    fan-out when the goal scope splits by object and the LP is large, or
    the monolithic LP.  Responses carry
    ``approx: true`` so clients know the number is a coarser bound, not
    the exact optimum.

``shed``  (admission full)
    Before the 429 goes out, a last-known-good answer no older than
    ``stale_ttl_s`` is served with ``stale: true`` — a bounded-staleness
    answer beats a refusal, but an *unbounded* one silently serves
    yesterday's placement, hence the TTL.

Every decision is counted under ``service.brownout.*`` so chaos
campaigns (and BENCH_service.json) can assert the degradation ladder was
actually exercised rather than bypassed.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.perf import PERF
from repro.service.admission import AdmissionQueue

TIER_NORMAL = "normal"
TIER_BROWNOUT = "brownout"
TIER_SHED = "shed"


class BrownoutController:
    """Pressure-keyed degradation policy around one admission queue."""

    def __init__(
        self,
        admission: AdmissionQueue,
        *,
        brownout_depth: float = 0.5,
        stale_ttl_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < brownout_depth <= 1.0:
            raise ValueError("brownout_depth must be in (0, 1]")
        if stale_ttl_s < 0:
            raise ValueError("stale_ttl_s must be >= 0")
        self.admission = admission
        self.brownout_depth = brownout_depth
        self.stale_ttl_s = stale_ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        # Last-known-good per class name, with the time it was computed:
        # the degraded-mode answer for both breaker-open and shed paths.
        self._lkg: Dict[str, Tuple[Dict[str, object], float]] = {}
        self.approx_served = 0
        self.stale_served = 0
        self.stale_expired = 0
        self.shed_hard = 0

    # -- pressure ------------------------------------------------------------

    def pressure(self) -> float:
        """Admission-queue depth as a fraction of capacity, in [0, 1]."""
        return min(1.0, self.admission.in_flight / self.admission.limit)

    def tier(self) -> str:
        if self.admission.in_flight >= self.admission.limit:
            return TIER_SHED
        if self.pressure() >= self.brownout_depth:
            return TIER_BROWNOUT
        return TIER_NORMAL

    def wants_approx(self) -> bool:
        """Should the next bound solve run the cheap approximate path?"""
        return self.tier() != TIER_NORMAL

    # -- accounting ----------------------------------------------------------

    def note_approx(self) -> None:
        self.approx_served += 1
        PERF.count("service.brownout.approx")

    def note_shed(self) -> None:
        self.shed_hard += 1
        PERF.count("service.brownout.shed")

    # -- last-known-good store ------------------------------------------------

    def note_result(self, class_name: str, payload: Dict[str, object]) -> None:
        """Record a successful answer as the class's last-known-good."""
        with self._lock:
            self._lkg[class_name] = (payload, self._clock())

    def stale_answer(self, class_name: str) -> Optional[Dict[str, object]]:
        """The class's LKG if within the staleness TTL, else None.

        A hit counts ``service.brownout.stale``; an entry that exists but
        has aged out counts ``service.brownout.expired`` — the difference
        between "served degraded" and "had nothing honest to serve".
        """
        with self._lock:
            entry = self._lkg.get(class_name)
            if entry is None:
                return None
            payload, at = entry
            if self._clock() - at > self.stale_ttl_s:
                self.stale_expired += 1
                PERF.count("service.brownout.expired")
                return None
            self.stale_served += 1
            PERF.count("service.brownout.stale")
            return payload

    def status(self) -> Dict[str, object]:
        """JSON-safe snapshot for ``/stats``."""
        with self._lock:
            lkg_classes = sorted(self._lkg)
        return {
            "tier": self.tier(),
            "pressure": self.pressure(),
            "brownout_depth": self.brownout_depth,
            "stale_ttl_s": self.stale_ttl_s,
            "approx_served": self.approx_served,
            "stale_served": self.stale_served,
            "stale_expired": self.stale_expired,
            "shed_hard": self.shed_hard,
            "lkg_classes": lkg_classes,
        }
