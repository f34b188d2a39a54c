"""Deterministic fault injection for the placement service.

Every recovery path the service claims to have must be drivable from a
test, so the failure modes are injected, not hoped for.  Injection is
configured by the ``REPRO_SERVICE_CHAOS`` environment variable (or the
``--chaos`` flag), which takes chaos-plan clauses (:mod:`repro.chaos`)
restricted to the service and checkpoint layers::

    REPRO_SERVICE_CHAOS="drop:p=0.1,seed=7;slow:p=0.5,ms=200,seed=7"
    REPRO_SERVICE_CHAOS="crash:epoch=2;corrupt_checkpoint:at=1"

A spec that works here composes unchanged into a ``repro chaos`` campaign.

Injection sites:

``drop`` / ``slow``
    Probabilistic connection drops and solve slowdowns (optionally
    windowed to an epoch range with ``epochs=a-b`` in plan grammar).  A
    dropped connection must surface to clients as a connection error,
    never a hang; a slowdown sleeps ``slow_ms`` inside the solver tier.
``crash:epoch=<n>``
    ``os._exit`` while epoch ``n`` is being computed, *before* its journal
    record is written — the "kill -9 mid-epoch" case; recovery replays
    epoch ``n`` from the previous boundary.
``crash:checkpoint=<n>``
    ``os._exit`` after epoch ``n``'s journal append but *before* the
    snapshot is rewritten — the torn-checkpoint case; recovery must take
    the journal record over the stale snapshot.
``corrupt_checkpoint:at=<n>[,mode=tail|snapshot]``
    Garble epoch ``n``'s durable bytes without crashing: ``tail`` tears
    the just-appended journal record (a disk that lied about the fsync),
    ``snapshot`` garbles the snapshot file after its rewrite.  Recovery
    must skip the damage and replay — byte-identical convergence is the
    invariant the chaos campaign asserts.

All probabilistic draws are a SHA-256 of ``(seed, site, counter)``
(:func:`repro.chaos.plan.chaos_draw`), so a run with a fixed seed injects
the same faults every time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.chaos.plan import chaos_draw, parse_plan

#: Environment hook configuring service-level fault injection.
SERVICE_CHAOS_ENV = "REPRO_SERVICE_CHAOS"

#: Exit status used by injected crashes, distinguishable from SIGKILL's 137
#: so tests can tell an injected crash from an external kill.
CHAOS_EXIT_CODE = 57


@dataclass(frozen=True)
class ServiceChaos:
    """The service-layer injector of one chaos plan."""

    drop: float = 0.0
    slow: float = 0.0
    slow_ms: float = 100.0
    crash_at_epoch: int = -1
    crash_checkpoint_at: int = -1
    corrupt_checkpoint_at: int = -1
    corrupt_mode: str = "tail"
    drop_window: Optional[Tuple[int, int]] = None
    slow_window: Optional[Tuple[int, int]] = None
    seed: int = 0

    def _draw(self, site: str, counter: int) -> float:
        return chaos_draw(self.seed, site, counter)

    @staticmethod
    def _in_window(window: Optional[Tuple[int, int]], epoch: Optional[int]) -> bool:
        if window is None:
            return True
        if epoch is None:
            return False
        return window[0] <= epoch <= window[1]

    def should_drop(self, counter: int, epoch: Optional[int] = None) -> bool:
        if self.drop <= 0.0 or not self._in_window(self.drop_window, epoch):
            return False
        return self._draw("drop", counter) < self.drop

    def should_slow(self, counter: int, epoch: Optional[int] = None) -> bool:
        if self.slow <= 0.0 or not self._in_window(self.slow_window, epoch):
            return False
        return self._draw("slow", counter) < self.slow

    def maybe_crash_epoch(self, index: int) -> None:
        """Die mid-epoch (before the journal record) when configured."""
        if index == self.crash_at_epoch:
            _crash(f"mid-epoch {index}")

    def maybe_crash_checkpoint(self, index: int) -> None:
        """Die between journal append and snapshot when configured."""
        if index == self.crash_checkpoint_at:
            _crash(f"checkpoint after epoch {index}")

    def should_corrupt_checkpoint(self, index: int) -> bool:
        """True when epoch ``index``'s durable bytes should be garbled."""
        return index == self.corrupt_checkpoint_at


def _crash(where: str) -> None:
    """Simulate a hard crash: no cleanup, no flushes, no excuses."""
    os.write(2, f"chaos: injected crash ({where})\n".encode())
    os._exit(CHAOS_EXIT_CODE)


def parse_service_chaos(raw: Optional[str] = None) -> Optional[ServiceChaos]:
    """Parse a chaos spec string (default: the env var); None when unset.

    Accepts service- and checkpoint-layer plan clauses
    (:func:`repro.chaos.plan.parse_plan`).  Raises
    :class:`~repro.errors.ValidationError` naming the offending clause.
    """
    if raw is None:
        raw = os.environ.get(SERVICE_CHAOS_ENV, "")
    raw = raw.strip()
    if not raw:
        return None
    return parse_plan(raw, layers=("service", "checkpoint")).service_chaos()
