"""Performance goals (§3.1).

Two goal metrics are supported, as in the paper:

* :class:`QoSGoal` — at least ``fraction`` of reads must be served within
  ``tlat_ms`` (constraint (2)); the paper's experiments use this metric at a
  150 ms threshold with QoS sweeps from 95 % to 99.999 %.
* :class:`AverageLatencyGoal` — the mean perceived read latency must not
  exceed ``tavg_ms`` (constraints (7)–(10); requires routing variables).

Both can be scoped per user/node (paper default), over the whole system, per
object, or per (user, object) pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

from repro.errors import ValidationError


class GoalScope(str, enum.Enum):
    """Over what population the goal must hold."""

    PER_USER = "per_user"  # one constraint per demand node (paper experiments)
    OVERALL = "overall"  # one constraint for the whole system
    PER_OBJECT = "per_object"  # one constraint per object
    PER_USER_OBJECT = "per_user_object"  # one constraint per (node, object)


def scope_key(scope: GoalScope, nd: int, k: int) -> object:
    """The key of the goal constraint that demand node ``nd``'s reads of
    object ``k`` count toward."""
    if scope is GoalScope.PER_USER:
        return nd
    if scope is GoalScope.OVERALL:
        return "all"
    if scope is GoalScope.PER_OBJECT:
        return ("k", k)
    return (nd, k)


@dataclass(frozen=True)
class QoSGoal:
    """Serve at least ``fraction`` of reads within ``tlat_ms``.

    Attributes
    ----------
    tlat_ms:
        The latency threshold Tlat (paper: 150 ms).
    fraction:
        The required covered fraction Tqos in (0, 1].
    scope:
        Constraint granularity (paper: per user, over all objects).
    """

    tlat_ms: float
    fraction: float
    scope: GoalScope = GoalScope.PER_USER

    def __post_init__(self) -> None:
        for name in ("tlat_ms", "fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.tlat_ms < 0:
            raise ValueError("latency threshold must be non-negative")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("QoS fraction must be in (0, 1]")
        object.__setattr__(self, "scope", GoalScope(self.scope))

    def describe(self) -> str:
        return f"{self.fraction:.5%} of reads within {self.tlat_ms:g} ms ({self.scope.value})"


@dataclass(frozen=True)
class AverageLatencyGoal:
    """Mean read latency must not exceed ``tavg_ms``.

    ``tlat_ms`` still defines the reachability threshold used by routing-
    knowledge restrictions and by the miss penalty; by default it equals
    ``tavg_ms``.
    """

    tavg_ms: float
    tlat_ms: float = -1.0
    scope: GoalScope = GoalScope.PER_USER

    def __post_init__(self) -> None:
        for name in ("tavg_ms", "tlat_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.tavg_ms < 0:
            raise ValueError("average latency target must be non-negative")
        if self.tlat_ms < 0:
            object.__setattr__(self, "tlat_ms", self.tavg_ms)
        object.__setattr__(self, "scope", GoalScope(self.scope))

    def describe(self) -> str:
        return f"mean read latency <= {self.tavg_ms:g} ms ({self.scope.value})"


PerformanceGoal = Union[QoSGoal, AverageLatencyGoal]
