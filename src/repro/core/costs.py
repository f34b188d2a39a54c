"""The MC-PERF cost model (Table 1 constants).

Replication cost = storage cost + replica-creation cost (equation (1) of the
paper), optionally extended with a late-access penalty (11), a write/update
cost (12) and a node-opening cost (13).

The paper's experiments use ``alpha = beta = 1`` and all other unit costs 0
(storing one object for one interval costs 1; creating one replica costs 1);
only relative costs matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError


@dataclass(frozen=True)
class CostModel:
    """Unit costs for the MC-PERF objective.

    Attributes
    ----------
    alpha:
        Storage cost per object per evaluation interval.
    beta:
        Cost of creating one replica (network transfer).
    gamma:
        Penalty per unit of excess latency for accesses missing the latency
        threshold (extension (11); served best-effort from the origin).
    delta:
        Cost per update message: each write to an object costs ``delta`` per
        replica of that object (extension (12)).
    zeta:
        Cost of enabling (opening) a node for replica placement
        (extension (13); the deployment scenario uses 10 000).
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    delta: float = 0.0
    zeta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "zeta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    @staticmethod
    def paper_defaults() -> "CostModel":
        """The §6 experimental setting: alpha = beta = 1, everything else 0."""
        return CostModel(alpha=1.0, beta=1.0)

    @staticmethod
    def deployment_defaults(zeta: float = 10_000.0) -> "CostModel":
        """The §6.2 deployment setting: paper defaults plus a node-opening cost."""
        return CostModel(alpha=1.0, beta=1.0, zeta=zeta)

    def with_zeta(self, zeta: float) -> "CostModel":
        return CostModel(self.alpha, self.beta, self.gamma, self.delta, zeta)
