"""Solved-LP result object."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np


class SolveStatus(str, enum.Enum):
    """Outcome of a solve; the two limits end only MIP solves."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"
    NODE_LIMIT = "node-limit"
    TIME_LIMIT = "time-limit"


@dataclass
class LPSolution:
    """Values and metadata from a solver backend.

    Attributes
    ----------
    status:
        Terminal status of the solve.
    objective:
        Objective value at the returned point (only meaningful when
        :attr:`status` is :data:`SolveStatus.OPTIMAL`).
    values:
        Column values in model index order (numpy array or list).
    backend:
        Which backend produced the solution (``"scipy"`` for HiGHS).
    message:
        Backend-specific diagnostic text.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Sequence[float] = field(default_factory=list)
    backend: str = ""
    message: str = ""
    #: Per-constraint dual values (model row order; d objective / d rhs).
    #: None when the backend does not provide duals.
    duals: Optional[Sequence[float]] = None
    #: Opaque simplex basis handle (:class:`repro.lp.basis.Basis`) for
    #: warm-started re-solves; None when the solve was not optimal, HiGHS
    #: reported no valid basis, or the payload predates warm starts.
    basis: Optional[object] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, index: int) -> float:
        return float(self.values[index])

    def require_optimal(self) -> "LPSolution":
        """Raise if the solve did not reach optimality; return self otherwise."""
        if not self.is_optimal:
            raise RuntimeError(
                f"LP solve failed: status={self.status.value} message={self.message!r}"
            )
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        return {
            "status": self.status.value,
            "objective": float(self.objective),
            "values": [float(v) for v in self.values],
            "backend": self.backend,
            "message": self.message,
            "duals": None if self.duals is None else [float(d) for d in self.duals],
            "basis": None if self.basis is None else self.basis.to_dict(),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "LPSolution":
        """Inverse of :meth:`to_dict`.

        The basis handle is decoded tolerantly: an absent, stale or
        corrupted payload yields ``basis=None``, which downstream means
        "cold solve" — a cache hit must never error over its warm-start
        metadata.
        """
        from repro.lp.basis import Basis

        return LPSolution(
            status=SolveStatus(payload["status"]),
            objective=float(payload["objective"]),
            values=list(payload["values"]),
            backend=str(payload.get("backend", "")),
            message=str(payload.get("message", "")),
            duals=None if payload.get("duals") is None else list(payload["duals"]),
            basis=Basis.from_dict(payload.get("basis")),
        )

    def __repr__(self) -> str:
        obj = f"{self.objective:.6g}" if self.is_optimal else "n/a"
        return (
            f"LPSolution(status={self.status.value}, objective={obj}, "
            f"nvars={len(self.values)}, backend={self.backend!r})"
        )


@dataclass
class MIPSolution:
    """Outcome of a MIP solve (:func:`repro.lp.scipy_backend.solve_mip`).

    ``objective`` and ``values`` are the incumbent, None without one.
    ``dual_bound`` is the proven lower bound on the integral optimum: equal
    to ``objective`` when optimal, ``-inf`` when nothing is proven.
    ``nodes`` is HiGHS's branch-and-bound node count.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Optional[np.ndarray] = None
    dual_bound: float = float("-inf")
    nodes: int = 0
    message: str = ""
