"""Opaque simplex basis handle for warm-started re-solves.

A simplex basis over the standard form ``A x + s = b`` (one slack per
constraint row) is fully described by a status per column — structural
variables first, then the row slacks:

* ``BASIC`` — the column is in the basis; its value comes from
  ``B^-1 (b - A_N x_N)``.
* ``AT_LOWER`` / ``AT_UPPER`` — nonbasic at the named bound.
* ``NB_FREE`` — nonbasic free variable, held at zero.

The handle is deliberately *opaque* to every caller: the sweeps and the
placement service only move it from one
:class:`~repro.lp.solution.LPSolution` to the next ``solve(warm_start=...)``
call.  Validation happens at the point of use (HiGHS's ``setBasis``): a
handle whose shape no longer matches the model — stale cache entries,
structurally edited models — degrades to a cold solve instead of erroring.
The status format is HiGHS-independent, so a handle survives JSON
(``to_dict``/``from_dict``) and pickling.

A solve that nobody warm-starts from never needs the statuses, so a backend
may hand out a *deferred* handle (:meth:`Basis.deferred`): it keeps the
backend's own snapshot and derives the statuses on first read, counting
``lp.basis.materialized``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.perf import PERF

#: Column status codes (int8 in the statuses array).
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
NB_FREE = 3

_VALID_STATUSES = frozenset((BASIC, AT_LOWER, AT_UPPER, NB_FREE))


class Basis:
    """One simplex basis: per-column statuses plus the shape it belongs to.

    ``statuses`` has ``nvars + nrows`` entries (structural columns, then one
    slack per row).  The handle is treated as immutable and is picklable —
    it travels through the runner's process pool and the service's
    in-memory caches; a deferred handle materializes its statuses to pickle.
    """

    __slots__ = ("nvars", "nrows", "source", "_statuses")

    def __init__(self, statuses: np.ndarray, nvars: int, nrows: int):
        self._statuses = np.asarray(statuses, dtype=np.int8)
        self.nvars, self.nrows = nvars, nrows
        #: The backend snapshot a deferred handle derives from (None otherwise).
        self.source = None

    @classmethod
    def deferred(cls, source, nvars: int, nrows: int) -> "Basis":
        """A handle whose statuses ``source.statuses()`` derives on first read."""
        basis = cls.__new__(cls)
        basis._statuses, basis.source = None, source
        basis.nvars, basis.nrows = nvars, nrows
        return basis

    @property
    def statuses(self) -> np.ndarray:
        """int8 status per column, structural columns then row slacks."""
        if self._statuses is None:
            self._statuses = np.asarray(self.source.statuses(), dtype=np.int8)
            PERF.count("lp.basis.materialized")
        return self._statuses

    def __reduce__(self):
        return (Basis, (self.statuses, self.nvars, self.nrows))

    def matches(self, nvars: int, nrows: int) -> bool:
        """Does this basis describe a model of the given shape?"""
        # A deferred handle has the right length by construction.
        return (
            self.nvars == nvars
            and self.nrows == nrows
            and (self._statuses is None or len(self._statuses) == nvars + nrows)
        )

    def is_wellformed(self) -> bool:
        """Structurally valid: right length, known codes, exactly m basics."""
        if len(self.statuses) != self.nvars + self.nrows:
            return False
        if not np.isin(self.statuses, list(_VALID_STATUSES)).all():
            return False
        return int(np.count_nonzero(self.statuses == BASIC)) == self.nrows

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (round-tripped by ``LPSolution.to_dict``)."""
        return {
            "statuses": [int(s) for s in self.statuses],
            "nvars": int(self.nvars),
            "nrows": int(self.nrows),
        }

    @staticmethod
    def from_dict(payload: object) -> Optional["Basis"]:
        """Inverse of :meth:`to_dict`; returns None on any malformed payload.

        Tolerant by design: a stale or corrupted basis in a cached artifact
        must degrade the next solve to a cold start, never crash the load.
        """
        if not isinstance(payload, dict):
            return None
        try:
            basis = Basis(
                statuses=np.asarray(payload["statuses"], dtype=np.int8),
                nvars=int(payload["nvars"]),
                nrows=int(payload["nrows"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        return basis if basis.is_wellformed() else None

    def __repr__(self) -> str:
        return f"Basis(nvars={self.nvars}, nrows={self.nrows})"
