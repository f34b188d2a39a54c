"""Solver-backend registry — the single source of truth for backend names.

This module centralizes both the backend *names* and the LP *dispatch*:

* :data:`BACKEND_AUTO` / :data:`BACKEND_SCIPY` — the LP-level backends
  :meth:`~repro.lp.model.LinearProgram.solve` accepts.  Both are HiGHS
  through scipy's bindings; ``auto`` stays a name of its own because it is
  the CLI default and part of every task digest;
* :data:`BACKEND_STRUCTURE` / :data:`BACKEND_TREE_DP` /
  :data:`BACKEND_DECOMPOSED` — the bound-level backends
  :func:`~repro.core.bounds.compute_lower_bound` accepts on top of those.
  ``structure`` introspects the problem (:func:`select_backend`) and picks
  the exact tree DP when the topology is a tree metric, the separable
  per-object fan-out when the goal scope splits by object and the
  monolithic LP would be large, and the monolithic ``auto`` path
  otherwise.

This module is deliberately a leaf: it imports no other ``repro`` module at
import time (solver modules load lazily inside the dispatch functions), so
``lp``, ``core`` and ``runner`` may all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: LP-level backend names (accepted by ``LinearProgram.solve``).
BACKEND_AUTO = "auto"
BACKEND_SCIPY = "scipy"

#: Bound-level backend names (accepted by ``compute_lower_bound`` on top of
#: the LP-level names).
BACKEND_STRUCTURE = "structure"
BACKEND_TREE_DP = "tree-dp"
BACKEND_DECOMPOSED = "decomposed"

LP_BACKENDS: Tuple[str, ...] = (BACKEND_AUTO, BACKEND_SCIPY)
BOUND_BACKENDS: Tuple[str, ...] = LP_BACKENDS + (
    BACKEND_STRUCTURE,
    BACKEND_TREE_DP,
    BACKEND_DECOMPOSED,
)

#: ``structure`` prefers the separable per-object fan-out only when the
#: monolithic LP would be at least this large — below it one HiGHS solve is
#: faster than coordinating per-object subproblems.
DECOMPOSITION_MIN_VARIABLES = 50_000


def _solve_scipy(model, **kwargs):
    from repro.lp.scipy_backend import solve_with_scipy

    return solve_with_scipy(model, **kwargs)


@dataclass(frozen=True)
class SolverBackend:
    """One registered LP backend: a name and a solve callable."""

    name: str
    solve: Callable
    description: str = ""


_REGISTRY: Dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend) -> SolverBackend:
    """Register (or replace) an LP backend under its name."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> SolverBackend:
    """Look a backend up by name; unknown names raise ``ValueError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown LP backend: {name!r}") from None


def registered_backends() -> Tuple[str, ...]:
    """Names of every registered LP backend, registration order."""
    return tuple(_REGISTRY)


register_backend(
    SolverBackend(
        name=BACKEND_AUTO,
        solve=_solve_scipy,
        description="HiGHS via scipy's bindings (the default)",
    )
)
register_backend(
    SolverBackend(
        name=BACKEND_SCIPY,
        solve=_solve_scipy,
        description="HiGHS via scipy's bindings (returns its optimal basis)",
    )
)


#: Optional dispatch guard: ``guard(backend_name, solve_thunk) -> result``.
#: The placement service installs its circuit breaker here so *every* LP
#: dispatch in the process — bound queries, daemon re-solves — feeds the
#: breaker's failure accounting and is refused fast while it is open.
_GUARD: Optional[Callable[[str, Callable[[], object]], object]] = None


def install_solve_guard(
    guard: Optional[Callable[[str, Callable[[], object]], object]],
) -> None:
    """Install (or clear, with None) the process-wide LP dispatch guard."""
    global _GUARD
    _GUARD = guard


def warm_starts_enabled() -> bool:
    """Warm-started re-solves are on unless ``REPRO_LP_WARM=0``.

    The kill switch exists for benchmarking cold baselines and as an
    operational escape hatch; with it off every solve is a cold solve.
    """
    import os

    return os.environ.get("REPRO_LP_WARM", "1") not in ("0", "off", "no")


def solve_lp(model, backend: str = BACKEND_AUTO, warm_start=None, **kwargs):
    """Dispatch ``model`` to the named LP backend.

    This is the registry-backed implementation behind
    :meth:`repro.lp.model.LinearProgram.solve`.  When a guard is installed
    (the service's circuit breaker), the dispatch routes through it.

    ``warm_start`` (a :class:`~repro.lp.basis.Basis` or a previous
    :class:`~repro.lp.solution.LPSolution`) is handed to the backend
    itself: HiGHS starts from it through ``setBasis`` when the model has
    no retained instance to hot-start from, and degrades to a cold solve
    on any problem with the hint.  Only the stock LP backends
    (:data:`LP_BACKENDS`) get the hint, and only while
    :func:`warm_starts_enabled`: a custom registered backend was named for
    a reason, and its own solve must stay what callers like the service's
    circuit breaker see.
    """
    solver = get_backend(backend)
    if warm_start is not None and backend in LP_BACKENDS and warm_starts_enabled():
        kwargs["warm_start"] = warm_start

    def thunk():
        return solver.solve(model, **kwargs)

    if _GUARD is None:
        return thunk()
    return _GUARD(backend, thunk)


def estimated_lp_variables(problem) -> int:
    """Cheap upper-ballpark of the monolithic MC-PERF variable count.

    Two variables (store/create) per (storer, interval, object) plus one
    covered variable per demanded cell — before pruning, so it errs high,
    which is the safe direction for the decomposition-size gate.
    """
    import numpy as np

    storers = len(problem.storer_ids())
    cells = int(np.count_nonzero(problem.demand.reads))
    return 2 * storers * problem.demand.num_intervals * problem.demand.num_objects + cells


def select_backend(problem, properties=None) -> str:
    """Structure-aware backend selection for ``backend="structure"``.

    Order of preference: the exact tree DP (polynomial, bypasses the LP)
    when the instance is in its class; the separable per-object fan-out
    when the goal scope splits by object (``PER_OBJECT`` /
    ``PER_USER_OBJECT``, no shared resource rows) and the monolithic LP
    would be large (:data:`DECOMPOSITION_MIN_VARIABLES`); otherwise the
    monolithic ``auto`` path — per-user and overall scopes always end here
    unless the tree DP applies.
    """
    from repro.solvers.tree_dp import tree_dp_applicable

    ok, _reason = tree_dp_applicable(problem, properties)
    if ok:
        return BACKEND_TREE_DP

    from repro.solvers.decompose import decomposition_applicable

    ok, _reason = decomposition_applicable(problem, properties)
    if ok and estimated_lp_variables(problem) >= DECOMPOSITION_MIN_VARIABLES:
        return BACKEND_DECOMPOSED
    return BACKEND_AUTO
