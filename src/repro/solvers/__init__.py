"""Pluggable solver backends for MC-PERF bounds.

``repro.solvers.registry`` holds the backend names, the LP-level dispatch
registry and the structure-aware selector; ``repro.solvers.tree_dp`` and
``repro.solvers.decompose`` implement the two structural backends.  The
registry is re-exported eagerly (it is a leaf module); the structural
backends load lazily because they pull in ``core``/``runner`` machinery.
"""

from __future__ import annotations

from repro.solvers.registry import (
    BACKEND_AUTO,
    BACKEND_DECOMPOSED,
    BACKEND_SCIPY,
    BACKEND_STRUCTURE,
    BACKEND_TREE_DP,
    BOUND_BACKENDS,
    LP_BACKENDS,
    SolverBackend,
    estimated_lp_variables,
    get_backend,
    register_backend,
    registered_backends,
    select_backend,
    solve_lp,
)

_LAZY = {
    "tree_dp_applicable": "repro.solvers.tree_dp",
    "solve_tree_dp": "repro.solvers.tree_dp",
    "decomposition_applicable": "repro.solvers.decompose",
    "solve_decomposed": "repro.solvers.decompose",
}

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_SCIPY",
    "BACKEND_STRUCTURE",
    "BACKEND_TREE_DP",
    "BACKEND_DECOMPOSED",
    "LP_BACKENDS",
    "BOUND_BACKENDS",
    "SolverBackend",
    "register_backend",
    "registered_backends",
    "get_backend",
    "solve_lp",
    "estimated_lp_variables",
    "select_backend",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
