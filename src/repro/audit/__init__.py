"""Solution auditing: certificates, differential checks, consistency gates.

The paper's method stands on a numerical claim — the LP relaxation is a
true lower bound, the rounded placement is feasible, and every simulated
heuristic's cost sits at or above its class's bound.  This package
*certifies* those invariants instead of trusting the solver:

* :mod:`repro.audit.report` — :class:`AuditReport` / :class:`AuditViolation`,
  the structured outcome every audit produces (violations are records, not
  exceptions — they flow into run manifests and post-hoc reports);
* :mod:`repro.audit.exact` — LP solution checks (primal feasibility,
  variable bounds, objective): vectorized floats in ``fast`` mode, exact
  :class:`fractions.Fraction` arithmetic in ``full``, which also certifies
  the objective from below by weak duality;
* :mod:`repro.audit.certificates` — placement/rounding/bound-result
  certificates recomputed from scratch, plus the historical
  ``check_solution`` / ``verify_placement`` APIs (one source of truth;
  ``repro.lp`` and ``repro.core`` re-export them from here);
* :mod:`repro.audit.differential` — structural backends (tree DP,
  decomposition) re-solved as the monolithic LP, with bound agreement;
* :mod:`repro.audit.posthoc` — ``repro audit <run-dir>``: re-verify a
  completed run's artifacts, including the cross-cell monotonicity and
  simulated-cost >= bound gates.

Modes (``--audit`` / ``REPRO_AUDIT``): ``off`` (default), ``fast``
(float arithmetic on every LP row and bound in one vectorized pass +
objective recomputation + from-scratch placement certificates), ``full``
(exact arithmetic on every row/bound + the weak-duality ``dual`` check).  See
docs/AUDIT.md.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.audit.certificates import (
    HEURISTIC_CLASS,
    PlacementReport,
    ValidationReport,
    Violation,
    allowance,
    audit_bound_result,
    audit_placement,
    audit_rounding,
    audit_continuous_result,
    audit_sim_result,
    check_solution,
    sim_gate_violation,
    verify_placement,
)
from repro.audit.differential import (
    DIFFERENTIAL_TOL,
    audit_backend_agreement,
    resolve_sample,
    selected_for_sample,
)
from repro.audit.exact import audit_lp_solution, dual_bound, exact_objective
from repro.audit.posthoc import DEFAULT_SIM_EPS, audit_run_dir
from repro.audit.report import (
    AUDIT_MODES,
    DEFAULT_EPS,
    DEFAULT_TOL,
    AuditReport,
    AuditViolation,
)

#: Environment variable supplying the default audit mode.
MODE_ENV = "REPRO_AUDIT"

__all__ = [
    "AUDIT_MODES",
    "DEFAULT_EPS",
    "DEFAULT_SIM_EPS",
    "DEFAULT_TOL",
    "DIFFERENTIAL_TOL",
    "HEURISTIC_CLASS",
    "MODE_ENV",
    "AuditReport",
    "AuditViolation",
    "PlacementReport",
    "ValidationReport",
    "Violation",
    "allowance",
    "audit_backend_agreement",
    "audit_bound_result",
    "audit_lp_solution",
    "audit_placement",
    "audit_rounding",
    "audit_run_dir",
    "audit_continuous_result",
    "audit_sim_result",
    "check_solution",
    "dual_bound",
    "exact_objective",
    "resolve_mode",
    "resolve_sample",
    "selected_for_sample",
    "sim_gate_violation",
    "verify_placement",
]


def resolve_mode(mode: Optional[str] = None) -> str:
    """The effective audit mode: explicit argument, else ``REPRO_AUDIT``, else off.

    An explicit unknown mode raises; an unknown environment value is
    ignored (an env typo must not change results or crash a worker).
    """
    if mode:
        if mode not in AUDIT_MODES:
            raise ValueError(
                f"unknown audit mode {mode!r} (expected one of {', '.join(AUDIT_MODES)})"
            )
        return mode
    env = os.environ.get(MODE_ENV, "").strip().lower()
    return env if env in AUDIT_MODES else "off"
