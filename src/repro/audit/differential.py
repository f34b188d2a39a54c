"""Structural-backend differential checks.

The tree-DP and decomposition backends compute a class's bound without
assembling the monolithic LP; on an instance in their class they must
agree with it on feasibility *and* on the bound.  A disagreement localizes
a bug to one structural backend.  Each check is a full monolithic re-solve,
so it can be sampled across a task population with
:func:`selected_for_sample` — a deterministic hash of the task's content
digest, so "re-solve 10 % of the bound tasks" picks the same 10 % on every
run and every machine.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.audit.report import AuditReport

#: Relative objective-agreement tolerance between backends.  Looser than the
#: certificate tolerance: two exact optimizers agree on the optimum, but
#: each reports it through its own float summation order.
DIFFERENTIAL_TOL = 1e-6

#: Environment override for the backend-agreement sampling fraction (0..1).
SAMPLE_ENV = "REPRO_AUDIT_SAMPLE"


def resolve_sample(fraction: Optional[float] = None) -> float:
    """The backend-agreement sampling fraction: explicit arg, else env, else 1.0."""
    if fraction is not None:
        return min(max(float(fraction), 0.0), 1.0)
    raw = os.environ.get(SAMPLE_ENV, "").strip()
    if not raw:
        return 1.0
    try:
        return min(max(float(raw), 0.0), 1.0)
    except ValueError:
        return 1.0


def selected_for_sample(digest: str, fraction: float) -> bool:
    """Deterministically include a task digest in a ``fraction`` sample.

    Maps the digest's leading hex into [0, 1); identical digests make
    identical decisions everywhere, so sampled audits are reproducible.
    """
    if fraction >= 1.0:
        return True
    if fraction <= 0.0 or not digest:
        return False
    try:
        bucket = int(digest[:12], 16) / float(16**12)
    except ValueError:
        return True
    return bucket < fraction


#: Largest monolithic LP (estimated variables) the backend-agreement check
#: will assemble and solve.
MAX_BACKEND_AGREEMENT_VARIABLES = 400_000


def audit_backend_agreement(
    problem,
    properties,
    result,
    mode: str = "full",
    tol: float = DIFFERENTIAL_TOL,
    max_variables: int = MAX_BACKEND_AGREEMENT_VARIABLES,
    subject: str = "",
) -> AuditReport:
    """Differentially check a structural backend against the monolithic LP.

    ``result`` is a :class:`~repro.core.bounds.LowerBoundResult` produced by
    the tree-DP or decomposition backend; the check re-solves the *same*
    problem through the monolithic ``auto`` path and compares feasibility
    and ``lp_cost``.  Instances whose monolithic LP would exceed
    ``max_variables`` (estimated, never assembled) are skipped with a
    reason — the whole point of the structural backends is that the
    monolith is sometimes too big to build.
    """
    report = AuditReport(mode=mode, subject=subject)
    from repro.solvers.registry import estimated_lp_variables

    estimate = estimated_lp_variables(problem)
    if estimate > max_variables:
        report.skip(
            "backend-differential",
            f"monolithic LP would have ~{estimate} variables "
            f"(> {max_variables}); reference re-solve skipped",
        )
        return report

    from repro.core.bounds import compute_lower_bound

    report.ran("backend-differential")
    name = subject or "backend-differential"
    backend = result.backend_used or "structural"
    reference = compute_lower_bound(
        problem, properties, do_rounding=False, backend="auto", audit="off"
    )
    if bool(reference.feasible) != bool(result.feasible):
        report.flag(
            "backend-differential", name,
            message=f"feasibility disagreement: {backend} says "
            f"{'feasible' if result.feasible else 'infeasible'}, the monolithic "
            f"LP says {'feasible' if reference.feasible else 'infeasible'} "
            f"({reference.reason or reference.status})",
        )
        return report
    if not result.feasible:
        return report

    drift = abs(float(result.lp_cost) - float(reference.lp_cost))
    limit = max(tol, tol * abs(float(reference.lp_cost)))
    if drift > limit:
        report.flag(
            "backend-differential", name, drift,
            message=f"bound disagreement: {backend} {result.lp_cost:.9g} vs "
            f"monolithic LP {reference.lp_cost:.9g} (tolerance {limit:.3g})",
        )
    return report
