"""Structured audit outcomes: :class:`AuditViolation` and :class:`AuditReport`.

An audit *certifies* a result instead of trusting the solver: every check
that ran is named in ``checks``, every invariant that failed becomes a
first-class :class:`AuditViolation` record (never an exception — violations
must survive into run manifests and post-hoc reports), and checks that
could not run (e.g. the backend-agreement re-solve of a monolithic LP too
large to assemble) are listed in ``skipped`` with a reason, so "no violations"
is never silently conflated with "nothing was checked".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Recognized audit modes, in increasing strictness.
AUDIT_MODES = ("off", "fast", "full")

#: Default absolute/relative tolerance for float-arithmetic checks.
DEFAULT_TOL = 1e-6

#: Default slack for cost-ordering gates (rounded >= bound, simulated >=
#: bound).  Relative to the bound, floored at the absolute tolerance.
DEFAULT_EPS = 1e-6


@dataclass
class AuditViolation:
    """One violated invariant.

    Attributes
    ----------
    check:
        The invariant family, e.g. ``"constraint"``, ``"var-bound"``,
        ``"objective"``, ``"dual"``, ``"placement"``,
        ``"bound-gate"``, ``"sim-gate"``, ``"artifact"``.
    subject:
        What was violated — a constraint or variable name, a task content
        digest, or a (class, level) cell label.
    amount:
        Violation magnitude in the check's natural units (0.0 when the
        check is pass/fail).
    message:
        Human-readable detail.
    """

    check: str
    subject: str
    amount: float = 0.0
    message: str = ""

    def __str__(self) -> str:
        text = f"{self.check} {self.subject}: violated by {self.amount:.3g}"
        if self.message:
            text += f" ({self.message})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "subject": self.subject,
            "amount": float(self.amount),
            "message": self.message,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "AuditViolation":
        return AuditViolation(
            check=str(payload["check"]),
            subject=str(payload["subject"]),
            amount=float(payload.get("amount", 0.0)),
            message=str(payload.get("message", "")),
        )


@dataclass
class AuditReport:
    """Outcome of auditing one result (or one run).

    ``ok`` is True iff no check produced a violation.  ``checks`` names
    every invariant family that actually ran; ``skipped`` carries
    ``"check: reason"`` strings for checks that could not run in this mode
    or at this size.
    """

    mode: str = "off"
    subject: str = ""
    checks: List[str] = field(default_factory=list)
    violations: List[AuditViolation] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def ran(self, check: str) -> None:
        """Record that a check ran (idempotent, keeps first-run order)."""
        if check not in self.checks:
            self.checks.append(check)

    def skip(self, check: str, reason: str) -> None:
        self.skipped.append(f"{check}: {reason}")

    def flag(
        self, check: str, subject: str, amount: float = 0.0, message: str = ""
    ) -> AuditViolation:
        """Record a violation (also marks the check as run)."""
        self.ran(check)
        violation = AuditViolation(check, subject, amount, message)
        self.violations.append(violation)
        return violation

    def merge(self, other: Optional["AuditReport"]) -> "AuditReport":
        """Fold another report's checks/violations/skips into this one."""
        if other is not None:
            for check in other.checks:
                self.ran(check)
            self.violations.extend(other.violations)
            self.skipped.extend(other.skipped)
        return self

    def worst(self) -> Optional[AuditViolation]:
        """The largest-magnitude violation, or None when clean."""
        return max(self.violations, key=lambda v: v.amount, default=None)

    def render(self, max_violations: int = 10) -> str:
        """Human-readable summary (one line when clean)."""
        head = f"audit[{self.mode}]"
        if self.subject:
            head += f" {self.subject}"
        if self.ok:
            line = f"{head}: OK ({len(self.checks)} checks: {', '.join(self.checks)})"
            if self.skipped:
                line += f"; skipped {len(self.skipped)}"
            return line
        lines = [
            f"{head}: {len(self.violations)} violation(s) "
            f"across {len(self.checks)} checks"
        ]
        shown = sorted(self.violations, key=lambda v: -v.amount)[:max_violations]
        lines += [f"  - {v}" for v in shown]
        if len(self.violations) > len(shown):
            lines.append(f"  ... and {len(self.violations) - len(shown)} more")
        for entry in self.skipped:
            lines.append(f"  ~ skipped {entry}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        return {
            "mode": self.mode,
            "subject": self.subject,
            "checks": list(self.checks),
            "violations": [v.to_dict() for v in self.violations],
            "skipped": list(self.skipped),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "AuditReport":
        """Inverse of :meth:`to_dict`."""
        return AuditReport(
            mode=str(payload.get("mode", "off")),
            subject=str(payload.get("subject", "")),
            checks=[str(c) for c in payload.get("checks", [])],
            violations=[
                AuditViolation.from_dict(v) for v in payload.get("violations", [])
            ],
            skipped=[str(s) for s in payload.get("skipped", [])],
        )
