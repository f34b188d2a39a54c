"""Sensitivity analysis: how robust is the recommendation?

The paper's method is off-line — "it has to be run explicitly by the
designer as changes in the system occur".  This module quantifies how far
the inputs can move before the recommendation changes, the questions a
designer asks before trusting a choice:

* :func:`threshold_sensitivity` — sweep the latency threshold Tlat.
* :func:`qos_sensitivity` — sweep the QoS fraction.
* :func:`cost_ratio_sensitivity` — sweep the storage/creation price ratio
  (alpha vs beta), which the paper notes "provide a way to change the
  weight" of the two cost terms.
* :func:`recommendation_stability` — the fraction of perturbed scenarios in
  which the baseline recommendation survives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.costs import CostModel
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.selection import (
    assemble_report,
    resolve_candidates,
    selection_tasks,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runner.execute import ExperimentRunner


@dataclass
class SensitivityPoint:
    """Selection outcome at one perturbed input.

    ``failed`` lists classes whose bound task failed at this point (resilient
    runner, ``on_error="skip"``); their bounds are absent from
    ``bounds`` rather than silently conflated with infeasibility.
    """

    parameter: str
    value: float
    recommended: Optional[str]
    bounds: Dict[str, Optional[float]] = field(default_factory=dict)
    failed: List[str] = field(default_factory=list)


@dataclass
class SensitivityReport:
    """A parameter sweep's selection outcomes."""

    parameter: str
    baseline_value: float
    baseline_recommendation: Optional[str]
    points: List[SensitivityPoint] = field(default_factory=list)

    def stable_range(self) -> tuple:
        """The (min, max) parameter values keeping the baseline choice."""
        keeping = [
            p.value
            for p in self.points
            if p.recommended == self.baseline_recommendation
        ]
        if not keeping:
            return (float("nan"), float("nan"))
        return (min(keeping), max(keeping))

    def flips(self) -> List[SensitivityPoint]:
        """Points where the recommendation differs from the baseline."""
        return [
            p for p in self.points if p.recommended != self.baseline_recommendation
        ]

    def render(self) -> str:
        lines = [
            f"Sensitivity to {self.parameter} "
            f"(baseline {self.baseline_value:g} -> {self.baseline_recommendation})",
            f"{'value':>10s}  {'recommendation':24s}",
        ]
        for p in self.points:
            marker = "" if p.recommended == self.baseline_recommendation else "  <- flips"
            if p.failed:
                marker += f"  [{len(p.failed)} class(es) failed]"
            lines.append(f"{p.value:10g}  {str(p.recommended):24s}{marker}")
        return "\n".join(lines)

    def failed_points(self) -> List[SensitivityPoint]:
        """Points where at least one class's bound task failed."""
        return [p for p in self.points if p.failed]


def _sweep(problem: MCPerfProblem, parameter: str, values, rebuild, classes, backend, runner=None):
    """Run baseline + perturbed selections as one flattened task batch.

    Every scenario (baseline and each perturbed value) contributes the same
    per-class bound tasks, so the whole sensitivity sweep is a single
    ``len(scenarios) * (1 + len(candidates))`` batch — one scheduler pass
    that a parallel runner fans out across all scenarios at once.
    """
    from repro.runner.execute import run_tasks

    candidates = resolve_candidates(classes)
    scenarios = [problem] + [rebuild(problem, value) for value in values]
    tasks = []
    for scenario in scenarios:
        tasks.extend(
            selection_tasks(scenario, candidates, do_rounding=False, backend=backend)
        )
    results = run_tasks(tasks, runner)

    stride = 1 + len(candidates)
    reports = [
        assemble_report(
            scenario,
            candidates,
            results[k * stride],
            results[k * stride + 1 : (k + 1) * stride],
        )
        for k, scenario in enumerate(scenarios)
    ]

    baseline, outcomes = reports[0], reports[1:]
    report = SensitivityReport(
        parameter=parameter,
        baseline_value=_baseline_value(problem, parameter),
        baseline_recommendation=baseline.recommended,
    )
    for value, outcome in zip(values, outcomes):
        report.points.append(
            SensitivityPoint(
                parameter=parameter,
                value=float(value),
                recommended=outcome.recommended,
                bounds={name: outcome.bound(name) for name in outcome.results},
                failed=sorted(outcome.failures),
            )
        )
    return report


def _baseline_value(problem: MCPerfProblem, parameter: str) -> float:
    if parameter == "tlat_ms":
        return problem.goal.tlat_ms
    if parameter == "qos_fraction":
        return problem.goal.fraction
    if parameter == "alpha_over_beta":
        return problem.costs.alpha / problem.costs.beta if problem.costs.beta else float("inf")
    raise ValueError(f"unknown parameter {parameter!r}")


def threshold_sensitivity(
    problem: MCPerfProblem,
    thresholds_ms: Sequence[float],
    classes: Optional[Sequence[object]] = None,
    backend: str = "scipy",
    runner: Optional["ExperimentRunner"] = None,
) -> SensitivityReport:
    """Re-run selection across latency thresholds."""
    if not isinstance(problem.goal, QoSGoal):
        raise TypeError("threshold_sensitivity needs a QoSGoal problem")

    def rebuild(p, tlat):
        return dataclasses.replace(
            p, goal=dataclasses.replace(p.goal, tlat_ms=float(tlat))
        )

    return _sweep(problem, "tlat_ms", thresholds_ms, rebuild, classes, backend, runner)


def qos_sensitivity(
    problem: MCPerfProblem,
    fractions: Sequence[float],
    classes: Optional[Sequence[object]] = None,
    backend: str = "scipy",
    runner: Optional["ExperimentRunner"] = None,
) -> SensitivityReport:
    """Re-run selection across QoS fractions."""
    if not isinstance(problem.goal, QoSGoal):
        raise TypeError("qos_sensitivity needs a QoSGoal problem")

    def rebuild(p, fraction):
        return dataclasses.replace(
            p, goal=dataclasses.replace(p.goal, fraction=float(fraction))
        )

    return _sweep(problem, "qos_fraction", fractions, rebuild, classes, backend, runner)


def cost_ratio_sensitivity(
    problem: MCPerfProblem,
    ratios: Sequence[float],
    classes: Optional[Sequence[object]] = None,
    backend: str = "scipy",
    runner: Optional["ExperimentRunner"] = None,
) -> SensitivityReport:
    """Re-run selection across storage/creation price ratios (alpha/beta).

    Beta is held at the baseline; alpha is scaled to hit each ratio.
    """
    beta = problem.costs.beta
    if beta <= 0:
        raise ValueError("cost-ratio sweep needs a positive beta")

    def rebuild(p, ratio):
        costs = CostModel(
            alpha=float(ratio) * beta,
            beta=beta,
            gamma=p.costs.gamma,
            delta=p.costs.delta,
            zeta=p.costs.zeta,
        )
        return dataclasses.replace(p, costs=costs)

    return _sweep(problem, "alpha_over_beta", ratios, rebuild, classes, backend, runner)


def recommendation_stability(reports: Sequence[SensitivityReport]) -> float:
    """Fraction of all perturbed points keeping their baseline choice."""
    total = sum(len(r.points) for r in reports)
    if total == 0:
        return 1.0
    kept = sum(
        1
        for r in reports
        for p in r.points
        if p.recommended == r.baseline_recommendation
    )
    return kept / total
