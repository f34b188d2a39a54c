"""The heuristic-selection methodology (§6.1).

Given a system, workload and performance goal, compute the general lower
bound and the bounds of every candidate heuristic class, then recommend the
class with the lowest bound.  The recommendation is qualified exactly as the
paper prescribes: if the best class's bound is close to the general bound,
no heuristic can do significantly better; otherwise the report flags that
classes outside the candidate set might be worth considering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.bounds import LowerBoundResult
from repro.core.classes import FIGURE1_CLASSES, HeuristicClass, get_class
from repro.core.problem import MCPerfProblem
from repro.runner.resilience import TaskFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runner.execute import ExperimentRunner


@dataclass
class SelectionReport:
    """Ranked per-class bounds plus the recommendation.

    ``failures`` holds classes whose bound task exhausted the runner's
    recovery paths (key ``"general"`` for the general bound itself) — they
    are excluded from the ranking but reported, so a partial batch still
    yields a recommendation from the classes that did solve.
    """

    problem: MCPerfProblem
    general: LowerBoundResult
    results: Dict[str, LowerBoundResult] = field(default_factory=dict)
    recommended: Optional[str] = None
    near_optimal: bool = False
    comparable: List[str] = field(default_factory=list)
    infeasible: List[str] = field(default_factory=list)
    failures: Dict[str, TaskFailure] = field(default_factory=dict)

    def bound(self, name: str) -> Optional[float]:
        result = self.results.get(name)
        return result.lp_cost if result and result.feasible else None

    def ranking(self) -> List[str]:
        """Feasible classes from cheapest to most expensive bound."""
        feasible = [
            (name, r.lp_cost) for name, r in self.results.items() if r.feasible
        ]
        feasible.sort(key=lambda item: (item[1], item[0]))
        return [name for name, _cost in feasible]

    def render(self) -> str:
        lines = [
            f"Heuristic selection for: {self.problem.goal.describe()}",
            f"  general lower bound: "
            + (f"{self.general.lp_cost:.1f}" if self.general.feasible else "infeasible"),
            "",
            f"{'class':34s} {'bound':>12s} {'feasible cost':>14s} {'vs general':>11s}",
        ]
        general = self.general.lp_cost if self.general.feasible else None
        for name in self.ranking():
            r = self.results[name]
            rel = (
                f"{r.lp_cost / general:7.2f}x"
                if general and general > 0 and r.lp_cost is not None
                else "    n/a"
            )
            feas = f"{r.feasible_cost:12.1f}" if r.feasible_cost is not None else " " * 12
            lines.append(f"{name:34s} {r.lp_cost:12.1f} {feas:>14s} {rel:>11s}")
        for name in self.infeasible:
            lines.append(f"{name:34s} {'cannot meet goal':>12s}")
        for name, failure in self.failures.items():
            what = "timed out" if failure.timed_out else failure.error_type
            lines.append(f"{name:34s} {f'failed: {what}':>16s}")
        lines.append("")
        if self.recommended:
            qualifier = (
                "no heuristic can be significantly better"
                if self.near_optimal
                else "consider classes outside the candidate set too"
            )
            lines.append(f"Recommended class: {self.recommended} ({qualifier})")
            if self.comparable:
                lines.append(
                    "Comparable alternatives: " + ", ".join(self.comparable)
                )
        else:
            lines.append("No candidate class can meet the goal.")
        return "\n".join(lines)


def resolve_candidates(classes: Optional[Sequence[object]]) -> List[HeuristicClass]:
    """Candidate classes for selection: names/objects, or the Figure-1 set."""
    if classes is None:
        return [get_class(n) for n in FIGURE1_CLASSES if n != "general"]
    return [c if isinstance(c, HeuristicClass) else get_class(str(c)) for c in classes]


def selection_tasks(
    problem: MCPerfProblem,
    candidates: Sequence[HeuristicClass],
    do_rounding: bool = True,
    run_length: bool = False,
    backend: str = "auto",
) -> List[object]:
    """The selection's task graph: the general bound plus one per candidate."""
    from repro.runner.tasks import BoundTask

    def task(properties, label):
        return BoundTask(
            problem=problem,
            properties=properties,
            do_rounding=do_rounding,
            run_length=run_length,
            backend=backend,
            label=label,
        )

    return [task(None, "bound[general]")] + [
        task(cls.properties, f"bound[{cls.name}]") for cls in candidates
    ]


def assemble_report(
    problem: MCPerfProblem,
    candidates: Sequence[HeuristicClass],
    general: LowerBoundResult,
    results: Sequence[LowerBoundResult],
    near_optimal_factor: float = 1.5,
    comparable_factor: float = 1.1,
) -> SelectionReport:
    """Rank per-class bounds and derive the recommendation (§6.1 rules).

    ``general`` and entries of ``results`` may be
    :class:`~repro.runner.resilience.TaskFailure` records (a resilient
    runner with ``on_error="skip"``); failed classes are
    reported but never ranked, and a failed general bound only disables the
    near-optimality qualifier, not the recommendation itself.
    """
    failures: Dict[str, TaskFailure] = {}
    if isinstance(general, TaskFailure):
        failures["general"] = general
        from repro.core.properties import HeuristicProperties

        general = LowerBoundResult(
            properties=HeuristicProperties(),
            feasible=False,
            status="failed",
            reason=f"general bound failed: {general.error}",
        )
    report = SelectionReport(problem=problem, general=general, failures=failures)
    for cls, result in zip(candidates, results):
        if isinstance(result, TaskFailure):
            report.failures[cls.name] = result
            continue
        report.results[cls.name] = result
        if not result.feasible:
            report.infeasible.append(cls.name)

    ranking = report.ranking()
    if ranking:
        best = ranking[0]
        report.recommended = best
        best_cost = report.results[best].lp_cost or 0.0
        if general.feasible and general.lp_cost and general.lp_cost > 0:
            report.near_optimal = best_cost <= near_optimal_factor * general.lp_cost
        report.comparable = [
            name
            for name in ranking[1:]
            if (report.results[name].lp_cost or float("inf"))
            <= comparable_factor * best_cost
        ]
    return report


def select_heuristic(
    problem: MCPerfProblem,
    classes: Optional[Sequence[object]] = None,
    near_optimal_factor: float = 1.5,
    comparable_factor: float = 1.1,
    do_rounding: bool = True,
    run_length: bool = False,
    backend: str = "auto",
    runner: Optional["ExperimentRunner"] = None,
) -> SelectionReport:
    """Run the §6.1 methodology and return a :class:`SelectionReport`.

    Parameters
    ----------
    problem:
        The MC-PERF instance.
    classes:
        Candidate classes — names or :class:`HeuristicClass` objects;
        defaults to the Figure-1 set (minus the general bound, which is
        always computed).
    near_optimal_factor:
        A recommendation within this factor of the general bound is flagged
        "no heuristic can be significantly better".
    comparable_factor:
        Classes within this factor of the best bound are reported as
        comparable alternatives.
    runner:
        Optional :class:`~repro.runner.execute.ExperimentRunner`; the
        general + per-class bound solves are independent tasks, so a runner
        parallelizes and caches them.  None solves serially in-process.
    """
    from repro.runner.execute import run_tasks

    candidates = resolve_candidates(classes)
    tasks = selection_tasks(
        problem,
        candidates,
        do_rounding=do_rounding,
        run_length=run_length,
        backend=backend,
    )
    results = run_tasks(tasks, runner)
    return assemble_report(
        problem,
        candidates,
        results[0],
        results[1:],
        near_optimal_factor=near_optimal_factor,
        comparable_factor=comparable_factor,
    )
