"""QoS-goal sweeps: the x-axis of Figures 1–3.

A sweep fixes the system and workload, varies the QoS fraction (the paper
plots 95 % … 99.999 %), and computes each class's lower bound at every
level.  Infeasible points (class cannot meet the goal) are recorded as such
— those are the early curve endpoints in the paper's figures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.bounds import LowerBoundResult
from repro.core.classes import FIGURE1_CLASSES, HeuristicClass, get_class
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.runner.resilience import TaskFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runner.execute import ExperimentRunner
    from repro.runner.tasks import BoundTask

#: The QoS levels the paper sweeps in Figures 1-3.
PAPER_QOS_LEVELS: List[float] = [0.95, 0.99, 0.999, 0.9999, 0.99999]


@dataclass
class SweepResult:
    """Per-(class, QoS level) bounds for one system + workload.

    ``failures`` carries cells whose task exhausted the runner's recovery
    paths (``on_error="skip"``) — distinct from infeasible
    cells, which are real answers ("the class cannot meet the goal") and
    live in ``results``.
    """

    levels: List[float]
    classes: List[str]
    results: Dict[str, Dict[float, LowerBoundResult]] = field(default_factory=dict)
    failures: Dict[str, Dict[float, TaskFailure]] = field(default_factory=dict)

    def bound(self, cls: str, level: float) -> Optional[float]:
        result = self.results.get(cls, {}).get(level)
        return result.lp_cost if result is not None and result.feasible else None

    def failure(self, cls: str, level: float) -> Optional[TaskFailure]:
        """The failure record for a cell, or None if it produced a result."""
        return self.failures.get(cls, {}).get(level)

    def failed_cells(self) -> List[tuple]:
        """Every (class, level) whose task failed, in sweep order."""
        return [
            (cls, level)
            for cls in self.classes
            for level in self.levels
            if self.failure(cls, level) is not None
        ]

    def feasible_cost(self, cls: str, level: float) -> Optional[float]:
        result = self.results.get(cls, {}).get(level)
        return result.feasible_cost if result is not None and result.feasible else None

    def series(self, cls: str) -> List[Optional[float]]:
        """Bound per level (None where the class cannot meet the goal)."""
        return [self.bound(cls, level) for level in self.levels]

    def max_feasible_level(self, cls: str) -> Optional[float]:
        feasible = [lvl for lvl in self.levels if self.bound(cls, lvl) is not None]
        return max(feasible) if feasible else None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer.

        Levels are stored as ``[level, result]`` pairs (not object keys)
        because JSON object keys are strings; floats round-trip exactly
        through JSON's shortest-repr encoding.
        """
        return {
            "levels": list(self.levels),
            "classes": list(self.classes),
            "results": {
                cls: [[level, result.to_dict()] for level, result in per_level.items()]
                for cls, per_level in self.results.items()
            },
            "failures": {
                cls: [[level, failure.to_dict()] for level, failure in per_level.items()]
                for cls, per_level in self.failures.items()
            },
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        sweep = SweepResult(
            levels=[float(lvl) for lvl in payload["levels"]],
            classes=[str(c) for c in payload["classes"]],
        )
        for cls, pairs in payload.get("results", {}).items():
            sweep.results[str(cls)] = {
                float(level): LowerBoundResult.from_dict(result)
                for level, result in pairs
            }
        for cls, pairs in payload.get("failures", {}).items():
            sweep.failures[str(cls)] = {
                float(level): TaskFailure.from_dict(failure)
                for level, failure in pairs
            }
        return sweep

    def crossover(self, cls_a: str, cls_b: str) -> Optional[float]:
        """The first sweep level where the cheaper of two classes flips.

        Returns the level at which the ordering of ``cls_a`` vs ``cls_b``
        differs from the ordering at the first level where both are
        feasible; None if they never flip (or never coexist).  A class
        becoming infeasible while the other stays feasible also counts as a
        flip — that's the "curve ends" crossover the paper's figures show.
        """
        baseline: Optional[int] = None
        for level in self.levels:
            a = self.bound(cls_a, level)
            b = self.bound(cls_b, level)
            if a is None and b is None:
                continue
            if a is None or b is None:
                order = 1 if a is None else -1  # infeasible side "costs more"
            else:
                order = 0 if abs(a - b) <= 1e-9 else (-1 if a < b else 1)
            if baseline is None:
                if order != 0:
                    baseline = order
                continue
            if order != 0 and order != baseline:
                return level
        return None


def sweep_tasks(
    problem: MCPerfProblem,
    levels: Sequence[float],
    classes: Sequence["HeuristicClass"],
    do_rounding: bool = False,
    run_length: bool = False,
    backend: str = "scipy",
    reuse_formulation: bool = True,
    audit: Optional[str] = None,
) -> List["BoundTask"]:
    """The sweep's task graph: one bound task per (class, level).

    Tasks are emitted class-outer/level-inner — the historical serial order —
    and share a formulation-reuse group per class, so the scheduler keeps
    :meth:`~repro.core.formulation.Formulation.set_qos_fraction`'s RHS-only
    re-targeting whether the tasks run in-process or on a worker.
    """
    from repro.runner.tasks import BoundTask

    tasks: List[BoundTask] = []
    for cls in classes:
        for level in levels:
            goal = dataclasses.replace(problem.goal, fraction=level)
            leveled = dataclasses.replace(problem, goal=goal)
            tasks.append(
                BoundTask(
                    problem=leveled,
                    properties=cls.properties,
                    do_rounding=do_rounding,
                    run_length=run_length,
                    backend=backend,
                    reuse_formulation=reuse_formulation,
                    label=f"bound[{cls.name}@{level:g}]",
                    audit=audit,
                )
            )
    return tasks


def qos_sweep(
    problem: MCPerfProblem,
    levels: Optional[Sequence[float]] = None,
    classes: Optional[Sequence[object]] = None,
    do_rounding: bool = False,
    run_length: bool = False,
    backend: str = "scipy",
    reuse_formulation: bool = True,
    runner: Optional["ExperimentRunner"] = None,
    audit: Optional[str] = None,
) -> SweepResult:
    """Compute class bounds across QoS levels (the Figure-1 computation).

    ``problem.goal`` supplies the latency threshold and scope; its fraction
    is replaced by each sweep level in turn.  By default each class's
    formulation is built once and re-targeted per level via
    :meth:`~repro.core.formulation.Formulation.set_qos_fraction`, which
    skips the model-assembly cost at every level after the first.

    The per-(class, level) solves run through the experiment-runner layer:
    ``runner=None`` executes them serially in-process (the historical
    behavior); an :class:`~repro.runner.execute.ExperimentRunner` adds
    worker-pool parallelism, content-addressed result caching and run
    artifacts.
    """
    if not isinstance(problem.goal, QoSGoal):
        raise TypeError("qos_sweep needs a QoSGoal problem")
    levels = list(levels) if levels is not None else list(PAPER_QOS_LEVELS)
    if classes is None:
        chosen = [get_class(n) for n in FIGURE1_CLASSES]
    else:
        chosen = [c if isinstance(c, HeuristicClass) else get_class(str(c)) for c in classes]

    from repro.runner.execute import run_tasks

    tasks = sweep_tasks(
        problem,
        levels,
        chosen,
        do_rounding=do_rounding,
        run_length=run_length,
        backend=backend,
        reuse_formulation=reuse_formulation,
        audit=audit,
    )
    results = run_tasks(tasks, runner)

    sweep = SweepResult(levels=levels, classes=[c.name for c in chosen])
    cursor = iter(results)
    for cls in chosen:
        per_level: Dict[float, LowerBoundResult] = {}
        for level in levels:
            outcome = next(cursor)
            if isinstance(outcome, TaskFailure):
                sweep.failures.setdefault(cls.name, {})[level] = outcome
            else:
                per_level[level] = outcome
        sweep.results[cls.name] = per_level
    return sweep
