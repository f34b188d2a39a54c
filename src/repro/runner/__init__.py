"""The unified experiment-runner layer.

The paper's methodology is a grid of independent computations — one LP bound
(+ rounding) per (heuristic class x QoS level), one trace replay per
simulated heuristic.  This package turns those grids into explicit task
graphs and runs them through one scheduler with:

* **parallel solves** — ``jobs=N`` fans tasks out over a process pool;
  ``jobs=1`` is bit-identical to the historical serial loops;
* **content-addressed caching** — results keyed by a stable digest of
  (problem, class properties, goal level, backend, rounding flags), so a
  warm rerun performs zero LP solves and editing one class re-solves only
  that class;
* **fault tolerance** — per-task wall-clock timeouts, bounded retry with
  exponential backoff, worker-crash isolation (a ``BrokenProcessPool``
  re-dispatches unfinished chunks instead of sinking the batch) and structured
  :class:`TaskFailure` records instead of batch-killing exceptions
  (:mod:`repro.runner.resilience`);
* **run artifacts & resume** — ``runs/<timestamp>-<digest>/`` with an
  append-only ``records.jsonl`` (one line per task row as its
  ``pending``/``ok``/``failed`` status changes, a finished task's line
  carrying its result payload) and a ``manifest.json`` and timing summary
  written once at ``finalize``; a
  crashed or partially-failed run resumes via :class:`ResumeState`,
  re-executing only its incomplete tasks.

The sweep (:func:`repro.analysis.sweep.qos_sweep`), selection
(:func:`repro.core.selection.select_heuristic`), deployment
(:func:`repro.core.deployment.plan_deployment`) and sensitivity
(:mod:`repro.analysis.sensitivity`) pipelines all accept a ``runner=``; the
CLI builds one from ``--jobs/--cache-dir/--run-dir/--task-timeout/--retries/
--on-error/--resume``.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.runner.artifacts import RunWriter, TaskRecord
from repro.runner.cache import ResultCache
from repro.runner.digest import digest_of, short_digest
from repro.runner.execute import ExperimentRunner, run_tasks
from repro.runner.resilience import (
    RetryPolicy,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runner.resume import ResumeState
from repro.runner.tasks import BoundTask, ContinuousTask, HeuristicSpec, SimulateTask

__all__ = [
    "BoundTask",
    "ContinuousTask",
    "ExperimentRunner",
    "HeuristicSpec",
    "ResultCache",
    "ResumeState",
    "RetryPolicy",
    "RunWriter",
    "SimulateTask",
    "TaskFailure",
    "TaskRecord",
    "TaskTimeoutError",
    "WorkerCrashError",
    "digest_of",
    "make_runner",
    "run_tasks",
    "short_digest",
]


def make_runner(
    jobs: int = 1,
    cache_dir: Optional[os.PathLike | str] = None,
    run_dir: Optional[os.PathLike | str] = None,
    label: str = "",
    task_timeout: Optional[float] = None,
    retries: int = 0,
    on_error: str = "fail",
    resume: Optional[os.PathLike | str] = None,
) -> ExperimentRunner:
    """An :class:`ExperimentRunner` from CLI-style knobs.

    ``cache_dir=None`` disables caching; ``run_dir=None`` disables run
    artifacts; the default policy (no timeout, no retries, fail-fast) and
    ``resume=None`` reproduce the historical in-memory behavior exactly.
    ``resume`` points at a previous run directory — its ``ok`` results are
    served by content digest, so only failed/pending tasks re-execute.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    artifacts = RunWriter(root=run_dir, label=label) if run_dir is not None else None
    policy = RetryPolicy(task_timeout=task_timeout, retries=retries, on_error=on_error)
    resume_state = ResumeState(resume) if resume is not None else None
    return ExperimentRunner(
        jobs=jobs, cache=cache, artifacts=artifacts, policy=policy,
        resume=resume_state,
    )
