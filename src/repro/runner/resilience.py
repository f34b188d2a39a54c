"""Fault-tolerant task execution: timeouts, retries, failures.

A production-scale sweep is thousands of independent LP solves and trace
replays; at that scale *something* always goes wrong — a solver crashes on a
degenerate basis, a worker process dies, one pathological instance stalls for
hours.  This module gives the scheduler a policy for those events instead of
the historical behavior (first exception sinks the whole batch):

* :class:`RetryPolicy` — per-task wall-clock timeout, bounded
  retry-with-exponential-backoff, and the ``on_error`` mode (``fail`` /
  ``skip``).
* :func:`run_with_policy` — one task's attempt loop.
* :class:`TaskFailure` — the structured record a task leaves behind when it
  exhausts every recovery path.  Pipelines carry these through their result
  objects (``SweepResult.failures``, ``SelectionReport.failures``) so one
  poisoned cell never hides the healthy ones.

Timeouts are enforced with ``SIGALRM`` (``signal.setitimer``), which works
both in-process and inside ``ProcessPoolExecutor`` workers (each worker runs
tasks on its main thread).  On platforms without ``SIGALRM``, or off the main
thread, the timeout degrades to a one-time ``RuntimeWarning`` and the task
runs unbounded — better a slow answer (with a visible warning) than a crash
from installing a signal handler where that is illegal.

The ``REPRO_CHAOS`` environment variable deterministically injects
:class:`ChaosError` into execution attempts; CI's chaos smoke job uses it to
prove a sweep survives an intermittently-failing backend and that
``--resume`` converges the run afterwards.  It takes the chaos-plan
grammar (:mod:`repro.chaos`) restricted to the runner layer, i.e.
``crash:p=<probability>[,seed=<int>]``; parsing is cached per raw string
(not re-parsed every attempt) and raises
:class:`~repro.errors.ValidationError` naming the offending clause, also
for a clause of another layer, which this hook could not inject.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ValidationError

#: Recognized ``on_error`` modes (see :class:`RetryPolicy`).
ON_ERROR_MODES = ("fail", "skip")

#: Environment hook for deterministic failure injection (chaos testing).
CHAOS_ENV = "REPRO_CHAOS"


class TaskTimeoutError(RuntimeError):
    """A task attempt exceeded its wall-clock budget."""


class WorkerCrashError(RuntimeError):
    """A task repeatedly killed its worker process (poison task)."""


class ChaosError(RuntimeError):
    """Failure injected by the ``REPRO_CHAOS`` test hook."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a task that stalls, raises or crashes its worker.

    Attributes
    ----------
    task_timeout:
        Wall-clock budget per *attempt* in seconds; None (default) never
        times out.
    retries:
        Extra attempts after the first failure, each preceded by an
        exponentially growing backoff sleep (``backoff_s * 2**attempt``).
    backoff_s:
        Base backoff delay before the first retry.
    on_error:
        What to do once attempts are exhausted: ``"fail"`` re-raises (the
        historical behavior — the batch dies), ``"skip"`` yields a
        :class:`TaskFailure` record in the task's result slot.
    crash_retries:
        How many times a task whose worker process died is re-dispatched to
        a fresh pool before being declared a poison task.
    """

    task_timeout: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.05
    on_error: str = "fail"
    crash_retries: int = 1

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.crash_retries < 0:
            raise ValueError("crash_retries must be >= 0")


@dataclass
class TaskFailure:
    """Structured record of a task that exhausted every recovery path.

    Takes the task's slot in the results list (``on_error != "fail"``), so a
    sweep with one poisoned cell still returns every healthy result.
    ``feasible`` is a class-level False: defensive ``result.feasible`` checks
    in downstream code treat a failure like an infeasible bound instead of
    crashing on a missing attribute.
    """

    kind: str = ""
    label: str = ""
    key: str = ""
    error: str = ""
    error_type: str = ""
    attempts: int = 0
    backends: List[str] = field(default_factory=list)
    timed_out: bool = False
    crashed: bool = False
    diagnosis: str = ""
    seconds: float = 0.0

    feasible = False
    lp_cost = None
    feasible_cost = None

    def __str__(self) -> str:
        what = "timed out" if self.timed_out else (
            "crashed its worker" if self.crashed else f"failed ({self.error_type})"
        )
        text = f"[{self.label or self.kind}] {what} after {self.attempts} attempt(s)"
        if self.error:
            text += f": {self.error}"
        if self.diagnosis:
            text += f" — {self.diagnosis}"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for manifests and run artifacts."""
        return {
            "kind": self.kind,
            "label": self.label,
            "key": self.key,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "backends": list(self.backends),
            "timed_out": self.timed_out,
            "crashed": self.crashed,
            "diagnosis": self.diagnosis,
            "seconds": self.seconds,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "TaskFailure":
        """Inverse of :meth:`to_dict`."""
        return TaskFailure(
            kind=str(payload.get("kind", "")),
            label=str(payload.get("label", "")),
            key=str(payload.get("key", "")),
            error=str(payload.get("error", "")),
            error_type=str(payload.get("error_type", "")),
            attempts=int(payload.get("attempts", 0)),
            backends=[str(b) for b in payload.get("backends", [])],
            timed_out=bool(payload.get("timed_out", False)),
            crashed=bool(payload.get("crashed", False)),
            diagnosis=str(payload.get("diagnosis", "")),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass
class TaskOutcome:
    """What one policy-governed execution produced: a result or a failure."""

    result: Any = None
    failure: Optional[TaskFailure] = None
    seconds: float = 0.0
    attempts: int = 0
    backends: List[str] = field(default_factory=list)


# -- timeouts ----------------------------------------------------------------


#: One warning per process when a timeout cannot be enforced — a silently
#: skipped budget looks exactly like a healthy run until something hangs.
_TIMEOUT_UNENFORCEABLE_WARNED = False


def _warn_no_timeout(why: str) -> None:
    global _TIMEOUT_UNENFORCEABLE_WARNED
    if _TIMEOUT_UNENFORCEABLE_WARNED:
        return
    _TIMEOUT_UNENFORCEABLE_WARNED = True
    warnings.warn(
        f"task_timeout cannot be enforced ({why}); tasks run unbounded",
        RuntimeWarning,
        stacklevel=3,
    )


def call_with_timeout(fn, timeout: Optional[float]):
    """Run ``fn()`` under a SIGALRM wall-clock budget.

    Enforcement needs a POSIX main thread; anywhere else — a service
    executor thread, a platform without ``SIGALRM``, an embedded
    interpreter that refuses signal handlers — the budget degrades to a
    one-time :class:`RuntimeWarning` and the call runs unbounded (better a
    slow answer than a broken one).  Workers of a ``ProcessPoolExecutor``
    execute tasks on their main thread, so the budget holds there too.
    """
    if not timeout:
        return fn()
    if not hasattr(signal, "SIGALRM"):
        _warn_no_timeout("no SIGALRM on this platform")
        return fn()
    if threading.current_thread() is not threading.main_thread():
        _warn_no_timeout("running off the main thread")
        return fn()

    def _alarm(signum, frame):
        raise TaskTimeoutError(f"task exceeded its {timeout:g}s wall-clock budget")

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except ValueError as exc:
        # Raised where installing handlers is illegal despite the thread
        # check (e.g. a subinterpreter): degrade, don't crash the task.
        _warn_no_timeout(str(exc))
        return fn()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- chaos injection ---------------------------------------------------------


#: Parse-once cache: (raw env string, parsed injector).  A sweep checks the
#: spec on every task attempt; re-parsing the same string thousands of
#: times was pure waste, and the cache also de-duplicates the validation
#: error a bad spec raises.
_CHAOS_CACHE: Tuple[str, Optional[object]] = ("", None)


def _chaos_spec():
    """The active :class:`~repro.chaos.plan.TaskChaos`, or None when unset.

    Parsed once per distinct ``REPRO_CHAOS`` value (workers inherit the
    env, so each process pays a single parse).  Only runner-layer plan
    clauses (``crash:p=…``) are accepted; errors raise
    :class:`~repro.errors.ValidationError` naming the offending clause.
    """
    global _CHAOS_CACHE
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    cached_raw, cached = _CHAOS_CACHE
    if raw == cached_raw:
        return cached
    from repro.chaos.plan import parse_plan

    try:
        chaos = parse_plan(raw, layers=("task",)).task_chaos()
    except ValidationError as exc:
        raise ValidationError(f"{CHAOS_ENV}: {exc}") from None
    _CHAOS_CACHE = (raw, chaos)
    return chaos


def chaos_should_fail(identity: str, attempt: int) -> bool:
    """Deterministic injected-failure draw for (task identity, attempt)."""
    chaos = _chaos_spec()
    if chaos is None:
        return False
    return chaos.should_fail(identity, attempt)


# -- the attempt loop --------------------------------------------------------


def _diagnose_failure(task, exc: BaseException) -> str:
    """Best-effort infeasibility diagnosis for a failed bound task.

    Only the structural check runs here: an LP-level infeasibility comes
    back as a ``feasible=False`` *result* (with the deletion-filter
    diagnosis when the task asked for it), never as an exception, so a
    raising solve is environmental and a full diagnose pass would just
    fail the same way.
    """
    if getattr(task, "kind", "") != "bound" or not getattr(task, "diagnose", False):
        return ""
    if isinstance(exc, (TaskTimeoutError, ChaosError)):
        return ""
    try:
        from repro.core.formulation import build_formulation

        form = build_formulation(task.problem, task.properties)
        if form.structurally_infeasible:
            return form.infeasible_reason
    except Exception:
        pass
    return ""


def run_with_policy(task, policy: RetryPolicy) -> TaskOutcome:
    """Execute one task under ``policy``.

    Returns a :class:`TaskOutcome` carrying either the result or a
    :class:`TaskFailure`; re-raises the last exception only when
    ``policy.on_error == "fail"`` (the historical fail-fast contract).
    """
    start = time.perf_counter()
    attempts = 0
    backends: List[str] = []
    last_exc: Optional[BaseException] = None
    chaos = _chaos_spec() is not None
    identity = ""
    if chaos:
        identity = getattr(task, "label", "") or task.cache_key()

    for attempt in range(policy.retries + 1):
        attempts += 1
        backend = getattr(task, "backend", None)
        if backend is not None:
            backends.append(backend)
        try:
            if chaos and chaos_should_fail(identity, attempt):
                raise ChaosError(f"injected failure (attempt {attempt + 1})")
            result = call_with_timeout(task.run, policy.task_timeout)
            return TaskOutcome(
                result=result,
                seconds=time.perf_counter() - start,
                attempts=attempts,
                backends=backends,
            )
        except Exception as exc:
            last_exc = exc
            if attempt < policy.retries and policy.backoff_s > 0:
                time.sleep(policy.backoff_s * (2**attempt))

    if policy.on_error == "fail":
        raise last_exc

    failure = TaskFailure(
        kind=getattr(task, "kind", ""),
        label=getattr(task, "label", ""),
        error=str(last_exc),
        error_type=type(last_exc).__name__,
        attempts=attempts,
        backends=backends,
        timed_out=isinstance(last_exc, TaskTimeoutError),
        diagnosis=_diagnose_failure(task, last_exc),
        seconds=time.perf_counter() - start,
    )
    return TaskOutcome(
        failure=failure,
        seconds=failure.seconds,
        attempts=attempts,
        backends=backends,
    )
