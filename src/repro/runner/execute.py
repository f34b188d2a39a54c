"""The task scheduler: serial or process-parallel, cache-aware, fault-tolerant.

:class:`ExperimentRunner` maps a list of tasks to their results:

1. every task's content digest is checked against a previous run's
   :class:`~repro.runner.resume.ResumeState` (``--resume``) and the
   :class:`~repro.runner.cache.ResultCache` (when configured); payloads that
   fail to decode are treated as misses and re-executed, never trusted;
2. the remaining tasks are *chunked by reuse group* — tasks sharing a
   ``reuse_key()`` (same class, QoS fraction varying) stay together so the
   per-process formulation memo can re-target one LP's right-hand sides
   instead of rebuilding it per level;
3. chunks execute under the :class:`~repro.runner.resilience.RetryPolicy`:
   per-attempt wall-clock timeouts and bounded retry with exponential
   backoff.  In-process at ``jobs=1`` (bit-identical to the
   historical serial loops with the default policy), or across a
   ``ProcessPoolExecutor`` at ``jobs>1``;
4. a worker crash (``BrokenProcessPool``) never sinks the batch: unfinished
   chunks are re-dispatched to a fresh pool, split to quarantine the poison
   task, and a task that keeps killing its workers becomes a structured
   :class:`~repro.runner.resilience.TaskFailure` (or re-raises under
   ``on_error="fail"``);
5. fresh results are written back to the cache and, together with hits and
   failures, recorded incrementally in the
   :class:`~repro.runner.artifacts.RunWriter`, so an interrupted run can be
   resumed from its run directory.

Results always come back in task order, whatever the execution order was.
A task that exhausted every recovery path occupies its slot as a
:class:`TaskFailure` instead of a result (``on_error="skip"``).
"""

from __future__ import annotations

import json
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.artifacts import RunWriter
from repro.runner.cache import ResultCache
from repro.runner.resilience import (
    RetryPolicy,
    TaskFailure,
    TaskOutcome,
    WorkerCrashError,
    run_with_policy,
)
from repro.runner.resume import ResumeState
from repro.runner.tasks import clear_formulations


def _run_chunk(tasks: Sequence[Any], policy: RetryPolicy) -> List[TaskOutcome]:
    """Execute one reuse-group chunk sequentially; top-level for pickling."""
    clear_formulations()
    return [run_with_policy(task, policy) for task in tasks]


class ExperimentRunner:
    """Runs task batches with optional parallelism, caching and artifacts.

    Parameters
    ----------
    jobs:
        Worker processes. 1 (default) executes in-process, in submission
        order — numerically identical to the historical serial pipelines.
    cache:
        Optional :class:`ResultCache` (content-addressed, on disk).
    artifacts:
        Optional :class:`RunWriter`; call :meth:`finalize` after the last
        batch to write ``manifest.json`` and ``timing.txt`` (each task's
        row is appended to ``records.jsonl`` as it finishes).
    policy:
        Optional :class:`RetryPolicy` controlling per-task timeouts, retries
        and the ``on_error`` mode.  The default policy reproduces the
        historical fail-fast behavior exactly.
    resume:
        Optional :class:`ResumeState` from a previous ``--run-dir``; tasks
        whose content digest completed ``ok`` there are served without
        re-execution.

    One runner may serve several ``map()`` batches (e.g. a sensitivity sweep
    issuing one batch per scenario); counters accumulate across batches.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        artifacts: Optional[RunWriter] = None,
        policy: Optional[RetryPolicy] = None,
        resume: Optional[ResumeState] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.artifacts = artifacts
        self.policy = policy or RetryPolicy()
        self.resume = resume
        self.tasks = 0
        self.cache_hits = 0
        self.executed = 0
        self.failed = 0
        self.resumed = 0
        self.audit_quarantined = 0

    # -- execution -----------------------------------------------------------

    def map(self, tasks: Sequence[Any]) -> List[Any]:
        """Results for ``tasks``, in task order.

        Slots of tasks that exhausted every recovery path hold a
        :class:`TaskFailure` (``on_error="skip"``) — callers
        decide whether a partial batch is usable.
        """
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        cached: Dict[int, bool] = {}

        keys = [task.cache_key() for task in tasks]
        record_ids: Optional[List[int]] = None
        if self.artifacts is not None:
            record_ids = self.artifacts.plan(
                [(task.kind, task.label, key) for task, key in zip(tasks, keys)]
            )

        pending: List[int] = []
        for i, (task, key) in enumerate(zip(tasks, keys)):
            hit = self._load_prior(task, key)
            if hit is None:
                pending.append(i)
                continue
            payload, seconds, source = hit
            try:
                results[i] = task.decode(payload)
            except Exception:
                # Stale or corrupt payload: a miss, not a batch-killer.  The
                # re-executed result overwrites the bad entry.
                pending.append(i)
                continue
            # Re-certify served payloads before trusting them: decode
            # success only proves the JSON parses, not that the numbers
            # still satisfy the constraints they claim to.
            report = self._audit_hit(task, results[i], keys[i])
            if report is not None and not report.ok:
                if source == "cache" and self.cache is not None:
                    self.cache.quarantine(keys[i])
                self.audit_quarantined += 1
                results[i] = None
                pending.append(i)
                continue
            cached[i] = True
            if source == "resume":
                self.resumed += 1
            # The served payload is what the artifact holds: written as
            # loaded, never re-encoded from the decoded result.
            self._record(
                i, tasks, keys, record_ids, cached=True, seconds=seconds,
                result=results[i], payload=payload, audit=report,
            )

        chunks = self._chunks(tasks, pending)
        if self.jobs == 1 or len(chunks) <= 1:
            for chunk in chunks:
                clear_formulations()
                for i in chunk:
                    # Per-task collection: with on_error="fail" the raise
                    # propagates (historical), but already-finished siblings
                    # stay recorded and cached for a later --resume.
                    outcome = run_with_policy(tasks[i], self.policy)
                    self._collect(tasks, keys, record_ids, [i], [outcome],
                                  results, cached)
        else:
            self._map_parallel(tasks, keys, record_ids, chunks, results, cached)

        self.tasks += len(tasks)
        self.cache_hits += sum(1 for c in cached.values() if c)
        self.executed += len(pending)
        return results

    def _audit_hit(self, task, result, key):
        """Re-audit a served payload (None when the task has auditing off).

        Audit crashes are demoted to a failing report rather than raised: a
        broken certificate must cost a re-solve, never sink the batch.
        """
        audit_cached = getattr(task, "audit_cached", None)
        if audit_cached is None:
            return None
        try:
            return audit_cached(result, key)
        except Exception as exc:
            from repro.audit import AuditReport

            report = AuditReport(mode="fast", subject=key)
            report.flag("artifact", key, message=f"cache-hit audit crashed: {exc}")
            return report

    def _load_prior(self, task, key):
        """A prior result for ``key`` as ``(payload, seconds, source)``, or None.

        A previous run's ``ok`` record (``--resume``) wins over the shared
        cache; both report the *original* solve seconds so manifests show
        true compute cost even for served tasks.
        """
        if self.resume is not None:
            payload = self.resume.load(key, task.kind)
            if payload is not None:
                return payload, self.resume.seconds(key), "resume"
        if self.cache is not None:
            entry = self.cache.load_entry(key, task.kind)
            if entry is not None:
                return entry["payload"], float(entry.get("seconds", 0.0)), "cache"
        return None

    def _map_parallel(self, tasks, keys, record_ids, chunks, results, cached) -> None:
        """Fan chunks out over worker pools, isolating crashed workers.

        A ``BrokenProcessPool`` only loses the chunks that had not finished.
        A break in a *shared* pool has an ambiguous culprit — every broken
        future is collateral of whichever task killed the worker — so no
        crash is counted there: multi-task chunks split in half (to shrink
        the blast radius) and singletons re-dispatch into an **isolated**
        single-task pool, where a break is definitively that task's own
        fault.  An isolated task that keeps killing workers
        (``policy.crash_retries`` exceeded) becomes a
        :class:`TaskFailure` — or re-raises as :class:`WorkerCrashError`
        under ``on_error="fail"``.
        """
        queue: List[List[int]] = [list(chunk) for chunk in chunks]
        while queue:
            broken: List[List[int]] = []
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(queue))) as pool:
                futures = [
                    (chunk, pool.submit(_run_chunk, [tasks[i] for i in chunk], self.policy))
                    for chunk in queue
                ]
                for chunk, future in futures:
                    try:
                        outcomes = future.result()
                    except BrokenExecutor:
                        broken.append(chunk)
                        continue
                    self._collect(tasks, keys, record_ids, chunk, outcomes,
                                  results, cached)
            queue = []
            for chunk in broken:
                if len(chunk) > 1:
                    mid = len(chunk) // 2
                    queue.append(chunk[:mid])
                    queue.append(chunk[mid:])
                else:
                    self._run_isolated(chunk[0], tasks, keys, record_ids,
                                       results, cached)

    def _run_isolated(self, i, tasks, keys, record_ids, results, cached) -> None:
        """Re-dispatch one crash-suspected task alone in fresh pools.

        Alone in the pool, a ``BrokenExecutor`` can only be this task's own
        doing; each break counts against ``policy.crash_retries``.
        """
        crashes = 0
        while True:
            with ProcessPoolExecutor(max_workers=1) as pool:
                future = pool.submit(_run_chunk, [tasks[i]], self.policy)
                try:
                    outcomes = future.result()
                except BrokenExecutor:
                    crashes += 1
                    if crashes <= self.policy.crash_retries:
                        continue
                else:
                    self._collect(tasks, keys, record_ids, [i], outcomes,
                                  results, cached)
                    return
            label = tasks[i].label or f"{tasks[i].kind}-{i}"
            if self.policy.on_error == "fail":
                raise WorkerCrashError(
                    f"task {label!r} killed its worker process {crashes} time(s)"
                )
            failure = TaskFailure(
                kind=tasks[i].kind,
                label=tasks[i].label,
                error=f"worker process died {crashes} time(s) running this task",
                error_type="WorkerCrash",
                attempts=crashes,
                crashed=True,
            )
            outcome = TaskOutcome(failure=failure, attempts=crashes)
            self._collect(tasks, keys, record_ids, [i], [outcome],
                          results, cached)
            return

    def _chunks(self, tasks: Sequence[Any], pending: Sequence[int]) -> List[List[int]]:
        """Group pending task indices by reuse key (first-appearance order).

        Tasks without a reuse key become singleton chunks; grouped tasks
        execute sequentially inside one process so formulation re-targeting
        applies.  At ``jobs=1`` grouping preserves the historical
        class-outer/level-inner order because sweeps emit tasks that way.
        """
        groups: Dict[str, List[int]] = {}
        order: List[List[int]] = []
        for i in pending:
            key = tasks[i].reuse_key()
            if key is None:
                order.append([i])
                continue
            if key not in groups:
                groups[key] = []
                order.append(groups[key])
            groups[key].append(i)
        return order

    def _collect(self, tasks, keys, record_ids, chunk, outcomes, results, cached) -> None:
        for i, outcome in zip(chunk, outcomes):
            cached[i] = False
            if outcome.failure is not None:
                failure = outcome.failure
                failure.key = keys[i]
                results[i] = failure
                self.failed += 1
                self._record(
                    i, tasks, keys, record_ids, cached=False,
                    seconds=outcome.seconds, failure=failure,
                    attempts=outcome.attempts,
                )
                continue
            results[i] = outcome.result
            # A gracefully-interrupted result (SIGTERM between epochs) covers
            # only part of the task's horizon: caching it under the full
            # task digest would poison every later warm run, and a resume
            # must re-execute it — so it is recorded but never cached and
            # its manifest row carries status "interrupted", which
            # ResumeState refuses to serve.
            interrupted = bool(getattr(outcome.result, "interrupted", False))
            # Encoded and serialized once; the cache entry and the task's
            # records.jsonl line splice in the same JSON text.
            cache = self.cache is not None and not interrupted
            payload = None
            if cache or self.artifacts is not None:
                payload = json.dumps(tasks[i].encode(outcome.result))
            if cache:
                self.cache.store(keys[i], tasks[i].kind, payload, outcome.seconds)
            self._record(
                i, tasks, keys, record_ids, cached=False,
                seconds=outcome.seconds, result=outcome.result, payload=payload,
                attempts=outcome.attempts,
                audit=getattr(outcome.result, "audit", None),
                status="interrupted" if interrupted else "ok",
            )

    def _record(
        self, i, tasks, keys, record_ids, *, cached, seconds,
        result=None, payload=None, failure=None, attempts=0, audit=None, status="ok",
    ) -> None:
        if self.artifacts is None:
            return
        task = tasks[i]
        index = record_ids[i] if record_ids is not None else None
        describe = getattr(task, "describe", None)
        meta = describe() if describe is not None else None
        # Availability digests ride in the meta row so the manifest can
        # aggregate them without decoding payloads.
        summarize = getattr(task, "summarize", None)
        if summarize is not None and result is not None:
            meta = dict(meta or {})
            meta["availability"] = summarize(result)
        if failure is not None:
            self.artifacts.record(
                index=index, kind=task.kind, label=task.label, key=keys[i],
                cached=False, seconds=seconds, status="failed",
                attempts=attempts, error=failure.error,
                failure=failure.to_dict(), meta=meta,
            )
        else:
            self.artifacts.record(
                index=index, kind=task.kind, label=task.label, key=keys[i],
                cached=cached, seconds=seconds, status=status, attempts=attempts,
                payload=task.encode(result) if payload is None else payload, meta=meta,
                audit=None if audit is None else audit.to_dict(),
            )

    # -- bookkeeping ---------------------------------------------------------

    @property
    def cache_misses(self) -> int:
        return self.tasks - self.cache_hits

    def finalize(self, extra: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Write the run directory (when artifacts are configured)."""
        if self.artifacts is None:
            return None
        info = {
            "jobs": self.jobs,
            "task_timeout": self.policy.task_timeout,
            "retries": self.policy.retries,
            "on_error": self.policy.on_error,
        }
        if extra:
            info.update(extra)
        return str(self.artifacts.finalize(info))

    def summary(self) -> str:
        text = (
            f"tasks={self.tasks} cache_hits={self.cache_hits} "
            f"executed={self.executed} failed={self.failed} jobs={self.jobs}"
        )
        if self.resume is not None:
            text += f" resumed={self.resumed}"
        if self.audit_quarantined:
            text += f" audit_quarantined={self.audit_quarantined}"
        return text


def run_tasks(tasks: Sequence[Any], runner: Optional[ExperimentRunner] = None) -> List[Any]:
    """Run ``tasks`` through ``runner``, or serially in-process when None.

    The None path is the library default: no cache, no artifacts, no worker
    processes, fail-fast policy — the exact pre-runner behavior of the
    callers.
    """
    if runner is None:
        runner = ExperimentRunner(jobs=1)
    return runner.map(tasks)
