"""Fault-tolerant execution: retries, timeouts, crash isolation, degradation."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest

from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.runner import ExperimentRunner, ResultCache, make_runner
from repro.runner.digest import digest_of
from repro.runner.resilience import (
    RetryPolicy,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
    call_with_timeout,
    chaos_should_fail,
)
from repro.runner.tasks import BoundTask
from repro.topology.generators import star_topology
from repro.workload.demand import DemandMatrix


@dataclass(frozen=True)
class ProbeTask:
    """A tiny controllable task: fails N times, stalls, or kills its worker.

    Attempts are counted through files under ``log_dir`` so the count
    survives worker-process boundaries.  The fault knobs are deliberately
    not part of the cache key: a "healed" probe (same ident, faults removed)
    digests identically, which is exactly how --resume is exercised.
    """

    ident: str
    log_dir: str
    fail_times: int = 0
    sleep_s: float = 0.0
    kill: bool = False
    kill_once: bool = False

    kind = "probe"

    def cache_key(self) -> str:
        return digest_of("probe-task", self.ident)

    def reuse_key(self) -> None:
        return None

    @property
    def label(self) -> str:
        return f"probe[{self.ident}]"

    def _attempts_so_far(self) -> int:
        prefix = f"{self.ident}.attempt."
        return sum(1 for name in os.listdir(self.log_dir) if name.startswith(prefix))

    def run(self) -> Dict[str, object]:
        prior = self._attempts_so_far()
        marker = os.path.join(self.log_dir, f"{self.ident}.attempt.{prior}")
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        if self.kill or (self.kill_once and prior == 0):
            os._exit(1)
        if prior < self.fail_times:
            raise RuntimeError(f"probe {self.ident} injected failure #{prior + 1}")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        return {"ident": self.ident, "attempts": prior + 1}

    @staticmethod
    def encode(result: Dict[str, object]) -> Dict[str, object]:
        return dict(result)

    @staticmethod
    def decode(payload: Dict[str, object]) -> Dict[str, object]:
        if "ident" not in payload:
            raise KeyError("ident")
        return dict(payload)


def probe(tmp_path, ident, **kwargs) -> ProbeTask:
    return ProbeTask(ident=ident, log_dir=str(tmp_path), **kwargs)


def tiny_bound_problem() -> MCPerfProblem:
    topo = star_topology(num_leaves=2, hub_latency_ms=200.0)
    reads = np.zeros((3, 2, 1))
    reads[1, :, 0] = 1
    return MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=1.0),
    )


# -- RetryPolicy validation ---------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(task_timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(on_error="explode")
    with pytest.raises(ValueError):
        RetryPolicy(crash_retries=-1)


def test_make_runner_rejects_bad_on_error(tmp_path):
    with pytest.raises(ValueError):
        make_runner(on_error="explode")


# -- retries ------------------------------------------------------------------


def test_retry_then_success(tmp_path):
    runner = ExperimentRunner(policy=RetryPolicy(retries=2, backoff_s=0.0))
    result = runner.map([probe(tmp_path, "flaky", fail_times=1)])[0]
    assert result == {"ident": "flaky", "attempts": 2}
    assert runner.failed == 0


def test_exhausted_retries_yield_structured_failure(tmp_path):
    runner = ExperimentRunner(
        policy=RetryPolicy(retries=1, backoff_s=0.0, on_error="skip")
    )
    results = runner.map(
        [probe(tmp_path, "dead", fail_times=10), probe(tmp_path, "fine")]
    )
    failure, healthy = results
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 2
    assert failure.error_type == "RuntimeError"
    assert "injected failure" in failure.error
    assert failure.key == probe(tmp_path, "dead").cache_key()
    assert not failure.feasible  # duck-types as an infeasible bound
    assert healthy == {"ident": "fine", "attempts": 1}
    assert runner.failed == 1


def test_on_error_fail_reraises(tmp_path):
    runner = ExperimentRunner(policy=RetryPolicy(retries=1, backoff_s=0.0))
    with pytest.raises(RuntimeError, match="injected failure"):
        runner.map([probe(tmp_path, "dead", fail_times=10)])


def test_failure_record_round_trips(tmp_path):
    runner = ExperimentRunner(policy=RetryPolicy(on_error="skip"))
    failure = runner.map([probe(tmp_path, "dead", fail_times=10)])[0]
    clone = TaskFailure.from_dict(failure.to_dict())
    assert clone == failure
    assert "failed (RuntimeError)" in str(failure)


# -- timeouts -----------------------------------------------------------------


def test_call_with_timeout_passthrough():
    assert call_with_timeout(lambda: 42, None) == 42
    assert call_with_timeout(lambda: 42, 5.0) == 42


def test_call_with_timeout_raises_on_stall():
    with pytest.raises(TaskTimeoutError):
        call_with_timeout(lambda: time.sleep(5.0), 0.2)


def test_stalling_task_times_out_fast(tmp_path):
    runner = ExperimentRunner(
        policy=RetryPolicy(task_timeout=0.3, on_error="skip")
    )
    start = time.perf_counter()
    failure = runner.map([probe(tmp_path, "stall", sleep_s=30.0)])[0]
    elapsed = time.perf_counter() - start
    assert isinstance(failure, TaskFailure)
    assert failure.timed_out
    assert failure.error_type == "TaskTimeoutError"
    assert elapsed < 5.0


# -- the LP backend a bound task used -------------------------------------------


def test_degrade_mode_is_rejected():
    # There is one LP solver, so no second backend to retry a bound task on.
    with pytest.raises(ValueError, match="on_error"):
        RetryPolicy(on_error="degrade")


def test_backend_used_records_normal_solve():
    task = BoundTask(problem=tiny_bound_problem(), backend="scipy", do_rounding=False)
    result = task.run()
    assert result.feasible
    assert result.backend_used == "scipy"


# -- worker-crash isolation ---------------------------------------------------


def test_worker_kill_once_is_redispatched(tmp_path):
    tasks = [probe(tmp_path, "killer", kill_once=True)] + [
        probe(tmp_path, f"ok{i}") for i in range(3)
    ]
    runner = ExperimentRunner(jobs=2, policy=RetryPolicy(on_error="skip"))
    results = runner.map(tasks)
    assert results[0]["ident"] == "killer"
    assert results[0]["attempts"] == 2
    # Siblings all finish; ones caught mid-run by the pool crash may have
    # been legitimately re-dispatched (at-least-once), so attempts >= 1.
    assert [r["ident"] for r in results[1:]] == ["ok0", "ok1", "ok2"]
    assert runner.failed == 0


def test_poison_task_becomes_failure_with_healthy_siblings(tmp_path):
    tasks = [probe(tmp_path, "poison", kill=True)] + [
        probe(tmp_path, f"ok{i}") for i in range(3)
    ]
    runner = ExperimentRunner(jobs=2, policy=RetryPolicy(on_error="skip"))
    results = runner.map(tasks)
    failure = results[0]
    assert isinstance(failure, TaskFailure)
    assert failure.crashed
    assert failure.error_type == "WorkerCrash"
    assert failure.attempts == 2  # first dispatch + crash_retries=1
    # Siblings caught mid-run by a pool crash re-dispatch (at-least-once).
    assert [r["ident"] for r in results[1:]] == ["ok0", "ok1", "ok2"]
    assert runner.failed == 1


def test_poison_task_raises_under_fail_mode(tmp_path):
    tasks = [probe(tmp_path, "poison", kill=True), probe(tmp_path, "ok")]
    runner = ExperimentRunner(jobs=2, policy=RetryPolicy(on_error="fail"))
    with pytest.raises(WorkerCrashError, match="poison"):
        runner.map(tasks)


# -- chaos hook ---------------------------------------------------------------


def test_chaos_hook_injects_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=1.0,seed=1")
    runner = ExperimentRunner(
        policy=RetryPolicy(retries=1, backoff_s=0.0, on_error="skip")
    )
    failure = runner.map([probe(tmp_path, "victim")])[0]
    assert isinstance(failure, TaskFailure)
    assert failure.error_type == "ChaosError"
    assert failure.attempts == 2


def test_chaos_draw_is_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=0.5,seed=7")
    draws = [chaos_should_fail("task-x", attempt) for attempt in range(32)]
    assert draws == [chaos_should_fail("task-x", attempt) for attempt in range(32)]
    assert any(draws) and not all(draws)  # a fair 0.5 coin over 32 flips


def test_chaos_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert not chaos_should_fail("task-x", 0)


def test_chaos_rejects_garbage_spec(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=lots")
    with pytest.raises(ValueError, match="REPRO_CHAOS"):
        chaos_should_fail("task-x", 0)


def test_chaos_accepts_unified_plan_grammar(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=1.0,seed=1")
    runner = ExperimentRunner(
        policy=RetryPolicy(retries=1, backoff_s=0.0, on_error="skip")
    )
    failure = runner.map([probe(tmp_path, "victim")])[0]
    assert isinstance(failure, TaskFailure)
    assert failure.error_type == "ChaosError"


#: ``crash:p=0.5,seed=7``'s draws for attempts 0..31 of ``task-x``
#: (``x`` = injected failure).
PINNED_DRAWS = "xx.x.x.....xx.x...xx.xxxxx...xxx"


def test_plan_grammar_draws_are_pinned(monkeypatch):
    """A fixed-seed spec injects the same failures from release to release."""
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=0.5,seed=7")
    draws = "".join("x" if chaos_should_fail("task-x", a) else "." for a in range(32))
    assert draws == PINNED_DRAWS


@pytest.mark.parametrize(
    "raw",
    [
        "drop:p=0.5;flashcrowd:mult=3",
        "slow:p=0.5",
        "crash:epoch=1",
        "corrupt_checkpoint:at=1",
        "crash:node=2,at=10,down=5",
        "zoneout:zone=1,at=10,down=5",
        "crash:p=0.5;flashcrowd:mult=3",
    ],
)
def test_chaos_refuses_clauses_it_cannot_inject(monkeypatch, raw):
    """A service, checkpoint, fault or workload clause is refused, not
    silently dropped: the runner can inject only ``crash:p=``."""
    from repro.errors import ValidationError

    monkeypatch.setenv("REPRO_CHAOS", raw)
    with pytest.raises(ValidationError, match="not a task-layer clause") as excinfo:
        chaos_should_fail("task-x", 0)
    assert "REPRO_CHAOS" in str(excinfo.value)


def test_chaos_validation_error_names_the_clause(monkeypatch):
    from repro.errors import ValidationError

    monkeypatch.setenv("REPRO_CHAOS", "crash:p=2.0")
    with pytest.raises(ValidationError, match="crash:p=2.0") as excinfo:
        chaos_should_fail("task-x", 0)
    assert "REPRO_CHAOS" in str(excinfo.value)


def test_chaos_spec_is_parsed_once_per_value(monkeypatch):
    """The spec is checked on every attempt; parsing must not be."""
    import repro.chaos.plan as plan_mod

    monkeypatch.setenv("REPRO_CHAOS", "crash:p=0.5,seed=7")
    first = chaos_should_fail("task-x", 0)

    def exploding(raw, layers=None):
        raise AssertionError("re-parsed a cached chaos spec")

    monkeypatch.setattr(plan_mod, "parse_plan", exploding)
    assert chaos_should_fail("task-x", 0) == first  # served from cache

    # A *changed* value must re-parse (and here, trip the sentinel).
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=0.9,seed=7")
    with pytest.raises(AssertionError, match="re-parsed"):
        chaos_should_fail("task-x", 0)


def test_timeout_off_main_thread_degrades_to_one_warning(monkeypatch):
    """No SIGALRM off the main thread: warn once, run unbounded, don't crash."""
    import threading
    import warnings

    import repro.runner.resilience as res

    monkeypatch.setattr(res, "_TIMEOUT_UNENFORCEABLE_WARNED", False)
    out = {}

    def work():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out["first"] = call_with_timeout(lambda: 7, 0.01)
            out["second"] = call_with_timeout(lambda: 8, 0.01)
            out["warnings"] = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert out["first"] == 7 and out["second"] == 8
    messages = [str(w.message) for w in out["warnings"]]
    assert len(messages) == 1  # once per process, not per call
    assert "cannot be enforced" in messages[0]
    assert "main thread" in messages[0]


def test_chaos_survivors_are_cached_not_chaos_tainted(tmp_path, monkeypatch):
    """A chaos-failed task leaves no cache entry; survivors do."""
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=1.0,seed=1")
    cache = ResultCache(tmp_path / "cache")
    runner = ExperimentRunner(cache=cache, policy=RetryPolicy(on_error="skip"))
    dead = probe(tmp_path, "victim")
    runner.map([dead])
    assert cache.load(dead.cache_key(), dead.kind) is None

    monkeypatch.delenv("REPRO_CHAOS")
    retry = ExperimentRunner(cache=cache, policy=RetryPolicy(on_error="skip"))
    result = retry.map([dead])[0]
    assert result["ident"] == "victim"
    assert cache.load(dead.cache_key(), dead.kind) is not None
