"""The scheduler: ordering, parallel equivalence, caching, artifacts."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.classes import get_class
from repro.perf import PERF
from repro.runner import ExperimentRunner, RetryPolicy, make_runner, run_tasks
from repro.runner.execute import _run_chunk
from repro.runner.tasks import BoundTask, HeuristicSpec, SimulateTask


LEVELS = [0.7, 0.8, 0.9]
CLASSES = ["caching", "replica-constrained"]


def bound_tasks(problem, reuse=True):
    from repro.analysis.sweep import sweep_tasks

    return sweep_tasks(
        problem,
        LEVELS,
        [get_class(c) for c in CLASSES],
        do_rounding=False,
        backend="scipy",
        reuse_formulation=reuse,
    )


def costs(results):
    return [(r.feasible, r.lp_cost) for r in results]


def direct_costs(problem):
    """The pre-runner ground truth: fresh build + solve per (class, level)."""
    out = []
    for cls in CLASSES:
        for level in LEVELS:
            leveled = dataclasses.replace(
                problem, goal=dataclasses.replace(problem.goal, fraction=level)
            )
            result = compute_lower_bound(
                leveled,
                get_class(cls).properties,
                do_rounding=False,
                backend="scipy",
            )
            out.append((result.feasible, result.lp_cost))
    return out


def test_jobs1_matches_direct_path(web_problem):
    results = run_tasks(bound_tasks(web_problem))
    expected = direct_costs(web_problem)
    got = costs(results)
    assert [f for f, _ in got] == [f for f, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        if a is None or b is None:
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-9)


def test_jobs2_matches_jobs1(web_problem):
    tasks = bound_tasks(web_problem)
    serial = run_tasks(tasks, ExperimentRunner(jobs=1))
    parallel = run_tasks(tasks, ExperimentRunner(jobs=2))
    assert costs(serial) == costs(parallel)


def test_each_chunk_starts_from_a_fresh_formulation(web_problem):
    """A chunk never hot-starts from a formulation an earlier run left behind."""
    group = bound_tasks(web_problem)[: len(LEVELS)]  # one class: one reuse key
    run_tasks(group, ExperimentRunner(jobs=1))
    builds = PERF.get("form.build.vectorized")
    warm = PERF.get("lp.simplex.warm_starts")
    run_tasks(group[:1], ExperimentRunner(jobs=1))
    assert PERF.get("form.build.vectorized") == builds + 1
    assert PERF.get("lp.simplex.warm_starts") == warm
    # The worker entry point clears the memo a forked process inherits too.
    _run_chunk(group[:1], RetryPolicy())
    assert PERF.get("form.build.vectorized") == builds + 2
    assert PERF.get("lp.simplex.warm_starts") == warm


def test_results_come_back_in_task_order(web_problem):
    tasks = bound_tasks(web_problem)
    results = run_tasks(tasks, ExperimentRunner(jobs=2))
    # Task i is class CLASSES[i // len(LEVELS)] at LEVELS[i % len(LEVELS)]:
    # bounds within one class are non-decreasing in the QoS level.
    for c in range(len(CLASSES)):
        per_class = results[c * len(LEVELS) : (c + 1) * len(LEVELS)]
        feasible = [r.lp_cost for r in per_class if r.feasible]
        assert feasible == sorted(feasible)


def test_chunks_group_by_reuse_key(web_problem):
    tasks = bound_tasks(web_problem, reuse=True)
    runner = ExperimentRunner(jobs=1)
    chunks = runner._chunks(tasks, list(range(len(tasks))))
    assert [len(c) for c in chunks] == [len(LEVELS)] * len(CLASSES)

    no_reuse = bound_tasks(web_problem, reuse=False)
    singletons = runner._chunks(no_reuse, list(range(len(no_reuse))))
    assert [len(c) for c in singletons] == [1] * len(no_reuse)


def test_warm_cache_executes_nothing(web_problem, tmp_path):
    tasks = bound_tasks(web_problem)

    cold = make_runner(jobs=1, cache_dir=tmp_path / "cache")
    first = run_tasks(tasks, cold)
    assert cold.executed == len(tasks)
    assert cold.cache_hits == 0

    warm = make_runner(jobs=2, cache_dir=tmp_path / "cache")
    second = run_tasks(tasks, warm)
    assert warm.executed == 0
    assert warm.cache_hits == len(tasks)
    assert warm.cache_misses == 0
    assert costs(first) == costs(second)


def test_cache_key_ignores_label_but_not_level(web_problem):
    goal = dataclasses.replace(web_problem.goal, fraction=0.8)
    leveled = dataclasses.replace(web_problem, goal=goal)
    a = BoundTask(problem=leveled, label="one")
    b = BoundTask(problem=leveled, label="two")
    assert a.cache_key() == b.cache_key()
    other_level = dataclasses.replace(
        web_problem, goal=dataclasses.replace(goal, fraction=0.9)
    )
    c = BoundTask(problem=other_level)
    assert a.cache_key() != c.cache_key()


def test_run_artifacts_manifest(web_problem, tmp_path):
    tasks = bound_tasks(web_problem)
    runner = make_runner(
        jobs=1, cache_dir=tmp_path / "cache", run_dir=tmp_path / "runs", label="sweep"
    )
    run_tasks(tasks, runner)
    run_dir = runner.finalize({"note": "test"})
    assert run_dir is not None

    manifest = json.loads((tmp_path / "runs").glob("*/manifest.json").__next__().read_text())
    assert manifest["tasks"] == len(tasks)
    assert manifest["executed"] == len(tasks)
    assert manifest["cache_hits"] == 0
    assert manifest["jobs"] == 1
    assert manifest["note"] == "test"
    assert len(manifest["task_records"]) == len(tasks)

    from pathlib import Path

    # Each task's payload rides in its records.jsonl line: no per-task files.
    assert sorted(p.name for p in Path(run_dir).iterdir()) == [
        "manifest.json", "records.jsonl", "timing.txt"
    ]
    assert len(payload_texts(Path(run_dir))) == len(tasks)


def test_reuse_key_is_digested_once_per_task(web_problem, monkeypatch):
    """The scheduler's chunking, the cache key and the task's run share one
    walk of the problem's topology and demand, also across pickling to a
    worker."""
    import pickle

    import repro.runner.digest
    import repro.runner.tasks
    from repro.topology.graph import Topology
    from repro.workload.demand import DemandMatrix

    digest, walk = repro.runner.tasks.digest_of, repro.runner.digest._walk
    calls, walks = [], []
    monkeypatch.setattr(
        repro.runner.tasks, "digest_of", lambda *args: calls.append(args[0]) or digest(*args)
    )

    def counting_walk(h, obj):
        if isinstance(obj, (Topology, DemandMatrix)):
            walks.append(type(obj).__name__)
        walk(h, obj)

    monkeypatch.setattr(repro.runner.digest, "_walk", counting_walk)
    tasks = bound_tasks(web_problem)
    key = tasks[0].reuse_key()
    assert key is not None and tasks[0].reuse_key() == key
    clone = pickle.loads(pickle.dumps(tasks[0]))
    assert clone.reuse_key() == key
    assert clone.cache_key() == tasks[0].cache_key()
    assert calls.count("problem") == 1 and calls.count("formulation") == 1
    assert sorted(walks) == ["DemandMatrix", "Topology"]
    ExperimentRunner(jobs=1).map(tasks)
    assert calls.count("problem") == len(tasks)
    assert calls.count("formulation") == len(tasks)
    assert walks.count("Topology") == walks.count("DemandMatrix") == len(tasks)


def test_simulate_task_matches_direct_simulate(small_topology, web_trace):
    from repro.heuristics import LRUCaching
    from repro.simulator.engine import simulate

    spec = HeuristicSpec(name="lru", capacity=8)
    task = SimulateTask(
        topology=small_topology,
        trace=web_trace,
        heuristic=spec,
        tlat_ms=150.0,
        warmup_s=600.0,
        cost_interval_s=3600.0,
        label="simulate[lru]",
    )
    via_runner = run_tasks([task], ExperimentRunner(jobs=1))[0]
    direct = simulate(
        small_topology,
        web_trace,
        LRUCaching(capacity=8),
        tlat_ms=150.0,
        warmup_s=600.0,
        cost_interval_s=3600.0,
    )
    assert via_runner.total_cost == direct.total_cost
    assert via_runner.qos == direct.qos


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ExperimentRunner(jobs=0)


def test_undecodable_cache_entry_is_a_miss(web_problem, tmp_path):
    """A stale/corrupt cached payload re-executes instead of crashing."""
    from repro.runner.cache import ResultCache

    task = bound_tasks(web_problem)[0]
    cache = ResultCache(tmp_path / "cache")
    cache.store(task.cache_key(), task.kind, {"garbage": True}, 0.1)

    runner = ExperimentRunner(cache=cache)
    result = runner.map([task])[0]
    assert runner.executed == 1
    assert runner.cache_hits == 0
    assert result.feasible is not None  # a real LowerBoundResult, not garbage
    # The re-executed result overwrote the bad entry.
    assert "garbage" not in cache.load(task.cache_key(), task.kind)

    warm = ExperimentRunner(cache=cache)
    warm.map([task])
    assert warm.cache_hits == 1


def test_cache_hits_surface_original_solve_seconds(web_problem, tmp_path):
    """A served task's manifest row shows the stored solve time, not 0.0."""
    from pathlib import Path

    from repro.runner.cache import ResultCache

    task = bound_tasks(web_problem)[0]
    cache = ResultCache(tmp_path / "cache")
    cache.store(task.cache_key(), task.kind, task.encode(task.run()), 3.25)

    runner = make_runner(cache_dir=tmp_path / "cache", run_dir=tmp_path / "runs")
    runner.map([task])
    assert runner.cache_hits == 1
    manifest = json.loads(
        (Path(runner.finalize()) / "manifest.json").read_text()
    )
    record = manifest["task_records"][0]
    assert record["cached"] is True
    assert record["seconds"] == 3.25
    assert manifest["seconds"] >= 3.25


def artifact_tasks(web_problem, small_topology, web_trace):
    """Rounded, audited bound cells plus two replays: every kind of task file."""
    from repro.analysis.sweep import sweep_tasks

    return sweep_tasks(
        web_problem, [0.6, 0.7],
        [get_class("storage-constrained"), get_class("caching")],
        do_rounding=True, audit="fast",
    ) + [
        SimulateTask(
            topology=small_topology, trace=web_trace,
            heuristic=spec, warmup_s=600.0, label=f"simulate[{spec.name}]", audit="fast",
        )
        for spec in (
            HeuristicSpec(name="lru", capacity=8), HeuristicSpec(name="qiu", period_s=3600.0)
        )
    ]


def payload_texts(run_dir):
    """Each task's payload JSON text as spliced into its ``records.jsonl``
    line, by ``(index, key)``."""
    texts = {}
    for line in (run_dir / "records.jsonl").read_text().splitlines():
        row = json.loads(line)
        if "payload" not in row:
            continue
        del row["payload"]
        prefix = json.dumps(row)[:-1] + ', "payload": '
        assert line.startswith(prefix) and line.endswith("}"), line
        texts[row["index"], row["key"]] = line[len(prefix):-1]
    return texts


def run_payloads(tasks, cache_dir, runs, resume=None):
    """Run ``tasks`` into a fresh run directory; its payload texts."""
    from pathlib import Path

    runner = make_runner(cache_dir=cache_dir, run_dir=runs, resume=resume)
    results = runner.map(tasks)
    run_dir = Path(runner.finalize())
    return runner, results, payload_texts(run_dir), run_dir


def test_warm_run_writes_the_cold_run_task_files(web_problem, small_topology, web_trace,
                                                 tmp_path):
    """A served task's payload is byte for byte the text its solve wrote."""
    tasks = artifact_tasks(web_problem, small_topology, web_trace)
    cold, results, cold_texts, _ = run_payloads(tasks, tmp_path / "cache", tmp_path / "cold")
    warm, _, warm_texts, _ = run_payloads(tasks, tmp_path / "cache", tmp_path / "warm")
    assert cold.executed == len(tasks)
    assert warm.cache_hits == len(tasks) and warm.audit_quarantined == 0
    assert all(r.rounding is not None and r.audit is not None for r in results[:4])
    assert len(cold_texts) == len(tasks)
    assert warm_texts == cold_texts


def cuts(line):
    """Byte offsets to tear ``line`` at: its middle, and for a payload line
    also inside its row fields, inside its payload and just before its
    newline (complete JSON that never got its terminator)."""
    marker = line.find(b', "payload": ')
    if marker == -1:
        return [len(line) // 2]
    start = marker + len(b', "payload": ')
    return [marker // 2, start + 1, (start + len(line)) // 2, len(line) - 1]


def test_a_run_stopped_after_any_record_resumes_to_the_same_task_files(
    web_problem, small_topology, web_trace, tmp_path
):
    """Cut ``records.jsonl`` after every line, with and without a torn next
    line (cut inside its row fields or its payload), and drop the manifest:
    the resumed run writes the uninterrupted run's payload texts byte for
    byte, serving exactly the complete ``ok`` lines of the stopped run."""
    import shutil

    tasks = artifact_tasks(web_problem, small_topology, web_trace)
    cache = tmp_path / "cache"
    _, _, want, full = run_payloads(tasks, cache, tmp_path / "full")
    lines = (full / "records.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 * len(tasks)  # the planned rows, then one per record

    for n in range(len(lines) + 1):
        for cut in [None] + (cuts(lines[n]) if n < len(lines) else []):
            stopped = tmp_path / f"stopped-{n}-{cut}"
            shutil.copytree(full, stopped)
            (stopped / "manifest.json").unlink()
            tail = b"" if cut is None else lines[n][:cut]
            (stopped / "records.jsonl").write_bytes(b"".join(lines[:n]) + tail)

            folded = {}
            for line in lines[:n]:
                row = json.loads(line)
                folded[row["index"]] = row
            served = {row["key"] for row in folded.values() if row["status"] == "ok"}

            runner, _, got, _ = run_payloads(
                tasks, cache, tmp_path / f"resumed-{n}-{cut}", resume=stopped
            )
            assert got == want, (n, cut)
            assert runner.resumed == len(served), (n, cut)
            assert runner.cache_hits == len(tasks) and runner.executed == 0
