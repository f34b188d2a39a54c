"""Atomic artifact writes, interrupted-result handling, torn-manifest audit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.runner import ExperimentRunner, ResumeState, RunWriter, make_runner
from repro.runner.artifacts import atomic_write_text, read_task_records, scan_jsonl
from repro.runner.cache import ResultCache
from repro.runner.tasks import ContinuousTask, HeuristicSpec
from repro.simulator.continuous import install_stop_check
from repro.topology.generators import line_topology
from repro.topology.graph import Topology
from tests.runner.test_resilience import probe


# -- atomic_write_text --------------------------------------------------------


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "manifest.json"
    atomic_write_text(target, "first")
    assert target.read_text() == "first"
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_failure_leaves_no_droppings(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "missing" / "out.txt", "data")
    assert not list(tmp_path.glob("*.tmp"))
    assert not (tmp_path / "out.txt").exists()


def test_manifest_written_atomically_through_runner(tmp_path):
    """Every manifest on disk parses — there is no observable torn state."""
    runner = make_runner(run_dir=str(tmp_path / "runs"), label="atomic")
    task = small_task()
    runner.map([task])
    runner.finalize()
    manifests = list((tmp_path / "runs").glob("*/manifest.json"))
    assert manifests
    payload = json.loads(manifests[0].read_text())
    assert payload["task_records"][0]["status"] == "ok"
    assert not list((tmp_path / "runs").glob("*/*.tmp"))


def test_mid_run_records_fold_to_the_writers_manifest_and_resume(tmp_path):
    """Mid-run, ``records.jsonl`` folds to ``manifest()``'s task rows.

    No manifest exists before ``finalize``; the one it writes is exactly
    ``manifest()`` bar the wall clock.
    """
    tasks = [probe(tmp_path, ident) for ident in ("a", "b", "c")]
    writer = RunWriter(root=tmp_path / "runs", label="mid-run")
    ids = writer.plan([(t.kind, t.label, t.cache_key()) for t in tasks])
    writer.record(
        index=ids[0], kind=tasks[0].kind, label=tasks[0].label,
        key=tasks[0].cache_key(), cached=False, seconds=0.5, status="ok",
        attempts=1, payload={"ident": "a", "attempts": 1},
        audit={"mode": "fast", "checks": ["status"], "violations": [], "skipped": []},
    )
    writer.record(
        index=ids[1], kind=tasks[1].kind, label=tasks[1].label,
        key=tasks[1].cache_key(), cached=False, seconds=0.2, status="failed",
        attempts=2, error="boom", failure={"error": "boom"},
    )
    # ids[2] stays pending: the run "crashed" before finalize().

    assert not (writer.run_dir / "manifest.json").exists()
    lines = (writer.run_dir / "records.jsonl").read_text().splitlines()
    assert len(lines) == 5  # three planned rows, then one line per record
    assert read_task_records(writer.run_dir) == writer.manifest()["task_records"]

    resumed = ExperimentRunner(resume=ResumeState(writer.run_dir))
    results = resumed.map(tasks)
    assert resumed.resumed == 1  # only the ok row is served
    assert resumed.executed == 2  # the failed and the pending rows re-run
    assert results[0] == {"ident": "a", "attempts": 1}

    final = json.loads((writer.finalize() / "manifest.json").read_text())
    expected = writer.manifest()
    for manifest in (final, expected):
        del manifest["wall_seconds"]
    assert final == expected
    assert final["pending"] == 1 and final["failed"] == 1
    assert (writer.run_dir / "manifest.json").read_text().startswith("{\n  ")


# -- records.jsonl --------------------------------------------------------------


def test_scan_jsonl_stops_before_an_unterminated_tail():
    raw = b'{"a": 1}\n\n{"a": 2}\n{"a": 3}'
    assert list(scan_jsonl(raw)) == [({"a": 1}, 9), ({"a": 2}, 19)]
    assert list(scan_jsonl(b"")) == []


def test_scan_jsonl_raises_at_a_terminated_unparseable_line():
    scan = scan_jsonl(b'{"a": 1}\n{"a": \n{"a": 3}\n')
    assert next(scan) == ({"a": 1}, 9)
    with pytest.raises(ValueError, match="byte 9"):
        next(scan)


def test_read_task_records_folds_by_index_last_row_winning(tmp_path):
    assert read_task_records(tmp_path) is None
    rows = [
        {"index": 0, "status": "pending"}, {"index": 1, "status": "pending"},
        {"index": 1, "status": "ok"}, {"index": 0, "status": "failed"},
    ]
    (tmp_path / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert read_task_records(tmp_path) == [rows[3], rows[2]]
    (tmp_path / "records.jsonl").write_text('["not", "a", "row"]\n')
    with pytest.raises(ValueError, match="not a task row"):
        read_task_records(tmp_path)
    # The manifest, once written, is the record.
    (tmp_path / "manifest.json").write_text(json.dumps({"task_records": rows[:1]}))
    assert read_task_records(tmp_path) == rows[:1]


# -- interrupted results ------------------------------------------------------


def zoned_topology():
    base = line_topology(num_nodes=6, hop_latency_ms=40.0)
    return Topology(
        latency=base.latency,
        origin=base.origin,
        populations=base.populations,
        zones=np.asarray([0, 0, 1, 1, 2, 2]),
    )


def small_task(**overrides):
    params = dict(
        topology=zoned_topology(),
        heuristic=HeuristicSpec("qiu", replicas=1, period_s=600.0, tlat_ms=80.0),
        epochs=3,
        epoch_s=1800.0,
        requests_per_epoch=150,
        num_objects=8,
        workload_seed=3,
    )
    params.update(overrides)
    return ContinuousTask(**params)


def test_interrupted_result_is_never_cached(tmp_path):
    """A drained partial result must not poison the content-addressed cache."""
    cache_dir = tmp_path / "cache"
    run_dir = tmp_path / "runs"
    task = small_task()

    calls = []

    def stop_after_one():
        calls.append(None)
        return len(calls) > 1

    install_stop_check(stop_after_one)
    try:
        runner = make_runner(cache_dir=str(cache_dir), run_dir=str(run_dir), label="int")
        result = runner.map([task])[0]
        runner.finalize()
    finally:
        install_stop_check(None)

    assert result.interrupted is True
    assert len(result.epochs) == 1
    cache = ResultCache(str(cache_dir))
    assert cache.load(task.cache_key(), task.kind) is None, (
        "interrupted partial result was cached under the full task digest"
    )
    manifest = json.loads(next(run_dir.glob("*/manifest.json")).read_text())
    assert manifest["task_records"][0]["status"] == "interrupted"

    # A clean rerun completes, and only the complete result is cached.
    runner2 = make_runner(cache_dir=str(cache_dir), label="int2")
    full = runner2.map([task])[0]
    runner2.finalize()
    assert full.interrupted is False
    assert len(full.epochs) == 3
    assert cache.load(task.cache_key(), task.kind) is not None


# -- torn manifest diagnostics ------------------------------------------------


def test_audit_torn_manifest_exits_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text('{"task_records": [{"kind": "bou')
    rc = main(["audit", str(run_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "corrupt" in err
    assert "torn or truncated" in err


def test_audit_missing_manifest_still_exit_1(tmp_path, capsys):
    run_dir = tmp_path / "empty-run"
    run_dir.mkdir()
    rc = main(["audit", str(run_dir)])
    capsys.readouterr()
    assert rc == 1  # audit verdict, not an integrity pre-flight failure
