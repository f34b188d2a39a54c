"""Resumable runs: only failed/pending tasks re-execute on --resume."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runner import ExperimentRunner, ResumeState, RetryPolicy, RunWriter
from repro.runner.resilience import TaskFailure
from tests.runner.test_resilience import probe


def run_once(tmp_path, tasks, **runner_kwargs):
    runner = ExperimentRunner(
        artifacts=RunWriter(root=tmp_path / "runs", label="resume-test"),
        policy=RetryPolicy(on_error="skip"),
        **runner_kwargs,
    )
    results = runner.map(tasks)
    run_dir = runner.finalize()
    return runner, results, Path(run_dir)


def test_resume_reexecutes_only_the_failed_task(tmp_path):
    tasks = [
        probe(tmp_path, "a"),
        probe(tmp_path, "broken", fail_times=10),
        probe(tmp_path, "c"),
    ]
    first, results, run_dir = run_once(tmp_path, tasks)
    assert isinstance(results[1], TaskFailure)
    assert first.failed == 1

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["ok"] == 2 and manifest["failed"] == 1

    # The fault "healed": same idents (same digests), failure knob removed.
    healed = [probe(tmp_path, "a"), probe(tmp_path, "broken"), probe(tmp_path, "c")]
    second = ExperimentRunner(
        artifacts=RunWriter(root=tmp_path / "runs", label="resume-test"),
        policy=RetryPolicy(on_error="skip"),
        resume=ResumeState(run_dir),
    )
    resumed = second.map(healed)
    assert second.executed == 1  # only the previously-failed task re-ran
    assert second.resumed == 2
    assert second.failed == 0
    assert [r["ident"] for r in resumed] == ["a", "broken", "c"]
    # Served results are the first run's payloads, not re-executions.
    assert resumed[0] == {"ident": "a", "attempts": 1}

    final = json.loads((Path(second.finalize()) / "manifest.json").read_text())
    assert final["ok"] == 3 and final["failed"] == 0 and final["pending"] == 0


def test_resume_summary_counts(tmp_path):
    tasks = [probe(tmp_path, "x"), probe(tmp_path, "y", fail_times=10)]
    _first, _results, run_dir = run_once(tmp_path, tasks)
    second = ExperimentRunner(
        policy=RetryPolicy(on_error="skip"), resume=ResumeState(run_dir)
    )
    second.map([probe(tmp_path, "x"), probe(tmp_path, "y")])
    assert "resumed=1" in second.summary()
    assert "failed=0" in second.summary()


def test_resume_state_serves_only_ok_rows(tmp_path):
    writer = RunWriter(root=tmp_path / "runs", label="partial")
    ids = writer.plan(
        [("probe", "probe[ok]", "k-ok"), ("probe", "probe[bad]", "k-bad"),
         ("probe", "probe[never]", "k-never")]
    )
    writer.record(
        index=ids[0], kind="probe", label="probe[ok]", key="k-ok",
        cached=False, seconds=1.5, status="ok", attempts=1,
        payload={"ident": "ok", "attempts": 1},
    )
    writer.record(
        index=ids[1], kind="probe", label="probe[bad]", key="k-bad",
        cached=False, seconds=0.2, status="failed", attempts=2,
        error="boom", failure={"error": "boom"},
    )
    # ids[2] stays pending — as if the run crashed here.

    state = ResumeState(writer.run_dir)
    assert len(state) == 1
    assert state.load("k-ok", "probe") == {"ident": "ok", "attempts": 1}
    assert state.load("k-bad", "probe") is None
    assert state.load("k-never", "probe") is None
    assert state.seconds("k-ok") == 1.5
    assert state.counts() == {"ok": 1, "failed": 1, "pending": 1}


def stopped_run(tmp_path):
    """A run stopped mid-sweep: one ok row, one failed row, one pending row."""
    writer = RunWriter(root=tmp_path / "runs", label="stopped")
    ids = writer.plan(
        [("probe", "probe[ok]", "k-ok"), ("probe", "probe[bad]", "k-bad"),
         ("probe", "probe[never]", "k-never")]
    )
    writer.record(
        index=ids[0], kind="probe", label="probe[ok]", key="k-ok",
        cached=False, seconds=1.5, status="ok", attempts=1,
        payload={"ident": "ok", "attempts": 1},
    )
    writer.record(
        index=ids[1], kind="probe", label="probe[bad]", key="k-bad",
        cached=False, seconds=0.2, status="failed", attempts=2,
        error="boom", failure={"error": "boom"},
    )
    return writer


def test_resume_state_ignores_a_torn_last_record_line(tmp_path):
    """The third task's line, payload and all, was cut short: the line is
    the commit point, so the task stays pending."""
    writer = stopped_run(tmp_path)
    line = json.dumps(
        {**vars(writer.records[2]), "status": "ok", "payload": {"ident": "never"}}
    )
    for cut in (len(line) // 2, len(line) - 1, len(line)):
        path = writer.run_dir / "records.jsonl"
        committed = path.read_bytes()
        path.write_bytes(committed + line[:cut].encode())
        state = ResumeState(writer.run_dir)
        path.write_bytes(committed)
        assert state.load("k-never", "probe") is None, cut

    state = ResumeState(writer.run_dir)
    assert state.load("k-ok", "probe") == {"ident": "ok", "attempts": 1}
    assert state.load("k-never", "probe") is None
    assert state.seconds("k-ok") == 1.5
    assert state.counts() == {"ok": 1, "failed": 1, "pending": 1}


@pytest.mark.parametrize("torn", ["middle line", "manifest"])
def test_resume_state_reads_a_torn_middle_line_as_a_torn_manifest(tmp_path, torn):
    """An unparseable line counts for nothing (nor does the manifest): every
    other complete ``ok`` line still resumes, with its recorded seconds."""
    writer = stopped_run(tmp_path)
    if torn == "manifest":
        (writer.run_dir / "manifest.json").write_text('{"task_records": [{"ke')
    else:
        path = writer.run_dir / "records.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines))

    state = ResumeState(writer.run_dir)
    assert state.load("k-ok", "probe") == {"ident": "ok", "attempts": 1}
    assert state.load("k-bad", "probe") is None  # failures never resume as results
    assert state.seconds("k-ok") == 1.5
    assert state.counts() == {"ok": 1, "failed": 1, "pending": 1}


def test_resume_state_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ResumeState(tmp_path / "no-such-run")


def test_resumed_tasks_report_original_seconds(tmp_path):
    writer = RunWriter(root=tmp_path / "runs", label="timed")
    task = probe(tmp_path, "slowpoke")
    writer.record(
        kind="probe", label=task.label, key=task.cache_key(),
        cached=False, seconds=3.25, status="ok", attempts=1,
        payload={"ident": "slowpoke", "attempts": 1},
    )
    run_dir = writer.finalize()

    second = ExperimentRunner(
        artifacts=RunWriter(root=tmp_path / "runs", label="timed-2"),
        resume=ResumeState(run_dir),
    )
    result = second.map([task])[0]
    assert result == {"ident": "slowpoke", "attempts": 1}
    assert second.resumed == 1
    manifest = json.loads((Path(second.finalize()) / "manifest.json").read_text())
    record = manifest["task_records"][0]
    assert record["cached"] is True
    assert record["seconds"] == 3.25


@pytest.mark.parametrize("digests", ["schema-2", "current"])
def test_resume_from_a_schema_2_run_dir_re_executes(web_problem, tmp_path, monkeypatch, digests):
    """A run directory written before the compressed array codec holds
    dense ``"data"`` arrays (under schema-2 digests).  Resuming from it
    re-executes its tasks instead of failing on the old payloads."""
    import repro.runner.artifacts
    import repro.runner.digest
    from repro.analysis.sweep import sweep_tasks
    from repro.core.classes import get_class
    from tests.runner.dense_codec import dense_array_to_jsonable

    tasks = sweep_tasks(
        web_problem, [0.4, 0.5], [get_class("general")], do_rounding=True, backend="scipy"
    )
    with monkeypatch.context() as patch:
        if digests == "schema-2":
            patch.setattr(repro.runner.digest, "SCHEMA_VERSION", "2")
            patch.setattr(repro.runner.artifacts, "SCHEMA_VERSION", "2")
        _runner, want, run_dir = run_once(tmp_path, tasks)
    log = run_dir / "records.jsonl"
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    for row in rows:
        if "payload" in row:
            row["payload"]["rounding"]["store"] = dense_array_to_jsonable(
                want[row["index"]].rounding.store
            )
    log.write_text("".join(json.dumps(row) + "\n" for row in rows))

    resumed = ExperimentRunner(resume=ResumeState(run_dir))
    got = resumed.map(tasks)
    assert (resumed.executed, resumed.resumed, resumed.failed) == (len(tasks), 0, 0)
    for a, b in zip(got, want):
        assert a.lp_cost == pytest.approx(b.lp_cost, rel=1e-9)
        assert a.rounding.store.shape == b.rounding.store.shape
