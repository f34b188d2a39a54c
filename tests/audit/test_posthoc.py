"""Post-hoc run-directory auditing (the ``repro audit <run-dir>`` path)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.sweep import sweep_tasks
from repro.audit import audit_run_dir
from repro.core.classes import get_class
from repro.runner import make_runner
from repro.runner.tasks import HeuristicSpec, SimulateTask

LEVELS = [0.7, 0.9]
CLASSES = ["storage-constrained", "replica-constrained"]


@pytest.fixture()
def run_dir(tmp_path, web_problem, small_topology, web_trace):
    """A finalized sweep run (4 bound cells + 1 simulate cell), audit on."""
    tasks = sweep_tasks(
        web_problem,
        LEVELS,
        [get_class(c) for c in CLASSES],
        do_rounding=True,
        backend="scipy",
        audit="fast",
    )
    sim = SimulateTask(
        topology=small_topology,
        trace=web_trace,
        heuristic=HeuristicSpec(name="greedy-global", capacity=8, period_s=600.0),
        tlat_ms=150.0,
        audit="fast",
        label="sim-greedy-global",
    )
    runner = make_runner(run_dir=tmp_path / "runs", label="posthoc")
    runner.map(list(tasks) + [sim])
    return runner.artifacts.finalize()


def payload_lines(run_dir, kind):
    """The ``kind`` rows of ``records.jsonl`` that carry a payload."""
    rows = [json.loads(line) for line in (run_dir / "records.jsonl").read_text().splitlines()]
    return [row for row in rows if row["kind"] == kind and "payload" in row]


def rewrite_line(run_dir, row, replace):
    """Swap the log line of ``row`` for ``replace(line)``."""
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    [at] = [i for i, line in enumerate(lines) if json.loads(line) == row]
    lines[at] = replace(lines[at])
    path.write_text("".join(lines))


def edit_payload(run_dir, row, mutate):
    """Tamper with ``row``'s payload inside its ``records.jsonl`` line."""
    def edit(line):
        body = json.loads(line)
        mutate(body["payload"])
        return json.dumps(body) + "\n"

    rewrite_line(run_dir, row, edit)


def test_clean_run_audits_ok(run_dir):
    report = audit_run_dir(run_dir)
    assert report.ok, report.render()
    for check in ("artifact", "stored-audit", "placement", "bound-gate",
                  "monotonicity", "sim-gate"):
        assert check in report.checks, f"{check} never ran"


def test_problem_factory_enables_full_recheck(run_dir, web_problem):
    def factory(meta):
        if meta.get("qos") is None:
            return None
        goal = dataclasses.replace(web_problem.goal, fraction=float(meta["qos"]))
        return dataclasses.replace(web_problem, goal=goal)

    report = audit_run_dir(run_dir, problem_factory=factory)
    assert report.ok, report.render()
    assert "cost" in report.checks


def test_corrupted_bound_payload_is_flagged(run_dir):
    row = payload_lines(run_dir, "bound")[0]
    edit_payload(run_dir, row, lambda p: p.update(lp_cost=p["lp_cost"] * 3.0 + 1.0))
    report = audit_run_dir(run_dir)
    assert not report.ok
    assert any(v.check == "bound-gate" for v in report.violations)


def test_monotonicity_violation_is_flagged(run_dir):
    cells = {
        (row["meta"]["class"], row["meta"]["qos"]): row
        for row in payload_lines(run_dir, "bound")
    }
    # Forge the tighter level's bound below the looser level's: the feasible
    # region only shrinks as QoS tightens, so this cannot happen honestly.
    forged = cells["storage-constrained", 0.7]["payload"]["lp_cost"] / 2.0
    edit_payload(
        run_dir, cells["storage-constrained", 0.9], lambda p: p.update(lp_cost=forged)
    )
    report = audit_run_dir(run_dir)
    assert not report.ok
    assert any(v.check == "monotonicity" for v in report.violations)


def test_sim_gate_violation_is_flagged(run_dir):
    def undercut(p):
        p["storage_cost"] = 0.0
        p["creation_cost"] = 0.0
        p["update_cost"] = 0.0
        p["covered_reads"] = p["reads"]  # forged sim now "meets" every level

    edit_payload(run_dir, payload_lines(run_dir, "simulate")[0], undercut)
    report = audit_run_dir(run_dir)
    assert not report.ok
    assert any(v.check == "sim-gate" for v in report.violations)


def test_missing_payload_file_is_flagged(run_dir):
    """An ``ok`` row whose payload line is gone (as in a run directory
    written before payloads moved into the log) is flagged."""
    rewrite_line(run_dir, payload_lines(run_dir, "bound")[0], lambda line: "")
    report = audit_run_dir(run_dir)
    assert not report.ok
    assert any(
        v.check == "artifact" and "without a payload line" in v.message
        for v in report.violations
    )


def test_payload_line_of_another_task_is_not_audited(run_dir):
    """A payload line commits the row with its own index *and* key: a
    manifest row naming another key gets no payload from it."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["task_records"][0]["key"] = "0" * 64
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    report = audit_run_dir(run_dir)
    [violation] = report.violations
    assert violation.check == "artifact" and "without a payload line" in violation.message


def test_missing_manifest_is_flagged(tmp_path):
    report = audit_run_dir(tmp_path / "nope")
    assert not report.ok


# -- a run that never finalized: rows from records.jsonl ----------------------


def test_records_without_a_manifest_audit_like_the_manifest(run_dir):
    want = audit_run_dir(run_dir)
    (run_dir / "manifest.json").unlink()
    got = audit_run_dir(run_dir)
    assert got.ok, got.render()
    assert got.to_dict() == want.to_dict()


def test_torn_last_record_line_is_ignored(run_dir):
    """The replay's record line is torn: its row folds to ``pending`` and is
    not audited, while every committed cell still is."""
    (run_dir / "manifest.json").unlink()
    path = run_dir / "records.jsonl"
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    assert json.loads(data[last:])["kind"] == "simulate"
    path.write_bytes(data[: last + (len(data) - last) // 2])
    report = audit_run_dir(run_dir)
    assert report.ok, report.render()
    assert "monotonicity" in report.checks and "sim-gate" not in report.checks


def test_torn_middle_record_line_is_flagged(run_dir):
    (run_dir / "manifest.json").unlink()
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    path.write_text("".join(lines))
    report = audit_run_dir(run_dir)
    assert not report.ok
    [violation] = report.violations
    assert violation.check == "artifact"
    assert "records.jsonl" in violation.message
