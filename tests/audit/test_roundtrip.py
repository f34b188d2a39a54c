"""Serialization round-trips and the resumed-run audit regression.

Satellite (b): ``LPSolution`` round-trips must preserve solver status and
backend exactly, audited results must survive the cache/artifact encoding,
and a resumed run must see its previously-audited cells as verified (not
silently demoted to unaudited).
"""

from __future__ import annotations

import json

import pytest

from repro.core.classes import get_class
from repro.lp.solution import LPSolution, SolveStatus
from repro.runner import make_runner
from repro.runner.tasks import BoundTask


@pytest.mark.parametrize("status", list(SolveStatus))
@pytest.mark.parametrize("backend", ["scipy"])
def test_lp_solution_round_trip_preserves_status_and_backend(status, backend):
    solution = LPSolution(
        status=status,
        objective=12.5,
        values=[0.0, 1.0, 0.25],
        backend=backend,
        message="diag",
        duals=[0.5, -0.5],
    )
    back = LPSolution.from_dict(json.loads(json.dumps(solution.to_dict())))
    assert back.status is status
    assert back.backend == backend
    assert back.message == "diag"
    assert back.objective == solution.objective
    assert list(back.values) == list(solution.values)
    assert list(back.duals) == list(solution.duals)


def test_lp_solution_round_trip_none_duals():
    solution = LPSolution(status=SolveStatus.INFEASIBLE, backend="scipy")
    back = LPSolution.from_dict(json.loads(json.dumps(solution.to_dict())))
    assert back.status is SolveStatus.INFEASIBLE
    assert back.backend == "scipy"
    assert back.duals is None


@pytest.fixture()
def audited_result(web_problem):
    task = BoundTask(
        problem=web_problem,
        properties=get_class("storage-constrained").properties,
        backend="scipy",
        audit="fast",
    )
    return task.run()


def test_bound_result_round_trip_preserves_audit(audited_result):
    from repro.core.bounds import LowerBoundResult

    assert audited_result.audit is not None
    payload = json.loads(json.dumps(audited_result.to_dict()))
    back = LowerBoundResult.from_dict(payload)
    assert back.audit is not None
    assert back.audit.ok == audited_result.audit.ok
    assert back.audit.mode == audited_result.audit.mode
    assert back.audit.checks == audited_result.audit.checks
    assert back.status == audited_result.status
    assert back.backend_used == audited_result.backend_used


def test_rounding_result_round_trip_preserves_audit(web_problem):
    from repro.core.formulation import build_formulation
    from repro.core.rounding import RoundingResult, round_solution

    form = build_formulation(
        web_problem, get_class("storage-constrained").properties
    )
    solution = form.lp.solve(backend="scipy")
    rounding = round_solution(form, solution, audit="fast")
    assert rounding.audit is not None
    back = RoundingResult.from_dict(json.loads(json.dumps(rounding.to_dict())))
    assert back.audit is not None
    assert back.audit.ok == rounding.audit.ok
    assert back.feasible == rounding.feasible


def manifest_of(run_dir):
    [d] = [p for p in run_dir.iterdir() if p.is_dir()]
    return d, json.loads((d / "manifest.json").read_text())


def test_resumed_run_keeps_cells_audited(tmp_path, web_problem):
    """Regression: a --resume'd run must re-certify served cells, so the new
    manifest still reports them as audited instead of unverified."""
    tasks = [
        BoundTask(
            problem=web_problem,
            properties=get_class(name).properties,
            backend="scipy",
            audit="fast",
            label=name,
        )
        for name in ("storage-constrained", "replica-constrained")
    ]

    first = make_runner(run_dir=tmp_path / "first")
    first.map(tasks)
    first.finalize()
    first_dir, first_manifest = manifest_of(tmp_path / "first")
    assert first_manifest["audited"] == 2
    assert first_manifest["audit_failed"] == 0

    second = make_runner(run_dir=tmp_path / "second", resume=first_dir)
    second.map(tasks)
    second.finalize()
    assert second.resumed == 2
    assert second.audit_quarantined == 0

    _, second_manifest = manifest_of(tmp_path / "second")
    assert second_manifest["executed"] == 0
    assert second_manifest["audited"] == 2, (
        "resume served cells without re-certifying them"
    )
    assert second_manifest["audit_failed"] == 0
    for rec in second_manifest["task_records"]:
        assert rec["audit"] is not None
        assert rec["audit"]["violations"] == []
        assert rec["meta"]["class"] in (
            "storage-constrained", "replica-constrained",
        )
