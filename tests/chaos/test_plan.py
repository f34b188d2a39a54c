"""Chaos-plan grammar: parsing, layer routing, restricted entry points, draws."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosPlan,
    TaskChaos,
    chaos_draw,
    parse_plan,
)
from repro.errors import ValidationError
from repro.service.chaos import ServiceChaos

COMPOUND = (
    "crash:p=0.05,seed=9;"
    "drop:p=0.2;"
    "slow:p=0.1,ms=50,epochs=1-3;"
    "crash:epoch=2;"
    "crash:checkpoint=3;"
    "corrupt_checkpoint:at=1,mode=snapshot;"
    "zoneout:zone=1,at=100,down=50;"
    "crash:node=2,at=10,down=5;"
    "flashcrowd:epochs=0-1,object=2,mult=5"
)


# -- parsing and routing ----------------------------------------------------


def test_compound_plan_routes_every_layer():
    plan = parse_plan(COMPOUND)
    assert plan.task_fail == 0.05 and plan.task_seed == 9
    assert plan.drop == 0.2 and plan.drop_window is None
    assert plan.slow == 0.1 and plan.slow_ms == 50.0
    assert plan.slow_window == (1, 3)
    assert plan.crash_at_epoch == 2
    assert plan.crash_checkpoint_at == 3
    assert plan.corrupt_at == 1 and plan.corrupt_mode == "snapshot"
    assert plan.fault_spec() == "zoneout:zone=1,at=100,down=50;crash:node=2,at=10,down=5"
    assert plan.workload_spec() == "flashcrowd:epochs=0-1,object=2,mult=5"


def test_shorthand_expands_to_primary_key():
    assert parse_plan("crash=0.5").task_fail == 0.5
    assert parse_plan("drop=0.25").drop == 0.25
    assert parse_plan("slow=0.1").slow == 0.1
    assert parse_plan("corrupt_checkpoint=2").corrupt_at == 2
    assert parse_plan("flashcrowd=8").workload_clauses == ("flashcrowd:mult=8",)


def test_crash_clause_disambiguates_by_key():
    assert parse_plan("crash:p=0.3").task_fail == 0.3
    assert parse_plan("crash:epoch=4").crash_at_epoch == 4
    assert parse_plan("crash:checkpoint=1").crash_checkpoint_at == 1
    # node= routes to the topology fault layer verbatim.
    plan = parse_plan("crash:node=3,at=10,down=5")
    assert plan.fault_clauses == ("crash:node=3,at=10,down=5",)
    assert plan.task_fail == 0.0 and plan.crash_at_epoch == -1


def test_epoch_window_single_value_and_range():
    assert parse_plan("drop:p=0.1,epochs=2").drop_window == (2, 2)
    assert parse_plan("drop:p=0.1,epochs=2-5").drop_window == (2, 5)


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("", "empty chaos plan"),
        ("frob=1", "frob=1"),
        ("nonsense:x=1", "nonsense:x=1"),
        ("crash", "crash"),
        ("crash:wat=1", "crash:wat=1"),
        ("drop:p=2.0", "drop:p=2.0"),
        ("slow:p=0.1,ms=abc", "ms='abc'"),
        ("slow:p=0.1,epochs=3-1", "epochs window"),
        ("drop:p=0.1,bogus=2", "bogus"),
        ("corrupt_checkpoint:at=1,mode=sideways", "mode"),
        ("flashcrowd:epochs=1-2,object=0,mult=-3", "mult"),
    ],
)
def test_bad_clause_raises_naming_the_clause(spec, fragment):
    with pytest.raises(ValidationError) as excinfo:
        parse_plan(spec)
    assert fragment in str(excinfo.value)


def test_validation_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_plan("drop:p=2.0")


# -- layer projections ------------------------------------------------------


def test_unaddressed_layers_project_to_none():
    plan = parse_plan("zoneout:zone=1,at=100,down=50")
    assert plan.task_chaos() is None
    assert plan.service_chaos() is None
    assert plan.workload_spec() is None
    assert plan.service_spec() is None


def test_service_projection_carries_all_fields():
    chaos = parse_plan(COMPOUND).service_chaos()
    assert isinstance(chaos, ServiceChaos)
    assert chaos.drop == 0.2
    assert chaos.slow == 0.1 and chaos.slow_ms == 50.0
    assert chaos.slow_window == (1, 3)
    assert chaos.crash_at_epoch == 2
    assert chaos.crash_checkpoint_at == 3
    assert chaos.corrupt_checkpoint_at == 1
    assert chaos.corrupt_mode == "snapshot"


def test_task_projection():
    chaos = parse_plan("crash:p=0.4,seed=11").task_chaos()
    assert chaos == TaskChaos(fail=0.4, seed=11)


def test_service_spec_keeps_only_service_and_checkpoint_clauses():
    spec = parse_plan(COMPOUND).service_spec()
    plan = parse_plan(spec)
    assert plan.drop == 0.2 and plan.slow == 0.1
    assert plan.crash_at_epoch == 2 and plan.corrupt_at == 1
    assert plan.task_fail == 0.0
    assert plan.fault_clauses == () and plan.workload_clauses == ()


def test_without_one_shots_strips_crashes_and_corruption_only():
    healed = parse_plan(COMPOUND).without_one_shots()
    assert healed.crash_at_epoch == -1
    assert healed.crash_checkpoint_at == -1
    assert healed.corrupt_at == -1
    # Probabilistic and non-service clauses survive.
    assert healed.task_fail == 0.05
    assert healed.drop == 0.2 and healed.slow == 0.1
    assert healed.fault_clauses != () and healed.workload_clauses != ()


def test_without_one_shots_of_pure_one_shot_plan_is_empty():
    healed = parse_plan("crash:epoch=2;corrupt_checkpoint:at=1").without_one_shots()
    assert healed == ChaosPlan()


def test_describe_is_json_safe_and_round_trips_clauses():
    plan = parse_plan(COMPOUND)
    described = plan.describe()
    assert described["clauses"] == list(plan.clauses)
    assert parse_plan(";".join(described["clauses"])) == plan


# -- deterministic draws ----------------------------------------------------


def test_chaos_draw_deterministic_and_sensitive_to_every_input():
    assert chaos_draw(1, "site", 0) == chaos_draw(1, "site", 0)
    assert 0.0 <= chaos_draw(1, "site", 0) < 1.0
    assert chaos_draw(1, "site", 0) != chaos_draw(2, "site", 0)
    assert chaos_draw(1, "site", 0) != chaos_draw(1, "other", 0)
    assert chaos_draw(1, "site", 0) != chaos_draw(1, "site", 1)


def test_windowed_injection_only_fires_inside_the_window():
    chaos = parse_plan("drop:p=1.0,epochs=2-3").service_chaos()
    assert not chaos.should_drop(0, epoch=1)
    assert chaos.should_drop(0, epoch=2)
    assert chaos.should_drop(0, epoch=3)
    assert not chaos.should_drop(0, epoch=4)
    # Unknown epoch with a window configured: fail closed (no injection).
    assert not chaos.should_drop(0, epoch=None)


# -- layer-restricted entry points ------------------------------------------

TASK = ("task",)
SERVICE = ("service", "checkpoint")


def test_task_layer_plan_projects_task_chaos():
    plan = parse_plan("crash:p=0.25,seed=3", layers=TASK)
    assert plan.task_chaos() == TaskChaos(0.25, 3)


def test_task_layer_zero_probability_is_inert():
    assert parse_plan("crash:p=0,seed=3", layers=TASK).task_chaos() is None


@pytest.mark.parametrize("raw", ["crash:p=lots", "nope=1", "crash:p=1.5", "crash"])
def test_task_layer_rejects_garbage(raw):
    with pytest.raises(ValidationError):
        parse_plan(raw, layers=TASK)


def test_service_layer_plan_projects_service_chaos():
    plan = parse_plan(
        "drop:p=0.1,seed=5;slow:p=0.2,ms=250;crash:epoch=2;crash:checkpoint=1",
        layers=SERVICE,
    )
    assert plan.service_chaos() == ServiceChaos(
        drop=0.1, slow=0.2, slow_ms=250.0, crash_at_epoch=2,
        crash_checkpoint_at=1, seed=5,
    )


def test_service_layer_rejects_non_service_clauses():
    with pytest.raises(ValidationError, match="not a service-layer clause"):
        parse_plan("zoneout:zone=1,at=10,down=5", layers=SERVICE)
    with pytest.raises(ValidationError, match="not a service-layer clause"):
        parse_plan("crash:p=0.5", layers=SERVICE)


def test_service_layer_zero_probabilities_are_inert():
    assert parse_plan("drop:p=0;slow:p=0", layers=SERVICE).service_chaos() is None


@pytest.fixture()
def topo_file(tmp_path):
    from repro.cli import main

    path = tmp_path / "topo.json"
    assert main(["topology", "--nodes", "6", "--seed", "7", "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "spec",
    [
        "fail=0.5,seed=3",
        "crash_at_epoch=1",
        "crash_checkpoint_at=2",
        "drop=0.1,slow=0.5,slow_ms=200,seed=7",
    ],
)
@pytest.mark.parametrize("entry", ["REPRO_CHAOS", "REPRO_SERVICE_CHAOS", "--chaos"])
def test_comma_specs_are_refused_everywhere(spec, entry, monkeypatch, capsys, topo_file):
    """Comma-grammar specs are refused by every entry point, not re-read."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_SERVICE_CHAOS", raising=False)
    if entry == "REPRO_CHAOS":
        from repro.runner.resilience import chaos_should_fail

        monkeypatch.setenv(entry, spec)
        with pytest.raises(ValidationError, match="bad chaos clause"):
            chaos_should_fail("task-x", 0)
    elif entry == "REPRO_SERVICE_CHAOS":
        from repro.service import parse_service_chaos

        monkeypatch.setenv(entry, spec)
        with pytest.raises(ValidationError, match="bad chaos clause"):
            parse_service_chaos()
    else:
        from repro.cli import main

        # ``serve`` reports the ValidationError and exits 2 before it starts.
        argv = ["serve", "-t", str(topo_file), "--heuristic", "qiu",
                "--state-dir", str(topo_file.parent / "state"), "--chaos", spec]
        assert main(argv) == 2
        assert "bad chaos clause" in capsys.readouterr().err
