"""Tests for the repro.perf instrumentation layer and the --profile flag."""

import json

import pytest

from repro.cli import main
from repro.perf import PERF, Profiler


# -- Profiler unit tests -----------------------------------------------------


def test_counters():
    p = Profiler()
    assert p.get("x") == 0
    p.count("x")
    p.count("x", 4)
    p.count("y")
    assert p.get("x") == 5
    assert p.get("y") == 1


def test_timers_accumulate():
    p = Profiler()
    assert p.seconds("phase") == 0.0
    with p.timer("phase"):
        pass
    with p.timer("phase"):
        pass
    assert p.seconds("phase") >= 0.0
    assert p.timer_calls["phase"] == 2


def test_timer_records_on_exception():
    p = Profiler()
    with pytest.raises(RuntimeError):
        with p.timer("boom"):
            raise RuntimeError("boom")
    assert p.timer_calls["boom"] == 1


def test_snapshot_shape_and_json_safety():
    p = Profiler()
    p.count("b.counter")
    p.count("a.counter", 2)
    with p.timer("t"):
        pass
    snap = p.snapshot()
    assert set(snap) == {"timers", "counters"}
    assert list(snap["counters"]) == ["a.counter", "b.counter"]  # sorted
    assert snap["timers"]["t"]["calls"] == 1
    json.dumps(snap)  # round-trippable


def test_reset():
    p = Profiler()
    p.count("x")
    with p.timer("t"):
        pass
    p.reset()
    assert p.get("x") == 0
    assert p.seconds("t") == 0.0
    assert p.snapshot() == {"timers": {}, "counters": {}}


def test_singleton_is_a_profiler():
    assert isinstance(PERF, Profiler)


# -- CLI --profile smoke -----------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("perf-cli")
    topo_path = str(root / "topo.json")
    trace_path = str(root / "trace.json")
    assert main(["topology", "--nodes", "8", "--seed", "3", "-o", topo_path]) == 0
    assert (
        main(
            [
                "workload", "web",
                "--nodes", "8", "--objects", "20", "--scale", "0.02",
                "--seed", "4", "--topology", topo_path, "-o", trace_path,
            ]
        )
        == 0
    )
    return topo_path, trace_path


def test_profile_writes_run_dir_json(artifacts, tmp_path, capsys):
    topo_path, trace_path = artifacts
    run_root = tmp_path / "runs"
    rc = main(
        [
            "bounds", "-t", topo_path, "-w", trace_path,
            "--qos", "0.9", "--intervals", "6", "--warmup", "1",
            "--class", "general", "--jobs", "1",
            "--run-dir", str(run_root), "--profile",
        ]
    )
    assert rc == 0
    profiles = list(run_root.glob("**/profile.json"))
    assert len(profiles) == 1
    snap = json.loads(profiles[0].read_text())
    counters, timers = snap["counters"], snap["timers"]
    # The bound pipeline must have gone through the instrumented hot paths.
    assert counters["lp.assembly.rebuild"] >= 1
    assert counters["lp.solve"] >= 1
    assert counters["form.build.vectorized"] >= 1
    assert timers["lp.assembly"]["calls"] >= 1
    assert timers["lp.solve"]["calls"] >= 1
    assert timers["form.build"]["calls"] >= 1
    err = capsys.readouterr().err
    assert "profile written to" in err


def test_profile_without_run_dir_goes_to_stderr(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "bounds", "-t", topo_path, "-w", trace_path,
            "--qos", "0.9", "--intervals", "6", "--warmup", "1",
            "--class", "general", "--no-rounding", "--profile",
        ]
    )
    assert rc == 0
    err_lines = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("{")
    ]
    assert err_lines, "expected a JSON profile line on stderr"
    snap = json.loads(err_lines[-1])["profile"]
    assert snap["counters"]["lp.solve"] >= 1


def test_profile_resets_between_commands(artifacts, capsys):
    """One command = one profile: counts don't leak across main() calls."""
    topo_path, trace_path = artifacts
    base = [
        "bounds", "-t", topo_path, "-w", trace_path,
        "--qos", "0.9", "--intervals", "6", "--warmup", "1",
        "--class", "general", "--no-rounding", "--profile",
    ]

    def solve_count():
        assert main(base) == 0
        err_lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        return json.loads(err_lines[-1])["profile"]["counters"]["lp.solve"]

    assert solve_count() == solve_count()


def test_rounded_sweep_profile_shows_no_rebuilds(artifacts, tmp_path):
    """A rounded sweep assembles each class's LP once: every later level is
    a patched re-target, so rebuilds == formulations built (one here)."""
    topo_path, trace_path = artifacts
    run_root = tmp_path / "runs"
    rc = main(
        [
            "sweep", "-t", topo_path, "-w", trace_path,
            "--intervals", "6", "--warmup", "1",
            "--classes", "general",
            "--levels", "0.5", "0.7",
            "--rounding",
            "--jobs", "1", "--run-dir", str(run_root), "--profile",
        ]
    )
    assert rc == 0
    profiles = list(run_root.glob("**/profile.json"))
    assert len(profiles) == 1
    counters = json.loads(profiles[0].read_text())["counters"]
    assert counters["lp.assembly.rebuild"] == 1  # one class, one formulation
    # Every solve after the first served the cached assembly.
    assert counters["lp.assembly.reuse"] >= counters["lp.solve"] - 1
