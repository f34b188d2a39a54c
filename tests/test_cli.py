"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.topology.io import load_topology
from repro.workload.io import load_trace


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A topology + WEB trace written by the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    topo_path = str(root / "topo.json")
    trace_path = str(root / "trace.json")
    assert main(["topology", "--nodes", "10", "--seed", "5", "-o", topo_path]) == 0
    assert (
        main(
            [
                "workload", "web",
                "--nodes", "10", "--objects", "25", "--scale", "0.05",
                "--seed", "2", "--topology", topo_path, "-o", trace_path,
            ]
        )
        == 0
    )
    return topo_path, trace_path


def problem_flags(topo_path, trace_path, qos="0.9"):
    return ["-t", topo_path, "-w", trace_path, "--qos", qos, "--intervals", "8", "--warmup", "1"]


def test_topology_and_workload_files_valid(artifacts):
    topo_path, trace_path = artifacts
    topo = load_topology(topo_path)
    trace = load_trace(trace_path)
    assert topo.num_nodes == 10
    assert trace.num_nodes == 10
    assert trace.num_objects == 25


def test_workload_nodes_default_to_topology_size(artifacts, tmp_path):
    topo_path, _ = artifacts
    out_path = str(tmp_path / "defaulted.json")
    rc = main(
        ["workload", "web", "--objects", "25", "--scale", "0.05",
         "--topology", topo_path, "-o", out_path]
    )
    assert rc == 0
    assert load_trace(out_path).num_nodes == 10


def test_bounds_human_output(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(["bounds", *problem_flags(topo_path, trace_path), "--class", "general", "--no-rounding"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound=" in out


def test_bounds_json_output(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        ["bounds", *problem_flags(topo_path, trace_path), "--class", "storage-constrained", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "storage-constrained"
    assert data["feasible"]
    assert data["lower_bound"] > 0
    assert data["feasible_cost"] >= data["lower_bound"] - 1e-6


def test_bounds_infeasible_exit_code(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        ["bounds", *problem_flags(topo_path, trace_path, qos="0.999999"), "--class", "caching"]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "flag, value, name",
    [("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"), ("--beta", "inf", "beta"),
     ("--tlat", "nan", "tlat_ms")],
)
def test_bounds_refuses_non_finite_inputs(artifacts, capsys, flag, value, name):
    """A NaN or infinite cost or threshold never reaches the LP: the run
    exits 2 naming the input, instead of printing bound=nan."""
    topo_path, trace_path = artifacts
    rc = main(
        ["bounds", *problem_flags(topo_path, trace_path), "--class", "general", flag, value]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert f"bounds: {name} must be finite" in captured.err
    assert "bound=" not in captured.out


def test_select_json(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "select", *problem_flags(topo_path, trace_path), "--json", "--no-rounding",
            "--classes", "storage-constrained", "replica-constrained",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["recommended"] in ("storage-constrained", "replica-constrained")
    assert set(data["bounds"]) == {"storage-constrained", "replica-constrained"}


def test_deploy(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        ["deploy", *problem_flags(topo_path, trace_path), "--zeta", "2000", "--json"]
    )
    out = capsys.readouterr().out
    data = json.loads(out)
    assert rc == 0
    assert data["feasible"]
    assert len(data["open_nodes"]) >= 1
    assert data["recommended"]


def test_simulate_each_heuristic(artifacts, capsys):
    topo_path, trace_path = artifacts
    for name in ["lru", "lfu", "coop-lru", "greedy-global", "qiu", "random"]:
        rc = main(
            [
                "simulate", *problem_flags(topo_path, trace_path, qos="0.2"),
                "--heuristic", name, "--capacity", "10", "--replicas", "2", "--json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert "qos" in data and "total_cost" in data
        assert rc in (0, 1)


def test_simulate_exit_code_reflects_goal(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "simulate", *problem_flags(topo_path, trace_path, qos="0.9999"),
            "--heuristic", "lru", "--capacity", "1",
        ]
    )
    assert rc == 1
    assert "MISSES" in capsys.readouterr().out


def test_classes_listing(capsys):
    assert main(["classes"]) == 0
    out = capsys.readouterr().out
    assert "caching" in out
    assert "Route" in out


def test_sweep_command(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    csv_path = str(tmp_path / "sweep.csv")
    rc = main(
        [
            "sweep", *problem_flags(topo_path, trace_path),
            "--levels", "0.8", "0.9",
            "--classes", "storage-constrained", "replica-constrained",
            "--csv", csv_path,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "storage-constrained" in out
    import pathlib

    csv_text = pathlib.Path(csv_path).read_text()
    assert csv_text.startswith("class,qos_level")


def test_sweep_command_json(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "sweep", *problem_flags(topo_path, trace_path),
            "--levels", "0.8", "--classes", "general", "--json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["levels"] == [0.8]
    assert "general" in data["bounds"]


def test_simulate_with_faults_json(artifacts, capsys):
    topo_path, trace_path = artifacts
    args = [
        "simulate", *problem_flags(topo_path, trace_path, qos="0.2"),
        "--heuristic", "coop-lru", "--capacity", "10",
        "--faults", "poisson:mtbf=21600,mttr=1800", "--fault-seed", "11",
        "--heal", "--json",
    ]
    rc = main(args)
    assert rc in (0, 1)
    data = json.loads(capsys.readouterr().out)
    assert "availability" in data
    assert 0.0 <= data["availability"] <= 1.0
    assert data["node_downtime_s"] > 0
    assert data["healing_cost"] == data["healing_creations"] * 1.0
    # Determinism through the CLI: same --fault-seed, same result.
    assert main(args) == rc
    assert json.loads(capsys.readouterr().out) == data


def test_simulate_with_faults_text_report(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "simulate", *problem_flags(topo_path, trace_path, qos="0.2"),
            "--heuristic", "lru", "--capacity", "10",
            "--faults", "crash:node=3,at=10000,down=20000",
        ]
    )
    assert rc in (0, 1)
    out = capsys.readouterr().out
    assert "availability" in out
    assert "node downtime" in out


def test_simulate_rejects_bad_fault_spec(artifacts):
    topo_path, trace_path = artifacts
    with pytest.raises(ValueError, match="unknown fault clause"):
        main(
            [
                "simulate", *problem_flags(topo_path, trace_path),
                "--heuristic", "lru", "--faults", "meteor:at=1",
            ]
        )


def test_sweep_runner_flags_and_warm_cache(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    args = [
        "sweep", *problem_flags(topo_path, trace_path),
        "--levels", "0.8", "0.9", "--classes", "caching", "replica-constrained",
        "--json", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"), "--run-dir", str(tmp_path / "runs"),
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    cold = json.loads(captured.out)  # stdout must stay pure JSON
    assert "executed=4" in captured.err
    assert "cache_hits=0" in captured.err

    assert main(args) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == cold
    assert "executed=0" in captured.err
    assert "cache_hits=4" in captured.err

    run_dirs = sorted((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 2
    warm_manifest = json.loads((run_dirs[-1] / "manifest.json").read_text())
    assert warm_manifest["executed"] == 0
    assert warm_manifest["cache_hits"] == 4


def test_sweep_jobs_matches_serial(artifacts, capsys):
    topo_path, trace_path = artifacts
    base = [
        "sweep", *problem_flags(topo_path, trace_path),
        "--levels", "0.8", "0.9", "--classes", "caching", "--json",
    ]
    assert main(base) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main([*base, "--jobs", "4"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert parallel == serial


def test_simulate_cache_round_trip(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    args = [
        "simulate", *problem_flags(topo_path, trace_path, qos="0.2"),
        "--heuristic", "lru", "--capacity", "10", "--json",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    rc = main(args)
    captured = capsys.readouterr()
    cold = json.loads(captured.out)
    assert "executed=1" in captured.err
    assert main(args) == rc
    captured = capsys.readouterr()
    assert json.loads(captured.out) == cold
    assert "cache_hits=1" in captured.err


def test_cache_stats_and_clear(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    cache_dir = str(tmp_path / "cache")
    assert main(
        [
            "bounds", *problem_flags(topo_path, trace_path),
            "--class", "general", "--no-rounding", "--json",
            "--cache-dir", cache_dir,
        ]
    ) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert stats["kinds"] == {"bound": 1}
    assert stats["bytes"] > 0

    assert main(["cache", "clear", "--cache-dir", cache_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"removed": 1}
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_stats_human_output(capsys, tmp_path):
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "empty")]) == 0
    out = capsys.readouterr().out
    assert "0 entries" in out


def test_resilience_flags_accepted(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        [
            "bounds", *problem_flags(topo_path, trace_path),
            "--class", "general", "--no-rounding", "--json",
            "--task-timeout", "60", "--retries", "1", "--on-error", "skip",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["feasible"]


def test_chaos_sweep_then_resume_converges(artifacts, capsys, tmp_path, monkeypatch):
    """The acceptance scenario: a partial run + --resume finishes the job."""
    topo_path, trace_path = artifacts
    base = [
        "sweep", *problem_flags(topo_path, trace_path),
        "--levels", "0.8", "0.9",
        "--classes", "storage-constrained", "replica-constrained",
        "--json", "--on-error", "skip",
        "--cache-dir", str(tmp_path / "cache"), "--run-dir", str(tmp_path / "runs"),
    ]
    # Seed 0 deterministically fails 2 of these 4 task labels at p=0.5.
    monkeypatch.setenv("REPRO_CHAOS", "crash:p=0.5,seed=0")
    assert main(base) == 0
    captured = capsys.readouterr()
    partial = json.loads(captured.out)
    assert len(partial["failed_cells"]) == 2
    assert "failed=2" in captured.err

    run1 = sorted((tmp_path / "runs").iterdir())[-1]
    manifest = json.loads((run1 / "manifest.json").read_text())
    assert manifest["ok"] == 2 and manifest["failed"] == 2

    monkeypatch.delenv("REPRO_CHAOS")
    assert main([*base, "--resume", str(run1)]) == 0
    captured = capsys.readouterr()
    final = json.loads(captured.out)
    assert final["failed_cells"] == []
    # Only the two failed tasks re-executed; ok results were served.
    assert "executed=2" in captured.err
    assert "resumed=2" in captured.err
    assert "failed=0" in captured.err

    run2 = sorted((tmp_path / "runs").iterdir())[-1]
    final_manifest = json.loads((run2 / "manifest.json").read_text())
    assert final_manifest["ok"] == 4
    assert final_manifest["failed"] == 0
    assert final_manifest["pending"] == 0


def test_verbosity_flags_accepted(artifacts, capsys):
    topo_path, trace_path = artifacts
    assert main(["-q", "classes"]) == 0
    capsys.readouterr()
    assert main(["-vv", "classes"]) == 0
    capsys.readouterr()


def test_python_dash_m_entry_point(artifacts, tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    repo_src = Path(__file__).resolve().parents[1] / "src"
    topo_path, trace_path = artifacts
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "bounds", "-t", topo_path, "-w", trace_path,
            "--qos", "0.9", "--class", "general", "--no-rounding", "--json",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["feasible"] is True


# -- audit flag and the `repro audit` post-hoc command ------------------------


def test_bounds_audit_full_reports_ok(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        ["bounds", *problem_flags(topo_path, trace_path),
         "--class", "storage-constrained", "--audit", "full"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit[full]" in out
    assert "OK" in out


def test_bounds_audit_json_carries_report(artifacts, capsys):
    topo_path, trace_path = artifacts
    rc = main(
        ["bounds", *problem_flags(topo_path, trace_path),
         "--class", "storage-constrained", "--audit", "fast", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["audit"] is not None
    assert data["audit"]["violations"] == []
    assert "placement" in data["audit"]["checks"]


def sweep_with_run_dir(artifacts, tmp_path, name):
    topo_path, trace_path = artifacts
    run_root = str(tmp_path / name)
    rc = main(
        ["sweep", *problem_flags(topo_path, trace_path),
         "--levels", "0.8", "0.9",
         "--classes", "storage-constrained",
         "--rounding", "--audit", "fast", "--run-dir", run_root]
    )
    assert rc == 0
    import pathlib

    [run_dir] = [p for p in pathlib.Path(run_root).iterdir() if p.is_dir()]
    return run_dir


def test_audit_command_clean_run_exits_zero(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "clean")
    capsys.readouterr()
    rc = main(["audit", str(run_dir), "-t", topo_path, "-w", trace_path, "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert rc == 0, out
    assert data["violations"] == []
    assert "monotonicity" in data["checks"]


def test_audit_command_flags_corrupted_payload(artifacts, capsys, tmp_path):
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "corrupt")
    capsys.readouterr()
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if '"payload": ' in line)
    body = json.loads(lines[at])
    assert body["kind"] == "bound"
    body["payload"]["lp_cost"] = body["payload"]["lp_cost"] * 5.0 + 1.0
    lines[at] = json.dumps(body) + "\n"
    path.write_text("".join(lines))

    rc = main(["audit", str(run_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bound-gate" in out


def test_audit_command_reads_records_without_a_manifest(artifacts, capsys, tmp_path):
    """A run that never finalized is audited from its records.jsonl."""
    topo_path, trace_path = artifacts
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "unfinished")
    (run_dir / "manifest.json").unlink()
    capsys.readouterr()
    rc = main(["audit", str(run_dir), "-t", topo_path, "-w", trace_path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["violations"] == []
    assert "monotonicity" in data["checks"] and "cost" in data["checks"]


def test_audit_command_torn_middle_record_line_exits_2(artifacts, capsys, tmp_path):
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "torn")
    (run_dir / "manifest.json").unlink()
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["audit", str(run_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "corrupt" in err and "torn or truncated" in err and "records.jsonl" in err


def test_audit_command_torn_payload_line_exits_2_despite_the_manifest(
    artifacts, capsys, tmp_path
):
    """The payloads live only in records.jsonl: a torn line before its last
    is corruption even when the manifest is intact."""
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "torn-payload")
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    assert '"payload": ' in lines[-2]
    lines[-2] = lines[-2][: len(lines[-2]) // 2] + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 2
    assert "records.jsonl" in capsys.readouterr().err


def test_audit_command_ignores_a_torn_last_payload_line(artifacts, capsys, tmp_path):
    topo_path, trace_path = artifacts
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "torn-tail")
    (run_dir / "manifest.json").unlink()
    path = run_dir / "records.jsonl"
    data = path.read_text()
    path.write_text(data[: len(data) - 40])
    capsys.readouterr()
    rc = main(["audit", str(run_dir), "-t", topo_path, "-w", trace_path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["violations"] == []


@pytest.mark.parametrize("manifest", [True, False])
def test_audit_command_decodes_the_log_once(artifacts, capsys, tmp_path, monkeypatch, manifest):
    """`repro audit` checks the run's integrity and audits it from one scan
    of records.jsonl, and rebuilds the demand once per interval count."""
    import repro.runner.artifacts
    from repro.workload.demand import DemandMatrix

    topo_path, trace_path = artifacts
    run_dir = sweep_with_run_dir(artifacts, tmp_path, f"once-{manifest}")
    if not manifest:
        (run_dir / "manifest.json").unlink()
    scan, decodes = repro.runner.artifacts.scan_jsonl, []

    def counting_scan(raw):
        decodes.append(getattr(raw, "name", raw))
        return scan(raw)

    monkeypatch.setattr(repro.runner.artifacts, "scan_jsonl", counting_scan)
    build, builds = DemandMatrix.from_trace, []
    monkeypatch.setattr(
        DemandMatrix, "from_trace",
        classmethod(lambda cls, *args, **kwargs: builds.append(1) or build(*args, **kwargs)),
    )
    capsys.readouterr()
    rc = main(["audit", str(run_dir), "-t", topo_path, "-w", trace_path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["violations"] == []
    assert "cost" in data["checks"]  # the cells were rebuilt and re-verified
    assert len(decodes) == 1 and str(decodes[0]).endswith("records.jsonl")
    assert len(builds) == 1


def test_audit_command_requires_both_inputs(artifacts, capsys, tmp_path):
    run_dir = sweep_with_run_dir(artifacts, tmp_path, "lonely")
    topo_path, _ = artifacts
    capsys.readouterr()
    rc = main(["audit", str(run_dir), "-t", topo_path])
    assert rc == 2


# -- zones and continuous placement -----------------------------------------


@pytest.fixture(scope="module")
def zoned_topology_path(tmp_path_factory):
    """A 6-node topology with three explicit zones, written by the CLI."""
    path = str(tmp_path_factory.mktemp("zoned") / "topo.json")
    rc = main(
        ["topology", "--nodes", "6", "--seed", "5",
         "--zones", "0+1;2+3;4+5", "-o", path]
    )
    assert rc == 0
    return path


def test_topology_zones_flag_persists_the_zone_map(zoned_topology_path):
    topo = load_topology(zoned_topology_path)
    assert topo.has_zones
    assert topo.num_zones == 3
    assert topo.zone_nodes(0) == [0, 1]


def test_topology_bad_zones_spec_exits_two(tmp_path, capsys):
    rc = main(
        ["topology", "--nodes", "6", "--zones", "0+1;2",
         "-o", str(tmp_path / "t.json")]
    )
    assert rc == 2
    assert "zone" in capsys.readouterr().err


def continuous_flags(topo_path, *extra):
    return [
        "continuous", "-t", topo_path, "--heuristic", "qiu",
        "--epochs", "2", "--epoch-length", "1800", "--requests", "300",
        "--objects", "8", "--replicas", "1", "--tlat", "80", "--seed", "3",
        *extra,
    ]


def test_continuous_json_reports_epochs_and_migration(zoned_topology_path, capsys):
    rc = main([*continuous_flags(zoned_topology_path), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["epochs"] == 2
    assert data["reads"] > 0
    assert data["migration_bytes"] > 0
    assert data["slo_target"] is None
    assert len(data["epoch_reports"]) == 2
    assert {"serve_cost", "migration_bytes", "availability"} <= set(
        data["epoch_reports"][0]
    )


def test_continuous_slo_violation_exits_one(zoned_topology_path, capsys):
    rc = main(
        [*continuous_flags(
            zoned_topology_path,
            "--faults", "zonepart:zone=1,at=300,down=900",
            "--slo", "0.999",
        ), "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["slo_target"] == 0.999
    assert data["slo_violations"] >= 1
    assert data["slo_violation_epochs"]


def test_continuous_text_report_prints_verdict(zoned_topology_path, capsys):
    rc = main(
        continuous_flags(
            zoned_topology_path,
            "--faults", "zonepart:zone=1,at=300,down=900",
            "--slo", "0.999",
        )
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "epoch 0:" in out
    assert "SLO VIOLATED" in out
    assert "VIOLATES" in out


def test_continuous_zone_clause_needs_zone_map(artifacts, capsys):
    topo_path, _ = artifacts
    rc = main(
        continuous_flags(topo_path, "--faults", "zoneout:mtbf=7200,mttr=900")
    )
    assert rc == 2
    assert "zone map" in capsys.readouterr().err


def test_continuous_zones_override_applies(artifacts, capsys):
    """--zones grafts a map onto an unzoned topology file."""
    topo_path, _ = artifacts
    rc = main(
        [*continuous_flags(
            topo_path, "--zones", "3",
            "--faults", "zoneout:mtbf=7200,mttr=900",
        ), "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["epochs"] == 2


def test_continuous_bad_zones_spec_exits_two(zoned_topology_path, capsys):
    rc = main(continuous_flags(zoned_topology_path, "--zones", "0+1;2"))
    assert rc == 2
    assert "bad --zones" in capsys.readouterr().err


def test_continuous_results_cache_across_invocations(zoned_topology_path, capsys, tmp_path):
    cache = str(tmp_path / "cache")
    flags = [*continuous_flags(zoned_topology_path), "--cache-dir", cache, "--json"]
    assert main(flags) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(flags) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == first
    assert "cache" in captured.err
