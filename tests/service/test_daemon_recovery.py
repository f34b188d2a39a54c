"""Crash recovery: kill -9, injected crashes, SIGTERM drains — all converge.

The contract under test is the strongest one the service makes: a daemon
killed at *any* point — mid-epoch, between journal append and snapshot,
or drained by SIGTERM — restarts from its state directory and finishes
with placements and per-epoch reports byte-identical to a run that was
never interrupted.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runner.tasks import ContinuousTask, HeuristicSpec
from repro.service import CheckpointStore, PlacementDaemon, Supervisor
from repro.topology.generators import line_topology
from repro.topology.graph import Topology

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


# -- in-process: the stepper/checkpoint/recovery contract ---------------------


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
        epochs=4,
        epoch_s=1800.0,
        requests_per_epoch=200,
        num_objects=8,
        workload_seed=3,
        slo=0.9,
        faults="zonepart:zone=1,at=300,down=300",
    )
    params.update(overrides)
    return ContinuousTask(**params)


def run_daemon_to_completion(tmp_path, name, interrupt_after=None):
    task = small_task()
    store = CheckpointStore(tmp_path / name, task.cache_key(), snapshot_every=2)
    daemon = PlacementDaemon(task, store)
    daemon.recover()
    steps = 0
    while daemon.run_epoch():
        steps += 1
        if interrupt_after is not None and steps >= interrupt_after:
            break
    return daemon


def test_recovery_mid_run_matches_uninterrupted(tmp_path):
    baseline = run_daemon_to_completion(tmp_path, "baseline")
    # "Crash" after two epochs: throw the daemon object away, recover a
    # fresh one from the same store, finish.
    run_daemon_to_completion(tmp_path, "crashed", interrupt_after=2)
    resumed = run_daemon_to_completion(tmp_path, "crashed")
    assert resumed.recovered_from == 2
    assert resumed.state.to_dict() == baseline.state.to_dict()
    assert resumed.result().to_dict() == baseline.result().to_dict()


def test_supervisor_restarts_from_checkpoint(tmp_path):
    task = small_task()
    store = CheckpointStore(tmp_path / "sup", task.cache_key(), snapshot_every=2)
    daemon = PlacementDaemon(task, store)

    fail_at = {2}
    original = daemon.run_epoch

    def flaky():
        if daemon.state.index in fail_at:
            fail_at.clear()
            raise RuntimeError("transient epoch failure")
        return original()

    daemon.run_epoch = flaky
    supervisor = Supervisor(daemon, max_restarts=2, sleep=lambda s: None)
    assert supervisor.run() is True
    assert supervisor.restarts == 1
    assert daemon.done
    baseline = run_daemon_to_completion(tmp_path, "sup-baseline")
    assert daemon.state.to_dict() == baseline.state.to_dict()


def test_supervisor_escalates_persistent_failure(tmp_path):
    task = small_task()
    store = CheckpointStore(tmp_path / "esc", task.cache_key())
    daemon = PlacementDaemon(task, store)
    daemon.run_epoch = lambda: (_ for _ in ()).throw(RuntimeError("wedged"))
    supervisor = Supervisor(daemon, max_restarts=2, sleep=lambda s: None)
    with pytest.raises(RuntimeError, match="wedged"):
        supervisor.run()
    assert supervisor.restarts == 3


# -- subprocess: the real thing, killed for real ------------------------------


def serve_cmd(topo: Path, state_dir: Path, *extra: str) -> list:
    return [
        sys.executable, "-m", "repro", "serve",
        "-t", str(topo),
        "--heuristic", "qiu",
        "--epochs", "4",
        "--epoch-length", "600",
        "--requests", "300",
        "--objects", "12",
        "--zones", "3",
        "--faults", "zonepart:zone=1,at=100,down=200",
        "--slo", "0.9",
        "--snapshot-every", "2",
        "--state-dir", str(state_dir),
        *extra,
    ]


def serve_env(**extra: str) -> dict:
    env = {"PYTHONPATH": str(REPO_SRC), "PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def topo(tmp_path_factory):
    from repro.cli import main

    path = tmp_path_factory.mktemp("recovery") / "topo.json"
    assert main(["topology", "--nodes", "8", "--seed", "2", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def baseline_result(topo, tmp_path_factory):
    """The uninterrupted run every crash variant must converge to."""
    state = tmp_path_factory.mktemp("recovery") / "baseline"
    proc = subprocess.run(
        serve_cmd(topo, state, "--exit-when-done"),
        capture_output=True, text=True, env=serve_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((state / "result.json").read_text())


def finish_and_compare(topo, state, baseline_result):
    proc = subprocess.run(
        serve_cmd(topo, state, "--exit-when-done"),
        capture_output=True, text=True, env=serve_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "recovered checkpoint" in proc.stderr
    result = json.loads((state / "result.json").read_text())
    assert result == baseline_result
    return proc


@pytest.mark.parametrize(
    "chaos, expect_note",
    [
        ("crash:epoch=1", "mid-epoch 1"),
        # After the snapshot_every=2 boundary: the journal record for epoch
        # 3 exists but the snapshot still says epoch 2 — journal must win.
        ("crash:checkpoint=2", "checkpoint after epoch 2"),
    ],
)
def test_injected_crash_recovers_and_converges(topo, baseline_result, tmp_path, chaos, expect_note):
    state = tmp_path / "state"
    proc = subprocess.run(
        serve_cmd(topo, state, "--exit-when-done", "--chaos", chaos),
        capture_output=True, text=True, env=serve_env(), timeout=120,
    )
    assert proc.returncode == 57, proc.stderr  # CHAOS_EXIT_CODE
    assert expect_note in proc.stderr
    finish_and_compare(topo, state, baseline_result)


def test_kill_dash_nine_mid_run_recovers(topo, baseline_result, tmp_path):
    state = tmp_path / "state"
    proc = subprocess.Popen(
        serve_cmd(topo, state, "--epoch-interval", "0.4"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=serve_env(),
    )
    try:
        # Wait until at least one epoch is durable, then kill without mercy.
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().strip():
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon never journaled an epoch")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
    finish_and_compare(topo, state, baseline_result)


def test_sigterm_drains_checkpoints_and_resumes(topo, baseline_result, tmp_path):
    state = tmp_path / "state"
    proc = subprocess.Popen(
        serve_cmd(topo, state, "--epoch-interval", "0.5"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=serve_env(),
    )
    try:
        # Wait for the first epoch to be durable so the drain leaves a
        # checkpoint behind (not just an empty state directory).
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().strip():
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon never journaled an epoch")
        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 3, err
    assert "drained" in err
    drained = json.loads((state / "result.json").read_text())
    assert drained["interrupted"] is True
    assert 1 <= len(drained["epochs"]) < 4
    finish_and_compare(topo, state, baseline_result)


def test_stop_check_finishes_the_current_epoch():
    """The drain contract, deterministically: in-flight epoch completes."""
    from repro.simulator.continuous import run_continuous

    task = small_task()
    traces, schedule, slo = task.materialize()
    seen = []

    def stop_after_two():
        seen.append(None)
        return len(seen) > 2

    result = run_continuous(
        task.topology,
        traces,
        task.heuristic.build,
        tlat_ms=task.tlat_ms,
        faults=schedule,
        slo=slo,
        stop=stop_after_two,
    )
    assert result.interrupted is True
    # stop is consulted before each epoch: False, False, True -> two epochs
    # ran to completion, none was abandoned half-way.
    assert len(result.epochs) == 2
    assert "(interrupted)" in str(result)


def test_sigterm_on_continuous_finishes_epoch_and_exits_3(topo, tmp_path):
    run_dir = tmp_path / "runs"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "continuous",
            "-t", str(topo),
            # Greedy-global re-plans at every boundary, so its 1,000 epochs
            # run for about ten seconds: the signal lands well inside the
            # epoch loop on a fast machine too.
            "--heuristic", "greedy-global",
            "--epochs", "1000",
            "--requests", "1000",
            "--objects", "32",
            "--run-dir", str(run_dir),
            "--json",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=serve_env(),
    )
    try:
        time.sleep(3.0)  # past startup, inside the multi-second epoch loop
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 3, (out, err)
    assert "finishing the current epoch" in err
    payload = json.loads(out)
    assert payload["interrupted"] is True
    assert payload["epochs"] < 1000
    # The run directory records the partial result as interrupted, so a
    # --resume never serves it as a completed run.
    manifests = list(run_dir.glob("*/manifest.json"))
    assert manifests, "no manifest written"
    records = json.loads(manifests[0].read_text())["task_records"]
    assert records[0]["status"] == "interrupted"
