"""Placement-service load benchmark: goodput, tail latency, crash run.

Two measurements against a real ``repro serve`` subprocess:

* **steady** — a closed-loop mixed workload (placement / cost lookups plus
  admission-gated bound solves) against a healthy daemon: goodput
  (non-stale 2xx answers per second) and latency percentiles over 2xx
  answers;
* **crash** — the same workload while the daemon takes an injected
  ``crash:epoch=`` kill mid-run and is restarted on the same state
  directory and port.  The service's accounting contract is asserted, not
  eyeballed: every request the generator issued resolves to a counted
  outcome (the crash window shows up as connection errors), ``lost`` is
  exactly zero, and the recovered run converges to the uninterrupted
  baseline's result.

Results land in ``benchmarks/out/service_load.txt`` (table) and
``benchmarks/out/BENCH_service.json`` (machine-readable record).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service import run_load
from repro.service.client import ServiceClient
from repro.service.loadgen import LoadReport

from benchmarks.conftest import OUT_DIR, SCALE, write_report

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
DURATION_S = 3.0 * max(1.0, SCALE**0.5)
WORKERS = 4

MIX = (
    {"kind": "placement"},
    {"kind": "placement"},
    {"kind": "cost"},
    {"kind": "bound", "class": "general", "qos": 0.9},
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def serve_cmd(topo: Path, state: Path, port: int, *extra: str) -> list:
    return [
        sys.executable, "-m", "repro", "serve",
        "-t", str(topo),
        "--heuristic", "qiu",
        "--epochs", "6",
        "--epoch-length", "600",
        "--requests", "400",
        "--objects", "16",
        "--zones", "3",
        "--slo", "0.9",
        "--state-dir", str(state),
        "--port", str(port),
        "--snapshot-every", "2",
        *extra,
    ]


def serve_env() -> dict:
    return {"PYTHONPATH": str(REPO_SRC), "PATH": os.environ.get("PATH", "/usr/bin:/bin")}


def test_service_load(tmp_path):
    from repro.cli import main

    topo = tmp_path / "topo.json"
    assert main(["topology", "--nodes", "8", "--seed", "2", "-o", str(topo)]) == 0

    # -- baseline: uninterrupted run, for the convergence check -------------
    baseline_state = tmp_path / "baseline"
    proc = subprocess.run(
        serve_cmd(topo, baseline_state, 0, "--exit-when-done"),
        capture_output=True, text=True, env=serve_env(), timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    baseline = json.loads((baseline_state / "result.json").read_text())

    # -- steady-state phase ---------------------------------------------------
    steady_state = tmp_path / "steady"
    port = free_port()
    server = subprocess.Popen(
        serve_cmd(topo, steady_state, port, "--epoch-interval", "0.2"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=serve_env(),
    )
    try:
        assert ServiceClient("127.0.0.1", port).wait_ready(60.0)
        steady = run_load(
            "127.0.0.1", port, duration_s=DURATION_S, workers=WORKERS, mix=MIX
        )
    finally:
        server.terminate()
        server.wait(timeout=60)
    assert steady.lost == 0, f"{steady.lost} requests silently lost"
    assert steady.ok > 0

    # -- crash phase ----------------------------------------------------------
    crash_state = tmp_path / "crash"
    port = free_port()
    crash_report = LoadReport()
    server = subprocess.Popen(
        serve_cmd(
            topo, crash_state, port,
            "--epoch-interval", "0.3", "--chaos", "crash:epoch=2",
        ),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=serve_env(),
    )
    loader = threading.Thread(
        target=lambda: crash_report.merge(
            run_load("127.0.0.1", port, duration_s=DURATION_S, workers=WORKERS,
                     mix=MIX, timeout_s=5.0)
        ),
        daemon=True,
    )
    recovered_stderr = ""
    try:
        assert ServiceClient("127.0.0.1", port).wait_ready(60.0)
        t0 = time.monotonic()
        loader.start()
        server.wait(timeout=120)
        assert server.returncode == 57, "chaos crash did not fire"
        # Restart on the same port and state directory: recovery, mid-load.
        server = subprocess.Popen(
            serve_cmd(topo, crash_state, port, "--epoch-interval", "0.1"),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=serve_env(),
        )
        loader.join(timeout=DURATION_S + 60)
        crash_report.duration_s = time.monotonic() - t0
    finally:
        server.terminate()
        try:
            _, recovered_stderr = server.communicate(timeout=60)
        except ValueError:
            server.wait(timeout=60)

    assert not loader.is_alive(), "load generator wedged"
    assert crash_report.lost == 0, f"{crash_report.lost} requests silently lost"
    assert crash_report.connection_errors > 0, "the crash window was invisible?"
    assert "recovered checkpoint" in recovered_stderr
    converged = json.loads((crash_state / "result.json").read_text())
    # The restarted daemon may still be mid-run when we terminate it; the
    # epochs it *did* complete must be a byte-identical prefix of baseline.
    prefix = converged["epochs"]
    assert prefix == baseline["epochs"][: len(prefix)]

    record = {
        "scale": SCALE,
        "duration_s": DURATION_S,
        "workers": WORKERS,
        "steady": steady.to_dict(),
        "crash": crash_report.to_dict(),
        "converged_epochs": len(prefix),
        "baseline_epochs": len(baseline["epochs"]),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_service.json").write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        "placement service under closed-loop load",
        f"  workers={WORKERS} duration={DURATION_S:.1f}s scale={SCALE:g}",
        "",
        f"  {'phase':<8} {'good/s':>8} {'p50ms':>8} {'p99ms':>8} "
        f"{'ok':>7} {'shed':>5} {'stale':>5} {'conn':>5} {'lost':>5}",
    ]
    for name, report in (("steady", steady), ("crash", crash_report)):
        lines.append(
            f"  {name:<8} {report.goodput_rps:>8.0f} "
            f"{report.latency_percentile(50):>8.2f} "
            f"{report.latency_percentile(99):>8.2f} "
            f"{report.ok:>7} {report.shed:>5} {report.stale:>5} "
            f"{report.connection_errors:>5} {report.lost:>5}"
        )
    lines.append("")
    lines.append(
        f"  crash run: injected kill at epoch 2, restart recovered and "
        f"reproduced {len(prefix)} baseline epoch(s) exactly"
    )
    write_report("service_load", "\n".join(lines))
