"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it takes under a
minute.  It checks the benchmark, not the system: every metric named in
``BENCHMARK.json`` is emitted with its unit by every pipeline workload
(``group-sweep`` too, which is reported only), the service workloads emit
their own end-to-end metrics and layers, every layer a workload should
exercise fired in its traced run, the layer self times add up to the traced
wall clock, the speed probe samples and rescales, and a wrong golden answer
fails the correctness check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
PIPELINE = ["web-sweep", "group-sweep", "web-drift", "web-rerun"]
SERVICE = ["serve-read", "serve-solve"]
SERVICE_END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SERVICE_LAYERS = {
    "http.health_rtt_p50_ms", "http.lookup_rtt_p50_ms", "service.cache.hit_ratio",
    "service.coalesced", "service.solve_p50_ms", "service.miss_overhead_p50_ms",
    "admission.shed", "brownout.approx_served", "brownout.stale_served",
    "service.deadline_expired", "gen.late_p99_ms",
    "traced_wall_s", "unattributed_s", "trace_overhead_share",
}


def bench(*args: str):
    """Run the benchmark; return (exit code, the final JSON line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def units(result) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_gated_workloads_are_pipeline_workloads():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(PIPELINE)


@pytest.mark.parametrize("workload", PIPELINE + SERVICE)
def test_end_to_end_metrics(workload):
    code, result = bench("--workload", workload)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    if workload in SERVICE:
        assert units(result) == SERVICE_END_TO_END
    else:
        assert units(result) == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_probe_rescales_by_its_slowdown():
    probe = SpeedProbe()
    start = time.perf_counter()
    while len(probe.samples) < 3:
        sum(i * i for i in range(1000))
    seconds = time.perf_counter() - start
    probe.stop()
    slowdown = probe.slowdown(start, start + seconds)
    assert slowdown > 0
    assert probe.normalize(start, seconds) == pytest.approx(seconds / slowdown)
    # A window holding no sample falls back to every sample.
    assert probe.slowdown(start - 10.0, start - 9.0) > 0


@pytest.mark.parametrize("workload", PIPELINE + SERVICE)
def test_per_layer_metrics(workload):
    code, result = bench("--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    if workload in SERVICE:
        assert set(result["metrics"]) == SERVICE_LAYERS
    else:
        assert units(result) == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    layers = {name: metric["value"] for name, metric in result["metrics"].items()}
    window_self = sum(
        value for name, value in layers.items()
        if name.endswith(".self_s") and name != "setup.inputs.self_s"
    )
    assert window_self + layers["unattributed_s"] == pytest.approx(layers["traced_wall_s"])
    assert layers["unattributed_s"] >= 0
    if workload in SERVICE:
        return
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    silent = [layer for layer in trace["expected_layers"] if not trace["calls"].get(layer)]
    assert not silent, f"{workload}: layers that never fired: {silent}"


def test_perturbed_golden_fails(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "golden", golden)
    path = golden / "web-sweep.json"
    data = json.loads(path.read_text())
    data["smoke"]["bounds"]["general"][0] *= 1 + 1e-4
    path.write_text(json.dumps(data))
    code, result = bench("--workload", "web-sweep", "--golden", str(golden))
    assert code == 1 and result["correct"] is False
