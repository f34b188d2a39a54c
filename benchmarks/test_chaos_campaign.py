"""Chaos-campaign benchmark: the compound scenario, timed and recorded.

Runs the CI campaign plan — flash crowd + zone partition + injected daemon
crash + checkpoint corruption + slow solves — through
:func:`repro.chaos.run_campaign` and records what the engine measured:
invariant verdicts, supervised restarts, load accounting, degrade-ladder
tier counts, and wall-clock split between the baseline and chaos phases.

Results land in ``benchmarks/out/chaos_campaign.txt`` (table) and
``benchmarks/out/BENCH_chaos.json`` (machine-readable record).
"""

from __future__ import annotations

import json
import time

from repro.chaos import run_campaign

from benchmarks.conftest import OUT_DIR, SCALE, write_report

PLAN = (
    "flashcrowd:epochs=2-3,object=0,mult=8;"
    "zonepart:zone=1,at=900,down=900;"
    "crash:epoch=3;"
    "corrupt_checkpoint:at=1;"
    "slow:p=0.5,ms=120"
)

EPOCHS = int(6 * max(1.0, SCALE**0.5))


def test_chaos_campaign(tmp_path):
    start = time.perf_counter()
    report = run_campaign(
        PLAN,
        tmp_path,
        epochs=EPOCHS,
        epoch_interval_s=0.25,
        requests_per_epoch=int(300 * max(1.0, SCALE**0.5)),
    )
    elapsed = time.perf_counter() - start

    failed = {
        name: entry["detail"]
        for name, entry in report.invariants.items()
        if not entry["ok"]
    }
    assert report.passed, f"campaign failed invariants: {failed}"
    assert report.restarts >= 1, "the injected crash never fired"
    assert report.load["lost"] == 0
    # Server counters plus what the client saw, as overload_adaptation
    # counts them: a crash can beat the last /stats poll of a launch.
    tiers = report.tiers
    engaged = (tiers["approx"] + tiers["stale"] + tiers["shed"]
               + report.load["shed"] + report.load["stale"])
    assert engaged > 0, "degrade ladder never engaged"
    assert report.baseline_digest == report.recovered_digest

    record = {
        "scale": SCALE,
        "plan": report.spec,
        "epochs": EPOCHS,
        "elapsed_s": elapsed,
        "campaign_s": report.duration_s,
        "passed": report.passed,
        "invariants": report.invariants,
        "restarts": report.restarts,
        "launches": len(report.launches),
        "load": report.load,
        "tiers": report.tiers,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_chaos.json").write_text(json.dumps(record, indent=2) + "\n")

    inv = "  ".join(
        f"{name}={'ok' if entry['ok'] else 'FAIL'}"
        for name, entry in sorted(report.invariants.items())
    )
    lines = [
        "chaos campaign: compound plan under supervised injection",
        f"  plan: {report.spec}",
        f"  epochs={EPOCHS} scale={SCALE:g} wall={elapsed:.1f}s",
        "",
        f"  launches={len(report.launches)} restarts={report.restarts} "
        f"(exit codes: {[l['exit'] for l in report.launches]})",
        f"  load: issued={report.load['issued']} ok={report.load['ok']} "
        f"shed={report.load['shed']} stale={report.load['stale']} "
        f"conn={report.load['connection_errors']} lost={report.load['lost']}",
        "  tiers: " + " ".join(f"{k}={v}" for k, v in report.tiers.items()),
        f"  {inv}",
        "",
        "  recovery converged byte-identically with the uninterrupted baseline",
    ]
    write_report("chaos_campaign", "\n".join(lines))
