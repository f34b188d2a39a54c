"""End-to-end chaos campaign: supervised restarts, invariants, report artifact.

One real campaign run (baseline + ``repro serve`` subprocess under load with
an injected crash and a torn checkpoint) — the same compound scenario CI's
chaos-campaign job executes, shrunk to stay test-suite friendly.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import CampaignReport, run_campaign
from repro.errors import ValidationError

PLAN = (
    "flashcrowd:epochs=1-2,object=0,mult=8;"
    "zonepart:zone=1,at=900,down=900;"
    "crash:epoch=2;"
    "corrupt_checkpoint:at=1;"
    "slow:p=0.5,ms=120"
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("campaign")
    report = run_campaign(
        PLAN,
        workdir,
        epochs=4,
        epoch_interval_s=0.2,
        requests_per_epoch=200,
        num_objects=8,
        load_burst_s=0.4,
    )
    return workdir, report


def test_campaign_passes_every_invariant(campaign):
    _, report = campaign
    failed = {
        name: entry["detail"]
        for name, entry in report.invariants.items()
        if not entry["ok"]
    }
    assert report.passed, f"failed invariants: {failed}"
    assert set(report.invariants) == {
        "service_completed",
        "no_silent_loss",
        "byte_identical_recovery",
        "slo_met",
        "audit_clean",
        "overload_adaptation",
    }


def test_campaign_supervised_the_injected_crash(campaign):
    _, report = campaign
    assert report.restarts >= 1
    assert len(report.launches) == report.restarts + 1
    assert report.launches[0]["exit"] == 57
    assert report.launches[-1]["exit"] == 0
    # Restart launches carry the plan minus its one-shot faults.
    assert "crash:epoch" not in (report.launches[-1]["chaos"] or "")


def test_campaign_recovery_is_byte_identical(campaign):
    _, report = campaign
    assert report.baseline_digest
    assert report.baseline_digest == report.recovered_digest


def test_campaign_accounts_every_request(campaign):
    _, report = campaign
    assert report.load["issued"] > 0
    assert report.load["lost"] == 0
    # The overload_adaptation quantity: a launch's server-side brownout
    # counters are lost when its injected crash beats the next /stats
    # poll, so the 429s and stale answers the client saw count too.
    assert sum(report.brownout.values()) + report.load["shed"] + report.load["stale"] > 0


def test_campaign_writes_report_artifact(campaign):
    workdir, report = campaign
    payload = json.loads((workdir / "report.json").read_text())
    assert payload == report.to_dict()
    assert payload["passed"] is True
    assert (workdir / "serve-1.log").exists()
    # Human-readable rendering mentions every invariant.
    rendered = report.render()
    for name in report.invariants:
        assert name in rendered


def test_campaign_rejects_a_malformed_plan(tmp_path):
    with pytest.raises(ValidationError, match="drop:p=2.0"):
        run_campaign("drop:p=2.0", tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_report_fails_closed_with_no_invariants():
    assert not CampaignReport(spec="x").passed
