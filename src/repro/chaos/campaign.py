"""End-to-end execution of one chaos plan: ``repro chaos <plan>``.

A campaign answers the question the individual injectors cannot: *does the
whole system keep its promises while everything in the plan goes wrong at
once?*  It runs one deterministic scenario twice —

1. **Baseline** — the campaign's :class:`~repro.runner.tasks.ContinuousTask`
   (same topology, workload-emulation spec and fault schedule the plan
   prescribes) runs in-process, uninterrupted.  This is the ground truth.
2. **Chaos** — the same task runs as a real ``repro serve`` subprocess with
   the plan's service/checkpoint clauses injected, while a closed-loop load
   generator hammers the query endpoints.  Injected crashes (exit 57) are
   supervised: the process is relaunched against the same state directory
   with the plan's one-shot clauses stripped
   (:meth:`~repro.chaos.plan.ChaosPlan.without_one_shots`), so recovery —
   not a rerun — produces the final result.

Then the invariants are checked, each one a promise another module makes:

``no_silent_loss``
    Every load-generator request is accounted (ok / shed / stale / error /
    connection error / timeout) — :attr:`LoadReport.lost` is zero even
    across injected crashes and dropped connections.
``byte_identical_recovery``
    The recovered run's ``result.json`` equals the baseline's result under
    canonical JSON — crashes, torn journal records and garbled snapshots
    included, recovery converges exactly.
``slo_met``
    The (healed) plan meets its availability SLO in every epoch.
``audit_clean``
    The recovered artifact passes
    :func:`~repro.audit.certificates.audit_continuous_result`.
``overload_adaptation``
    The degrade ladder actually engaged under load — approximate solves,
    TTL-bounded stale answers or accounted sheds (the ``approx``,
    ``stale`` and ``shed`` tier counts of ``/stats``' policy block, or the
    429s and stale answers the load generator saw), never silent
    degradation.
``service_completed``
    The final launch exited 0 within the restart budget.

The report is written to ``<workdir>/report.json`` (plus per-launch
``serve-N.log`` files) so CI failures are diagnosable from artifacts alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.chaos.plan import ChaosPlan, parse_plan
from repro.errors import ValidationError

#: Exit status of an injected service crash (repro.service.chaos).
CHAOS_EXIT = 57

#: The degrade-ladder tiers ``overload_adaptation`` counts as engagement.
DEGRADED_TIERS = ("approx", "stale", "shed")

#: Bound-heavy query mix: enough concurrent solver work to push the
#: admission depth past the approx threshold, with cheap lookups mixed in
#: so the cheap path's availability under pressure is exercised too.
CAMPAIGN_MIX: Sequence[Dict[str, object]] = tuple(
    [{"kind": "placement"}, {"kind": "cost"}]
    + [
        {"kind": "bound", "class": "general", "qos": round(0.50 + 0.05 * i, 2)}
        for i in range(10)
    ]
)


def _digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class CampaignReport:
    """Everything one campaign run learned, JSON-serializable."""

    spec: str
    plan: Dict[str, object] = field(default_factory=dict)
    invariants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    launches: List[Dict[str, object]] = field(default_factory=list)
    restarts: int = 0
    load: Dict[str, object] = field(default_factory=dict)
    tiers: Dict[str, int] = field(default_factory=dict)
    baseline_digest: str = ""
    recovered_digest: str = ""
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.invariants) and all(
            entry["ok"] for entry in self.invariants.values()
        )

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.invariants[name] = {"ok": bool(ok), "detail": detail}
        return bool(ok)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "plan": self.plan,
            "passed": self.passed,
            "invariants": self.invariants,
            "launches": self.launches,
            "restarts": self.restarts,
            "load": self.load,
            "tiers": self.tiers,
            "baseline_digest": self.baseline_digest,
            "recovered_digest": self.recovered_digest,
            "duration_s": self.duration_s,
        }

    def render(self) -> str:
        lines = [f"chaos campaign: {self.spec}"]
        for name, entry in self.invariants.items():
            mark = "PASS" if entry["ok"] else "FAIL"
            detail = f"  ({entry['detail']})" if entry["detail"] else ""
            lines.append(f"  [{mark}] {name}{detail}")
        lines.append(
            f"  launches={len(self.launches)} restarts={self.restarts} "
            f"load_issued={self.load.get('issued', 0)} "
            f"lost={self.load.get('lost', 0)} "
            f"tiers={self.tiers}"
        )
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(f"-> campaign {verdict} in {self.duration_s:.1f}s")
        return "\n".join(lines)


def _campaign_topology(num_nodes: int, num_zones: int):
    """The campaign's fixed scenario: a zoned line (a tree, so every solver
    backend — including the approx tier's ``structure`` path — has its exact
    regime available)."""
    from repro.topology.generators import line_topology
    from repro.topology.graph import Topology

    base = line_topology(num_nodes=num_nodes, hop_latency_ms=40.0)
    zones = np.asarray([i * num_zones // num_nodes for i in range(num_nodes)])
    return Topology(
        latency=base.latency,
        origin=base.origin,
        populations=base.populations,
        zones=zones,
    )


def run_campaign(
    spec: Union[str, ChaosPlan],
    workdir: Union[str, Path],
    *,
    heuristic: str = "qiu",
    epochs: int = 6,
    epoch_s: float = 1800.0,
    epoch_interval_s: float = 0.25,
    requests_per_epoch: int = 300,
    num_objects: int = 12,
    seed: int = 3,
    tlat_ms: float = 80.0,
    capacity: int = 10,
    replicas: int = 1,
    period_s: float = 600.0,
    slo: Optional[float] = 0.9,
    heal: bool = True,
    heal_copies: int = 2,
    heal_zones: int = 2,
    snapshot_every: int = 2,
    admission_limit: int = 2,
    max_restarts: int = 5,
    load_workers: int = 6,
    load_burst_s: float = 0.6,
    num_nodes: int = 6,
    num_zones: int = 3,
    launch_timeout_s: float = 180.0,
    python: str = sys.executable,
) -> CampaignReport:
    """Execute one chaos plan end-to-end; never raises past plan validation.

    Raises :class:`~repro.errors.ValidationError` for a malformed plan (the
    caller's error); every *runtime* failure lands in the report as a failed
    invariant instead, so CI gets artifacts rather than stack traces.
    """
    from repro.runner.tasks import ContinuousTask, HeuristicSpec
    from repro.topology.io import load_topology, save_topology

    plan = spec if isinstance(spec, ChaosPlan) else parse_plan(spec)
    report = CampaignReport(
        spec=";".join(plan.clauses), plan=plan.describe()
    )
    t_start = time.monotonic()

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state_dir = workdir / "state"

    # The topology round-trips through disk for BOTH phases: the baseline
    # and the serve subprocess must hash the exact same task.
    topo_path = workdir / "topology.json"
    save_topology(_campaign_topology(num_nodes, num_zones), topo_path)
    topology = load_topology(topo_path)

    task = ContinuousTask(
        topology=topology,
        heuristic=HeuristicSpec(
            name=heuristic,
            capacity=capacity,
            replicas=replicas,
            period_s=period_s,
            tlat_ms=tlat_ms,
            heal=heal,
            heal_copies=heal_copies,
            heal_zones=heal_zones,
        ),
        epochs=epochs,
        epoch_s=epoch_s,
        requests_per_epoch=requests_per_epoch,
        num_objects=num_objects,
        workload_seed=seed,
        workload=plan.workload_spec(),
        tlat_ms=tlat_ms,
        cost_interval_s=epoch_s,
        faults=plan.fault_spec(),
        slo=slo,
        label=f"chaos[{heuristic}]",
    )

    # -- phase 1: the uninterrupted baseline ---------------------------------
    try:
        baseline = task.run()
    except ValidationError:
        raise
    except Exception as exc:
        report.check("service_completed", False, f"baseline run failed: {exc}")
        report.duration_s = time.monotonic() - t_start
        _write_report(workdir, report)
        return report
    baseline_payload = baseline.to_dict()
    report.baseline_digest = _digest(baseline_payload)

    # -- phase 2: the supervised chaos run under load ------------------------
    from repro.service.loadgen import LoadReport, run_load

    serve_argv = [
        python, "-m", "repro", "serve",
        "-t", str(topo_path),
        "--heuristic", heuristic,
        "--state-dir", str(state_dir),
        "--epochs", str(epochs),
        "--epoch-length", str(epoch_s),
        "--epoch-interval", str(epoch_interval_s),
        "--requests", str(requests_per_epoch),
        "--objects", str(num_objects),
        "--seed", str(seed),
        "--tlat", str(tlat_ms),
        "--capacity", str(capacity),
        "--replicas", str(replicas),
        "--period", str(period_s),
        "--snapshot-every", str(snapshot_every),
        "--admission-limit", str(admission_limit),
        "--exit-when-done",
    ]
    if slo is not None:
        serve_argv += ["--slo", str(slo)]
    if heal:
        serve_argv += [
            "--heal",
            "--heal-copies", str(heal_copies),
            "--heal-zones", str(heal_zones),
        ]
    if plan.fault_spec():
        serve_argv += ["--faults", plan.fault_spec()]
    if plan.workload_spec():
        serve_argv += ["--workload", plan.workload_spec()]

    # The subprocess must see only the plan's clauses — ambient chaos env
    # vars would make the campaign non-reproducible.
    child_env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_CHAOS", "REPRO_SERVICE_CHAOS")
    }

    total_load = LoadReport()
    tier_totals = dict.fromkeys(("exact",) + DEGRADED_TIERS, 0)
    chaos_spec = plan.service_spec()
    final_code: Optional[int] = None
    failure_detail = ""
    while True:
        launch_no = len(report.launches) + 1
        if launch_no > max_restarts + 1:
            failure_detail = (
                f"{report.restarts} injected-crash restarts exceeded the "
                f"budget of {max_restarts}"
            )
            break
        endpoint_path = state_dir / "endpoint.json"
        try:
            endpoint_path.unlink()
        except OSError:
            pass
        log_path = workdir / f"serve-{launch_no}.log"
        argv = list(serve_argv)
        if chaos_spec:
            argv += ["--chaos", chaos_spec]
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=child_env
            )
        last_stats: Optional[Dict[str, object]] = None
        endpoint: Optional[Dict[str, object]] = None
        deadline = time.monotonic() + launch_timeout_s
        try:
            while time.monotonic() < deadline and proc.poll() is None:
                if endpoint_path.exists():
                    try:
                        endpoint = json.loads(endpoint_path.read_text())
                        break
                    except (OSError, json.JSONDecodeError):
                        pass
                time.sleep(0.05)
            while proc.poll() is None and time.monotonic() < deadline:
                if endpoint is None:
                    time.sleep(0.05)
                    continue
                burst = run_load(
                    str(endpoint["host"]),
                    int(endpoint["port"]),
                    duration_s=load_burst_s,
                    workers=load_workers,
                    mix=CAMPAIGN_MIX,
                    timeout_s=5.0,
                    seed=seed + 1000 * launch_no,
                )
                total_load.merge(burst)
                total_load.duration_s += burst.duration_s
                last_stats = _try_stats(endpoint) or last_stats
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
        report.launches.append(
            {
                "exit": code,
                "chaos": chaos_spec,
                "log": str(log_path),
                "stats": last_stats,
            }
        )
        if last_stats:
            tiers = (last_stats.get("policy") or {}).get("tiers") or {}
            for key in tier_totals:
                tier_totals[key] += int(tiers.get(key, 0))
        if code == CHAOS_EXIT:
            # An injected crash: supervise.  Restarts run the plan minus
            # its one-shot clauses — a deterministic crash would otherwise
            # re-fire at the same epoch forever.
            report.restarts += 1
            chaos_spec = plan.without_one_shots().service_spec()
            continue
        final_code = code
        break
    report.load = total_load.to_dict()
    report.tiers = tier_totals

    # -- invariants ----------------------------------------------------------
    report.check(
        "service_completed",
        final_code == 0,
        failure_detail
        or (f"final exit {final_code}" if final_code != 0 else
            f"{len(report.launches)} launch(es), {report.restarts} restart(s)"),
    )
    report.check(
        "no_silent_loss",
        total_load.lost == 0 and total_load.issued > 0,
        f"issued={total_load.issued} lost={total_load.lost}",
    )
    recovered = _load_result(state_dir)
    if recovered is None:
        report.check("byte_identical_recovery", False, "no result.json artifact")
        report.check("slo_met", False, "no result.json artifact")
        report.check("audit_clean", False, "no result.json artifact")
    else:
        report.recovered_digest = _digest(recovered)
        report.check(
            "byte_identical_recovery",
            report.recovered_digest == report.baseline_digest,
            f"baseline={report.baseline_digest[:12]} "
            f"recovered={report.recovered_digest[:12]}",
        )
        _check_result_invariants(report, task, recovered, slo)
    # A launch's server-side counters are lost when its injected crash beats
    # the next /stats poll, so the sheds (429) and stale answers the load
    # generator itself saw count as evidence too.
    report.check(
        "overload_adaptation",
        sum(tier_totals[t] for t in DEGRADED_TIERS) + total_load.shed + total_load.stale
        > 0,
        f"tier counts {tier_totals}, client saw "
        f"shed={total_load.shed} stale={total_load.stale}",
    )
    report.duration_s = time.monotonic() - t_start
    _write_report(workdir, report)
    return report


def _try_stats(endpoint: Dict[str, object]) -> Optional[Dict[str, object]]:
    from repro.service.client import ServiceClient

    try:
        response = ServiceClient(
            str(endpoint["host"]), int(endpoint["port"]), timeout_s=5.0
        ).stats()
    except Exception:
        return None
    return response.payload if response.ok else None


def _load_result(state_dir: Path) -> Optional[Dict[str, object]]:
    try:
        return json.loads((state_dir / "result.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _check_result_invariants(
    report: CampaignReport,
    task,
    recovered: Dict[str, object],
    slo: Optional[float],
) -> None:
    from repro.audit import audit_continuous_result

    try:
        result = task.decode(recovered)
    except Exception as exc:
        report.check("slo_met", False, f"undecodable result.json: {exc}")
        report.check("audit_clean", False, f"undecodable result.json: {exc}")
        return
    if slo is None:
        report.check("slo_met", True, "no SLO configured (skipped)")
    else:
        report.check(
            "slo_met",
            result.slo_violations == 0,
            f"violations={result.slo_violations} "
            f"worst_epoch={result.worst_epoch_availability:.4f} target={slo}",
        )
    audit = audit_continuous_result(result, mode="fast", subject="chaos-campaign")
    report.check(
        "audit_clean",
        audit.ok,
        "; ".join(str(v) for v in audit.violations) or
        f"checks={','.join(audit.checks)}",
    )


def _write_report(workdir: Path, report: CampaignReport) -> None:
    from repro.runner.artifacts import atomic_write_text

    atomic_write_text(
        workdir / "report.json", json.dumps(report.to_dict(), indent=2)
    )
