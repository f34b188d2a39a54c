"""Post-hoc auditing of a completed run directory (``repro audit <run-dir>``).

A run directory (:mod:`repro.runner.artifacts`) records one task row per
task, in ``manifest.json`` or, for a run that never finished, folded from
its append-only ``records.jsonl``; each ``ok`` task's payload rides in the
log line that committed it.  This module re-opens those artifacts —
possibly days later, possibly after the cache or the disk has been touched
— and re-derives every certificate that the stored data supports:

* **per-cell** — payloads decode, internal consistency holds (status vs
  feasibility, stored ``feasible_cost`` vs the rounding's cost breakdown,
  rounding-store integrality, achieved QoS vs the cell's goal level), the
  ``rounded >= bound`` gate, and any violations the original run's in-solve
  audit recorded (``stored-audit``);
* **full placement re-verification** — when the caller supplies the original
  topology/workload (``problem_factory``), each bound cell's problem is
  rebuilt from its manifest metadata and the placement is re-certified from
  scratch (creation legality, goal, cost) via
  :func:`~repro.audit.certificates.audit_bound_result`;
* **cross-cell** — within each class, the LP bound must be non-decreasing
  in the QoS level (the feasible region only shrinks as the goal tightens —
  the duality-flavored monotonicity certificate), and every simulated
  heuristic that meets a level's goal must cost at least its class's bound
  at that level (``sim-gate``, the Figures 5-7 invariant).

The command exits nonzero iff any check records a violation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.audit.certificates import (
    HEURISTIC_CLASS,
    allowance,
    audit_bound_result,
    audit_sim_result,
    sim_gate_violation,
)
from repro.audit.report import DEFAULT_EPS, DEFAULT_TOL, AuditReport

#: Relative slack for the simulated-cost >= class-bound gate.  Looser than
#: the certificate tolerance: the simulator prices storage by occupancy
#: sampling while the LP prices it per interval, so tiny discretization
#: drift is expected even on honest data.
DEFAULT_SIM_EPS = 1e-3


def _load_records(run_dir: Path, report: AuditReport, run) -> List[Dict[str, object]]:
    from repro.runner.artifacts import read_task_records

    report.ran("artifact")
    if run is not None:
        records = run[0]
    else:
        try:
            records = read_task_records(run_dir)
        except (OSError, ValueError) as exc:
            report.flag("artifact", str(run_dir), message=f"unreadable task records: {exc}")
            return []
    if records is None:
        report.flag(
            "artifact", str(run_dir),
            message="neither manifest.json nor records.jsonl found",
        )
        return []
    return records


def _decode_payloads(
    run_dir: Path, committed: Dict[object, Dict[str, object]], report: AuditReport, lines
) -> Dict[object, object]:
    """Decode the payload of each ``committed`` row's log line (same index
    and key), or map the row to the decoding exception.  ``lines`` are the
    log's lines already read, or None to scan the log here."""
    from repro.core.bounds import LowerBoundResult
    from repro.runner.artifacts import task_lines
    from repro.simulator.engine import SimulationResult

    decoders = {"bound": LowerBoundResult.from_dict, "simulate": SimulationResult.from_dict}
    decoded: Dict[object, object] = {}
    try:
        for line in task_lines(run_dir) if lines is None else lines:
            rec = committed.get(line["index"])
            if rec is None or line.get("key") != rec.get("key") or "payload" not in line:
                continue
            decode = decoders.get(str(rec.get("kind")), lambda payload: payload)
            try:
                decoded[line["index"]] = decode(line["payload"])
            except Exception as exc:
                decoded[line["index"]] = exc
    except (OSError, ValueError) as exc:
        report.flag("artifact", str(run_dir), message=f"unreadable task records: {exc}")
    return decoded


def _check_stored_audit(rec: Dict[str, object], report: AuditReport) -> None:
    stored = rec.get("audit")
    if not isinstance(stored, dict):
        return
    report.ran("stored-audit")
    label = str(rec.get("label", "?"))
    for violation in stored.get("violations", []):
        report.flag(
            "stored-audit", label,
            amount=float(violation.get("amount", 0.0)),
            message=f"recorded by the original run: "
            f"{violation.get('check')}: {violation.get('message') or violation.get('subject')}",
        )


def _audit_bound_payload(
    result, meta: Dict[str, object], label: str,
    tol: float, eps: float, report: AuditReport,
) -> None:
    """Payload-internal checks that need no topology/workload."""
    report.ran("artifact")
    if result.feasible:
        if result.lp_cost is None or not np.isfinite(result.lp_cost):
            report.flag("artifact", label, message="feasible cell without a finite lp_cost")
            return
        if result.status and result.status != "optimal":
            report.flag(
                "artifact", label,
                message=f"feasible cell with non-optimal status {result.status!r}",
            )
    rounding = result.rounding
    if not result.feasible or rounding is None:
        return

    if result.feasible_cost is not None:
        drift = abs(result.feasible_cost - rounding.total_cost)
        if drift > allowance(tol, rounding.total_cost):
            report.flag(
                "artifact", label, drift,
                message=f"feasible_cost {result.feasible_cost:.9g} != "
                f"rounding cost {rounding.total_cost:.9g}",
            )

    report.ran("placement")
    store = np.asarray(rounding.store, dtype=float)
    fractional = np.nonzero((store > tol) & (store < 1 - tol))
    if len(fractional[0]):
        ns, i, k = (int(x[0]) for x in fractional)
        report.flag(
            "placement", label, float(store[ns, i, k]),
            message=f"fractional store[{ns},{i},{k}]={store[ns, i, k]:.4f} "
            "in a supposedly integral rounding",
        )

    level = meta.get("qos")
    if rounding.feasible and rounding.qos and level is not None:
        achieved = min(float(q) for q in rounding.qos.values())
        if achieved < float(level) - allowance(tol, 1.0):
            report.flag(
                "placement", label, float(level) - achieved,
                message=f"stored per-scope QoS {achieved:.6f} below "
                f"the cell's goal level {float(level):g}",
            )

    if rounding.feasible:
        report.ran("bound-gate")
        shortfall = result.lp_cost - rounding.total_cost
        if shortfall > allowance(eps, result.lp_cost):
            report.flag(
                "bound-gate", label, shortfall,
                message=f"rounded cost {rounding.total_cost:.9g} below "
                f"lower bound {result.lp_cost:.9g}",
            )


def _check_monotonicity(
    bound_cells: List[Tuple[Dict[str, object], object]],
    tol: float,
    report: AuditReport,
) -> None:
    """Within a class, the LP bound is non-decreasing in the QoS level."""
    by_class: Dict[str, List[Tuple[float, str, object]]] = {}
    for meta, result in bound_cells:
        cls = meta.get("class")
        level = meta.get("qos")
        if cls is None or level is None or not result.feasible:
            continue
        if result.lp_cost is None or not np.isfinite(result.lp_cost):
            continue
        by_class.setdefault(str(cls), []).append(
            (float(level), str(meta.get("label", cls)), result)
        )
    for cls, cells in by_class.items():
        if len(cells) < 2:
            continue
        report.ran("monotonicity")
        cells.sort(key=lambda c: c[0])
        for (lo_level, _lo_label, lo), (hi_level, hi_label, hi) in zip(cells, cells[1:]):
            if lo_level == hi_level:
                continue
            drop = lo.lp_cost - hi.lp_cost
            if drop > allowance(tol, lo.lp_cost):
                report.flag(
                    "monotonicity", hi_label, drop,
                    message=f"class {cls}: bound at level {hi_level:g} "
                    f"({hi.lp_cost:.9g}) below bound at easier level "
                    f"{lo_level:g} ({lo.lp_cost:.9g})",
                )


def _check_sim_gates(
    bound_cells: List[Tuple[Dict[str, object], object]],
    sim_cells: List[Tuple[Dict[str, object], object]],
    sim_eps: float,
    report: AuditReport,
) -> None:
    for sim_meta, sim in sim_cells:
        heuristic = str(sim_meta.get("heuristic", ""))
        cls = HEURISTIC_CLASS.get(heuristic)
        if cls is None:
            continue
        for meta, bound in bound_cells:
            if str(meta.get("class")) != cls or not bound.feasible:
                continue
            level = meta.get("qos")
            if level is None or bound.lp_cost is None:
                continue
            # The bound caps only heuristics that actually meet the goal: a
            # heuristic missing the level may legitimately be cheaper.
            if not sim.meets(float(level)):
                continue
            sim_gate_violation(
                report, float(sim.total_cost), float(bound.lp_cost), sim_eps,
                subject=f"{sim_meta.get('label', heuristic)} vs "
                f"{meta.get('label', cls)}@{float(level):g}",
            )


def audit_run_dir(
    run_dir,
    problem_factory: Optional[Callable[[Dict[str, object]], object]] = None,
    mode: str = "full",
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
    sim_eps: float = DEFAULT_SIM_EPS,
    run=None,
) -> AuditReport:
    """Re-verify every cell of a completed run directory.

    ``problem_factory`` (optional) maps a bound cell's manifest ``meta`` to
    its rebuilt :class:`~repro.core.problem.MCPerfProblem`; when provided
    (the CLI builds one from ``-t``/``-w``), each bound cell additionally
    gets the full from-scratch placement re-verification of
    :func:`~repro.audit.certificates.audit_bound_result`.  ``run`` is the
    directory's ``(rows, lines)`` as :func:`~repro.runner.artifacts.read_run`
    read it (the CLI reads it once to check its integrity); None reads the
    directory here.
    """
    run_dir = Path(run_dir)
    report = AuditReport(mode=mode, subject=str(run_dir))
    rows = _load_records(run_dir, report, run)
    records = [rec for rec in rows if rec.get("status") == "ok"]
    committed = {rec.get("index"): rec for rec in records}
    lines = None if run is None else run[1]
    decoded = _decode_payloads(run_dir, committed, report, lines) if committed else {}

    bound_cells: List[Tuple[Dict[str, object], object]] = []
    sim_cells: List[Tuple[Dict[str, object], object]] = []
    for rec in records:
        label = str(rec.get("label", "?"))
        _check_stored_audit(rec, report)
        index = rec.get("index")
        if index not in decoded:
            report.flag("artifact", label, message="ok row without a payload line")
            continue
        result = decoded[index]
        kind = rec.get("kind")
        if isinstance(result, Exception):
            report.flag("artifact", label, message=f"undecodable {kind} payload: {result}")
            continue
        meta = rec.get("meta") if isinstance(rec.get("meta"), dict) else {}
        meta = dict(meta)
        meta.setdefault("label", label)
        if kind == "bound":
            _audit_bound_payload(result, meta, label, tol, eps, report)
            if problem_factory is not None:
                problem = problem_factory(meta)
                if problem is not None:
                    report.merge(
                        audit_bound_result(
                            problem, result.properties, result,
                            mode=mode, tol=tol, eps=eps, subject=label,
                        )
                    )
            bound_cells.append((meta, result))
        elif kind == "simulate":
            report.merge(audit_sim_result(result, mode=mode, tol=tol, subject=label))
            sim_cells.append((meta, result))

    _check_monotonicity(bound_cells, tol, report)
    _check_sim_gates(bound_cells, sim_cells, sim_eps, report)
    return report
