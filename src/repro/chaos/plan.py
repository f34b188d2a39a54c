"""The chaos-plan grammar and its per-layer routing.

One spec string — semicolon-separated ``kind:key=value,…`` clauses, with
``kind=value`` shorthand for the clause's primary parameter — parses once
into a :class:`ChaosPlan` and routes each clause to the layer that injects
it.  It is the only fault-spec grammar: ``repro chaos`` takes clauses of
every layer, ``REPRO_CHAOS`` (:mod:`repro.runner.resilience`) only
runner-scheduler clauses, and ``REPRO_SERVICE_CHAOS`` / ``repro serve
--chaos`` (:mod:`repro.service.chaos`) only service and checkpoint clauses
(``parse_plan(spec, layers=…)``):

==================  =========================================================
layer               clauses
==================  =========================================================
runner scheduler    ``crash:p=<prob>[,seed=<n>]`` — probabilistic
                    :class:`~repro.runner.resilience.ChaosError` per task
                    attempt.
service front-end   ``drop:p=…``, ``slow:p=…[,ms=…]`` (optionally windowed
                    with ``epochs=a-b``), ``crash:epoch=<n>`` (die
                    mid-epoch), ``crash:checkpoint=<n>`` (die between
                    journal append and snapshot).
checkpoint store    ``corrupt_checkpoint:at=<n>[,mode=tail|snapshot]`` —
                    garble the just-written journal record (torn append)
                    or the snapshot file.
fault schedule      every :func:`repro.faults.spec.parse_faults` clause —
                    ``zoneout:…``, ``zonepart:…``, ``poisson:…``,
                    ``outage:…``, ``crash:node=…`` (the ``node=`` key is
                    what routes a ``crash`` clause here), …
workload emulator   every :func:`repro.workload.emulate.parse_emulation`
                    clause — ``flashcrowd:…``, ``diurnal:…``, ``burst:…``,
                    ``writes:…``, ``clock_skew:ms=…``.
==================  =========================================================

Every probabilistic draw is a SHA-256 of ``(seed, site, counter)``, so a
fixed-seed plan injects the same faults every run.  Parsing failures raise
:class:`~repro.errors.ValidationError` naming the offending clause.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError

#: Clause kinds owned by the workload emulator (see repro.workload.emulate).
WORKLOAD_KINDS = ("flashcrowd", "diurnal", "burst", "writes", "clock_skew")

#: Clause kinds owned by the topology fault layer (repro.faults.spec).
#: ``crash`` is deliberately absent: a ``crash`` clause routes here only
#: when it carries a ``node=`` key (see :func:`parse_plan`).
FAULT_KINDS = (
    "poisson",
    "flaky",
    "degrade",
    "outage",
    "loss",
    "lossrate",
    "zoneout",
    "zonepart",
)


def chaos_draw(seed: int, site: str, counter) -> float:
    """The shared deterministic injection draw in ``[0, 1)``.

    Every injector draws through here, which makes "same seed → same
    faults" a property of the engine, not a convention.
    """
    token = f"{seed}:{site}:{counter}".encode()
    return int.from_bytes(hashlib.sha256(token).digest()[:4], "big") / 2**32


@dataclass(frozen=True)
class TaskChaos:
    """Runner-scheduler injector: probabilistic per-attempt task failures."""

    fail: float = 0.0
    seed: int = 0

    def should_fail(self, identity: str, attempt: int) -> bool:
        if self.fail <= 0.0:
            return False
        return chaos_draw(self.seed, identity, attempt) < self.fail


def _bad(clause: str, why: str = "") -> ValidationError:
    detail = f": {why}" if why else ""
    return ValidationError(f"bad chaos clause {clause!r}{detail}")


def _parse_window(raw: str, clause: str) -> Tuple[int, int]:
    """``a-b`` (inclusive) or a single epoch ``a`` → ``(a, b)``."""
    lo, sep, hi = raw.partition("-")
    try:
        start = int(lo)
        end = int(hi) if sep else start
    except ValueError:
        raise _bad(clause, f"epochs window {raw!r} is not 'a-b'") from None
    if start < 0 or end < start:
        raise _bad(clause, f"epochs window {raw!r} must satisfy 0 <= a <= b")
    return start, end


def _parse_float(params: Dict[str, str], key: str, clause: str) -> float:
    raw = params.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise _bad(clause, f"{key}={raw!r} is not a number") from None


def _parse_int(params: Dict[str, str], key: str, clause: str) -> int:
    raw = params.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise _bad(clause, f"{key}={raw!r} is not an integer") from None


def _split_params(body: str, clause: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise _bad(clause, f"malformed key=value pair {item!r}")
        params[key.strip().lower()] = value.strip()
    return params


@dataclass(frozen=True)
class ChaosPlan:
    """One parsed campaign plan, routable to every injection layer.

    The layer accessors are cheap projections; a plan with no clauses for
    a layer projects to ``None`` there, so callers can thread one plan
    everywhere and let each layer ignore what is not addressed to it.
    """

    #: The clauses verbatim, for reports and round-tripping.
    clauses: Tuple[str, ...] = ()
    #: Runner-scheduler injection (``crash:p=…``).
    task_fail: float = 0.0
    task_seed: int = 0
    #: Service front-end injection.
    drop: float = 0.0
    drop_window: Optional[Tuple[int, int]] = None
    slow: float = 0.0
    slow_ms: float = 100.0
    slow_window: Optional[Tuple[int, int]] = None
    crash_at_epoch: int = -1
    crash_checkpoint_at: int = -1
    service_seed: int = 0
    #: Checkpoint-store injection.
    corrupt_at: int = -1
    corrupt_mode: str = "tail"
    #: Verbatim clause strings for the fault-schedule layer.
    fault_clauses: Tuple[str, ...] = ()
    #: Verbatim clause strings for the workload emulator.
    workload_clauses: Tuple[str, ...] = ()

    # -- layer projections ---------------------------------------------------

    def task_chaos(self) -> Optional[TaskChaos]:
        """The runner-scheduler injector, or None when unaddressed."""
        if self.task_fail <= 0.0:
            return None
        return TaskChaos(fail=self.task_fail, seed=self.task_seed)

    def service_chaos(self):
        """The service front-end injector, or None when unaddressed.

        Imported lazily: the runner layer parses plans without dragging
        the service stack in.
        """
        if not self.has_service_clauses():
            return None
        from repro.service.chaos import ServiceChaos

        return ServiceChaos(
            drop=self.drop,
            slow=self.slow,
            slow_ms=self.slow_ms,
            crash_at_epoch=self.crash_at_epoch,
            crash_checkpoint_at=self.crash_checkpoint_at,
            corrupt_checkpoint_at=self.corrupt_at,
            corrupt_mode=self.corrupt_mode,
            drop_window=self.drop_window,
            slow_window=self.slow_window,
            seed=self.service_seed,
        )

    def has_service_clauses(self) -> bool:
        return (
            self.drop > 0.0
            or self.slow > 0.0
            or self.crash_at_epoch >= 0
            or self.crash_checkpoint_at >= 0
            or self.corrupt_at >= 0
        )

    def fault_spec(self) -> Optional[str]:
        """The topology-fault clauses as a ``--faults`` spec string."""
        return ";".join(self.fault_clauses) or None

    def workload_spec(self) -> Optional[str]:
        """The emulator clauses as a ``repro.workload.emulate`` spec string."""
        return ";".join(self.workload_clauses) or None

    def service_spec(self) -> Optional[str]:
        """The service/checkpoint clauses as a plan string for ``--chaos``."""
        kept = [c for c in self.clauses if _clause_layer(c) in ("service", "checkpoint")]
        return ";".join(kept) or None

    def without_one_shots(self) -> "ChaosPlan":
        """The plan minus its one-shot faults (crashes, corruption).

        A supervised restart replays the epoch the crash interrupted; with
        the deterministic crash clause still armed it would die at the same
        spot forever.  One-shot faults fire once per campaign — restarts
        carry only the probabilistic clauses.
        """
        kept = tuple(
            c for c in self.clauses
            if _clause_layer(c) != "checkpoint" and not _is_crash_clause(c)
        )
        return parse_plan(";".join(kept)) if kept else ChaosPlan()

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary for campaign reports."""
        return {
            "clauses": list(self.clauses),
            "task": {"fail": self.task_fail, "seed": self.task_seed},
            "service": {
                "drop": self.drop,
                "slow": self.slow,
                "slow_ms": self.slow_ms,
                "crash_at_epoch": self.crash_at_epoch,
                "crash_checkpoint_at": self.crash_checkpoint_at,
                "corrupt_at": self.corrupt_at,
                "corrupt_mode": self.corrupt_mode,
                "seed": self.service_seed,
            },
            "faults": self.fault_spec(),
            "workload": self.workload_spec(),
        }


def _clause_layer(clause: str) -> str:
    kind, _, body = clause.partition(":")
    kind = kind.strip().lower()
    if kind in WORKLOAD_KINDS:
        return "workload"
    if kind == "corrupt_checkpoint":
        return "checkpoint"
    if kind in FAULT_KINDS:
        return "faults"
    if kind == "crash" and "node=" in body.replace(" ", ""):
        return "faults"
    if kind in ("crash", "drop", "slow"):
        return "service" if kind != "crash" or "p=" not in body.replace(" ", "") else "task"
    raise _bad(clause, "unknown clause kind")


def _is_crash_clause(clause: str) -> bool:
    """True for the one-shot daemon crashes (epoch=/checkpoint= targeted)."""
    kind, _, body = clause.partition(":")
    if kind.strip().lower() != "crash":
        return False
    body = body.replace(" ", "")
    return "epoch=" in body or "checkpoint=" in body


#: ``kind=value`` shorthand → the clause's primary parameter.
_SHORTHAND_KEY = {
    "crash": "p",
    "drop": "p",
    "slow": "p",
    "flashcrowd": "mult",
    "diurnal": "amp",
    "burst": "mult",
    "writes": "fraction",
    "clock_skew": "ms",
    "corrupt_checkpoint": "at",
}


def _normalize_clause(raw: str) -> str:
    """Expand ``kind=value`` shorthand into ``kind:primary=value``."""
    clause = raw.strip()
    if ":" in clause:
        return clause
    kind, sep, value = clause.partition("=")
    kind = kind.strip().lower()
    if not sep:
        raise _bad(raw, "expected 'kind:key=value,…' or 'kind=value'")
    try:
        primary = _SHORTHAND_KEY[kind]
    except KeyError:
        raise _bad(raw, "unknown clause kind") from None
    return f"{kind}:{primary}={value.strip()}"


def parse_plan(spec: str, layers: Optional[Tuple[str, ...]] = None) -> ChaosPlan:
    """Parse a chaos-plan spec string into a :class:`ChaosPlan`.

    ``layers`` restricts the plan to clauses of those layers (``"task"``,
    ``"service"``, ``"checkpoint"``, ``"faults"``, ``"workload"``), for
    entry points that can inject only some of them; a clause of any other
    layer is refused rather than silently dropped.

    Raises :class:`~repro.errors.ValidationError` naming the offending
    clause on any grammar error; an empty spec is an error too (an empty
    *plan* is spelled by not passing one).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValidationError("empty chaos plan")
    clauses: List[str] = []
    fields: Dict[str, object] = {}
    fault_clauses: List[str] = []
    workload_clauses: List[str] = []
    for raw in spec.split(";"):
        if not raw.strip():
            continue
        clause = _normalize_clause(raw)
        clauses.append(clause)
        layer = _clause_layer(clause)
        if layers is not None and layer not in layers:
            raise _bad(
                clause,
                f"not a {layers[0]}-layer clause; 'repro chaos' runs "
                "plans for every layer",
            )
        if layer == "workload":
            # Validated by the emulator's own parser at materialize time;
            # validate eagerly here so a bad plan fails at parse, not mid-run.
            from repro.workload.emulate import parse_emulation

            try:
                parse_emulation(clause)
            except ValidationError:
                raise
            except Exception as exc:
                raise _bad(clause, str(exc)) from None
            workload_clauses.append(clause)
            continue
        if layer == "faults":
            # Grammar-checked by parse_faults at materialize time (it needs
            # the topology); here only the kind routing was checked.
            fault_clauses.append(clause)
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        params = _split_params(body, clause)
        if layer == "checkpoint":
            fields["corrupt_at"] = _parse_int(params, "at", clause)
            mode = params.pop("mode", "tail")
            if mode not in ("tail", "snapshot"):
                raise _bad(clause, "mode must be 'tail' or 'snapshot'")
            fields["corrupt_mode"] = mode
        elif kind == "crash":
            if "p" in params:
                fail = _parse_float(params, "p", clause)
                if not 0.0 <= fail <= 1.0:
                    raise _bad(clause, "p must be in [0, 1]")
                fields["task_fail"] = fail
                if "seed" in params:
                    fields["task_seed"] = _parse_int(params, "seed", clause)
            elif "epoch" in params:
                fields["crash_at_epoch"] = _parse_int(params, "epoch", clause)
            elif "checkpoint" in params:
                fields["crash_checkpoint_at"] = _parse_int(params, "checkpoint", clause)
            else:
                raise _bad(
                    clause,
                    "crash needs p= (task failures), epoch=/checkpoint= "
                    "(daemon crash) or node= (topology fault)",
                )
        elif kind in ("drop", "slow"):
            p = _parse_float(params, "p", clause) if "p" in params else None
            if p is None:
                raise _bad(clause, "missing required key 'p'")
            if not 0.0 <= p <= 1.0:
                raise _bad(clause, "p must be in [0, 1]")
            fields[kind] = p
            if kind == "slow" and "ms" in params:
                fields["slow_ms"] = _parse_float(params, "ms", clause)
            if "epochs" in params:
                fields[f"{kind}_window"] = _parse_window(params.pop("epochs"), clause)
            if "seed" in params:
                fields["service_seed"] = _parse_int(params, "seed", clause)
        if params:
            raise _bad(clause, f"unknown keys {sorted(params)}")
    if not clauses:
        raise ValidationError("empty chaos plan")
    return ChaosPlan(
        clauses=tuple(clauses),
        fault_clauses=tuple(fault_clauses),
        workload_clauses=tuple(workload_clauses),
        **fields,
    )
