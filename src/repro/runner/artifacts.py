"""Run-directory artifacts.

Every runner invocation can persist what it did under
``<root>/<timestamp>-<digest>/``:

* ``manifest.json`` — run metadata, the task list (label, cache key, status,
  cached or executed, attempts, seconds) and the cache-hit counters the
  acceptance checks read;
* ``tasks/NNN-<key12>.json`` — each task's full result payload (the same
  encoding the cache uses), or the structured ``failure`` record for a task
  that exhausted every recovery path;
* ``timing.txt`` — a human-readable per-task timing summary.

Tasks are *planned* before execution (status ``pending``) and updated to
``ok`` or ``failed`` as they finish; the manifest is flushed incrementally
(compact JSON; :meth:`RunWriter.finalize` writes it indented) so a run that
crashes mid-sweep still leaves a resumable record behind
(:class:`~repro.runner.resume.ResumeState` re-executes only the non-``ok``
rows).

The digest in the directory name is the digest of the run's task keys, so
identical experiments land in recognizably-related directories while repeat
runs still get fresh timestamped homes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.digest import SCHEMA_VERSION, digest_of

#: A task's encoded result: the ``task.encode`` dict, or that dict already
#: serialized to JSON text (the scheduler serializes each payload once and
#: hands the same text to the cache and the run artifact).
Payload = Union[Dict[str, Any], str]


def envelope_json(fields: Dict[str, Any], payload: Payload) -> str:
    """``json.dumps({**fields, "payload": payload})`` for non-empty ``fields``,
    with a payload already in JSON text spliced in as is."""
    if not isinstance(payload, str):
        payload = json.dumps(payload)
    return f'{json.dumps(fields)[:-1]}, "payload": {payload}}}'


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via mkstemp + ``os.replace``.

    The manifest is rewritten after every task; a crash (or a ``kill -9``)
    mid-flush must never leave a torn ``manifest.json`` behind — readers
    (``--resume``, ``repro audit``, the service checkpoint recovery) always
    see either the previous complete snapshot or the new one.
    :meth:`repro.runner.cache.ResultCache.store` writes through it too.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class TaskRecord:
    """One task's row in the manifest."""

    index: int
    kind: str
    label: str
    key: str
    cached: bool
    seconds: float
    status: str = "ok"
    attempts: int = 0
    error: str = ""
    file: Optional[str] = None
    #: Serialized AuditReport for this task (None when auditing was off).
    audit: Optional[Dict[str, Any]] = None
    #: Task-described metadata (class, goal level, ...) for post-hoc audits.
    meta: Optional[Dict[str, Any]] = None


@dataclass
class RunWriter:
    """Collects task records and writes the run directory incrementally."""

    root: Path
    label: str = ""
    records: List[TaskRecord] = field(default_factory=list)
    _dir: Optional[Path] = None
    _started: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def run_dir(self) -> Optional[Path]:
        return self._dir

    def _ensure_dir(self) -> Path:
        if self._dir is None:
            stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(self._started))
            run_key = digest_of(self.label, [r.key for r in self.records])[:12]
            path = self.root / f"{stamp}-{run_key}"
            suffix = 0
            while path.exists():
                suffix += 1
                path = self.root / f"{stamp}-{run_key}.{suffix}"
            path.mkdir(parents=True)
            (path / "tasks").mkdir()
            self._dir = path
        return self._dir

    def plan(self, entries: Sequence[Tuple[str, str, str]]) -> List[int]:
        """Register a batch of pending tasks; returns their record indices.

        ``entries`` is ``[(kind, label, key), ...]`` in task order.  Planned
        rows appear in the manifest with status ``pending`` immediately, so a
        crash before (or during) execution leaves a resumable record.
        """
        indices: List[int] = []
        for kind, label, key in entries:
            rec = TaskRecord(
                index=len(self.records),
                kind=kind,
                label=label or f"{kind}-{len(self.records)}",
                key=key,
                cached=False,
                seconds=0.0,
                status="pending",
            )
            self.records.append(rec)
            indices.append(rec.index)
        self._flush_manifest()
        return indices

    def record(
        self,
        *,
        kind: str,
        label: str,
        key: str,
        cached: bool,
        seconds: float,
        index: Optional[int] = None,
        status: str = "ok",
        attempts: int = 0,
        error: str = "",
        payload: Optional[Payload] = None,
        failure: Optional[Dict[str, Any]] = None,
        audit: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Finalize one task's row (updating its planned entry when given)."""
        if index is not None:
            rec = self.records[index]
            rec.kind, rec.label, rec.key = kind, label or rec.label, key
        else:
            rec = TaskRecord(
                index=len(self.records),
                kind=kind,
                label=label or f"{kind}-{len(self.records)}",
                key=key,
                cached=cached,
                seconds=seconds,
            )
            self.records.append(rec)
        rec.cached = cached
        rec.seconds = seconds
        rec.status = status
        rec.attempts = attempts
        rec.error = error
        rec.audit = audit
        rec.meta = meta
        body: Optional[str] = None
        if failure is not None:
            body = json.dumps({"kind": kind, "key": key, "failure": failure})
        elif payload is not None:
            body = envelope_json({"kind": kind, "key": key}, payload)
        if body is not None:
            run_dir = self._ensure_dir()
            rec.file = f"tasks/{rec.index:03d}-{key[:12]}.json"
            atomic_write_text(run_dir / rec.file, body)
        self._flush_manifest()

    def manifest(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        hits = sum(1 for r in self.records if r.cached)
        by_status = {"ok": 0, "failed": 0, "pending": 0}
        for r in self.records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        data: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "created": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.localtime(self._started)
            ),
            "tasks": len(self.records),
            "cache_hits": hits,
            "cache_misses": len(self.records) - hits,
            "executed": len(self.records) - hits,
            "ok": by_status["ok"],
            "failed": by_status["failed"],
            "pending": by_status["pending"],
            "seconds": sum(r.seconds for r in self.records),
            "wall_seconds": time.time() - self._started,
            "task_records": [vars(r) for r in self.records],
        }
        # Audit violations are first-class manifest rows, not crashes: the
        # acceptance gates read them here without re-opening payload files.
        audit_violations: List[Dict[str, Any]] = []
        audited = 0
        for r in self.records:
            if r.audit is None:
                continue
            audited += 1
            for violation in r.audit.get("violations", []):
                audit_violations.append({"label": r.label, **violation})
        data["audited"] = audited
        data["audit_failed"] = len(
            {v["label"] for v in audit_violations}
        )
        data["audit_violations"] = audit_violations
        # Availability aggregates: simulate/continuous tasks attach a digest
        # under meta["availability"] (see ExperimentRunner._record); roll it
        # up here so fault-injection sweeps surface unavailability and SLO
        # verdicts without payload spelunking.
        digests = [
            r.meta["availability"]
            for r in self.records
            if r.meta is not None and "availability" in r.meta
        ]
        if digests:
            data["availability"] = {
                "tasks": len(digests),
                "unavailable_reads": sum(
                    int(d.get("unavailable_reads", 0)) for d in digests
                ),
                "min_availability": min(
                    float(d.get("availability", 1.0)) for d in digests
                ),
                "slo_violations": sum(
                    int(d.get("slo_violations", 0)) for d in digests
                ),
                "slo_judged": sum(
                    1 for d in digests if d.get("slo_target") is not None
                ),
            }
        if extra:
            data.update(extra)
        return data

    def _flush_manifest(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the current manifest snapshot (called per record).

        Compact on purpose: the snapshot grows with every task, so the
        flushes' total cost grows quadratically with the task count, and
        any ``indent`` would run that through ``json``'s pure-Python
        encoder instead of the C one.  Only :meth:`finalize`, which runs
        once, writes the indented form.
        """
        run_dir = self._ensure_dir()
        atomic_write_text(run_dir / "manifest.json", json.dumps(self.manifest(extra)))

    def finalize(self, extra: Optional[Dict[str, Any]] = None) -> Path:
        """Write the final ``manifest.json`` and ``timing.txt``; return the run dir."""
        run_dir = self._ensure_dir()
        manifest = self.manifest(extra)
        atomic_write_text(run_dir / "manifest.json", json.dumps(manifest, indent=2))

        width = max([len(r.label) for r in self.records], default=5)
        lines = [
            f"run {run_dir.name}  label={self.label or '-'}  "
            f"tasks={manifest['tasks']}  cache_hits={manifest['cache_hits']}  "
            f"executed={manifest['executed']}  failed={manifest['failed']}",
            f"{'task'.ljust(width)}  {'source':8s}  {'seconds':>8s}",
        ]
        for r in self.records:
            if r.cached:
                source = "cache"
            elif r.status == "failed":
                source = "failed"
            elif r.status == "pending":
                source = "pending"
            else:
                source = "solve"
            lines.append(f"{r.label.ljust(width)}  {source:8s}  {r.seconds:8.3f}")
        lines.append(
            f"{'total'.ljust(width)}  {'':8s}  {manifest['seconds']:8.3f}"
            f"  (wall {manifest['wall_seconds']:.3f}s)"
        )
        atomic_write_text(run_dir / "timing.txt", "\n".join(lines) + "\n")
        return run_dir
