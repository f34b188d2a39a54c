"""Run-directory artifacts.

Every runner invocation can persist what it did under
``<root>/<timestamp>-<digest>/``:

* ``records.jsonl`` — the run's task rows as they happen: one JSON line per
  planned task (status ``pending``) and one per finished task (``ok``,
  ``failed`` or ``interrupted``), appended with one ``write`` per call; a
  finished task's line also carries its ``"payload"`` (the JSON text the
  cache stores, spliced in as is) or its structured ``"failure"`` record;
* ``manifest.json`` — written once, by :meth:`RunWriter.finalize`: run
  metadata, the task rows without payloads (label, cache key, status,
  cached or executed, attempts, seconds) and the cache-hit counters;
* ``timing.txt`` — a human-readable per-task timing summary.

A task's line is its commit point: a run that crashes mid-sweep leaves
``records.jsonl`` (at worst with a torn last line) and no manifest, and
:func:`read_task_records` folds the lines back into the manifest's
``task_records`` (the last line of a record index wins).  Appending costs
one ``write`` per call, where a file per task costs a create each.

The digest in the directory name is the digest of the run's task keys, so
identical experiments land in recognizably-related directories while repeat
runs still get fresh timestamped homes.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.runner.digest import SCHEMA_VERSION, digest_of

#: A task's encoded result: the ``task.encode`` dict, or that dict already
#: serialized to JSON text (the scheduler serializes each payload once and
#: hands the same text to the cache and the run artifact).
Payload = Union[Dict[str, Any], str]

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


def scan_jsonl(raw: Union[bytes, BinaryIO]) -> Iterator[Tuple[Any, int]]:
    """Parse the durable prefix of an append-only JSON-lines log, given as
    bytes or as a binary file (read a line at a time).

    Yields ``(record, end)`` for each newline-terminated, non-blank line,
    ``end`` being the byte offset just past its newline.  Writers end every
    record with a newline in the same ``write``, so an unterminated last
    line is an append a crash cut short: it never became durable and the
    scan stops before it.  A terminated line that does not parse raises
    :class:`ValueError`; whether that ends the durable prefix (the
    service's checkpoint journal) or corrupts the log (a run's
    ``records.jsonl``) is the caller's call.
    """
    pos = 0
    for line in io.BytesIO(raw) if isinstance(raw, bytes) else raw:
        if not line.endswith(b"\n"):
            return
        if line.strip():
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"unparseable line at byte {pos}: {exc}") from None
            yield record, pos + len(line)
        pos += len(line)


def task_lines(run_dir: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """A run's ``records.jsonl`` rows as written, payloads included, up to a
    torn last line (none without a log); :class:`ValueError` names the file
    at a line before the tail that is not a task row."""
    path = Path(run_dir) / RECORDS_NAME
    try:
        log = open(path, "rb")
    except FileNotFoundError:
        return
    with log:
        try:
            for row, end in scan_jsonl(log):
                if not isinstance(row, dict) or type(row.get("index")) is not int:
                    raise ValueError(f"line ending at byte {end} is not a task row")
                yield row
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_task_records(run_dir: Union[str, os.PathLike]) -> Optional[List[Dict[str, Any]]]:
    """A run directory's task rows, or None when it has neither record file.

    ``manifest.json`` wins when present.  Without one (the run never reached
    :meth:`RunWriter.finalize`), the :func:`task_lines` are folded by record
    index, the last line of an index winning, without their payloads.
    Raises :class:`ValueError` naming the file when the manifest does not
    parse or holds no list of rows, or when the log is corrupt.
    """
    run_dir = Path(run_dir)
    rows = _manifest_rows(run_dir)
    if rows is not None or not (run_dir / RECORDS_NAME).is_file():
        return rows
    return _fold(task_lines(run_dir))


def read_run(
    run_dir: Union[str, os.PathLike],
) -> Tuple[Optional[List[Dict[str, Any]]], List[Dict[str, Any]]]:
    """A run directory's task rows and its log's lines, payloads included,
    from one scan of ``records.jsonl``.

    The rows are :func:`read_task_records`'s and the lines
    :func:`task_lines`'s; a corrupt manifest or log raises
    :class:`ValueError` naming the file, as they do.
    """
    run_dir = Path(run_dir)
    rows = _manifest_rows(run_dir)
    lines = list(task_lines(run_dir))
    if rows is None and (run_dir / RECORDS_NAME).is_file():
        rows = _fold(lines)
    return rows, lines


def _manifest_rows(run_dir: Path) -> Optional[List[Dict[str, Any]]]:
    """The manifest's ``task_records``, or None without a manifest."""
    manifest = run_dir / MANIFEST_NAME
    if not manifest.is_file():
        return None
    try:
        data = json.loads(manifest.read_text())
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from None
    records = data.get("task_records") if isinstance(data, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError(f"{manifest}: no task_records list of rows")
    return records


def _fold(lines: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Log lines folded by record index, the last line of an index winning,
    without their payloads or failures (the lines are left as they are)."""
    last: Dict[int, Dict[str, Any]] = {}
    for line in lines:
        last[line["index"]] = line
    return [
        {key: value for key, value in last[i].items() if key not in ("payload", "failure")}
        for i in sorted(last)
    ]


def envelope_json(fields: Dict[str, Any], payload: Payload) -> str:
    """``json.dumps({**fields, "payload": payload})`` for non-empty ``fields``,
    with a payload already in JSON text spliced in as is."""
    if not isinstance(payload, str):
        payload = json.dumps(payload)
    return f'{json.dumps(fields)[:-1]}, "payload": {payload}}}'


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via mkstemp + ``os.replace``.

    A crash (or a ``kill -9``) mid-write must never leave a torn manifest
    or cache entry behind: readers (``repro audit``, warm runs) see either
    no file or a complete one.  The final ``manifest.json`` and
    ``timing.txt`` go through it, and so does
    :meth:`repro.runner.cache.ResultCache.store`.
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


def manifest_text(manifest: Dict[str, Any]) -> str:
    """``manifest`` as JSON with one line per top-level key and per task row.

    ``json.dumps(indent=...)`` runs through ``json``'s pure-Python encoder;
    encoding each line compactly keeps the whole manifest in the C one.
    """
    lines = []
    for key, value in manifest.items():
        if key == "task_records" and value:
            text = "[\n" + ",\n".join(f"    {json.dumps(r)}" for r in value) + "\n  ]"
        else:
            text = json.dumps(value)
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}"


@dataclass
class TaskRecord:
    """One task's row in ``records.jsonl`` and the manifest."""

    index: int
    kind: str
    label: str
    key: str
    cached: bool
    seconds: float
    status: str = "ok"
    attempts: int = 0
    error: str = ""
    #: Serialized AuditReport for this task (None when auditing was off).
    audit: Optional[Dict[str, Any]] = None
    #: Task-described metadata (class, goal level, ...) for post-hoc audits.
    meta: Optional[Dict[str, Any]] = None


@dataclass
class RunWriter:
    """Collects task records, appends them to ``records.jsonl`` as they
    change and writes the manifest once, at :meth:`finalize`."""

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
            self._dir = path
        return self._dir

    def plan(self, entries: Sequence[Tuple[str, str, str]]) -> List[int]:
        """Register a batch of pending tasks; returns their record indices.

        ``entries`` is ``[(kind, label, key), ...]`` in task order.  Planned
        rows are appended with status ``pending`` immediately, so a crash
        before (or during) execution leaves a resumable record.
        """
        start = len(self.records)
        for kind, label, key in entries:
            self.records.append(TaskRecord(
                index=len(self.records),
                kind=kind,
                label=label or f"{kind}-{len(self.records)}",
                key=key,
                cached=False,
                seconds=0.0,
                status="pending",
            ))
        self._append(json.dumps(vars(r)) for r in self.records[start:])
        return list(range(start, len(self.records)))

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
        """Finalize one task's row (updating its planned entry when given).

        The row's line carries the task's ``payload`` (or ``failure``) and
        commits the task.
        """
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
        if failure is not None:
            line = json.dumps({**vars(rec), "failure": failure})
        elif payload is not None:
            line = envelope_json(vars(rec), payload)
        else:
            line = json.dumps(vars(rec))
        self._append([line])

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
        # acceptance gates read them here without decoding payloads.
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

    def _append(self, lines: Iterable[str]) -> None:
        """Append ``lines`` to ``records.jsonl``, newline-terminated, in one write."""
        text = "".join(line + "\n" for line in lines)
        if text:
            with open(self._ensure_dir() / RECORDS_NAME, "a") as fh:
                fh.write(text)

    def finalize(self, extra: Optional[Dict[str, Any]] = None) -> Path:
        """Write the final ``manifest.json`` and ``timing.txt``; return the run dir."""
        run_dir = self._ensure_dir()
        manifest = self.manifest(extra)
        atomic_write_text(run_dir / MANIFEST_NAME, manifest_text(manifest))

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
