"""Resumable runs: reuse a previous run directory's completed results.

A run directory (:class:`~repro.runner.artifacts.RunWriter`) records one row
per task — ``status`` ``ok`` / ``failed`` / ``pending`` — and one payload
file per completed task.  :class:`ResumeState` reads that directory back and
serves the ``ok`` payloads by content digest, so a resumed sweep re-executes
*only* the failed and pending tasks: a crash (or a batch full of
:class:`~repro.runner.resilience.TaskFailure` records) costs exactly the
incomplete work.

The task rows come from ``manifest.json`` when the run finished, and from
its ``records.jsonl`` when it did not: the writer appends each row as it
changes, so a run that died mid-sweep still resumes (a torn last line is
ignored; see :func:`~repro.runner.artifacts.read_task_records`).  A row's
line commits its task: a task file whose planned row never turned ``ok``
is not served.  Without any readable rows the payload files alone are
enough — any task file carrying a result payload counts as ``ok`` (failed
tasks store a ``failure`` record instead, never a payload).

Because tasks are matched by content digest, resuming is safe across CLI
invocations with edited flags: a task whose inputs changed simply misses and
re-executes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.runner.artifacts import read_task_records


class ResumeState:
    """Completed results of a previous run directory, keyed by content digest."""

    def __init__(self, run_dir: os.PathLike | str):
        self.run_dir = Path(run_dir)
        if not self.run_dir.is_dir():
            raise FileNotFoundError(f"resume directory not found: {self.run_dir}")
        self._payloads: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._seconds: Dict[str, float] = {}
        self._status: Dict[str, str] = {}

        try:
            records = read_task_records(self.run_dir) or []
        except (OSError, ValueError):
            records = []  # corrupt rows: the payload files alone decide
        for rec in records:
            key = rec.get("key")
            if not key:
                continue
            # Pre-resilience manifests had no status; every recorded row
            # was a completed result, so default to "ok".
            status = rec.get("status", "ok")
            self._status[key] = status
            if status == "ok":
                self._seconds[key] = float(rec.get("seconds", 0.0))

        tasks_dir = self.run_dir / "tasks"
        if tasks_dir.is_dir():
            for path in sorted(tasks_dir.glob("*.json")):
                try:
                    entry = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue
                key = entry.get("key")
                payload = entry.get("payload")
                if not key or not isinstance(payload, dict):
                    continue
                if self._status.get(key, "ok") != "ok":
                    continue
                self._payloads[(key, str(entry.get("kind", "")))] = payload

    def load(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The prior run's payload for ``(key, kind)``, or None."""
        return self._payloads.get((key, kind))

    def seconds(self, key: str) -> float:
        """The original compute time recorded for ``key`` (0.0 if unknown)."""
        return self._seconds.get(key, 0.0)

    def counts(self) -> Dict[str, int]:
        """Status histogram of the prior run (ok / failed / pending)."""
        out = {"ok": 0, "failed": 0, "pending": 0}
        for status in self._status.values():
            out[status] = out.get(status, 0) + 1
        # Payload files without a task row still resume as ok.
        unlisted = sum(
            1 for key, _kind in self._payloads if key not in self._status
        )
        out["ok"] += unlisted
        return out

    def __len__(self) -> int:
        return len(self._payloads)

    def __repr__(self) -> str:
        return f"ResumeState({str(self.run_dir)!r}, ok_payloads={len(self)})"
