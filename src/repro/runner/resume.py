"""Resumable runs: reuse a previous run directory's completed results.

A run directory (:class:`~repro.runner.artifacts.RunWriter`) appends one
``records.jsonl`` line per planned task (``pending``) and one per finished
task (``ok`` / ``failed`` / ``interrupted``), the ``ok`` lines carrying the
task's result payload.  :class:`ResumeState` folds that log back by record
index and serves the payloads of the ``ok`` rows by content digest, so a
resumed sweep re-executes *only* the failed and pending tasks: a crash (or
a batch full of :class:`~repro.runner.resilience.TaskFailure` records) costs
exactly the incomplete work.

A task's line commits it: a torn last line (a write the crash cut short)
and any other line that does not parse count for nothing, so their tasks
re-execute.  A run directory whose lines carry no payloads (one written
before payloads moved into the log) resumes as all misses.

Because tasks are matched by content digest, resuming is safe across CLI
invocations with edited flags: a task whose inputs changed simply misses and
re-executes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.runner.artifacts import RECORDS_NAME


class ResumeState:
    """Completed results of a previous run directory, keyed by content digest."""

    def __init__(self, run_dir: os.PathLike | str):
        self.run_dir = Path(run_dir)
        if not self.run_dir.is_dir():
            raise FileNotFoundError(f"resume directory not found: {self.run_dir}")
        self._payloads: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._seconds: Dict[str, float] = {}
        self._status: Dict[str, str] = {}

        log = self.run_dir / RECORDS_NAME
        raw = log.read_bytes() if log.is_file() else b""
        rows: Dict[Any, Dict[str, Any]] = {}
        # What follows the last newline is a torn append: it never committed.
        for line in raw.split(b"\n")[:-1]:
            try:
                row = json.loads(line)
                rows[row["index"]] = row
            except (ValueError, TypeError, KeyError):
                continue
        for row in rows.values():
            key, status = row.get("key"), row.get("status")
            if not key:
                continue
            self._status[key] = status
            if status == "ok":
                self._seconds[key] = float(row.get("seconds", 0.0))
                if isinstance(row.get("payload"), dict):
                    self._payloads[key, str(row.get("kind", ""))] = row["payload"]

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
        return out

    def __len__(self) -> int:
        return len(self._payloads)

    def __repr__(self) -> str:
        return f"ResumeState({str(self.run_dir)!r}, ok_payloads={len(self)})"
