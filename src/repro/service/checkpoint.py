"""Crash-consistent persistence for the placement daemon's epoch state.

The daemon checkpoints at epoch boundaries only — ``ContinuousState`` is
the entire inter-epoch carry, and the per-epoch inputs (drifted traces,
fault slices) are deterministic in the task's seeds — so recovery is:
restore the newest durable state, replay the interrupted epoch, converge
byte-identically with the uninterrupted run.

Two files under the state directory make that durable:

``journal.jsonl``
    A write-ahead journal: one JSON record per completed epoch, appended
    with an fsync before the daemon considers the epoch durable.  A crash
    mid-append leaves at most one torn *tail* line, which recovery skips.

``snapshot.json``
    A full-state snapshot rewritten every ``snapshot_every`` epochs via
    the mkstemp + ``os.replace`` idiom (same as
    :class:`repro.runner.cache.ResultCache`), after which the journal is
    truncated.  This bounds both journal growth and recovery time without
    ever leaving a window where neither file holds the newest state: the
    snapshot is durable *before* the journal shrinks.

Every record embeds the owning task's content digest
(:meth:`~repro.runner.tasks.ContinuousTask.cache_key`).  Recovery refuses
state written by a different configuration — resuming epoch 5 of someone
else's run is strictly worse than failing loudly.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.runner.artifacts import scan_jsonl
from repro.simulator.continuous import ContinuousState

#: Bumped when the record layout changes; recovery skips alien schemas.
SCHEMA_VERSION = 1

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"


class CheckpointMismatchError(RuntimeError):
    """The state directory holds checkpoints from a different task config."""


class CheckpointStore:
    """Journal + snapshot persistence for one daemon's ``ContinuousState``."""

    def __init__(self, root: Path, task_digest: str, snapshot_every: int = 4):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.task_digest = task_digest
        self.snapshot_every = snapshot_every
        self.journal_path = self.root / JOURNAL_NAME
        self.snapshot_path = self.root / SNAPSHOT_NAME

    # -- write path ----------------------------------------------------------

    def _encode(self, state: ContinuousState) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "task": self.task_digest,
            "index": state.index,
            "state": state.to_dict(),
        }

    def append(self, state: ContinuousState) -> None:
        """Journal one completed epoch; durable (fsynced) before returning."""
        line = json.dumps(self._encode(state), sort_keys=True)
        with open(self.journal_path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def snapshot(self, state: ContinuousState) -> None:
        """Atomically rewrite the snapshot, then truncate the journal.

        Order matters: the snapshot must be durable before the journal
        shrinks, or a crash between the two would lose the newest state.
        """
        payload = json.dumps(self._encode(state), sort_keys=True, indent=2)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with open(self.journal_path, "w") as fh:
            fh.flush()
            os.fsync(fh.fileno())

    def checkpoint(self, state: ContinuousState) -> str:
        """Persist one epoch boundary: always journal, snapshot on schedule.

        Returns ``"journal"`` or ``"snapshot"`` for observability.
        """
        self.append(state)
        if state.index % self.snapshot_every == 0:
            self.snapshot(state)
            return "snapshot"
        return "journal"

    # -- fault injection (chaos campaigns) -----------------------------------

    def corrupt_tail(self) -> bool:
        """Tear the newest journal record in place; True if bytes changed.

        Cuts the final record roughly in half with no trailing newline —
        the shape a crash mid-append (or a disk that lied about the fsync)
        actually leaves behind.  Recovery must stop at the torn line and
        replay from the last intact state.
        """
        try:
            data = self.journal_path.read_bytes()
        except (OSError, FileNotFoundError):
            return False
        stripped = data.rstrip(b"\n")
        if not stripped:
            return False
        start = stripped.rfind(b"\n") + 1
        last = stripped[start:]
        torn = stripped[:start] + last[: max(1, len(last) // 2)]
        with open(self.journal_path, "wb") as fh:
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
        return True

    def corrupt_snapshot(self) -> bool:
        """Garble the snapshot file in place; True if bytes changed.

        Models bit-rot discovered at read time: the file exists but no
        longer parses, so recovery must fall back to the journal.
        """
        try:
            data = self.snapshot_path.read_bytes()
        except (OSError, FileNotFoundError):
            return False
        garbled = b"\x00corrupt\x00" + data[: len(data) // 2]
        with open(self.snapshot_path, "wb") as fh:
            fh.write(garbled)
            fh.flush()
            os.fsync(fh.fileno())
        return True

    # -- read path -----------------------------------------------------------

    def _decode(self, payload: Dict[str, object], where: str) -> Optional[ContinuousState]:
        if payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("task") != self.task_digest:
            raise CheckpointMismatchError(
                f"{where} was written by task {str(payload.get('task'))[:12]!r}, "
                f"this daemon runs {self.task_digest[:12]!r} — refusing to resume "
                "someone else's run (move or remove the state directory)"
            )
        return ContinuousState.from_dict(payload["state"])

    def _scan_journal(self) -> tuple:
        """Parse the journal; returns ``(states, intact_byte_length)``.

        ``intact_byte_length`` is where the durable prefix ends — the
        offset past the last newline-terminated, parseable record.  A torn
        tail from a crash mid-append sits beyond it; everything durable
        precedes it, so scanning stops there rather than guessing.
        """
        states: List[ContinuousState] = []
        try:
            raw = self.journal_path.read_bytes()
        except (OSError, FileNotFoundError):
            return states, 0
        intact = 0
        try:
            for payload, end in scan_jsonl(raw):
                try:
                    state = self._decode(payload, where=str(self.journal_path))
                except CheckpointMismatchError:
                    raise
                except Exception:
                    break
                if state is not None:
                    states.append(state)
                intact = end
        except ValueError:
            pass  # an unparseable line ends the durable prefix too
        return states, intact

    def _repair_journal(self, intact: int) -> None:
        """Truncate the journal to its durable prefix.

        Run at recovery time, before the daemon appends anything: a torn
        tail left in place would otherwise merge with the next append into
        one unparseable line, silently orphaning every record after it
        until a snapshot truncates the file.
        """
        try:
            size = os.path.getsize(self.journal_path)
        except OSError:
            return
        if intact >= size:
            return
        with open(self.journal_path, "rb+") as fh:
            fh.truncate(intact)
            fh.flush()
            os.fsync(fh.fileno())

    def _snapshot_state(self) -> Optional[ContinuousState]:
        try:
            payload = json.loads(self.snapshot_path.read_text())
        except (OSError, FileNotFoundError, json.JSONDecodeError):
            # A torn snapshot can only mean a crash before os.replace —
            # the journal still carries the truth.
            return None
        try:
            return self._decode(payload, where=str(self.snapshot_path))
        except CheckpointMismatchError:
            raise
        except Exception:
            return None

    def recover(self) -> Optional[ContinuousState]:
        """The newest durable state, or None for a cold start.

        Takes whichever of snapshot / journal reaches the higher epoch
        index — after a crash between journal append and snapshot rewrite
        the journal is ahead; after a clean snapshot the (truncated)
        journal is behind.  Also repairs the journal in place: a torn tail
        is truncated away so subsequent appends start on a clean line.
        """
        candidates, intact = self._scan_journal()
        self._repair_journal(intact)
        snap = self._snapshot_state()
        if snap is not None:
            candidates.append(snap)
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.index)

    def status(self) -> Dict[str, object]:
        """JSON-safe snapshot for ``/stats`` and ``repro serve`` logs."""
        journal_records = 0
        if self.journal_path.exists():
            journal_records = sum(
                1 for line in self.journal_path.read_text().splitlines() if line.strip()
            )
        return {
            "root": str(self.root),
            "task": self.task_digest,
            "snapshot_every": self.snapshot_every,
            "journal_records": journal_records,
            "has_snapshot": self.snapshot_path.exists(),
        }
