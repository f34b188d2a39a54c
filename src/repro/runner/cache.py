"""Content-addressed on-disk result cache.

Each task result is stored as one JSON file under
``<root>/<key[:2]>/<key>.json`` where ``key`` is the task's content digest
(:mod:`repro.runner.digest`).  Because the key covers the problem, the class
properties, the goal level and the solve flags, a warm cache serves repeat
sweeps without a single LP solve, and editing one heuristic class invalidates
only that class's entries.

Entries carry the producing task ``kind`` and the schema version; mismatches
and unreadable files are treated as misses (and overwritten on the next
``put``), so the cache is always safe to delete or share.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runner.artifacts import Payload, atomic_write_text, envelope_json
from repro.runner.digest import SCHEMA_VERSION


class ResultCache:
    """A directory of content-addressed task results."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load_entry(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The full stored entry for ``key`` (payload + original solve
        ``seconds``), or None on miss/corruption."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if entry.get("schema") != SCHEMA_VERSION or entry.get("kind") != kind:
            return None
        if not isinstance(entry.get("payload"), dict):
            return None
        return entry

    def load(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None on miss/corruption."""
        entry = self.load_entry(key, kind)
        return None if entry is None else entry["payload"]

    def store(self, key: str, kind: str, payload: Payload, seconds: float) -> None:
        """Persist a result atomically (write-to-temp + rename).

        ``payload`` is the task's encoded result, or its JSON text.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = {"schema": SCHEMA_VERSION, "kind": kind, "key": key, "seconds": seconds}
        atomic_write_text(path, envelope_json(fields, payload))

    def quarantine(self, key: str) -> bool:
        """Move a suspect entry aside as ``<key>.json.quarantined``.

        Called when a cache-hit audit flags the stored payload (bit rot, a
        hand-edited file, a stale digest).  The entry stops being served —
        the next load is a miss and the re-solved result overwrites it — but
        the bytes are preserved next to the cache for inspection.  Returns
        False when the entry was already gone.
        """
        path = self._path(key)
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
        except OSError:
            return False
        return True

    def stats(self) -> Dict[str, Any]:
        """Aggregate view of the cache: entry count, bytes on disk, entries
        per task kind, and the total solve seconds the entries saved."""
        entries = 0
        total_bytes = 0
        kinds: Dict[str, int] = {}
        seconds = 0.0
        for path in sorted(self.root.glob("*/*.json")):
            try:
                entry = json.loads(path.read_text())
                size = path.stat().st_size
            except (OSError, ValueError):
                continue
            entries += 1
            total_bytes += size
            kind = str(entry.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
            try:
                seconds += float(entry.get("seconds", 0.0) or 0.0)
            except (TypeError, ValueError):
                pass
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "seconds": seconds,
            "kinds": kinds,
        }

    def clear(self) -> int:
        """Delete every entry (and empty shard directory); returns the count."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (stray files) — leave it
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
