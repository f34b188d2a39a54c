"""Stable content digests for experiment inputs.

The runner's cache is *content-addressed*: a task's cache key is a SHA-256
digest of everything its result depends on — the problem (topology latencies,
demand counts, goal, costs, restrictions), the heuristic-class properties and
the solve/rounding flags.  Re-running a sweep after editing one class
re-solves only that class because only its tasks' digests change.

Digests are computed by a canonical recursive walk, not ``pickle``, so they
are stable across Python versions and process boundaries:

* floats hash by ``repr`` (shortest round-trip representation);
* numpy arrays hash by dtype + shape + raw bytes;
* dataclasses hash field-by-field in sorted field order;
* a :class:`~repro.workload.trace.Trace` hashes its name, extent and
  universe sizes, then its four request columns (time, node, object,
  write flag) from :attr:`~repro.workload.trace.Trace.columns`, the
  arrays the immutable trace is stored as;
* enums hash by their value; dicts by sorted key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

import numpy as np

from repro.workload.trace import Trace

#: Bump when the canonical encoding (or result schema) changes incompatibly,
#: so stale cache entries from older code are never decoded.  "3": arrays
#: are stored as compressed binary (:func:`repro.serialize.array_to_jsonable`).
SCHEMA_VERSION = "3"


def _walk(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one object into the hash with unambiguous type framing."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00B" + (b"1" if obj else b"0"))
    elif isinstance(obj, int):
        h.update(b"\x00I" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00F" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"\x00S" + obj.encode("utf-8") + b"\x00")
    elif isinstance(obj, bytes):
        h.update(b"\x00Y" + obj + b"\x00")
    elif isinstance(obj, enum.Enum):
        h.update(b"\x00E")
        _walk(h, obj.value)
    elif isinstance(obj, np.ndarray):
        h.update(b"\x00A" + str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _walk(h, obj.item())
    elif isinstance(obj, Trace):
        h.update(b"\x00R")
        for item in (obj.name, obj.duration_s, obj.num_nodes, obj.num_objects):
            _walk(h, item)
        for column in obj.columns:
            _walk(h, column)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00D" + type(obj).__name__.encode())
        for f in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            h.update(f.name.encode() + b"=")
            _walk(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00L" + str(len(obj)).encode())
        for item in obj:
            _walk(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00M" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _walk(h, key)
            _walk(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        h.update(b"\x00T")
        _walk(h, sorted(obj, key=repr))
    else:
        raise TypeError(f"cannot digest object of type {type(obj).__name__}: {obj!r}")


def digest_of(*objects: Any) -> str:
    """Hex SHA-256 digest of the canonical encoding of ``objects``."""
    h = hashlib.sha256()
    h.update(b"repro-digest/v" + SCHEMA_VERSION.encode())
    for obj in objects:
        _walk(h, obj)
    return h.hexdigest()


def short_digest(*objects: Any, length: int = 12) -> str:
    """Truncated :func:`digest_of`, for directory and label names."""
    return digest_of(*objects)[:length]
