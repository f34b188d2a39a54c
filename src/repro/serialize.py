"""JSON-serialization helpers shared by the result types.

The experiment-runner layer (:mod:`repro.runner`) persists results to disk —
the content-addressed cache and the per-run artifact directories — so the
result dataclasses (:class:`~repro.core.bounds.LowerBoundResult`,
:class:`~repro.analysis.sweep.SweepResult`,
:class:`~repro.lp.solution.LPSolution`,
:class:`~repro.simulator.engine.SimulationResult`) carry ``to_dict`` /
``from_dict`` round-trips.  This module holds the two conversions they all
need: numpy arrays and the heterogeneous goal-scope keys
(ints, strings and tuples like ``("k", 3)``) that JSON cannot express as
dictionary keys.

Arrays travel as compressed binary, not as JSON number lists: a rounded
placement is a dense 0/1 float array that a number list spells out at
~5 bytes per entry, written to the cache and again to the run artifact.
"""

from __future__ import annotations

import base64
import binascii
import zlib
from typing import Any, Dict, List, Optional

import numpy as np


def array_to_jsonable(arr: Optional[np.ndarray]) -> Optional[Dict[str, Any]]:
    """Encode an ndarray as ``{"dtype", "shape", "zlib"}`` (None passes through).

    ``zlib`` is the array's raw bytes in C order and little-endian byte
    order, compressed at level 1 and base64-encoded; ``dtype`` keeps the
    array's own byte order, so :func:`array_from_jsonable` restores it bit
    for bit.
    """
    if arr is None:
        return None
    arr = np.asarray(arr)
    if arr.dtype.hasobject:
        raise TypeError("object arrays have no raw-byte encoding")
    raw = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "zlib": base64.b64encode(zlib.compress(raw, 1)).decode("ascii"),
    }


def array_from_jsonable(payload: Optional[Dict[str, Any]]) -> Optional[np.ndarray]:
    """Decode :func:`array_to_jsonable` output back into a writable ndarray.

    A garbled blob — bad base64, a zlib error, or a byte count that does
    not fill ``shape`` — raises ``ValueError``; callers treat it as a
    corrupt entry.
    """
    if payload is None:
        return None
    dtype = np.dtype(payload["dtype"])
    shape = tuple(int(n) for n in payload["shape"])
    try:
        raw = zlib.decompress(base64.b64decode(payload["zlib"], validate=True))
    except (binascii.Error, zlib.error) as exc:
        raise ValueError(f"corrupt array blob: {exc}") from None
    if len(raw) != dtype.itemsize * int(np.prod(shape)):
        raise ValueError(f"array blob holds {len(raw)} bytes, not a {dtype} array of {shape}")
    return np.frombuffer(raw, dtype=dtype.newbyteorder("<")).reshape(shape).astype(dtype)


def scope_items_to_jsonable(mapping: Dict[object, float]) -> List[List[Any]]:
    """Encode a scope-keyed mapping as ``[key, value]`` pairs.

    Goal-scope keys are ints, the string ``"all"`` or tuples; tuples become
    lists in JSON and are restored by :func:`scope_items_from_jsonable`.
    """
    return [[list(k) if isinstance(k, tuple) else k, float(v)] for k, v in mapping.items()]


def scope_items_from_jsonable(pairs: List[List[Any]]) -> Dict[object, float]:
    """Decode :func:`scope_items_to_jsonable` output (lists back to tuples)."""
    return {tuple(k) if isinstance(k, list) else k: float(v) for k, v in pairs}


def optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def json_key_pairs(mapping: Dict[int, float]) -> Dict[str, float]:
    """Int-keyed mapping to string keys (JSON object keys must be strings)."""
    return {str(k): float(v) for k, v in mapping.items()}


def int_key_pairs(mapping: Dict[str, Any]) -> Dict[int, float]:
    """Inverse of :func:`json_key_pairs`."""
    return {int(k): float(v) for k, v in mapping.items()}
