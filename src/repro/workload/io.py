"""Trace serialization (JSON-compatible dicts).

Column-oriented encoding: one list per request field rather than one
object per request.  Times are written at full precision (the shortest
text that reads back as the same float), so a saved trace reloads bit for
bit: same demand intervals, same content digest, same cache keys.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ValidationError
from repro.workload.trace import Trace

_FORMAT_VERSION = 1


def trace_to_dict(trace: Trace) -> dict:
    """A JSON-serializable, column-oriented representation of a trace."""
    times, nodes, objects, writes = trace.columns
    return {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "duration_s": trace.duration_s,
        "num_nodes": trace.num_nodes,
        "num_objects": trace.num_objects,
        "times": times.tolist(),
        "nodes": nodes.tolist(),
        "objects": objects.tolist(),
        "writes": writes.astype(np.int64).tolist(),
    }


def trace_from_dict(data: dict) -> Trace:
    """Rebuild a trace from :func:`trace_to_dict` output.

    Raises :class:`~repro.errors.ValidationError` on empty traces,
    non-positive durations/dimensions, NaN/±inf request times, times at or
    past ``duration_s``, or out-of-range node/object ids: a NaN timestamp
    lands the request in no demand interval at all, silently shrinking
    request counts downstream.
    """
    version = data.get("version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version: {version}")
    columns = (data["times"], data["nodes"], data["objects"], data["writes"])
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError("trace columns have inconsistent lengths")

    duration_s = float(data["duration_s"])
    num_nodes = int(data["num_nodes"])
    num_objects = int(data["num_objects"])
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValidationError(
            f"trace duration_s = {duration_s!r}: must be finite and positive"
        )
    if num_nodes <= 0 or num_objects <= 0:
        raise ValidationError(
            f"trace covers {num_nodes} node(s) and {num_objects} object(s): "
            "both counts must be positive"
        )
    if not data["times"]:
        raise ValidationError("trace contains no requests")

    times, nodes, objects, writes = (
        np.asarray(column, dtype=dtype)
        for column, dtype in zip(columns, (np.float64, np.int64, np.int64, np.bool_))
    )
    bad = (
        ~((times >= 0) & (times < duration_s))
        | (nodes < 0) | (nodes >= num_nodes)
        | (objects < 0) | (objects >= num_objects)
    )
    if bad.any():
        # Name the first offending row by its index in the file.
        idx = int(bad.argmax())
        time_s, node, obj = times[idx].item(), nodes[idx].item(), objects[idx].item()
        if not math.isfinite(time_s) or time_s < 0:
            raise ValidationError(
                f"request {idx}: time {time_s!r} is negative or non-finite"
            )
        if time_s >= duration_s:
            raise ValidationError(
                f"request {idx}: time {time_s!r} outside [0, {duration_s!r})"
            )
        if not 0 <= node < num_nodes:
            raise ValidationError(
                f"request {idx}: node {node} outside [0, {num_nodes})"
            )
        raise ValidationError(
            f"request {idx}: object {obj} outside [0, {num_objects})"
        )
    return Trace.from_columns(
        (times, nodes, objects, writes),
        duration_s=duration_s,
        num_nodes=num_nodes,
        num_objects=num_objects,
        name=str(data.get("name", "trace")),
    )


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace from a JSON file."""
    return trace_from_dict(json.loads(Path(path).read_text()))
