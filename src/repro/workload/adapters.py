"""Adapters for importing real access logs as traces.

Users with production logs (the paper used WorldCup98 web-server logs) can
feed them to the method through these parsers:

* :func:`trace_from_csv` — ``time,node,object[,op]`` rows with arbitrary
  node/object labels (mapped to dense ids).
* :func:`trace_from_jsonl` — one JSON object per line with configurable
  field names.
* :func:`relabel` helpers are exposed so callers can recover the
  label-to-id mappings for reporting.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.workload.trace import Trace


@dataclass
class ImportedTrace:
    """A parsed trace plus the label mappings used to densify ids."""

    trace: Trace
    node_ids: Dict[str, int] = field(default_factory=dict)
    object_ids: Dict[str, int] = field(default_factory=dict)

    def node_label(self, node: int) -> str:
        for label, idx in self.node_ids.items():
            if idx == node:
                return label
        raise KeyError(node)

    def object_label(self, obj: int) -> str:
        for label, idx in self.object_ids.items():
            if idx == obj:
                return label
        raise KeyError(obj)


class _Densifier:
    """Assigns dense integer ids to labels in first-seen order."""

    def __init__(self) -> None:
        self.mapping: Dict[str, int] = {}

    def __call__(self, label: str) -> int:
        label = str(label)
        if label not in self.mapping:
            self.mapping[label] = len(self.mapping)
        return self.mapping[label]


_WRITE_OPS = {"write", "put", "post", "update", "w"}


def _build(
    rows: Iterable[Tuple[float, str, str, Optional[str]]],
    duration_s: Optional[float],
    name: str,
) -> ImportedTrace:
    nodes = _Densifier()
    objects = _Densifier()
    columns: Tuple[List[float], List[int], List[int], List[bool]] = ([], [], [], [])
    max_time = 0.0
    for time_s, node, obj, op in rows:
        t = float(time_s)
        if t < 0:
            raise ValueError(f"negative timestamp: {t}")
        if not t < math.inf:
            raise ValueError(f"request time must be finite and non-negative, got {t}")
        max_time = max(max_time, t)
        columns[0].append(t)
        columns[1].append(nodes(node))
        columns[2].append(objects(obj))
        columns[3].append(bool(op) and str(op).strip().lower() in _WRITE_OPS)
    if not columns[0]:
        raise ValueError("no requests parsed")
    extent = duration_s if duration_s is not None else max_time + 1.0
    trace = Trace.from_columns(
        columns,
        duration_s=extent,
        num_nodes=len(nodes.mapping),
        num_objects=len(objects.mapping),
        name=name,
    )
    return ImportedTrace(trace=trace, node_ids=nodes.mapping, object_ids=objects.mapping)


def trace_from_csv(
    source: Union[str, Path, io.TextIOBase],
    duration_s: Optional[float] = None,
    has_header: bool = True,
    name: str = "imported-csv",
) -> ImportedTrace:
    """Parse ``time,node,object[,op]`` CSV rows into a trace.

    ``op`` values like ``write``/``put``/``update`` mark writes; anything
    else (or a missing column) is a read.  Node and object labels may be any
    strings; they are densified in first-seen order.
    """
    if isinstance(source, (str, Path)):
        handle: io.TextIOBase = open(source, newline="")
        close = True
    else:
        handle, close = source, False
    try:
        reader = csv.reader(handle)
        rows = []
        for lineno, row in enumerate(reader):
            if not row or (lineno == 0 and has_header):
                continue
            if len(row) < 3:
                raise ValueError(f"CSV row {lineno + 1}: need time,node,object")
            op = row[3] if len(row) > 3 else None
            rows.append((float(row[0]), row[1], row[2], op))
        return _build(rows, duration_s, name)
    finally:
        if close:
            handle.close()


def trace_from_jsonl(
    source: Union[str, Path, io.TextIOBase],
    time_field: str = "time",
    node_field: str = "node",
    object_field: str = "object",
    op_field: Optional[str] = "op",
    duration_s: Optional[float] = None,
    name: str = "imported-jsonl",
) -> ImportedTrace:
    """Parse newline-delimited JSON records into a trace."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    rows = []
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        try:
            time_s = record[time_field]
            node = record[node_field]
            obj = record[object_field]
        except KeyError as exc:
            raise ValueError(f"JSONL line {lineno + 1}: missing field {exc}") from None
        op = record.get(op_field) if op_field else None
        rows.append((float(time_s), node, obj, op))
    return _build(rows, duration_s, name)
