"""Literal content digests of every trace builder at fixed seeds.

Each pin is the SHA-256 :func:`~repro.runner.digest.digest_of` of a
builder's output: its name, extent, universe sizes and the four request
columns in trace order.  Every cache key hangs off these bytes, so a
change to how a trace is built, sorted or stored must leave them alone.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.runner.digest import digest_of
from repro.workload.adapters import trace_from_csv, trace_from_jsonl
from repro.workload.drift import drifting_traces, epoch_slices
from repro.workload.emulate import emulated_traces
from repro.workload.generators import flash_crowd_workload, group_workload, web_workload
from repro.workload.io import trace_from_dict, trace_to_dict
from repro.workload.trace import Trace


def _web():
    return web_workload(num_nodes=6, num_objects=30, requests_scale=0.01, seed=3)


def _flash():
    return flash_crowd_workload(num_nodes=4, num_objects=10, base_scale=0.002, seed=5)


def _log_rows():
    """60 labelled log rows: (time, node label, object label, op)."""
    rng = np.random.default_rng(5)
    return [
        (float(t), f"site-{n}", f"/obj/{o}", "put" if w else "get")
        for t, n, o, w in zip(
            rng.uniform(0, 500, 60).round(3),
            rng.integers(0, 5, 60),
            rng.integers(0, 9, 60),
            rng.random(60) < 0.2,
        )
    ]


def _csv():
    lines = ["time,node,object,op", *(f"{t},{n},{o},{op}" for t, n, o, op in _log_rows())]
    return trace_from_csv(io.StringIO("\n".join(lines) + "\n")).trace


def _jsonl():
    lines = [
        json.dumps({"time": t, "node": n, "object": o, "op": op}) for t, n, o, op in _log_rows()
    ]
    return trace_from_jsonl(io.StringIO("\n".join(lines))).trace


BUILDERS = {
    "web_workload": (
        _web, 1953, "a07a2d98367304e39e759b6896fc17638220926ad68f3dc85ae91784da8fb011"
    ),
    "web_workload_diurnal": (
        lambda: web_workload(
            num_nodes=5, num_objects=20, populations=[1, 2, 3, 4, 5],
            requests_scale=0.01, seed=4, diurnal=True,
        ),
        1347,
        "4cdd75b6472e9070cac8b51c168c7389744928b8256e666b5ad9df56880db066",
    ),
    "group_workload": (
        lambda: group_workload(num_nodes=5, num_objects=12, requests_scale=0.002, seed=2),
        517,
        "5d292c0e9bc455ac7f0a074b25cd65a8105cec2853a85db433e0676436c27dbd",
    ),
    "flash_crowd_workload": (
        _flash, 1140, "b9700d3136ea6a6ea5b71eb9f5dde46b02e07ff4cf94764eca20537b4a7c5adb"
    ),
    "emulated_traces": (
        lambda: emulated_traces(
            4, 6, epochs=3, epoch_s=1800.0, requests_per_epoch=80, seed=7,
            spec="burst:epochs=0-1,nodes=1+2,mult=5;writes:fraction=0.3;clock_skew:ms=500,seed=3",
        ),
        240,
        "1927efa6075706db1d3235a3bbf80f2ff9bd025c83f6d7da39a4b1b21efd84e5",
    ),
    "drifting_traces": (
        lambda: drifting_traces(
            5, 8, epochs=3, epoch_s=900.0, requests_per_epoch=60, drift=0.5,
            write_fraction=0.1, seed=4,
        ),
        183,
        "c62cb53a2d98680bc3fa3fbd85f1e1b402e09eee88122d7d80ef82c6230586e9",
    ),
    "epoch_slices": (
        lambda: epoch_slices(_web(), 7_000.0),
        1953,
        "da27f661929b01969d349edbee454bf7cbff5675fda398a769db1df817558cd5",
    ),
    "trace_from_dict": (
        lambda: trace_from_dict(trace_to_dict(_web())),
        1953,
        "a07a2d98367304e39e759b6896fc17638220926ad68f3dc85ae91784da8fb011",
    ),
    "trace_from_csv": (
        _csv, 60, "ca1ad450d6facfe30664361c15075d26b6320e6633f3053e33b624911cb970cd"
    ),
    "trace_from_jsonl": (
        _jsonl, 60, "43671d14b08c5170dd5ad2426047c8afe12e38f01cf9add4d1cff4bcb36b1932"
    ),
    "filter": (
        lambda: _web().filter(lambda r: r.node != 2),
        1659,
        "3a2878235168389cf7a31ffc5cb85f0c7f191dc30a5c48da20990627d71d49f4",
    ),
    "remap_nodes": (
        lambda: _web().remap_nodes({0: 4, 3: 1, 5: 6}, num_nodes=7),
        1953,
        "9d5f31af906b65565e25d090b382a8dd79a5109d8a46a370f6d93528110227af",
    ),
    "concat": (
        lambda: Trace.concat([_web(), _flash()], name="both"),
        3093,
        "b502dbd437012ea1c7bf12c8e0e67380fa8323389d337edab1afa1941ab8280b",
    ),
    "merge": (
        lambda: Trace.merge([
            _web(),
            drifting_traces(5, 8, epochs=1, epoch_s=900.0, requests_per_epoch=60, seed=4)[0],
        ]),
        2014,
        "77febecc69efdd5adc97f77f59aa8773265c9a365a11cdaad57df3383b88c956",
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builder_digest_is_pinned(builder):
    build, requests, digest = BUILDERS[builder]
    built = build()
    traces = built if isinstance(built, list) else [built]
    assert sum(len(t) for t in traces) == requests
    assert digest_of(built) == digest
