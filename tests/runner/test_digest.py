"""The content digest must be stable, canonical and collision-sensitive."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.goals import GoalScope, QoSGoal
from repro.core.properties import HeuristicProperties
from repro.runner.digest import digest_of, short_digest
from repro.workload.trace import Request, Trace


def test_digest_is_deterministic():
    assert digest_of("x", 1, 2.5) == digest_of("x", 1, 2.5)


def test_digest_discriminates_values_and_types():
    assert digest_of(1) != digest_of(2)
    assert digest_of(1) != digest_of(1.0)
    assert digest_of("1") != digest_of(1)
    assert digest_of(None) != digest_of(0)
    assert digest_of(True) != digest_of(1)


def test_digest_of_ndarray_covers_dtype_shape_and_data():
    a = np.arange(6, dtype=np.float64)
    assert digest_of(a) == digest_of(a.copy())
    assert digest_of(a) != digest_of(a.astype(np.float32))
    assert digest_of(a) != digest_of(a.reshape(2, 3))
    b = a.copy()
    b[0] = 42.0
    assert digest_of(a) != digest_of(b)


def test_digest_of_dict_is_order_insensitive():
    assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})


def test_digest_of_dataclass_uses_field_values():
    goal = QoSGoal(tlat_ms=150.0, fraction=0.95, scope=GoalScope.PER_USER)
    same = QoSGoal(tlat_ms=150.0, fraction=0.95, scope=GoalScope.PER_USER)
    other = dataclasses.replace(goal, fraction=0.99)
    assert digest_of(goal) == digest_of(same)
    assert digest_of(goal) != digest_of(other)


def test_digest_of_properties_discriminates_enums():
    base = HeuristicProperties()
    reactive = dataclasses.replace(base, reactive=True)
    assert digest_of(base) != digest_of(reactive)


def test_digest_rejects_unhashable_types():
    with pytest.raises(TypeError):
        digest_of(object())


def _digest_in_worker(payload):
    return digest_of(payload)


def test_digest_is_stable_across_processes():
    """Cache keys computed by workers must match the parent's keys."""
    payload = {
        "goal": QoSGoal(tlat_ms=150.0, fraction=0.99),
        "demand": np.arange(12, dtype=np.float64).reshape(3, 4),
        "flags": (True, None, "scipy"),
    }
    local = digest_of(payload)
    with ProcessPoolExecutor(max_workers=1) as pool:
        remote = pool.submit(_digest_in_worker, payload).result()
    assert local == remote


def test_short_digest_prefixes_full_digest():
    full = digest_of("abc")
    assert full.startswith(short_digest("abc"))
    assert len(short_digest("abc")) == 12


def _trace(requests):
    return Trace(requests=requests, duration_s=100.0, num_nodes=4, num_objects=3)


def test_digest_of_trace_covers_every_request_column():
    base = [Request(1.0, 0, 0), Request(2.0, 1, 1), Request(3.0, 2, 2, True)]
    assert digest_of(_trace(base)) == digest_of(_trace(list(base)))
    variants = [
        [Request(1.5, 0, 0), *base[1:]],  # time
        [Request(1.0, 3, 0), *base[1:]],  # node
        [Request(1.0, 0, 2), *base[1:]],  # object
        [Request(1.0, 0, 0, True), *base[1:]],  # write flag
    ]
    digests = {digest_of(_trace(v)) for v in variants} | {digest_of(_trace(base))}
    assert len(digests) == len(variants) + 1


def test_digest_of_trace_is_order_sensitive():
    # Same timestamps, same (node, object) pairs: only which request holds
    # which timestamp differs, so the columns differ only in order.
    trace = _trace([Request(1.0, 0, 0), Request(2.0, 1, 1)])
    swapped = _trace([Request(1.0, 1, 1), Request(2.0, 0, 0)])
    assert digest_of(trace) != digest_of(swapped)


# -- a trace digests from its cached columns ----------------------------------


def _request_walk_digest(trace):
    """The per-request digest walk: each column rebuilt from the request
    records, in trace order.  The records are a view of the columns, so
    the literal pins in ``tests/workload/test_trace_pins.py`` anchor the
    bytes themselves."""
    import hashlib

    from repro.runner.digest import SCHEMA_VERSION, _walk

    h = hashlib.sha256()
    h.update(b"repro-digest/v" + SCHEMA_VERSION.encode())
    h.update(b"\x00R")
    for item in (trace.name, trace.duration_s, trace.num_nodes, trace.num_objects):
        _walk(h, item)
    reqs, count = trace.requests, len(trace.requests)
    _walk(h, np.fromiter((r.time_s for r in reqs), dtype=np.float64, count=count))
    _walk(h, np.fromiter((r.node for r in reqs), dtype=np.int64, count=count))
    _walk(h, np.fromiter((r.obj for r in reqs), dtype=np.int64, count=count))
    _walk(h, np.fromiter((r.is_write for r in reqs), dtype=np.bool_, count=count))
    return h.hexdigest()


def _built_traces():
    from repro.workload.generators import flash_crowd_workload, web_workload
    from repro.workload.io import trace_from_dict, trace_to_dict

    base = _trace([Request(3.5, 2, 1), Request(1.25, 0, 0, True), Request(2.0, 1, 2)])
    web = web_workload(num_nodes=5, num_objects=12, requests_scale=0.002, seed=3)
    return {
        "constructor": base,
        "empty": _trace([]),
        "filter": web.filter(lambda r: r.node != 2),
        "remap_nodes": web.remap_nodes({0: 4, 3: 1}, num_nodes=6),
        "concat": Trace.concat([base, web], name="both"),
        "merge": Trace.merge([base, web]),
        "trace_from_dict": trace_from_dict(trace_to_dict(web)),
        "flash_crowd_workload": flash_crowd_workload(
            num_nodes=4, num_objects=10, base_scale=0.002, seed=5
        ),
    }


@pytest.mark.parametrize("built", sorted(_built_traces()))
def test_trace_digest_matches_the_request_walk(built):
    trace = _built_traces()[built]
    assert digest_of(trace) == _request_walk_digest(trace)


def test_trace_digest_never_builds_the_request_view():
    from repro.perf import PERF
    from repro.workload.generators import web_workload

    trace = web_workload(num_nodes=5, num_objects=12, requests_scale=0.002, seed=3)
    before = PERF.get("trace.requests.materialized")
    digests = {digest_of(trace) for _ in range(5)}
    assert len(digests) == 1
    assert "requests" not in trace.__dict__
    assert PERF.get("trace.requests.materialized") == before
    assert trace.columns is trace.columns


def test_pickled_trace_keeps_read_only_columns():
    import pickle

    trace = _trace([Request(1.0, 0, 0), Request(2.0, 1, 1, True)])
    before = digest_of(trace)
    copy = pickle.loads(pickle.dumps(trace))
    assert "requests" not in copy.__dict__
    assert digest_of(copy) == before
    assert not any(column.flags.writeable for column in copy.columns)
