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
    trace = _trace([Request(1.0, 0, 0), Request(2.0, 1, 1)])
    swapped = _trace(list(trace.requests))
    # Trace sorts on construction; swap afterwards so the columns differ
    # only in order.
    swapped.requests.reverse()
    assert digest_of(trace) != digest_of(swapped)
