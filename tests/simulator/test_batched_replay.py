"""The period-batched replay equals the per-request loop, to the byte.

A heuristic that does not override ``on_access`` is replayed a period at
a time (one gather per period).  Subclassing it with a no-op
``on_access`` forces the per-request loop on the same inputs; the two
results must encode to the same JSON and count the same serves and
cache repairs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.greedy_global import GreedyGlobalPlacement
from repro.heuristics.prefetch import CooperativePrefetchCaching, PrefetchCaching
from repro.heuristics.qiu import QiuGreedyPlacement
from repro.heuristics.random_placement import RandomPlacement
from repro.perf import PERF
from repro.simulator.engine import Simulator, acts_on_access, period_boundaries
from repro.topology.generators import as_level_topology
from tests.conftest import make_trace

DURATION_S = 1000.0
NUM_NODES = 6
NUM_OBJECTS = 5
#: 250 divides the duration; 300 and 333.3 do not; 0.1 accumulates error.
PERIODS = [0.1, 250.0, 300.0, 333.3]
COUNTERS = ("sim.serve.fast", "sim.serve.scan", "sim.cache.repair")
KINDS = ["greedy-global", "qiu", "random", "prefetch", "coop-prefetch"]


def per_request(cls):
    """``cls`` forced onto the per-request loop by a no-op ``on_access``."""
    return type(f"Loop{cls.__name__}", (cls,), {"on_access": lambda self, r, s, c: None})


def build(kind, size, period, window, clairvoyant, place_inactive, seed, force_loop):
    if kind == "greedy-global":
        cls, kwargs = GreedyGlobalPlacement, dict(
            tlat_ms=150.0, clairvoyant=clairvoyant, history_window=window
        )
    elif kind == "qiu":
        cls, kwargs = QiuGreedyPlacement, dict(
            tlat_ms=150.0, clairvoyant=clairvoyant, place_inactive=place_inactive,
            history_window=window,
        )
    elif kind == "random":
        cls, kwargs = RandomPlacement, dict(reshuffle=place_inactive, seed=seed)
    elif kind == "prefetch":
        cls, kwargs = PrefetchCaching, {}
    else:
        cls, kwargs = CooperativePrefetchCaching, dict(tlat_ms=150.0)
    if force_loop:
        cls = per_request(cls)
    return cls(size, period_s=period, **kwargs)


@st.composite
def replay_cases(draw):
    period = draw(st.sampled_from(PERIODS))
    # At most ~50 periods of requests, so a short period stays cheap.
    horizon = min(DURATION_S, 50 * period) - 1e-6
    boundaries = period_boundaries(period, np.array([horizon]))
    count = draw(st.integers(min_value=0, max_value=50))
    requests = []
    for _ in range(count):
        if draw(st.booleans()):
            # Exactly at a boundary: served after that boundary fires.
            time_s = draw(st.sampled_from(boundaries))
        else:
            time_s = draw(st.floats(min_value=0.0, max_value=horizon))
        requests.append(
            (
                time_s,
                draw(st.integers(0, NUM_NODES - 1)),
                draw(st.integers(0, NUM_OBJECTS - 1)),
                draw(st.integers(0, 4)) == 0,
            )
        )
    assignment = None
    if draw(st.booleans()):
        assignment = np.array(
            draw(st.lists(st.integers(0, NUM_NODES - 1), min_size=NUM_NODES, max_size=NUM_NODES))
        )
    initial = None
    if draw(st.booleans()):
        initial = draw(
            st.lists(
                st.tuples(st.integers(0, NUM_NODES - 1), st.integers(0, NUM_OBJECTS - 1)),
                max_size=6,
            )
        )
    return {
        "requests": requests,
        "kind": draw(st.sampled_from(KINDS)),
        "size": draw(st.integers(0, 3)),
        "period": period,
        "window": draw(st.sampled_from([None, 1, 2])),
        "clairvoyant": draw(st.booleans()),
        "place_inactive": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
        "delta": draw(st.sampled_from([0.0, 0.1])),
        "warmup": draw(st.sampled_from([0.0, 100.0, 300.0])),
        "assignment": assignment,
        "initial": initial,
    }


def replay(case, force_loop):
    heuristic = build(
        case["kind"], case["size"], case["period"], case["window"],
        case["clairvoyant"], case["place_inactive"], case["seed"], force_loop,
    )
    assert acts_on_access(heuristic) is force_loop
    topo = as_level_topology(num_nodes=NUM_NODES, seed=1)
    trace = make_trace(
        case["requests"], duration_s=DURATION_S, num_nodes=NUM_NODES, num_objects=NUM_OBJECTS
    )
    before = {name: PERF.get(name) for name in COUNTERS}
    result = Simulator(
        topo, trace, heuristic, tlat_ms=150.0, delta=case["delta"], warmup_s=case["warmup"],
        cost_interval_s=100.0, assignment=case["assignment"],
        initial_placement=case["initial"],
    ).run()
    counts = {name: PERF.get(name) - before[name] for name in COUNTERS}
    return json.dumps(result.to_dict()), counts


@settings(max_examples=150, deadline=None)
@given(replay_cases())
def test_batched_replay_equals_the_per_request_loop(case):
    batched, batched_counts = replay(case, force_loop=False)
    looped, looped_counts = replay(case, force_loop=True)
    assert batched == looped
    assert batched_counts == looped_counts
    assert batched_counts["sim.serve.scan"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_empty_trace_replays_alike(kind):
    case = {
        "requests": [], "kind": kind, "size": 2, "period": 250.0, "window": None,
        "clairvoyant": False, "place_inactive": True, "seed": 0, "delta": 0.1,
        "warmup": 0.0, "assignment": None, "initial": [(1, 0), (2, 3)],
    }
    batched, _ = replay(case, force_loop=False)
    looped, _ = replay(case, force_loop=True)
    assert batched == looped
    assert json.loads(batched)["reads"] == 0
