"""Tests for workload characterization and inter-arrival statistics."""

import math

import numpy as np
import pytest

from repro.workload.stats import (
    characterize,
    fit_zipf_exponent,
    min_interarrival,
    object_counts,
)
from tests.conftest import make_trace


def test_object_counts_ignores_writes():
    t = make_trace([(1, 0, 0), (2, 0, 0, True), (3, 0, 1)])
    counts = object_counts(t)
    assert counts.tolist() == [1, 1, 0, 0]  # the write to object 0 is not a read


def test_fit_zipf_recovers_exponent():
    ranks = np.arange(1, 201, dtype=float)
    counts = np.round(10_000 * ranks ** -1.3).astype(int)
    fitted = fit_zipf_exponent(counts)
    assert fitted == pytest.approx(1.3, abs=0.1)


def test_fit_zipf_needs_three_points():
    assert fit_zipf_exponent(np.array([5, 0, 0])) is None


def test_characterize_summary():
    t = make_trace([(1, 0, 0), (2, 1, 0), (3, 0, 1, True)], name="demo")
    stats = characterize(t)
    assert stats.name == "demo"
    assert stats.num_reads == 2
    assert stats.num_writes == 1
    assert stats.active_objects == 1  # both reads hit object 0; object 1 only written
    assert stats.max_object_count == 2
    assert stats.reads_per_node.tolist() == [1, 1, 0, 0]
    assert "demo" in str(stats)


def test_min_interarrival_global():
    t = make_trace([(0, 0, 0), (10, 1, 0), (13, 2, 0)])
    m1, m2 = min_interarrival(t)
    assert m1 == pytest.approx(3.0)
    assert m2 == pytest.approx(10.0)


def test_min_interarrival_single_gap():
    t = make_trace([(0, 0, 0), (5, 0, 0)])
    m1, m2 = min_interarrival(t)
    assert m1 == pytest.approx(5.0)
    assert math.isinf(m2)


def test_min_interarrival_no_gaps():
    t = make_trace([(1, 0, 0)])
    m1, m2 = min_interarrival(t)
    assert math.isinf(m1) and math.isinf(m2)


def test_min_interarrival_respects_interaction_spheres():
    # Nodes 0 and 1 interact; node 2 is isolated.  The 1-second gap between
    # node-2 accesses must not leak into node 0/1 spheres.
    t = make_trace([(0, 0, 0), (100, 1, 0), (200, 2, 0), (201, 2, 0)], num_nodes=3)
    interaction = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    m1, _ = min_interarrival(t, interaction)
    assert m1 == pytest.approx(1.0)  # node 2's own sphere has the 1s gap
    no2 = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    m1b, _ = min_interarrival(t, no2)
    assert m1b == pytest.approx(100.0)


def test_min_interarrival_duplicate_timestamps_skipped():
    t = make_trace([(5, 0, 0), (5, 1, 0), (8, 0, 0)])
    m1, _ = min_interarrival(t)
    assert m1 == pytest.approx(3.0)


def _loop_gaps(times):
    return [b - a for a, b in zip(times, times[1:]) if b - a > 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_statistics_match_a_walk_over_the_records(seed):
    from repro.simulator.continuous import _epoch_demand
    from repro.workload.drift import drifting_traces

    trace = drifting_traces(
        4, 7, epochs=1, epoch_s=50.0, requests_per_epoch=120, write_fraction=0.3, seed=seed
    )[0]
    reads = [r for r in trace.requests if not r.is_write]
    counts = [0] * trace.num_objects
    per_node = [0] * trace.num_nodes
    demand = {}
    for r in reads:
        counts[r.obj] += 1
        per_node[r.node] += 1
        demand[(r.node, r.obj)] = demand.get((r.node, r.obj), 0.0) + 1.0
    assert object_counts(trace).tolist() == counts
    assert characterize(trace).reads_per_node.tolist() == per_node
    assert _epoch_demand(trace) == demand

    rng = np.random.default_rng(seed)
    interaction = rng.random((4, 4)) < 0.5
    gaps = []
    for n in range(trace.num_nodes):
        gaps += _loop_gaps([r.time_s for r in trace.requests if interaction[n][r.node]])
    gaps = sorted(set(gaps)) + [math.inf, math.inf]
    assert min_interarrival(trace, interaction) == (gaps[0], gaps[1])
    everything = sorted(set(_loop_gaps([r.time_s for r in trace.requests])))
    assert min_interarrival(trace) == (everything[0], everything[1])
