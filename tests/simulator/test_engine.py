"""Tests for the trace-replay engine."""

import numpy as np
import pytest

from repro.heuristics.base import PlacementHeuristic
from repro.heuristics.caching import LRUCaching
from repro.simulator.engine import Simulator, simulate
from repro.topology.generators import line_topology, star_topology
from tests.conftest import make_trace


class NullHeuristic(PlacementHeuristic):
    """Places nothing: every read goes to the origin."""

    routing = "local"


class PeriodProbe(PlacementHeuristic):
    """Records on_interval invocations for boundary tests."""

    routing = "global"

    def __init__(self, period_s, clairvoyant=False):
        self.period_s = period_s
        self.clairvoyant = clairvoyant
        self.calls = []

    def on_interval(self, index, ctx, past_demand, next_demand):
        self.calls.append((index, past_demand.copy(), None if next_demand is None else next_demand.copy()))


def far_star():
    return star_topology(num_leaves=2, hub_latency_ms=200.0)


def test_null_heuristic_counts_misses():
    topo = far_star()
    trace = make_trace([(10, 1, 0), (20, 2, 1)], num_nodes=3, num_objects=2)
    result = simulate(topo, trace, NullHeuristic(), tlat_ms=150.0)
    assert result.reads == 2
    assert result.covered_reads == 0
    assert result.qos == 0.0
    assert result.total_cost == 0.0


def test_origin_within_threshold_counts_covered():
    topo = star_topology(num_leaves=1, hub_latency_ms=100.0)
    trace = make_trace([(10, 1, 0)], num_nodes=2, num_objects=1)
    result = simulate(topo, trace, NullHeuristic(), tlat_ms=150.0)
    assert result.covered_reads == 1


def test_miss_then_hit_with_lru():
    topo = far_star()
    trace = make_trace([(10, 1, 0), (20, 1, 0), (30, 1, 0)], num_nodes=3, num_objects=1)
    result = simulate(topo, trace, LRUCaching(capacity=1), tlat_ms=150.0)
    assert result.covered_reads == 2  # first access misses, inserts, then hits
    assert result.creations == 1


def test_qos_per_node_tracking():
    topo = far_star()
    trace = make_trace([(10, 1, 0), (20, 1, 0), (30, 2, 1)], num_nodes=3, num_objects=2)
    result = simulate(topo, trace, LRUCaching(capacity=1), tlat_ms=150.0)
    assert result.qos_per_node[1] == pytest.approx(0.5)
    assert result.qos_per_node[2] == pytest.approx(0.0)
    assert result.min_node_qos == 0.0
    assert not result.meets(0.5, per_user=True)
    assert result.meets(0.33, per_user=False)


def test_warmup_excluded_from_qos_but_not_cost():
    topo = far_star()
    trace = make_trace([(10, 1, 0), (2000, 1, 0)], duration_s=3600.0, num_nodes=3, num_objects=1)
    result = simulate(topo, trace, LRUCaching(1), tlat_ms=150.0, warmup_s=1000.0)
    assert result.reads == 1  # only the post-warmup read counts
    assert result.covered_reads == 1
    assert result.creations == 1  # the warmup miss still warmed the cache


def test_storage_cost_accrues_until_end():
    topo = far_star()
    trace = make_trace([(0, 1, 0)], duration_s=7200.0, num_nodes=3, num_objects=1)
    result = simulate(
        topo, trace, LRUCaching(1), tlat_ms=150.0, cost_interval_s=3600.0
    )
    assert result.storage_cost == pytest.approx(2.0)  # held for 2 hours
    assert result.creation_cost == pytest.approx(1.0)


def test_period_boundaries_fire_in_order():
    topo = far_star()
    trace = make_trace(
        [(100, 1, 0), (3700, 1, 0), (7300, 1, 0)], duration_s=10800.0, num_nodes=3, num_objects=1
    )
    probe = PeriodProbe(period_s=3600.0)
    simulate(topo, trace, probe, tlat_ms=150.0)
    assert [c[0] for c in probe.calls] == [0, 1, 2]
    # period 0 sees empty past demand; period 1 sees period 0's access.
    assert probe.calls[0][1].sum() == 0
    assert probe.calls[1][1][1, 0] == 1


def test_clairvoyant_receives_next_demand():
    topo = far_star()
    trace = make_trace([(100, 1, 0)], duration_s=7200.0, num_nodes=3, num_objects=1)
    probe = PeriodProbe(period_s=3600.0, clairvoyant=True)
    simulate(topo, trace, probe, tlat_ms=150.0)
    assert probe.calls[0][2] is not None
    assert probe.calls[0][2][1, 0] == 1


class LoopPeriodProbe(PeriodProbe):
    """The same probe, replayed request by request (it acts on access)."""

    def on_access(self, request, served_ms, ctx):
        pass


@pytest.mark.parametrize("probe_cls", [PeriodProbe, LoopPeriodProbe])
def test_read_at_an_accumulated_boundary_belongs_to_the_period_it_opens(probe_cls):
    # Boundaries accumulate 0.1 six times to exactly 0.6, so boundary 6
    # fires before the read at 0.6, while int(0.6 / 0.1) == 5.
    topo = far_star()
    trace = make_trace([(0.6, 1, 0), (0.75, 2, 0)], duration_s=1.0, num_nodes=3, num_objects=1)
    probe = probe_cls(period_s=0.1, clairvoyant=True)
    simulate(topo, trace, probe, tlat_ms=150.0)
    assert [c[0] for c in probe.calls] == list(range(8))
    coming = [int(c[2][1, 0]) for c in probe.calls]
    past = [int(c[1][1, 0]) for c in probe.calls]
    assert coming == [0, 0, 0, 0, 0, 0, 1, 0]
    assert past == [0, 0, 0, 0, 0, 0, 0, 1]
    assert probe.calls[7][2][2, 0] == 1


def test_non_clairvoyant_gets_no_future():
    topo = far_star()
    trace = make_trace([(100, 1, 0)], duration_s=3600.0, num_nodes=3, num_objects=1)
    probe = PeriodProbe(period_s=3600.0, clairvoyant=False)
    simulate(topo, trace, probe, tlat_ms=150.0)
    assert probe.calls[0][2] is None


def test_writes_do_not_count_as_reads():
    topo = far_star()
    trace = make_trace([(10, 1, 0, True), (20, 1, 0)], num_nodes=3, num_objects=1)
    result = simulate(topo, trace, NullHeuristic(), tlat_ms=150.0)
    assert result.reads == 1


def test_assignment_routes_via_access_node():
    # chain 0-1-2-3; site 3 assigned to node 2.
    topo = line_topology(num_nodes=4, hop_latency_ms=100.0)
    trace = make_trace([(10, 3, 0), (20, 3, 0)], num_nodes=4, num_objects=1)
    assignment = np.array([0, 1, 2, 2])

    class PinAtTwo(PlacementHeuristic):
        routing = "local"

        def on_start(self, ctx):
            ctx.create_replica(2, 0)

    result = simulate(
        topo, trace, PinAtTwo(), tlat_ms=150.0, assignment=assignment
    )
    # each read: 100ms leg to node 2 + 0ms local hit = 100 <= 150.
    assert result.covered_reads == 2
    assert result.mean_latency_ms == pytest.approx(100.0)


def test_assignment_miss_goes_through_access_node_to_origin():
    topo = line_topology(num_nodes=4, hop_latency_ms=100.0)
    trace = make_trace([(10, 3, 0)], num_nodes=4, num_objects=1)
    assignment = np.array([0, 1, 2, 2])
    result = simulate(topo, trace, NullHeuristic(), tlat_ms=150.0, assignment=assignment)
    # 100 (3->2) + 200 (2->origin) = 300ms.
    assert result.mean_latency_ms == pytest.approx(300.0)
    assert result.covered_reads == 0


def test_trace_bigger_than_topology_rejected():
    topo = far_star()
    trace = make_trace([(10, 5, 0)], num_nodes=6, num_objects=1)
    with pytest.raises(ValueError):
        Simulator(topo, trace, NullHeuristic(), tlat_ms=150.0)


def test_result_str():
    topo = far_star()
    trace = make_trace([(10, 1, 0)], num_nodes=3, num_objects=1)
    result = simulate(topo, trace, NullHeuristic(), tlat_ms=150.0)
    assert "QoS" in str(result)
