"""The array planners choose what the per-node loops chose.

``QiuGreedyPlacement.plan`` scores all objects per round in one product
and ``GreedyGlobalPlacement.plan`` picks each round's pair from masked
row maxima; ``tests/heuristics/placement_oracle.py`` keeps the loops
they replaced.  Small integer demands make ties common.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.greedy_global import GreedyGlobalPlacement
from repro.heuristics.qiu import QiuGreedyPlacement
from repro.topology.generators import as_level_topology, star_topology
from tests.heuristics.placement_oracle import (
    oracle_greedy_plan,
    oracle_plan_object,
    oracle_qiu_targets,
)


@st.composite
def planning_cases(draw):
    if draw(st.booleans()):
        # Every leaf equally far from every other: ties everywhere.
        topology = star_topology(num_leaves=draw(st.integers(1, 6)), hub_latency_ms=100.0)
    else:
        topology = as_level_topology(
            num_nodes=draw(st.integers(2, 9)), seed=draw(st.integers(0, 5))
        )
    num_nodes = topology.num_nodes
    num_objects = draw(st.integers(1, 7))
    cells = draw(
        st.lists(st.integers(0, 3), min_size=num_nodes * num_objects,
                 max_size=num_nodes * num_objects)
    )
    demand = np.array(cells, dtype=float).reshape(num_nodes, num_objects)
    # Some objects with no demand at all.
    demand[:, draw(st.lists(st.integers(0, num_objects - 1), max_size=3))] = 0.0
    tlat_ms = draw(st.sampled_from([50.0, 100.0, 150.0, 250.0]))
    return topology, demand, tlat_ms


def started(heuristic, topology, tlat_ms):
    heuristic.on_start(SimpleNamespace(topology=topology, tlat_ms=tlat_ms))
    return heuristic


@settings(max_examples=200, deadline=None)
@given(planning_cases(), st.integers(0, 11), st.booleans())
def test_qiu_plan_matches_the_per_object_loop(case, replicas, place_inactive):
    topology, demand, tlat_ms = case
    num_nodes = topology.num_nodes
    h = started(
        QiuGreedyPlacement(replicas, place_inactive=place_inactive), topology, tlat_ms
    )
    chosen = h.plan(demand, num_nodes)
    targets = [set(np.flatnonzero(row).tolist()) for row in chosen]
    assert targets == oracle_qiu_targets(h, demand, num_nodes)
    for k in range(demand.shape[1]):
        assert h.plan_object(demand[:, k], num_nodes) == oracle_plan_object(
            h, demand[:, k], num_nodes
        )


@settings(max_examples=200, deadline=None)
@given(planning_cases(), st.integers(0, 9))
def test_greedy_global_plan_matches_the_node_loop(case, capacity):
    topology, demand, tlat_ms = case
    num_nodes = topology.num_nodes
    h = started(GreedyGlobalPlacement(capacity), topology, tlat_ms)
    plan = h.plan(demand, num_nodes)
    oracle = oracle_greedy_plan(h, demand, num_nodes)
    assert plan == oracle
    # Same sets built in the same order iterate alike.
    assert [list(s) for s in plan] == [list(s) for s in oracle]
