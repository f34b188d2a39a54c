"""Tests for building topologies from measured edge lists."""

import math

import numpy as np
import pytest

from repro.topology.generators import topology_from_edges


def test_shortest_paths_computed():
    topo = topology_from_edges(
        3, [(0, 1, 100.0), (1, 2, 50.0)], origin=0
    )
    assert topo.latency[0][2] == pytest.approx(150.0)
    assert topo.latency[2][0] == pytest.approx(150.0)


def test_shortcut_edge_wins():
    topo = topology_from_edges(
        3, [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 120.0)]
    )
    assert topo.latency[0][2] == pytest.approx(120.0)


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        topology_from_edges(3, [(0, 1, 100.0)])


def test_unknown_node_rejected():
    with pytest.raises(ValueError, match="unknown node"):
        topology_from_edges(2, [(0, 5, 100.0)])


def test_negative_latency_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        topology_from_edges(2, [(0, 1, -10.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_latency_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        topology_from_edges(3, [(0, 1, 100.0), (1, 2, bad)])


def test_populations_and_names_pass_through():
    topo = topology_from_edges(
        2,
        [(0, 1, 100.0)],
        origin=1,
        populations=np.array([2.0, 3.0]),
        names=["hq", "branch"],
    )
    assert topo.origin == 1
    assert topo.populations.tolist() == [2.0, 3.0]
    assert topo.names == ["hq", "branch"]
