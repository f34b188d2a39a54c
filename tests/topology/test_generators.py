"""Tests for topology generators."""

import hashlib

import numpy as np
import pytest

from repro.topology.generators import (
    as_level_topology,
    grid_topology,
    line_topology,
    ring_topology,
    star_topology,
    topology_from_edges,
)
from repro.topology.latency import exponential_latency, uniform_latency


def test_as_level_shape_and_connectivity():
    topo = as_level_topology(num_nodes=20, seed=0)
    assert topo.num_nodes == 20
    assert np.all(np.isfinite(topo.latency))
    assert topo.diameter_ms() > 0


def test_as_level_deterministic_per_seed():
    a = as_level_topology(num_nodes=12, seed=3)
    b = as_level_topology(num_nodes=12, seed=3)
    assert np.allclose(a.latency, b.latency)
    assert a.origin == b.origin
    assert np.allclose(a.populations, b.populations)


def test_as_level_seeds_differ():
    a = as_level_topology(num_nodes=12, seed=3)
    b = as_level_topology(num_nodes=12, seed=4)
    assert not np.allclose(a.latency, b.latency)


def test_as_level_hop_latency_range():
    topo = as_level_topology(num_nodes=15, seed=1)
    # Any single positive entry is a sum of 100-200ms hops, so >= 100.
    off_diag = topo.latency[topo.latency > 0]
    assert off_diag.min() >= 100.0


def test_as_level_populations_uneven_but_positive():
    topo = as_level_topology(num_nodes=15, seed=1, population_skew=1.0)
    assert np.all(topo.populations > 0)
    assert topo.populations.max() / topo.populations.min() > 1.5


def test_as_level_uniform_populations_with_zero_skew():
    topo = as_level_topology(num_nodes=10, seed=1, population_skew=0.0)
    assert np.allclose(topo.populations, topo.populations[0])


def test_as_level_rejects_tiny():
    with pytest.raises(ValueError):
        as_level_topology(num_nodes=1)


def test_as_level_custom_latency_model():
    topo = as_level_topology(
        num_nodes=10,
        seed=2,
        latency_model=lambda rng: exponential_latency(rng, mean=50.0, floor=10.0),
    )
    assert topo.latency[topo.latency > 0].min() >= 10.0


def test_star_topology_structure():
    topo = star_topology(num_leaves=4, hub_latency_ms=100.0)
    assert topo.num_nodes == 5
    assert topo.origin == 0
    assert topo.latency[0][3] == 100.0
    assert topo.latency[1][2] == 200.0  # leaf-to-leaf via hub


def test_star_rejects_no_leaves():
    with pytest.raises(ValueError):
        star_topology(num_leaves=0)


def test_line_topology_linear_latency():
    topo = line_topology(num_nodes=4, hop_latency_ms=50.0)
    assert topo.latency[0][3] == pytest.approx(150.0)
    assert topo.latency[1][2] == pytest.approx(50.0)


def test_ring_topology_wraps():
    topo = ring_topology(num_nodes=6, hop_latency_ms=100.0)
    # opposite nodes are 3 hops either way
    assert topo.latency[0][3] == pytest.approx(300.0)
    # neighbours via the short side
    assert topo.latency[0][5] == pytest.approx(100.0)


def test_ring_rejects_tiny():
    with pytest.raises(ValueError):
        ring_topology(num_nodes=2)


def test_grid_topology_manhattan():
    topo = grid_topology(rows=3, cols=3, hop_latency_ms=10.0)
    assert topo.num_nodes == 9
    assert topo.latency[0][8] == pytest.approx(40.0)  # 4 hops corner to corner


def test_grid_rejects_zero_dims():
    with pytest.raises(ValueError):
        grid_topology(rows=0, cols=3)


def test_uniform_latency_in_range():
    rng = np.random.default_rng(0)
    draws = [uniform_latency(rng, 100.0, 200.0) for _ in range(200)]
    assert min(draws) >= 100.0
    assert max(draws) <= 200.0


def test_uniform_latency_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        uniform_latency(rng, 200.0, 100.0)


def test_exponential_latency_floor_and_validation():
    rng = np.random.default_rng(0)
    draws = [exponential_latency(rng, mean=150.0, floor=20.0) for _ in range(200)]
    assert min(draws) >= 20.0
    with pytest.raises(ValueError):
        exponential_latency(rng, mean=10.0, floor=20.0)


# -- pinned outputs --------------------------------------------------------------
#
# Literal SHA-256 digests of the generated latency matrices (and populations),
# so any change to the graph builder or the shortest-path code that moves one
# bit of a topology fails here, whatever library computes it.


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


AS_LEVEL_PINS = {
    # (num_nodes, seed, attachment): (latency digest, origin, populations digest)
    # The e2e pipeline benchmark's topology.
    (20, 2, 2): (
        "a9d20ebdd6d3147064e30e523b87f3198a41bcab80ac670ad039ceb68d8928d7",
        0,
        "ffcaa3ea954a2b95318d5b06d71b20f72750747fc6f85694d70463d1820ab4e7",
    ),
    # The e2e service benchmark's topology.
    (8, 2, 2): (
        "965dd80a9be27c98fa4e69491b820e4d0313de4f704c01c5666380044f926d14",
        0,
        "9ca412afb5023a83628478e7f90e174f2c40884d7e946b7d341d238d2939ec5c",
    ),
    (5, 0, 1): (
        "c6aeed29950e0555fde231f6f4377cd47ae7ec385f88a28c456e34a3ccce91cb",
        0,
        "293ed84c064fbe8975b649e2cf28b919858b3046019f17d697a10530e7cc4b39",
    ),
    (12, 7, 3): (
        "b9d75a8363b777d646c58adf45cdac009f923a7ba258d5cbb136176873080a1a",
        0,
        "32f49b499affc92330ecbbf98a70c8c060bcf1a6eac5c892e8d86f9504ea6a12",
    ),
    (40, 11, 2): (
        "2b23a491fdb9522def9b1eb443ce53d6480f4d1df7f4346fdc7f95831f4b35b6",
        0,
        "400eaec7667f1574b0c1624609f2adee6bc7293ef072cb64a5dc5bf64d70d283",
    ),
    (100, 3, 1): (
        "0c107ae25f2038adedf546778aa91c54d6788b4d804d80f6962be81f1125912a",
        1,
        "2b3e73591ae7d8332bbdcfb55fd6a0fc0d22149adbf705fff26cf413004bacc8",
    ),
}


@pytest.mark.parametrize("key", sorted(AS_LEVEL_PINS), ids=lambda k: "n%d-seed%d-m%d" % k)
def test_as_level_topology_is_pinned(key):
    num_nodes, seed, attachment = key
    topo = as_level_topology(num_nodes, seed=seed, attachment=attachment)
    assert (_sha(topo.latency), topo.origin, _sha(topo.populations)) == AS_LEVEL_PINS[key]


def test_jittered_star_is_pinned():
    topo = star_topology(num_leaves=6, seed=4, jitter_ms=30.0)
    assert _sha(topo.latency) == (
        "d4f881216195481d3b9fecda255dbb2f93a34aea59ebca2b43cec8c850400cd6"
    )
    assert topo.origin == 0


def test_repeated_edge_keeps_the_last_latency():
    topo = topology_from_edges(
        4, [(0, 1, 100.0), (1, 2, 50.0), (2, 3, 70.0), (0, 1, 30.0), (3, 0, 200.0)]
    )
    assert topo.latency[0][1] == 30.0
    assert topo.latency.tolist() == [
        [0.0, 30.0, 80.0, 150.0],
        [30.0, 0.0, 50.0, 120.0],
        [80.0, 50.0, 0.0, 70.0],
        [150.0, 120.0, 70.0, 0.0],
    ]
    assert _sha(topo.latency) == (
        "ff86795888be035f06515d534bef4dd7cddfa343ce164a33614661e855ab8ac2"
    )


# -- networkx oracle --------------------------------------------------------------
#
# The generators build their graphs and shortest paths without networkx; these
# tests rebuild the same topologies through networkx (the construction the
# generators replicate step for step) and demand bit-identical matrices.


def _nx_latency(nx, graph, n: int) -> np.ndarray:
    lat = np.full((n, n), np.inf)
    np.fill_diagonal(lat, 0.0)
    for src, lengths in nx.all_pairs_dijkstra_path_length(graph, weight="latency"):
        for dst, value in lengths.items():
            lat[src][dst] = value
    return (lat + lat.T) / 2.0


def _nx_as_level(nx, num_nodes: int, seed: int, attachment: int):
    attachment = min(attachment, num_nodes - 1)
    rng = np.random.default_rng(seed)
    graph = nx.barabasi_albert_graph(num_nodes, attachment, seed=int(rng.integers(2**31)))
    for u, v in graph.edges:
        graph.edges[u, v]["latency"] = uniform_latency(rng)
    latency = _nx_latency(nx, graph, num_nodes)
    origin = max(graph.degree, key=lambda kv: (kv[1], -kv[0]))[0]
    # Populations are drawn after the graph, so they match only if the graph
    # and its latencies consumed the generator identically.
    weights = np.arange(1, num_nodes + 1, dtype=float) ** -0.8
    weights = weights / weights.sum() * num_nodes
    rng.shuffle(weights)
    return latency, origin, weights


def _nx_regular(nx, graph, hop_latency_ms: float) -> np.ndarray:
    for u, v in graph.edges:
        graph.edges[u, v]["latency"] = hop_latency_ms
    return _nx_latency(nx, graph, graph.number_of_nodes())


@pytest.mark.parametrize("num_nodes", [2, 3, 5, 8, 20, 40, 100])
def test_as_level_matches_networkx_bit_for_bit(num_nodes):
    nx = pytest.importorskip("networkx")
    for seed in range(30):
        for attachment in (1, 2, 3):
            topo = as_level_topology(num_nodes, seed=seed, attachment=attachment)
            latency, origin, populations = _nx_as_level(nx, num_nodes, seed, attachment)
            key = (num_nodes, seed, attachment)
            assert topo.latency.tobytes() == latency.tobytes(), key
            assert topo.origin == origin, key
            assert topo.populations.tobytes() == populations.tobytes(), key


@pytest.mark.parametrize("num_nodes", [1, 2, 3, 7, 16])
def test_line_and_ring_match_networkx(num_nodes):
    nx = pytest.importorskip("networkx")
    assert (
        line_topology(num_nodes, hop_latency_ms=37.3).latency.tobytes()
        == _nx_regular(nx, nx.path_graph(num_nodes), 37.3).tobytes()
    )
    if num_nodes >= 3:
        assert (
            ring_topology(num_nodes, hop_latency_ms=0.1).latency.tobytes()
            == _nx_regular(nx, nx.cycle_graph(num_nodes), 0.1).tobytes()
        )


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (3, 3), (4, 7), (6, 2)])
def test_grid_matches_networkx(rows, cols):
    nx = pytest.importorskip("networkx")
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols), ordering="sorted")
    assert (
        grid_topology(rows, cols, hop_latency_ms=13.7).latency.tobytes()
        == _nx_regular(nx, graph, 13.7).tobytes()
    )


@pytest.mark.parametrize("num_leaves,seed,jitter", [(1, 0, 0.0), (4, 1, 0.0), (9, 3, 45.5)])
def test_star_matches_networkx(num_leaves, seed, jitter):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    graph = nx.star_graph(num_leaves)
    for u, v in graph.edges:
        graph.edges[u, v]["latency"] = 100.0 + (rng.uniform(-jitter, jitter) if jitter else 0.0)
    expected = _nx_latency(nx, graph, num_leaves + 1)
    topo = star_topology(num_leaves, hub_latency_ms=100.0, seed=seed, jitter_ms=jitter)
    assert topo.latency.tobytes() == expected.tobytes()


def test_from_edges_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        # A random spanning tree plus extra (possibly repeated) links.
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(1, 200))) for v in range(1, n)]
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            edges.append((u, v, float(rng.uniform(0, 200))))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        for u, v, w in edges:
            graph.add_edge(u, v, latency=w)
        expected = _nx_latency(nx, graph, n)
        assert topology_from_edges(n, edges).latency.tobytes() == expected.tobytes(), seed


_IMPORT_GUARD_SCRIPT = r"""
import json, sys

import repro, repro.cli
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload

topo = as_level_topology(20, seed=2)
trace = web_workload(num_nodes=20, num_objects=80, populations=topo.populations,
                     requests_scale=0.15, seed=1)
demand = DemandMatrix.from_trace(trace, num_intervals=8)
print(json.dumps({
    "requests": len(trace),
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
}))
"""


def test_pipeline_process_imports_no_networkx():
    from tests.lp.test_highs_input import run_fresh

    out = run_fresh(_IMPORT_GUARD_SCRIPT)
    assert out["requests"] == 45_004
    assert out["loaded"] == []
