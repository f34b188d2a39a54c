"""Topology generators.

``as_level_topology`` is the stand-in for the paper's Telstra-derived 20-node
AS topology: AS-level graphs are well modelled by preferential attachment
(heavy-tailed degree), each hop costs 100–200 ms, and the best-connected node
plays the corporate-headquarters role.  The regular generators (star, line,
ring, grid) exist for tests and controlled experiments where the reachability
structure must be known exactly.

The method only needs each topology's latency matrix, so the graphs here are
plain adjacency dicts (node ``i``'s neighbours, in insertion order, mapped to
link latencies) and the matrix is one heap-based Dijkstra per source.  Both
follow networkx's ``barabasi_albert_graph``, edge order and
``all_pairs_dijkstra_path_length`` step for step, so every topology is
bit-identical to the one those produce for the same arguments.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.topology.graph import Topology
from repro.topology.latency import uniform_latency

LatencyModel = Callable[[np.random.Generator], float]

#: ``adjacency[u][v]`` is the latency of link ``u``–``v``; neighbours keep
#: the order their links were first added (a re-added link keeps its place
#: and takes the new latency).
Adjacency = List[Dict[int, float]]


def _link(adjacency: Adjacency, u: int, v: int, latency_ms: float = 0.0) -> None:
    adjacency[u][v] = latency_ms
    adjacency[v][u] = latency_ms


def _edges(adjacency: Adjacency) -> Iterator[Tuple[int, int]]:
    """Each link once, as ``(u, v)`` with ``u`` the endpoint listed first."""
    seen = set()
    for u, neighbours in enumerate(adjacency):
        for v in neighbours:
            if v not in seen:
                yield u, v
        seen.add(u)


def _barabasi_albert(num_nodes: int, attachment: int, seed: int) -> Adjacency:
    """Preferential attachment grown from a star on ``attachment + 1`` nodes.

    Each new node links to ``attachment`` distinct targets drawn uniformly
    from the list holding every node once per incident link.
    """
    rng = random.Random(seed)
    adjacency: Adjacency = [{} for _ in range(num_nodes)]
    for leaf in range(1, attachment + 1):
        _link(adjacency, 0, leaf)
    repeated = [u for u in range(attachment + 1) for _ in adjacency[u]]
    for source in range(attachment + 1, num_nodes):
        targets = set()
        while len(targets) < attachment:
            targets.add(rng.choice(repeated))
        for target in targets:
            _link(adjacency, source, target)
        repeated.extend(targets)
        repeated.extend([source] * attachment)
    return adjacency


def _shortest_paths(adjacency: Adjacency, source: int) -> Dict[int, float]:
    """Dijkstra from ``source``: latency to every reachable node."""
    dist: Dict[int, float] = {}
    seen = {source: 0}
    tie = count()
    fringe = [(0, next(tie), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, cost in adjacency[v].items():
            dist_u = dist_v + cost
            if u in dist:
                if dist_u < dist[u]:
                    raise ValueError("contradictory paths found: negative link latency?")
            elif u not in seen or dist_u < seen[u]:
                seen[u] = dist_u
                heappush(fringe, (dist_u, next(tie), u))
    return dist


def _latency_matrix(adjacency: Adjacency) -> np.ndarray:
    """All-pairs shortest-path latency over the links."""
    n = len(adjacency)
    lat = np.full((n, n), np.inf)
    for src in range(n):
        dist = _shortest_paths(adjacency, src)
        lat[src, list(dist)] = list(dist.values())
    if np.isinf(lat).any():
        raise ValueError("graph is disconnected; cannot build a latency matrix")
    # Symmetrize against floating-point asymmetries from Dijkstra ordering.
    return (lat + lat.T) / 2.0


def _skewed_populations(rng: np.random.Generator, n: int, skew: float) -> np.ndarray:
    """Uneven user populations: Zipf-like weights shuffled across sites.

    ``skew == 0`` gives uniform populations; larger values concentrate users
    on fewer sites (the paper notes "some sites are bigger or more active").
    """
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n)
    weights = weights / weights.sum() * n
    rng.shuffle(weights)
    return weights


def as_level_topology(
    num_nodes: int = 20,
    seed: int = 0,
    attachment: int = 2,
    latency_model: Optional[LatencyModel] = None,
    population_skew: float = 0.8,
) -> Topology:
    """A synthetic AS-level corporate WAN (paper §6 case-study stand-in).

    Parameters
    ----------
    num_nodes:
        Number of sites (paper: 20).
    seed:
        Seed for graph structure, latencies and populations.
    attachment:
        Barabási–Albert attachment parameter (edges per new node).
    latency_model:
        Per-link latency draw; defaults to uniform 100–200 ms as in the paper.
    population_skew:
        Zipf exponent for the uneven user-population weights.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    attachment = min(attachment, num_nodes - 1)
    rng = np.random.default_rng(seed)
    adjacency = _barabasi_albert(num_nodes, attachment, seed=int(rng.integers(2**31)))
    draw = latency_model or uniform_latency
    for u, v in list(_edges(adjacency)):
        _link(adjacency, u, v, draw(rng))
    latency = _latency_matrix(adjacency)
    # Headquarters = best-connected site (highest degree, ties by index).
    origin = max(range(num_nodes), key=lambda u: (len(adjacency[u]), -u))
    populations = _skewed_populations(rng, num_nodes, population_skew)
    return Topology(latency=latency, origin=int(origin), populations=populations)


def topology_from_edges(
    num_nodes: int,
    edges,
    origin: int = 0,
    populations=None,
    names=None,
) -> Topology:
    """Build a topology from measured links.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, latency_ms)`` links; the pairwise matrix is the
        all-pairs shortest path over them.  The graph must be connected.
    """
    adjacency: Adjacency = [{} for _ in range(num_nodes)]
    for u, v, latency_ms in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) references an unknown node")
        if not 0 <= latency_ms < math.inf:
            raise ValueError(f"link latency must be finite and non-negative, got {latency_ms}")
        _link(adjacency, int(u), int(v), float(latency_ms))
    return Topology(
        latency=_latency_matrix(adjacency),
        origin=origin,
        populations=populations,
        names=list(names) if names else [],
    )


def star_topology(
    num_leaves: int = 5,
    hub_latency_ms: float = 100.0,
    seed: int = 0,
    jitter_ms: float = 0.0,
) -> Topology:
    """A hub-and-spoke topology; the hub (node 0) is the origin."""
    if num_leaves < 1:
        raise ValueError("need at least 1 leaf")
    rng = np.random.default_rng(seed)
    adjacency: Adjacency = [{} for _ in range(num_leaves + 1)]
    for leaf in range(1, num_leaves + 1):
        _link(adjacency, 0, leaf, hub_latency_ms + (
            rng.uniform(-jitter_ms, jitter_ms) if jitter_ms else 0.0
        ))
    return Topology(latency=_latency_matrix(adjacency), origin=0)


def line_topology(num_nodes: int = 5, hop_latency_ms: float = 100.0) -> Topology:
    """A chain of nodes; node 0 is the origin.  Latency grows linearly with hops."""
    if num_nodes < 1:
        raise ValueError("need at least 1 node")
    adjacency: Adjacency = [{} for _ in range(num_nodes)]
    for u in range(num_nodes - 1):
        _link(adjacency, u, u + 1, hop_latency_ms)
    return Topology(latency=_latency_matrix(adjacency), origin=0)


def ring_topology(num_nodes: int = 6, hop_latency_ms: float = 100.0) -> Topology:
    """A cycle of nodes; node 0 is the origin."""
    if num_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    adjacency: Adjacency = [{} for _ in range(num_nodes)]
    for u in range(num_nodes):
        _link(adjacency, u, (u + 1) % num_nodes, hop_latency_ms)
    return Topology(latency=_latency_matrix(adjacency), origin=0)


def tree_topology(
    num_nodes: int = 10,
    seed: int = 0,
    latency_model: Optional[LatencyModel] = None,
    population_skew: float = 0.0,
) -> Topology:
    """A random recursive tree; node 0 is the root and origin.

    Node ``i`` attaches to a uniformly random earlier node, giving the
    broad, shallow shape typical of hub-dominated WANs.  The pairwise
    matrix is built incrementally (each node's distance row is its
    parent's row plus the connecting edge) rather than by a Dijkstra per
    source, so thousand-node instances assemble in milliseconds — these
    are the inputs the exact tree-DP backend exists for, and
    :meth:`Topology.is_tree` recognizes them by construction.
    """
    if num_nodes < 1:
        raise ValueError("need at least 1 node")
    rng = np.random.default_rng(seed)
    draw = latency_model or uniform_latency
    lat = np.zeros((num_nodes, num_nodes))
    for v in range(1, num_nodes):
        p = int(rng.integers(0, v))
        w = float(draw(rng))
        lat[v, :v] = lat[p, :v] + w
        lat[:v, v] = lat[v, :v]
    populations = (
        _skewed_populations(rng, num_nodes, population_skew) if population_skew > 0 else None
    )
    return Topology(latency=lat, origin=0, populations=populations)


def grid_topology(rows: int = 3, cols: int = 3, hop_latency_ms: float = 100.0) -> Topology:
    """A rows×cols mesh; the top-left corner is the origin."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    # Node ``r * cols + c`` sits at row ``r``, column ``c``.
    adjacency: Adjacency = [{} for _ in range(rows * cols)]
    for u in range(rows * cols):
        if u + cols < rows * cols:
            _link(adjacency, u, u + cols, hop_latency_ms)
        if (u + 1) % cols:
            _link(adjacency, u, u + 1, hop_latency_ms)
    return Topology(latency=_latency_matrix(adjacency), origin=0)
