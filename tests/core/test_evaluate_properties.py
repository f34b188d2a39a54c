"""Property-based invariants of the solution evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.evaluate import (
    coverage_matrix,
    creations_from_store,
    qos_by_scope,
    solution_cost,
)
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix


@st.composite
def instances(draw):
    nodes, intervals, objects = 5, 3, 3
    reads = np.array(
        [
            [[draw(st.integers(min_value=0, max_value=3)) for _ in range(objects)]
             for _ in range(intervals)]
            for _ in range(nodes)
        ],
        dtype=float,
    )
    store = np.array(
        [
            [[draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(objects)]
             for _ in range(intervals)]
            for _ in range(4)  # one storer fewer (origin excluded)
        ],
        dtype=float,
    )
    return reads, store


def build_instance(reads):
    topo = as_level_topology(num_nodes=5, seed=3)
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.5),
    )
    return problem.instance(HeuristicProperties())


@settings(max_examples=50, deadline=None)
@given(instances())
def test_coverage_bounded_and_monotone(case):
    reads, store = case
    inst = build_instance(reads)
    cov = coverage_matrix(inst, store)
    assert np.all(cov >= -1e-12) and np.all(cov <= 1 + 1e-12)
    # Adding storage never reduces coverage.
    more = np.minimum(store + 0.5, 1.0)
    cov_more = coverage_matrix(inst, more)
    assert np.all(cov_more >= cov - 1e-12)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_qos_fractions_in_unit_interval(case):
    reads, store = case
    if reads.sum() == 0:
        return
    inst = build_instance(reads)
    for scope in GoalScope:
        goal = QoSGoal(tlat_ms=150.0, fraction=0.5, scope=scope)
        for value in qos_by_scope(inst, goal, store).values():
            assert -1e-12 <= value <= 1 + 1e-12


def qos_by_scope_loop(instance, goal, store):
    """Reference: each goal scope's reads and covered reads summed as the
    scope's own ``(demander, interval, object)`` slice."""
    cov = coverage_matrix(instance, store)
    reads = instance.qos_reads()
    num_d, _, num_k = reads.shape
    if goal.scope is GoalScope.OVERALL:
        denom = reads.sum()
        return {"all": float((reads * cov).sum() / denom) if denom > 0 else 1.0}
    slices = {
        GoalScope.PER_USER: [(nd, (nd,)) for nd in range(num_d)],
        GoalScope.PER_OBJECT: [(("k", k), (slice(None), slice(None), k)) for k in range(num_k)],
        GoalScope.PER_USER_OBJECT: [
            ((nd, k), (nd, slice(None), k)) for nd in range(num_d) for k in range(num_k)
        ],
    }[goal.scope]
    out = {}
    for key, at in slices:
        denom = reads[at].sum()
        if denom > 0:
            out[key] = float((reads[at] * cov[at]).sum() / denom)
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scope", list(GoalScope))
def test_qos_by_scope_equals_the_per_scope_slices_to_the_bit(seed, scope):
    """Long rows (pairwise-summed by NumPy) and fractional coverage: the
    row reductions must give each slice's own sums, in its key order."""
    rng = np.random.default_rng(seed)
    nodes, intervals, objects = 12, 1 + 9 * (seed % 3), 40 + 30 * seed
    reads = rng.choice([0.0, 1.0, 2.0, 5.0], size=(nodes, intervals, objects))
    reads *= rng.random(reads.shape) < 0.6
    reads[0, :, 0] = 0.0  # a (demander, object) scope without reads
    topo = as_level_topology(num_nodes=nodes, seed=seed)
    problem = MCPerfProblem(
        topology=topo, demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.5, scope=scope),
        warmup_intervals=(seed % 2) * (intervals > 1),
    )
    inst = problem.instance(HeuristicProperties())
    store = rng.random((nodes - 1, intervals, objects)) ** 2 / 3.0
    got = qos_by_scope(inst, problem.goal, store)
    want = qos_by_scope_loop(inst, problem.goal, store)
    assert list(got) == list(want)
    assert [type(key) for key in got] == [type(key) for key in want]
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


@settings(max_examples=50, deadline=None)
@given(instances())
def test_creations_telescope(case):
    _reads, store = case
    create = creations_from_store(store)
    assert np.all(create >= -1e-12)
    # Sum of creations >= final store level (telescoping from empty start).
    assert np.all(create.sum(axis=1) >= store[:, -1, :] - 1e-9)
    # And >= the max level ever held.
    assert np.all(create.sum(axis=1) >= store.max(axis=1) - 1e-9)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_costs_nonnegative_and_class_ordered(case):
    reads, store = case
    inst = build_instance(reads)
    costs = CostModel.paper_defaults()
    plain = solution_cost(inst, HeuristicProperties(), costs, store)
    sc = solution_cost(
        inst,
        HeuristicProperties(storage_constraint=StorageConstraint.UNIFORM),
        costs,
        store,
    )
    sc_node = solution_cost(
        inst,
        HeuristicProperties(storage_constraint=StorageConstraint.PER_NODE),
        costs,
        store,
    )
    rc = solution_cost(
        inst,
        HeuristicProperties(replica_constraint=ReplicaConstraint.UNIFORM),
        costs,
        store,
    )
    for breakdown in (plain, sc, sc_node, rc):
        assert breakdown.storage >= -1e-9
        assert breakdown.creation >= -1e-9
        assert breakdown.total >= -1e-9
    # Capacity accounting charges at least the plain usage.
    assert sc.storage >= plain.storage - 1e-9
    assert sc_node.storage >= plain.storage - 1e-9
    # Uniform capacity charges at least per-node capacity.
    assert sc.storage >= sc_node.storage - 1e-9
