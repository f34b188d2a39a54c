"""The structural prunes of store/create cells never change an answer.

Both builders drop the store/create cells of a (storer, object) pair that
lie outside the intervals in which the storer could cover a goal read
(:func:`repro.core.formulation.compute_store_window`), and, in the classes
where nothing ties a storer's cells to it, every cell of a pair whose
covering set another storer contains
(:func:`repro.core.formulation.compute_dominated_storers`).  The reference
here is the unpruned LP, built with both rules switched off: statuses,
structural-infeasibility flags, LP optima and exact IP optima (HiGHS MIP)
must agree, on tiny random instances and on the test fixtures.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.audit import audit_lp_solution
from repro.core import formulation
from repro.core.classes import STANDARD_CLASSES, get_class
from repro.core.costs import CostModel
from repro.core.exact import compute_exact_bound
from repro.core.formulation import (
    build_formulation,
    compute_dominated_storers,
    compute_store_window,
)
from repro.core.goals import AverageLatencyGoal, GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties
from repro.perf import PERF
from repro.topology.graph import Topology
from repro.topology.generators import as_level_topology, star_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload

COSTS = {
    "paper": CostModel.paper_defaults(),
    "gamma-delta": CostModel(alpha=1.0, beta=2.0, gamma=0.01, delta=0.5),
    "zeta": CostModel(alpha=1.0, beta=1.0, zeta=5.0),
}
SCOPES = [GoalScope.PER_USER, GoalScope.OVERALL, GoalScope.PER_OBJECT]


@contextlib.contextmanager
def unpruned():
    """Build formulations with every store cell in the window, none dominated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            formulation,
            "compute_store_window",
            lambda instance, allowed: np.ones(
                (instance.num_storers,) + instance.reads.shape[1:], dtype=bool
            ),
        )
        mp.setattr(formulation, "compute_dominated_storers", lambda *args: None)
        yield


def random_problem(seed, scope, costs, with_initial, fraction, warmup):
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 7))
    num_objects = int(rng.integers(2, 5))
    intervals = int(rng.integers(3, 5))
    trace = web_workload(
        num_nodes=num_nodes,
        num_objects=num_objects,
        requests_scale=0.01,
        duration_s=7200.0,
        seed=seed,
    )
    initial = None
    if with_initial:
        initial = (rng.random((num_nodes, num_objects)) < 0.3).astype(np.int8)
    return MCPerfProblem(
        topology=as_level_topology(num_nodes=num_nodes, seed=seed),
        demand=DemandMatrix.from_trace(trace, num_intervals=intervals),
        goal=QoSGoal(tlat_ms=float(rng.choice([100.0, 150.0])), fraction=fraction, scope=scope),
        costs=COSTS[costs],
        initial_placement=initial,
        warmup_intervals=warmup,
    )


def solve(problem, props):
    form = build_formulation(problem, props)
    solution = form.lp.solve(backend="scipy")
    cost = form.bound_cost(solution) if solution.is_optimal else None
    return form, solution.status, cost


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 5),
    class_name=st.sampled_from(sorted(STANDARD_CLASSES)),
    scope=st.sampled_from(SCOPES),
    costs=st.sampled_from(sorted(COSTS)),
    with_initial=st.booleans(),
    fraction=st.sampled_from([0.6, 0.9]),
    warmup=st.sampled_from([0, 1]),
)
def test_prune_keeps_status_and_optimum(
    seed, class_name, scope, costs, with_initial, fraction, warmup
):
    problem = random_problem(seed, scope, costs, with_initial, fraction, warmup)
    props = get_class(class_name).properties
    form, status, cost = solve(problem, props)
    with unpruned():
        ref_form, ref_status, ref_cost = solve(problem, props)
    assert form.lp.num_variables <= ref_form.lp.num_variables
    assert status is ref_status
    assert form.structurally_infeasible == ref_form.structurally_infeasible
    if ref_cost is not None:
        assert cost == pytest.approx(ref_cost, rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    reads=st.lists(st.integers(0, 3), min_size=18, max_size=18),
    class_name=st.sampled_from(["general", "caching", "reactive", "storage-constrained"]),
    fraction=st.sampled_from([0.5, 0.8]),
)
def test_prune_keeps_exact_ip_optimum(reads, class_name, fraction):
    problem = MCPerfProblem(
        topology=star_topology(num_leaves=2, hub_latency_ms=200.0),
        demand=DemandMatrix(reads=np.asarray(reads, dtype=float).reshape(3, 3, 2)),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=GoalScope.OVERALL),
        costs=CostModel.paper_defaults(),
    )
    props = get_class(class_name).properties
    exact = compute_exact_bound(problem, props)
    with unpruned():
        reference = compute_exact_bound(problem, props)
    assert exact.feasible == reference.feasible
    assert exact.status == reference.status
    if reference.feasible:
        assert exact.exact_cost == pytest.approx(reference.exact_cost, rel=1e-9, abs=1e-9)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(0, 11),
    class_name=st.sampled_from(
        ["general", "replica-constrained", "replica-constrained-per-object"]
    ),
    scope=st.sampled_from(SCOPES),
    costs=st.sampled_from(["paper", "gamma-delta"]),
    with_initial=st.booleans(),
    fraction=st.sampled_from([0.6, 0.9]),
)
def test_dominance_keeps_exact_ip_optimum(
    seed, class_name, scope, costs, with_initial, fraction
):
    """AS-level instances where the dominance rule drops whole chains."""
    rng = np.random.default_rng(seed)
    num_nodes, num_objects = int(rng.integers(5, 7)), int(rng.integers(2, 4))
    trace = web_workload(
        num_nodes=num_nodes,
        num_objects=num_objects,
        requests_scale=0.01,
        duration_s=7200.0,
        seed=seed,
    )
    initial = None
    if with_initial:
        initial = (rng.random((num_nodes, num_objects)) < 0.3).astype(np.int8)
    problem = MCPerfProblem(
        topology=as_level_topology(num_nodes=num_nodes, seed=seed),
        demand=DemandMatrix.from_trace(trace, num_intervals=3),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=scope),
        costs=COSTS[costs],
        initial_placement=initial,
    )
    props = get_class(class_name).properties
    before = PERF.get("form.store.dominated")
    exact = compute_exact_bound(problem, props)
    assume(PERF.get("form.store.dominated") > before)
    with unpruned():
        reference = compute_exact_bound(problem, props)
    assert reference.status != "node-limit"
    assert exact.feasible == reference.feasible
    assert exact.status == reference.status
    if reference.feasible:
        assert exact.exact_cost == pytest.approx(reference.exact_cost, rel=1e-9, abs=1e-9)


FIXTURE_OPTIMA = {
    "web_problem": {
        "general": 113.0,
        "replica-constrained": 306.0,
        "storage-constrained": 355.0,
        "caching-prefetch": 371.0,
        "cooperative-caching-prefetch": 355.0,
    },
    "group_problem": {
        "general": 113.0,
        "replica-constrained": 165.0,
        "storage-constrained": 239.0,
        "caching-prefetch": 339.0,
        "cooperative-caching-prefetch": 239.0,
    },
}


@pytest.mark.parametrize("class_name", sorted(FIXTURE_OPTIMA["web_problem"]))
@pytest.mark.parametrize("fixture", sorted(FIXTURE_OPTIMA))
def test_prune_keeps_exact_ip_optimum_at_fixture_scale(fixture, class_name, request):
    """The integral optimum of the pruned LP is the unpruned one's, at test-fixture scale."""
    problem = request.getfixturevalue(fixture)
    props = get_class(class_name).properties
    exact = compute_exact_bound(problem, props)
    with unpruned():
        reference = compute_exact_bound(problem, props)
    assert exact.status == reference.status == "optimal"
    assert exact.exact_cost == pytest.approx(FIXTURE_OPTIMA[fixture][class_name], abs=1e-6)
    assert reference.exact_cost == pytest.approx(exact.exact_cost, abs=1e-6)


def dominance_problem(initial=None, costs=None, goal=None):
    """Origin 0 out of reach; storers 1-4 (indices 0-3) on a 100 ms chain.

    Object 0 is read by sites 1-4, object 1 by sites 3 and 4, so the
    covering sets are, by storer index, object 0: {1,2} {1,2,3} {2,3,4}
    {3,4}; object 1: {} {3} {3,4} {3,4}.
    """
    latency = np.full((5, 5), 500.0)
    np.fill_diagonal(latency, 0.0)
    for a, b in [(1, 2), (2, 3), (3, 4)]:
        latency[a, b] = latency[b, a] = 100.0
    reads = np.zeros((5, 2, 2))
    reads[1:5, 0, 0] = 1
    reads[3:5, 1, 1] = 1
    return MCPerfProblem(
        topology=Topology(latency=latency),
        demand=DemandMatrix(reads=reads),
        goal=goal or QoSGoal(tlat_ms=150.0, fraction=1.0, scope=GoalScope.OVERALL),
        costs=costs or CostModel.paper_defaults(),
        initial_placement=initial,
    )


def test_dominance_rule_on_a_hand_built_instance():
    general = get_class("general").properties
    problem = dominance_problem()
    inst = problem.instance(general)
    dominated = compute_dominated_storers(inst, general, None, False)
    # Object 0: {1,2} inside {1,2,3} and {3,4} inside {2,3,4} are dropped.
    # Object 1: storers 2 and 3 cover {3,4} alike, the lower index is kept;
    # {3} and the empty set are dropped.
    assert dominated.tolist() == [[True, True], [False, True], [False, False], [True, True]]

    before = PERF.get("form.store.dominated")
    form = build_formulation(problem, general)
    assert PERF.get("form.store.dominated") - before == 4
    built = (form.store_idx >= 0).any(axis=1)
    assert built.tolist() == [[False, False], [True, False], [True, True], [False, False]]
    _form, status, cost = solve(problem, general)
    with unpruned():
        _ref_form, ref_status, ref_cost = solve(problem, general)
    assert status is ref_status and cost == pytest.approx(ref_cost, rel=1e-9)

    # An initial replica is dominated only by a storer that also holds one:
    # storer 0 keeps object 0, and storer 3 now beats storer 2 on object 1.
    initial = np.zeros((5, 2), dtype=np.int8)
    initial[1, 0] = 1
    initial[4, 1] = 1
    seeded = dominance_problem(initial=initial).instance(general)
    dominated = compute_dominated_storers(seeded, general, None, False)
    assert dominated.tolist() == [[False, True], [False, True], [False, True], [True, False]]


@pytest.mark.parametrize(
    "class_name, costs, goal",
    [
        ("storage-constrained", None, None),
        ("caching", None, None),
        ("general", CostModel(alpha=1.0, beta=1.0, zeta=5.0), None),
        ("general", None, AverageLatencyGoal(tavg_ms=300.0, tlat_ms=150.0)),
    ],
    ids=["storage-constrained", "caching", "zeta", "average-latency"],
)
def test_coupled_builds_drop_nothing(class_name, costs, goal):
    problem = dominance_problem(costs=costs, goal=goal)
    props = get_class(class_name).properties
    before = PERF.get("form.store.dominated")
    form = build_formulation(problem, props)
    assert PERF.get("form.store.dominated") == before
    with unpruned():
        reference = build_formulation(problem, props)
    # Only the window drops cells; the average-latency goal keeps every one.
    kept = reference.store_idx >= 0
    if goal is None:
        inst, allowed = form.instance, form.allowed_create
        assert compute_dominated_storers(inst, props, allowed, problem.costs.zeta > 0) is None
        kept &= compute_store_window(inst, allowed)
    assert ((form.store_idx >= 0) == kept).all()


def test_replica_created_before_a_history_gap_survives():
    """The window reaches back to the last permitted creation before a use.

    Reactive with a 2-interval history: the warm-up read at interval 0
    permits creation at 1 and 2 but not at 3, where the goal read is.  The
    only placements create at 1 or 2 and hold the replica through 3.
    """
    reads = np.zeros((3, 4, 1))
    reads[1, 0, 0] = 1
    reads[1, 3, 0] = 1
    problem = MCPerfProblem(
        topology=star_topology(num_leaves=2, hub_latency_ms=200.0),
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=1.0, scope=GoalScope.OVERALL),
        costs=CostModel.paper_defaults(),
        warmup_intervals=1,
    )
    props = HeuristicProperties(reactive=True, history_window=2)
    _form, status, cost = solve(problem, props)
    exact = compute_exact_bound(problem, props)
    with unpruned():
        _ref_form, ref_status, ref_cost = solve(problem, props)
        reference = compute_exact_bound(problem, props)
    assert status is ref_status and ref_cost is not None
    assert cost == pytest.approx(ref_cost, rel=1e-9)
    assert exact.feasible and reference.feasible
    assert exact.exact_cost == pytest.approx(reference.exact_cost, rel=1e-9)


def test_window_rule_on_a_chain():
    """first/last use, moved back to a permitted creation or an initial replica."""
    topo = star_topology(num_leaves=2, hub_latency_ms=200.0)
    reads = np.zeros((3, 5, 2))
    reads[1, 2, 0] = 1  # leaf 1 reads object 0 in interval 2 ...
    reads[1, 3, 0] = 1  # ... and 3
    reads[2, 1, 1] = 1  # leaf 2 reads object 1 in interval 1 only
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.5, scope=GoalScope.OVERALL),
    )
    inst = problem.instance(get_class("general").properties)
    window = compute_store_window(inst, None)
    reaches_leaf1 = inst.reach[1].astype(bool)
    for ns in np.flatnonzero(reaches_leaf1):
        assert window[ns, :, 0].tolist() == [False, False, True, True, False]
    assert not window[~inst.reach[1:].any(axis=0).astype(bool)].any()

    allowed = np.zeros_like(window)
    allowed[:, 0, :] = True
    moved = compute_store_window(inst, allowed)
    for ns in np.flatnonzero(reaches_leaf1):
        assert moved[ns, :, 0].tolist() == [True, True, True, True, False]

    initial = np.zeros((inst.num_storers, 2), dtype=np.int8)
    initial[:, 1] = 1
    seeded = compute_store_window(dataclasses.replace(inst, initial_store=initial), None)
    for ns in np.flatnonzero(inst.reach[2].astype(bool)):
        assert seeded[ns, :, 1].tolist() == [True, True, False, False, False]


def test_web_fixture_general_lp_size(web_problem):
    """Pins both rules: the window drops 472 store cells, dominance 194 more."""
    before = PERF.get("form.store.pruned")
    dropped = PERF.get("form.store.dominated")
    form = build_formulation(web_problem, None)
    assert PERF.get("form.store.pruned") - before == 472
    assert PERF.get("form.store.dominated") - dropped == 194
    assert form.lp.num_variables == 659
    with unpruned():
        assert build_formulation(web_problem, None).lp.num_variables == 1991


@pytest.mark.parametrize("class_name", ["general", "replica-constrained"])
def test_full_audit_is_clean_on_pruned_figure2_lp(class_name):
    topology = as_level_topology(num_nodes=20, seed=2)
    trace = web_workload(
        num_nodes=20, num_objects=80, populations=topology.populations,
        requests_scale=0.15, seed=1,
    )
    problem = MCPerfProblem(
        topology=topology,
        demand=DemandMatrix.from_trace(trace, num_intervals=8),
        goal=QoSGoal(tlat_ms=150.0, fraction=0.9),
        costs=CostModel.paper_defaults(),
        warmup_intervals=1,
    )
    before = PERF.get("form.store.pruned")
    dropped = PERF.get("form.store.dominated")
    form = build_formulation(problem, get_class(class_name).properties)
    assert PERF.get("form.store.pruned") > before
    assert PERF.get("form.store.dominated") > dropped
    solution = form.lp.solve(backend="scipy")
    assert solution.is_optimal
    report = audit_lp_solution(form.lp, solution, mode="full")
    assert "dual" in report.checks and not report.skipped
    assert report.ok, report.violations
