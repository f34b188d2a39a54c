"""Tests for the greedy rounding algorithm, including brute-force and
property-based soundness checks."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import compute_lower_bound
from repro.core.classes import FIGURE1_CLASSES, STANDARD_CLASSES, get_class
from repro.core.costs import CostModel
from repro.core.evaluate import meets_goal, qos_by_scope
from repro.core.formulation import build_formulation
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import HeuristicProperties, StorageConstraint
from repro.core.rounding import (
    _FRAC_TOL,
    _InstanceIndex,
    _repair,
    _Rounder,
    round_solution,
)
from repro.topology.generators import as_level_topology, star_topology
from repro.workload.demand import DemandMatrix
from tests.core.brute import brute_force_optimum
from tests.core.rounding_oracle import LoopRounder, loop_repair


def make_problem(reads, fraction, num_leaves, scope=GoalScope.PER_USER, **kwargs):
    topo = star_topology(num_leaves=num_leaves, hub_latency_ms=200.0)
    return MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=np.asarray(reads, dtype=float)),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction, scope=scope),
        costs=CostModel.paper_defaults(),
        **kwargs,
    )


def solve_and_round(problem, props=None, run_length=False):
    form = build_formulation(problem, props)
    assert not form.structurally_infeasible
    sol = form.lp.solve().require_optimal()
    return form, sol, round_solution(form, sol, run_length=run_length)


def test_rounded_solution_is_integral_and_feasible():
    reads = np.zeros((4, 2, 2))
    reads[1:, :, :] = 1
    problem = make_problem(reads, fraction=0.5, num_leaves=3)
    form, sol, rounding = solve_and_round(problem)
    assert rounding.feasible
    values = rounding.store
    assert np.all((values < 1e-9) | (values > 1 - 1e-9))
    assert meets_goal(form.instance, problem.goal, values)


def test_rounded_cost_at_least_lp():
    reads = np.zeros((4, 2, 2))
    reads[1:, :, :] = 1
    problem = make_problem(reads, fraction=0.5, num_leaves=3)
    form, sol, rounding = solve_and_round(problem)
    assert rounding.total_cost >= sol.objective - 1e-6


def test_rounding_tracks_counts():
    reads = np.zeros((4, 2, 2))
    reads[1:, :, :] = 1
    problem = make_problem(reads, fraction=0.5, num_leaves=3)
    _f, _s, rounding = solve_and_round(problem)
    assert rounding.rounded_up + rounding.rounded_down == rounding.fractional_units


def test_integral_lp_needs_no_rounding():
    reads = np.zeros((2, 2, 1))
    reads[1, :, 0] = 1
    problem = make_problem(reads, fraction=1.0, num_leaves=1)
    _f, _s, rounding = solve_and_round(problem)
    assert rounding.fractional_units == 0
    assert rounding.total_cost == pytest.approx(3.0)


def test_run_length_mode_feasible_and_close():
    reads = np.zeros((4, 3, 2))
    reads[1:, :, :] = 1
    problem = make_problem(reads, fraction=0.6, num_leaves=3)
    _f1, _s1, plain = solve_and_round(problem, run_length=False)
    _f2, _s2, rl = solve_and_round(problem, run_length=True)
    assert rl.feasible
    # Run-length rounding may cost slightly more, never catastrophically.
    assert rl.total_cost <= plain.total_cost * 1.5 + 1e-9


def test_rounding_respects_reactive_legality():
    # Reads in intervals 1 and 2 (interval 0 idle): a reactive class may
    # only create from interval 2 onward... actually interval 1 follows the
    # access at 1?  No: reactive needs a *strictly earlier* access, so
    # creations are legal at intervals 2+ only.  The rounded solution must
    # never imply an earlier creation.
    reads = np.zeros((3, 3, 1))
    reads[1, 1, 0] = 1
    reads[1, 2, 0] = 1
    reads[2, 2, 0] = 1
    problem = make_problem(reads, fraction=0.5, num_leaves=2)
    props = HeuristicProperties(reactive=True)
    form, sol, rounding = solve_and_round(problem, props)
    allowed = form.allowed_create
    store = rounding.store
    for ns in range(store.shape[0]):
        for k in range(store.shape[2]):
            prev = 0.0
            for i in range(store.shape[1]):
                if store[ns, i, k] > prev:
                    assert allowed[ns, i, k], f"illegal creation at {(ns, i, k)}"
                prev = store[ns, i, k]


def test_rounding_brute_force_sandwich_general():
    # LP <= brute-force IP optimum <= rounded feasible cost.
    reads = np.zeros((3, 2, 1))
    reads[1, 0, 0] = 2
    reads[1, 1, 0] = 1
    reads[2, 1, 0] = 3
    problem = make_problem(reads, fraction=0.6, num_leaves=2)
    form, sol, rounding = solve_and_round(problem)
    brute, _ = brute_force_optimum(problem)
    assert brute is not None
    assert sol.objective <= brute + 1e-6
    assert rounding.total_cost >= brute - 1e-6


def test_rounding_brute_force_sandwich_sc():
    reads = np.zeros((3, 2, 2))
    reads[1, :, 0] = 2
    reads[2, 1, 1] = 1
    problem = make_problem(reads, fraction=0.5, num_leaves=2)
    props = HeuristicProperties(storage_constraint=StorageConstraint.UNIFORM)
    form, sol, rounding = solve_and_round(problem, props)
    brute, _ = brute_force_optimum(problem, props)
    assert brute is not None
    assert sol.objective <= brute + 1e-6
    assert rounding.total_cost >= brute - 1e-6


def test_rounding_rejects_average_latency_goal():
    from repro.core.goals import AverageLatencyGoal

    reads = np.zeros((2, 1, 1))
    reads[1, 0, 0] = 1
    topo = star_topology(num_leaves=1, hub_latency_ms=200.0)
    problem = MCPerfProblem(
        topology=topo,
        demand=DemandMatrix(reads=reads),
        goal=AverageLatencyGoal(tavg_ms=100.0),
    )
    form = build_formulation(problem)
    with pytest.raises(TypeError):
        _Rounder(form, np.zeros((1, 1, 1)), run_length=False)


@st.composite
def random_instances(draw):
    num_leaves = draw(st.integers(min_value=1, max_value=3))
    intervals = draw(st.integers(min_value=1, max_value=3))
    objects = draw(st.integers(min_value=1, max_value=2))
    reads = np.zeros((num_leaves + 1, intervals, objects))
    for nd in range(1, num_leaves + 1):
        for i in range(intervals):
            for k in range(objects):
                reads[nd, i, k] = draw(st.integers(min_value=0, max_value=3))
    fraction = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    reactive = draw(st.booleans())
    sc = draw(st.booleans())
    props = HeuristicProperties(
        reactive=reactive,
        storage_constraint=StorageConstraint.UNIFORM if sc else StorageConstraint.NONE,
    )
    return reads, fraction, num_leaves, props


@settings(max_examples=40, deadline=None)
@given(random_instances())
def test_rounding_soundness_random(case):
    """On every feasible random instance: rounded solution is integral,
    feasible, legal for the class, and costs at least the LP bound."""
    reads, fraction, num_leaves, props = case
    if reads.sum() == 0:
        return
    problem = make_problem(
        reads, fraction=fraction, num_leaves=num_leaves, scope=GoalScope.OVERALL
    )
    result = compute_lower_bound(problem, props)
    if not result.feasible:
        return
    rounding = result.rounding
    assert rounding is not None
    assert rounding.feasible
    store = rounding.store
    assert np.all((store < 1e-9) | (store > 1 - 1e-9))
    assert rounding.total_cost >= result.lp_cost - 1e-6
    inst = problem.instance(props)
    assert meets_goal(inst, problem.goal, store)


# -- the array rounder against the frozen per-cell loop ------------------------


@st.composite
def oracle_cases(draw):
    """A small instance with a fractional LP point.  An AS-level topology
    lets several demanders reach each storer and the origin cover some; a
    symmetric star (equal demand at every leaf, interval and object) makes
    many units tie on price, so the (ns, start, k) tie-break decides."""
    nodes = draw(st.integers(min_value=4, max_value=6))
    intervals = draw(st.integers(min_value=2, max_value=5))
    objects = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        topology = star_topology(num_leaves=nodes - 1, hub_latency_ms=200.0)
        reads = np.full((nodes, intervals, objects), float(draw(st.integers(1, 3))))
        reads[0] = 0.0
    else:
        topology = as_level_topology(num_nodes=nodes, seed=draw(st.integers(0, 20)))
        reads = np.array(
            draw(
                st.lists(
                    st.sampled_from([0, 0, 1, 1, 2]),
                    min_size=nodes * intervals * objects,
                    max_size=nodes * intervals * objects,
                )
            ),
            dtype=float,
        ).reshape(nodes, intervals, objects)
    initial = None
    if draw(st.booleans()):
        initial = np.array(
            draw(st.lists(st.booleans(), min_size=nodes * objects, max_size=nodes * objects)),
            dtype=float,
        ).reshape(nodes, objects)
    problem = MCPerfProblem(
        topology=topology,
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(
            tlat_ms=draw(st.sampled_from([120.0, 150.0, 200.0])),
            fraction=draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
            scope=draw(st.sampled_from(list(GoalScope))),
        ),
        costs=CostModel.paper_defaults(),
        initial_placement=initial,
        warmup_intervals=draw(st.integers(min_value=0, max_value=1)),
    )
    cls = draw(st.sampled_from(FIGURE1_CLASSES))
    return problem, get_class(cls).properties, draw(st.booleans())


def unit_demand_star(leaves, intervals, objects, goal, cls, run_length, initial=None):
    """A star with one read per leaf, interval and object (pinned cases)."""
    reads = np.ones((leaves + 1, intervals, objects))
    reads[0] = 0.0
    problem = MCPerfProblem(
        topology=star_topology(num_leaves=leaves, hub_latency_ms=200.0),
        demand=DemandMatrix(reads=reads),
        goal=goal,
        costs=CostModel.paper_defaults(),
        initial_placement=None if initial is None else np.array(initial, dtype=float),
    )
    return problem, get_class(cls).properties, run_length


# Shrunk counterexamples for swapped tie-break keys ((ns, start), (start, k))
# and a swapped round-down (ratio, savings) key; random draws find those
# only sometimes.
@example(unit_demand_star(3, 2, 2, QoSGoal(120.0, 0.5), "replica-constrained", False))
@example(
    unit_demand_star(
        4, 2, 3, QoSGoal(120.0, 0.3, GoalScope.PER_OBJECT), "storage-constrained", False,
        initial=[[0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
)
@example(
    unit_demand_star(
        4, 3, 3, QoSGoal(120.0, 0.5, GoalScope.OVERALL), "caching", True,
        initial=[[0, 0, 0], [0, 1, 0], [0, 1, 1], [0, 1, 0], [0, 0, 1]],
    )
)
@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_array_rounder_matches_loop_oracle(case):
    """Same units, same round-up/round-down choices, same placement bytes."""
    problem, props, run_length = case
    if problem.demand.reads.sum() == 0:
        return
    form = build_formulation(problem, props)
    if form.structurally_infeasible:
        return
    sol = form.lp.solve()
    if not sol.is_optimal:
        return
    store = form.store_array(sol.values)
    np.clip(store, 0.0, 1.0, out=store)
    assert_rounds_like_loop(form, store, run_length)


def assert_rounds_like_loop(form, store, run_length):
    oracle = LoopRounder(form, store.copy(), run_length=run_length)
    rounder = _Rounder(form, store.copy(), run_length=run_length)
    assert len(rounder.units) == len(oracle.units)
    assert rounder.run() == oracle.run()
    assert rounder.store.tobytes() == oracle.store.tobytes()


@st.composite
def striped_cases(draw):
    """A bigger instance (up to 9 nodes, 8 intervals, 4 objects) with its LP
    point or with a synthetic store whose columns are runs of fractional
    values back to back.  Adjacent units share a run boundary, so rounding
    one changes its neighbours' creation cost: a neighbour priced from a
    stale boundary value picks differently.  Values within 1e-9 of a run's
    first value join the run without equalling it, and values at the snap
    and integral-count thresholds sit next to them."""
    nodes = draw(st.integers(min_value=5, max_value=9))
    intervals = draw(st.integers(min_value=3, max_value=8))
    objects = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reads = rng.choice([0.0, 0.0, 1.0, 2.0, 5.0], size=(nodes, intervals, objects))
    initial = (rng.random((nodes, objects)) < 0.3).astype(float) if draw(st.booleans()) else None
    problem = MCPerfProblem(
        topology=as_level_topology(num_nodes=nodes, seed=draw(st.integers(0, 20))),
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(
            tlat_ms=draw(st.sampled_from([120.0, 150.0, 200.0])),
            fraction=draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
            scope=draw(st.sampled_from(list(GoalScope))),
        ),
        costs=CostModel.paper_defaults(),
        initial_placement=initial,
        warmup_intervals=draw(st.integers(min_value=0, max_value=1)),
    )
    form = build_formulation(problem, get_class(draw(st.sampled_from(FIGURE1_CLASSES))).properties)
    run_length = draw(st.booleans())
    if draw(st.booleans()):
        if form.structurally_infeasible:
            return form, None, run_length
        sol = form.lp.solve()
        if not sol.is_optimal:
            return form, None, run_length
        store = form.store_array(sol.values)
        np.clip(store, 0.0, 1.0, out=store)
        return form, store, run_length
    palette = [0.0, 1.0, 0.25, 0.5, 0.75, 0.4, 1e-7, 1.0 - _FRAC_TOL, 1.0 - 1e-7]
    store = np.zeros(form.store_idx.shape)
    for ns in range(store.shape[0]):
        for k in range(store.shape[2]):
            i = 0
            while i < intervals:
                run = int(rng.integers(1, 4))
                value = palette[int(rng.integers(len(palette)))]
                jitter = rng.choice([0.0, 4e-10, -4e-10], size=run)
                store[ns, i : i + run, k] = np.clip(value + jitter[: intervals - i], 0.0, 1.0)
                i += run
    return form, store, run_length


@settings(max_examples=120, deadline=None)
@given(striped_cases())
def test_array_rounder_matches_loop_oracle_on_bigger_and_striped_stores(case):
    form, store, run_length = case
    if store is None:
        return
    assert_rounds_like_loop(form, store, run_length)


@pytest.mark.parametrize("intervals, objects", [(1, 1), (1, 3), (4, 2)])
def test_coverage_is_the_einsum_coverage_to_the_bit(intervals, objects):
    """The rounder sums coverage at the live cells only; it must be the
    full einsum's floats, including the one-column store einsum takes as a
    dot product."""
    rng = np.random.default_rng(3)
    reads = rng.choice([0.0, 1.0, 2.0], size=(24, intervals, objects))
    problem = MCPerfProblem(
        topology=as_level_topology(num_nodes=24, seed=4),
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=400.0, fraction=0.5),
    )
    form = build_formulation(problem, get_class("general").properties)
    index = _InstanceIndex(form.instance, problem.goal.scope)
    assert index.live_nd.size > 0
    for _ in range(5):
        store = rng.random(form.store_idx.shape) ** 3
        full = np.einsum("ds,sik->dik", form.instance.reach.astype(float), store)
        expected = full.reshape(full.shape[0], -1)[index.live_nd, index.live_ik]
        assert index.coverage(store).tobytes() == expected.tobytes()


@pytest.mark.parametrize("cls", ["general", "storage-constrained"])
def test_retargeted_formulation_rounds_like_fresh_ones(cls, web_problem):
    """One formulation re-targeted across drift-sized and coarse levels
    rounds each LP point exactly as a formulation built fresh at that level:
    the instance index it reuses carries nothing of an earlier level."""
    props = get_class(cls).properties
    form = build_formulation(web_problem, props)
    index = None
    for fraction in (0.9, 0.9001, 0.9002, 0.95, 0.7, 0.7001, 0.9):
        form.set_qos_fraction(fraction)
        sol = form.lp.solve().require_optimal()
        fresh = build_formulation(_at_level(web_problem, fraction), props)
        assert fresh.store_idx.tobytes() == form.store_idx.tobytes()
        store = form.store_array(sol.values)
        np.clip(store, 0.0, 1.0, out=store)
        reused = _Rounder(form, store.copy(), run_length=False)
        built = _Rounder(fresh, store.copy(), run_length=False)
        index = index or form.rounding_index
        assert form.rounding_index is index is not fresh.rounding_index
        assert reused._floor == built._floor
        assert reused._sat == built._sat
        assert reused.run() == built.run()
        assert reused.store.tobytes() == built.store.tobytes()
        assert_rounds_like_loop(form, store, run_length=False)
        assert _payload_line(round_solution(form, sol, audit="off")) == _payload_line(
            round_solution(fresh, sol, audit="off")
        )


@pytest.mark.parametrize("cls, fraction", [("general", 0.9), ("cooperative-caching", 0.8)])
def test_repair_restores_goal_with_permitted_replicas(cls, fraction):
    """Dropping replicas from a rounded placement at warm-up 1: repair brings
    the goal back, only on cells the class may hold and create on, and picks
    the same replicas as the loop that re-read the QoS reads per demander."""
    rng = np.random.default_rng(5)
    reads = rng.choice([0.0, 1.0, 3.0], size=(6, 4, 3))
    problem = MCPerfProblem(
        topology=as_level_topology(num_nodes=6, seed=3),
        demand=DemandMatrix(reads=reads),
        goal=QoSGoal(tlat_ms=150.0, fraction=fraction),
        warmup_intervals=1,
    )
    form = build_formulation(problem, get_class(cls).properties)
    sol = form.lp.solve().require_optimal()
    rounded = round_solution(form, sol, audit="off").store
    held = np.argwhere(rounded >= 0.5)
    assert len(held) >= 2
    dropped = rounded.copy()
    for ns, i, k in held[: len(held) // 2]:
        dropped[ns, i, k] = 0.0
    assert not meets_goal(form.instance, problem.goal, dropped)

    store, expected = dropped.copy(), dropped.copy()
    added, achieved = _repair(form, store)
    assert added == loop_repair(form, expected) > 0
    assert achieved == qos_by_scope(form.instance, problem.goal, store)
    assert store.tobytes() == expected.tobytes()
    assert meets_goal(form.instance, problem.goal, store)
    allowed = form.allowed_create
    for ns, i, k in np.argwhere(store > dropped):
        assert form.store_idx[ns, i, k] >= 0
        assert (
            allowed is None
            or allowed[ns, i, k]
            or (i > 0 and store[ns, i - 1, k] >= 0.5)
        ), f"replica added where no create is permitted: {(ns, i, k)}"


def test_rounding_reports_the_final_placements_qos_once_evaluated(web_problem):
    """``qos`` and ``feasible`` describe the final store, with or without
    repair: an empty placement left unrepaired is short of the goal."""
    from types import SimpleNamespace

    form = build_formulation(web_problem, get_class("general").properties)
    goal = web_problem.goal
    empty = SimpleNamespace(values=np.zeros(form.lp.num_variables))
    short = round_solution(form, empty, repair=False, audit="off")
    assert short.qos == qos_by_scope(form.instance, goal, short.store)
    assert short.feasible is False and not meets_goal(form.instance, goal, short.store)

    repaired = round_solution(form, empty, audit="off")
    assert repaired.repaired > 0
    assert repaired.qos == qos_by_scope(form.instance, goal, repaired.store)
    assert repaired.feasible is True and meets_goal(form.instance, goal, repaired.store)


# -- pinned placements ------------------------------------------------------------

#: SHA-256 over every class's ``RoundingResult.to_dict()`` (one JSON line
#: per level and run-length mode, "infeasible" for an infeasible LP) on the
#: tier-1 fixtures.  A rounder rewrite must reproduce each to the byte.
GREEDY_PINS = {
    "web": {
        "general": "2a9246dbf01253a26d833f83a9d0b7ee81ac29a5535041897fa604042d89488d",
        "storage-constrained": "7b658e8a81873c2f9c0778400a1d94518d1f1b1d4fddc1afe562c8a46a2b1920",
        "storage-constrained-per-node": "d6ed2e61a36c84c3f619f522a715e0d9fa355fb25b090baa54d5d703b2737e98",
        "replica-constrained": "af9d9c808a5b9e7334192222d214f51b6912ec7d85a6e6651e49629991d85854",
        "replica-constrained-per-object": "622327002f9e776671989f5a73bb28a2c8f7c4096f42c07f2ae00836484e21dd",
        "decentralized-local-routing": "49c0baf56a323fd5c1b9af4320f135088ac84df12e564ff3246797d47c688bac",
        "caching": "2285e1c92dabd4d9aa9cd11930cf8f46011d532f05b1f01df343570846ee3fcc",
        "cooperative-caching": "f7e49f54779aa039211659d8e1cd2fe355ba6b12859dc044f478b40fa4bf3b1d",
        "caching-prefetch": "f131ba4e8b1dedf3111e76bedc1a93e4c6ce03c83ecfd2c1ebd2541c25360469",
        "cooperative-caching-prefetch": "7717ba5d034ae03dea34093e77a7f5605be9ddfc6032940cc6a48048e3eaa1cf",
        "reactive": "96f3fa45761093c56807f6c1a6fa45e71f80d9207902512d302231b8b2c131a6",
    },
    "group": {
        "general": "0d3d8b99a46ec88aab4536650dea5b874a98c7d1b6e18c6716c732f64d0c427b",
        "storage-constrained": "b6467d9a898b6249d7c3a43687c4c0cdae7f86352429bde3370bc338ddd392e6",
        "storage-constrained-per-node": "6410cc9440573a6c6648f120435bef4664de16815e40c4978552446626f4dadf",
        "replica-constrained": "bea5e562382bc4e127631f87f2b392931e12b7d8e768bb2d47cbb95bdc4de5f6",
        "replica-constrained-per-object": "7d887a30dd6ea1d3e20f11243a20b2efa115e61d8094b106630f6ee78ca4a9ba",
        "decentralized-local-routing": "5e2ce9b1d0e2ded591386e0b387b4abac396dc3356fef7e0eb4d547d141f1229",
        "caching": "c3ada654827ecf8c450112c557e194745d98078161aaf9580a686dd3d25bbd66",
        "cooperative-caching": "11a7783fd3e955555653ceeee099df9108f7213beb6da53e953f74498ee3c3a8",
        "caching-prefetch": "f97ffaf527a7fbe48c8943ad13891f0fbb705fa978cf1b4edb0ed4eae6dfd9a7",
        "cooperative-caching-prefetch": "eda76a63b4489bab49bea950edaabbd04731295569281623ad189184f035a431",
        "reactive": "9e1916223c257e89bd4b1fcc42eb29e9bcde167fb9913dd546aa586ac2e81db8",
    },
}
PIN_LEVELS = {"web": (0.6, 0.75, 0.9), "group": (0.5, 0.8, 0.95)}


def _at_level(problem, fraction):
    return dataclasses.replace(problem, goal=dataclasses.replace(problem.goal, fraction=fraction))


def _payload_line(result):
    return json.dumps(result.to_dict(), sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize("family", sorted(GREEDY_PINS))
def test_greedy_rounding_is_pinned_for_every_class(family, web_problem, group_problem):
    """Every class at three QoS levels, with and without run-length units."""
    problem = {"web": web_problem, "group": group_problem}[family]
    digests = {}
    for cls in STANDARD_CLASSES:
        digest = hashlib.sha256()
        for fraction in PIN_LEVELS[family]:
            form = build_formulation(_at_level(problem, fraction), get_class(cls).properties)
            sol = form.lp.solve()
            if not sol.is_optimal:
                digest.update(b"infeasible\n")
                continue
            for run_length in (False, True):
                rounded = round_solution(form, sol, run_length=run_length, audit="off")
                digest.update(_payload_line(rounded))
        digests[cls] = digest.hexdigest()
    assert digests == GREEDY_PINS[family]
