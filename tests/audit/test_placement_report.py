"""Creation legality on arrays matches the per-cell walk it replaced."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.audit.certificates import _placement_report
from repro.core.classes import get_class
from repro.core.costs import CostModel
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import star_topology
from repro.workload.demand import DemandMatrix
from tests.audit.certificate_oracle import oracle_placement_report
from tests.conftest import make_trace

PROPS = get_class("caching").properties
GOAL = QoSGoal(tlat_ms=50.0, fraction=0.5)
COSTS = CostModel.paper_defaults()


@pytest.fixture(scope="module")
def instance():
    """A 4-node star, 3 objects, 4 intervals."""
    trace = make_trace(
        [(10, 1, 0), (40, 2, 1), (70, 3, 2), (100, 1, 1), (130, 2, 0), (160, 3, 0)],
        duration_s=200.0,
        num_nodes=4,
        num_objects=3,
    )
    problem = MCPerfProblem(
        topology=star_topology(num_leaves=3, hub_latency_ms=100.0),
        demand=DemandMatrix.from_trace(trace, num_intervals=4),
        goal=GOAL,
        costs=COSTS,
    )
    return problem.instance(PROPS)


# Mostly 0/1, with fractional values on both sides of every tested tol.
_values = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, 0.3, 1e-7, 1 - 1e-7, 2e-6, 0.95])


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    tol=st.sampled_from([0.0, 1e-9, 1e-6, 0.1, 0.6]),
    max_reported=st.integers(-1, 12),
    count_opening=st.booleans(),
)
def test_array_legality_matches_the_cell_walk(instance, data, tol, max_reported, count_opening):
    shape = (instance.num_storers, instance.num_intervals, instance.num_objects)
    store = data.draw(arrays(np.float64, shape, elements=_values), label="store")
    allowed = data.draw(
        st.none() | arrays(np.bool_, shape, elements=st.booleans()), label="allowed"
    )
    initial = data.draw(
        st.none() | arrays(np.float64, (shape[0], shape[2]), elements=_values),
        label="initial",
    )
    lowered = dataclasses.replace(instance, initial_store=initial)
    args = (lowered, PROPS, GOAL, COSTS, store, allowed, count_opening, tol, max_reported)

    expected = oracle_placement_report(*args)
    got = _placement_report(*args)
    assert got.creation_legal == expected.creation_legal
    assert got.valid == expected.valid
    assert got.problems == expected.problems


def test_offenders_are_named_in_storer_object_interval_order(instance):
    shape = (instance.num_storers, instance.num_intervals, instance.num_objects)
    store = np.zeros(shape)
    store[0, 2, 0] = store[0, 1, 2] = store[1, 0, 1] = 1.0
    args = (instance, PROPS, GOAL, COSTS, store, np.zeros(shape, dtype=bool), False, 1e-6)

    report = _placement_report(*args, 10)
    creations = [p for p in report.problems if p.startswith("creation")]
    assert [c.split()[2] for c in creations] == [
        "store[0,2,0]", "store[0,1,2]", "store[1,0,1]",
    ]
    assert not report.creation_legal and not report.valid
    cut = _placement_report(*args, 2)
    assert [p for p in cut.problems if p.startswith("creation")] == creations[:2]
