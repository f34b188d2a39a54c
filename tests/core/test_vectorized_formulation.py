"""Vectorized formulation assembly vs. the frozen row-at-a-time oracle.

The vectorized builder must be a pure speedup: same variables,
same rows, same solver arrays.  Names, senses, indices and coefficients are
compared exactly; RHS values and the objective constant get 1e-9 tolerance
(the vectorized path regroups floating-point sums).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.classes import FIGURE1_CLASSES, get_class
from repro.core.formulation import build_formulation
from repro.perf import PERF
from tests.core.formulation_oracle import build_formulation_loops


def assert_formulations_equivalent(legacy, vectorized):
    lp_l, lp_v = legacy.lp, vectorized.lp
    assert lp_l.num_variables == lp_v.num_variables
    assert lp_l.num_constraints == lp_v.num_constraints
    assert lp_l.var_names() == lp_v.var_names()
    assert lp_l.row_names() == lp_v.row_names()
    a_l, a_v = lp_l.assembled(), lp_v.assembled()
    for name in ("lb", "ub", "sense", "indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a_l, name), getattr(a_v, name), err_msg=name)
    for name in ("c", "row_lower", "row_upper"):
        np.testing.assert_allclose(getattr(a_l, name), getattr(a_v, name), atol=1e-9, err_msg=name)
    assert legacy.objective_constant == pytest.approx(
        vectorized.objective_constant, abs=1e-9
    )
    # The index structures the rounding/simulation layers read must agree too.
    np.testing.assert_array_equal(legacy.store_idx, vectorized.store_idx)
    np.testing.assert_array_equal(legacy.create_idx, vectorized.create_idx)


@pytest.mark.parametrize("class_name", FIGURE1_CLASSES)
def test_vectorized_matches_legacy(web_problem, class_name):
    props = get_class(class_name).properties
    legacy = build_formulation_loops(web_problem, props)
    vectorized = build_formulation(web_problem, props)
    assert_formulations_equivalent(legacy, vectorized)


def test_vectorized_matches_legacy_group_workload(group_problem):
    props = get_class("cooperative-caching").properties
    legacy = build_formulation_loops(group_problem, props)
    vectorized = build_formulation(group_problem, props)
    assert_formulations_equivalent(legacy, vectorized)


def test_vectorized_matches_legacy_with_initial_placement(web_problem):
    rng = np.random.default_rng(3)
    n = web_problem.topology.num_nodes
    k = web_problem.demand.num_objects
    initial = (rng.random((n, k)) < 0.2).astype(np.int8)
    problem = dataclasses.replace(web_problem, initial_placement=initial)
    for class_name in ["general", "caching"]:
        props = get_class(class_name).properties
        legacy = build_formulation_loops(problem, props)
        vectorized = build_formulation(problem, props)
        assert_formulations_equivalent(legacy, vectorized)


def test_build_counters(web_problem):
    before = PERF.get("form.build.vectorized")
    build_formulation(web_problem, None)
    assert PERF.get("form.build.vectorized") == before + 1


def test_retarget_reuses_assembly(web_problem):
    """set_qos_fraction is RHS-only: no assembly rebuild across sweep levels."""
    form = build_formulation(web_problem, None)
    form.lp.assembled()
    rebuilds = PERF.get("lp.assembly.rebuild")
    retargets = PERF.get("form.retarget")
    for fraction in (0.8, 0.95, 0.9):
        form.set_qos_fraction(fraction)
        form.lp.assembled()
    assert PERF.get("lp.assembly.rebuild") == rebuilds
    assert PERF.get("form.retarget") == retargets + 3
