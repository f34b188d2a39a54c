"""Unit tests for sparse linear expressions."""

import pytest

from tests.lp.linexpr import ConstraintSpec, LinExpr


def test_term_builds_single_variable():
    e = LinExpr.term(3, 2.5)
    assert e.terms == {3: 2.5}
    assert e.constant == 0.0


def test_zero_coefficients_are_dropped():
    e = LinExpr({0: 0.0, 1: 1.0})
    assert 0 not in e.terms
    assert e.terms == {1: 1.0}


def test_sum_of_merges_duplicates():
    e = LinExpr.sum_of([(0, 1.0), (0, 2.0), (1, -1.0)])
    assert e.terms == {0: 3.0, 1: -1.0}


def test_addition_of_expressions():
    e = LinExpr.term(0) + LinExpr.term(1, 2.0)
    assert e.terms == {0: 1.0, 1: 2.0}


def test_addition_cancels_to_zero_removes_term():
    e = LinExpr.term(0, 1.0) + LinExpr.term(0, -1.0)
    assert e.terms == {}


def test_addition_of_constant():
    e = LinExpr.term(0) + 5
    assert e.constant == 5.0
    assert (3 + LinExpr.term(0)).constant == 3.0


def test_subtraction():
    e = LinExpr.term(0, 3.0) - LinExpr.term(0, 1.0)
    assert e.terms == {0: 2.0}
    assert (LinExpr.term(0) - 2).constant == -2.0


def test_rsub():
    e = 10 - LinExpr.term(0, 4.0)
    assert e.terms == {0: -4.0}
    assert e.constant == 10.0


def test_negation():
    e = -(LinExpr.term(0, 2.0) + 1)
    assert e.terms == {0: -2.0}
    assert e.constant == -1.0


def test_scalar_multiplication():
    e = 3 * (LinExpr.term(0, 2.0) + 1)
    assert e.terms == {0: 6.0}
    assert e.constant == 3.0


def test_multiplication_by_zero_empties_expression():
    e = 0 * LinExpr.term(0, 2.0)
    assert e.terms == {}
    assert e.constant == 0.0


def test_division():
    e = (LinExpr.term(0, 2.0) + 4) / 2
    assert e.terms == {0: 1.0}
    assert e.constant == 2.0


def test_value_evaluation():
    e = LinExpr.term(0, 2.0) + LinExpr.term(1, -1.0) + 3
    assert e.value([4.0, 1.0]) == pytest.approx(10.0)


def test_le_comparison_builds_spec():
    spec = LinExpr.term(0) + 2 <= 5
    assert isinstance(spec, ConstraintSpec)
    assert spec.sense == "<="
    assert spec.rhs == pytest.approx(3.0)
    assert spec.expr.terms == {0: 1.0}


def test_ge_comparison_builds_spec():
    spec = LinExpr.term(0) >= LinExpr.term(1) + 1
    assert spec.sense == ">="
    assert spec.rhs == pytest.approx(1.0)
    assert spec.expr.terms == {0: 1.0, 1: -1.0}


def test_eq_comparison_builds_spec():
    spec = LinExpr.term(0) == 7
    assert spec.sense == "=="
    assert spec.rhs == pytest.approx(7.0)


def test_comparison_folds_both_constants():
    spec = (LinExpr.term(0) + 2) <= (LinExpr.term(1) - 3)
    assert spec.rhs == pytest.approx(-5.0)


def test_copy_is_independent():
    e = LinExpr.term(0)
    c = e.copy()
    c.terms[1] = 9.0
    assert 1 not in e.terms


def test_repr_is_stable():
    assert "x0" in repr(LinExpr.term(0, 1.5))
    assert repr(LinExpr()) == "LinExpr(+0)"
