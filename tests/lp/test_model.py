"""Unit tests for the LP model container."""

import numpy as np
import pytest

from repro.audit import check_solution
from repro.errors import ValidationError
from repro.lp.model import LinearProgram, Names, Sense
from repro.lp.scipy_backend import solve_mip
from repro.lp.solution import SolveStatus
from tests.lp.linexpr import LinExpr, add_expr


def test_var_assigns_sequential_indices():
    lp = LinearProgram()
    x = lp.var("x")
    y = lp.var("y")
    assert (x, y) == (0, 1)


def test_duplicate_variable_name_rejected():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(ValueError, match="duplicate"):
        lp.var("x")


def test_invalid_bounds_rejected():
    lp = LinearProgram()
    with pytest.raises(ValueError):
        lp.var("x", lower=2.0, upper=1.0)


def test_add_vars_bulk_names_and_range():
    lp = LinearProgram()
    lp.var("x")
    rng = lp.add_vars_bulk(Names("s", {"n": [4, 5, 6], "i": [0, 0, 1]}), upper=1.0, obj=2.0)
    assert list(rng) == [1, 2, 3]
    assert lp.var_names() == ["x", "s[n4,i0]", "s[n5,i0]", "s[n6,i1]"]
    assert lp.var_name(3) == "s[n6,i1]"
    assert lp.column("s[n5,i0]") == 2
    assert lp.assembled().c[lp.column("s[n5,i0]")] == 2.0


def test_fixed_column_bounds():
    lp = LinearProgram()
    x = lp.var("x", upper=5.0)
    lp.set_bounds(x, 2.0, 2.0)
    assert lp.assembled().lb[0] == 2.0
    assert lp.assembled().ub[0] == 2.0


def test_add_expression_constraint():
    lp = LinearProgram()
    x = LinExpr.term(lp.var("x"))
    y = LinExpr.term(lp.var("y"))
    row = add_expr(lp, x + 2 * y <= 4, name="cap")
    arrays = lp.assembled()
    assert arrays.sense[row] == Sense.LE.code
    assert arrays.row_upper[row] == 4.0
    assert arrays.row_lower[row] == -np.inf
    lo, hi = arrays.indptr[row], arrays.indptr[row + 1]
    assert sorted(zip(arrays.indices[lo:hi], arrays.data[lo:hi])) == [(0, 1.0), (1, 2.0)]
    assert lp.row_name(row) == "cap"


def test_add_rejects_non_spec():
    lp = LinearProgram()
    with pytest.raises(TypeError):
        add_expr(lp, "x <= 1")  # type: ignore[arg-type]


def test_add_row_length_mismatch():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(ValueError):
        lp.add_row([0], [1.0, 2.0], "<=", 1.0)


def test_add_row_unknown_variable():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(IndexError):
        lp.add_row([5], [1.0], "<=", 1.0)


def test_add_row_bad_sense():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(ValueError):
        lp.add_row([0], [1.0], "!!", 1.0)


def test_add_row_repeated_column_rejected():
    # HiGHS rejects such a row; the solve used to call the feasible LP infeasible.
    lp = LinearProgram()
    x = lp.var("x", upper=5.0, obj=1.0)
    with pytest.raises(ValidationError, match="row 'cover' names column 'x' twice"):
        lp.add_row([x, x], [1.0, 1.0], ">=", 1.0, name="cover")
    assert lp.num_constraints == 0
    assert lp.solve().is_optimal


def test_add_rows_bulk_repeated_column_named_by_row():
    lp = LinearProgram()
    lp.add_vars_bulk(["a", "b", "c"])
    # Row 1 repeats column c out of order; rows 0 and 2 share columns legally.
    with pytest.raises(ValidationError, match="row 'c1' names column 'c' twice"):
        lp.add_rows_bulk([0, 2, 5, 7], [0, 1, 2, 0, 2, 0, 1], [1.0] * 7, ">=", [1.0] * 3)
    family = Names("cap", {"n": [4, 5]})
    with pytest.raises(ValidationError, match=r"row 'cap\[n5\]' names column 'a' twice"):
        lp.add_rows_bulk([0, 1, 3], [0, 0, 0], [1.0] * 3, "<=", [1.0] * 2, names=family)
    lp.add_rows_bulk([0, 2, 4], [0, 1, 1, 0], [1.0] * 4, ">=", [1.0] * 2)
    assert lp.num_constraints == 2


def test_rejected_model_is_an_error_not_infeasible():
    # An infinite matrix entry, written past add_row's check into the
    # assembled arrays, reaches HiGHS, which refuses the model.
    lp = LinearProgram()
    x = lp.var("x", upper=5.0, obj=1.0)
    lp.add_row([x], [1.0], ">=", 1.0)
    lp.assembled().data[0] = np.inf
    solution = lp.solve()
    assert solution.status is SolveStatus.ERROR
    assert solution.message == "Model error"
    assert solve_mip(lp, [x]).status is SolveStatus.ERROR


@pytest.mark.parametrize(
    "lower, upper, obj, message",
    [
        (0.0, 5.0, np.nan, "variable 'x': non-finite cost nan"),
        (0.0, 5.0, np.inf, "variable 'x': non-finite cost inf"),
        (0.0, 5.0, -np.inf, "variable 'x': non-finite cost -inf"),
        (np.nan, 5.0, 1.0, r"variable 'x': NaN bound \[nan, 5.0\]"),
        (0.0, np.nan, 1.0, r"variable 'x': NaN bound \[0.0, nan\]"),
    ],
)
def test_non_finite_column_input_refused(lower, upper, obj, message):
    lp = LinearProgram()
    with pytest.raises(ValidationError, match=message):
        lp.var("x", lower=lower, upper=upper, obj=obj)
    assert lp.num_variables == 0


def test_non_finite_column_named_within_a_family():
    lp = LinearProgram()
    family = Names("store", {"n": [3, 4, 5]})
    with pytest.raises(ValidationError, match=r"variable 'store\[n4\]': non-finite cost nan"):
        lp.add_vars_bulk(family, obj=[1.0, np.nan, 1.0])


def test_infinite_bounds_stay_legal():
    lp = LinearProgram()
    x = lp.var("x", lower=-np.inf, upper=np.inf, obj=0.0)
    y = lp.var("y", lower=1.0, upper=np.inf, obj=1.0)
    lp.add_row([x, y], [1.0, 1.0], "<=", np.inf)
    lp.add_row([x], [1.0], "==", 0.0)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.objective == pytest.approx(1.0)


@pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_refused(coeff):
    # Used to solve to "infeasible" (NaN) or a model error (inf).
    lp = LinearProgram()
    x = lp.var("x", upper=5.0, obj=1.0)
    with pytest.raises(
        ValidationError, match=f"row 'cover' has a non-finite coefficient {coeff} on column 'x'"
    ):
        lp.add_row([x], [coeff], ">=", 1.0, name="cover")
    assert lp.num_constraints == 0


def test_non_finite_coefficient_named_by_row_in_bulk():
    lp = LinearProgram()
    lp.add_vars_bulk(["a", "b"])
    message = "row 'c1' has a non-finite coefficient nan on column 'b'"
    with pytest.raises(ValidationError, match=message):
        lp.add_rows_bulk([0, 2, 4], [0, 1, 0, 1], [1.0, 1.0, 1.0, np.nan], ">=", [1.0, 1.0])


def test_nan_rhs_refused():
    lp = LinearProgram()
    x = lp.var("x", upper=5.0, obj=1.0)
    with pytest.raises(ValidationError, match="row 'c0' has a NaN right-hand side"):
        lp.add_row([x], [1.0], ">=", np.nan)
    family = Names("cap", {"n": [7, 8]})
    with pytest.raises(ValidationError, match=r"row 'cap\[n8\]' has a NaN right-hand side"):
        lp.add_rows_bulk([0, 1, 2], [0, 0], [1.0, 1.0], "<=", [1.0, np.nan], names=family)
    assert lp.num_constraints == 0


def test_constraint_activity_and_satisfied():
    lp = LinearProgram()
    lp.var("x")
    lp.var("y")
    row = lp.add_row([0, 1], [1.0, 1.0], "<=", 3.0)
    activity, _senses, _rhs = lp.row_activities([1.0, 1.0])
    assert activity[row] == pytest.approx(2.0)
    assert check_solution(lp, [1.0, 1.0]).feasible
    assert not check_solution(lp, [2.0, 2.0]).feasible


def test_equality_constraint_satisfied():
    lp = LinearProgram()
    lp.var("x")
    lp.add_row([0], [1.0], "==", 2.0)
    assert check_solution(lp, [2.0]).feasible
    assert not check_solution(lp, [2.1]).feasible


def test_assembled_rows_keep_model_order_and_signs():
    lp = LinearProgram()
    lp.var("x", obj=1.0)
    lp.var("y", obj=2.0, upper=4.0)
    lp.add_row([0, 1], [1.0, 1.0], ">=", 2.0)
    lp.add_row([0], [1.0], "<=", 5.0)
    lp.add_row([1], [1.0], "==", 3.0)
    a = lp.assembled()
    assert a.c.tolist() == [1.0, 2.0]
    assert a.lb.tolist() == [0.0, 0.0]
    assert a.ub.tolist() == [np.inf, 4.0]
    assert a.indptr.tolist() == [0, 2, 3, 4]
    assert a.indices.tolist() == [0, 1, 0, 1]
    # The >= row keeps its own signs; its rhs is its lower bound.
    assert a.data.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert a.sense.tolist() == [Sense.GE.code, Sense.LE.code, Sense.EQ.code]
    assert a.row_lower.tolist() == [2.0, -np.inf, 3.0]
    assert a.row_upper.tolist() == [np.inf, 5.0, 3.0]
    assert a.rhs().tolist() == [2.0, 5.0, 3.0]


def test_set_objective():
    lp = LinearProgram()
    x = lp.var("x", obj=1.0)
    lp.set_objective(x, 5.0)
    assert lp.assembled().c[0] == 5.0


def test_solve_unknown_backend():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(ValueError, match="backend"):
        lp.solve(backend="cplex")


def test_empty_model_solves_to_zero():
    lp = LinearProgram()
    sol = lp.solve()
    assert sol.is_optimal
    assert sol.objective == 0.0


@pytest.mark.parametrize(
    "sense, rhs, feasible",
    [
        ("<=", -1.0, False), ("<=", 0.0, True), ("<=", 1.0, True),
        (">=", 1.0, False), (">=", 0.0, True), (">=", -1.0, True),
        ("==", 1.0, False), ("==", 0.0, True),
    ],
)
def test_model_without_columns_reads_its_rows(sense, rhs, feasible):
    """A row over no columns has activity 0: it holds iff its bounds admit 0,
    as it does on a model with columns."""
    lp = LinearProgram()
    lp.add_row([], [], sense, rhs)
    with_column = LinearProgram()
    with_column.var("x")
    with_column.add_row([], [], sense, rhs)
    for model in (lp, with_column):
        sol = model.solve()
        assert sol.is_optimal is feasible, model
        if not feasible:
            assert sol.status.value == "infeasible"
        integral = solve_mip(model, range(model.num_variables))
        assert integral.status.value == ("optimal" if feasible else "infeasible"), model


def test_repr_mentions_sizes():
    lp = LinearProgram(name="m")
    lp.var("x")
    lp.add_row([0], [1.0], "<=", 1.0)
    assert "vars=1" in repr(lp)
    assert "constraints=1" in repr(lp)
