"""Patch API and assembled-array tests (ISSUE 4 hot-path layer).

The invariant under test throughout: a model mutated through the patch API
(``set_bounds`` / ``set_rhs`` / ``set_objective``) hands the
solver exactly the arrays a model built with the patched values would —
without joining its chunks again.
"""

import pickle

import numpy as np
import pytest

from repro.lp.model import LinearProgram, Sense
from repro.perf import PERF

FIELDS = ("c", "lb", "ub", "indptr", "indices", "data", "sense", "row_lower", "row_upper")


def small_lp(bounds=None, rhs=None):
    """3 vars, mixed senses: one LE row, one GE row, one EQ row.

    ``bounds``/``rhs`` map a column/row to the values it is built with.
    """
    bounds, rhs = bounds or {}, rhs or {}
    lp = LinearProgram(name="patch-test")
    for j, (name, obj) in enumerate((("x", 1.0), ("y", 2.0), ("z", 0.5))):
        lower, upper = bounds.get(j, (0.0, 4.0))
        lp.var(name, lower=lower, upper=upper, obj=obj)
    lp.add_row([0, 1], [1.0, 1.0], "<=", rhs.get(0, 5.0), name="le")
    lp.add_row([0, 2], [1.0, 1.0], ">=", rhs.get(1, 2.0), name="ge")
    lp.add_row([1, 2], [1.0, -1.0], "==", rhs.get(2, 0.5), name="eq")
    return lp


def bulk_lp(nrows=12, nvars=6):
    """A model whose rows all come from one add_rows_bulk block (GE sense)."""
    lp = LinearProgram(name="bulk-test")
    lp.add_vars_bulk([f"x[{j}]" for j in range(nvars)], upper=1.0, obj=1.0)
    indices = np.array([[j % nvars, (j + 1) % nvars] for j in range(nrows)]).ravel()
    coeffs = np.ones(2 * nrows)
    indptr = np.arange(0, 2 * nrows + 1, 2)
    rhs = np.linspace(0.1, 0.5, nrows)
    lp.add_rows_bulk(indptr, indices, coeffs, ">=", rhs)
    return lp


def assert_arrays_match(lp_patched, lp_built):
    """The patched arrays must equal those of a model built with the patched values."""
    got, want = lp_patched.assembled(), lp_built.assembled()
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


# -- assembled arrays --------------------------------------------------------


def test_assembled_is_cached():
    lp = small_lp()
    first = lp.assembled()
    before = PERF.get("lp.assembly.reuse")
    second = lp.assembled()
    assert PERF.get("lp.assembly.reuse") == before + 1
    # The same object, not merely equal: the arrays are served as they stand.
    assert first is second
    assert first.c is second.c


def test_structural_edits_invalidate():
    lp = small_lp()
    first = lp.assembled()
    lp.var("w", upper=1.0)
    rebuilds = PERF.get("lp.assembly.rebuild")
    arrays = lp.assembled()
    assert PERF.get("lp.assembly.rebuild") == rebuilds + 1
    assert arrays is not first
    assert len(arrays.c) == 4

    lp.add_row([0], [1.0], "<=", 1.0)
    rebuilds = PERF.get("lp.assembly.rebuild")
    assert lp.assembled().nrows == 4
    assert PERF.get("lp.assembly.rebuild") == rebuilds + 1


def test_bulk_rows_invalidate():
    lp = bulk_lp()
    lp.assembled()
    lp.add_rows_bulk([0, 1], [0], [1.0], "<=", [1.0])
    rebuilds = PERF.get("lp.assembly.rebuild")
    arrays = lp.assembled()
    assert PERF.get("lp.assembly.rebuild") == rebuilds + 1
    assert arrays.nrows == 13


# -- patches equal a cold rebuild -------------------------------------------


def test_fixing_a_column_patches_cached_arrays():
    lp = small_lp()
    lp.assembled()
    rebuilds = PERF.get("lp.assembly.rebuild")
    lp.set_bounds(1, 0.75, 0.75)
    # The patched model never joined again.
    assert PERF.get("lp.assembly.rebuild") == rebuilds
    assert_arrays_match(lp, small_lp(bounds={1: (0.75, 0.75)}))


def test_set_bounds_patches_cached_arrays():
    lp = small_lp()
    lp.assembled()
    lp.set_bounds(0, 0.25, 3.0)
    lp.set_bounds(2, 0.0, None)
    assert lp.assembled().ub[2] == np.inf
    assert_arrays_match(lp, small_lp(bounds={0: (0.25, 3.0), 2: (0.0, None)}))


def test_set_rhs_patches_all_senses():
    lp = small_lp()
    lp.assembled()
    lp.set_rhs(0, 7.0)   # LE
    lp.set_rhs(1, 3.5)   # GE
    lp.set_rhs(2, -1.0)  # EQ
    assert_arrays_match(lp, small_lp(rhs={0: 7.0, 1: 3.5, 2: -1.0}))


def test_ge_rhs_is_the_row_lower_bound():
    """A >= row keeps its signs; its rhs is the row's lower bound."""
    lp = small_lp()
    arrays = lp.assembled()
    assert arrays.data[2:4].tolist() == [1.0, 1.0]
    assert (arrays.row_lower[1], arrays.row_upper[1]) == (2.0, np.inf)
    lp.set_rhs(1, 3.5)
    assert (arrays.row_lower[1], arrays.row_upper[1]) == (3.5, np.inf)
    # An == row's two bounds move together; a <= row's lower bound stays.
    lp.set_rhs(2, 1.25)
    lp.set_rhs(0, 6.0)
    assert (arrays.row_lower[2], arrays.row_upper[2]) == (1.25, 1.25)
    assert (arrays.row_lower[0], arrays.row_upper[0]) == (-np.inf, 6.0)


def test_patch_before_assembly_is_safe():
    """Patching before any assembly edits the model; every later read sees it."""
    lp = small_lp()
    lp.set_bounds(0, 1.0, 1.0)
    lp.set_rhs(2, 9.0)
    arrays = lp.assembled()
    assert (arrays.lb[0], arrays.ub[0]) == (1.0, 1.0)
    assert arrays.rhs()[2] == pytest.approx(9.0)


def test_objective_patches():
    lp = small_lp()
    c0 = lp.assembled().c
    lp.set_objective(0, 10.0)
    lp.set_objective(2, 2.0)
    c1 = lp.assembled().c
    assert c1 is c0  # patched in place, no rebuild
    assert c1[0] == pytest.approx(10.0)
    assert c1[2] == pytest.approx(2.0)


def test_incremental_resolve_matches_cold_solve():
    """A solve after fixing columns equals a cold solve of the fixed model."""
    lp = bulk_lp()
    lp.solve(backend="auto")  # prime cache via initial solve
    rebuilds = PERF.get("lp.assembly.rebuild")
    lp.set_bounds(0, 1.0, 1.0)
    lp.set_bounds(3, 0.0, 0.0)
    warm = lp.solve(backend="auto")
    assert PERF.get("lp.assembly.rebuild") == rebuilds  # assembly-free re-solve

    cold = bulk_lp()
    cold.set_bounds(0, 1.0, 1.0)
    cold.set_bounds(3, 0.0, 0.0)
    cold_sol = cold.solve(backend="auto")
    assert warm.status == cold_sol.status
    assert warm.objective == pytest.approx(cold_sol.objective, abs=1e-9)
    np.testing.assert_allclose(warm.values, cold_sol.values, atol=1e-8)


# -- row families -----------------------------------------------------------


def test_block_rows_materialize_lazily():
    """A bulk family's rows are read from the CSR and its names rendered
    only when asked for; unnamed rows are named by their global row id."""
    lp = bulk_lp(nrows=5)
    assert lp.num_constraints == 5
    arrays = lp.assembled()
    assert arrays.sense[2] == Sense.GE.code
    assert arrays.indices[arrays.indptr[2]:arrays.indptr[3]].tolist() == [2, 3]
    assert lp.row_name(4) == "c4"
    assert lp.row_names() == [f"c{r}" for r in range(5)]


def test_block_named_rows():
    lp = LinearProgram()
    lp.add_vars_bulk(["x[0]", "x[1]"])
    lp.add_rows_bulk([0, 1, 2], [0, 1], [1.0, 1.0], "<=", [1.0, 2.0], names=["a", "b"])
    assert lp.row_names() == ["a", "b"]


def test_set_rhs_before_and_after_materialization():
    lp = bulk_lp(nrows=4)
    # Patch before the rows were joined into the arrays.
    lp.set_rhs(1, 9.0)
    assert lp.assembled().row_lower[1] == pytest.approx(9.0)
    # Patch after: the arrays already handed out see it.
    arrays = lp.assembled()
    lp.set_rhs(2, 8.0)
    assert arrays.row_lower[2] == pytest.approx(8.0)
    assert lp.assembled().rhs()[2] == pytest.approx(8.0)


def test_mixed_segments_columnar_assembly():
    """Single rows and block rows interleaved assemble in declaration order."""
    lp = LinearProgram()
    lp.add_vars_bulk(["x[0]", "x[1]", "x[2]"], upper=1.0, obj=1.0)
    lp.add_row([0], [1.0], "<=", 0.5, name="head")
    lp.add_rows_bulk([0, 1, 2], [1, 2], [1.0, 1.0], ">=", [0.1, 0.2])
    lp.add_row([0, 2], [1.0, 1.0], "<=", 1.5, name="tail")
    arrays = lp.assembled()
    dense = np.zeros((arrays.nrows, arrays.nvars))
    dense[arrays.entry_rows(), arrays.indices] = arrays.data
    np.testing.assert_array_equal(dense, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]])
    np.testing.assert_array_equal(arrays.row_lower, [-np.inf, 0.1, 0.2, -np.inf])
    np.testing.assert_array_equal(arrays.row_upper, [0.5, np.inf, np.inf, 1.5])
    assert lp.row_names() == ["head", "c1", "c2", "tail"]


# -- add_rows_bulk validation ------------------------------------------------


def test_add_rows_bulk_validation():
    lp = LinearProgram()
    lp.add_vars_bulk(["x[0]", "x[1]"])
    with pytest.raises(ValueError, match="rhs has"):
        lp.add_rows_bulk([0, 1], [0], [1.0], "<=", [1.0, 2.0])
    with pytest.raises(ValueError, match="names has"):
        lp.add_rows_bulk([0, 1], [0], [1.0], "<=", [1.0], names=["a", "b"])
    with pytest.raises(ValueError, match="indptr must start"):
        lp.add_rows_bulk([1, 2], [0, 1], [1.0, 1.0], "<=", [1.0])
    with pytest.raises(ValueError, match="same length"):
        lp.add_rows_bulk([0, 1], [0], [1.0, 2.0], "<=", [1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        lp.add_rows_bulk([0, 2, 1, 3], [0, 1, 0], [1.0] * 3, "<=", [1.0] * 3)
    with pytest.raises(IndexError, match="unknown variable"):
        lp.add_rows_bulk([0, 1], [7], [1.0], "<=", [1.0])
    with pytest.raises(ValueError, match="unknown constraint sense"):
        lp.add_rows_bulk([0, 1], [0], [1.0], "!=", [1.0])
    # Nothing was appended by the failed calls.
    assert lp.num_constraints == 0


def test_add_vars_bulk_duplicate_rolls_back():
    lp = LinearProgram()
    lp.var("x[1]")
    with pytest.raises(ValueError, match="duplicate variable name"):
        lp.add_vars_bulk(["x[0]", "x[1]", "x[2]"])
    # The name table and the columns are back to their pre-call state.
    assert lp.num_variables == 1
    assert lp.column("x[1]") == 0
    with pytest.raises(KeyError):
        lp.column("x[0]")
    lp.var("y")  # still usable
    assert lp.num_variables == 2


def test_add_vars_bulk_per_var_bounds_validation():
    lp = LinearProgram()
    with pytest.raises(ValueError, match="upper"):
        lp.add_vars_bulk(["a", "b"], lower=[0.0, 2.0], upper=[1.0, 1.0])
    assert lp.num_variables == 0


# -- pickling (multiprocessing workers ship whole models) --------------------


def test_model_with_blocks_pickles():
    lp = bulk_lp()
    lp.assembled()
    clone = pickle.loads(pickle.dumps(lp))
    assert clone.num_constraints == lp.num_constraints
    assert clone.assembled().rhs()[3] == lp.assembled().rhs()[3]
    assert clone.row_names() == lp.row_names()
    a = lp.solve(backend="auto")
    b = clone.solve(backend="auto")
    assert a.objective == pytest.approx(b.objective, abs=1e-9)
