"""LP model container.

:class:`LinearProgram` holds a minimization LP in the one form HiGHS
takes, which every reader (the backend and its MIP path, the audits, the
diagnosis) reads as well:

* columns — float64 arrays ``c``, ``lb`` and ``ub``, with ``+inf`` where a
  column has no upper bound (``-inf`` where it has no lower one);
* rows — one CSR matrix in model order, each row with its own signs, a
  sense code per row (LE=0, GE=1, EQ=2) and the bounds
  ``row_lower <= A x <= row_upper``: ``(-inf, b)`` for ``<=``,
  ``(b, +inf)`` for ``>=`` and ``(b, b)`` for ``==``.

Columns and rows are added one at a time (:meth:`~LinearProgram.var`,
:meth:`~LinearProgram.add_row`) or a family at a time
(:meth:`~LinearProgram.add_vars_bulk`, :meth:`~LinearProgram.add_rows_bulk`),
the path for MC-PERF's O(N*I*K) families::

      x = lp.var("x", upper=1.0, obj=2.0)
      lp.add_row([x, y], [1.0, 1.0], "<=", 1.0, name="pick-one")
      lp.add_rows_bulk(indptr, flat_indices, flat_coeffs, "<=", rhs)

Additions are kept as chunks and joined when :meth:`~LinearProgram.assembled`
runs.  Numeric edits — :meth:`~LinearProgram.set_objective`,
:meth:`~LinearProgram.set_bounds` (``set_bounds(j, v, v)`` fixes a column),
:meth:`~LinearProgram.set_rhs` — write the joined arrays in place, so a
re-solve after a patch is assembly-free.

Names are kept per family as key arrays (:class:`Names`) and rendered only
when an audit message, the diagnosis or a test asks for one
(:meth:`~LinearProgram.var_name`, :meth:`~LinearProgram.row_name`); the
name-to-index lookup :meth:`~LinearProgram.column` is built on its first use.

Variables are continuous; MC-PERF's integrality is recovered by the rounding
algorithm in :mod:`repro.core.rounding`, exactly as in the paper.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.lp.scipy_backend import highs_core
from repro.lp.solution import LPSolution
from repro.perf import PERF


class Sense(str, enum.Enum):
    """Row sense."""

    LE = "<="
    GE = ">="
    EQ = "=="

    @staticmethod
    def parse(value: "Sense | str") -> "Sense":
        if isinstance(value, Sense):
            return value
        try:
            return Sense(value)
        except ValueError as exc:
            raise ValueError(f"unknown constraint sense: {value!r}") from exc

    @property
    def code(self) -> int:
        """The sense's code in :attr:`LPArrays.sense` (LE=0, GE=1, EQ=2)."""
        return _SENSE_CODE[self]

    def bounds(self, rhs):
        """``(row_lower, row_upper)`` of rows of this sense with right-hand side ``rhs``."""
        if self is Sense.LE:
            return np.full_like(rhs, -np.inf), rhs
        if self is Sense.GE:
            return rhs, np.full_like(rhs, np.inf)
        return rhs, rhs.copy()


_SENSE_CODE = {Sense.LE: 0, Sense.GE: 1, Sense.EQ: 2}


class Names:
    """The names of a family of columns or rows, kept as key arrays.

    Member ``j`` is named ``prefix[n3,i1,k7]``: each key's label followed by
    its value at ``j``.  With a tuple of prefixes, ``kind[j]`` picks member
    ``j``'s prefix (the store and create columns of one cell block).
    """

    __slots__ = ("prefix", "keys", "kind")

    def __init__(
        self,
        prefix: Union[str, Tuple[str, ...]],
        keys: Mapping[str, Sequence[int]],
        kind: Optional[Sequence[int]] = None,
    ):
        self.prefix = prefix
        self.keys = [(label, np.asarray(values, dtype=np.int32)) for label, values in keys.items()]
        self.kind = None if kind is None else np.asarray(kind, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.keys[0][1])

    def render(self, j: int) -> str:
        prefix = self.prefix if self.kind is None else self.prefix[self.kind[j]]
        return f"{prefix}[{','.join(f'{label}{values[j]}' for label, values in self.keys)}]"

    def render_all(self) -> List[str]:
        labels = [label for label, _ in self.keys]
        columns = [values.tolist() for _, values in self.keys]
        inner = [",".join(map("".join, zip(labels, map(str, row)))) for row in zip(*columns)]
        if self.kind is None:
            return [f"{self.prefix}[{text}]" for text in inner]
        return [f"{self.prefix[k]}[{text}]" for k, text in zip(self.kind.tolist(), inner)]


class _NameTable:
    """The names of a growing sequence of columns or rows.

    A family is its first index plus a list of names (``None`` for an
    unnamed member), a :class:`Names` block, or a count of unnamed members.
    An unnamed member ``j`` is named ``f"{auto}{j}"``.
    """

    __slots__ = ("auto", "starts", "families", "size", "_lookup")

    def __init__(self, auto: str):
        self.auto = auto
        self.starts: List[int] = []
        self.families: list = []
        self.size = 0
        self._lookup: Optional[Dict[str, int]] = None

    def add(self, family, count: int) -> None:
        if not count:
            return
        if isinstance(family, list) and self.families and isinstance(self.families[-1], list):
            self.families[-1].extend(family)
        else:
            self.starts.append(self.size)
            self.families.append(family)
        self.size += count
        self._lookup = None

    def name(self, j: int) -> str:
        f = bisect_right(self.starts, j) - 1
        family, offset = self.families[f], j - self.starts[f]
        if isinstance(family, Names):
            return family.render(offset)
        if isinstance(family, list) and family[offset]:
            return family[offset]
        return f"{self.auto}{j}"

    def all(self) -> List[str]:
        out: List[str] = []
        ends = self.starts[1:] + [self.size]
        for start, end, family in zip(self.starts, ends, self.families):
            if isinstance(family, Names):
                out.extend(family.render_all())
            elif isinstance(family, list):
                out.extend(name or f"{self.auto}{start + k}" for k, name in enumerate(family))
            else:
                out.extend(f"{self.auto}{j}" for j in range(start, end))
        return out

    def index(self, name: str) -> int:
        if self._lookup is None:
            self._lookup = {n: j for j, n in enumerate(self.all())}
        return self._lookup[name]

    def __getstate__(self):
        return self.auto, self.starts, self.families, self.size

    def __setstate__(self, state):
        self.auto, self.starts, self.families, self.size = state
        self._lookup = None


class LPArrays:
    """The LP as HiGHS takes it: column arrays, model-order CSR rows, row bounds.

    Built by :meth:`LinearProgram.assembled`; the patch API writes these
    arrays in place.  A structural edit builds a new object, so a holder
    of an old one (a retained HiGHS instance) can tell by identity.
    """

    __slots__ = (
        "c", "lb", "ub", "indptr", "indices", "data", "sense", "row_lower", "row_upper",
        "nvars", "nrows",
    )

    def __init__(self, c, lb, ub, indptr, indices, data, sense, row_lower, row_upper):
        self.c, self.lb, self.ub = c, lb, ub
        self.indptr, self.indices, self.data = indptr, indices, data
        self.sense, self.row_lower, self.row_upper = sense, row_lower, row_upper
        self.nvars, self.nrows = len(c), len(sense)

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry (the CSR rows expanded)."""
        return np.repeat(np.arange(self.nrows), np.diff(self.indptr))

    def rhs(self) -> np.ndarray:
        """Each row's right-hand side: the bound its sense selects."""
        return np.where(self.sense == Sense.GE.code, self.row_lower, self.row_upper)


def _empty_arrays() -> LPArrays:
    f, i = np.empty(0), np.empty(0, dtype=np.int64)
    return LPArrays(f, f, f, np.zeros(1, dtype=np.int64), i, f, np.empty(0, dtype=np.int8), f, f)


class LinearProgram:
    """A minimization LP over continuous bounded variables."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._arrays = _empty_arrays()
        #: Columns and rows added since the last join: ``(c, lb, ub)`` and
        #: ``(indptr, indices, data, sense code, row_lower, row_upper)``.
        self._new_cols: List[tuple] = []
        self._new_rows: List[tuple] = []
        self._nvars = 0
        self._nrows = 0
        self._var_names = _NameTable("x")
        self._row_names = _NameTable("c")
        #: Explicitly named columns, checked for duplicates as they are added.
        self._explicit: Dict[str, int] = {}
        #: HiGHS instance retained after an optimal solve (see
        #: :mod:`repro.lp.scipy_backend`); it holds a factor, so it is dropped
        #: on pickling/deepcopy.
        self._highs: Optional[object] = None

    # -- columns -----------------------------------------------------------

    def var(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        obj: float = 0.0,
    ) -> int:
        """Add a column and return its index.  Names must be unique."""
        return self.add_vars_bulk([name], lower, upper, obj).start

    def add_vars_bulk(
        self,
        names: "Sequence[str] | Names",
        lower=0.0,
        upper=None,
        obj=0.0,
    ) -> range:
        """Append a family of columns; return their index range.

        ``names`` is a list of names or a :class:`Names` family, rendered
        only on demand.  ``lower``/``upper``/``obj`` may be scalars or
        per-column sequences; ``upper=None`` (or ``inf``) is no upper bound.
        """
        count = len(names)
        start = self._nvars
        lo = np.broadcast_to(np.asarray(lower, dtype=np.float64), (count,)).copy()
        if upper is None:
            upper = np.inf
        elif isinstance(upper, (list, tuple)):
            upper = [np.inf if u is None else u for u in upper]
        up = np.broadcast_to(np.asarray(upper, dtype=np.float64), (count,)).copy()
        c = np.broadcast_to(np.asarray(obj, dtype=np.float64), (count,)).copy()
        # NaN costs or bounds, or an infinite cost, would come back from
        # HiGHS as a wrong status or a NaN objective: refuse them here.
        # Infinite bounds are legal (no bound on that side).
        nan_bound = np.isnan(lo) | np.isnan(up)
        bad = np.flatnonzero((up < lo) | nan_bound | ~np.isfinite(c))
        if len(bad):
            j = int(bad[0])
            label = names.render(j) if isinstance(names, Names) else names[j]
            if nan_bound[j]:
                raise ValidationError(f"variable {label!r}: NaN bound [{lo[j]}, {up[j]}]")
            if not np.isfinite(c[j]):
                raise ValidationError(f"variable {label!r}: non-finite cost {c[j]}")
            raise ValueError(f"variable {label!r}: upper {up[j]} < lower {lo[j]}")
        if not isinstance(names, Names):
            names = list(names)
            fresh = dict(zip(names, range(start, start + count)))
            if len(fresh) != count or not self._explicit.keys().isdisjoint(fresh):
                seen = set(self._explicit)
                for name in names:
                    if name in seen:
                        raise ValueError(f"duplicate variable name: {name!r}")
                    seen.add(name)
            self._explicit.update(fresh)
        self._new_cols.append((c, lo, up))
        self._var_names.add(names, count)
        self._nvars += count
        return range(start, start + count)

    def column(self, name: str) -> int:
        """The index of the column named ``name`` (KeyError if none)."""
        index = self._explicit.get(name)
        return self._var_names.index(name) if index is None else index

    def var_name(self, index: int) -> str:
        return self._var_names.name(index)

    def row_name(self, row: int) -> str:
        return self._row_names.name(row)

    def var_names(self) -> List[str]:
        """Every column's name, in index order."""
        return self._var_names.all()

    def row_names(self) -> List[str]:
        """Every row's name, in model order."""
        return self._row_names.all()

    @property
    def num_variables(self) -> int:
        return self._nvars

    @property
    def num_constraints(self) -> int:
        return self._nrows

    # -- rows --------------------------------------------------------------

    def add_row(
        self,
        indices: Sequence[int],
        coeffs: Sequence[float],
        sense: "Sense | str",
        rhs: float,
        name: str = "",
    ) -> int:
        """Add one sparse row; return its index."""
        return self.add_rows_bulk(
            [0, len(indices)], indices, coeffs, sense, [rhs], names=[name or None]
        ).start

    def add_rows_bulk(
        self,
        indptr,
        indices,
        coeffs,
        sense: "Sense | str",
        rhs,
        names: "Optional[Sequence[str] | Names]" = None,
    ) -> range:
        """Append a family of sparse rows of one sense; return their row range.

        ``indptr`` delimits rows within the flat ``indices``/``coeffs``
        arrays CSR-style (row ``r`` spans ``indptr[r]:indptr[r+1]``); ``rhs``
        is per row.  ``names`` is a list, a :class:`Names` family, or None
        for rows named ``c<row>``.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        nrows = len(indptr) - 1
        if nrows < 0:
            raise ValueError("indptr must have at least one entry")
        if len(rhs) != nrows:
            raise ValueError(f"rhs has {len(rhs)} entries for {nrows} rows")
        if names is not None and len(names) != nrows:
            raise ValueError(f"names has {len(names)} entries for {nrows} rows")
        if indptr[0] != 0 or (nrows and indptr[-1] != len(indices)):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if len(indices) != len(coeffs):
            raise ValueError("indices and coeffs must have the same length")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= self._nvars):
            raise IndexError("constraint block references unknown variable index")
        start = self._nrows

        def label(r: int) -> str:
            if isinstance(names, Names):
                return names.render(r)
            if names is not None and names[r]:
                return names[r]
            return f"c{start + r}"

        # A NaN right-hand side or a non-finite coefficient would come back
        # from HiGHS as a wrong status: refuse it here.  An infinite
        # right-hand side is legal (no bound on that side).
        nan_rhs = np.flatnonzero(np.isnan(rhs))
        if len(nan_rhs):
            raise ValidationError(f"row {label(int(nan_rhs[0]))!r} has a NaN right-hand side")
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if len(bad):
            e = int(bad[0])
            r = int(np.searchsorted(indptr, e, side="right")) - 1
            raise ValidationError(
                f"row {label(r)!r} has a non-finite coefficient {coeffs[e]} "
                f"on column {self.var_name(int(indices[e]))!r}"
            )
        if len(indices):
            # HiGHS rejects a row that names a column twice: refuse it here.
            keys = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
            keys = np.sort(keys * self._nvars + indices)
            repeated = np.flatnonzero(np.diff(keys) == 0)
            if len(repeated):
                r, j = divmod(int(keys[repeated[0]]), self._nvars)
                raise ValidationError(f"row {label(r)!r} names column {self.var_name(j)!r} twice")
        parsed = Sense.parse(sense)
        lower, upper = parsed.bounds(rhs)
        self._new_rows.append((indptr, indices, coeffs, parsed.code, lower, upper))
        self._row_names.add(
            names if names is None or isinstance(names, Names) else list(names), nrows
        )
        self._nrows += nrows
        return range(start, start + nrows)

    def row_activities(self, values):
        """Every row's activity at ``values``, with its sense and RHS.

        Returns ``(activity, sense_codes, rhs)`` in model row order, read
        from the assembled CSR.  ``np.bincount`` adds each row's terms left
        to right from 0.0, one vectorized pass over every row.
        """
        arrays = self.assembled()
        x = np.asarray(values, dtype=np.float64)
        activity = np.bincount(
            arrays.entry_rows(), weights=arrays.data * x[arrays.indices],
            minlength=arrays.nrows,
        )
        return activity, arrays.sense, arrays.rhs()

    # -- patches -----------------------------------------------------------

    def set_objective(self, index: int, coeff: float) -> None:
        self._current().c[index] = coeff

    def set_bounds(self, index: int, lower: float = 0.0, upper: Optional[float] = None) -> None:
        """Patch a column's bounds in place (``upper=None``: no upper bound)."""
        up = np.inf if upper is None else float(upper)
        if up < lower:
            raise ValueError(f"variable {index}: upper {upper} < lower {lower}")
        arrays = self._current()
        arrays.lb[index] = lower
        arrays.ub[index] = up
        PERF.count("lp.patch.bound")

    def set_rhs(self, row: int, rhs: float) -> None:
        """Patch one row's right-hand side: the bound (or bounds) its sense selects."""
        arrays = self._current()
        sense = arrays.sense[row]
        if sense != Sense.GE.code:
            arrays.row_upper[row] = rhs
        if sense != Sense.LE.code:
            arrays.row_lower[row] = rhs
        PERF.count("lp.patch.rhs")

    # -- assembly ----------------------------------------------------------

    def assembled(self) -> LPArrays:
        """The LP's arrays, joining any columns and rows added since the last call.

        Callers other than the patch API must not mutate the arrays.
        """
        if self._new_cols or self._new_rows:
            return self._join()
        PERF.count("lp.assembly.reuse")
        return self._arrays

    def _current(self) -> LPArrays:
        return self._join() if self._new_cols or self._new_rows else self._arrays

    def _join(self) -> LPArrays:
        """Join the pending chunks onto the arrays, into a new :class:`LPArrays`."""
        with PERF.timer("lp.assembly"):
            old, cols, rows = self._arrays, self._new_cols, self._new_rows
            if cols:
                c, lb, ub = (
                    np.concatenate([getattr(old, f)] + [part[k] for part in cols])
                    for k, f in enumerate(("c", "lb", "ub"))
                )
            else:
                c, lb, ub = old.c, old.lb, old.ub
            if rows:
                ptrs, base = [old.indptr], int(old.indptr[-1])
                for part in rows:
                    ptrs.append(part[0][1:] + base)
                    base += int(part[0][-1])
                counts = [len(part[0]) - 1 for part in rows]
                arrays = LPArrays(
                    c, lb, ub,
                    np.concatenate(ptrs),
                    np.concatenate([old.indices] + [part[1] for part in rows]),
                    np.concatenate([old.data] + [part[2] for part in rows]),
                    np.concatenate(
                        [old.sense, np.repeat([part[3] for part in rows], counts).astype(np.int8)]
                    ),
                    np.concatenate([old.row_lower] + [part[4] for part in rows]),
                    np.concatenate([old.row_upper] + [part[5] for part in rows]),
                )
            else:
                arrays = LPArrays(
                    c, lb, ub, old.indptr, old.indices, old.data, old.sense,
                    old.row_lower, old.row_upper,
                )
            self._arrays, self._new_cols, self._new_rows = arrays, [], []
        PERF.count("lp.assembly.rebuild")
        return arrays

    # -- solving -----------------------------------------------------------

    def solve(self, backend: str = "auto", **kwargs) -> LPSolution:
        """Solve the LP with the chosen backend.

        Backends are looked up in the :mod:`repro.solvers.registry`;
        ``"auto"`` (default) and ``"scipy"`` both solve with HiGHS.
        """
        PERF.count("lp.solve")
        # The first solve in a process loads HiGHS, timed on its own
        # (lp.highs.load) rather than as solve work.
        highs_core()
        with PERF.timer("lp.solve"):
            return self._solve(backend, **kwargs)

    def _solve(self, backend: str, **kwargs) -> LPSolution:
        from repro.solvers.registry import solve_lp

        return solve_lp(self, backend, **kwargs)

    def __getstate__(self):
        """Drop the HiGHS instance on pickle/deepcopy.

        It holds a factor; the arrays and name families travel, and the
        next solve in the new process starts cold.
        """
        state = self.__dict__.copy()
        state["_highs"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"LinearProgram(name={self.name!r}, vars={self._nvars}, "
            f"constraints={self._nrows})"
        )
