"""LP model container.

:class:`LinearProgram` holds variables (with bounds and objective
coefficients) and constraints (as sparse rows), and hands the assembled
matrices to a solver backend.  Three construction styles are supported:

* expression based — readable, for small/structural constraints::

      x = lp.var("x", ub=1.0, obj=2.0)
      lp.add(x.expr() + y.expr() <= 1, name="pick-one")

* array based — for moderate row counts::

      lp.add_row([ix, iy], [1.0, 1.0], "<=", 1.0, name="pick-one")

* block based — the fast path for MC-PERF's O(N*I*K) row families::

      lp.add_rows_bulk(indptr, flat_indices, flat_coeffs, "<=", rhs)

Variables are continuous; MC-PERF's integrality is recovered by the rounding
algorithm in :mod:`repro.core.rounding`, exactly as in the paper.

Assembled solver arrays are cached on the model and invalidated only by
structural edits (new variables or rows).  Numeric edits go through the
patch API — :meth:`~LinearProgram.fix_var`, :meth:`~LinearProgram.set_bound`,
:meth:`~LinearProgram.set_rhs` — which updates the cached arrays in place,
so re-solves after a patch are assembly-free.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat as _repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lp.expr import ConstraintSpec, LinExpr
from repro.lp.scipy_backend import highs_core
from repro.lp.solution import LPSolution
from repro.perf import PERF


class Sense(str, enum.Enum):
    """Constraint sense."""

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
        """The sense's code in :meth:`ConstraintList.columnar` (LE=0, GE=1, EQ=2)."""
        return _SENSE_CODE[self]


@dataclass
class Variable:
    """A model variable: bounds, objective coefficient and a debug name."""

    index: int
    name: str
    lower: float = 0.0
    upper: Optional[float] = None
    objective: float = 0.0

    def expr(self, coeff: float = 1.0) -> LinExpr:
        """The expression ``coeff * self``."""
        return LinExpr.term(self.index, coeff)


@dataclass
class Constraint:
    """A sparse constraint row ``sum(coeffs * x[indices]) sense rhs``."""

    name: str
    indices: Sequence[int]
    coeffs: Sequence[float]
    sense: Sense
    rhs: float

    def activity(self, values) -> float:
        # An explicit left-to-right sum from 0.0: ``sum()`` compensates float
        # rounding since Python 3.12, which would make the result depend on
        # the interpreter and differ from :meth:`LinearProgram.row_activities`.
        act = 0.0
        for i, c in zip(self.indices, self.coeffs):
            act += c * float(values[i])
        return act

    def satisfied(self, values, tol: float = 1e-6) -> bool:
        act = self.activity(values)
        if self.sense is Sense.LE:
            return act <= self.rhs + tol
        if self.sense is Sense.GE:
            return act >= self.rhs - tol
        return abs(act - self.rhs) <= tol


#: Compact sense encoding used by the columnar row storage (LE=0, GE=1, EQ=2).
_SENSE_CODE = {Sense.LE: 0, Sense.GE: 1, Sense.EQ: 2}
_CODE_SENSE = {0: Sense.LE, 1: Sense.GE, 2: Sense.EQ}


class _RowBlock:
    """A homogeneous family of rows stored columnar (no per-row objects).

    ``add_rows_bulk`` appends one of these per family: the CSR triple
    (``indptr``/``indices``/``coeffs``), a shared sense, per-row ``rhs``,
    and optional per-row names.  Individual :class:`Constraint` objects are
    materialized lazily only when somebody actually indexes or iterates the
    row (diagnostics, validation, the exact audit) — the hot
    assembly path reads the columnar arrays directly.
    """

    __slots__ = ("start", "indptr", "indices", "coeffs", "sense", "rhs", "names")

    def __init__(self, start, indptr, indices, coeffs, sense, rhs, names=None):
        self.start = start  # global row index of the block's first row
        self.indptr = indptr
        self.indices = indices
        self.coeffs = coeffs
        self.sense = sense
        self.rhs = rhs
        self.names = names

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def materialize(self, offset: int) -> Constraint:
        """Build the :class:`Constraint` view for row ``start + offset``."""
        s = self.indptr[offset]
        e = self.indptr[offset + 1]
        name = self.names[offset] if self.names is not None else f"c{self.start + offset}"
        return Constraint(
            name=name,
            indices=self.indices[s:e],
            coeffs=self.coeffs[s:e],
            sense=self.sense,
            rhs=float(self.rhs[offset]),
        )


class ConstraintList:
    """Sequence of constraints mixing per-row objects and columnar blocks.

    Rows added one at a time (``add_row``/``add``) live as plain
    :class:`Constraint` objects; families added via ``add_rows_bulk`` live
    as :class:`_RowBlock` columns.  Indexing/iteration materialize block
    rows on demand (memoized, so patching a materialized row's RHS stays
    coherent); ``columnar()`` hands the assembly the flat arrays without
    creating any row objects.
    """

    __slots__ = ("_segs", "_starts", "_len", "_cache")

    def __init__(self, items=()):
        self._segs: list = []  # each: list[Constraint] | _RowBlock
        self._starts: List[int] = []  # global row index where each segment begins
        self._len = 0
        self._cache: Dict[int, Constraint] = {}
        for item in items:
            self.append(item)

    def __len__(self) -> int:
        return self._len

    def _locate(self, row: int):
        seg_i = bisect_right(self._starts, row) - 1
        return self._segs[seg_i], row - self._starts[seg_i]

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[i] for i in range(*row.indices(self._len))]
        row = int(row)
        if row < 0:
            row += self._len
        if not 0 <= row < self._len:
            raise IndexError("constraint index out of range")
        seg, off = self._locate(row)
        if isinstance(seg, list):
            return seg[off]
        con = self._cache.get(row)
        if con is None:
            con = seg.materialize(off)
            self._cache[row] = con
        return con

    def __iter__(self):
        for start, seg in zip(self._starts, self._segs):
            if isinstance(seg, list):
                yield from seg
            else:
                cache = self._cache
                for off in range(len(seg)):
                    row = start + off
                    con = cache.get(row)
                    if con is None:
                        con = seg.materialize(off)
                        cache[row] = con
                    yield con

    def __eq__(self, other):
        if isinstance(other, (ConstraintList, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"ConstraintList(len={self._len}, segments={len(self._segs)})"

    def append(self, con: Constraint) -> None:
        if self._segs and isinstance(self._segs[-1], list):
            self._segs[-1].append(con)
        else:
            self._starts.append(self._len)
            self._segs.append([con])
        self._len += 1

    def append_block(self, block: _RowBlock) -> None:
        self._starts.append(self._len)
        self._segs.append(block)
        self._len += len(block)

    def set_rhs(self, row: int, rhs: float) -> None:
        """Patch one row's RHS without materializing it."""
        seg, off = self._locate(row)
        if isinstance(seg, list):
            seg[off].rhs = rhs
        else:
            seg.rhs[off] = rhs
            con = self._cache.get(row)
            if con is not None:
                con.rhs = rhs

    def columnar(self):
        """Flatten to ``(lengths, sense_codes, rhs, flat_idx, flat_cf)``.

        One concatenated view of every segment, block rows at zero per-row
        cost; object-segment rows are converted on the fly (they are the
        handful of goal/auxiliary rows, never the O(N·I·K) families).
        """
        lengths_parts = []
        sense_parts = []
        rhs_parts = []
        idx_parts = []
        cf_parts = []
        for seg in self._segs:
            if isinstance(seg, list):
                n = len(seg)
                if not n:
                    continue
                lengths_parts.append(
                    np.fromiter((len(c.indices) for c in seg), dtype=np.int64, count=n)
                )
                sense_parts.append(
                    np.fromiter((_SENSE_CODE[c.sense] for c in seg), dtype=np.int8, count=n)
                )
                rhs_parts.append(
                    np.fromiter((c.rhs for c in seg), dtype=np.float64, count=n)
                )
                for c in seg:
                    if len(c.indices):
                        idx_parts.append(np.asarray(c.indices, dtype=np.int64))
                        cf_parts.append(np.asarray(c.coeffs, dtype=np.float64))
            else:
                lengths_parts.append(np.diff(seg.indptr))
                sense_parts.append(
                    np.full(len(seg), _SENSE_CODE[seg.sense], dtype=np.int8)
                )
                rhs_parts.append(seg.rhs)
                if len(seg.indices):
                    idx_parts.append(seg.indices)
                    cf_parts.append(seg.coeffs)
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return (
            np.concatenate(lengths_parts) if lengths_parts else empty_i,
            np.concatenate(sense_parts) if sense_parts else np.empty(0, dtype=np.int8),
            np.concatenate(rhs_parts) if rhs_parts else empty_f,
            np.concatenate(idx_parts) if idx_parts else empty_i,
            np.concatenate(cf_parts) if cf_parts else empty_f,
        )


class _ArrayCache:
    """Assembled solver arrays plus the row map the patch API needs.

    The rows are one CSR triple ``indptr``/``indices``/``data`` in HiGHS's
    row order: the ``n_ub`` rows of the ``<=`` block (``>=`` rows negated
    into it), then the ``==`` block, each in model order.  ``b_ub``/``b_eq``
    are the two blocks' right-hand sides (None for an empty block).
    ``row_pos[r]`` is constraint ``r``'s row within its block (``==`` when
    ``row_is_eq[r]``); ``row_flip[r]`` marks ``>=`` rows that were negated
    into ``<=`` form, so an RHS patch knows to store ``-rhs``.

    The cache also keeps dense bound arrays ``lb``/``ub`` (``+inf`` for
    unbounded), which HiGHS and the fast audit read.  The patch API keeps
    every view in sync, so a warm re-solve sees every
    ``set_rhs``/``set_bound``/``fix_var`` without any reassembly.  The
    scipy-shaped split matrices :meth:`LinearProgram.to_arrays` returns are
    built from the rows on its first call and kept in ``matrices``; no patch
    touches a matrix entry.
    """

    __slots__ = (
        "c", "bounds", "indptr", "indices", "data", "n_ub", "b_ub", "b_eq",
        "row_pos", "row_is_eq", "row_flip", "nvars", "nrows", "lb", "ub", "matrices",
    )

    def __init__(self, c, bounds, indptr, indices, data, n_ub, b_ub, b_eq, row_pos,
                 row_is_eq, row_flip, lb, ub):
        self.c = c
        self.bounds = bounds
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n_ub = n_ub
        self.b_ub = b_ub
        self.b_eq = b_eq
        self.row_pos = row_pos
        self.row_is_eq = row_is_eq
        self.row_flip = row_flip
        self.lb = lb
        self.ub = ub
        self.nvars = len(bounds)
        self.nrows = len(row_pos)
        self.matrices = None

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry (the CSR rows expanded)."""
        return np.repeat(np.arange(self.nrows), np.diff(self.indptr))

    def split_matrices(self):
        """``(A_ub, A_eq)`` as ``scipy.sparse.csr_matrix`` (None for an empty block)."""
        from scipy import sparse

        n, n_ub = self.nvars, self.n_ub
        cut = int(self.indptr[n_ub])
        a_ub = a_eq = None
        if n_ub:
            a_ub = sparse.csr_matrix(
                (self.data[:cut], self.indices[:cut], self.indptr[: n_ub + 1]), shape=(n_ub, n)
            )
        if self.nrows > n_ub:
            a_eq = sparse.csr_matrix(
                (self.data[cut:], self.indices[cut:], self.indptr[n_ub:] - cut),
                shape=(self.nrows - n_ub, n),
            )
        return a_ub, a_eq


@dataclass
class LinearProgram:
    """A minimization LP over continuous bounded variables."""

    name: str = "lp"
    variables: List[Variable] = field(default_factory=list)
    constraints: "ConstraintList" = field(default_factory=ConstraintList)
    _names: Dict[str, int] = field(default_factory=dict)
    _arrays: Optional[_ArrayCache] = field(default=None, repr=False, compare=False)
    #: HiGHS instance retained after an optimal scipy solve (see
    #: :mod:`repro.lp.scipy_backend`); it holds a factor, so it is dropped
    #: on pickling/deepcopy.
    _highs: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Accept a plain list of Constraint objects (diagnostics build
        # filtered sub-models that way) and wrap it in the hybrid storage.
        if not isinstance(self.constraints, ConstraintList):
            self.constraints = ConstraintList(self.constraints)

    # -- variables ---------------------------------------------------------

    def var(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        obj: float = 0.0,
    ) -> Variable:
        """Add a variable and return its handle.

        Names must be unique; they exist for debugging and solution lookup.
        """
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name!r}")
        if upper is not None and upper < lower:
            raise ValueError(f"variable {name!r}: upper {upper} < lower {lower}")
        v = Variable(index=len(self.variables), name=name, lower=lower, upper=upper, objective=obj)
        self.variables.append(v)
        self._names[name] = v.index
        self._arrays = None
        return v

    def var_block(
        self,
        prefix: str,
        count: int,
        lower: float = 0.0,
        upper: Optional[float] = None,
        obj: float = 0.0,
    ) -> range:
        """Add ``count`` homogeneous variables named ``prefix[j]``; return their index range."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.add_vars_bulk(
            [f"{prefix}[{j}]" for j in range(count)], lower=lower, upper=upper, obj=obj
        )

    def add_vars_bulk(
        self,
        names: Sequence[str],
        lower=0.0,
        upper=None,
        obj=0.0,
    ) -> range:
        """Append a block of variables; return their index range.

        ``lower``/``upper``/``obj`` may be scalars (applied to every
        variable) or per-variable sequences.  The bulk path for MC-PERF's
        store/create/covered blocks: one call per family instead of one
        ``var()`` call per cell.
        """
        count = len(names)
        start = len(self.variables)
        scalar_lo = not hasattr(lower, "__len__")
        scalar_up = upper is None or not hasattr(upper, "__len__")
        scalar_obj = not hasattr(obj, "__len__")
        if scalar_up and upper is not None and scalar_lo and upper < lower:
            raise ValueError(f"variable block: upper {upper} < lower {lower}")
        lo_seq = None if scalar_lo else [float(x) for x in lower]
        up_seq = None if scalar_up else [None if x is None else float(x) for x in upper]
        obj_seq = None if scalar_obj else [float(x) for x in obj]
        if not (scalar_lo and scalar_up):
            for j in range(count):
                lo = lower if scalar_lo else lo_seq[j]
                up = upper if scalar_up else up_seq[j]
                if up is not None and up < lo:
                    raise ValueError(f"variable {names[j]!r}: upper {up} < lower {lo}")
        # map() drives the construction loop in C — measurably faster than a
        # comprehension for the O(N*I*K) variable families.
        block = list(
            map(
                Variable,
                range(start, start + count),
                names,
                _repeat(lower) if scalar_lo else lo_seq,
                _repeat(upper) if scalar_up else up_seq,
                _repeat(obj) if scalar_obj else obj_seq,
            )
        )
        nametab = self._names
        nametab.update(zip(names, range(start, start + count)))
        if len(nametab) != start + count:
            # Roll back (self.variables is still pristine) and name the offender.
            self._names = {v.name: v.index for v in self.variables}
            seen = set(self._names)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate variable name: {name!r}")
                seen.add(name)
            raise ValueError("duplicate variable name in bulk block")
        self.variables.extend(block)
        self._arrays = None
        return range(start, start + count)

    def variable_by_name(self, name: str) -> Variable:
        return self.variables[self._names[name]]

    def set_objective(self, index: int, coeff: float) -> None:
        self.variables[index].objective = float(coeff)
        if self._arrays is not None:
            self._arrays.c[index] = self.variables[index].objective

    def add_objective(self, index: int, coeff: float) -> None:
        self.variables[index].objective += float(coeff)
        if self._arrays is not None:
            self._arrays.c[index] = self.variables[index].objective

    def set_bounds(self, index: int, lower: float = 0.0, upper: Optional[float] = None) -> None:
        """Patch a variable's bounds, updating cached arrays in place."""
        if upper is not None and upper < lower:
            raise ValueError(f"variable {index}: upper {upper} < lower {lower}")
        v = self.variables[index]
        v.lower = lower
        v.upper = upper
        cache = self._arrays
        if cache is not None:
            cache.bounds[index] = (lower, upper)
            cache.lb[index] = lower
            cache.ub[index] = float("inf") if upper is None else upper
        PERF.count("lp.patch.bound")

    # ``set_bound`` is the patch-API name from the performance layer;
    # ``set_bounds`` predates it.  Both patch in place.
    set_bound = set_bounds

    def fix_var(self, index: int, value: float) -> None:
        """Fix a variable to a constant without invalidating the assembly."""
        self.set_bounds(index, value, value)
        PERF.count("lp.patch.fix_var")

    def fix(self, index: int, value: float) -> None:
        """Fix a variable to a constant (used for Know/Hist/React fixings)."""
        self.fix_var(index, value)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # -- constraints -------------------------------------------------------

    def add(self, spec: ConstraintSpec, name: str = "") -> Constraint:
        """Add a constraint produced by comparing :class:`LinExpr` objects."""
        if not isinstance(spec, ConstraintSpec):
            raise TypeError(
                "add() expects a comparison of LinExpr objects, e.g. lp.add(x <= 1)"
            )
        indices = list(spec.expr.terms.keys())
        coeffs = [spec.expr.terms[i] for i in indices]
        return self.add_row(indices, coeffs, spec.sense, spec.rhs, name=name)

    def add_row(
        self,
        indices: Sequence[int],
        coeffs: Sequence[float],
        sense: "Sense | str",
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Add a sparse constraint row directly."""
        if len(indices) != len(coeffs):
            raise ValueError("indices and coeffs must have the same length")
        nvar = len(self.variables)
        for i in indices:
            if not 0 <= i < nvar:
                raise IndexError(f"constraint references unknown variable index {i}")
        con = Constraint(
            name=name or f"c{len(self.constraints)}",
            indices=list(indices),
            coeffs=[float(c) for c in coeffs],
            sense=Sense.parse(sense),
            rhs=float(rhs),
        )
        self.constraints.append(con)
        self._arrays = None
        return con

    def add_rows_bulk(
        self,
        indptr,
        indices,
        coeffs,
        sense: "Sense | str",
        rhs,
        names: Optional[Sequence[str]] = None,
    ) -> range:
        """Append a homogeneous block of sparse rows (fast path).

        ``indptr`` delimits rows within the flat ``indices``/``coeffs``
        arrays CSR-style (row ``r`` spans ``indptr[r]:indptr[r+1]``);
        ``sense`` applies to the whole block; ``rhs`` is per-row.  The
        block is stored columnar — no per-row objects are created, so a
        10k-row family costs one validation pass plus one ``_RowBlock``;
        :class:`Constraint` views materialize lazily only if somebody
        indexes into the family.

        Returns the block's row-index range.
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
        if len(indices) and (indices.min() < 0 or indices.max() >= len(self.variables)):
            raise IndexError("constraint block references unknown variable index")

        parsed = Sense.parse(sense)
        start = len(self.constraints)
        block_names = None if names is None else list(names)
        self.constraints.append_block(
            _RowBlock(start, indptr, indices, coeffs, parsed, rhs, block_names)
        )
        self._arrays = None
        return range(start, start + nrows)

    def set_rhs(self, row: int, rhs: float) -> None:
        """Patch one constraint's RHS, updating cached arrays in place.

        ``>=`` rows live negated in ``A_ub``; the cache's flip map applies
        the matching sign to the patched value.
        """
        rhs = float(rhs)
        self.constraints.set_rhs(row, rhs)
        cache = self._arrays
        if cache is not None:
            pos = cache.row_pos[row]
            if cache.row_is_eq[row]:
                cache.b_eq[pos] = rhs
            else:
                cache.b_ub[pos] = -rhs if cache.row_flip[row] else rhs
        PERF.count("lp.patch.rhs")

    def row_activities(self, values):
        """Every row's activity at ``values``, with its sense and RHS.

        Returns ``(activity, sense_codes, rhs)`` in model row order, read
        from :meth:`ConstraintList.columnar`: the rows as written, with
        their original senses and RHS (not the sign-flipped ``A_ub`` the
        solver sees).  ``np.bincount`` adds each row's terms left to right
        from 0.0, so every entry equals that row's
        :meth:`Constraint.activity` bit for bit, in one vectorized pass.
        """
        x = np.asarray(values, dtype=np.float64)
        lengths, sense_codes, rhs, flat_idx, flat_cf = self.constraints.columnar()
        rows = len(lengths)
        activity = np.bincount(
            np.repeat(np.arange(rows), lengths),
            weights=flat_cf * x[flat_idx],
            minlength=rows,
        )
        return activity, sense_codes, rhs

    # -- assembly ----------------------------------------------------------

    def _assemble(self) -> _ArrayCache:
        """Run the full vectorized assembly into a fresh cache.

        Reads the constraint store's columnar form — block families
        contribute their flat CSR arrays directly, so assembly cost scales
        with nnz, not with Python-level row objects.
        """
        n = len(self.variables)
        c = np.fromiter((v.objective for v in self.variables), dtype=np.float64, count=n)
        bounds: List[Tuple[float, Optional[float]]] = [
            (v.lower, v.upper) for v in self.variables
        ]
        lb = np.fromiter((v.lower for v in self.variables), dtype=np.float64, count=n)
        ub = np.fromiter(
            (np.inf if v.upper is None else v.upper for v in self.variables),
            dtype=np.float64,
            count=n,
        )
        lengths, sense_codes, rhs, indices, data = self.constraints.columnar()
        row_is_eq = sense_codes == _SENSE_CODE[Sense.EQ]
        row_flip = sense_codes == _SENSE_CODE[Sense.GE]
        row_pos = np.where(
            row_is_eq,
            np.cumsum(row_is_eq) - 1,
            np.cumsum(~row_is_eq) - 1,
        ).astype(np.int64)
        if row_flip.any():
            data = np.where(np.repeat(row_flip, lengths), -data, data)
            rhs = np.where(row_flip, -rhs, rhs)
        n_ub = len(lengths) - int(np.count_nonzero(row_is_eq))
        if 0 < n_ub < len(lengths):
            # Stack the <= block over the == block.  MC-PERF has no equality
            # rows, so the common case skips this split.
            nnz_eq = np.repeat(row_is_eq, lengths)
            lengths = np.concatenate([lengths[~row_is_eq], lengths[row_is_eq]])
            indices = np.concatenate([indices[~nnz_eq], indices[nnz_eq]])
            data = np.concatenate([data[~nnz_eq], data[nnz_eq]])
            rhs = np.concatenate([rhs[~row_is_eq], rhs[row_is_eq]])
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return _ArrayCache(
            c, bounds, indptr, indices, data, n_ub,
            rhs[:n_ub] if n_ub else None,
            rhs[n_ub:] if n_ub < len(lengths) else None,
            row_pos, row_is_eq, row_flip, lb, ub,
        )

    def assembled(self) -> _ArrayCache:
        """The assembled arrays, built on first use and cached on the model.

        Structural edits (new variables/rows) invalidate the cache, numeric
        edits via the patch API update it in place, so repeated ``solve()``
        calls skip assembly.  Callers must not mutate the arrays.
        """
        cache = self._arrays
        if (
            cache is not None
            and cache.nvars == len(self.variables)
            and cache.nrows == len(self.constraints)
        ):
            PERF.count("lp.assembly.reuse")
        else:
            with PERF.timer("lp.assembly"):
                cache = self._assemble()
            self._arrays = cache
            PERF.count("lp.assembly.rebuild")
        return cache

    def to_arrays(self):
        """Assemble ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as scipy-ready data.

        ``A_ub``/``A_eq`` are ``scipy.sparse.csr_matrix`` (or None when there
        are no rows of that kind); ``>=`` rows are negated into ``<=`` form.
        This is the export for scipy's own solvers: the matrices are built
        from :meth:`assembled`'s rows on the first call and kept with them,
        and the solver and audits read :meth:`assembled` without importing
        ``scipy.sparse``.  Callers must not mutate the returned arrays.
        """
        cache = self.assembled()
        if cache.matrices is None:
            cache.matrices = cache.split_matrices()
        a_ub, a_eq = cache.matrices
        return cache.c, a_ub, cache.b_ub, a_eq, cache.b_eq, cache.bounds

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

        It holds a factor; the assembled arrays travel (plain numpy data,
        plus the scipy matrices if :meth:`to_arrays` built them), and the
        next solve in the new process starts cold.
        """
        state = self.__dict__.copy()
        state["_highs"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"LinearProgram(name={self.name!r}, vars={len(self.variables)}, "
            f"constraints={len(self.constraints)})"
        )
