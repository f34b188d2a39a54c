"""Sparse linear expressions, for writing small test LPs row by row.

A :class:`LinExpr` is an immutable-ish mapping from column index to
coefficient, plus a constant term.  Comparing expressions gives a
:class:`ConstraintSpec`, which :func:`add_expr` adds as one row::

    x, y = LinExpr.term(lp.var("x")), LinExpr.term(lp.var("y"))
    add_expr(lp, 2 * x + y - 3 <= 10, name="cap")

The library builds every row through the array interface of
:class:`repro.lp.model.LinearProgram`; this module is a test-side
convenience on top of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, float]


class LinExpr:
    """A sparse linear expression ``sum(coeff[j] * x_j) + constant``.

    Parameters
    ----------
    terms:
        Mapping from variable index to coefficient.  Zero coefficients are
        dropped.
    constant:
        Additive constant term.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[int, float] | None = None, constant: float = 0.0):
        cleaned: Dict[int, float] = {}
        if terms:
            for idx, coeff in terms.items():
                if coeff != 0.0:
                    cleaned[int(idx)] = float(coeff)
        self.terms: Dict[int, float] = cleaned
        self.constant: float = float(constant)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(index: int, coeff: float = 1.0) -> "LinExpr":
        """A single-variable expression ``coeff * x_index``."""
        return LinExpr({index: coeff})

    @staticmethod
    def sum_of(pairs: Iterable[Tuple[int, float]]) -> "LinExpr":
        """Build an expression from ``(index, coeff)`` pairs, merging duplicates."""
        terms: Dict[int, float] = {}
        for idx, coeff in pairs:
            terms[idx] = terms.get(idx, 0.0) + coeff
        return LinExpr(terms)

    # -- arithmetic --------------------------------------------------------

    def copy(self) -> "LinExpr":
        out = LinExpr.__new__(LinExpr)
        out.terms = dict(self.terms)
        out.constant = self.constant
        return out

    def __add__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        out = self.copy()
        if isinstance(other, LinExpr):
            for idx, coeff in other.terms.items():
                new = out.terms.get(idx, 0.0) + coeff
                if new == 0.0:
                    out.terms.pop(idx, None)
                else:
                    out.terms[idx] = new
            out.constant += other.constant
        else:
            out.constant += float(other)
        return out

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({idx: -c for idx, c in self.terms.items()}, -self.constant)

    def __sub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        if isinstance(other, LinExpr):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other: Number) -> "LinExpr":
        return (-self) + float(other)

    def __mul__(self, factor: Number) -> "LinExpr":
        factor = float(factor)
        if factor == 0.0:
            return LinExpr()
        return LinExpr(
            {idx: c * factor for idx, c in self.terms.items()}, self.constant * factor
        )

    __rmul__ = __mul__

    def __truediv__(self, divisor: Number) -> "LinExpr":
        return self * (1.0 / float(divisor))

    # -- comparisons build constraint triples ------------------------------
    # A comparison yields (expr_without_constant, sense, rhs) consumed by
    # LinearProgram.add().

    def __le__(self, rhs: Union["LinExpr", Number]):
        return _normalize(self, rhs, "<=")

    def __ge__(self, rhs: Union["LinExpr", Number]):
        return _normalize(self, rhs, ">=")

    def __eq__(self, rhs):  # type: ignore[override]
        if isinstance(rhs, (LinExpr, int, float)):
            return _normalize(self, rhs, "==")
        return NotImplemented

    def __hash__(self):  # LinExpr is used in dict-free contexts only
        return id(self)

    # -- evaluation --------------------------------------------------------

    def value(self, assignment) -> float:
        """Evaluate the expression against ``assignment`` (indexable by var index)."""
        total = self.constant
        for idx, coeff in self.terms.items():
            total += coeff * float(assignment[idx])
        return total

    def __repr__(self) -> str:
        parts = [f"{c:+g}*x{i}" for i, c in sorted(self.terms.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


class ConstraintSpec:
    """The result of comparing a :class:`LinExpr` — a pending constraint.

    Holds the left-hand side with the constant folded into ``rhs``.
    """

    __slots__ = ("expr", "sense", "rhs")

    def __init__(self, expr: LinExpr, sense: str, rhs: float):
        self.expr = expr
        self.sense = sense
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"ConstraintSpec({self.expr!r} {self.sense} {self.rhs:g})"


def _normalize(lhs: LinExpr, rhs: Union[LinExpr, Number], sense: str) -> ConstraintSpec:
    if isinstance(rhs, LinExpr):
        diff = lhs - rhs
    else:
        diff = lhs - float(rhs)
    constant = diff.constant
    diff.constant = 0.0
    return ConstraintSpec(diff, sense, -constant)


def add_expr(lp, spec: ConstraintSpec, name: str = "") -> int:
    """Add the row ``spec`` describes to ``lp``; return its index."""
    if not isinstance(spec, ConstraintSpec):
        raise TypeError("add_expr() expects a comparison of LinExpr objects, e.g. x <= 1")
    indices = list(spec.expr.terms)
    coeffs = [spec.expr.terms[i] for i in indices]
    return lp.add_row(indices, coeffs, spec.sense, spec.rhs, name=name)
