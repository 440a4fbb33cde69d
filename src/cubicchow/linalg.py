"""Exact dense linear algebra over the rationals.

Matrices are small here (graded pieces of quotient rings, pairing tables)
and hold their entries as given, ``int`` or ``Fraction``: the pairings of
the package are integer matrices.  Row reduction is fraction-free: rows are
scaled to primitive integer rows and eliminated over the integers, and
``rref`` returns them so; only ``kernel_basis`` and ``solve_linear`` divide
by the pivots, at the edge.  Every result is exact.  Kernel bases and
solutions are deterministic: pivots are chosen as the first nonzero entry
in column order.

``rref`` is the one elimination.  The Grassmannian's Poincare pairings need
none: they are Catalan Hankel blocks [C_(e+i+j)], whose leading minors are 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import exact

Vector = tuple[Fraction, ...]


class MatQ(NamedTuple):
    """Immutable rational matrix of ``int`` or ``Fraction`` entries, kept as given."""

    rows: int
    cols: int
    entries: tuple[tuple[int | Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction | int]], cols: int | None = None) -> "MatQ":
        if cols is not None and type(cols) is not int:  # a bool too
            raise TypeError(f"cols must be int, not {cols!r}")
        data = tuple(tuple(exact(x) for x in row) for row in rows)
        if data:
            if cols is None:
                cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError(f"rows must all have length cols={cols}")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(data), cols, data)

    def transpose(self) -> "MatQ":
        return MatQ.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mat_vec(self, v: Sequence[Fraction | int]) -> tuple[int | Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        v = [exact(x) for x in v]
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def rank(self) -> int:
        _, pivots = rref(self.entries)
        return len(pivots)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers; returns (rows, pivot columns).

    Each row is cleared of denominators and eliminated over the integers,
    kept primitive by dividing out its content.  Each returned row is a
    primitive integer multiple of the row of the reduced echelon form over
    ``Fraction`` (which is unique): dividing it by its pivot entry gives
    that row.
    """
    m: list[list[int]] = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def kernel_basis(matrix: MatQ) -> list[Vector]:
    """Deterministic basis of the right kernel; empty when injective."""
    reduced, pivots = rref(matrix.entries)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * matrix.cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def solve_linear(matrix: MatQ, b: Sequence[Fraction | int]) -> Vector | None:
    """Some exact solution of M*x = b, or ``None`` when inconsistent."""
    if len(b) != matrix.rows:
        raise ValueError("dimension mismatch")
    augmented = [list(row) + [exact(bi)] for row, bi in zip(matrix.entries, b)]
    reduced, pivots = rref(augmented)
    if matrix.cols in pivots:
        return None
    x = [Fraction(0)] * matrix.cols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)
