"""Exact dense linear algebra on integer matrices.

A matrix is a tuple of integer rows, as the package builds them: graded
pieces of quotient rings and pairing tables are small and integral.  Row
reduction is fraction-free: rows are kept primitive and eliminated over the
integers, and ``rref`` returns them so; only ``kernel_basis`` and
``solve_linear`` divide by the pivots, at the edge, into ``Fraction``
vectors.  A ``Fraction`` or ``float`` entry raises ``TypeError`` (``math.gcd``
takes integers only).  Every result is exact.  Kernel bases and solutions
are deterministic: pivots are chosen as the first nonzero entry in column
order.  The column count is an argument where a matrix may have no rows.

``rref`` is the one elimination.  The Grassmannian's Poincare pairings need
none: they are Catalan Hankel blocks [C_(e+i+j)], whose leading minors are 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[Fraction, ...]
Rows = Sequence[Sequence[int]]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(rows: Rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers; returns (rows, pivot columns).

    Each row is eliminated over the integers, kept primitive by dividing out
    its content.  Each returned row is a primitive integer multiple of the
    row of the reduced echelon form over ``Fraction`` (which is unique):
    dividing it by its pivot entry gives that row.
    """
    m = [_primitive(list(row)) for row in rows]
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


def rank(rows: Rows) -> int:
    """Number of pivots of ``rref``: the rank over the rationals."""
    return len(rref(rows)[1])


def kernel_basis(rows: Rows, cols: int) -> list[Vector]:
    """Deterministic basis of the right kernel; empty when injective."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def solve_linear(rows: Rows, b: Sequence[int], cols: int) -> Vector | None:
    """Some exact solution of M*x = b, or ``None`` when inconsistent."""
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    reduced, pivots = rref([[*row, bi] for row, bi in zip(rows, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)
