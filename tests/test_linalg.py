import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicchow.linalg import MatQ, kernel_basis, rref, solve_linear


def test_kernel_of_identity_is_empty():
    assert kernel_basis(MatQ.identity(2)) == []


def test_kernel_forced_by_one_equation():
    m = MatQ.from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v[0] != 0  # proportional to (1, -1)
    assert v[1] / v[0] == -1


def test_kernel_of_rank_one_matrix():
    m = MatQ.from_rows([[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert m.mat_vec(v) == (0, 0)
    # proportional to (2, -1)
    assert v[0] * (-1) == v[1] * 2


def test_solve_identity():
    m = MatQ.identity(3)
    b = [Fraction(5), Fraction(-1, 2), Fraction(0)]
    assert solve_linear(m, b) == tuple(b)


def test_solve_zero_matrix_inconsistent():
    m = MatQ.from_rows([[0, 0], [0, 0]])
    assert solve_linear(m, [1, 0]) is None
    assert solve_linear(m, [0, 0]) == (0, 0)


def test_solve_back_substitution():
    m = MatQ.from_rows([[1, 1], [0, 1]])
    assert solve_linear(m, [3, 1]) == (2, 1)


def _random_matrix(rng, rows, cols):
    return MatQ.from_rows(
        [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_rank_transpose_and_rank_nullity():
    rng = random.Random(42)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        rank = m.rank()
        assert rank == m.transpose().rank()
        kernel = kernel_basis(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in m.mat_vec(v))


def test_solve_agrees_with_rank_criterion():
    rng = random.Random(99)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        augmented = MatQ.from_rows(
            [list(row) + [bi] for row, bi in zip(m.entries, b)], cols=cols + 1
        )
        solvable = augmented.rank() == m.rank()
        x = solve_linear(m, b)
        if solvable:
            assert x is not None
            assert m.mat_vec(x) == tuple(b)
        else:
            assert x is None


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        MatQ.from_rows([[0.1]])
    with pytest.raises(TypeError):
        MatQ.from_rows([[1, Fraction(1, 2)], [3, 0.5]])
    assert MatQ.from_rows([[1, Fraction(1, 2)]]).entries == ((1, Fraction(1, 2)),)


def test_empty_matrix_needs_column_count():
    with pytest.raises(ValueError):
        MatQ.from_rows([])
    m = MatQ.from_rows([], cols=3)
    assert m.rank() == 0
    assert len(kernel_basis(m)) == 3


# -- property test: fraction-free rref against Gauss-Jordan over Fraction --


def _rref_over_fractions(rows):
    """Reference: textbook Gauss-Jordan with every entry a Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def _matrices(draw):
    cols = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(_ENTRIES, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=0, max_size=6))
    if rows and draw(st.booleans()):  # a duplicate, a multiple and a zero row
        rows.append(list(rows[0]))
        rows.append([Fraction(-7, 3) * x for x in rows[-1]])
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * cols)
    return rows


@settings(max_examples=150)
@given(_matrices())
def test_rref_matches_gauss_jordan_over_fractions(rows):
    reduced, pivots = rref(rows)
    expected_rows, expected_pivots = _rref_over_fractions(rows)
    assert pivots == expected_pivots
    # primitive integer rows, each a multiple of the reduced row: divide by the pivot
    assert all(type(x) is int for row in reduced for x in row)
    assert all(gcd(*row) == 1 for row in reduced)
    assert [[Fraction(x, row[p]) for x in row] for row, p in zip(reduced, pivots)] == expected_rows
