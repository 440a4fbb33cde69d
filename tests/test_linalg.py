import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicchow.linalg import kernel_basis, rank, rref, solve_linear


def _mat_vec(rows, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def _transpose(rows, cols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]


def test_kernel_of_identity_is_empty():
    assert kernel_basis([[1, 0], [0, 1]], 2) == []


def test_kernel_forced_by_one_equation():
    basis = kernel_basis([[1, 1]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v[0] != 0  # proportional to (1, -1)
    assert v[1] / v[0] == -1


def test_kernel_of_rank_one_matrix():
    m = [[1, 2], [2, 4]]
    basis = kernel_basis(m, 2)
    assert len(basis) == 1
    v = basis[0]
    assert _mat_vec(m, v) == (0, 0)
    # proportional to (2, -1)
    assert v[0] * (-1) == v[1] * 2


def test_solve_identity():
    b = [5, -1, 0]
    assert solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], b, 3) == tuple(b)


def test_solve_zero_matrix_inconsistent():
    m = [[0, 0], [0, 0]]
    assert solve_linear(m, [1, 0], 2) is None
    assert solve_linear(m, [0, 0], 2) == (0, 0)


def test_solve_back_substitution():
    assert solve_linear([[1, 1], [0, 1]], [3, 1], 2) == (2, 1)
    assert solve_linear([[2]], [1], 1) == (Fraction(1, 2),)


def test_empty_matrix_needs_column_count():
    # a matrix without rows has its column count as an argument
    assert rank([]) == 0
    assert len(kernel_basis([], 3)) == 3
    assert solve_linear([], [], 3) == (0, 0, 0)


def _random_matrix(rng, rows, cols):
    return [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]


def test_rank_transpose_and_rank_nullity():
    rng = random.Random(42)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        r = rank(m)
        assert r == rank(_transpose(m, cols))
        kernel = kernel_basis(m, cols)
        assert r + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in _mat_vec(m, v))


def test_solve_agrees_with_rank_criterion():
    rng = random.Random(99)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        b = [rng.randint(-4, 4) for _ in range(rows)]
        solvable = rank([row + [bi] for row, bi in zip(m, b)]) == rank(m)
        x = solve_linear(m, b, cols)
        if solvable:
            assert x is not None
            assert _mat_vec(m, x) == tuple(b)
        else:
            assert x is None


def _refuse_entry(bad):
    # a matrix is integer rows: math.gcd refuses any other entry as it goes
    rows = [[1, 0], [0, bad]]
    for call in (
        lambda: rref(rows),
        lambda: rank(rows),
        lambda: kernel_basis(rows, 2),
        lambda: solve_linear(rows, [1, 1], 2),
        lambda: solve_linear([[1, 0], [0, 1]], [1, bad], 2),
    ):
        with pytest.raises(TypeError):
            call()


def test_floats_are_rejected():
    _refuse_entry(0.5)
    _refuse_entry(1.0)


def test_fractions_are_rejected():
    # rref no longer clears denominators: an integral Fraction is refused too
    _refuse_entry(Fraction(1, 2))
    _refuse_entry(Fraction(2))


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


_ENTRIES = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30))


@st.composite
def _matrices(draw):
    cols = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(_ENTRIES, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=0, max_size=6))
    if rows and draw(st.booleans()):  # a duplicate, a multiple and a zero row
        rows.append(list(rows[0]))
        rows.append([-6 * x for x in rows[-1]])
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
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


# -- the Catalan Hankel identity ---------------------------------------------


def _det(rows):
    """Exact determinant by Fraction elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_catalan_hankel_leading_minors_are_one():
    # the grassmann.poincare_pairing row compares entries with these blocks
    # and relies on this identity for their unimodularity
    def catalan(t):
        return comb(2 * t, t) // (t + 1)

    # the reference determinant, past a zero pivot and on a singular matrix
    assert _det([[0, 1, 2], [1, 0, 3], [4, 5, 6]]) == 16
    assert _det([[1, 2], [2, 4]]) == 0
    for offset in (0, 1):
        hankel = [[catalan(offset + i + j) for j in range(33)] for i in range(33)]
        minors = [_det([row[:t] for row in hankel[:t]]) for t in range(1, 34)]
        assert minors == [1] * 33, offset
