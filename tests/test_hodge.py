from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubicchow.hodge as hodge
from cubicchow.checks import REGISTRY
from cubicchow.errors import UnsupportedRange
from cubicchow.hodge import (
    HodgeDiamond,
    euler_cubic,
    fano_diamond,
    fano_hodge_decomposition,
    hilb2_diamond,
    hodge_cubic,
    primitive_middle,
    sym2_diamond,
    taut_rank_FX,
    times_projective,
)


def test_hodge_cubic_classical_values():
    assert hodge_cubic(3).get(3, 2, 1) == 5
    assert hodge_cubic(4).get(4, 3, 1) == 1
    assert hodge_cubic(4).get(4, 2, 2) == 1 + 20
    assert hodge_cubic(2).get(2, 1, 1) == 7


def test_hodge_cubic_symmetry_and_duality():
    for n in range(1, 9):
        diamond = hodge_cubic(n)
        assert diamond.is_symmetric()
        assert diamond.is_effective()
        for (k, p, q), m in diamond.entries.items():
            assert diamond.get(2 * n - k, n - p, n - q) == m


def test_euler_cubic_spot_values_and_consistency():
    assert euler_cubic(2) == 9
    assert euler_cubic(3) == -6
    assert euler_cubic(4) == 27
    for n in range(1, 13):
        assert euler_cubic(n) == hodge_cubic(n).euler()


def test_sym2_single_even_class():
    d = HodgeDiamond({(0, 0, 0): 1})
    assert sym2_diamond(d) == HodgeDiamond({(0, 0, 0): 1})


def test_sym2_odd_two_dimensional_is_alternating():
    d = HodgeDiamond({(1, 1, 0): 1, (1, 0, 1): 1})
    s = sym2_diamond(d)
    assert s == HodgeDiamond({(2, 1, 1): 1})


def test_sym2_middle_cohomology_cubic_threefold():
    middle = HodgeDiamond({(3, 2, 1): 5, (3, 1, 2): 5})
    s = sym2_diamond(middle)
    assert s.betti(6) == 45  # alternating square of a 10-dimensional space
    assert (s.get(6, 4, 2), s.get(6, 3, 3), s.get(6, 2, 4)) == (10, 25, 10)


# pure diamonds with odd degrees and negative (virtual) multiplicities
_DIAMONDS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-6, 6), max_size=8
).map(lambda terms: HodgeDiamond({(p + q, p, q): m for (p, q), m in terms.items()}))


@settings(max_examples=200)
@example(hodge_cubic(1))
@example(hodge_cubic(2))
@example(hodge_cubic(3))
@example(hodge_cubic(4))
@example(hodge_cubic(5))
@example(hodge_cubic(6))
@example(hodge_cubic(7))
@given(_DIAMONDS)
def test_sym2_against_adams_identity(diamond):
    # graded Sym^2 must satisfy 2*Sym^2 = D (x) D + psi_2(D)
    sym = sym2_diamond(diamond)
    tensor: dict = {}
    for (k1, p1, q1), m1 in diamond.entries.items():
        for (k2, p2, q2), m2 in diamond.entries.items():
            key = (k1 + k2, p1 + p2, q1 + q2)
            tensor[key] = tensor.get(key, 0) + m1 * m2
    for (k, p, q), m in diamond.entries.items():
        key = (2 * k, 2 * p, 2 * q)
        tensor[key] = tensor.get(key, 0) + (-1) ** k * m
    assert HodgeDiamond({k: v // 2 for k, v in tensor.items()}) == sym
    assert all(v % 2 == 0 for v in tensor.values())


def test_e_hilb2_cubic_surface_frozen():
    expected = HodgeDiamond(
        {(0, 0, 0): 1, (2, 1, 1): 8, (4, 2, 2): 36, (6, 3, 3): 8, (8, 4, 4): 1}
    )
    assert hilb2_diamond(2) == expected
    assert str(hilb2_diamond(2)) == "u^4*v^4 + 8*u^3*v^3 + 36*u^2*v^2 + 8*u*v + 1"


def test_sym2_elliptic_curve_guard():
    # the symmetric square of a genus-1 curve is a P^1-bundle over the curve
    sym = sym2_diamond(hodge_cubic(1))
    expected = HodgeDiamond(
        {
            (0, 0, 0): 1,
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (2, 1, 1): 2,
            (3, 2, 1): 1,
            (3, 1, 2): 1,
            (4, 2, 2): 1,
        }
    )
    assert sym == expected
    assert hilb2_diamond(1) == sym
    assert str(hodge_cubic(1)) == "u*v - u - v + 1"


def test_hilb2_euler_characteristic():
    for n in range(1, 9):
        chi = euler_cubic(n)
        assert hilb2_diamond(n).euler() == (chi * chi + chi) // 2 + (n - 1) * chi


def test_e_fano_cubic_surface_is_27_points():
    assert fano_diamond(2) == HodgeDiamond({(0, 0, 0): 27})


def test_e_fano_cubic_threefold():
    diamond = fano_diamond(3)
    assert diamond.euler() == 27
    assert diamond.betti(1) == 10
    assert diamond.betti(2) == 45
    assert diamond.get(1, 1, 0) == 5


def test_e_fano_cubic_fourfold():
    diamond = fano_diamond(4)
    assert diamond.betti(2) == 23
    assert (diamond.get(2, 2, 0), diamond.get(2, 1, 1), diamond.get(2, 0, 2)) == (1, 21, 1)
    assert diamond.betti(4) == 276
    assert diamond.euler() == 324


def test_e_fano_validity_range():
    for n in range(2, 11):
        diamond = fano_diamond(n)
        top = 4 * (n - 2)
        assert diamond.max_degree() == top
        assert diamond.betti(top) == (27 if n == 2 else 1)
        assert diamond.is_effective()
        assert diamond.is_symmetric()
    with pytest.raises(UnsupportedRange):
        fano_diamond(1)


def test_hilb2_identity_exact():
    for n in range(2, 11):
        lhs = hilb2_diamond(n)
        rhs = times_projective(hodge_cubic(n), n) + fano_diamond(n).shift(2)
        assert lhs == rhs


def test_decomposition_values():
    assert fano_hodge_decomposition(2) == (0,)
    assert fano_hodge_decomposition(3) == (1, 0, 1)
    assert fano_hodge_decomposition(4) == (1, 1, 1, 1, 1)


def test_decomposition_nonnegative_and_a0():
    for n in range(2, 11):
        values = fano_hodge_decomposition(n)
        assert len(values) == 2 * (n - 2) + 1
        assert all(v >= 0 for v in values)
        if n >= 3:
            assert values[0] == 1


def test_decomposition_middle_block_placement():
    # rebuild the diamond from the decomposition: middle blocks in degrees
    # n-2+2k for 0 <= k <= n-2, symmetric square in degree 2(n-2)
    for n in range(2, 9):
        middle = primitive_middle(n)
        rebuilt = sym2_diamond(middle)
        for k in range(0, n - 1):
            rebuilt = rebuilt + middle.shift(k)
        for k, a in enumerate(fano_hodge_decomposition(n)):
            if a:
                rebuilt = rebuilt + HodgeDiamond({(2 * k, k, k): a})
        assert rebuilt == fano_diamond(n)
        for k in range(0, n - 1):
            assert middle.shift(k).entries and min(
                deg for (deg, _, _) in middle.shift(k).entries
            ) == n - 2 + 2 * k


def test_primitive_middle_dimension():
    assert primitive_middle(3).betti(1) == 10
    assert primitive_middle(4).betti(2) == 22
    assert primitive_middle(2).betti(0) == 6


def test_taut_rank_FX_values():
    assert taut_rank_FX(3, 0) == 1
    assert taut_rank_FX(3, 2) == 4  # three decomposable classes plus the line locus
    for n in (3, 4, 5):
        assert taut_rank_FX(n, 0) == 1
        assert taut_rank_FX(n, 3 * n - 3) == 0
        assert taut_rank_FX(n, 3 * n - 4) >= 1
    with pytest.raises(UnsupportedRange):
        taut_rank_FX(2, 0)


def test_jacobian_ring_hilbert_series():
    # primitive middle dimensions agree with binomial coefficients of (1+t)^(n+2)
    for n in range(1, 9):
        diamond = hodge_cubic(n)
        for q in range(n + 1):
            expected = comb(n + 2, 3 * q + 1 - n) if 0 <= 3 * q + 1 - n <= n + 2 else 0
            middle_entry = diamond.get(n, n - q, q)
            if n % 2 == 0 and q == n // 2:
                middle_entry -= 1
            assert middle_entry == expected


def test_multiplicities_are_exact_integers():
    with pytest.raises(TypeError):
        HodgeDiamond({(0, 0, 0): 1.7})
    with pytest.raises(TypeError):
        HodgeDiamond({(2, 1, 1): 1.0})
    with pytest.raises(ValueError):
        HodgeDiamond({(0, 0, 0): Fraction(1, 2)})
    diamond = HodgeDiamond({(0, 0, 0): Fraction(3)})
    assert diamond == HodgeDiamond({(0, 0, 0): 3})
    assert type(diamond.get(0, 0, 0)) is int


def test_cached_diamonds_are_immutable():
    diamond = hodge_cubic(3)
    with pytest.raises(TypeError):
        diamond.entries[(3, 2, 1)] = 6
    with pytest.raises(TypeError):
        del diamond.entries[(3, 2, 1)]
    with pytest.raises(AttributeError):
        diamond.entries = {}
    # the attempted writes changed nothing that later checks read
    assert hodge_cubic(3).get(3, 2, 1) == 5
    euler_cubic.cache_clear()
    assert euler_cubic(3) == -6
    (check,) = [c for c in REGISTRY if c.check_id == "hodge.euler_consistency"]
    assert check.fn(3) == ("-6", "-6")


@settings(max_examples=60)
@given(_DIAMONDS)
def test_diamond_hash_agrees_with_equality(d):
    rebuilt = HodgeDiamond(dict(reversed(d.entries.items())))
    assert rebuilt == d and hash(rebuilt) == hash(d)
    assert hash(d + HodgeDiamond()) == hash(d)


def test_hashed_diamonds_stay_immutable():
    diamond = hodge_cubic(3)
    assert hash(diamond) == hash(HodgeDiamond(dict(diamond.entries)))
    assert len({diamond, hodge_cubic(3), diamond.shift(0)}) == 1
    with pytest.raises(TypeError):
        diamond.entries[(3, 2, 1)] = 6
    with pytest.raises(AttributeError):
        diamond.entries = {}
    with pytest.raises(AttributeError):
        del diamond.entries
    assert hodge_cubic(3).get(3, 2, 1) == 5


def test_cached_e_polynomials_are_immutable():
    # the E-polynomial chain is carried by the cached Hilbert-square and
    # variety-of-lines diamonds
    for cached in (hilb2_diamond, fano_diamond):
        diamond = cached(3)
        before = dict(diamond.entries)
        with pytest.raises(TypeError):
            diamond.entries[(0, 0, 0)] = 99
        with pytest.raises(TypeError):
            del diamond.entries[(0, 0, 0)]
        with pytest.raises(AttributeError):
            diamond.entries = {}
        with pytest.raises(AttributeError):
            del diamond.entries
        # the attempted writes changed nothing that later checks read
        assert cached(3).entries == before
    fano_diamond.cache_clear()
    fano_hodge_decomposition.cache_clear()
    for check_id in ("hodge.hilb2_identity", "hodge.decomposition_a0", "hodge.decomposition_tate"):
        (check,) = [c for c in REGISTRY if c.check_id == check_id]
        computed, expected = check.fn(3)
        assert computed == expected, check_id


def test_product_ring_ranks_fails_on_wrong_fano_ranks(monkeypatch):
    # the check once compared degree 3n-3, which is 0 by index arithmetic
    # whatever taut_rank_F returns; degree 3n-4 reads taut_rank_F(n, 2n-4)
    (check,) = [c for c in REGISTRY if c.check_id == "hodge.product_ring_ranks"]
    assert all(check.fn(n) == ("ok", "ok") for n in (3, 5, 8))
    honest = hodge.taut_rank_F
    monkeypatch.setattr(hodge, "taut_rank_F", lambda n, k: honest(n, k) if k == 0 else 99)
    for n in (3, 5, 8):
        computed, expected = check.fn(n)
        assert computed == "rank at k=3n-4 is not 1" and expected == "ok", n
