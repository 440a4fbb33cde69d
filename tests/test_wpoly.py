import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicchow.diagonal import PAIRS, CohX3Class, X3Class
from cubicchow.grassmann import build_ring, complete_symmetric, fano_poly, pairing
from cubicchow.hodge import HodgeDiamond
from cubicchow.wpoly import WPoly

X = WPoly.variable("x")
Y = WPoly.variable("y")


def test_monomial_product():
    assert X * X == WPoly.monomial((2, 0))


def test_identity_product():
    p = WPoly.monomial((2, 0)) - Y
    assert p * WPoly.constant(1) == p


def test_schoolbook_square():
    # (x^2 - y)^2 = x^4 - 2 x^2 y + y^2, expanded by hand
    p = WPoly.monomial((2, 0)) - Y
    assert p * p == WPoly({(4, 0): 1, (2, 1): -2, (0, 2): 1})


def test_mismatched_variables_rejected():
    other = WPoly.variable("r", ("r", "s"), (1, 1))
    with pytest.raises(ValueError):
        X * other


def test_floats_are_rejected():
    for make in (
        lambda: WPoly({(1, 0): 0.1}),
        lambda: WPoly.constant(0.5),
        lambda: WPoly.monomial((1, 0), 0.25),
        lambda: X * 0.5,
        lambda: X + 1.5,
    ):
        with pytest.raises(TypeError):
            make()
    assert WPoly({(1, 0): 2, (0, 1): Fraction(1, 3)}) == WPoly.parse("1/3*y + 2*x")


def test_non_int_exponents_are_rejected():
    # a float exponent was once truncated: WPoly({(1.7, 0): 1}) printed x
    for exps in ((1.7, 0), (Fraction(1), 0), (1.0, 0), ("1", 0)):
        with pytest.raises(TypeError):
            WPoly({exps: 1})
    assert str(WPoly({(1, 0): 1})) == "x"


def test_homogeneity_of_products():
    a = WPoly.monomial((1, 1))  # degree 3
    b = WPoly.monomial((0, 2))  # degree 4
    assert (a * b).homogeneous_degree() == 7


def _random_poly(rng, max_degree=4):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree // 2)
        terms[(a, b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return WPoly(terms)


def test_ring_axioms_randomized():
    rng = random.Random(1905)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_canonical_form_and_parse_roundtrip():
    p = WPoly({(2, 1): 18, (0, 2): 9})
    assert str(p) == "18*x^2*y + 9*y^2"
    assert WPoly.parse(str(p)) == p
    rng = random.Random(7)
    for _ in range(200):
        q = _random_poly(rng)
        assert WPoly.parse(str(q)) == q


def test_parse_handles_signs_and_rationals():
    p = WPoly({(1, 0): Fraction(-5, 3), (0, 0): 1})
    assert str(p) == "-5/3*x + 1"
    assert WPoly.parse(str(p)) == p
    assert WPoly.parse("0") == WPoly.zero()


def test_zero_coefficients_dropped():
    p = X - X
    assert p.is_zero()
    assert p.terms == {}
    assert str(p) == "0"


# -- strict parsing ------------------------------------------------------------

_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), _COEFFS, max_size=6
).map(WPoly)


@settings(max_examples=120)
@given(_POLYS)
def test_parse_inverts_str(p):
    assert WPoly.parse(str(p)) == p


@settings(max_examples=50)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _COEFFS, max_size=4))
def test_parse_inverts_str_on_other_variables(terms):
    p = WPoly(terms, ("u", "v"), (1, 1))
    assert WPoly.parse(str(p), ("u", "v"), (1, 1)) == p


@pytest.mark.parametrize(
    "text",
    [
        "- - x", "x +", "", "1/0", "-", "+ x", " x", "x ", "x - -y", "-0",
        "0 + x", "3*", "x^", "z", "x + x", "x - x", "1*x", "x^1", "x*x",
        "2/4*x", "5/1", "07", "x + y", "x^2*y^0", "x  + 1", "x+1", "1 + x",
    ],
)
def test_parse_rejects_junk(text):
    with pytest.raises(ValueError):
        WPoly.parse(text)


# -- ring axioms and hashing -------------------------------------------------------


@settings(max_examples=80)
@given(_POLYS, _POLYS, _POLYS)
def test_ring_axioms(p, q, r):
    one, zero = WPoly.constant(1), WPoly.zero()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * one == p and one * p == p
    assert p + zero == p
    assert (p + (-p)).is_zero() and p - p == zero


@settings(max_examples=60)
@given(_POLYS)
def test_hash_agrees_with_equality(p):
    rebuilt = WPoly(dict(reversed(p.terms.items())))
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert hash(p + WPoly.zero()) == hash(p)


def test_equal_polynomials_hash_equal():
    assert WPoly.constant(2) == WPoly.constant(Fraction(4, 2))
    assert hash(WPoly.constant(2)) == hash(WPoly.constant(Fraction(4, 2)))
    assert hash(X + Y - Y) == hash(X)
    assert len({X * Y, Y * X, WPoly.monomial((1, 1))}) == 1
    # the variable set is part of the value
    assert WPoly.constant(1, ("u",), (1,)) != WPoly.constant(1)


# -- the shared sparse-sum base --------------------------------------------------

_SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def _model_keys(n, tags):
    span = range(n + 1)
    keys = [("m", i, j, k) for i in span for j in span for k in span]
    keys += [(tag, a, b, m) for tag in tags for a, b in PAIRS for m in span]
    return keys + ([("D3",)] if "D" in tags else [])


@st.composite
def _operands(draw):
    """Two operands of one type and context, and a scalar for ``scale``."""
    kind = draw(st.sampled_from(["wpoly", "diamond", "x3", "coh_x3"]))
    if kind == "wpoly":
        a, b = draw(_POLYS), draw(_POLYS)
    elif kind == "diamond":
        entries = st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-6, 6), max_size=8
        ).map(lambda t: HodgeDiamond({(p + q, p, q): m for (p, q), m in t.items()}))
        a, b = draw(entries), draw(entries)
    else:
        cls, tags = (X3Class, ("D",)) if kind == "x3" else (CohX3Class, ("d",))
        n = draw(st.integers(1, 3))
        keys = st.sampled_from(_model_keys(n, tags))
        a, b = (cls(n, draw(st.dictionaries(keys, _SMALL, max_size=6))) for _ in "ab")
    scalar = draw(st.integers(-5, 5)) if kind == "diamond" else draw(_SMALL)
    return a, b, scalar


def _assert_normal_form(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c != 0 for c in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1  # also den == 1 for zero
    assert dict(x.terms) == {k: Fraction(c, x.den) for k, c in x.num.items()}
    if isinstance(x, HodgeDiamond):
        assert x.den == 1


@settings(max_examples=150)
@given(_operands())
def test_sparse_sums_stay_in_normal_form(operands):
    a, b, c = operands
    results = [a, b, a + b, a - b, -a, a.scale(c), a + b - b]
    if not isinstance(a, HodgeDiamond):
        try:
            results.append(a * b)
        except ValueError:  # a same-pair primitive product, refused by CohX3Class
            pass
    for x in results:
        _assert_normal_form(x)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert (a - a).is_zero() and (a - a).den == 1
    if isinstance(a, HodgeDiamond):  # den stays 1
        with pytest.raises(ValueError):
            a.scale(Fraction(1, 2))
    elif c:
        back = a.scale(c).scale(1 / Fraction(c))
        assert back == a and hash(back) == hash(a)


def test_integral_arithmetic_builds_no_fraction(monkeypatch):
    # integral polynomials, the pairings through [F] and their ranks run on
    # integers from end to end: a Fraction is made only at the edge
    n = 8
    ring = build_ring(n)
    h = complete_symmetric(n + 1)
    made = []
    honest_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        made.append(args)
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    product, total = h * fano_poly(), h + X * Y - 3
    matrices = [pairing(ring, k, fano_poly()) for k in range(2 * (n - 2) + 1)]
    ranks = [m.rank() for m in matrices]
    monkeypatch.undo()
    assert made == []
    assert product == fano_poly() * h and total - h == WPoly.parse("x*y - 3")
    assert all(type(x) is int for m in matrices for row in m.entries for x in row)
    assert ranks[0] == ranks[-1] == 1 and ranks == ranks[::-1]
