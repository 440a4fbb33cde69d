import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubicchow.fano as fano
import cubicchow.hodge as hodge
from cubicchow.checks import REGISTRY
from cubicchow.cli import _execute
from cubicchow.errors import CheckFailed, UnsupportedRange
from cubicchow.hodge import (
    HodgeDiamond,
    euler_cubic,
    fano_diamond,
    fano_hodge_decomposition,
    hilb2_diamond,
    hodge_cubic,
    primitive_middle,
    sym2_diamond,
    times_projective,
)


def _is_symmetric(diamond):
    return all(diamond.get(q, p) == m for (p, q), m in diamond.entries.items())


def test_hodge_cubic_classical_values():
    assert hodge_cubic(3).get(2, 1) == 5
    assert hodge_cubic(4).get(3, 1) == 1
    assert hodge_cubic(4).get(2, 2) == 1 + 20
    assert hodge_cubic(2).get(1, 1) == 7


def test_hodge_cubic_symmetry_and_duality():
    for n in range(1, 9):
        diamond = hodge_cubic(n)
        assert _is_symmetric(diamond)
        assert all(m > 0 for m in diamond.entries.values())
        for (p, q), m in diamond.entries.items():
            assert diamond.get(n - p, n - q) == m


def test_euler_cubic_spot_values_and_consistency():
    assert euler_cubic(2) == 9
    assert euler_cubic(3) == -6
    assert euler_cubic(4) == 27
    for n in range(1, 13):
        assert euler_cubic(n) == hodge_cubic(n).euler()


def test_sym2_single_even_class():
    d = HodgeDiamond({(0, 0): 1})
    assert sym2_diamond(d) == HodgeDiamond({(0, 0): 1})


def test_sym2_odd_two_dimensional_is_alternating():
    d = HodgeDiamond({(1, 0): 1, (0, 1): 1})
    s = sym2_diamond(d)
    assert s == HodgeDiamond({(1, 1): 1})


def test_sym2_middle_cohomology_cubic_threefold():
    middle = HodgeDiamond({(2, 1): 5, (1, 2): 5})
    s = sym2_diamond(middle)
    assert s.betti(6) == 45  # alternating square of a 10-dimensional space
    assert (s.get(4, 2), s.get(3, 3), s.get(2, 4)) == (10, 25, 10)


# pure diamonds with odd degrees and negative (virtual) multiplicities
_DIAMONDS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-6, 6), max_size=8
).map(HodgeDiamond)


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
    for (p1, q1), m1 in diamond.entries.items():
        for (p2, q2), m2 in diamond.entries.items():
            key = (p1 + p2, q1 + q2)
            tensor[key] = tensor.get(key, 0) + m1 * m2
    for (p, q), m in diamond.entries.items():
        key = (2 * p, 2 * q)
        tensor[key] = tensor.get(key, 0) + (-1) ** (p + q) * m
    assert HodgeDiamond({k: v // 2 for k, v in tensor.items()}) == sym
    assert all(v % 2 == 0 for v in tensor.values())


def _ref_text(entries):
    """The E-polynomial text: descending p + q, then descending p, sign (-1)^(p+q)."""
    text = ""
    for (p, q), m in sorted(entries.items(), key=lambda item: (-sum(item[0]), -item[0][0])):
        c = (-1) ** (p + q) * m
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("u", p), ("v", q)) if e)
        term = body if abs(c) == 1 and body else "*".join(filter(None, (str(abs(c)), body)))
        if text:
            text += (" - " if c < 0 else " + ") + term
        else:
            text = ("-" if c < 0 else "") + term
    return text or "0"


def _ref_shifted(entries, ts):
    out = {}
    for (p, q), m in entries.items():
        for t in ts:
            out[(p + t, q + t)] = out.get((p + t, q + t), 0) + m
    return HodgeDiamond(out)


@settings(max_examples=200)
@example(hodge_cubic(3))
@example(HodgeDiamond({(0, 4): 1, (1, 0): 2}))
@given(_DIAMONDS)
def test_diamond_reads_agree_with_references_on_hodge_types(diamond):
    # every read takes the degree of a Hodge type (p, q) to be p + q
    entries = dict(diamond.entries)
    assert str(diamond) == _ref_text(entries)
    for k in range(-1, 10):
        assert diamond.betti(k) == sum(m for (p, q), m in entries.items() if p + q == k)
    assert diamond.euler() == sum((-1) ** (p + q) * m for (p, q), m in entries.items())
    assert diamond.max_degree() == max((p + q for p, q in entries), default=0)
    for t in range(-2, 4):
        assert diamond.shift(t) == _ref_shifted(entries, (t,))
    for m in range(-1, 4):
        assert times_projective(diamond, m) == _ref_shifted(entries, range(m + 1))


def test_entry_keys_are_hodge_types():
    with pytest.raises(ValueError, match=re.escape("(2, 1, 1)")):
        HodgeDiamond({(2, 1, 1): 1})
    with pytest.raises(ValueError, match="3 is not a Hodge type"):
        HodgeDiamond({3: 1})
    for key in ((1.0, 1), (True, 0)):
        with pytest.raises(TypeError):
            HodgeDiamond({key: 1})


def test_signs_are_integers_in_negative_degree():
    # (-1) ** (p + q) is a float for p + q < 0: the sign is the parity's
    d = HodgeDiamond({(-1, 0): 3})
    assert d.euler() == -3 and type(d.euler()) is int
    assert str(d) == "-3*u^-1"
    assert sym2_diamond(d) == HodgeDiamond({(-2, 0): 3})


def test_e_hilb2_cubic_surface_frozen():
    expected = HodgeDiamond({(0, 0): 1, (1, 1): 8, (2, 2): 36, (3, 3): 8, (4, 4): 1})
    assert hilb2_diamond(2) == expected
    assert str(hilb2_diamond(2)) == "u^4*v^4 + 8*u^3*v^3 + 36*u^2*v^2 + 8*u*v + 1"


def test_sym2_elliptic_curve_guard():
    # the symmetric square of a genus-1 curve is a P^1-bundle over the curve
    sym = sym2_diamond(hodge_cubic(1))
    expected = HodgeDiamond(
        {
            (0, 0): 1,
            (1, 0): 1,
            (0, 1): 1,
            (1, 1): 2,
            (2, 1): 1,
            (1, 2): 1,
            (2, 2): 1,
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
    assert fano_diamond(2) == HodgeDiamond({(0, 0): 27})


def test_e_fano_cubic_threefold():
    diamond = fano_diamond(3)
    assert diamond.euler() == 27
    assert diamond.betti(1) == 10
    assert diamond.betti(2) == 45
    assert diamond.get(1, 0) == 5


def test_e_fano_cubic_fourfold():
    diamond = fano_diamond(4)
    assert diamond.betti(2) == 23
    assert (diamond.get(2, 0), diamond.get(1, 1), diamond.get(0, 2)) == (1, 21, 1)
    assert diamond.betti(4) == 276
    assert diamond.euler() == 324


def test_e_fano_validity_range():
    for n in range(2, 11):
        diamond = fano_diamond(n)
        top = 4 * (n - 2)
        assert diamond.max_degree() == top
        assert diamond.betti(top) == (27 if n == 2 else 1)
        assert all(m > 0 for m in diamond.entries.values())
        assert _is_symmetric(diamond)
    with pytest.raises(UnsupportedRange):
        fano_diamond(1)


def test_times_projective_is_the_sum_of_shifts():
    # one pass over the entries; a difference of shifts telescopes, so
    # cancelled entries must drop out as they do from a sum of diamonds
    for n in range(1, 13):
        x = hodge_cubic(n)
        diamonds = [x, x - x.shift(1), HodgeDiamond()]
        if n >= 2:
            diamonds.append(primitive_middle(n))
        for d in diamonds:
            for m in range(-1, n + 2):
                shifts = sum((d.shift(t) for t in range(m + 1)), HodgeDiamond())
                assert times_projective(d, m) == shifts


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
                rebuilt = rebuilt + HodgeDiamond({(k, k): a})
        assert rebuilt == fano_diamond(n)
        for k in range(0, n - 1):
            assert middle.shift(k).entries and min(
                p + q for (p, q) in middle.shift(k).entries
            ) == n - 2 + 2 * k


def test_primitive_middle_dimension():
    assert primitive_middle(3).betti(1) == 10
    assert primitive_middle(4).betti(2) == 22
    assert primitive_middle(2).betti(0) == 6


def test_jacobian_ring_hilbert_series():
    # primitive middle dimensions agree with binomial coefficients of (1+t)^(n+2)
    for n in range(1, 9):
        diamond = hodge_cubic(n)
        for q in range(n + 1):
            expected = comb(n + 2, 3 * q + 1 - n) if 0 <= 3 * q + 1 - n <= n + 2 else 0
            middle_entry = diamond.get(n - q, q)
            if n % 2 == 0 and q == n // 2:
                middle_entry -= 1
            assert middle_entry == expected


def test_multiplicities_are_exact_integers():
    with pytest.raises(TypeError):
        HodgeDiamond({(0, 0): 1.7})
    with pytest.raises(TypeError):
        HodgeDiamond({(1, 1): 1.0})
    with pytest.raises(ValueError):
        HodgeDiamond({(0, 0): Fraction(1, 2)})
    diamond = HodgeDiamond({(0, 0): Fraction(3)})
    assert diamond == HodgeDiamond({(0, 0): 3})
    assert type(diamond.get(0, 0)) is int


def test_entry_keys_are_ints():
    # a float key made euler() a float and broke the printer, a bool key
    # printed -3*u
    for key in ((1.0, 1.0), (1.0, 1), (True, False), (True, 1)):
        with pytest.raises(TypeError):
            HodgeDiamond({key: 3})
    # lru_cache keys a bool apart from an int, so this reaches the body
    # even with hodge_cubic(1) cached; no (p, q) key holds n, so the body
    # refuses it itself
    hodge_cubic(1)
    with pytest.raises(TypeError):
        hodge_cubic(True)


def test_euler_cubic_needs_an_int():
    # euler_cubic(True) once returned 0, while hodge_cubic(True) raised: the
    # two sides of hodge.euler_consistency disagreed on what an n is
    for n in (True, False, 2.0):
        with pytest.raises(TypeError):
            euler_cubic(n)


def test_primitive_hodge_numbers_needs_an_int():
    # primitive_hodge_numbers(True) once returned {(1, 0): 1, (0, 1): 1}, so
    # diagonal.primitive_self_pairing(True) returned -2
    for n in (True, False, 2.0):
        with pytest.raises(TypeError):
            hodge.primitive_hodge_numbers(n)


def test_cached_diamonds_are_immutable():
    diamond = hodge_cubic(3)
    with pytest.raises(TypeError):
        diamond.entries[(2, 1)] = 6
    with pytest.raises(TypeError):
        del diamond.entries[(2, 1)]
    with pytest.raises(AttributeError):
        diamond.entries = {}
    # the attempted writes changed nothing that later checks read
    assert hodge_cubic(3).get(2, 1) == 5
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
        diamond.entries[(2, 1)] = 6
    with pytest.raises(AttributeError):
        diamond.entries = {}
    with pytest.raises(AttributeError):
        del diamond.entries
    assert hodge_cubic(3).get(2, 1) == 5


def test_cached_e_polynomials_are_immutable():
    # the E-polynomial chain is carried by the cached Hilbert-square and
    # variety-of-lines diamonds
    for cached in (hilb2_diamond, fano_diamond):
        diamond = cached(3)
        before = dict(diamond.entries)
        with pytest.raises(TypeError):
            diamond.entries[(0, 0)] = 99
        with pytest.raises(TypeError):
            del diamond.entries[(0, 0)]
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
    honest = fano.taut_rank_F
    monkeypatch.setattr(fano, "taut_rank_F", lambda n, k: honest(n, k) if k == 0 else 99)
    for n in (3, 5, 8):
        computed, expected = check.fn(n)
        assert computed == "rank at k=3n-4 is not 1" and expected == "ok", n


_DIAMOND_CACHES = (fano_diamond, fano_hodge_decomposition)


def test_decomposition_closes_names_each_broken_diamond(monkeypatch, row_at):
    # an entry d added to the Hilbert square at (p+2, q+2) lands in the
    # diamond of F at (p, q): an entry that (uv)^2 does not divide, a
    # negative multiplicity, an entry beyond dimension 2(n-2) = 4 and an
    # asymmetric entry.  fano_diamond checks none of them; the decomposition
    # row names each, and the rows that read other entries pass
    n = 4
    honest = hilb2_diamond(n)
    cases = (
        ((1, 1), 1, "(-2,-1,-1)=1"),
        ((2, 2), -2, "(0,0,0)=-1"),
        ((7, 7), 1, "(10,5,5)=1"),
        ((4, 3), 1, "(3,2,1)=1"),
    )
    for key, d, entry in cases:
        perturbed = honest + HodgeDiamond({key: d})
        monkeypatch.setattr(hodge, "hilb2_diamond", lambda n: perturbed)
        for cache in _DIAMOND_CACHES:
            cache.cache_clear()
        try:
            closes = row_at("hodge.decomposition_closes", n)
            others = [row_at(c, n) for c in ("hodge.b1_fano", "hodge.hilb2_identity")]
        finally:
            monkeypatch.undo()
            for cache in _DIAMOND_CACHES:
                cache.cache_clear()
        assert (closes.status, closes.computed) == (
            "fail",
            f"error: CheckFailed: remainder has non-Tate or negative entry {entry} at n={n}",
        ), key
        assert [r.status for r in others] == ["pass", "pass"], (key, others)
    assert row_at("hodge.decomposition_closes", n).status == "pass"


@st.composite
def _perturbed_hilb2(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, 4 * n + 4))
    p = draw(st.integers(-1, k + 1))
    return n, (p, k - p), draw(st.sampled_from((-2, -1, 1, 2)))


@settings(max_examples=150)
@given(_perturbed_hilb2())
@example((4, (1, 1), 1))
@example((4, (2, 2), -2))
@example((4, (7, 7), 1))
@example((4, (4, 3), 1))
def test_decomposition_closes_fails_wherever_a_diamond_condition_fails(case):
    # the four conditions that fano_diamond once raised on, stated here: the
    # decomposition row alone must refuse every diamond that breaks one
    n, key, d = case
    perturbed = hilb2_diamond(n) + HodgeDiamond({key: d})
    numerator = perturbed - times_projective(hodge_cubic(n), n)
    diamond = numerator.shift(-2)
    dim = 2 * (n - 2)
    broken = (
        any(p < 2 or q < 2 for (p, q) in numerator.entries)  # (uv)^2 does not divide
        or any(m < 0 for m in diamond.entries.values())
        or any(p > dim or q > dim for (p, q) in diamond.entries)
        or not _is_symmetric(diamond)
    )
    (check,) = [c for c in REGISTRY if c.check_id == "hodge.decomposition_closes"]
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hodge, "hilb2_diamond", lambda m: perturbed)
            for cache in _DIAMOND_CACHES:
                cache.cache_clear()
            row = _execute(check, n)
    finally:
        for cache in _DIAMOND_CACHES:
            cache.cache_clear()
    if broken:
        assert row.status == "fail", (case, row)


def test_euler_consistency_fails_alone_on_a_wrong_hodge_number(monkeypatch, row_at):
    # one more h^(2,1) at n = 3 moves the Betti route to -7; euler_cubic keeps
    # the Chern route's -6, so the row that compares the two fails as a
    # comparison, and the diagonal's D * D, which reads the Chern route, passes
    honest = hodge.primitive_hodge_numbers

    def perturbed(n):
        numbers = honest(n)
        if n == 3:
            numbers[(2, 1)] += 1
        return numbers

    monkeypatch.setattr(hodge, "primitive_hodge_numbers", perturbed)
    hodge_cubic.cache_clear()
    try:
        consistency = row_at("hodge.euler_consistency", 3)
        self_intersection = row_at("diagonal.euler_self_intersection", 3)
    finally:
        monkeypatch.undo()
        hodge_cubic.cache_clear()  # no diamond built under the fault stays cached
    # a comparison, not an ``error:`` row
    assert (consistency.status, consistency.computed, consistency.expected) == (
        "fail",
        "-6",
        "-7",
    ), consistency
    assert self_intersection.status == "pass", self_intersection
    assert row_at("hodge.euler_consistency", 3).status == "pass"


def test_fano_dimension_reads_the_top_entry_of_the_diamond(monkeypatch, row_at):
    # one more class in the Hilbert square at (6, 6) lands on the top
    # entry (4, 4) of the diamond of F at n = 4; no library guard reads it
    n = 4
    perturbed = hilb2_diamond(n) + HodgeDiamond({(6, 6): 1})
    monkeypatch.setattr(hodge, "hilb2_diamond", lambda n: perturbed)
    fano_diamond.cache_clear()
    try:
        row = row_at("hodge.fano_dimension", n)
    finally:
        monkeypatch.undo()
        fano_diamond.cache_clear()
    assert (row.status, row.computed, row.expected) == (
        "fail",
        "top_degree=8,top_multiplicity=2",
        "top_degree=8,top_multiplicity=1",
    ), row
    assert row_at("hodge.fano_dimension", n).status == "pass"
