import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicchow.diagonal as diagonal
from cubicchow.checks import REGISTRY
from cubicchow.cli import RunConfig, run
from cubicchow.diagonal import (
    PAIRS,
    PRIM,
    CohX3Class,
    CohXXClass,
    FormalCycle,
    X3Class,
    XXClass,
    coh_pair,
    corrected_small_diagonal,
    cycle_product,
    decomposable_coefficients,
    defect_vanishes_cohomologically,
    primitive_dim,
    primitive_self_pairing,
    push13,
    small_diagonal_coh,
    small_diagonal_defect,
    x3_degree,
    x3_diagonal,
    x3_monomial,
    x3_pair,
    x3_small_diagonal,
    x3_to_coh,
    xx_basis,
    xx_degree,
    xx_diagonal,
    xx_diagonal_expansion,
    xx_monomial,
    xx_to_coh,
)
from cubicchow.errors import UnsupportedRange
from cubicchow.grassmann import complete_symmetric
from cubicchow.hodge import euler_cubic, hodge_cubic


def test_diagonal_times_hyperplane_example():
    n = 2
    result = xx_diagonal(n) * xx_monomial(n, 1, 0)
    expected = xx_monomial(n, 2, 1, Fraction(1, 3)) + xx_monomial(n, 1, 2, Fraction(1, 3))
    assert result == expected


def test_diagonal_times_top_monomial_vanishes():
    for n in (1, 2, 3):
        assert (xx_diagonal(n) * xx_monomial(n, n, n)).is_zero()


def test_diagonal_self_intersection_is_euler():
    for n in range(1, 11):
        d = xx_diagonal(n)
        assert xx_degree(d * d) == euler_cubic(n)


def test_diagonal_acts_as_identity_correspondence():
    # (pi_2)_*(D * pi_1^* h^i) = h^i: check the coefficient bookkeeping
    n = 3
    for i in range(1, n + 1):
        product = xx_diagonal(n) * xx_monomial(n, i, 0)
        # slot-1 integration: only the h1^n term survives, with weight 3
        coefficient = product.coefficient(("m", n, i))
        assert coefficient == Fraction(1, 3)


def test_xx_commutative_and_associative_exhaustive():
    for n in range(1, 7):
        keys = xx_basis(n)
        cls = {k: XXClass(n, {k: 1}) for k in keys}
        table = {}
        for k1 in keys:
            for k2 in keys:
                table[(k1, k2)] = cls[k1] * cls[k2]
        for k1, k2 in itertools.combinations(keys, 2):
            assert table[(k1, k2)] == table[(k2, k1)], (n, k1, k2)
        for k1 in keys:
            for k2 in keys:
                ab = table[(k1, k2)]
                for k3 in keys:
                    assert ab * cls[k3] == cls[k1] * table[(k2, k3)], (n, k1, k2, k3)


def test_coh_xx_commutative_and_associative_exhaustive():
    # with the XXClass test above: the generator form of model_compatibility
    # needs both models associative
    for n in range(1, 7):
        keys = [k for k in xx_basis(n) if k[0] == "m"] + [(PRIM,)]
        cls = {k: CohXXClass(n, {k: 1}) for k in keys}
        table = {(k1, k2): cls[k1] * cls[k2] for k1 in keys for k2 in keys}
        for k1, k2 in itertools.combinations(keys, 2):
            assert table[(k1, k2)] == table[(k2, k1)], (n, k1, k2)
        for k1 in keys:
            for k2 in keys:
                ab = table[(k1, k2)]
                for k3 in keys:
                    assert ab * cls[k3] == cls[k1] * table[(k2, k3)], (n, k1, k2, k3)


def test_model_compatibility_catches_a_perturbed_diagonal_product(monkeypatch):
    honest = XXClass._term_mul

    def perturbed(self, k1, k2):
        out = honest(self, k1, k2)
        if {k1, k2} == {("D",), ("m", 1, 1)}:
            out = {key: 2 * c for key, c in out.items()}
        return out

    monkeypatch.setattr(XXClass, "_term_mul", perturbed)
    computed, expected = _run_check("diagonal.model_compatibility", 4)
    assert computed != expected
    assert "not a ring map at ('D',) * ('m', 1, 1)" in computed


def test_cycle_class_map_is_ring_map_on_basis():
    for n in range(1, 7):
        keys = xx_basis(n)
        for k1, k2 in itertools.combinations_with_replacement(keys, 2):
            a = XXClass(n, {k1: 1})
            b = XXClass(n, {k2: 1})
            assert xx_to_coh(a * b) == xx_to_coh(a) * xx_to_coh(b), (n, k1, k2)


def test_cycle_class_map_injective_on_basis():
    # basis images are linearly independent: the diagonal is the only one
    # with a primitive component, and it has coefficient one
    n = 4
    image = xx_to_coh(xx_diagonal(n))
    assert image.coefficient((PRIM,)) == 1
    for r in range(n + 1):
        for s in range(n + 1):
            assert xx_to_coh(xx_monomial(n, r, s)).coefficient((PRIM,)) == 0


def test_primitive_self_pairing_matches_hodge_data():
    for n in range(1, 11):
        expected = (-1) ** n * primitive_dim(n)
        assert primitive_self_pairing(n) == expected
        assert primitive_dim(n) == sum(
            m for (k, _, _), m in hodge_cubic(n).entries.items() if k == n
        ) - (1 if n % 2 == 0 else 0)


def test_x3_product_of_distinct_diagonals_is_small_diagonal():
    for n in (1, 2, 3, 5):
        assert x3_diagonal(n, 1, 2) * x3_diagonal(n, 2, 3) == x3_small_diagonal(n)
        assert x3_diagonal(n, 1, 2) * x3_diagonal(n, 1, 3) == x3_small_diagonal(n)


def test_x3_diagonal_times_free_slot_is_basis_element():
    n = 3
    result = x3_diagonal(n, 1, 2) * x3_monomial(n, 0, 0, 1)
    assert result == x3_diagonal(n, 1, 2, 1)


def test_x3_diagonal_times_own_slot_reduces():
    n = 2
    result = x3_diagonal(n, 1, 2) * x3_monomial(n, 1, 0, 0)
    expected = x3_monomial(n, 2, 1, 0, Fraction(1, 3)) + x3_monomial(
        n, 1, 2, 0, Fraction(1, 3)
    )
    assert result == expected


def test_x3_grading_additive():
    def codim(key, n):
        if key[0] == "m":
            return key[1] + key[2] + key[3]
        if key[0] == "D":
            return n + key[3]
        return 2 * n

    n = 3
    samples = [
        x3_monomial(n, 1, 2, 0),
        x3_diagonal(n, 1, 3, 2),
        x3_small_diagonal(n),
        x3_diagonal(n, 2, 3),
    ]
    for a in samples:
        for b in samples:
            (ka,) = a.terms
            (kb,) = b.terms
            total = codim(ka, n) + codim(kb, n)
            for key in (a * b).terms:
                assert codim(key, n) == total


def test_small_diagonal_closed_form():
    # frozen oracle: (1/9) sum over i+j+k = 2n plus (1/3) of each primitive term
    for n in range(1, 8):
        small = small_diagonal_coh(n)
        expected_terms = {}
        for i in range(n + 1):
            for j in range(n + 1):
                k = 2 * n - i - j
                if 0 <= k <= n:
                    expected_terms[("m", i, j, k)] = Fraction(1, 9)
        for a, b in PAIRS:
            expected_terms[(PRIM, a, b, n)] = Fraction(1, 3)
        assert small == CohX3Class(n, expected_terms)


def test_small_diagonal_example_coefficients():
    small = small_diagonal_coh(2)
    assert small.coefficient(("m", 1, 1, 2)) == Fraction(1, 9)
    for a, b in PAIRS:
        assert small.coefficient((PRIM, a, b, 2)) == Fraction(1, 3)


def test_projector_law_via_pushforward():
    for n in range(1, 11):
        assert push13(small_diagonal_coh(n)) == xx_diagonal_expansion(n)


def test_same_pair_primitive_product_rejected():
    n = 2
    d12 = CohX3Class(n, {(PRIM, 1, 2, 0): 1})
    with pytest.raises(ValueError):
        d12 * d12


def test_decomposable_coefficients_table():
    for n in range(1, 9):
        table, den = decomposable_coefficients(n)
        assert den == 9
        assert all(type(t) is int for t in table.values())
        for (i, j, k), t in table.items():
            value = Fraction(t, den)
            assert i + j + k == 2 * n
            n_count = sum(1 for e in (i, j, k) if e == n)
            if all(0 < e < n for e in (i, j, k)):
                assert value == Fraction(1, 9)
            elif n_count == 1:
                assert value == 0
            elif n_count >= 2:
                assert value == Fraction(-1, 9)
        # S3 symmetry
        for key, value in table.items():
            for perm in itertools.permutations(key):
                assert table[perm] == value


def test_dual_basis_pairing_reproduces_coefficients():
    # the Chow-side pairing of the corrected diagonal against complementary
    # monomials must integrate to 27 times each decomposable coefficient
    for n in range(1, 7):
        gamma = corrected_small_diagonal(n)
        table, den = decomposable_coefficients(n)
        for (i, j, k), t in table.items():
            dual = x3_monomial(n, n - i, n - j, n - k)
            assert x3_pair(gamma, dual) == Fraction(27 * t, den), (n, i, j, k)


def test_defect_vanishes_and_pairs_to_zero():
    for n in range(1, 11):
        assert defect_vanishes_cohomologically(n)
        defect = small_diagonal_defect(n)
        assert x3_to_coh(defect).is_zero()
    for n in range(1, 7):
        defect = small_diagonal_defect(n)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                dual = x3_monomial(n, a, b, n - a - b)
                assert x3_pair(defect, dual) == 0
        image = x3_to_coh(defect)
        gamma_image = x3_to_coh(corrected_small_diagonal(n))
        for a, b in PAIRS:
            dual = CohX3Class(n, {(PRIM, a, b, 0): Fraction(1)})
            assert coh_pair(image, dual) == 0
            assert coh_pair(gamma_image, dual) == 0


def test_x3_degree_of_top_monomial():
    assert x3_degree(x3_monomial(2, 2, 2, 2)) == 27


def test_cycle_product_reproduces_h_powers():
    for n in range(3, 11):
        for i in range(1, n):
            for j in range(1, n - i):
                result = cycle_product(n, FormalCycle(i, 3), FormalCycle(j, 3))
                assert result == FormalCycle(i + j, 3)  # h^(i+j): deg h^n = 3


def test_cycle_product_generic_moments():
    moments = (Fraction(7, 2), Fraction(-5, 3), Fraction(1))
    for n in (3, 5, 8, 10):
        for i in range(1, n):
            for j in range(1, n - i):
                for ma in moments:
                    for mb in moments:
                        result = cycle_product(
                            n, FormalCycle(i, ma), FormalCycle(j, mb)
                        )
                        # (1/9) m_a m_b h^(i+j), whose moment is 3 times that
                        expected = FormalCycle(i + j, 3 * Fraction(1, 9) * ma * mb)
                        assert result == expected


def _cycle_product_by_scan(n, alpha, beta):
    """Reference: scan the whole decomposable table for surviving entries."""
    i, j = alpha.codim, beta.codim
    coeff = Fraction(0)
    table, den = decomposable_coefficients(n)
    for (r, s, t), num in table.items():
        if num != 0 and r == n - i and s == n - j:
            assert t == i + j
            coeff += Fraction(num, den) * alpha.moment * beta.moment
    # coeff * h^(i+j) has moment 3 * coeff, as deg h^n = 3
    return FormalCycle(i + j, 3 * coeff)


def test_cycle_product_lookup_matches_table_scan():
    moments = (Fraction(3), Fraction(7, 2), Fraction(-5, 3))
    for n in range(3, 13):
        for i in range(1, n):
            for j in range(1, n - i):
                for ma in moments:
                    for mb in moments:
                        alpha, beta = FormalCycle(i, ma), FormalCycle(j, mb)
                        assert cycle_product(n, alpha, beta) == _cycle_product_by_scan(
                            n, alpha, beta
                        ), (n, i, j, ma, mb)


def test_cycle_product_image_has_rank_one():
    # outputs for many formal cycles are all multiples of h^(i+j): one
    # codimension, and moments proportional to m_alpha * m_beta
    n, i, j = 7, 2, 3
    ratios = set()
    for ma in range(1, 6):
        for mb in range(1, 6):
            out = cycle_product(n, FormalCycle(i, ma), FormalCycle(j, mb))
            assert out.codim == i + j
            ratios.add(out.moment / (ma * mb))
    assert ratios == {Fraction(1, 3)}


def test_cycle_product_preconditions():
    with pytest.raises(UnsupportedRange):
        cycle_product(3, FormalCycle(1, 3), FormalCycle(2, 3))  # i + j = n
    with pytest.raises(UnsupportedRange):
        cycle_product(5, FormalCycle(3, 3), FormalCycle(3, 3))
    with pytest.raises(ValueError):
        FormalCycle(0, 3)


def test_model_constructors_validate_keys():
    # both were once accepted: the first equalled xx_monomial(2, 1, 1), the
    # second printed h1^5 on a model whose exponents stop at n = 2
    with pytest.raises(TypeError):
        XXClass(2, {("m", 1.0, 1): 1})
    with pytest.raises(ValueError):
        X3Class(2, {("m", 5, 0, 0): 1})
    for cls, key in (
        (XXClass, ("m", 1)),  # too few exponents
        (XXClass, ("D3",)),  # a tag of another model
        (CohXXClass, ("D",)),
        (CohX3Class, ("D3",)),
        (X3Class, "m"),  # not a tuple
        (X3Class, ("D", 2, 1, 0)),  # a pair outside PAIRS
        (CohX3Class, ("d", 1, 3, 3)),  # a decoration above n
        (CohX3Class, ("m", 0, -1, 0)),
    ):
        with pytest.raises(ValueError):
            cls(2, {key: 1})
    for cls, key in ((X3Class, ("D", 1, 2, 1.0)), (CohX3Class, ("d", 1.0, 2, 0))):
        with pytest.raises(TypeError):
            cls(2, {key: 1})
    # the unvalidated arithmetic path still builds every valid key
    assert XXClass(2, {("m", 1, 1): 1}) == xx_monomial(2, 1, 1)
    assert x3_diagonal(2, 1, 2, 2) * x3_small_diagonal(2) == X3Class(2)


def test_floats_are_rejected():
    key = ("m", 1, 1)
    for make in (
        lambda: XXClass(2, {key: 0.5}),
        lambda: CohX3Class(2, {("m", 1, 1, 1): 0.5}),
        lambda: xx_diagonal(2).scale(0.5),
        lambda: FormalCycle(1, 0.1),
        # 1.0 == 1 passes every range check, so only a type check keeps a
        # float exponent or codimension out of the keys and the printed text
        lambda: FormalCycle(1.0, 3),
        lambda: xx_monomial(2, 1.0, 1),
        lambda: xx_monomial(2, 1, Fraction(1)),
        lambda: x3_monomial(2, 1.0, 1, 0),
        lambda: x3_monomial(2, 1, 1, 0.0, coeff=3),
        lambda: x3_diagonal(2, 1, 2, 1.0),
        lambda: x3_diagonal(2, 1.0, 2, 0),
        lambda: x3_diagonal(2, 1, 3.0, 0),
    ):
        with pytest.raises(TypeError):
            make()
    for make in (lambda: xx_monomial(2, 3, 0), lambda: x3_diagonal(2, 2, 1)):
        with pytest.raises(ValueError):
            make()
    assert XXClass(2, {key: Fraction(1, 2)}) == XXClass(2, {key: 1}).scale(Fraction(1, 2))
    assert FormalCycle(1, 3) == FormalCycle(1, Fraction(3))
    assert type(cycle_product(4, FormalCycle(1, 3), FormalCycle(1, 3)).codim) is int
    assert x3_monomial(2, 1, 1, 0, 2) == x3_monomial(2, 1, 1, 0, Fraction(4, 2))
    assert str(x3_monomial(2, 1, 1, 0)) == "h1*h2"


def test_formal_cycle_holds_its_moment_in_lowest_terms():
    a, b = FormalCycle(1, Fraction(6, 4)), FormalCycle(1, Fraction(3, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.codim, a.num, a.den) == (1, 3, 2)
    for moment in (Fraction(-5, 3), -4, Fraction(-6, 4)):
        cycle = FormalCycle(2, moment)
        assert cycle.den > 0 and gcd(cycle.num, cycle.den) == 1
        assert type(cycle.moment) is Fraction and cycle.moment == moment
    # a product of negative moments keeps a positive denominator too
    out = cycle_product(5, FormalCycle(1, Fraction(-7, 2)), FormalCycle(2, Fraction(5, -3)))
    assert (out.codim, out.num, out.den) == (3, 35, 18)
    assert FormalCycle(1, 0) == FormalCycle._reduced(1, 0, 27)
    assert FormalCycle(1, 3) != FormalCycle(2, 3) and FormalCycle(1, 3) != Fraction(3)
    assert FormalCycle(1, Fraction(1, 2)) != FormalCycle(1, Fraction(1, 3))


def test_formal_cycle_is_immutable():
    cycle = FormalCycle(2, Fraction(7, 2))
    for name in ("codim", "num", "den", "moment", "extra"):
        with pytest.raises(AttributeError):
            setattr(cycle, name, 1)
        with pytest.raises(AttributeError):
            delattr(cycle, name)
    assert cycle == FormalCycle(2, Fraction(7, 2))


_MOMENTS = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),  # unreduced pairs
)


@settings(max_examples=40)
@given(st.integers(min_value=3, max_value=16), _MOMENTS, _MOMENTS)
def test_cycle_product_matches_the_fraction_law(n, ma, mb):
    # (1/9) m_alpha m_beta h^(i+j), whose moment is m_alpha m_beta / 3
    for i in range(1, n):
        for j in range(1, n - i):
            out = cycle_product(n, FormalCycle(i, ma), FormalCycle(j, mb))
            assert out == FormalCycle(i + j, Fraction(ma) * mb / 3), (n, i, j)


def test_product_rank_one_builds_few_fractions(monkeypatch):
    # the check's loop runs on integers: a Fraction is built for each of its
    # constants, not for each cycle_product call (a count, not a timing)
    n = 12
    assert _run_check("diagonal.product_rank_one", n) == ("ok", "ok")  # warm caches
    honest_product, honest_new = diagonal.cycle_product, Fraction.__new__
    counts = {"products": 0, "fractions": 0}

    def product(*args):
        counts["products"] += 1
        return honest_product(*args)

    def new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(diagonal, "cycle_product", product)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    result = _run_check("diagonal.product_rank_one", n)
    monkeypatch.undo()
    assert result == ("ok", "ok")
    assert counts["products"] == 550
    assert counts["fractions"] < counts["products"] / 5, counts


def test_coh_pair_rejects_mismatched_operands():
    a = small_diagonal_coh(3)
    with pytest.raises(ValueError):
        coh_pair(a, small_diagonal_coh(4))
    with pytest.raises(ValueError):
        coh_pair(x3_small_diagonal(3), a)
    with pytest.raises(ValueError):
        coh_pair(a, x3_small_diagonal(3))
    # x3_pair refuses the same operands in the same way
    with pytest.raises(ValueError):
        x3_pair(x3_small_diagonal(3), x3_small_diagonal(4))


def test_x3_pair_refuses_the_cohomological_model():
    # two CohX3Class monomials of complementary degree once paired to 27
    a = CohX3Class(3, {("m", 1, 1, 1): 1})
    b = CohX3Class(3, {("m", 2, 2, 2): 1})
    assert coh_pair(a, b) == 27
    with pytest.raises(ValueError):
        x3_pair(a, b)
    with pytest.raises(ValueError):
        x3_pair(small_diagonal_coh(3), small_diagonal_coh(3))


def test_coh_pair_refuses_the_chow_model():
    # two X3Class monomials of complementary degree once paired to 27
    a, b = x3_monomial(3, 1, 1, 1), x3_monomial(3, 2, 2, 2)
    assert x3_pair(a, b) == 27
    with pytest.raises(ValueError):
        coh_pair(a, b)
    with pytest.raises(ValueError):
        coh_pair(x3_small_diagonal(3), corrected_small_diagonal(3))


def test_canonical_print_forms():
    n = 2
    d = xx_diagonal(n)
    assert str(d) == "D"
    assert str(d * xx_monomial(n, 1, 0)) == "1/3*h1^2*h2 + 1/3*h1*h2^2"
    gamma = corrected_small_diagonal(n)
    assert str(gamma) == "-1/3*D12*h3^2 - 1/3*D13*h2^2 - 1/3*D23*h1^2 + D3"
    small = small_diagonal_coh(1)
    assert str(small) == (
        "1/9*h1*h2 + 1/9*h1*h3 + 1/9*h2*h3 "
        "+ 1/3*d12*h3 + 1/3*d13*h2 + 1/3*d23*h1"
    )


def _run_check(check_id, n):
    (check,) = [c for c in REGISTRY if c.check_id == check_id]
    return check.fn(n)


def test_cached_diagonal_values_are_read_only():
    cached = decomposable_coefficients(4)
    table, den = cached
    with pytest.raises(TypeError):
        table[(3, 3, 2)] = 5
    with pytest.raises(TypeError):
        cached[1] = 3  # the denominator
    small = small_diagonal_coh(3)
    with pytest.raises(TypeError):
        small.terms[("m", 0, 0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del small.terms[(PRIM, 1, 2, 3)]
    with pytest.raises(AttributeError):
        small.terms = {}
    with pytest.raises(AttributeError):
        small.n = 4
    # the attempted writes changed nothing that later checks read
    table, den = decomposable_coefficients(4)
    assert Fraction(table[(3, 3, 2)], den) == Fraction(1, 9)
    for check_id, n in (
        ("diagonal.product_rank_one", 4),
        ("diagonal.symmetry", 4),
        ("diagonal.projector_law", 3),
    ):
        computed, expected = _run_check(check_id, n)
        assert computed == expected, check_id


def test_equal_classes_hash_equal():
    for n in (1, 3):
        for k in xx_basis(n):
            half = XXClass(n, {k: Fraction(2, 2)})
            assert half == XXClass(n, {k: 1}) and hash(half) == hash(XXClass(n, {k: 1}))
    d = xx_diagonal(2)
    assert hash(d * d - d * d) == hash(XXClass(2)) and (d * d - d * d).den == 1
    gamma = corrected_small_diagonal(3)
    assert len({gamma, gamma + X3Class(3), gamma.scale(2).scale(Fraction(1, 2))}) == 1
    # the model is part of the value
    assert XXClass(2, {("m", 0, 0): 1}) != CohXXClass(2, {("m", 0, 0): 1})


def test_hashed_cached_classes_stay_immutable():
    small = small_diagonal_coh(3)
    assert hash(small) == hash(CohX3Class(3, dict(small.terms)))
    with pytest.raises(TypeError):
        small.num[(PRIM, 1, 2, 3)] = 5
    with pytest.raises(TypeError):
        del small.num[(PRIM, 1, 2, 3)]
    for name, value in (("num", {}), ("den", 1), ("terms", {})):
        with pytest.raises(AttributeError):
            setattr(small, name, value)
        with pytest.raises(AttributeError):
            delattr(small, name)
    assert small.coefficient((PRIM, 1, 2, 3)) == Fraction(1, 3)
    computed, expected = _run_check("diagonal.projector_law", 3)
    assert computed == expected


def test_no_fraction_is_built_per_term(monkeypatch):
    # the sums, products, maps and pairings run on integer numerators; a
    # Fraction is built at most once per call (the scale factor of ``-y``,
    # the value of a pairing), however many terms the operands have
    n = 4
    x = x3_to_coh(corrected_small_diagonal(n)) + small_diagonal_coh(n)
    y = CohX3Class(n, {k: Fraction(i + 1, 7) for i, k in enumerate(_coh_x3_basis(n)[:40])})
    a = corrected_small_diagonal(n) + X3Class(
        n, {k: Fraction(3 - i, 5) for i, k in enumerate(_x3_basis(n)[:40])}
    )
    b = XXClass(n, {k: Fraction(i - 4, 3) for i, k in enumerate(xx_basis(n))})
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(diagonal, "Fraction", Counted)
    calls = (
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: a + a, lambda: a - a,
        lambda: a * a, lambda: b * b, lambda: b + b, lambda: x3_pair(a, a),
        lambda: coh_pair(x, y), lambda: xx_to_coh(b), lambda: x3_to_coh(a),
        lambda: push13(x), lambda: XXClass(n, {k: 1 for k in xx_basis(n)}),
    )
    for i, call in enumerate(calls):
        made.clear()
        call()
        assert len(made) <= 1, (i, made)


def test_cached_values_refuse_attribute_deletion():
    poly = complete_symmetric(4)
    diamond = hodge_cubic(3)
    small = small_diagonal_coh(3)
    for obj, name in ((poly, "terms"), (diamond, "entries"), (small, "terms")):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # the attempted deletions changed nothing that later checks read
    assert poly.terms and diamond.get(3, 2, 1) == 5
    computed, expected = _run_check("diagonal.projector_law", 3)
    assert computed == expected


def test_product_rank_one_catches_a_stray_coefficient(monkeypatch):
    # a shifted moment, a shifted codimension and a halved moment (the checked
    # moments have odd numerators, so halving changes only the denominator)
    # must all be seen
    honest = diagonal.cycle_product
    strays = ((0, lambda m: m + 1), (1, lambda m: m), (0, lambda m: m / 2))
    for case, (codim_shift, moment_of) in enumerate(strays):

        def stray(n, alpha, beta):
            out = honest(n, alpha, beta)
            return FormalCycle(out.codim + codim_shift, moment_of(out.moment))

        monkeypatch.setattr(diagonal, "cycle_product", stray)
        computed, expected = _run_check("diagonal.product_rank_one", 4)
        assert computed != expected
        assert "h^1 * h^1 != h^2" in computed, case
        assert "moment scaling fails at (1,1)" in computed, case


def test_table_checks_catch_a_perturbed_entry(monkeypatch):
    table, den = decomposable_coefficients(4)
    bad = dict(table)
    bad[(3, 3, 2)] += 1
    monkeypatch.setattr(diagonal, "decomposable_coefficients", lambda n: (bad, den))
    computed, _ = _run_check("diagonal.symmetry", 4)
    assert "asymmetry at (3, 3, 2)" in computed and "asymmetry at (4, 4, 0)" not in computed
    computed, _ = _run_check("diagonal.interior_coefficient", 4)
    assert computed == "interior coefficient differs from 1/9"


def test_defect_pairing_catches_a_perturbed_defect(monkeypatch):
    honest = diagonal.small_diagonal_defect
    n = 4

    def perturbed(n):
        return honest(n) + x3_monomial(n, n, n, 0, Fraction(1, 9))

    # the cached image is replaced too, so the check sees one consistent
    # defect and nothing perturbed is left in a cache
    monkeypatch.setattr(diagonal, "small_diagonal_defect", perturbed)
    monkeypatch.setattr(diagonal, "defect_image", lambda n: x3_to_coh(perturbed(n)))
    computed, expected = _run_check("diagonal.defect_pairing", n)
    assert computed != expected
    assert f"monomial dual (0,0,{n})" in computed
    assert "primitive dual" not in computed
    monkeypatch.undo()
    assert _run_check("diagonal.defect_pairing", n) == ("ok", "ok")
    assert _run_check("diagonal.defect_vanishes", n) == ("ok", "ok")


def test_defect_image_is_shared_and_read_only():
    for n in (1, 4, 9):
        image = diagonal.defect_image(n)
        assert image is diagonal.defect_image(n)
        assert image == x3_to_coh(small_diagonal_defect(n)) and image.is_zero()
    image = diagonal.defect_image(4)
    with pytest.raises(TypeError):
        image.num[("m", 4, 4, 4)] = 1
    with pytest.raises(TypeError):
        image.terms[("m", 4, 4, 4)] = Fraction(1)
    with pytest.raises(AttributeError):
        image.den = 2
    with pytest.raises(AttributeError):
        del image.num
    assert diagonal.defect_image(4).is_zero()
    for check_id in ("diagonal.defect_vanishes", "diagonal.defect_pairing"):
        assert _run_check(check_id, 4) == ("ok", "ok")


def test_diagonal_suite_passes_up_to_24(report_gate):
    # the report-equivalence gate of perfbench/run.py: a row the reference
    # executed must still run, pass and print the same strings
    report_gate(run(RunConfig(1, 24, ("diagonal",))), "diagonal_1_24")


def test_x3_pair_matches_product_degree_on_basis():
    for n in (1, 2, 3):
        keys = _x3_basis(n)
        for k1 in keys:
            a = X3Class(n, {k1: 1})
            for k2 in keys:
                b = X3Class(n, {k2: 1})
                assert x3_pair(a, b) == x3_degree(a * b), (n, k1, k2)


# -- property tests: the cycle-class maps are linear, xx_to_coh multiplicative --

_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_PROPERTY_SETTINGS = settings(max_examples=60)


def _x3_basis(n):
    span = range(n + 1)
    keys = [("m", i, j, k) for i in span for j in span for k in span]
    keys += [("D", a, b, m) for a, b in PAIRS for m in range(n + 1)]
    keys.append(("D3",))
    return keys


@st.composite
def _classes(draw, cls, basis, count):
    n = draw(st.integers(min_value=1, max_value=5))
    keys = basis(n)
    return [
        cls(n, draw(st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=6)))
        for _ in range(count)
    ]


@_PROPERTY_SETTINGS
@given(_classes(X3Class, _x3_basis, 2), _COEFFS)
def test_x3_to_coh_is_linear(classes, c):
    a, b = classes
    assert x3_to_coh(a + b) == x3_to_coh(a) + x3_to_coh(b)
    assert x3_to_coh(a.scale(c)) == x3_to_coh(a).scale(c)


@_PROPERTY_SETTINGS
@given(_classes(XXClass, xx_basis, 2), _COEFFS)
def test_xx_to_coh_is_linear(classes, c):
    a, b = classes
    assert xx_to_coh(a + b) == xx_to_coh(a) + xx_to_coh(b)
    assert xx_to_coh(a.scale(c)) == xx_to_coh(a).scale(c)


@_PROPERTY_SETTINGS
@given(_classes(XXClass, xx_basis, 2))
def test_xx_to_coh_is_multiplicative(classes):
    a, b = classes
    assert xx_to_coh(a * b) == xx_to_coh(a) * xx_to_coh(b)


@_PROPERTY_SETTINGS
@given(_classes(X3Class, _x3_basis, 2))
def test_x3_pair_is_the_degree_of_the_product(classes):
    a, b = classes
    assert x3_pair(a, b) == x3_degree(a * b)
    assert x3_pair(b, a) == x3_degree(b * a)


# -- reference: the Fraction implementation the integer models replaced ---------
#
# The four rule sets below are the pre-change ``_term_mul`` bodies with their
# ``Fraction`` coefficients, and ``_ref_mul`` the pre-change ``__mul__``; the
# maps and pairings are the pre-change loops.  Classes are plain
# {key: Fraction} dicts without zero entries.

_F = Fraction


def _ref_mono(n, k1, k2):
    exps = tuple(e1 + e2 for e1, e2 in zip(k1[1:], k2[1:]))
    return {} if max(exps) > n else {("m",) + exps: _F(1)}


def _ref_xx_rule(n, k1, k2):
    if k1[0] == "D" and k2[0] == "D":
        return {("m", n, n): _F(euler_cubic(n), 9)}
    if k1[0] == "D" or k2[0] == "D":
        _, r, s = k2 if k1[0] == "D" else k1
        if r + s == 0:
            return {("D",): _F(1)}
        return {
            ("m", a, n + r + s - a): _F(1, 3)
            for a in range(max(0, r + s), n + 1)
            if n + r + s - a <= n
        }
    return _ref_mono(n, k1, k2)


def _ref_coh_xx_rule(n, k1, k2):
    if k1[0] == PRIM and k2[0] == PRIM:
        return {("m", n, n): _F(primitive_self_pairing(n), 9)}
    if k1[0] == PRIM or k2[0] == PRIM:
        _, r, s = k2 if k1[0] == PRIM else k1
        return {(PRIM,): _F(1)} if r == s == 0 else {}
    return _ref_mono(n, k1, k2)


def _ref_delta_push(n, m):
    total = 2 * n + m
    return {
        ("m", p, q, total - p - q): _F(1, 9)
        for p in range(max(0, total - 2 * n), n + 1)
        for q in range(max(0, total - n - p), min(n, total - p) + 1)
    }


def _third_slot(a, b):
    return ({1, 2, 3} - {a, b}).pop()


def _ref_x3_rule(n, k1, k2):
    if k1[0] == "m":
        if k2[0] == "m":
            return _ref_mono(n, k1, k2)
        k1, k2 = k2, k1
    if k2[0] == "m":
        exps = {1: k2[1], 2: k2[2], 3: k2[3]}
        if k1[0] == "D3":
            m = sum(exps.values())
            return {("D3",): _F(1)} if m == 0 else _ref_delta_push(n, m)
        _, a, b, m = k1
        c = _third_slot(a, b)
        s, t, u = exps[a], exps[b], exps[c]
        if m + u > n:
            return {}
        if s + t == 0:
            return {("D", a, b, m + u): _F(1)}
        out = {}
        for p in range(max(0, s + t), n + 1):
            q = n + s + t - p
            if 0 <= q <= n:
                slots = {a: p, b: q, c: m + u}
                out[("m", slots[1], slots[2], slots[3])] = _F(1, 3)
        return out
    if k1[0] == "D3" and k2[0] == "D3":
        return {}
    if k1[0] == "D3" or k2[0] == "D3":
        _, a, b, m = k2 if k1[0] == "D3" else k1
        return {} if m > 0 else {("m", n, n, n): _F(euler_cubic(n), 27)}
    _, a1, b1, m1 = k1
    _, a2, b2, m2 = k2
    if (a1, b1) == (a2, b2):
        if m1 + m2 > n:
            return {}
        slots = {a1: n, b1: n, _third_slot(a1, b1): m1 + m2}
        return {("m", slots[1], slots[2], slots[3]): _F(euler_cubic(n), 9)}
    if m1 + m2 == 0:
        return {("D3",): _F(1)}
    return _ref_delta_push(n, m1 + m2)


def _ref_coh_x3_rule(n, k1, k2):
    if k1[0] == "m":
        if k2[0] == "m":
            return _ref_mono(n, k1, k2)
        k1, k2 = k2, k1
    if k2[0] == "m":
        _, a, b, m = k1
        c = _third_slot(a, b)
        exps = {1: k2[1], 2: k2[2], 3: k2[3]}
        if exps[a] or exps[b] or m + exps[c] > n:
            return {}
        return {(PRIM, a, b, m + exps[c]): _F(1)}
    _, a1, b1, m1 = k1
    _, a2, b2, m2 = k2
    if (a1, b1) == (a2, b2):
        raise ValueError("same-pair primitive product never arises in the model")
    if m1 > 0 or m2 > 0:
        return {}
    shared = ({a1, b1} & {a2, b2}).pop()
    rest = sorted(({a1, b1} | {a2, b2}) - {shared})
    return {(PRIM, rest[0], rest[1], n): _F(1, 3)}


def _clean(terms):
    return {key: c for key, c in terms.items() if c}


def _ref_lin(*pairs):
    """sum of c * class over (c, class) pairs."""
    out = {}
    for c, terms in pairs:
        for key, v in terms.items():
            out[key] = out.get(key, _F(0)) + c * v
    return _clean(out)


def _ref_mul(rule, n, a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            for key, c in rule(n, k1, k2).items():
                out[key] = out.get(key, _F(0)) + c1 * c2 * c
    return _clean(out)


def _ref_xx_to_coh(n, a):
    expansion = {("m", j, n - j): _F(1, 3) for j in range(n + 1)}
    expansion[(PRIM,)] = _F(1)
    return _ref_lin(*((c, {key: 1} if key[0] == "m" else expansion) for key, c in a.items()))


def _ref_x3_expansion(n, a, b, m):
    if m > n:
        return {}
    c = _third_slot(a, b)
    out = {}
    for j in range(n + 1):
        slots = {a: j, b: n - j, c: m}
        out[("m", slots[1], slots[2], slots[3])] = _F(1, 3)
    out[(PRIM, a, b, m)] = _F(1)
    return out


def _ref_x3_to_coh(n, a):
    small = _ref_mul(
        _ref_coh_x3_rule, n, _ref_x3_expansion(n, 1, 2, 0), _ref_x3_expansion(n, 2, 3, 0)
    )

    def image(key):
        if key[0] == "m":
            return {key: 1}
        return small if key[0] == "D3" else _ref_x3_expansion(n, *key[1:])

    return _ref_lin(*((c, image(key)) for key, c in a.items()))


def _ref_push13(n, a):
    out = {}
    for key, c in a.items():
        if key[0] == "m" and key[2] == n:
            target = ("m", key[1], key[3])
        elif key[0] == PRIM and key[1:] == (1, 3, n):
            target = (PRIM,)
        else:
            continue
        out[target] = out.get(target, _F(0)) + 3 * c
    return _clean(out)


def _ref_x3_pair(n, a, b):
    return 27 * _ref_mul(_ref_x3_rule, n, a, b).get(("m", n, n, n), _F(0))


def _ref_coh_pair(n, a, b):
    total = _F(0)
    s = primitive_self_pairing(n)
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1[0] == "m" and k2[0] == "m":
                if all(e1 + e2 == n for e1, e2 in zip(k1[1:], k2[1:])):
                    total += 27 * c1 * c2
            elif k1[0] == PRIM and k2[0] == PRIM:
                if k1[1:3] == k2[1:3] and k1[3] + k2[3] == n:
                    total += 3 * s * c1 * c2
    return total


def _coh_xx_basis(n):
    return [k for k in xx_basis(n) if k[0] == "m"] + [(PRIM,)]


def _coh_x3_basis(n):
    span = range(n + 1)
    keys = [("m", i, j, k) for i in span for j in span for k in span]
    return keys + [(PRIM, a, b, m) for a, b in PAIRS for m in span]


_MODELS = (
    (XXClass, _ref_xx_rule, xx_basis),
    (CohXXClass, _ref_coh_xx_rule, _coh_xx_basis),
    (X3Class, _ref_x3_rule, _x3_basis),
    (CohX3Class, _ref_coh_x3_rule, _coh_x3_basis),
)


def _assert_normal_form(x):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c != 0 for c in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1  # also den == 1 for zero


def _agrees(x, ref):
    _assert_normal_form(x)
    assert dict(x.terms) == ref
    return True


def _mul_or_error(rule, cls, n, a, b):
    """(model product, reference product), or two ValueErrors."""
    try:
        expected = _ref_mul(rule, n, a, b)
    except ValueError:
        with pytest.raises(ValueError):
            cls(n, a) * cls(n, b)
        return None
    return cls(n, a) * cls(n, b), expected


@pytest.mark.parametrize("cls, rule, basis", _MODELS, ids=[m[0].__name__ for m in _MODELS])
def test_products_match_the_fraction_reference_on_basis_pairs(cls, rule, basis):
    for n in range(1, 5):
        for k1 in basis(n):
            for k2 in basis(n):
                both = _mul_or_error(rule, cls, n, {k1: _F(1)}, {k2: _F(1)})
                if both is not None:
                    assert _agrees(*both), (n, k1, k2)


_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def _operands(draw, basis):
    n = draw(st.integers(min_value=1, max_value=4))
    keys = st.sampled_from(basis(n))
    a, b = (_clean(draw(st.dictionaries(keys, _RATIONALS, max_size=7))) for _ in "ab")
    return n, a, b, draw(_RATIONALS)


def _check_ring_ops(cls, rule, n, a, b, c):
    x, y = cls(n, a), cls(n, b)
    _agrees(x, a)
    assert _agrees(x + y, _ref_lin((1, a), (1, b)))
    assert _agrees(x - y, _ref_lin((1, a), (-1, b)))
    assert _agrees(x.scale(c), _ref_lin((c, a)))
    both = _mul_or_error(rule, cls, n, a, b)
    if both is not None:
        assert _agrees(*both)
    assert hash(x + y - y) == hash(x) and x + y - y == x
    return x, y


@settings(max_examples=80)
@given(_operands(xx_basis))
def test_xx_model_matches_the_fraction_reference(operands):
    n, a, b, c = operands
    x, _ = _check_ring_ops(XXClass, _ref_xx_rule, n, a, b, c)
    assert _agrees(xx_to_coh(x), _ref_xx_to_coh(n, a))


@settings(max_examples=80)
@given(_operands(_coh_xx_basis))
def test_coh_xx_model_matches_the_fraction_reference(operands):
    _check_ring_ops(CohXXClass, _ref_coh_xx_rule, *operands)


@settings(max_examples=80)
@given(_operands(_x3_basis))
def test_x3_model_matches_the_fraction_reference(operands):
    n, a, b, c = operands
    x, y = _check_ring_ops(X3Class, _ref_x3_rule, n, a, b, c)
    assert x3_pair(x, y) == _ref_x3_pair(n, a, b)
    assert _agrees(x3_to_coh(x), _ref_x3_to_coh(n, a))


@settings(max_examples=80)
@given(_operands(_coh_x3_basis))
def test_coh_x3_model_matches_the_fraction_reference(operands):
    n, a, b, c = operands
    x, y = _check_ring_ops(CohX3Class, _ref_coh_x3_rule, n, a, b, c)
    assert coh_pair(x, y) == _ref_coh_pair(n, a, b)
    assert _agrees(push13(x), _ref_push13(n, a))
