import itertools
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicchow.diagonal as diagonal
import cubicchow.hodge as hodge
import cubicchow.wpoly as wpoly
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
    corrected_small_diagonal,
    cycle_products,
    decomposable_coefficients,
    degree,
    defect_vanishes_cohomologically,
    primitive_self_pairing,
    push13,
    ring_map_failures,
    small_diagonal_coh,
    small_diagonal_defect,
    x3_diagonal,
    x3_monomial,
    x3_small_diagonal,
    x3_to_coh,
    xx_basis,
    xx_diagonal,
    xx_diagonal_expansion,
    xx_monomial,
    xx_to_coh,
)
from cubicchow.errors import CheckFailed, UnsupportedRange
from cubicchow.grassmann import complete_symmetric
from cubicchow.hodge import euler_cubic, hodge_cubic
from cubicchow.wpoly import WPoly, format_monomial, signed_sum


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
        assert degree(d * d) == euler_cubic(n)


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


def test_model_compatibility_catches_a_perturbed_cohomological_product(monkeypatch):
    # f(g) * f(b) goes through _product_num with CohXXClass's rules: d * d
    # doubled breaks only f(D) * f(D)
    honest = CohXXClass._term_mul

    def perturbed(self, k1, k2):
        out = honest(self, k1, k2)
        if k1 == k2 == (PRIM,):
            out = {key: 2 * c for key, c in out.items()}
        return out

    monkeypatch.setattr(CohXXClass, "_term_mul", perturbed)
    for n in range(1, 7):
        assert _run_check("diagonal.model_compatibility", n) == (
            "not a ring map at ('D',) * ('D',)",
            "ok",
        ), n


def test_model_compatibility_catches_a_perturbed_diagonal_image(monkeypatch):
    # the image of D, which _coh_num reads through xx_to_coh, with a
    # primitive coefficient of 4/3 instead of 1
    honest = diagonal.xx_diagonal_expansion

    def perturbed(n):
        return honest(n) + CohXXClass(n, {(PRIM,): Fraction(1, 3)})

    monkeypatch.setattr(diagonal, "xx_diagonal_expansion", perturbed)
    for n in range(1, 7):
        assert _run_check("diagonal.model_compatibility", n) == (
            "not a ring map at ('D',) * ('D',)",
            "ok",
        ), n
    monkeypatch.undo()
    assert all(_run_check("diagonal.model_compatibility", n) == ("ok", "ok") for n in range(1, 7))


def test_xx_to_coh_refuses_a_class_of_another_model():
    # a CohXXClass was read key by key, its d as the diagonal D
    with pytest.raises(ValueError, match="XXClass classes only"):
        xx_to_coh(xx_diagonal_expansion(2))


def test_x3_to_coh_refuses_a_class_of_another_model():
    # a CohX3Class was read key by key, each primitive key as the small diagonal
    with pytest.raises(ValueError, match="X3Class classes only"):
        x3_to_coh(small_diagonal_coh(2))


def test_push13_refuses_a_class_of_another_model():
    # an X3Class diagonal D13 * h2^2 was pushed forward to 3*d
    with pytest.raises(ValueError, match="CohX3Class classes only"):
        push13(x3_diagonal(2, 1, 3, 2))


def test_model_constructor_refuses_a_dimension_that_is_not_an_int():
    # XXClass(2.0, ...) was accepted, and its square failed inside range
    for cls in (XXClass, CohXXClass, X3Class, CohX3Class):
        for n in (2.0, True):
            with pytest.raises(TypeError, match="dimension n must be int"):
                cls(n, {})


def test_xx_diagonal_expansion_refuses_a_dimension_that_is_not_an_int():
    for n in (2.0, True):
        with pytest.raises(TypeError, match="dimension n must be int"):
            xx_diagonal_expansion(n)


def test_x3_diagonal_expansion_refuses_a_dimension_that_is_not_an_int():
    # small_diagonal_coh(True) held the key ('d', 1, 3, True)
    for n in (2.0, True):
        with pytest.raises(TypeError, match="dimension n must be int"):
            diagonal.x3_diagonal_expansion(n, 1, 2)
        with pytest.raises(TypeError, match="dimension n must be int"):
            small_diagonal_coh(n)


def test_x3_diagonal_expansion_refuses_a_key_outside_the_model():
    # each once built a class: with h3^-1, a d21 key or a bool exponent, or
    # died with KeyError: 2 on the pair (1, 1)
    for args, error in (
        ((3, 1, 2, -1), ValueError),
        ((3, 2, 1, 0), ValueError),
        ((3, 1, 2, True), TypeError),
        ((3, 1, 1, 0), ValueError),
    ):
        with pytest.raises(error):
            diagonal.x3_diagonal_expansion(*args)
    assert diagonal.x3_diagonal_expansion(3, 1, 2, 3).num[(diagonal.PRIM, 1, 2, 3)] == 3


def test_corrected_small_diagonal_refuses_a_dimension_that_is_not_an_int():
    # corrected_small_diagonal(2.0) held the keys ('D', 1, 2, 2.0), ...
    for n in (2.0, True):
        with pytest.raises(TypeError, match="dimension n must be int"):
            corrected_small_diagonal(n)


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
        # the middle Betti number less h^n's power, if n is even
        dim = hodge_cubic(n).betti(n) - (1 if n % 2 == 0 else 0)
        assert primitive_self_pairing(n) == (-1) ** n * dim


def test_x3_products_of_two_diagonal_classes_are_refused():
    # the model multiplies by monomials only: D * D on one pair and on two
    # pairs, D * D3 and D3 * D3 raise, in either order, naming both keys
    n = 2
    for a, b in (
        (x3_diagonal(n, 1, 2), x3_diagonal(n, 1, 2, 1)),
        (x3_diagonal(n, 1, 2), x3_diagonal(n, 2, 3)),
        (x3_diagonal(n, 1, 3, 2), x3_small_diagonal(n)),
        (x3_small_diagonal(n), x3_small_diagonal(n)),
    ):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=re.escape(f"{x} * {y}")):
                x * y


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


def test_x3_diagonal_times_own_slots_on_every_pair():
    # D_ab * h_a^s h_b^t h_c^u = (1/3) sum_p h_a^p h_b^(n+s+t-p) h_c^u, for
    # s + t >= 1 and u <= n, with each exponent written in its own slot
    n = 3
    for a, b in PAIRS:
        c = 6 - a - b
        for s, t, u in ((1, 0, 0), (0, 2, 1), (1, 1, 3)):
            mono = [0, 0, 0, 0]
            mono[a], mono[b], mono[c] = s, t, u
            expected = {}
            for p in range(s + t, n + 1):
                slots = [0, 0, 0, 0]
                slots[a], slots[b], slots[c] = p, n + s + t - p, u
                expected[("m", *slots[1:])] = Fraction(1, 3)
            product = x3_diagonal(n, a, b) * x3_monomial(n, *mono[1:])
            assert product == X3Class(n, expected), (a, b, s, t, u)


def test_x3_grading_additive():
    def codim(key, n):
        if key[0] == "m":
            return key[1] + key[2] + key[3]
        if key[0] == "D":
            return n + key[3]
        return 2 * n

    n = 3
    monomials = [x3_monomial(n, 1, 2, 0), x3_monomial(n, 0, 0, 1), x3_monomial(n, 0, 0, 0)]
    samples = monomials + [x3_diagonal(n, 1, 3, 2), x3_small_diagonal(n), x3_diagonal(n, 2, 3)]
    for a in monomials:
        for b in samples:
            (ka,) = a.terms
            (kb,) = b.terms
            total = codim(ka, n) + codim(kb, n)
            for key in (a * b).terms | (b * a).terms:
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
            assert degree(gamma * dual) == Fraction(27 * t, den), (n, i, j, k)


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
                assert degree(defect * dual) == 0


def test_degree_of_top_monomials():
    # deg(h1^n ... hs^n) = 3^s on X^s, in every model; lower pieces integrate to 0
    for n in (1, 2, 5):
        assert degree(x3_monomial(n, n, n, n)) == 27
        assert degree(CohX3Class(n, {("m", n, n, n): 1})) == 27
        assert degree(xx_monomial(n, n, n, Fraction(1, 3))) == 3
        assert degree(CohXXClass(n, {("m", n, n): 1})) == 9
        assert degree(x3_monomial(n, n, n, n - 1)) == 0
        assert degree(xx_diagonal(n)) == 0


def test_cycle_product_reproduces_h_powers():
    for n in range(3, 11):
        for i in range(1, n):
            codims = range(1, n - i)
            [row] = cycle_products(n, [FormalCycle(i, 3)], [FormalCycle(j, 3) for j in codims])
            assert row == [(i + j, 3, 1) for j in codims]  # h^(i+j): deg h^n = 3


def test_cycle_product_generic_moments():
    moments = (Fraction(7, 2), Fraction(-5, 3), Fraction(1))
    for n in (3, 5, 8, 10):
        for i in range(1, n):
            for j in range(1, n - i):
                alphas = [FormalCycle(i, ma) for ma in moments]
                grid = cycle_products(n, alphas, [FormalCycle(j, mb) for mb in moments])
                for ma, row in zip(moments, grid):
                    for mb, product in zip(moments, row):
                        # (1/9) m_a m_b h^(i+j), whose moment is 3 times that
                        law = FormalCycle(i + j, 3 * Fraction(1, 9) * ma * mb)
                        assert product == (law.codim, law.num, law.den)


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
                alphas = [FormalCycle(i, ma) for ma in moments]
                betas = [FormalCycle(j, mb) for mb in moments]
                for alpha, row in zip(alphas, cycle_products(n, alphas, betas)):
                    for beta, product in zip(betas, row):
                        scan = _cycle_product_by_scan(n, alpha, beta)
                        assert product == (scan.codim, scan.num, scan.den), (n, alpha, beta)


def test_cycle_product_image_has_rank_one():
    # outputs for many formal cycles are all multiples of h^(i+j): one
    # codimension, and moments proportional to m_alpha * m_beta
    n, i, j = 7, 2, 3
    moments = range(1, 6)
    alphas = [FormalCycle(i, ma) for ma in moments]
    grid = cycle_products(n, alphas, [FormalCycle(j, mb) for mb in moments])
    ratios = set()
    for ma, row in zip(moments, grid):
        for mb, (codim, num, den) in zip(moments, row):
            assert codim == i + j
            ratios.add(Fraction(num, den) / (ma * mb))
    assert ratios == {Fraction(1, 3)}


def test_cycle_product_preconditions():
    with pytest.raises(UnsupportedRange):
        cycle_products(3, [FormalCycle(1, 3)], [FormalCycle(2, 3)])  # i + j = n
    with pytest.raises(UnsupportedRange):
        cycle_products(5, [FormalCycle(3, 3)], [FormalCycle(3, 3)])
    with pytest.raises(ValueError):
        FormalCycle(0, 3)


def test_n_is_type_checked_before_its_range():
    # ring_map_failures(0) once raised KeyError and ring_map_failures(1.0)
    # range()'s TypeError; cycle_products(2.5, ...) failed on its missing
    # table and cycle_products(True, ...) raised UnsupportedRange
    one = [FormalCycle(1, 3)]
    for n in (True, 1.0, 2.5):
        with pytest.raises(TypeError, match="dimension n must be int"):
            ring_map_failures(n)
        with pytest.raises(TypeError, match="dimension n must be int"):
            cycle_products(n, one, one)
    for n in (0, -1):
        with pytest.raises(UnsupportedRange, match="ring_map_failures needs n >= 1"):
            ring_map_failures(n)
    assert ring_map_failures(1) == []


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
    assert x3_diagonal(2, 1, 2) * x3_monomial(2, 0, 0, 2) == x3_diagonal(2, 1, 2, 2)


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
        # isinstance(True, int) holds, so a bool passed the old checks: a
        # codimension of True printed as codim=True
        lambda: FormalCycle(True, 3),
        lambda: xx_monomial(2, True, 1),
        lambda: x3_monomial(2, 1, False, 0),
        lambda: x3_diagonal(2, 1, 2, True),
        lambda: CohX3Class(2, {("d", 1, 2, False): 1}),
    ):
        with pytest.raises(TypeError):
            make()
    for make in (lambda: xx_monomial(2, 3, 0), lambda: x3_diagonal(2, 2, 1)):
        with pytest.raises(ValueError):
            make()
    assert XXClass(2, {key: Fraction(1, 2)}) == XXClass(2, {key: 1}).scale(Fraction(1, 2))
    assert FormalCycle(1, 3) == FormalCycle(1, Fraction(3))
    [[product]] = cycle_products(4, [FormalCycle(1, 3)], [FormalCycle(1, 3)])
    assert [type(x) for x in product] == [int, int, int]
    assert x3_monomial(2, 1, 1, 0, 2) == x3_monomial(2, 1, 1, 0, Fraction(4, 2))
    assert str(x3_monomial(2, 1, 1, 0)) == "h1*h2"


def test_bool_coefficients_and_moments_are_rejected():
    # errors.exact once read True as 1: FormalCycle(1, True) was the cycle of
    # moment 1 and XXClass(2, {("m", 1, 1): True}) printed h1*h2
    for make in (
        lambda: FormalCycle(1, True),
        lambda: FormalCycle(1, False),
        lambda: XXClass(2, {("m", 1, 1): True}),
        lambda: CohX3Class(2, {("m", 1, 1, 1): False}),
        lambda: xx_diagonal(2).scale(True),
    ):
        with pytest.raises(TypeError):
            make()


def test_formal_cycle_holds_its_moment_in_lowest_terms():
    a, b = FormalCycle(1, Fraction(6, 4)), FormalCycle(1, Fraction(3, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.codim, a.num, a.den) == (1, 3, 2)
    for moment in (Fraction(-5, 3), -4, Fraction(-6, 4)):
        cycle = FormalCycle(2, moment)
        assert cycle.den > 0 and gcd(cycle.num, cycle.den) == 1
        assert type(cycle.moment) is Fraction and cycle.moment == moment
    # a product of negative moments keeps a positive denominator too
    alpha, beta = FormalCycle(1, Fraction(-7, 2)), FormalCycle(2, Fraction(5, -3))
    [[out]] = cycle_products(5, [alpha], [beta])
    assert out == (3, 35, 18)
    assert FormalCycle(1, 0) == FormalCycle(1, Fraction(0, 27))
    assert FormalCycle(1, 3) != FormalCycle(2, 3) and FormalCycle(1, 3) != Fraction(3)
    # equality is type-strict: the fields (1, 3, 1) are not the cycle
    assert FormalCycle(1, 3) != (1, 3, 1) and FormalCycle(1, 3) != [1, 3, 1]
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
        codims = range(1, n - i)
        [row] = cycle_products(n, [FormalCycle(i, ma)], [FormalCycle(j, mb) for j in codims])
        for j, product in zip(codims, row):
            law = FormalCycle(i + j, Fraction(ma) * mb / 3)
            assert product == (law.codim, law.num, law.den), (n, i, j)


@st.composite
def _cycle_grids(draw):
    # codimensions all in range, or up to n so that some pairs fall out of it
    n = draw(st.integers(min_value=0, max_value=12))
    top = max(1, draw(st.sampled_from(((n - 1) // 2, n))))
    cycles = st.builds(FormalCycle, st.integers(1, top), _MOMENTS)
    return n, draw(st.lists(cycles, max_size=4)), draw(st.lists(cycles, max_size=4))


@settings(max_examples=80)
@given(_cycle_grids())
def test_cycle_products_match_the_fraction_law_pair_by_pair(grid):
    n, alphas, betas = grid
    bad = [(a, b) for a in alphas for b in betas if not a.codim + b.codim < n]
    if bad:
        # the first pair out of range, in row order, raises as it does alone
        alpha, beta = bad[0]
        text = (
            "cycle_products needs 0 < i, 0 < j, i + j < n; "
            f"got i={alpha.codim}, j={beta.codim}, n={n}"
        )
        for call in (
            lambda: cycle_products(n, alphas, betas),
            lambda: cycle_products(n, [alpha], [beta]),
        ):
            with pytest.raises(UnsupportedRange) as info:
                call()
            assert str(info.value) == text
        return
    out = cycle_products(n, alphas, betas)
    assert [len(row) for row in out] == [len(betas)] * len(alphas)
    for alpha, row in zip(alphas, out):
        for beta, product in zip(betas, row):
            # (1/9) m_alpha m_beta h^(i+j), whose moment is m_alpha m_beta / 3;
            # each product is the (codim, num, den) triple of the law's cycle
            law = FormalCycle(alpha.codim + beta.codim, alpha.moment * beta.moment / 3)
            assert product == (law.codim, law.num, law.den), (n, alpha, beta)


def test_product_rank_one_builds_few_fractions(monkeypatch):
    # the check's loop runs on integers: a Fraction is built for each of its
    # constants, not for each product (a count, not a timing); one 3 x 3 grid
    # per (i, j) holds h^i * h^j as its entry of moments (3, 3)
    n = 12
    assert _run_check("diagonal.product_rank_one", n) == ("ok", "ok")  # warm caches
    honest_products, honest_new = diagonal.cycle_products, Fraction.__new__
    counts = {"grids": 0, "products": 0, "fractions": 0}

    def products(*args):
        grid = honest_products(*args)
        counts["grids"] += 1
        counts["products"] += sum(map(len, grid))
        return grid

    def new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(diagonal, "cycle_products", products)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    result = _run_check("diagonal.product_rank_one", n)
    monkeypatch.undo()
    assert result == ("ok", "ok")
    assert counts["grids"] == 55  # one per (i, j) with i, j >= 1 and i + j < n
    assert counts["products"] == 495
    assert counts["fractions"] < counts["products"] / 5, counts


def test_product_rank_one_builds_a_cycle_per_operand_only(monkeypatch):
    # a count, not a timing: the products are integer triples, so the only
    # FormalCycles are the check's operands, three moments per codimension
    n = 12
    assert _run_check("diagonal.product_rank_one", n) == ("ok", "ok")  # warm caches
    honest, count = diagonal._new_cycle, [0]

    def new(cls):
        count[0] += 1
        return honest(cls)

    monkeypatch.setattr(diagonal, "_new_cycle", new)
    assert _run_check("diagonal.product_rank_one", n) == ("ok", "ok")
    assert count[0] == 3 * (n - 1)


def test_defect_pairing_builds_no_class_per_dual(monkeypatch):
    # the check pairs the defect against every monomial key in one reader
    # call: no X3Class and no Fraction is built per dual (a count, not a timing)
    n = 12
    assert _run_check("diagonal.defect_pairing", n) == ("ok", "ok")  # warm caches
    honest_pair, honest_new = diagonal._x3_pair_keys, Fraction.__new__
    honest_reduced = X3Class._reduced.__func__
    counts = {"calls": 0, "keys": 0, "classes": 0, "fractions": 0}

    def pair(a, keys):
        counts["calls"] += 1
        counts["keys"] += len(keys)
        return honest_pair(a, keys)

    def reduced(cls, *args):
        counts["classes"] += 1
        return honest_reduced(cls, *args)

    def new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(diagonal, "_x3_pair_keys", pair)
    monkeypatch.setattr(X3Class, "_reduced", classmethod(reduced))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    result = _run_check("diagonal.defect_pairing", n)
    monkeypatch.undo()
    assert result == ("ok", "ok")
    assert counts["calls"] == 1
    assert counts["keys"] == 91  # (n + 1)(n + 2) / 2 monomials of degree n
    assert counts["classes"] == 0, counts
    assert counts["fractions"] < counts["keys"] / 5, counts


def test_x3_product_rejects_mismatched_operands():
    a = x3_small_diagonal(3)
    with pytest.raises(ValueError, match="mismatched"):
        a * x3_monomial(4, 1, 0, 0)
    with pytest.raises(ValueError, match="mismatched"):
        a * small_diagonal_coh(3)


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


def test_key_order_and_text_belong_to_the_base():
    for cls in (XXClass, CohXXClass, X3Class, CohX3Class):
        own = {"_sort_key", "_format_key", "_format_term"} & set(vars(cls))
        assert not own, (cls.__name__, own)


def test_primitive_cancellation_catches_a_surviving_primitive_term(monkeypatch):
    honest = diagonal.x3_to_coh
    n = 3

    def leaky(a):
        return honest(a) + CohX3Class(a.n, {(PRIM, 1, 2, 0): Fraction(1, 3)})

    decomposable_coefficients.cache_clear()
    monkeypatch.setattr(diagonal, "x3_to_coh", leaky)
    try:
        with pytest.raises(CheckFailed, match=rf"^primitive term d12 survives at n={n}$"):
            _run_check("diagonal.primitive_cancellation", n)
    finally:
        monkeypatch.undo()
        decomposable_coefficients.cache_clear()
    assert _run_check("diagonal.primitive_cancellation", n) == ("ok", "ok")


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
    # the sums, products, maps and degrees run on integer numerators; a
    # Fraction is built at most once per call (the scale factor of ``-y``,
    # a degree), however many terms the operands have
    n = 4
    x = x3_to_coh(corrected_small_diagonal(n)) + small_diagonal_coh(n)
    y = CohX3Class(n, {k: Fraction(i + 1, 7) for i, k in enumerate(_coh_x3_basis(n)[:40])})
    a = corrected_small_diagonal(n) + X3Class(
        n, {k: Fraction(3 - i, 5) for i, k in enumerate(_x3_basis(n)[:40])}
    )
    b = XXClass(n, {k: Fraction(i - 4, 3) for i, k in enumerate(xx_basis(n))})
    h = X3Class(n, {k: Fraction(i + 2, 3) for i, k in enumerate(_x3_monomial_keys(n)[:40])})
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    # the sums, reductions and coefficient reads live in wpoly.SparseSum
    monkeypatch.setattr(diagonal, "Fraction", Counted)
    monkeypatch.setattr(wpoly, "Fraction", Counted)
    calls = (
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: a + a, lambda: a - a,
        lambda: a * h, lambda: b * b, lambda: b + b, lambda: degree(a * h),
        lambda: xx_to_coh(b), lambda: x3_to_coh(a), lambda: push13(x),
        lambda: XXClass(n, {k: 1 for k in xx_basis(n)}),
        lambda: corrected_small_diagonal(n),
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
    assert poly.terms and diamond.get(2, 1) == 5
    computed, expected = _run_check("diagonal.projector_law", 3)
    assert computed == expected


def test_product_rank_one_catches_a_stray_coefficient(monkeypatch):
    # a shifted moment, a shifted codimension and a halved moment (the checked
    # moments have odd numerators, so halving doubles only the denominator)
    # must all be seen, each applied to the (codim, num, den) triples
    honest = diagonal.cycle_products
    strays = (
        lambda codim, num, den: (codim, num + den, den),  # moment + 1
        lambda codim, num, den: (codim + 1, num, den),
        lambda codim, num, den: (codim, num, 2 * den),  # moment / 2
    )
    for case, shift in enumerate(strays):

        def stray(n, alphas, betas):
            return [[shift(*out) for out in row] for row in honest(n, alphas, betas)]

        monkeypatch.setattr(diagonal, "cycle_products", stray)
        computed, expected = _run_check("diagonal.product_rank_one", 4)
        assert computed != expected
        assert "moment scaling fails at (1,1)" in computed, case
        assert "h^" not in computed, case


def test_table_checks_catch_a_perturbed_entry(monkeypatch):
    table, den = decomposable_coefficients(4)
    bad = dict(table)
    bad[(3, 3, 2)] += 1
    monkeypatch.setattr(diagonal, "decomposable_coefficients", lambda n: (bad, den))
    computed, _ = _run_check("diagonal.symmetry", 4)
    assert "asymmetry at (3, 3, 2)" in computed and "asymmetry at (4, 4, 0)" not in computed
    computed, _ = _run_check("diagonal.interior_coefficient", 4)
    assert computed == "interior coefficient differs from 1/9"


def _symmetry_by_permutation_scan(table):
    """Reference: an entry is asymmetric if some permutation of its key differs."""
    failures = []
    for key, value in table.items():
        if any(table[perm] != value for perm in itertools.permutations(key)):
            failures.append(f"asymmetry at {key}")
    return ("ok" if not failures else "; ".join(failures), "ok")


def _interior_by_key_scan(n, table, den):
    """Reference: the interior entries found by a generator over each key."""
    interior = [t for key, t in table.items() if all(0 < e < n for e in key)]
    failures = []
    if not interior:
        failures.append("no interior indices")
    if any(9 * t != den for t in interior):
        failures.append("interior coefficient differs from 1/9")
    return ("ok" if not failures else "; ".join(failures), "ok")


@st.composite
def _perturbed_tables(draw):
    # 1-3 numerators shifted; a shift applied to a whole S3-orbit keeps the
    # orbit constant and moves only its value
    n = draw(st.integers(min_value=2, max_value=12))
    table, den = decomposable_coefficients(n)
    bad = dict(table)
    keys = sorted(table)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        shift = draw(st.integers(-3, 3).filter(bool))
        orbit = set(itertools.permutations(key)) if draw(st.booleans()) else {key}
        for k in orbit:
            bad[k] += shift
    return n, bad, den


@settings(max_examples=120)
@given(_perturbed_tables())
def test_table_rows_match_the_permutation_scan(case):
    n, bad, den = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagonal, "decomposable_coefficients", lambda m: (bad, den))
        assert _run_check("diagonal.symmetry", n) == _symmetry_by_permutation_scan(bad)
        assert _run_check("diagonal.interior_coefficient", n) == _interior_by_key_scan(n, bad, den)


def test_defect_pairing_catches_a_perturbed_defect(monkeypatch):
    honest = diagonal.small_diagonal_defect
    n = 4

    def perturbed(n):
        return honest(n) + x3_monomial(n, n, n, 0, Fraction(1, 9))

    # the perturbed defect is not cached: nothing perturbed is left behind
    monkeypatch.setattr(diagonal, "small_diagonal_defect", perturbed)
    computed, expected = _run_check("diagonal.defect_pairing", n)
    assert computed == f"monomial dual (0,0,{n})" and expected == "ok"
    monkeypatch.undo()
    assert _run_check("diagonal.defect_pairing", n) == ("ok", "ok")
    assert _run_check("diagonal.defect_vanishes", n) == ("ok", "ok")


def test_defect_vanishes_fails_only_with_primitive_cancellation(monkeypatch, row_at):
    # + 1/3 of each basis key of codimension 2n on the small diagonal: a
    # d_ab * h_c^n key survives in the image and fails both rows; a monomial
    # key moves the decomposable table and the defect with it, and neither
    # row sees it.  defect_vanishes never fails alone.
    rows = ("diagonal.defect_vanishes", "diagonal.primitive_cancellation")
    caches = (small_diagonal_coh, decomposable_coefficients, small_diagonal_defect)
    caught = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for n in range(1, 7):
        honest = small_diagonal_coh(n)
        keys = [("m", i, j, 2 * n - i - j) for i in range(n + 1) for j in range(n - i, n + 1)]
        for key in keys + [(PRIM, a, b, n) for a, b in PAIRS]:
            perturbed = honest + CohX3Class(n, {key: Fraction(1, 3)})
            monkeypatch.setattr(diagonal, "small_diagonal_coh", lambda n: perturbed)
            for cache in caches:
                cache.cache_clear()
            caught[tuple(row_at(row, n).status == "fail" for row in rows)] += 1
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
    assert caught == {(True, True): 18, (True, False): 0, (False, True): 0, (False, False): 83}
    assert _run_check("diagonal.defect_vanishes", 4) == ("ok", "ok")


# -- flip tests: one named fault per row that has no flip test above ------------


def _self_intersection_off_by_one(monkeypatch):
    # D * D = ((chi + 1)/9) h1^n h2^n in the Chow model of X^2
    honest = diagonal.euler_cubic
    monkeypatch.setattr(diagonal, "euler_cubic", lambda n: honest(n) + 1)


def _contraction_doubled(monkeypatch):
    # d_ab * d_bc = (2/3) h_b^n d_ac; the cached small diagonal is rebuilt under it
    honest = CohX3Class._term_mul

    def rule(self, k1, k2):
        out = honest(self, k1, k2)
        if k1[0] == k2[0] == PRIM:
            out = {key: 2 * c for key, c in out.items()}
        return out

    monkeypatch.setattr(CohX3Class, "_term_mul", rule)
    small_diagonal_coh.cache_clear()


def _primitive_leak_into_the_defect_image(monkeypatch):
    # the cycle-class map adds (1/3) d12 to every image; the decomposable table
    # is cached before the fault, so the leak reaches only the defect's image
    honest = diagonal.x3_to_coh

    def leaky(a):
        return honest(a) + CohX3Class(a.n, {(PRIM, 1, 2, 0): Fraction(1, 3)})

    monkeypatch.setattr(diagonal, "x3_to_coh", leaky)


_FAULTS = [  # (row, fault, text of the failure at n = 4, where chi = 27)
    ("diagonal.euler_self_intersection", _self_intersection_off_by_one, "28"),
    ("diagonal.kunneth_third", _contraction_doubled, "1/3,2/3,1/3"),
    ("diagonal.projector_law", _contraction_doubled, " + 2*d"),
    (
        "diagonal.defect_vanishes",
        _primitive_leak_into_the_defect_image,
        "defect cycle has nonzero image at n=4: 1/3*d12",
    ),
]


@pytest.mark.parametrize("row, fault, failure", _FAULTS, ids=[row for row, _, _ in _FAULTS])
def test_diagonal_row_fails_under_a_fault_in_its_route(monkeypatch, row, fault, failure):
    n = 4
    honest = _run_check(row, n)  # also warms the caches the fault leaves alone
    assert honest[0] == honest[1]
    fault(monkeypatch)
    try:
        try:
            computed = _run_check(row, n)[0]
        except CheckFailed as exc:
            computed = str(exc)
    finally:
        monkeypatch.undo()
        for cache in (small_diagonal_coh, decomposable_coefficients, small_diagonal_defect):
            cache.cache_clear()  # no value built under the fault stays cached
    assert computed != honest[1] and failure in computed, computed
    assert _run_check(row, n) == honest


def test_euler_self_intersection_fails_when_chi_is_off_by_one(monkeypatch):
    # chi read off the Chern class is off by one everywhere: D * D reads it,
    # and the row's other side, the Lefschetz trace of the Kunneth expansion
    # of D, reads the Hodge numbers (the row once compared chi with itself and
    # passed with 10, -5 and 28 on both sides)
    honest = hodge.euler_cubic

    def off_by_one(n):
        return honest(n) + 1

    monkeypatch.setattr(hodge, "euler_cubic", off_by_one)
    monkeypatch.setattr(diagonal, "euler_cubic", off_by_one)
    for n, chi in ((2, 9), (3, -6), (4, 27)):
        assert _run_check("diagonal.euler_self_intersection", n) == (str(chi + 1), str(chi))
    # the cycle-class map now ties D * D to d * d, so the ring-map row fails too
    computed, _ = _run_check("diagonal.model_compatibility", 2)
    assert "not a ring map at ('D',) * ('D',)" in computed


def test_diagonal_suite_passes_up_to_24(report_gate):
    # the report-equivalence gate of perfbench/run.py: a row the reference
    # executed must still run, pass and print the same strings
    report_gate(run(RunConfig(1, 24, ("diagonal",))), "diagonal_1_24")


# -- property tests: the cycle-class maps are linear, xx_to_coh multiplicative --

_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_PROPERTY_SETTINGS = settings(max_examples=60)


def _x3_basis(n):
    span = range(n + 1)
    keys = [("m", i, j, k) for i in span for j in span for k in span]
    keys += [("D", a, b, m) for a, b in PAIRS for m in range(n + 1)]
    keys.append(("D3",))
    return keys


def _x3_monomial_keys(n):
    """The monomial keys of any degree: a right operand that every class multiplies."""
    return [key for key in _x3_basis(n) if key[0] == "m"]


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


# -- reference: the Fraction implementation the integer models replaced ---------
#
# The four rule sets below are the pre-change ``_term_mul`` bodies with their
# ``Fraction`` coefficients, less the X^3 products of two diagonal classes,
# which the model refuses; ``_ref_mul`` is the pre-change ``__mul__``, and
# the maps are the pre-change loops.  Classes are plain
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
    raise ValueError("no product of two diagonal classes on X^3")


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
def _operands(draw, basis, right_basis=None):
    n = draw(st.integers(min_value=1, max_value=4))
    a, b = (
        _clean(draw(st.dictionaries(st.sampled_from(keys(n)), _RATIONALS, max_size=7)))
        for keys in (basis, right_basis or basis)
    )
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
@given(_operands(_x3_basis, _x3_monomial_keys))  # every example multiplies
def test_x3_model_matches_the_fraction_reference(operands):
    n, a, b, c = operands
    x, _ = _check_ring_ops(X3Class, _ref_x3_rule, n, a, b, c)
    assert _agrees(x3_to_coh(x), _ref_x3_to_coh(n, a))


@settings(max_examples=80)
@given(_operands(_coh_x3_basis))
def test_coh_x3_model_matches_the_fraction_reference(operands):
    n, a, b, c = operands
    x, _ = _check_ring_ops(CohX3Class, _ref_coh_x3_rule, n, a, b, c)
    assert _agrees(push13(x), _ref_push13(n, a))


# -- reference: the per-model key order and key text the shared printer replaced --


def _ref_xx_sort(key):
    if key[0] == "m":
        return (0, key[1] + key[2], -key[1], -key[2])
    return (1,)


def _ref_xx_format(key):
    if key[0] == "m":
        return format_monomial(("h1", "h2", "h3"), key[1:])
    return "D"


def _ref_coh_xx_format(key):
    if key[0] == "m":
        return format_monomial(("h1", "h2", "h3"), key[1:])
    return "d"


def _ref_x3_sort(key):
    if key[0] == "m":
        return (0, key[1] + key[2] + key[3], tuple(-e for e in key[1:]))
    if key[0] == "D":
        return (1, key[1:])
    return (2,)


def _ref_x3_format(key):
    if key[0] == "m":
        return format_monomial(("h1", "h2", "h3"), key[1:])
    if key[0] == "D":
        _, a, b, m = key
        tail = format_monomial((f"h{_third_slot(a, b)}",), (m,))
        return f"D{a}{b}" + (f"*{tail}" if tail else "")
    return "D3"


def _ref_coh_x3_sort(key):
    if key[0] == "m":
        return (0, key[1] + key[2] + key[3], tuple(-e for e in key[1:]))
    return (1, key[1:])


def _ref_coh_x3_format(key):
    if key[0] == "m":
        return format_monomial(("h1", "h2", "h3"), key[1:])
    _, a, b, m = key
    tail = format_monomial((f"h{_third_slot(a, b)}",), (m,))
    return f"d{a}{b}" + (f"*{tail}" if tail else "")


_REF_PRINTERS = {
    XXClass: (_ref_xx_sort, _ref_xx_format),
    CohXXClass: (_ref_xx_sort, _ref_coh_xx_format),
    X3Class: (_ref_x3_sort, _ref_x3_format),
    CohX3Class: (_ref_coh_x3_sort, _ref_coh_x3_format),
}


@settings(max_examples=120)
@given(st.one_of(*(_classes(cls, basis, 1) for cls, _, basis in _MODELS)))
def test_shared_printer_matches_the_per_model_printers(classes):
    (x,) = classes
    sort_key, format_key = _REF_PRINTERS[type(x)]
    terms = x.terms
    expected = signed_sum(
        ((format_key(k), x.num[k]) for k in sorted(terms, key=sort_key)), x.den
    )
    assert str(x) == expected


# -- the many-key X^3 pairing reader against the degree of the product ----------


@st.composite
def _x3_classes_and_keys(draw):
    # the class has terms of every shape, the keys are monomials
    n = draw(st.integers(min_value=1, max_value=6))
    a = X3Class(n, draw(st.dictionaries(st.sampled_from(_x3_basis(n)), _COEFFS, max_size=8)))
    return a, draw(st.lists(st.sampled_from(_x3_monomial_keys(n)), max_size=12))


def _assert_pair_keys(a, keys):
    values = diagonal._x3_pair_keys(a, keys)
    assert len(values) == len(keys)
    for key, v in zip(keys, values):
        assert type(v) is int
        assert Fraction(v, a.den) == degree(a * X3Class(a.n, {key: 1})), key


@_PROPERTY_SETTINGS
@given(_x3_classes_and_keys())
def test_x3_pair_keys_read_the_degree_of_each_product(case):
    _assert_pair_keys(*case)


def test_x3_pair_keys_on_the_defect_and_every_key():
    for n in range(1, 7):
        for a in (small_diagonal_defect(n), corrected_small_diagonal(n)):
            _assert_pair_keys(a, _x3_monomial_keys(n))


# -- the integer printer against a Fraction printer of ``terms`` -----------------


def _ref_text(terms, sort_key, format_key):
    """Signed sum of the ``Fraction`` coefficients ``terms``, by ``str(Fraction)``."""
    pieces = []
    for key in sorted(terms, key=sort_key):
        c, body = terms[key], format_key(key)
        mag = abs(c)
        text = body if body and mag == 1 else (f"{mag}*{body}" if body else str(mag))
        sign = ("+ " if c > 0 else "- ") if pieces else ("" if c > 0 else "-")
        pieces.append(sign + text)
    return " ".join(pieces) or "0"


def _ref_poly_sort(exps):
    a, b = exps
    return (-(a + 2 * b), -a, -b)


def _ref_poly_format(exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xy", exps) if e)


_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 3)), _COEFFS, max_size=6
).map(WPoly)


@settings(max_examples=120)
@given(
    st.one_of(
        _POLYS,
        _classes(CohXXClass, _coh_xx_basis, 1).map(lambda c: c[0]),
        _classes(X3Class, _x3_basis, 1).map(lambda c: c[0]),
    )
)
def test_integer_printer_matches_a_fraction_printer(x):
    if type(x) is WPoly:
        sort_key, format_key = _ref_poly_sort, _ref_poly_format
    else:
        sort_key, format_key = _REF_PRINTERS[type(x)]
    assert str(x) == _ref_text(x.terms, sort_key, format_key)
