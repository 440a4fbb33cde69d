import itertools
from fractions import Fraction

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
    XClass,
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
        table = decomposable_coefficients(n)
        for (i, j, k), value in table.items():
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
        for (i, j, k), value in decomposable_coefficients(n).items():
            dual = x3_monomial(n, n - i, n - j, n - k)
            assert x3_pair(gamma, dual) == 27 * value, (n, i, j, k)


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
                assert result == XClass.h_power(n, i + j)


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
                        expected = XClass.h_power(n, i + j, Fraction(1, 9) * ma * mb)
                        assert result == expected


def _cycle_product_by_scan(n, alpha, beta):
    """Reference: scan the whole decomposable table for surviving entries."""
    i, j = alpha.codim, beta.codim
    coeff = Fraction(0)
    for (r, s, t), a_rst in decomposable_coefficients(n).items():
        if a_rst != 0 and r == n - i and s == n - j:
            assert t == i + j
            coeff += a_rst * alpha.moment * beta.moment
    out = [Fraction(0)] * (n + 1)
    out[i + j] = coeff
    return XClass(n, tuple(out))


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
    # outputs for many formal cycles all lie on the line spanned by h^(i+j)
    n, i, j = 7, 2, 3
    outputs = []
    for ma in range(1, 6):
        for mb in range(1, 6):
            out = cycle_product(n, FormalCycle(i, ma), FormalCycle(j, mb))
            outputs.append(out)
    base = XClass.h_power(n, i + j)
    for out in outputs:
        scale = out.coeffs[i + j]
        assert out == XClass(n, tuple(scale * c for c in base.coeffs))


def test_cycle_product_preconditions():
    with pytest.raises(UnsupportedRange):
        cycle_product(3, FormalCycle(1, 3), FormalCycle(2, 3))  # i + j = n
    with pytest.raises(UnsupportedRange):
        cycle_product(5, FormalCycle(3, 3), FormalCycle(3, 3))
    with pytest.raises(ValueError):
        FormalCycle(0, 3)


def test_xclass_arithmetic():
    n = 4
    h = XClass.h_power(n, 1)
    assert h * h == XClass.h_power(n, 2)
    assert XClass.h_power(n, n).degree() == 3
    assert (XClass.h_power(n, 3) * XClass.h_power(n, 2)).degree() == 0


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
    table = decomposable_coefficients(4)
    with pytest.raises(TypeError):
        table[(3, 3, 2)] = 5
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
    assert decomposable_coefficients(4)[(3, 3, 2)] == Fraction(1, 9)
    for check_id, n in (
        ("diagonal.product_rank_one", 4),
        ("diagonal.symmetry", 4),
        ("diagonal.projector_law", 3),
    ):
        computed, expected = _run_check(check_id, n)
        assert computed == expected, check_id


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
    honest = diagonal.cycle_product

    def stray(n, alpha, beta):
        coeffs = list(honest(n, alpha, beta).coeffs)
        coeffs[0] += 1
        return XClass(n, tuple(coeffs))

    monkeypatch.setattr(diagonal, "cycle_product", stray)
    computed, expected = _run_check("diagonal.product_rank_one", 4)
    assert computed != expected
    assert "h^1 * h^1 != h^2" in computed


def test_defect_pairing_catches_a_perturbed_defect(monkeypatch):
    honest = diagonal.small_diagonal_defect
    n = 4
    monkeypatch.setattr(
        diagonal,
        "small_diagonal_defect",
        lambda n: honest(n) + x3_monomial(n, n, n, 0, Fraction(1, 9)),
    )
    computed, expected = _run_check("diagonal.defect_pairing", n)
    assert computed != expected
    assert f"monomial dual (0,0,{n})" in computed


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
