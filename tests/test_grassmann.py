import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicchow.grassmann as grassmann
import cubicchow.linalg as linalg
from cubicchow.checks import REGISTRY
from cubicchow.cli import RunConfig, run
from cubicchow.errors import NotTopDegree, UnsupportedRange
from cubicchow.fano import fano_pairing
from cubicchow.grassmann import (
    Partition2,
    build_ring,
    complete_symmetric,
    degree_of_poly,
    fano_poly,
    giambelli,
    giambelli_coords,
    monomial_schubert,
    normal_form,
    pairing,
    partition_count,
    partitions_in_box,
    pieri_mul,
    poly_schubert,
    schubert_degree,
    schubert_mul,
    schubert_pairing,
    shift11,
    sym_power_chern,
    weight_monomials,
)
from cubicchow.wpoly import WPoly


def test_complete_symmetric_small():
    assert complete_symmetric(0) == WPoly.constant(1)
    assert complete_symmetric(2) == WPoly({(2, 0): 1, (0, 1): -1})
    assert complete_symmetric(3) == WPoly({(3, 0): 1, (1, 1): -2})
    with pytest.raises(ValueError):
        complete_symmetric(-1)


def test_ring_dimensions_match_partition_counts():
    assert [build_ring(2).dim(k) for k in range(5)] == [1, 1, 2, 1, 1]
    assert build_ring(3).dim(2) == 2
    for n in range(1, 9):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            assert ring.dim(k) == partition_count(n, k)
        assert ring.dim(2 * n) == 1
        # Poincare symmetry of the dimensions
        for k in range(2 * n + 1):
            assert ring.dim(k) == ring.dim(2 * n - k)


def test_normal_form_examples():
    for n in (2, 3, 4):
        ring = build_ring(n)
        assert not any(normal_form(ring, complete_symmetric(n + 1)))
        c1 = normal_form(ring, WPoly.variable("x"))
        assert c1 == (Fraction(1),)
    ring2 = build_ring(2)
    assert normal_form(ring2, WPoly.monomial((3, 0))) == normal_form(
        ring2, WPoly.monomial((1, 1), 2)
    )


def test_normal_form_rejects_bad_input():
    ring = build_ring(2)
    with pytest.raises(ValueError):
        normal_form(ring, WPoly.constant(1) + WPoly.variable("x"))
    with pytest.raises(ValueError):
        normal_form(ring, WPoly.monomial((5, 0)))


_FOREIGN = WPoly({(2, 0): 1}, ("r", "s"), (1, 1))  # r^2: degree 2, like c1^2


def test_normal_form_rejects_a_foreign_variable_set():
    ring = build_ring(3)
    with pytest.raises(ValueError, match="mismatched variable sets"):
        normal_form(ring, _FOREIGN)
    with pytest.raises(ValueError, match="mismatched variable sets"):
        normal_form(ring, WPoly({(0, 1): 1}, ("r", "s"), (1, 1)))


def test_pairing_rejects_a_foreign_weight():
    with pytest.raises(ValueError, match="mismatched variable sets"):
        pairing(build_ring(3), 0, _FOREIGN)


def test_poly_schubert_rejects_a_foreign_variable_set():
    with pytest.raises(ValueError, match="mismatched variable sets"):
        poly_schubert(3, _FOREIGN)


def test_pieri_examples():
    assert pieri_mul(2, Partition2(0, 0), 1) == {Partition2(1, 0): 1}
    assert pieri_mul(2, Partition2(1, 0), 1) == {
        Partition2(2, 0): 1,
        Partition2(1, 1): 1,
    }
    assert shift11(2, {Partition2(1, 1): 1}, 1) == {Partition2(2, 2): 1}
    assert shift11(2, {Partition2(2, 0): 1}, 1) == {}
    assert shift11(3, {Partition2(1, 0): 2, Partition2(3, 2): 1}, 1) == {Partition2(2, 1): 2}
    assert shift11(3, {Partition2(1, 1): 1}, 0) == {Partition2(1, 1): 1}


def test_degree_map_classical_values():
    assert degree_of_poly(build_ring(2), WPoly.monomial((4, 0))) == 2
    assert degree_of_poly(build_ring(3), WPoly.monomial((6, 0))) == 5
    for n in range(1, 7):
        ring = build_ring(n)
        assert degree_of_poly(ring, WPoly.monomial((0, n))) == 1
        catalan = comb(2 * n, n) // (n + 1)
        assert degree_of_poly(ring, WPoly.monomial((2 * n, 0))) == catalan
        assert schubert_degree(n, dict(monomial_schubert(n, 2 * n, 0))) == catalan


def test_degree_needs_top_codimension():
    ring = build_ring(3)
    with pytest.raises(NotTopDegree):
        degree_of_poly(ring, WPoly.variable("x"))
    assert degree_of_poly(ring, WPoly.zero()) == 0


def test_sym_power_chern_small_cases():
    assert sym_power_chern(1) == (
        WPoly.constant(1),
        WPoly.variable("x"),
        WPoly.variable("y"),
    )
    sym2 = sym_power_chern(2)
    assert sym2[3] == WPoly({(1, 1): 4})
    sym3 = sym_power_chern(3)
    assert sym3[4] == WPoly({(2, 1): 18, (0, 2): 9})
    assert sym3[0] == WPoly.constant(1)
    with pytest.raises(ValueError):
        sym_power_chern(0)


def test_sym_power_chern_numeric_evaluation_oracle():
    # evaluate both sides at random rational roots r, s
    rng = random.Random(2718)
    for m in (1, 2, 3, 4):
        chern = sym_power_chern(m)
        for _ in range(20):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            roots = [i * r + (m - i) * s for i in range(m + 1)]
            elementary = [Fraction(1)]
            for root in roots:
                nxt = [elementary[0]]
                for k in range(1, len(elementary) + 1):
                    prev = elementary[k] if k < len(elementary) else Fraction(0)
                    nxt.append(prev + elementary[k - 1] * root)
                elementary = nxt
            c1, c2 = r + s, r * s
            for k, poly in enumerate(chern):
                value = sum(
                    c * c1**a * c2**b for (a, b), c in poly.terms.items()
                )
                assert value == elementary[k], (m, k)


def test_fano_class_values():
    ring2 = build_ring(2)
    assert degree_of_poly(ring2, fano_poly()) == 27
    ring3 = build_ring(3)
    assert degree_of_poly(ring3, WPoly.monomial((2, 0)) * fano_poly()) == 45
    for n in range(2, 9):
        assert any(normal_form(build_ring(n), fano_poly()))
    # [F] has degree 4, beyond the top degree 2 of Gr(2, 3)
    with pytest.raises(ValueError):
        normal_form(build_ring(1), fano_poly())
    with pytest.raises(NotTopDegree):
        degree_of_poly(build_ring(1), fano_poly())


def test_fano_class_equals_sym3_top():
    assert fano_poly() == sym_power_chern(3)[4]


def test_poincare_pairing_invertible():
    for n in range(1, 7):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            matrix = pairing(ring, k)
            assert matrix.rows == matrix.cols
            assert matrix.rank() == matrix.rows


def test_degree_is_linear_and_normalized():
    n = 4
    ring = build_ring(n)
    top = [WPoly.monomial(m) for m in ring.bases[2 * n]]
    a, b = Fraction(3, 2), Fraction(-7)
    combo = top[0] * a + top[0] * b
    assert degree_of_poly(ring, combo) == (a + b) * degree_of_poly(ring, top[0])
    assert schubert_degree(n, {Partition2(n, n): Fraction(1)}) == 1


def test_oracle_equivalence_small_n():
    # normal_form of a product against the Pieri/Giambelli route
    for n in range(1, 6):
        ring = build_ring(n)
        for k1 in range(2 * n + 1):
            for k2 in range(2 * n + 1 - k1):
                for m1 in ring.bases[k1]:
                    for m2 in ring.bases[k2]:
                        direct = normal_form(
                            ring, WPoly.monomial(m1) * WPoly.monomial(m2)
                        )
                        sch = schubert_mul(
                            n,
                            dict(monomial_schubert(n, *m1)),
                            dict(monomial_schubert(n, *m2)),
                        )
                        rebuilt = normal_form(ring, WPoly.zero(), degree=k1 + k2)
                        for part, c in sch.items():
                            back = normal_form(ring, giambelli(part))
                            rebuilt = tuple(r + c * b for r, b in zip(rebuilt, back))
                        assert direct == rebuilt, (n, m1, m2)


def test_giambelli_consistency():
    # sigma_(a,b) expansion of a monomial round-trips through poly_schubert
    for n in (2, 3, 4):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            for mono in weight_monomials(k):
                sch = dict(monomial_schubert(n, *mono))
                back = WPoly.zero()
                for part, c in sch.items():
                    back = back + giambelli(part) * c
                assert normal_form(ring, back, degree=k) == normal_form(
                    ring, WPoly.monomial(mono), degree=k
                )


def test_poly_schubert_of_fano_poly():
    n = 3
    sch = poly_schubert(n, fano_poly())
    direct = schubert_mul(
        n,
        {Partition2(2, 1): Fraction(18)},
        {Partition2(0, 0): Fraction(1)},
    )
    # 18 c1^2 c2 + 9 c2^2 expanded degree-wise must integrate to 27 against c2
    paired = schubert_mul(n, sch, dict(monomial_schubert(n, 0, 1)))
    assert schubert_degree(n, paired) == 27
    assert sum(sch.values(), Fraction(0)) != 0
    assert direct  # sanity: schubert_mul produces something


def test_schubert_pairing_is_degree_of_product():
    # Poincare duality readout against the full product, every pair of
    # Schubert classes and every complementary pair of monomials
    for n in range(1, 9):
        classes = [
            {part: 1} for k in range(2 * n + 1) for part in partitions_in_box(n, k)
        ]
        for s1 in classes:
            for s2 in classes:
                assert schubert_pairing(n, s1, s2) == schubert_degree(
                    n, schubert_mul(n, s1, s2)
                ), (n, s1, s2)
        for k in range(2 * n + 1):
            for m1 in weight_monomials(k):
                s1 = dict(monomial_schubert(n, *m1))
                for m2 in weight_monomials(2 * n - k):
                    s2 = dict(monomial_schubert(n, *m2))
                    assert schubert_pairing(n, s1, s2) == schubert_degree(
                        n, schubert_mul(n, s1, s2)
                    ), (n, m1, m2)


def _refuse(*args, **kwargs):
    raise AssertionError("the Schubert route reached the quotient ring")


def test_schubert_route_is_independent_of_the_quotient_ring(monkeypatch):
    entries = {}
    with monkeypatch.context() as patch:
        for module, name in (
            (grassmann, "build_ring"),
            (grassmann, "normal_form"),
            (grassmann, "rref"),
            (linalg, "rref"),
        ):
            patch.setattr(module, name, _refuse)
        grassmann.monomial_schubert.cache_clear()
        for n in range(2, 7):
            f_sch = grassmann.poly_schubert(n, fano_poly())
            for k in range(2 * (n - 2) + 1):
                for ml in weight_monomials(k):
                    left = schubert_mul(n, dict(monomial_schubert(n, *ml)), f_sch)
                    for mr in weight_monomials(2 * (n - 2) - k):
                        right = dict(monomial_schubert(n, *mr))
                        entries[(n, ml, mr)] = schubert_pairing(n, left, right)
    # the same numbers by the quotient ring
    for n in range(2, 7):
        for k in range(2 * (n - 2) + 1):
            pairing = fano_pairing(n, k)
            for i, ml in enumerate(pairing.left_basis):
                for j, mr in enumerate(pairing.right_basis):
                    assert entries[(n, ml, mr)] == pairing.matrix.entries[i][j]


def test_schubert_sums_have_int_coefficients():
    for n in range(1, 7):
        sums = [
            dict(monomial_schubert(n, *m))
            for k in range(2 * n + 1)
            for m in weight_monomials(k)
        ]
        for s in sums:
            assert all(type(c) is int for c in s.values())
        for s1 in sums[:8]:
            for s2 in sums[-8:]:
                assert all(type(c) is int for c in schubert_mul(n, s1, s2).values())
        f_sch = poly_schubert(n, fano_poly())
        assert all(type(c) is int for c in f_sch.values())
    half = poly_schubert(3, WPoly({(1, 0): Fraction(1, 2)}))
    assert half == {Partition2(1, 0): Fraction(1, 2)}


def test_cached_ring_reducers_are_read_only():
    ring = build_ring(3)
    with pytest.raises(TypeError):
        ring.reducers[6][(6, 0)] = (Fraction(6),)
    with pytest.raises(TypeError):
        del ring.reducers[6][(6, 0)]
    # the attempted writes changed nothing that later checks read
    assert build_ring(3).reducers[6][(6, 0)] == (Fraction(5),)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.degree_catalan"]
    assert check.fn(3) == ("5", "5")


def test_cached_polynomial_terms_are_read_only():
    h4 = complete_symmetric(4)
    before = dict(h4.terms)
    with pytest.raises(TypeError):
        h4.terms[(4, 0)] = Fraction(2)
    with pytest.raises(TypeError):
        del h4.terms[(4, 0)]
    # the attempted writes changed nothing that later checks read
    assert complete_symmetric(4).terms == before
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.degree_catalan"]
    assert check.fn(3) == ("5", "5")


# -- the Groebner fill and the top-reducer pairing -------------------------------


def _eliminated_reducers(n):
    """Reference: reduce each graded piece by row reduction of the ideal rows."""
    g1, g2 = complete_symmetric(n + 1), complete_symmetric(n + 2)
    out = []
    for k in range(2 * n + 1):
        monos = weight_monomials(k)
        rows = [
            [(WPoly.monomial(cof) * gen).coefficient(m) for m in monos]
            for gen, gdeg in ((g1, n + 1), (g2, n + 2))
            if k >= gdeg
            for cof in weight_monomials(k - gdeg)
        ]
        reduced, pivots = linalg.rref(rows)
        free = [i for i in range(len(monos)) if i not in pivots]
        reducer = {}
        for i, mono in enumerate(monos):
            if i in free:
                reducer[mono] = tuple(Fraction(int(f == i)) for f in free)
            else:
                row = reduced[pivots.index(i)]  # a primitive integer multiple
                reducer[mono] = tuple(Fraction(-row[f], row[i]) for f in free)
        out.append((tuple(monos[i] for i in free), reducer))
    return out


def test_groebner_fill_matches_elimination():
    for n in range(1, 15):
        ring = build_ring(n)
        for k, (basis, reducer) in enumerate(_eliminated_reducers(n)):
            assert ring.bases[k] == basis, (n, k)
            assert dict(ring.reducers[k]) == reducer, (n, k)
            assert all(type(c) is int for v in ring.reducers[k].values() for c in v)


def test_degree_is_an_exact_fraction():
    for n in (1, 2, 5):
        ring = build_ring(n)
        value = degree_of_poly(ring, WPoly.monomial((2 * n, 0)))
        assert type(value) is Fraction
        assert value == comb(2 * n, n) // (n + 1)
        assert type(degree_of_poly(ring, WPoly.monomial((0, n)))) is Fraction


def _product_pairing(ring, k, weight):
    # reference: form each triple product and reduce it to the top degree
    top = 2 * ring.n - weight.homogeneous_degree()
    return [
        [
            degree_of_poly(ring, WPoly.monomial(ml) * WPoly.monomial(mr) * weight)
            for mr in ring.bases[top - k]
        ]
        for ml in ring.bases[k]
    ]


def test_pairing_matches_triple_products():
    for n in range(1, 9):
        ring = build_ring(n)
        one = WPoly.constant(1)
        for k in range(2 * n + 1):
            assert pairing(ring, k).entries == pairing(ring, k, one).entries
            assert [list(r) for r in pairing(ring, k).entries] == _product_pairing(ring, k, one)
        if n < 2:
            continue
        # [F] also through its reduced representative on the degree-4 basis
        reduced = WPoly(dict(zip(ring.bases[4], normal_form(ring, fano_poly()))))
        weights = (fano_poly(), reduced, WPoly({(1, 0): Fraction(1, 2)}))
        for weight in weights:
            for k in range(2 * ring.n - weight.homogeneous_degree() + 1):
                expected = _product_pairing(ring, k, weight)
                assert [list(r) for r in pairing(ring, k, weight).entries] == expected


def test_pairing_range_errors():
    ring = build_ring(3)
    with pytest.raises(UnsupportedRange):
        pairing(ring, 7)
    with pytest.raises(UnsupportedRange):
        pairing(ring, 3, fano_poly())


def _refuse_schubert(*args, **kwargs):
    raise AssertionError("the quotient route reached the Schubert oracle")


def test_quotient_route_is_independent_of_the_schubert_oracle(monkeypatch):
    with monkeypatch.context() as patch:
        for name in (
            "schubert_mul",
            "pieri_mul",
            "shift11",
            "monomial_schubert",
            "poly_schubert",
        ):
            patch.setattr(grassmann, name, _refuse_schubert)
        build_ring.cache_clear()
        fano_pairing.cache_clear()
        for n in range(1, 9):
            ring = build_ring(n)
            for k in range(2 * n + 1):
                assert pairing(ring, k).rank() == ring.dim(k)
            for k in range(2 * (n - 2) + 1):
                assert fano_pairing(n, k).matrix.rows == ring.dim(k)
    # the same numbers by the Schubert oracle
    for n in range(2, 9):
        f_sch = poly_schubert(n, fano_poly())
        for k in range(2 * (n - 2) + 1):
            pairing_k = fano_pairing(n, k)
            for i, ml in enumerate(pairing_k.left_basis):
                left = schubert_mul(n, dict(monomial_schubert(n, *ml)), f_sch)
                for j, mr in enumerate(pairing_k.right_basis):
                    right = dict(monomial_schubert(n, *mr))
                    assert schubert_pairing(n, left, right) == pairing_k.matrix.entries[i][j]


# -- the integer Giambelli table and tuple-keyed Schubert products --------------


def test_giambelli_coords_are_the_normal_form_in_integers():
    for n in range(1, 13):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            for part in partitions_in_box(n, k):
                coords = giambelli_coords(ring, part)
                assert coords == normal_form(ring, giambelli(part)), (n, part)
                assert all(type(c) is int for c in coords), (n, part)


def _schubert_mul_reference(n, s1, s2):
    """The product as written before the tuple keys: a Partition2 per term."""
    out = {}
    get = out.get
    for (c, d), coeff2 in s2.items():
        p = c - d
        for (a, b), coeff1 in s1.items():
            coeff = coeff1 * coeff2
            size = a + b + c + d
            for top in range(max(a, b + p) + d, min(n, a + p + d) + 1):
                key = Partition2(top, size - top)
                out[key] = get(key, 0) + coeff
    return {key: v for key, v in out.items() if v}


def test_schubert_mul_matches_reference_on_monomials():
    for n in range(1, 9):
        sums = [
            dict(monomial_schubert(n, *m))
            for k in range(2 * n + 1)
            for m in weight_monomials(k)
        ]
        for s1 in sums:
            for s2 in sums:
                got = schubert_mul(n, s1, s2)
                assert got == _schubert_mul_reference(n, s1, s2), (n, s1, s2)
                assert all(type(key) is Partition2 for key in got), (n, s1, s2)


@st.composite
def _schubert_sums(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    parts = [part for k in range(2 * n + 1) for part in partitions_in_box(n, k)]
    coeffs = st.integers(min_value=-5, max_value=5)
    s1, s2 = (
        draw(st.dictionaries(st.sampled_from(parts), coeffs, max_size=6))
        for _ in range(2)
    )
    return n, s1, s2


@settings(max_examples=150)
@given(_schubert_sums())
def test_schubert_mul_matches_reference_on_inhomogeneous_sums(case):
    n, s1, s2 = case
    got = schubert_mul(n, s1, s2)
    assert got == _schubert_mul_reference(n, s1, s2)
    assert all(type(key) is Partition2 for key in got)


def test_pieri_oracle_catches_a_perturbed_giambelli_entry(monkeypatch):
    honest = grassmann.giambelli_coords

    def perturbed(ring, part):
        coords = honest(ring, part)
        if part == Partition2(2, 1):
            return (coords[0] + 1,) + coords[1:]
        return coords

    monkeypatch.setattr(grassmann, "giambelli_coords", perturbed)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.pieri_oracle"]
    computed, expected = check.fn(4)
    assert computed != expected
    assert "mismatch at (2, 0)*(1, 0)" in computed


def test_pieri_oracle_rows_above_the_benchmark_range_pass():
    # n = 11..15 lie below the cap and above every benchmark workload
    results = run(RunConfig(11, 15, ("grassmann",)))
    rows = [r for r in results if r.check_id == "grassmann.pieri_oracle"]
    assert [(r.n, r.status) for r in rows] == [(n, "pass") for n in range(11, 16)]
    assert all((r.computed, r.expected) == ("ok", "ok") for r in rows)


def test_sigma11_shift_of_x_power_products_is_the_full_product(monkeypatch):
    # the identity the Pieri oracle rests on, kept under test on the full-product path
    pairs = 0
    with monkeypatch.context() as patch:
        for module, name in (
            (grassmann, "build_ring"),
            (grassmann, "normal_form"),
            (grassmann, "rref"),
            (linalg, "rref"),
        ):
            patch.setattr(module, name, _refuse)
        for n in range(1, 9):
            monos = [m for k in range(2 * n + 1) for m in weight_monomials(k) if sum(m) <= n]
            for a1, b1 in monos:
                for a2, b2 in monos:
                    if a1 + 2 * b1 + a2 + 2 * b2 > 2 * n:
                        continue
                    powers = [dict(monomial_schubert(n, a, 0)) for a in (a1, a2)]
                    shifted = shift11(n, schubert_mul(n, *powers), b1 + b2)
                    full = schubert_mul(
                        n,
                        dict(monomial_schubert(n, a1, b1)),
                        dict(monomial_schubert(n, a2, b2)),
                    )
                    assert shifted == full, (n, (a1, b1), (a2, b2))
                    pairs += 1
    assert pairs == 2670


def test_pieri_oracle_catches_a_perturbed_schubert_product(monkeypatch):
    honest = grassmann.schubert_mul

    def perturbed(n, s1, s2):
        out = honest(n, s1, s2)
        if Partition2(2, 1) in out:
            out[Partition2(2, 1)] += 1
        return out

    monkeypatch.setattr(grassmann, "schubert_mul", perturbed)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.pieri_oracle"]
    computed, expected = check.fn(4)
    assert computed != expected
    assert "mismatch at (1, 0)*(2, 0)" in computed


def test_pieri_oracle_multiplies_each_pair_of_x_powers_once(monkeypatch):
    calls = []
    honest = grassmann.schubert_mul

    def counted(n, s1, s2):
        calls.append(n)
        return honest(n, s1, s2)

    monkeypatch.setattr(grassmann, "schubert_mul", counted)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.pieri_oracle"]
    assert check.fn(10) == ("ok", "ok")
    assert len(calls) == 11 * 11
