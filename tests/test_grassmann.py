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
from cubicchow.errors import UnsupportedRange
from cubicchow.fano import fano_pairings
from cubicchow.grassmann import (
    build_ring,
    complete_symmetric,
    degree_of_poly,
    fano_poly,
    giambelli,
    giambelli_coords,
    monomial_schubert,
    normal_form,
    pairing,
    partitions_in_box,
    poly_schubert,
    schubert_degree,
    schubert_mul,
    shift11,
    sym_power_chern,
    weight_monomials,
)
from cubicchow.hodge import HodgeDiamond
from cubicchow.wpoly import WPoly


def test_complete_symmetric_small():
    assert complete_symmetric(0) == WPoly.constant(1)
    assert complete_symmetric(2) == WPoly({(2, 0): 1, (0, 1): -1})
    assert complete_symmetric(3) == WPoly({(3, 0): 1, (1, 1): -2})
    with pytest.raises(ValueError):
        complete_symmetric(-1)


def _poincare_coefficients(n):
    # (1 - q^(n+1) - q^(n+2) + q^(2n+3)) / ((1 - q)(1 - q^2)), the Poincare
    # polynomial of Gr(2, n+2); 1 / ((1 - q)(1 - q^2)) has m // 2 + 1 at q^m
    def series(m):
        return m // 2 + 1 if m >= 0 else 0

    return [
        series(k) - series(k - n - 1) - series(k - n - 2) + series(k - 2 * n - 3)
        for k in range(2 * n + 1)
    ]


def test_ring_dimensions_match_partition_counts(row_at):
    assert [build_ring(2).dim(k) for k in range(5)] == [1, 1, 2, 1, 1]
    assert build_ring(3).dim(2) == 2
    for n in range(1, 9):
        ring = build_ring(n)
        counts = _poincare_coefficients(n)
        assert [ring.dim(k) for k in range(2 * n + 1)] == counts
        assert [len(partitions_in_box(n, k)) for k in range(2 * n + 1)] == counts
        assert row_at("grassmann.basis_dims", n).expected == str(counts)
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


_FOREIGN = HodgeDiamond({(1, 1): 1})  # a sparse sum, but not a polynomial in (x, y)


def test_normal_form_rejects_a_foreign_variable_set():
    ring = build_ring(3)
    with pytest.raises(ValueError, match="mismatched"):
        normal_form(ring, _FOREIGN)
    with pytest.raises(ValueError, match="mismatched"):
        normal_form(ring, "x^2")  # text, not yet parsed


def test_pairing_rejects_a_foreign_weight():
    with pytest.raises(ValueError, match="mismatched"):
        pairing(build_ring(3), 0, _FOREIGN)


def test_poly_schubert_rejects_a_foreign_variable_set():
    with pytest.raises(ValueError, match="mismatched"):
        poly_schubert(3, _FOREIGN)


def test_pieri_examples():
    assert shift11(2, {(1, 1): 1}, 1) == {(2, 2): 1}
    assert shift11(2, {(2, 0): 1}, 1) == {}
    assert shift11(3, {(1, 0): 2, (3, 2): 1}, 1) == {(2, 1): 2}
    assert shift11(3, {(1, 1): 1}, 0) == {(1, 1): 1}


def test_degree_map_classical_values():
    assert degree_of_poly(build_ring(2), WPoly.monomial((4, 0))) == 2
    assert degree_of_poly(build_ring(3), WPoly.monomial((6, 0))) == 5
    for n in range(1, 7):
        ring = build_ring(n)
        assert degree_of_poly(ring, WPoly.monomial((0, n))) == 1
        catalan = comb(2 * n, n) // (n + 1)
        assert degree_of_poly(ring, WPoly.monomial((2 * n, 0))) == catalan
        assert schubert_degree(n, monomial_schubert(n, 2 * n, 0)) == catalan


def test_degree_needs_top_codimension():
    ring = build_ring(3)
    with pytest.raises(ValueError, match="stated degree disagrees"):
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
    for m in range(1, 9):
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


def test_sym_power_chern_builds_no_fraction(monkeypatch):
    # the conjugate-pair factors and their product are integral
    made = []
    honest_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        made.append(args)
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    chern = [sym_power_chern.__wrapped__(m) for m in range(1, 9)]
    monkeypatch.undo()
    assert made == []
    assert chern == [sym_power_chern(m) for m in range(1, 9)]
    assert all(c.den == 1 for classes in chern for c in classes)


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
    with pytest.raises(ValueError, match="stated degree disagrees"):
        degree_of_poly(build_ring(1), fano_poly())


def test_fano_class_equals_sym3_top():
    assert fano_poly() == WPoly({(2, 1): 18, (0, 2): 9})


def test_poincare_pairing_invertible():
    for n in range(1, 7):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            matrix = pairing(ring, k)
            assert all(len(row) == len(matrix) for row in matrix)
            assert linalg.rank(matrix) == len(matrix)


def test_degree_is_linear_and_normalized():
    n = 4
    ring = build_ring(n)
    top = [WPoly.monomial(m) for m in ring.bases[2 * n]]
    a, b = Fraction(3, 2), Fraction(-7)
    combo = top[0] * a + top[0] * b
    assert degree_of_poly(ring, combo) == (a + b) * degree_of_poly(ring, top[0])
    assert schubert_degree(n, {(n, n): Fraction(1)}) == 1


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
        {(2, 1): Fraction(18)},
        {(0, 0): Fraction(1)},
    )
    # 18 c1^2 c2 + 9 c2^2 expanded degree-wise must integrate to 27 against c2
    paired = schubert_mul(n, sch, dict(monomial_schubert(n, 0, 1)))
    assert schubert_degree(n, paired) == 27
    assert sum(sch.values(), Fraction(0)) != 0
    assert direct  # sanity: schubert_mul produces something


def test_schubert_degree_of_products_is_poincare_duality():
    # deg(sigma_(a,b) * sigma_mu) = [mu = (n-b, n-a)] for every pair of
    # Schubert classes, read as the point-class coefficient of the product
    for n in range(1, 9):
        parts = [part for k in range(2 * n + 1) for part in partitions_in_box(n, k)]
        for a, b in parts:
            for mu in parts:
                degree = schubert_degree(n, schubert_mul(n, {(a, b): 1}, {mu: 1}))
                assert degree == int(mu == (n - b, n - a)), (n, (a, b), mu)


def _refuse(*args, **kwargs):
    raise AssertionError("the Schubert route reached the quotient ring")


def test_schubert_route_is_independent_of_the_quotient_ring(monkeypatch):
    entries = {}
    with monkeypatch.context() as patch:
        for module, name in (
            (grassmann, "build_ring"),
            (grassmann, "normal_form"),
            (grassmann, "coords"),
            (linalg, "rref"),
        ):
            patch.setattr(module, name, _refuse)
        for n in range(2, 7):
            f_sch = grassmann.poly_schubert(n, fano_poly())
            for k in range(2 * (n - 2) + 1):
                for ml in weight_monomials(k):
                    left = schubert_mul(n, dict(monomial_schubert(n, *ml)), f_sch)
                    for mr in weight_monomials(2 * (n - 2) - k):
                        right = dict(monomial_schubert(n, *mr))
                        entries[(n, ml, mr)] = schubert_degree(n, schubert_mul(n, left, right))
    # the same numbers by the quotient ring
    for n in range(2, 7):
        bases = build_ring(n).bases
        for k, matrix in enumerate(fano_pairings(n)):
            for i, ml in enumerate(bases[k]):
                for j, mr in enumerate(bases[2 * (n - 2) - k]):
                    assert entries[(n, ml, mr)] == matrix[i][j]


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
    # a non-integral polynomial is refused, as by ``pairing``
    with pytest.raises(ValueError, match="integral"):
        poly_schubert(3, WPoly({(1, 0): Fraction(1, 2)}))


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
            [(WPoly.monomial(cof) * gen).num.get(m, 0) for m in monos]  # den 1
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
            assert pairing(ring, k) == pairing(ring, k, one)
            assert [list(r) for r in pairing(ring, k)] == _product_pairing(ring, k, one)
        if n < 2:
            continue
        # [F] also through its reduced representative on the degree-4 basis
        reduced = WPoly(dict(zip(ring.bases[4], normal_form(ring, fano_poly()))))
        for weight in (fano_poly(), reduced, WPoly({(1, 0): 3})):
            for k in range(2 * ring.n - weight.homogeneous_degree() + 1):
                expected = _product_pairing(ring, k, weight)
                assert [list(r) for r in pairing(ring, k, weight)] == expected
        # a non-integral weight is refused
        with pytest.raises(ValueError, match="integral"):
            pairing(ring, 0, WPoly({(1, 0): Fraction(1, 2)}))


def test_pairing_reads_the_top_reducer_for_every_cell():
    # the matrix is built from one value per exponent sum; reference: one
    # read of the top reducer per cell and weight term, up to n = 20 (the
    # triple-product reference above stops at n = 8)
    for n in range(1, 21):
        ring = build_ring(n)
        point = ring.reducers[2 * n]
        for weight in (WPoly.constant(1), fano_poly()):
            top = 2 * n - weight.homogeneous_degree()
            for k in range(top + 1):
                expected = [
                    [
                        sum(c * point[(a1 + a2 + e1, b1 + b2 + e2)][0]
                            for (e1, e2), c in weight.num.items())
                        for a2, b2 in ring.bases[top - k]
                    ]
                    for a1, b1 in ring.bases[k]
                ]
                assert [list(r) for r in pairing(ring, k, weight)] == expected


def test_build_ring_needs_an_int():
    # build_ring(True) once returned a ring whose n was True
    build_ring(1)  # cached: an equal bool or float must still reach the gate
    build_ring(2)
    for n in (True, False, 2.0):
        with pytest.raises(TypeError):
            build_ring(n)


def test_complete_symmetric_needs_an_int():
    # complete_symmetric(True) once returned x and complete_symmetric(2.0)
    # x^2 - y; a single argument keys True and 2.0 apart from 1 and 2, so the
    # call reaches the gate with h_1 and h_2 cached
    complete_symmetric(2)
    for k in (True, False, 2.0):
        with pytest.raises(TypeError):
            complete_symmetric(k)


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
            "shift11",
            "monomial_schubert",
            "poly_schubert",
        ):
            patch.setattr(grassmann, name, _refuse_schubert)
        build_ring.cache_clear()
        fano_pairings.cache_clear()
        for n in range(1, 9):
            ring = build_ring(n)
            for k in range(2 * n + 1):
                assert linalg.rank(pairing(ring, k)) == ring.dim(k)
            if n >= 2:
                assert list(map(len, fano_pairings(n))) == list(map(ring.dim, range(2 * n - 3)))
    # the same numbers by the Schubert oracle
    for n in range(2, 9):
        f_sch = poly_schubert(n, fano_poly())
        bases = build_ring(n).bases
        for k, matrix in enumerate(fano_pairings(n)):
            for i, ml in enumerate(bases[k]):
                left = schubert_mul(n, dict(monomial_schubert(n, *ml)), f_sch)
                for j, mr in enumerate(bases[2 * (n - 2) - k]):
                    right = dict(monomial_schubert(n, *mr))
                    product = schubert_mul(n, left, right)
                    assert schubert_degree(n, product) == matrix[i][j]


# -- the integer Giambelli table and tuple-keyed Schubert products --------------


def test_giambelli_coords_are_the_normal_form_in_integers():
    for n in range(1, 16):  # the pieri_oracle cap
        ring = build_ring(n)
        for k in range(2 * n + 1):
            for part in partitions_in_box(n, k):
                a, b = part
                det = giambelli(part)
                # the two-row identity the bridge rests on
                assert det == complete_symmetric(a - b) * WPoly.monomial((0, b)), part
                coords = giambelli_coords(ring, part)
                assert coords == normal_form(ring, det), (n, part)
                assert all(type(c) is int for c in coords), (n, part)


def _pieri_row(n, s, p):
    """s * sigma_p: add p boxes to (a, b), no two in one column; sigma_p = 0 for p > n."""
    out = {}
    if p > n:
        return out
    for (a, b), c in s.items():
        for b2 in range(b, min(a, b + p) + 1):
            a2 = a + b + p - b2
            if a2 <= n:
                out[(a2, b2)] = out.get((a2, b2), 0) + c
    return out


def _schubert_mul_reference(n, s1, s2):
    """The product by Giambelli: sigma_(c,d) = sigma_c*sigma_d - sigma_(c+1)*sigma_(d-1)."""
    out = {}
    for (c, d), coeff in s2.items():
        for sign, p, q in ((1, c, d), (-1, c + 1, d - 1)):
            if q < 0:
                continue
            for key, v in _pieri_row(n, _pieri_row(n, s1, p), q).items():
                out[key] = out.get(key, 0) + sign * coeff * v
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


def test_pieri_oracle_catches_a_perturbed_giambelli_entry(monkeypatch):
    honest = grassmann.giambelli_coords

    def perturbed(ring, part):
        coords = honest(ring, part)
        if part == (2, 1):
            return (coords[0] + 1,) + coords[1:]
        return coords

    monkeypatch.setattr(grassmann, "giambelli_coords", perturbed)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.pieri_oracle"]
    computed, expected = check.fn(4)
    assert computed != expected
    assert "back-projection mismatch at (1, 1)" in computed


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
        if (2, 1) in out:
            out[(2, 1)] += 1
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


# -- the oracles keyed by exponent sums ----------------------------------------


def _poincare_check():
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.poincare_pairing"]
    return check


def _perturb_pairing(k, i, j, delta):
    """``grassmann.pairing`` with delta added to entry (i, j) in degree k."""
    honest = grassmann.pairing

    def perturbed(ring, degree, weight=None):
        matrix = honest(ring, degree, weight)
        if degree != k:
            return matrix
        rows = [list(row) for row in matrix]
        rows[i][j] += delta
        return tuple(map(tuple, rows))

    return perturbed


@pytest.mark.parametrize("k", [1, 4])
def test_poincare_pairing_catches_a_perturbed_entry(monkeypatch, k):
    # the pairing stays of full rank (at k = 4 = n the determinant becomes 2),
    # so only the Catalan entries see the change
    perturbed = _perturb_pairing(k, 0, 0, 1)
    monkeypatch.setattr(grassmann, "pairing", perturbed)
    assert linalg.rank(perturbed(build_ring(4), k)) == build_ring(4).dim(k)
    computed, expected = _poincare_check().fn(4)
    assert computed == f"degenerate pairing at k={k}" != expected


def test_poincare_pairing_blames_only_the_perturbed_degree(monkeypatch):
    # a wrong cell is blamed on its own degree, not on every degree of its
    # parity (k = 0, 2, 4, 6, 8 here)
    monkeypatch.setattr(grassmann, "pairing", _perturb_pairing(4, 2, 2, 1))
    assert _poincare_check().fn(4) == ("degenerate pairing at k=4", "ok")


@st.composite
def _one_cell(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=0, max_value=2 * n))
    order = min(k, 2 * n - k) // 2 + 1
    i = draw(st.integers(min_value=0, max_value=order - 1))
    j = draw(st.integers(min_value=0, max_value=order - 1))
    return n, k, i, j, draw(st.sampled_from((-2, -1, 1, 2, 5)))


@settings(max_examples=60, deadline=None)
@given(_one_cell())
def test_poincare_pairing_blames_the_degree_of_one_perturbed_cell(cell):
    n, k, i, j, delta = cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "pairing", _perturb_pairing(k, i, j, delta))
        assert _poincare_check().fn(n) == (f"degenerate pairing at k={k}", "ok")


def test_poincare_pairing_runs_no_row_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Poincare pairing check ran a row reduction")

    monkeypatch.setattr(linalg, "rref", refuse)
    for n in range(1, 13):
        assert _poincare_check().fn(n) == ("ok", "ok"), n


def test_poincare_pairing_is_the_reversed_catalan_hankel_block():
    for n in range(1, 17):
        ring = build_ring(n)
        for k in range(2 * n + 1):
            m = min(k, 2 * n - k)
            hankel = [
                [comb(2 * t, t) // (t + 1) for t in range(m % 2 + i, m % 2 + i + m // 2 + 1)]
                for i in range(m // 2 + 1)
            ]
            rows = [list(row[::-1]) for row in pairing(ring, k)[::-1]]
            assert rows == hankel, (n, k)


# -- sigma(x^a) from the hook-length formula -----------------------------------


def test_sigma1_power_golden():
    # sigma_1^6 on Gr(2, 6): 9 and 5 standard tableaux of shapes (4, 2) and (3, 3)
    assert monomial_schubert(4, 6, 0) == {(4, 2): 9, (3, 3): 5}


def test_closed_form_is_sigma1_applied_by_the_pieri_rule():
    for n in range(1, 13):
        power = {(0, 0): 1}
        for a in range(2 * n + 1):
            assert monomial_schubert(n, a, 0) == power, (n, a)
            for b in range(n + 1):
                assert monomial_schubert(n, a, b) == shift11(n, power, b), (n, a, b)
            power = schubert_mul(n, power, {(1, 0): 1})


def test_closed_form_shares_no_code_with_the_pieri_rule(monkeypatch):
    # loop (i) of the Pieri oracle compares two routes, not one rule with itself
    expansion = grassmann.monomial_schubert  # taken before the patch, not recursive
    with monkeypatch.context() as patch:
        for name in ("schubert_mul", "shift11", "monomial_schubert"):
            patch.setattr(grassmann, name, _refuse_schubert)
        assert expansion(6, 7, 1) == {(6, 3): 14, (5, 4): 14}


def test_cached_expansions_are_read_only():
    # each call builds a fresh dict: a write to one never reaches the next call
    expansion = monomial_schubert(3, 2, 0)
    expansion[(2, 0)] = 5
    assert monomial_schubert(3, 2, 0) == {(2, 0): 1, (1, 1): 1}


def test_pieri_oracle_catches_a_perturbed_closed_form(monkeypatch):
    honest = grassmann.monomial_schubert

    def perturbed(n, a, b):
        out = dict(honest(n, a, b))
        if (a, b) == (3, 0) and (2, 1) in out:
            out[(2, 1)] += 1
        return out

    monkeypatch.setattr(grassmann, "monomial_schubert", perturbed)
    (check,) = [c for c in REGISTRY if c.check_id == "grassmann.pieri_oracle"]
    failing = [n for n in range(1, 8) if check.fn(n) != ("ok", "ok")]
    assert failing == list(range(2, 8))  # sigma(x^3) leaves the box at n = 1
    assert "mismatch at (1, 0)*(2, 0)" in check.fn(4)[0]


def test_basis_dims_fails_on_a_ring_missing_a_basis_monomial(monkeypatch, row_at):
    # the row counts the ring's bases against the Poincare polynomial, so a
    # ring whose degree-2 basis lacks its first monomial fails it at every n,
    # as a comparison of the sizes, not an ``error:`` row
    honest = grassmann.build_ring

    def short(n):
        ring = honest(n)
        return ring._replace(bases=ring.bases[:2] + (ring.bases[2][1:],) + ring.bases[3:])

    monkeypatch.setattr(grassmann, "build_ring", short)
    for n in (1, 4, 7):
        row = row_at("grassmann.basis_dims", n)
        dims = _poincare_coefficients(n)
        assert row.status == "fail", row
        assert row.expected == str(dims), row
        dims[2] -= 1
        assert row.computed == str(dims), row
    monkeypatch.undo()
    assert row_at("grassmann.basis_dims", 4).status == "pass"


def test_every_lines_row_reads_the_computed_fano_class(monkeypatch, row_at):
    # fano_poly() is sym_power_chern(3)[4]: adding x^2 y - 2 y^2 to it moves
    # sym_cubic_class, deg [F] = 27 on Gr(2, 4) and deg(c2 [F]) = 27 on
    # Gr(2, 5); deg(c1^2 [F]) = 45 does not see it (2 - 2 = 0 there)
    honest = grassmann.sym_power_chern
    delta = WPoly({(2, 1): 1, (0, 2): -2})

    def perturbed(m):
        chern = honest(m)
        return chern[:4] + (chern[4] + delta,) if m == 3 else chern

    monkeypatch.setattr(grassmann, "sym_power_chern", perturbed)
    try:
        rows = {
            check_id: row_at(check_id, n)
            for check_id, n in (
                ("grassmann.sym_cubic_class", 1),
                ("fano.lines_count", 2),
                ("fano.surface_c2", 3),
                ("fano.surface_g2", 3),
            )
        }
    finally:
        monkeypatch.undo()
        fano_pairings.cache_clear()  # no pairing built under the fault stays cached
    failed = {
        "grassmann.sym_cubic_class": "19*x^2*y + 7*y^2",
        "fano.lines_count": "26",
        "fano.surface_c2": "26",
    }
    for check_id, computed in failed.items():  # comparisons, not ``error:`` rows
        row = rows[check_id]
        assert (row.status, row.computed) == ("fail", computed), row
    assert rows["fano.surface_g2"].status == "pass", rows["fano.surface_g2"]
    assert row_at("fano.lines_count", 2).status == "pass"
