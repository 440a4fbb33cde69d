import random
from fractions import Fraction

import pytest

import cubicchow.fano as fano
import cubicchow.grassmann as grassmann
from cubicchow.checks import REGISTRY
from cubicchow.errors import UnsupportedRange
from cubicchow.fano import (
    extra_relation,
    fano_pairings,
    ideal_decomposition,
    taut_rank_F,
)
from cubicchow.grassmann import (
    build_ring,
    complete_symmetric,
    fano_poly,
    normal_form,
    weight_monomials,
)
from cubicchow.linalg import kernel_basis, rank
from cubicchow.wpoly import WPoly


def test_pairing_examples():
    assert fano_pairings(3)[0] == ((45, 27),)
    assert fano_pairings(2)[0] == ((27,),)
    assert fano_pairings(3)[1] == ((45,),)


def test_pairing_range_errors():
    assert len(fano_pairings(3)) == 3  # k = 0..2(n-2)
    with pytest.raises(UnsupportedRange):
        taut_rank_F(3, 3)
    with pytest.raises(UnsupportedRange):
        fano_pairings(1)


def test_pairing_degree_must_be_an_int():
    # True == 1: a degree-1 pairing must not answer for True, cold or after
    # one has been built, and a cached n must not answer for True either
    build_ring.cache_clear()
    fano_pairings.cache_clear()
    with pytest.raises(TypeError):
        taut_rank_F(3, True)
    taut_rank_F(3, 1)
    with pytest.raises(TypeError):
        taut_rank_F(3, True)
    fano_pairings(2)
    with pytest.raises(TypeError):
        fano_pairings(True)


def test_taut_ranks():
    assert [taut_rank_F(3, k) for k in range(3)] == [1, 1, 1]
    for n in range(2, 8):
        assert taut_rank_F(n, 0) == 1
    assert taut_rank_F(4, 2) == 2


def test_pairing_transpose_symmetry_and_rank_bound():
    for n in range(2, 7):
        top = 2 * (n - 2)
        bases = build_ring(n).bases
        pairings = fano_pairings(n)
        for k in range(top + 1):
            a, b = pairings[k], pairings[top - k]
            assert len(a) == len(bases[k])
            assert all(len(row) == len(bases[top - k]) for row in a)
            assert a == tuple(zip(*b))
            assert rank(a) <= min(len(bases[k]), len(bases[top - k]))
            assert rank(a) == rank(b)


def test_extra_relation_n3_forced_value(monkeypatch):
    # A^2 = <c1^2, c2> pairs against the one-dimensional A^6 by (45, 27),
    # so the kernel is spanned by c1^2 - 45/27 c2 = c1^2 - 5/3 c2.
    seen = []
    monkeypatch.setattr(
        fano, "kernel_basis", lambda rows, cols: seen.append(rows) or kernel_basis(rows, cols)
    )
    relation = extra_relation.__wrapped__(3)
    (matrix,) = seen
    assert len(kernel_basis(matrix, 2)) == 1
    assert str(relation) == "x^2 - 5/3*y"


def test_extra_relation_properties_up_to_12():
    for n in range(3, 13):
        relation = extra_relation(n)
        assert not relation.is_zero()
        assert relation.coefficient((n - 1, 0)) == 1
        assert relation.homogeneous_degree() == n - 1
        ring = build_ring(n)
        assert not any(normal_form(ring, relation * fano_poly()))


def test_extra_relation_range_guard():
    with pytest.raises(UnsupportedRange):
        extra_relation(2)


def test_extra_relation_deterministic():
    first = extra_relation(5)
    second = extra_relation(5)
    assert first == second


def test_ideal_decomposition_trivial_cofactor():
    for n in (3, 4, 5):
        relation = WPoly.monomial((2, 0)) * complete_symmetric(n + 1)
        result = ideal_decomposition(n, relation)
        assert result is not None
        a, b = result
        assert a == WPoly.monomial((2, 0))
        assert b.is_zero()


def test_ideal_decomposition_of_kernel_product():
    for n in range(3, 9):
        product = extra_relation(n) * fano_poly()
        result = ideal_decomposition(n, product)
        assert result is not None
        a, b = result
        rebuilt = a * complete_symmetric(n + 1) + b * complete_symmetric(n + 2)
        assert rebuilt == product


def test_ideal_decomposition_builds_fractions_only_for_the_solution(monkeypatch):
    # the matrix and the target are integers (the relation's denominator
    # scales the matrix); solve_linear builds the solution, 1 + 3 Fractions
    n = 8
    product = extra_relation(n) * fano_poly()
    probe = WPoly.monomial((n + 3, 0))
    assert product.den == 85
    honest_new = Fraction.__new__
    made = []

    def new(cls, *args, **kwargs):
        made.append(args)
        return honest_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    decomposition = ideal_decomposition(n, product)
    probe_solvable = ideal_decomposition(n, probe) is not None
    monkeypatch.undo()
    assert len(made) <= 4, made
    a, b = decomposition
    assert a * complete_symmetric(n + 1) + b * complete_symmetric(n + 2) == product
    assert probe_solvable == (not any(normal_form(build_ring(n), probe)))


def test_ideal_membership_iff_normal_form_vanishes():
    # degree n+3 must stay within the graded range of the quotient (n >= 3)
    rng = random.Random(314159)
    for n in range(3, 7):
        ring = build_ring(n)
        gens = (complete_symmetric(n + 1), complete_symmetric(n + 2))
        monos = weight_monomials(n + 3)
        for trial in range(1000):
            if trial % 2 == 0:
                # random polynomial of degree n+3
                poly = WPoly(
                    {m: Fraction(rng.randint(-5, 5)) for m in monos}
                )
            else:
                # random ideal element: should always decompose
                poly = (
                    WPoly({(2, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)})
                    * gens[0]
                    + WPoly({(1, 0): rng.randint(-3, 3)}) * gens[1]
                )
            solvable = ideal_decomposition(n, poly) is not None
            vanishes = not any(normal_form(ring, poly, degree=n + 3))
            assert solvable == vanishes, (n, trial, str(poly))


def test_ideal_decomposition_input_validation():
    with pytest.raises(ValueError):
        ideal_decomposition(3, WPoly.variable("x"))
    zero_a, zero_b = ideal_decomposition(3, WPoly.zero())
    assert zero_a.is_zero() and zero_b.is_zero()


def test_ideal_matrix_equals_the_product_built_one(monkeypatch):
    # the shifted-coefficient columns against x^2*h_(n+1), y*h_(n+1), x*h_(n+2)
    seen = []
    monkeypatch.setattr(
        fano, "solve_linear", lambda rows, target, cols: seen.append(rows)
    )
    for n in range(1, 13):
        seen.clear()
        assert ideal_decomposition(n, WPoly.monomial((n + 3, 0))) is None
        (matrix,) = seen
        g1, g2 = complete_symmetric(n + 1), complete_symmetric(n + 2)
        products = (
            WPoly.monomial((2, 0)) * g1,
            WPoly.monomial((0, 1)) * g1,
            WPoly.monomial((1, 0)) * g2,
        )
        expected = [
            [p.coefficient(m) for p in products] for m in weight_monomials(n + 3)
        ]
        assert [list(row) for row in matrix] == expected, n


def test_extra_relation_is_cached_and_frozen():
    relation = extra_relation(4)
    assert extra_relation(4) is relation
    with pytest.raises(AttributeError):
        relation.num = {}
    with pytest.raises(TypeError):
        relation.num[(3, 0)] = 2
    with pytest.raises(TypeError):
        relation.terms[(3, 0)] = Fraction(2)
    assert relation.coefficient((3, 0)) == 1


def test_extra_relation_matrix_equals_the_product_built_one(monkeypatch):
    # columns read off reducers[n+3] against normal forms of x^a y^b * [F]
    seen = []
    monkeypatch.setattr(
        fano, "kernel_basis", lambda rows, cols: seen.append(rows) or kernel_basis(rows, cols)
    )
    for n in range(3, 13):
        seen.clear()
        relation = extra_relation.__wrapped__(n)
        (matrix,) = seen
        ring = build_ring(n)
        # [F] through its reduced representative on the degree-4 basis
        f_poly = WPoly(dict(zip(ring.bases[4], normal_form(ring, fano_poly()))))
        columns = [
            normal_form(ring, WPoly.monomial(mono) * f_poly)
            for mono in ring.bases[n - 1]
        ]
        expected = [list(row) for row in zip(*columns)]
        assert [list(row) for row in matrix] == expected, n
        assert relation == extra_relation(n)


# -- the pairing oracle keyed by exponent sums ---------------------------------


def _pairing_oracle_check():
    (check,) = [c for c in REGISTRY if c.check_id == "fano.pairing_oracle"]
    return check


def test_pairing_oracle_catches_a_perturbed_schubert_product(monkeypatch):
    honest = grassmann.schubert_mul

    def perturbed(n, s1, s2):
        out = honest(n, s1, s2)
        point = (n, n)
        out[point] = out.get(point, 0) + 1
        return out

    monkeypatch.setattr(grassmann, "schubert_mul", perturbed)
    computed, expected = _pairing_oracle_check().fn(4)
    assert computed != expected
    # deg(x^4 [F]) is off by one, and so are the entries x^4 * 1 and x^3 * x
    assert "entry (4,0,0)" in computed.split("; ")
    assert "entry (3,0,0)" in computed.split("; ")


def test_pairing_oracle_makes_one_schubert_product_per_key(monkeypatch):
    calls = []
    honest = grassmann.schubert_mul

    def counted(n, s1, s2):
        calls.append(n)
        return honest(n, s1, s2)

    monkeypatch.setattr(grassmann, "schubert_mul", counted)
    assert _pairing_oracle_check().fn(10) == ("ok", "ok")
    assert len(calls) == 10 - 1


def test_pairing_symmetry_fails_only_with_the_pairing_oracle(monkeypatch):
    # +1 on each single cell of the [F]-pairings: every perturbation that
    # fano.pairing_symmetry sees, fano.pairing_oracle sees too; the oracle
    # alone sees a diagonal cell of the self-dual middle matrix
    (symmetry,) = [c for c in REGISTRY if c.check_id == "fano.pairing_symmetry"]
    oracle = _pairing_oracle_check()
    caught = {(True, True): 0, (False, True): 0, (True, False): 0, (False, False): 0}
    for n in range(2, 7):
        honest = fano_pairings(n)
        for k, matrix in enumerate(honest):
            for i, row in enumerate(matrix):
                for j in range(len(row)):
                    rows = [list(r) for r in matrix]
                    rows[i][j] += 1
                    perturbed = honest[:k] + (tuple(map(tuple, rows)),) + honest[k + 1 :]
                    monkeypatch.setattr(fano, "fano_pairings", lambda n: perturbed)
                    results = [check.fn(n) for check in (symmetry, oracle)]
                    caught[tuple(computed != expected for computed, expected in results)] += 1
    assert caught == {(True, True): 88, (False, True): 9, (True, False): 0, (False, False): 0}
