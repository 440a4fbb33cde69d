"""Acceptance criteria, one test per criterion, all comparisons exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import functools
import itertools
import time
from fractions import Fraction

from cubicchow import diagonal, fano, grassmann, hodge
from cubicchow.cli import RunConfig, run
from cubicchow.wpoly import WPoly


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL: {description}")
                raise
            print(f"[criterion {number:2d}] PASS: {description}")

        return wrapper

    return decorate


@criterion(1, "27 lines on the cubic surface, under one second, two routes")
def test_criterion_01_lines():
    start = time.perf_counter()
    ring = grassmann.build_ring(2)
    quotient_route = grassmann.degree_of_poly(ring, grassmann.fano_poly())
    schubert_route = grassmann.schubert_degree(
        2, grassmann.poly_schubert(2, grassmann.fano_poly())
    )
    elapsed = time.perf_counter() - start
    assert quotient_route == 27
    assert schubert_route == 27
    assert elapsed < 1.0, f"27-lines computation took {elapsed:.3f}s"


@criterion(2, "variety-of-lines surface invariants at n=3 across three pipelines")
def test_criterion_02_fano_surface():
    ring = grassmann.build_ring(3)
    assert grassmann.degree_of_poly(ring, WPoly.monomial((2, 0)) * grassmann.fano_poly()) == 45
    assert grassmann.degree_of_poly(ring, WPoly.monomial((0, 1)) * grassmann.fano_poly()) == 27
    diamond = hodge.fano_diamond(3)
    assert diamond.euler() == 27
    assert diamond.betti(1) == 10
    assert diamond.betti(2) == 45
    # third pipeline: the structural decomposition exhausts b2 by the
    # alternating square of the 10-dimensional middle block
    middle = hodge.primitive_middle(3)
    assert hodge.sym2_diamond(middle).betti(2) == 45
    assert hodge.fano_hodge_decomposition(3)[1] == 0


@criterion(3, "hyper-Kahler fourfold check at n=4: b2 profile and Tate multiplicities")
def test_criterion_03_fourfold():
    diamond = hodge.fano_diamond(4)
    assert diamond.betti(2) == 23
    assert (diamond.get(2, 0), diamond.get(1, 1), diamond.get(0, 2)) == (1, 21, 1)
    values = hodge.fano_hodge_decomposition(4)
    assert values[1] == 1
    assert values[2] == 1


@criterion(4, "Euler characteristic: Chern route equals Betti route for n <= 12")
def test_criterion_04_euler():
    for n in range(1, 13):
        assert hodge.euler_cubic(n) == hodge.hodge_cubic(n).euler()
    assert hodge.euler_cubic(2) == 9
    assert hodge.euler_cubic(3) == -6
    assert hodge.euler_cubic(4) == 27


@criterion(5, "Hilbert-square relation: exact division and exact recomposition, n <= 10")
def test_criterion_05_hilb2_identity():
    for n in range(2, 11):
        diamond = hodge.fano_diamond(n)  # raises on inexact division or negativity
        assert all(m > 0 for m in diamond.entries.values())
        lhs = hodge.hilb2_diamond(n)
        rhs = hodge.times_projective(hodge.hodge_cubic(n), n) + diamond.shift(2)
        assert lhs == rhs


@criterion(6, "kernel relation and ideal membership for every 3 <= n <= 12")
def test_criterion_06_extra_relation():
    for n in range(3, 13):
        relation = fano.extra_relation(n)
        ring = grassmann.build_ring(n)
        assert not relation.is_zero()
        assert relation.coefficient((n - 1, 0)) == 1
        product = relation * grassmann.fano_poly()
        assert not any(grassmann.normal_form(ring, product))
        decomposition = fano.ideal_decomposition(n, product)
        assert decomposition is not None
        a, b = decomposition
        rebuilt = (
            a * grassmann.complete_symmetric(n + 1)
            + b * grassmann.complete_symmetric(n + 2)
        )
        assert rebuilt == product


@criterion(7, "diagonal suite: primitive cancellation, 1/3 coefficients, defect dies, n <= 10")
def test_criterion_07_diagonal():
    for n in range(1, 11):
        small = diagonal.small_diagonal_coh(n)
        for a, b in diagonal.PAIRS:
            assert small.coefficient((diagonal.PRIM, a, b, n)) == Fraction(1, 3)
        diagonal.decomposable_coefficients(n)  # raises unless primitives cancel
        assert diagonal.defect_vanishes_cohomologically(n)
        defect = diagonal.small_diagonal_defect(n)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                dual = diagonal.x3_monomial(n, a, b, n - a - b)
                assert diagonal.degree(defect * dual) == 0
        image = diagonal.x3_to_coh(defect)
        assert image.is_zero()


@criterion(8, "product map has rank one: (1/9) m m h^(i+j) for all valid (i, j), n <= 10")
def test_criterion_08_product_rank_one():
    moments = (Fraction(3), Fraction(11, 4), Fraction(-2, 7))  # moment 3: h^i itself
    for n in range(3, 11):
        for i in range(1, n):
            for j in range(1, n - i):
                alphas = [diagonal.FormalCycle(i, m) for m in moments]
                betas = [diagonal.FormalCycle(j, m) for m in moments]
                grid = diagonal.cycle_products(n, alphas, betas)
                assert grid[0][0] == (i + j, 3, 1)  # h^i * h^j = h^(i+j)
                pairs = itertools.product(moments, repeat=2)
                for (ma, mb), out in zip(pairs, itertools.chain(*grid), strict=True):
                    # (1/9) m_a m_b h^(i+j) has moment m_a m_b / 3, as deg h^n = 3
                    expected = diagonal.FormalCycle(i + j, Fraction(1, 9) * ma * mb * 3)
                    assert out == (expected.codim, expected.num, expected.den)


@criterion(9, "oracle equivalence: quotient ring vs Pieri for n <= 8; diagonal vs Euler, n <= 10")
def test_criterion_09_oracles():
    for n in range(1, 9):
        ring = grassmann.build_ring(n)
        for k1 in range(2 * n + 1):
            for k2 in range(2 * n + 1 - k1):
                for m1 in ring.bases[k1]:
                    for m2 in ring.bases[k2]:
                        direct = grassmann.normal_form(
                            ring, WPoly.monomial(m1) * WPoly.monomial(m2)
                        )
                        sch = grassmann.schubert_mul(
                            n,
                            dict(grassmann.monomial_schubert(n, *m1)),
                            dict(grassmann.monomial_schubert(n, *m2)),
                        )
                        rebuilt = grassmann.normal_form(ring, WPoly.zero(), degree=k1 + k2)
                        for part, coeff in sch.items():
                            back = grassmann.normal_form(ring, grassmann.giambelli(part))
                            rebuilt = tuple(r + coeff * b for r, b in zip(rebuilt, back))
                        assert direct == rebuilt, (n, m1, m2)
    for n in range(1, 11):
        d = diagonal.xx_diagonal(n)
        assert diagonal.degree(d * d) == hodge.euler_cubic(n)


@criterion(10, "full verification suite over 1 <= n <= 10 in under 60 seconds")
def test_criterion_10_performance():
    start = time.perf_counter()
    results = run(RunConfig(1, 10, ("all",)))
    elapsed = time.perf_counter() - start
    failures = [r for r in results if r.status == "fail"]
    assert not failures, failures
    assert all(r.elapsed_ms >= 0 for r in results)
    executed = [r for r in results if r.status != "skipped"]
    assert executed
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
