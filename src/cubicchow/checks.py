"""Registry of named verification checks, grouped into suites.

Each check maps a dimension n to a (computed, expected) pair of canonical
strings; it passes exactly when the two agree.  Checks compare either a
computed value against a classical golden number, or two independent
computation routes against each other; pure consistency properties report
"ok" against "ok".  Every check declares the n-range where its
preconditions hold so the runner can emit visible skips elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from . import diagonal, fano, grassmann, hodge
from .wpoly import WPoly

CheckFn = Callable[[int], tuple[str, str]]

SUITES = ("grassmann", "fano", "hodge", "diagonal")


# a dataclass, not a NamedTuple like the other records: the layer tracer in
# perfbench/ rebuilds every registered check with dataclasses.replace
@dataclass(frozen=True)
class Check:
    check_id: str
    n_min: int
    n_max: int | None
    fn: CheckFn

    @property
    def suite(self) -> str:  # hodge for hodge.b1_fano
        return self.check_id.partition(".")[0]

    @property
    def precondition(self) -> str:  # the n-range, named by a skipped row
        if self.n_max is None:
            return f"n >= {self.n_min}"
        if self.n_min == self.n_max:
            return f"n == {self.n_min}"
        return f"{self.n_min} <= n <= {self.n_max}"

    def applicable(self, n: int) -> bool:
        return n >= self.n_min and (self.n_max is None or n <= self.n_max)


REGISTRY: list[Check] = []


def _register(check_id: str, n_min: int, n_max: int | None = None):
    def wrap(fn: CheckFn) -> CheckFn:
        REGISTRY.append(Check(check_id, n_min, n_max, fn))
        return fn

    return wrap


def _ok(failures: list[str]) -> tuple[str, str]:
    return ("ok" if not failures else "; ".join(failures), "ok")


# -- grassmann ----------------------------------------------------------------


@_register("grassmann.basis_dims", 1)
def _basis_dims(n: int):
    # the Poincare polynomial (1 - q^(n+1))(1 - q^(n+2)) / ((1 - q)(1 - q^2))
    # of Gr(2, n+2): the numerator divided by 1 - q, then by 1 - q^2, each a
    # prefix-sum pass; the quotient has degree 2n
    ring = grassmann.build_ring(n)
    computed = [ring.dim(k) for k in range(2 * n + 1)]
    poincare = [0] * (2 * n + 4)
    poincare[0] = poincare[2 * n + 3] = 1
    poincare[n + 1] = poincare[n + 2] = -1
    for step in (1, 2):
        for k in range(step, 2 * n + 4):
            poincare[k] += poincare[k - step]
    return str(computed), str(poincare[: 2 * n + 1])


@_register("grassmann.poincare_pairing", 1)
def _poincare(n: int):
    # entry (i, j) in degree k is deg(x^(2t) y^(n-t)) = C_t, t = m - i - j with
    # m = min(k, 2n - k); reversed, the matrix is the leading block of order
    # m // 2 + 1 of the Hankel matrix [C_(m % 2 + i + j)], whose leading
    # minors are all 1 (the Catalan Hankel identity), so equal entries make
    # the pairing unimodular
    ring = grassmann.build_ring(n)
    catalan = [comb(2 * t, t) // (t + 1) for t in range(n + 1)]
    failures = []
    for k in range(2 * n + 1):
        m = min(k, 2 * n - k)
        block = range(m // 2 + 1)
        if grassmann.pairing(ring, k) != tuple(
            tuple(catalan[m - i - j] for j in block) for i in block
        ):
            failures.append(f"degenerate pairing at k={k}")
    return _ok(failures)


@_register("grassmann.degree_catalan", 1)
def _catalan(n: int):
    ring = grassmann.build_ring(n)
    computed = grassmann.degree_of_poly(ring, WPoly.monomial((2 * n, 0)))
    return str(computed), str(comb(2 * n, n) // (n + 1))


@_register("grassmann.top_normalization", 1)
def _top_norm(n: int):
    ring = grassmann.build_ring(n)
    quotient = grassmann.degree_of_poly(ring, WPoly.monomial((0, n)))
    schubert = grassmann.schubert_degree(n, grassmann.monomial_schubert(n, 0, n))
    return f"{quotient},{schubert}", "1,1"


@_register("grassmann.pieri_oracle", 1, 15)
def _pieri_oracle(n: int):
    # c2 = sigma_(1,1) shifts the box, so x^a1 y^b1 * x^a2 y^b2 is the
    # (b1 + b2)-shift of sigma(x^a1) * sigma(x^a2).  Every product of basis
    # monomials follows from two checks keyed by the exponent sums: (i) the
    # Pieri rule of schubert_mul takes two powers of x to the hook-length
    # closed form of their product, and (ii) the Giambelli image of the
    # b-shift of sigma(x^a) is the reducer row of x^a y^b.  Only powers of x
    # are multiplied.
    ring = grassmann.build_ring(n)
    powers = [grassmann.monomial_schubert(n, a, 0) for a in range(2 * n + 1)]
    failures = []
    for a1 in range(n + 1):
        for a2 in range(n + 1):
            if grassmann.schubert_mul(n, powers[a1], powers[a2]) != powers[a1 + a2]:
                failures.append(f"mismatch at {(a1, 0)}*{(a2, 0)}")
    # Giambelli table: the quotient coordinates of every Schubert class
    back_table = {
        part: grassmann.giambelli_coords(ring, part)
        for k in range(2 * n + 1)
        for part in grassmann.partitions_in_box(n, k)
    }
    for k, reducer in enumerate(ring.reducers):
        for (a, b), row in reducer.items():
            back = [0] * ring.dim(k)
            for part, c in grassmann.shift11(n, powers[a], b).items():
                for i, x in enumerate(back_table[part]):
                    back[i] += c * x
            if tuple(back) != row:
                failures.append(f"back-projection mismatch at {(a, b)}")
    return _ok(failures)


@_register("grassmann.sym_cubic_class", 1)
def _sym_cubic(n: int):
    top = grassmann.sym_power_chern(3)[4]
    return str(top), "18*x^2*y + 9*y^2"


# -- fano ----------------------------------------------------------------------


@_register("fano.lines_count", 2, 2)
def _lines_count(n: int):
    ring = grassmann.build_ring(2)
    return str(grassmann.degree_of_poly(ring, grassmann.fano_poly())), "27"


@_register("fano.surface_g2", 3, 3)
def _surface_g2(n: int):
    ring = grassmann.build_ring(3)
    value = grassmann.degree_of_poly(
        ring, WPoly.monomial((2, 0)) * grassmann.fano_poly()
    )
    return str(value), "45"


@_register("fano.surface_c2", 3, 3)
def _surface_c2(n: int):
    ring = grassmann.build_ring(3)
    value = grassmann.degree_of_poly(
        ring, WPoly.monomial((0, 1)) * grassmann.fano_poly()
    )
    return str(value), "27"


@_register("fano.pairing_oracle", 2)
def _pairing_oracle(n: int):
    # entry (i, j) of a pairing is deg(x^a y^b [F]) at the exponent sum (a, b)
    # of its two monomials, with a + 2b = 2n - 4: one Schubert product per b
    f_sch = grassmann.poly_schubert(n, grassmann.fano_poly())
    top = 2 * (n - 2)
    degrees = {}
    for b in range(n - 1):
        power = grassmann.monomial_schubert(n, top - 2 * b, 0)
        product = grassmann.shift11(n, grassmann.schubert_mul(n, power, f_sch), b)
        degrees[(top - 2 * b, b)] = grassmann.schubert_degree(n, product)
    bases = grassmann.build_ring(n).bases
    failures = []
    for k, matrix in enumerate(fano.fano_pairings(n)):
        for i, (a1, b1) in enumerate(bases[k]):
            for j, (a2, b2) in enumerate(bases[top - k]):
                if matrix[i][j] != degrees.get((a1 + a2, b1 + b2)):
                    failures.append(f"entry ({k},{i},{j})")
    return _ok(failures)


@_register("fano.pairing_symmetry", 2)
def _pairing_symmetry(n: int):
    pairings = fano.fano_pairings(n)
    failures = []
    for k, matrix in enumerate(pairings):
        if matrix != tuple(zip(*pairings[-1 - k])):
            failures.append(f"asymmetry at k={k}")
    return _ok(failures)


@_register("fano.extra_relation", 3)
def _extra_relation(n: int):
    relation = fano.extra_relation(n)
    ring = grassmann.build_ring(n)
    failures = []
    if any(grassmann.normal_form(ring, relation * grassmann.fano_poly())):
        failures.append("P*[F] nonzero in the quotient")
    return _ok(failures)


@_register("fano.ideal_membership", 3)
def _ideal_membership(n: int):
    relation = fano.extra_relation(n)
    ring = grassmann.build_ring(n)
    product = relation * grassmann.fano_poly()
    failures = []
    decomposition = fano.ideal_decomposition(n, product)
    if decomposition is None:
        failures.append("kernel element not in the ideal")
    else:
        a, b = decomposition
        recombined = a * grassmann.complete_symmetric(n + 1) + b * grassmann.complete_symmetric(n + 2)
        if recombined != product:
            failures.append("cofactors do not recombine")
    # membership <=> vanishing, probed on x^(n+3)
    probe = WPoly.monomial((n + 3, 0))
    solvable = fano.ideal_decomposition(n, probe) is not None
    vanishes = not any(grassmann.normal_form(ring, probe))
    if solvable != vanishes:
        failures.append("membership and vanishing disagree on x^(n+3)")
    return _ok(failures)


# -- hodge ----------------------------------------------------------------------


@_register("hodge.euler_consistency", 1)
def _euler_consistency(n: int):
    return str(hodge.euler_cubic(n)), str(hodge.hodge_cubic(n).euler())


@_register("hodge.euler_spot", 2, 4)
def _euler_spot(n: int):
    golden = {2: 9, 3: -6, 4: 27}
    return str(hodge.euler_cubic(n)), str(golden[n])


@_register("hodge.hilb2_identity", 2)
def _hilb2_identity(n: int):
    lhs = hodge.hilb2_diamond(n)
    rhs = hodge.times_projective(hodge.hodge_cubic(n), n) + hodge.fano_diamond(n).shift(2)
    return str(lhs), str(rhs)


@_register("hodge.fano_dimension", 2)
def _fano_dimension(n: int):
    diamond = hodge.fano_diamond(n)
    top = 4 * (n - 2)
    computed = f"top_degree={diamond.max_degree()},top_multiplicity={diamond.betti(top)}"
    expected = f"top_degree={top},top_multiplicity={27 if n == 2 else 1}"
    return computed, expected


@_register("hodge.b1_fano", 2)
def _b1_fano(n: int):
    computed = hodge.fano_diamond(n).betti(1)
    expected = hodge.primitive_middle(n).betti(1)  # middle block in degree n-2
    return str(computed), str(expected)


@_register("hodge.b2_fano", 3, 4)
def _b2_fano(n: int):
    golden = {3: 45, 4: 23}
    return str(hodge.fano_diamond(n).betti(2)), str(golden[n])


@_register("hodge.decomposition_closes", 2)
def _decomposition_closes(n: int):
    hodge.fano_hodge_decomposition(n)  # raises CheckFailed on a non-Tate or negative entry
    return "ok", "ok"


@_register("hodge.decomposition_tate", 2, 4)
def _decomposition_tate(n: int):
    golden = {2: "(0,)", 3: "(1, 0, 1)", 4: "(1, 1, 1, 1, 1)"}
    return str(hodge.fano_hodge_decomposition(n)), golden[n]


@_register("hodge.decomposition_a0", 3)
def _decomposition_a0(n: int):
    return str(hodge.fano_hodge_decomposition(n)[0]), "1"


@_register("hodge.product_ring_ranks", 3)
def _product_ring_ranks(n: int):
    # R^b(X) has rank 1 for 0 <= b <= n, so the ends of R*(F x X) are
    # R^0(F) x R^0(X) in degree 0 and R^(2n-4)(F) x R^n(X) in degree 3n-4
    failures = []
    if fano.taut_rank_F(n, 0) != 1:
        failures.append("rank at k=0 is not 1")
    if fano.taut_rank_F(n, 2 * n - 4) != 1:
        failures.append("rank at k=3n-4 is not 1")
    return _ok(failures)


# -- diagonal --------------------------------------------------------------------


@_register("diagonal.euler_self_intersection", 1)
def _euler_self_intersection(n: int):
    # D * D reads chi off the Chern class (euler_cubic); the Lefschetz trace of
    # the Kunneth expansion of D reads the Hodge numbers: each h1^j h2^(n-j)
    # meets its complement once, and d * d integrates to (-1)^n b_n^prim
    d = diagonal.xx_diagonal(n)
    return str(diagonal.degree(d * d)), str(n + 1 + diagonal.primitive_self_pairing(n))


@_register("diagonal.kunneth_third", 1)
def _kunneth_third(n: int):
    small = diagonal.small_diagonal_coh(n)
    coeffs = [
        str(small.coefficient((diagonal.PRIM, a, b, n))) for a, b in diagonal.PAIRS
    ]
    return ",".join(coeffs), "1/3,1/3,1/3"


@_register("diagonal.primitive_cancellation", 1)
def _primitive_cancellation(n: int):
    diagonal.decomposable_coefficients(n)  # raises CheckFailed on survivors
    return "ok", "ok"


@_register("diagonal.projector_law", 1)
def _projector_law(n: int):
    lhs = diagonal.push13(diagonal.small_diagonal_coh(n))
    rhs = diagonal.xx_diagonal_expansion(n)
    return str(lhs), str(rhs)


@_register("diagonal.defect_vanishes", 1)
def _defect_vanishes(n: int):
    diagonal.defect_vanishes_cohomologically(n)
    return "ok", "ok"


@_register("diagonal.defect_pairing", 1)
def _defect_pairing(n: int):
    defect = diagonal.small_diagonal_defect(n)
    duals = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    # deg(defect * dual) over defect.den, one reader call; no class per dual
    values = diagonal._x3_pair_keys(defect, [(diagonal.MONO, *e) for e in duals])
    return _ok([f"monomial dual ({a},{b},{c})" for (a, b, c), v in zip(duals, values) if v])


@_register("diagonal.symmetry", 1)
def _symmetry(n: int):
    # an S3-orbit is constant exactly when every entry equals the entry at its
    # sorted key; every key of an orbit that is not is reported, in table order
    table, _ = diagonal.decomposable_coefficients(n)  # integer numerators
    broken = set()  # the sorted keys of the orbits that are not constant
    for key, value in table.items():
        orbit = tuple(sorted(key))
        if table[orbit] != value:
            broken.add(orbit)
    if not broken:
        return _ok([])
    return _ok([f"asymmetry at {key}" for key in table if tuple(sorted(key)) in broken])


@_register("diagonal.interior_coefficient", 3)
def _interior_coefficient(n: int):
    table, den = diagonal.decomposable_coefficients(n)
    interior = [t for (i, j, k), t in table.items() if 0 < i < n and 0 < j < n and 0 < k < n]
    failures = []
    if not interior:
        failures.append("no interior indices")
    if any(9 * t != den for t in interior):  # t / den == 1/9
        failures.append("interior coefficient differs from 1/9")
    return _ok(failures)


@_register("diagonal.product_rank_one", 3)
def _product_rank_one(n: int):
    failures = []
    moments = (Fraction(3), Fraction(7, 2), Fraction(-5, 3))
    # cycles[c][s]: codimension c, moment moments[s]; moment 3 is h^c itself,
    # so the (0, 0) entry of each grid is h^i * h^j
    cycles = [None] + [tuple(diagonal.FormalCycle(c, m) for m in moments) for c in range(1, n)]
    # (1/9) m_alpha m_beta h^(i+j) has moment m_alpha m_beta / 3, as deg h^n = 3;
    # a product is the (codim, num, den) triple of its FormalCycle
    scaled = [(ma * mb / 3).as_integer_ratio() for ma in moments for mb in moments]
    # expected[c]: the triples of a grid's entries, row by row, in codimension c
    expected = [[(c, num, den) for num, den in scaled] for c in range(n)]
    products = diagonal.cycle_products
    for i in range(1, n):
        alphas = cycles[i]
        for j in range(1, n - i):
            grid = products(n, alphas, cycles[j])
            triples = grid[0] + grid[1] + grid[2]
            if triples != expected[i + j]:
                failures += [
                    f"moment scaling fails at ({i},{j})"
                    for got, want in zip(triples, expected[i + j])
                    if got != want
                ]
    return _ok(failures)


@_register("diagonal.model_compatibility", 1, 6)
def _model_compatibility(n: int):
    # both models are associative and xx_to_coh is linear and unital, so
    # f(g * b) = f(g) * f(b) for the generators g = h1, h2, D and every basis
    # class b makes it a ring map (induct on words in the generators).  Both
    # sides are read term by term, through the models' one product loop and
    # one cycle-class-map loop, as numerators over one denominator each, and
    # compared cross-multiplied: no class is built per pair
    images = {
        k: diagonal.xx_to_coh(diagonal.XXClass(n, {k: 1})) for k in diagonal.xx_basis(n)
    }
    image = images.__getitem__
    xx_mul = diagonal.XXClass(n)._term_mul
    coh_mul = diagonal.CohXXClass(n)._term_mul
    lhs_den = diagonal.XXClass._DEN * 3  # every image's denominator divides 3
    failures = []
    for g in ((diagonal.MONO, 1, 0), (diagonal.MONO, 0, 1), (diagonal.DIAG,)):
        fg = images[g]
        for k, fb in images.items():
            lhs = diagonal._coh_num(xx_mul(g, k), image, 3)  # f(g * b), over lhs_den
            rhs = diagonal._product_num(fg.num, fb.num, coh_mul)  # f(g) * f(b)
            rhs_den = fg.den * fb.den * diagonal.CohXXClass._DEN
            if any(
                lhs.get(key, 0) * rhs_den != rhs.get(key, 0) * lhs_den
                for key in lhs.keys() | rhs.keys()
            ):
                failures.append(f"not a ring map at {g} * {k}")
    return _ok(failures)


def checks_for(suites: set[str]) -> list[Check]:
    if "all" in suites:
        return list(REGISTRY)
    return [c for c in REGISTRY if c.suite in suites]
