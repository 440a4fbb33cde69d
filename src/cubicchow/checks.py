"""Registry of named verification checks, grouped into suites.

Each check maps a dimension n to a (computed, expected) pair of canonical
strings; it passes exactly when the two agree.  Checks compare either a
computed value against a classical golden number, or two independent
computation routes against each other; pure consistency properties report
"ok" against "ok".  Every check declares the n-range where its
preconditions hold so the runner can emit visible skips elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Callable

from . import diagonal, fano, grassmann, hodge
from .wpoly import WPoly

CheckFn = Callable[[int], tuple[str, str]]

SUITES = ("grassmann", "fano", "hodge", "diagonal")


@dataclass(frozen=True)
class Check:
    check_id: str
    suite: str
    n_min: int
    n_max: int | None
    precondition: str
    fn: CheckFn

    def applicable(self, n: int) -> bool:
        return n >= self.n_min and (self.n_max is None or n <= self.n_max)


REGISTRY: list[Check] = []


def _register(check_id: str, suite: str, n_min: int, n_max: int | None = None,
              precondition: str | None = None):
    if precondition is None:
        if n_max is None:
            precondition = f"n >= {n_min}"
        elif n_min == n_max:
            precondition = f"n == {n_min}"
        else:
            precondition = f"{n_min} <= n <= {n_max}"

    def wrap(fn: CheckFn) -> CheckFn:
        REGISTRY.append(Check(check_id, suite, n_min, n_max, precondition, fn))
        return fn

    return wrap


def _ok(failures: list[str]) -> tuple[str, str]:
    return ("ok" if not failures else "; ".join(failures), "ok")


# -- grassmann ----------------------------------------------------------------


@_register("grassmann.basis_dims", "grassmann", 1)
def _basis_dims(n: int):
    ring = grassmann.build_ring(n)
    computed = [ring.dim(k) for k in range(2 * n + 1)]
    expected = [grassmann.partition_count(n, k) for k in range(2 * n + 1)]
    return str(computed), str(expected)


@_register("grassmann.poincare_pairing", "grassmann", 1)
def _poincare(n: int):
    ring = grassmann.build_ring(n)
    failures = []
    for k in range(2 * n + 1):
        matrix = grassmann.pairing(ring, k)
        if matrix.rows != matrix.cols or matrix.rank() != matrix.rows:
            failures.append(f"degenerate pairing at k={k}")
    return _ok(failures)


@_register("grassmann.degree_catalan", "grassmann", 1)
def _catalan(n: int):
    ring = grassmann.build_ring(n)
    computed = grassmann.degree_of_poly(ring, WPoly.monomial((2 * n, 0)))
    from math import comb

    return str(computed), str(comb(2 * n, n) // (n + 1))


@_register("grassmann.top_normalization", "grassmann", 1)
def _top_norm(n: int):
    ring = grassmann.build_ring(n)
    quotient = grassmann.degree_of_poly(ring, WPoly.monomial((0, n)))
    schubert = grassmann.schubert_degree(n, dict(grassmann.monomial_schubert(n, 0, n)))
    return f"{quotient},{schubert}", "1,1"


@_register("grassmann.pieri_oracle", "grassmann", 1, 15)
def _pieri_oracle(n: int):
    ring = grassmann.build_ring(n)
    # Giambelli table: the quotient coordinates of every Schubert class
    back_table = {
        part: grassmann.giambelli_coords(ring, part)
        for k in range(2 * n + 1)
        for part in grassmann.partitions_in_box(n, k)
    }
    # c2 = sigma_(1,1) shifts the box, so x^a1 y^b1 * x^a2 y^b2 is the
    # (b1 + b2)-shift of sigma(x^a1) * sigma(x^a2): only powers of x are multiplied
    powers = [dict(grassmann.monomial_schubert(n, a, 0)) for a in range(n + 1)]

    @cache
    def product(a1: int, a2: int) -> grassmann.SchubertSum:
        return grassmann.schubert_mul(n, powers[a1], powers[a2])

    @cache
    def agrees(a1: int, a2: int, b: int) -> bool:
        a, k = a1 + a2, a1 + a2 + 2 * b
        back = [0] * ring.dim(k)
        for part, c in grassmann.shift11(n, product(a1, a2), b).items():
            for i, x in enumerate(back_table[part]):
                back[i] += c * x
        # a monomial times a monomial is a monomial: its reducer row
        return ring.reducers[k][(a, b)] == tuple(back)

    failures = []
    for k1 in range(2 * n + 1):
        for k2 in range(2 * n + 1 - k1):
            for m1 in ring.bases[k1]:
                for m2 in ring.bases[k2]:
                    if not agrees(m1[0], m2[0], m1[1] + m2[1]):
                        failures.append(f"mismatch at {m1}*{m2}")
    return _ok(failures)


@_register("grassmann.sym_cubic_class", "grassmann", 1)
def _sym_cubic(n: int):
    top = grassmann.sym_power_chern(3)[4]
    return str(top), "18*x^2*y + 9*y^2"


# -- fano ----------------------------------------------------------------------


@_register("fano.lines_count", "fano", 2, 2)
def _lines_count(n: int):
    ring = grassmann.build_ring(2)
    return str(grassmann.degree_of_poly(ring, grassmann.fano_poly())), "27"


@_register("fano.surface_g2", "fano", 3, 3)
def _surface_g2(n: int):
    ring = grassmann.build_ring(3)
    value = grassmann.degree_of_poly(
        ring, WPoly.monomial((2, 0)) * grassmann.fano_poly()
    )
    return str(value), "45"


@_register("fano.surface_c2", "fano", 3, 3)
def _surface_c2(n: int):
    ring = grassmann.build_ring(3)
    value = grassmann.degree_of_poly(
        ring, WPoly.monomial((0, 1)) * grassmann.fano_poly()
    )
    return str(value), "27"


@_register("fano.pairing_oracle", "fano", 2)
def _pairing_oracle(n: int):
    f_sch = grassmann.poly_schubert(n, grassmann.fano_poly())
    pairings = [fano.fano_pairing(n, k) for k in range(2 * (n - 2) + 1)]
    # every basis monomial is on the left of some pairing: expand each once
    expansions = {
        m: dict(grassmann.monomial_schubert(n, *m)) for p in pairings for m in p.left_basis
    }
    failures = []
    for k, pairing in enumerate(pairings):
        for i, ml in enumerate(pairing.left_basis):
            left = grassmann.schubert_mul(n, expansions[ml], f_sch)
            for j, mr in enumerate(pairing.right_basis):
                right = expansions[mr]
                if pairing.matrix.entries[i][j] != grassmann.schubert_pairing(n, left, right):
                    failures.append(f"entry ({k},{i},{j})")
    return _ok(failures)


@_register("fano.pairing_symmetry", "fano", 2)
def _pairing_symmetry(n: int):
    failures = []
    top = 2 * (n - 2)
    for k in range(top + 1):
        a = fano.fano_pairing(n, k).matrix
        b = fano.fano_pairing(n, top - k).matrix.transpose()
        if a != b:
            failures.append(f"asymmetry at k={k}")
    return _ok(failures)


@_register("fano.extra_relation", "fano", 3)
def _extra_relation(n: int):
    relation = fano.extra_relation(n)
    ring = grassmann.build_ring(n)
    failures = []
    if any(grassmann.normal_form(ring, relation.poly * grassmann.fano_poly())):
        failures.append("P*[F] nonzero in the quotient")
    return _ok(failures)


@_register("fano.ideal_membership", "fano", 3)
def _ideal_membership(n: int):
    relation = fano.extra_relation(n)
    ring = grassmann.build_ring(n)
    product = relation.poly * grassmann.fano_poly()
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


@_register("hodge.euler_consistency", "hodge", 1)
def _euler_consistency(n: int):
    return str(hodge.euler_cubic(n)), str(hodge.hodge_cubic(n).euler())


@_register("hodge.euler_spot", "hodge", 2, 4)
def _euler_spot(n: int):
    golden = {2: 9, 3: -6, 4: 27}
    return str(hodge.euler_cubic(n)), str(golden[n])


@_register("hodge.hilb2_identity", "hodge", 2)
def _hilb2_identity(n: int):
    lhs = hodge.hilb2_diamond(n)
    rhs = hodge.times_projective(hodge.hodge_cubic(n), n) + hodge.fano_diamond(n).shift(2)
    return str(lhs), str(rhs)


@_register("hodge.fano_dimension", "hodge", 2)
def _fano_dimension(n: int):
    diamond = hodge.fano_diamond(n)
    top = 4 * (n - 2)
    computed = f"top_degree={diamond.max_degree()},top_multiplicity={diamond.betti(top)}"
    expected = f"top_degree={top},top_multiplicity={27 if n == 2 else 1}"
    return computed, expected


@_register("hodge.b1_fano", "hodge", 2)
def _b1_fano(n: int):
    computed = hodge.fano_diamond(n).betti(1)
    expected = hodge.primitive_middle(n).betti(1)  # middle block in degree n-2
    return str(computed), str(expected)


@_register("hodge.b2_fano", "hodge", 3, 4)
def _b2_fano(n: int):
    golden = {3: 45, 4: 23}
    return str(hodge.fano_diamond(n).betti(2)), str(golden[n])


@_register("hodge.decomposition_closes", "hodge", 2)
def _decomposition_closes(n: int):
    hodge.fano_hodge_decomposition(n)  # raises CheckFailed on a non-Tate or negative entry
    return "ok", "ok"


@_register("hodge.decomposition_tate", "hodge", 2, 4)
def _decomposition_tate(n: int):
    golden = {2: "(0,)", 3: "(1, 0, 1)", 4: "(1, 1, 1, 1, 1)"}
    return str(hodge.fano_hodge_decomposition(n)), golden[n]


@_register("hodge.decomposition_a0", "hodge", 3)
def _decomposition_a0(n: int):
    return str(hodge.fano_hodge_decomposition(n)[0]), "1"


@_register("hodge.product_ring_ranks", "hodge", 3)
def _product_ring_ranks(n: int):
    failures = []
    if hodge.taut_rank_FX(n, 0) != 1:
        failures.append("rank at k=0 is not 1")
    # only R^(2n-4)(F) x R^n(X) reaches degree 3n-4: taut_rank_F(n, 2n-4)
    if hodge.taut_rank_FX(n, 3 * n - 4) != 1:
        failures.append("rank at k=3n-4 is not 1")
    return _ok(failures)


# -- diagonal --------------------------------------------------------------------


@_register("diagonal.euler_self_intersection", "diagonal", 1)
def _euler_self_intersection(n: int):
    d = diagonal.xx_diagonal(n)
    return str(diagonal.xx_degree(d * d)), str(hodge.euler_cubic(n))


@_register("diagonal.kunneth_third", "diagonal", 1)
def _kunneth_third(n: int):
    small = diagonal.small_diagonal_coh(n)
    coeffs = [
        str(small.coefficient((diagonal.PRIM, a, b, n))) for a, b in diagonal.PAIRS
    ]
    return ",".join(coeffs), "1/3,1/3,1/3"


@_register("diagonal.primitive_cancellation", "diagonal", 1)
def _primitive_cancellation(n: int):
    diagonal.decomposable_coefficients(n)  # raises CheckFailed on survivors
    return "ok", "ok"


@_register("diagonal.projector_law", "diagonal", 1)
def _projector_law(n: int):
    lhs = diagonal.push13(diagonal.small_diagonal_coh(n))
    rhs = diagonal.xx_diagonal_expansion(n)
    return str(lhs), str(rhs)


@_register("diagonal.defect_vanishes", "diagonal", 1)
def _defect_vanishes(n: int):
    diagonal.defect_vanishes_cohomologically(n)
    return "ok", "ok"


@_register("diagonal.defect_pairing", "diagonal", 1)
def _defect_pairing(n: int):
    defect = diagonal.small_diagonal_defect(n)
    failures = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            dual = diagonal.x3_monomial(n, a, b, n - a - b)
            if diagonal.x3_pair(defect, dual) != 0:
                failures.append(f"monomial dual ({a},{b},{n - a - b})")
    image = diagonal.defect_image(n)
    for a, b in diagonal.PAIRS:
        dual = diagonal.CohX3Class(n, {(diagonal.PRIM, a, b, 0): Fraction(1)})
        if diagonal.coh_pair(image, dual) != 0:
            failures.append(f"primitive dual d{a}{b}")
    return _ok(failures)


@_register("diagonal.symmetry", "diagonal", 1)
def _symmetry(n: int):
    table, _ = diagonal.decomposable_coefficients(n)  # integer numerators
    failures = []
    for (i, j, k), value in table.items():
        for perm in itertools.permutations((i, j, k)):
            if table[perm] != value:
                failures.append(f"asymmetry at {(i, j, k)}")
                break
    return _ok(failures)


@_register("diagonal.interior_coefficient", "diagonal", 3)
def _interior_coefficient(n: int):
    table, den = diagonal.decomposable_coefficients(n)
    interior = [t for key, t in table.items() if all(0 < e < n for e in key)]
    failures = []
    if not interior:
        failures.append("no interior indices")
    if any(9 * t != den for t in interior):  # t / den == 1/9
        failures.append("interior coefficient differs from 1/9")
    return _ok(failures)


@_register("diagonal.product_rank_one", "diagonal", 3)
def _product_rank_one(n: int):
    failures = []
    moments = (Fraction(3), Fraction(7, 2), Fraction(-5, 3))
    # cycles[s][c]: codimension c, moment moments[s]; moment 3 is h^c itself
    cycles = [
        [None] + [diagonal.FormalCycle(c, m) for c in range(1, n)] for m in moments
    ]
    # (1/9) m_alpha m_beta h^(i+j) has moment m_alpha m_beta / 3, as deg h^n = 3;
    # kept as the (num, den) pair of a FormalCycle
    scaled = [[(ma * mb / 3).as_integer_ratio() for mb in moments] for ma in moments]
    units = cycles[0]
    for i in range(1, n):
        for j in range(1, n - i):
            if diagonal.cycle_product(n, units[i], units[j]) != units[i + j]:
                failures.append(f"h^{i} * h^{j} != h^{i + j}")
            for alphas, row in zip(cycles, scaled):
                alpha = alphas[i]
                for betas, (num, den) in zip(cycles, row):
                    out = diagonal.cycle_product(n, alpha, betas[j])
                    if (out.codim, out.num, out.den) != (i + j, num, den):
                        failures.append(f"moment scaling fails at ({i},{j})")
    return _ok(failures)


@_register("diagonal.model_compatibility", "diagonal", 1, 6)
def _model_compatibility(n: int):
    # both models are associative and xx_to_coh is linear and unital, so
    # f(g * b) = f(g) * f(b) for the generators g = h1, h2, D and every basis
    # class b makes it a ring map (induct on words in the generators)
    classes = {k: diagonal.XXClass(n, {k: 1}) for k in diagonal.xx_basis(n)}
    images = {k: diagonal.xx_to_coh(a) for k, a in classes.items()}
    failures = []
    for g in ((diagonal.MONO, 1, 0), (diagonal.MONO, 0, 1), (diagonal.DIAG,)):
        for k, b in classes.items():
            if diagonal.xx_to_coh(classes[g] * b) != images[g] * images[k]:
                failures.append(f"not a ring map at {g} * {k}")
    return _ok(failures)


def checks_for(suites: set[str]) -> list[Check]:
    if "all" in suites:
        return list(REGISTRY)
    return [c for c in REGISTRY if c.suite in suites]
