"""Numerical tautological ring of the variety of lines on a cubic.

The variety of lines F sits in Gr(2, n+2) with class [F] = 18*c1^2*c2 +
9*c2^2.  Its numerical tautological ring is probed through pairing
matrices of intersection numbers deg(x_i * y_j * [F]) on the ambient
Grassmannian; their ranks are the graded dimensions.  Each entry is read
off the top reducer of the quotient ring, one lookup per term of [F]
(``grassmann.pairing``); no product is formed.

``extra_relation`` finds the polynomial relation of weighted degree n-1
that holds on F but not on the ambient ring (the kernel of multiplication
by [F] from degree n-1 to degree n+3, whose columns are read off the
reducers of degree n+3 in the same way), and ``ideal_decomposition`` checks
ideal membership in degree n+3 by an independent linear solve against the
two relation generators, whose columns are the shifted coefficients of
h_(n+1) and h_(n+2) (no product is formed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CheckFailed, UnsupportedRange
from .grassmann import (
    build_ring,
    complete_symmetric,
    fano_poly,
    pairing,
    weight_monomials,
)
from .linalg import MatQ, kernel_basis, solve_linear
from .wpoly import Exponents, WPoly


@dataclass(frozen=True)
class FanoPairing:
    """Pairing matrix deg(x_i * y_j * [F]) between A^k and A^(2(n-2)-k)."""

    n: int
    k: int
    left_basis: tuple[Exponents, ...]
    right_basis: tuple[Exponents, ...]
    matrix: MatQ


@dataclass(frozen=True)
class ExtraRelation:
    """A degree-(n-1) polynomial killed by [F], normalized to lead with c1^(n-1)."""

    n: int
    poly: WPoly
    kernel_dim: int


@lru_cache(maxsize=None)
def fano_pairing(n: int, k: int) -> FanoPairing:
    if n < 2:
        raise UnsupportedRange("fano_pairing needs n >= 2")
    top = 2 * (n - 2)
    if not 0 <= k <= top:
        raise UnsupportedRange(f"k must lie in 0..{top}")
    ring = build_ring(n)
    matrix = pairing(ring, k, fano_poly())
    return FanoPairing(n, k, ring.bases[k], ring.bases[top - k], matrix)


def taut_rank_F(n: int, k: int) -> int:
    """Rank of the pairing through [F]; the numerical Betti number of R^k(F)."""
    return fano_pairing(n, k).matrix.rank()


@lru_cache(maxsize=None)
def extra_relation(n: int) -> ExtraRelation:
    """Kernel element of multiplication by [F]: A^(n-1) -> A^(n+3).

    Dimension counting makes the kernel nonzero for n >= 3; the returned
    element is the first kernel basis vector with nonzero c1^(n-1)
    coordinate, rescaled so that coordinate is 1 (deterministic output).
    """
    if n < 3:
        raise UnsupportedRange("extra_relation needs n >= 3 (A^(n+3) empty below)")
    ring = build_ring(n)
    source = ring.bases[n - 1]
    # column of x^a y^b: sum c * reducers[n+3][(a, b) + e] over the numerators
    # c * x^e of [F]; its denominator would scale the matrix, not the kernel
    terms = fano_poly().num.items()
    reducer = ring.reducers[n + 3]
    matrix = MatQ.from_rows(
        [
            [sum(c * reducer[(a + e1, b + e2)][i] for (e1, e2), c in terms) for a, b in source]
            for i in range(ring.dim(n + 3))
        ],
        cols=len(source),
    )
    kernel = kernel_basis(matrix)
    if not kernel:
        raise CheckFailed(f"multiplication by [F] is injective at n={n}")
    lead = source.index((n - 1, 0))
    vec = next((v for v in kernel if v[lead] != 0), None)
    if vec is None:
        raise CheckFailed(f"no kernel element with nonzero c1^{n-1} coefficient at n={n}")
    scale = 1 / vec[lead]
    poly = WPoly({mono: scale * c for mono, c in zip(source, vec)})
    return ExtraRelation(n, poly, len(kernel))


def ideal_decomposition(n: int, relation: WPoly) -> tuple[WPoly, WPoly] | None:
    """Solve R = A*h_(n+1) + B*h_(n+2) with A in span{x^2, y}, B in span{x}.

    The cofactor spaces are all monomials of weights 2 and 1, so solvability
    is exactly membership of R in the degree-(n+3) piece of the relation
    ideal.  Returns (A, B) or ``None`` when inconsistent.
    """
    if relation.is_zero():
        return WPoly.zero(), WPoly.zero()
    if not relation.is_homogeneous() or relation.homogeneous_degree() != n + 3:
        raise ValueError("ideal_decomposition needs homogeneous input of degree n+3")
    g1, g2 = complete_symmetric(n + 1), complete_symmetric(n + 2)
    # columns x^2*h_(n+1), y*h_(n+1), x*h_(n+2): shifted coefficients
    shifts = ((g1, 2, 0), (g1, 0, 1), (g2, 1, 0))
    monos = weight_monomials(n + 3)
    matrix = MatQ.from_rows(
        [[gen.coefficient((a - da, b - db)) for gen, da, db in shifts] for a, b in monos],
        cols=len(shifts),
    )
    target = [relation.coefficient(m) for m in monos]
    solution = solve_linear(matrix, target)
    if solution is None:
        return None
    m1, m2, m3 = solution
    cofactor_a = WPoly({(2, 0): m1, (0, 1): m2})
    cofactor_b = WPoly({(1, 0): m3})
    return cofactor_a, cofactor_b
