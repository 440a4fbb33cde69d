"""Numerical tautological ring of the variety of lines on a cubic.

The variety of lines F sits in Gr(2, n+2) with class [F] = 18*c1^2*c2 +
9*c2^2.  Its numerical tautological ring is probed through pairing
matrices of intersection numbers deg(x_i * y_j * [F]) on the ambient
Grassmannian, each a tuple of integer rows; their ranks are the graded
dimensions (``taut_rank_F``).  Each entry is read off the top reducer of the
quotient ring, one lookup per term of [F] (``grassmann.pairing``); no
product is formed.  ``fano_pairings(n)``
holds the matrices of every degree k = 0..2(n-2), indexed by the ring's
bases of degrees k and 2(n-2)-k.

``extra_relation`` returns the polynomial relation of weighted degree n-1
that holds on F but not on the ambient ring, as a ``WPoly`` leading with
c1^(n-1) (an element of the kernel of multiplication by [F] from degree n-1
to degree n+3, whose columns are read off the reducers of degree n+3 by
``grassmann.coords``), and ``ideal_decomposition``
checks ideal membership in degree n+3 by an independent linear solve against
the two relation generators, whose columns are the shifted coefficients of
h_(n+1) and h_(n+2) (no product is formed).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CheckFailed, UnsupportedRange
from .grassmann import (
    build_ring,
    complete_symmetric,
    coords,
    fano_poly,
    pairing,
    weight_monomials,
)
from .linalg import kernel_basis, rank, solve_linear
from .wpoly import WPoly


def taut_rank_F(n: int, k: int) -> int:
    """Rank of the pairing through [F]; the numerical Betti number of R^k(F)."""
    return rank(pairing(build_ring(n), k, fano_poly()))


# the caches keyed by n alone keep one n (maxsize=1): verify runs n by n (cli.run)
@lru_cache(maxsize=1)
def fano_pairings(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """deg(x_i * y_j * [F]) between A^k and A^(2(n-2)-k), for k = 0..2(n-2)."""
    ring = build_ring(n)  # refuses a non-int n, a bool too
    if n < 2:
        raise UnsupportedRange("fano_pairings needs n >= 2")
    return tuple(pairing(ring, k, fano_poly()) for k in range(2 * n - 3))


@lru_cache(maxsize=1)
def extra_relation(n: int) -> WPoly:
    """Kernel element of multiplication by [F]: A^(n-1) -> A^(n+3).

    Dimension counting makes the kernel nonzero for n >= 3; the returned
    polynomial is the first kernel basis vector with nonzero c1^(n-1)
    coordinate, rescaled so that coordinate is 1 (deterministic output).
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"extra_relation needs an int n, not {n!r}")
    if n < 3:
        raise UnsupportedRange("extra_relation needs n >= 3 (A^(n+3) empty below)")
    ring = build_ring(n)
    source = ring.bases[n - 1]
    # column of x^a y^b: the degree-(n+3) coordinates of x^a y^b * [F] from the
    # numerators of [F]; its denominator would scale the matrix, not the kernel
    terms = fano_poly().num.items()
    columns = [coords(ring, n + 3, terms, mono) for mono in source]
    kernel = kernel_basis(tuple(zip(*columns)), len(source))
    if not kernel:
        raise CheckFailed(f"multiplication by [F] is injective at n={n}")
    lead = source.index((n - 1, 0))
    vec = next((v for v in kernel if v[lead] != 0), None)
    if vec is None:
        raise CheckFailed(f"no kernel element with nonzero c1^{n-1} coefficient at n={n}")
    scale = 1 / vec[lead]
    return WPoly({mono: scale * c for mono, c in zip(source, vec)})


def ideal_decomposition(n: int, relation: WPoly) -> tuple[WPoly, WPoly] | None:
    """Solve R = A*h_(n+1) + B*h_(n+2) with A in span{x^2, y}, B in span{x}.

    The cofactor spaces are all monomials of weights 2 and 1, so solvability
    is exactly membership of R in the degree-(n+3) piece of the relation
    ideal.  Returns (A, B) or ``None`` when inconsistent.
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"ideal_decomposition needs an int n, not {n!r}")
    if relation.is_zero():
        return WPoly.zero(), WPoly.zero()
    if relation.homogeneous_degree() != n + 3:
        raise ValueError("ideal_decomposition needs homogeneous input of degree n+3")
    g1, g2 = complete_symmetric(n + 1), complete_symmetric(n + 2)
    # columns x^2*h_(n+1), y*h_(n+1), x*h_(n+2): shifted coefficients, integers
    # (build_ring asserts it); the relation's denominator scales the matrix
    shifts = ((g1, 2, 0), (g1, 0, 1), (g2, 1, 0))
    monos = weight_monomials(n + 3)
    den = relation.den
    rows = [[den * gen.num.get((a - da, b - db), 0) for gen, da, db in shifts] for a, b in monos]
    target = [relation.num.get(m, 0) for m in monos]
    solution = solve_linear(rows, target, len(shifts))
    if solution is None:
        return None
    m1, m2, m3 = solution
    cofactor_a = WPoly({(2, 0): m1, (0, 1): m2})
    cofactor_b = WPoly({(1, 0): m3})
    return cofactor_a, cofactor_b
