"""The Chow ring of the Grassmannian of lines in P^(n+1).

Two independent models of A*(Gr(2, n+2)) are provided:

* a quotient-ring model: Q[x, y] (x = c1, y = c2, the Chern classes of the
  dual tautological subbundle) modulo the ideal generated by the complete
  symmetric polynomials h_(n+1) and h_(n+2).  The elements y^j * h_(n+1-j)
  of the ideal form a Groebner basis, so the basis monomials x^a y^b
  (a + b <= n) and the integer reducer of every monomial are filled degree
  by degree, without elimination; a normal form is the tuple of coordinates
  on that basis (``grassmann.basis_dims``, not the ring, counts it against
  the Poincare polynomial).  The top degree is spanned by c2^n, so every
  intersection number of monomials is one read of the top reducer
  (``pairing``).  As deg(x^(2m) y^(n-m)) is the Catalan number C_m, the
  degree-k pairing is, with both index orders reversed, a leading block of
  the Hankel matrix [C_(e+i+j)], e = k mod 2, whose leading minors are all 1
  (the Catalan Hankel identity): equal entries make the pairing unimodular;
* a Schubert-calculus oracle on partitions (a, b) in the n x 2 box, keyed
  by plain (a, b) pairs, with integer coefficients and one Pieri rule
  (``schubert_mul``).  sigma(x^a) takes no Pieri step: the coefficient of
  sigma_(a-q,q) in sigma_1^a is the number of standard tableaux of that
  shape, C(a, q) - C(a, q-1) by the hook-length formula.  An intersection
  number is the coefficient of the point class sigma_(n,n) in a product
  (``schubert_degree`` of ``schubert_mul``), so the oracle never touches the
  quotient ring.  As c2 = sigma_(1,1) shifts (a, b) to (a+1, b+1) and drops
  what leaves the box (``shift11``), the product of x^a1 y^b1 and x^a2 y^b2
  is the (b1+b2)-shift of sigma(x^a1) * sigma(x^a2): the Pieri oracle check
  multiplies powers of x only, against the closed form.

The two are tied together by c1 = sigma_1, c2 = sigma_(1,1) and the
Giambelli determinant sigma_(a,b) = h_a*h_b - h_(a+1)*h_(b-1).  In two rows
it equals h_(a-b)*c2^b, so its quotient coordinates are read off the integer
reducers, one row per term of h_(a-b) (``coords``); the point class
sigma_(n,n) = c2^n has degree 1.  So the Pieri oracle check is keyed by the
exponent sums (a1+a2, b1+b2) and splits in two:
sigma(x^a1) * sigma(x^a2) = sigma(x^(a1+a2)) for a1, a2 <= n, and the
Giambelli image of the b-shift of sigma(x^a) is the reducer row of x^a y^b.
``normal_form``, ``pairing`` and ``poly_schubert`` reject anything but a
``WPoly`` with ``ValueError``; ``pairing`` and ``poly_schubert`` also reject
a polynomial that is not integral, so a pairing is a tuple of integer rows
and a Schubert sum holds ``int``s.  ``normal_form`` alone refuses a degree
other than the stated one (``degree_of_poly`` states the top); ``pairing``
alone refuses a k that is not an ``int`` (``TypeError``) or is out of range.

Also here: Chern classes of symmetric powers of a rank-2 bundle, multiplied
out from conjugate pairs of roots, and the class of the locus of lines on a
cubic, read off them: [F] = c4(Sym^3 S*) = 18*c1^2*c2 + 9*c2^2, the top
Chern class of Sym^3 of the dual subbundle (``fano_poly``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import UnsupportedRange
from .wpoly import Exponents, WPoly

X = WPoly.variable("x")
Y = WPoly.variable("y")


SchubertSum = Mapping[Exponents, int]  # sigma_(a,b) keyed by the partition (a, b)


@lru_cache(maxsize=None)
def complete_symmetric(k: int) -> WPoly:
    """h_k in (c1, c2) via h_k = c1*h_(k-1) - c2*h_(k-2); h_0 = 1."""
    if type(k) is not int:  # a bool too
        raise TypeError(f"complete_symmetric needs an int k, not {k!r}")
    if k < 0:
        raise ValueError("complete_symmetric needs k >= 0")
    if k == 0:
        return WPoly.constant(1)
    if k == 1:
        return X
    return X * complete_symmetric(k - 1) - Y * complete_symmetric(k - 2)


def weight_monomials(k: int) -> list[Exponents]:
    """All (a, b) with a + 2b = k, in descending graded-lex order (x first)."""
    return [(k - 2 * b, b) for b in range(k // 2 + 1)]


def partitions_in_box(n: int, k: int) -> list[Exponents]:
    return [(k - b, b) for b in range(max(0, k - n), k // 2 + 1)]


class GRing(NamedTuple):
    """Quotient-ring presentation of A*(Gr(2, n+2)), all degrees 0..2n.

    ``reducers`` are read-only views: rings are shared through the
    ``build_ring`` cache, so a write would poison every later check.
    """

    n: int
    bases: tuple[tuple[Exponents, ...], ...]
    reducers: tuple[Mapping[Exponents, tuple[int, ...]], ...]

    def dim(self, k: int) -> int:
        return len(self.bases[k])


# the caches keyed by n alone keep one n (maxsize=1): verify runs n by n (cli.run)
@lru_cache(maxsize=1)
def build_ring(n: int) -> GRing:
    """Reduce every graded piece of Q[x, y]/(h_(n+1), h_(n+2)) to a basis, in integers.

    The ideal holds e_j = y^j * h_(n+1-j): e_0 = h_(n+1), e_1 = x*h_(n+1) - h_(n+2)
    and e_(j+1) = x*e_j - y*e_(j-1).  As h_m is monic in x, e_j leads with
    x^(n+1-j) * y^j in lex order, so the standard monomials are the x^a y^b
    with a + b <= n (as many as the partitions, so the e_j are a Groebner
    basis).  A standard monomial reduces to its unit vector; any other one
    (a >= 1) to x times the reducer of x^(a-1) y^b, with the boundary
    monomial x^(n+1-j) y^j replaced by its remainder x^(n+1-j) y^j - e_j.
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"build_ring needs an int n, not {n!r}")
    if n < 1:
        raise UnsupportedRange("build_ring needs n >= 1")
    g1, g2 = complete_symmetric(n + 1), complete_symmetric(n + 2)
    if g1.den != 1 or g2.den != 1:
        raise AssertionError("h_(n+1) and h_(n+2) need integral coefficients")
    # elem is e_j and lower is y*e_(j-1) (h_(n+2) for j = 0), keyed by the y exponent
    elem, lower = ({b: c for (_, b), c in g.num.items()} for g in (g1, g2))
    bases: list[tuple[Exponents, ...]] = []
    reducers: list[Mapping[Exponents, tuple[int, ...]]] = []
    for k in range(2 * n + 1):
        lo = max(0, k - n)  # x^(k-2b) y^b is standard iff b >= lo
        basis = tuple((k - 2 * b, b) for b in range(lo, k // 2 + 1))
        reducer: dict[Exponents, tuple[int, ...]] = {}
        if lo:  # k = n+1+j with j = lo-1: reduce by e_j, then step to e_(j+1)
            if elem.get(lo - 1) != 1:
                raise AssertionError(f"e_{lo - 1} does not lead with coefficient 1")
            tail = [(b - lo, -c) for b, c in elem.items() if b >= lo]
            for b in range(lo):
                # x times the basis of degree k-1: the first becomes the boundary
                head, *coords = reducers[k - 1][(k - 1 - 2 * b, b)]
                coords += [0] * (len(basis) - len(coords))
                for i, t in tail:
                    coords[i] += head * t
                reducer[(k - 2 * b, b)] = tuple(coords)
            elem, lower = (
                {b: elem.get(b, 0) - lower.get(b, 0) for b in elem.keys() | lower.keys()},
                {b + 1: c for b, c in elem.items()},
            )
        for i, mono in enumerate(basis):
            reducer[mono] = tuple(int(i == j) for j in range(len(basis)))
        bases.append(basis)
        reducers.append(MappingProxyType(reducer))
    return GRing(n, tuple(bases), tuple(reducers))


def normal_form(ring: GRing, p: WPoly, degree: int | None = None) -> tuple[Fraction, ...]:
    """Coordinates of a homogeneous polynomial in the quotient, on the degree basis."""
    X._check(p)
    if p.is_zero():
        if degree is None:
            raise ValueError("zero polynomial needs an explicit degree")
        k = degree
    else:
        k = p.homogeneous_degree()
        if degree is not None and degree != k:
            raise ValueError("stated degree disagrees with the polynomial")
    if not 0 <= k <= 2 * ring.n:
        raise ValueError(f"degree {k} outside 0..{2 * ring.n}")
    return tuple(Fraction(c, p.den) for c in coords(ring, k, p.num.items()))


def coords(
    ring: GRing, k: int, terms: Iterable[tuple[Exponents, int]], shift: Exponents = (0, 0)
) -> tuple[int, ...]:
    """Integer coordinates of x^a y^b * sum c * x^e in degree k, for shift (a, b).

    ``terms`` are the pairs (e, c), integers; each adds c times one reducer
    row, so no polynomial product is formed.
    """
    a, b = shift
    reducer = ring.reducers[k]
    out = [0] * ring.dim(k)
    for (e1, e2), c in terms:
        for i, r in enumerate(reducer[(a + e1, b + e2)]):
            out[i] += c * r
    return tuple(out)


def degree_of_poly(ring: GRing, p: WPoly) -> Fraction:
    """Integral of a top-degree polynomial: c2^n spans the top degree, with degree 1."""
    return normal_form(ring, p, 2 * ring.n)[0]


# -- Schubert oracle ---------------------------------------------------------


def shift11(n: int, s: SchubertSum, d: int) -> dict[Exponents, int]:
    """Multiplication by sigma_(1,1)^d: (a, b) -> (a+d, b+d), out-of-box terms dropped."""
    return {(a + d, b + d): c for (a, b), c in s.items() if a + d <= n}


def schubert_mul(n: int, s1: SchubertSum, s2: SchubertSum) -> dict[Exponents, int]:
    """Product of Schubert sums: sigma_(a,b) * sigma_(c,d) in one pass.

    sigma_(c,d) = sigma_(1,1)^d * sigma_(c-d): the Pieri rule for sigma_(c-d)
    gives (a2, a+b+c-d-a2) for max(a, b+c-d) <= a2 <= a+c-d, and the shift by
    (d, d) keeps those with a2 + d <= n.
    """
    out: dict[Exponents, int] = {}
    get = out.get
    for (c, d), coeff2 in s2.items():
        p = c - d
        for (a, b), coeff1 in s1.items():
            coeff = coeff1 * coeff2
            size = a + b + c + d
            for top in range(max(a, b + p) + d, min(n, a + p + d) + 1):
                key = (top, size - top)
                out[key] = get(key, 0) + coeff
    return {key: v for key, v in out.items() if v}


def monomial_schubert(n: int, a: int, b: int) -> dict[Exponents, int]:
    """Expansion of c1^a * c2^b in the Schubert basis.

    In two rows sigma_1^a has coefficient C(a, q) - C(a, q-1) at (a-q, q),
    the number of standard tableaux of that shape (hook-length formula,
    here C(a, q) * (a-2q+1) / (a-q+1)).  The box is the quotient by an ideal
    of Schubert classes, so truncating is enough, and c2^b shifts by (b, b).
    """
    return {
        (a - q + b, q + b): comb(a, q) * (a - 2 * q + 1) // (a - q + 1)
        for q in range(max(0, a + b - n), a // 2 + 1)
    }


def poly_schubert(n: int, p: WPoly) -> dict[Exponents, int]:
    """Expansion of an integral polynomial in (c1, c2) in the Schubert basis."""
    _integral(p)
    total: dict[Exponents, int] = {}
    for (a, b), c in p.num.items():
        for key, v in monomial_schubert(n, a, b).items():
            total[key] = total.get(key, 0) + c * v
    return {key: v for key, v in total.items() if v}


def schubert_degree(n: int, s: SchubertSum) -> int:
    """Coefficient of the point class sigma_(n,n)."""
    return s.get((n, n), 0)


def giambelli(part: Exponents) -> WPoly:
    """sigma_(a,b) as a polynomial in (c1, c2): h_a*h_b - h_(a+1)*h_(b-1)."""
    a, b = part
    det = complete_symmetric(a) * complete_symmetric(b)
    if b >= 1:
        det = det - complete_symmetric(a + 1) * complete_symmetric(b - 1)
    return det


def giambelli_coords(ring: GRing, part: Exponents) -> tuple[int, ...]:
    """Quotient coordinates of ``giambelli(part)``, in integers.

    In two rows sigma_(a,b) = h_(a-b) * c2^b: the reducer rows of the terms
    of h_(a-b), shifted by y^b.
    """
    a, b = part  # h_(a-b) has den 1: see build_ring
    return coords(ring, a + b, complete_symmetric(a - b).num.items(), (0, b))


# -- symmetric powers and the lines-on-a-cubic class -------------------------


@lru_cache(maxsize=None)
def sym_power_chern(m: int) -> tuple[WPoly, ...]:
    """Total Chern class [c_0, ..., c_(m+1)] of Sym^m of a rank-2 bundle.

    Splitting principle: if the bundle has roots r, s then Sym^m has the
    m+1 roots i*r + (m-i)*s.  The roots i and m-i pair up, with
    (1 + i*r + (m-i)*s) * (1 + (m-i)*r + i*s)
    = 1 + m*c1 + i*(m-i)*c1^2 + (m-2i)^2*c2 in c1 = r + s, c2 = r*s; for
    even m the middle root is (m/2)*c1.  The product of these integer
    factors, split by weighted degree, is the total class.
    """
    if m < 1:
        raise ValueError("sym_power_chern needs m >= 1")
    total = WPoly({(0, 0): 1, (1, 0): m // 2}) if m % 2 == 0 else WPoly.constant(1)
    for i in range((m + 1) // 2):
        pair = {(0, 0): 1, (1, 0): m, (2, 0): i * (m - i), (0, 1): (m - 2 * i) ** 2}
        total = total * WPoly(pair)
    parts: list[dict[Exponents, int]] = [{} for _ in range(m + 2)]
    for exps, c in total.num.items():  # den 1: integer factors
        parts[total.wdeg(exps)][exps] = c
    return tuple(WPoly(terms) for terms in parts)


def fano_poly() -> WPoly:
    """[F] = c4(Sym^3 S*) = 18*x^2*y + 9*y^2, the class of the lines on a cubic."""
    return sym_power_chern(3)[4]


def _integral(p: WPoly) -> None:
    X._check(p)
    if p.den != 1:
        raise ValueError(f"an integral polynomial is needed, not one with denominator {p.den}")


def pairing(ring: GRing, k: int, weight: WPoly | None = None) -> tuple[tuple[int, ...], ...]:
    """deg(x_i * y_j * weight) between degree k and 2n - k - deg(weight).

    No weight means 1; the weight must be integral.  Each entry is
    sum c * reducers[2n][m_i + m_j + e][0] over the terms c * x^e of the
    weight: one read of the top reducer per term, and any representative of
    the weight in the quotient will do.  The basis of degree d is
    x^(d-2b) y^b for consecutive b, so an entry depends only on b_i + b_j:
    each value is computed once, and row i is the window of ``len(right)``
    values starting at the i-th.
    """
    weight = WPoly.constant(1) if weight is None else weight
    _integral(weight)
    terms = weight.num.items()
    top = 2 * ring.n - weight.homogeneous_degree()
    if type(k) is not int:  # a bool too
        raise TypeError(f"k must be an int, not {k!r}")
    if not 0 <= k <= top:
        raise UnsupportedRange(f"k must lie in 0..{top}")
    point = ring.reducers[2 * ring.n]
    left, right = ring.bases[k], ring.bases[top - k]
    values = [
        sum(c * point[(top - 2 * b + e1, b + e2)][0] for (e1, e2), c in terms)
        for b in range(left[0][1] + right[0][1], left[-1][1] + right[-1][1] + 1)
    ]
    cols = len(right)
    return tuple(tuple(values[i : i + cols]) for i in range(len(left)))
