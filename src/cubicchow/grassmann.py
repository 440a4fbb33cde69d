"""The Chow ring of the Grassmannian of lines in P^(n+1).

Two independent models of A*(Gr(2, n+2)) are provided:

* a quotient-ring model: Q[x, y] (x = c1, y = c2, the Chern classes of the
  dual tautological subbundle) modulo the ideal generated by the complete
  symmetric polynomials h_(n+1) and h_(n+2).  The elements y^j * h_(n+1-j)
  of the ideal form a Groebner basis, so the basis monomials x^a y^b
  (a + b <= n) and the integer reducer of every monomial are filled degree
  by degree, without elimination; a normal form is the tuple of coordinates
  on that basis.  The top degree is spanned by c2^n, so every intersection
  number of monomials is one read of the top reducer (``pairing``);
* a Schubert-calculus oracle on partitions (a, b) in the n x 2 box, with
  integer coefficients and multiplication given by the Pieri rule.  Its
  intersection numbers are read off by Poincare duality,
  deg(sigma_(a,b) * sigma_mu) = [mu = (n-b, n-a)], so the oracle never
  touches the quotient ring.  As c2 = sigma_(1,1) shifts (a, b) to
  (a+1, b+1) and drops what leaves the box (``shift11``), the product of
  x^a1 y^b1 and x^a2 y^b2 is the (b1+b2)-shift of sigma(x^a1) * sigma(x^a2):
  the Pieri oracle check multiplies powers of x only.

The two are tied together by c1 = sigma_1, c2 = sigma_(1,1) and the
Giambelli determinant sigma_(a,b) = h_a*h_b - h_(a+1)*h_(b-1), whose
quotient coordinates are read off the integer reducers term pair by term
pair (``giambelli_coords``); the point class sigma_(n,n) = c2^n has degree 1.
``normal_form``, ``pairing`` and ``poly_schubert`` reject a polynomial over
any variable set but (x, y) with weights (1, 2) with ``ValueError``.

Also here: Chern classes of symmetric powers of a rank-2 bundle via the
splitting principle, and the class of the locus of lines on a cubic,
18*c1^2*c2 + 9*c2^2 (the top Chern class of Sym^3 of the dual subbundle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import NotTopDegree, UnsupportedRange
from .linalg import MatQ, rref  # rref: rebound to a guard by the route-independence tests
from .wpoly import Exponents, WPoly

X = WPoly.variable("x")
Y = WPoly.variable("y")


class Partition2(NamedTuple):
    """Partition (a, b) with a >= b >= 0; indexes a Schubert class."""

    a: int
    b: int


SchubertSum = dict[Partition2, int]


@lru_cache(maxsize=None)
def complete_symmetric(k: int) -> WPoly:
    """h_k in (c1, c2) via h_k = c1*h_(k-1) - c2*h_(k-2); h_0 = 1."""
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


def partition_count(n: int, k: int) -> int:
    """Number of partitions (a, b), n >= a >= b >= 0, a + b = k."""
    lo = max(0, k - n)
    hi = k // 2
    return max(0, hi - lo + 1)


def partitions_in_box(n: int, k: int) -> list[Partition2]:
    return [Partition2(k - b, b) for b in range(max(0, k - n), k // 2 + 1)]


@dataclass(frozen=True)
class GRing:
    """Quotient-ring presentation of A*(Gr(2, n+2)), all degrees 0..2n.

    ``reducers`` are read-only views: rings are shared through the
    ``build_ring`` cache, so a write would poison every later check.
    """

    n: int
    bases: tuple[tuple[Exponents, ...], ...]
    reducers: tuple[Mapping[Exponents, tuple[int, ...]], ...]

    def dim(self, k: int) -> int:
        return len(self.bases[k])


@lru_cache(maxsize=None)
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
        if len(basis) != partition_count(n, k):
            raise AssertionError(
                f"degree {k}: basis size {len(basis)} != partition count"
            )
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
    if len(bases[2 * n]) != 1:
        raise AssertionError("top degree is not one-dimensional")
    return GRing(n, tuple(bases), tuple(reducers))


def normal_form(ring: GRing, p: WPoly, degree: int | None = None) -> tuple[Fraction, ...]:
    """Coordinates of a homogeneous polynomial in the quotient, on the degree basis."""
    X._check(p)
    if p.is_zero():
        if degree is None:
            raise ValueError("zero polynomial needs an explicit degree")
        k = degree
    else:
        if not p.is_homogeneous():
            raise ValueError("normal_form needs weighted-homogeneous input")
        k = p.homogeneous_degree()
        if degree is not None and degree != k:
            raise ValueError("stated degree disagrees with the polynomial")
    if not 0 <= k <= 2 * ring.n:
        raise ValueError(f"degree {k} outside 0..{2 * ring.n}")
    coords = [0] * ring.dim(k)
    reducer = ring.reducers[k]
    for exps, c in p.num.items():
        for i, r in enumerate(reducer[exps]):
            coords[i] += c * r
    return tuple(Fraction(c, p.den) for c in coords)


def degree_of_poly(ring: GRing, p: WPoly) -> Fraction:
    """Integral of a top-degree polynomial: c2^n spans the top degree, with degree 1."""
    top = 2 * ring.n
    if not p.is_zero() and p.is_homogeneous() and p.homogeneous_degree() != top:
        raise NotTopDegree(f"degree map needs codimension {top}")
    return normal_form(ring, p, top)[0]


# -- Schubert oracle ---------------------------------------------------------


def pieri_mul(n: int, part: Partition2, p: int) -> SchubertSum:
    """sigma_(a,b) * sigma_p by the Pieri rule on Gr(2, n+2).

    Out-of-box partitions contribute zero; for p = 0 this is the identity.
    """
    a, b = part
    return {
        Partition2(a2, a + b + p - a2): 1
        for a2 in range(max(a, b + p), min(n, a + p) + 1)
    }


def shift11(n: int, s: SchubertSum, d: int) -> SchubertSum:
    """Multiplication by sigma_(1,1)^d: (a, b) -> (a+d, b+d), out-of-box terms dropped."""
    return {Partition2(a + d, b + d): c for (a, b), c in s.items() if a + d <= n}


def _sum_scale(total: SchubertSum, part_sum: SchubertSum, c: int) -> None:
    for key, v in part_sum.items():
        value = total.get(key, 0) + c * v
        if value:
            total[key] = value
        else:
            total.pop(key, None)


def schubert_mul(n: int, s1: SchubertSum, s2: SchubertSum) -> SchubertSum:
    """Product of Schubert sums: sigma_(a,b) * sigma_(c,d) in one pass.

    sigma_(c,d) = sigma_(1,1)^d * sigma_(c-d): the Pieri rule for sigma_(c-d)
    gives (a2, a+b+c-d-a2) for max(a, b+c-d) <= a2 <= a+c-d, and the shift by
    (d, d) keeps those with a2 + d <= n.
    """
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (c, d), coeff2 in s2.items():
        p = c - d
        for (a, b), coeff1 in s1.items():
            coeff = coeff1 * coeff2
            size = a + b + c + d
            for top in range(max(a, b + p) + d, min(n, a + p + d) + 1):
                key = (top, size - top)
                out[key] = get(key, 0) + coeff
    return {Partition2._make(key): v for key, v in out.items() if v}


@lru_cache(maxsize=None)
def monomial_schubert(n: int, a: int, b: int) -> tuple[tuple[Partition2, int], ...]:
    """Expansion of c1^a * c2^b in the Schubert basis (cached, immutably).

    Each c1 is one Pieri step; c2^b is the shift of the c1^a expansion by (b, b).
    """
    if b > 0:
        out = shift11(n, dict(monomial_schubert(n, a, 0)), b)
    elif a > 0:
        prev = monomial_schubert(n, a - 1, 0)
        out = {}
        for part, v in prev:
            _sum_scale(out, pieri_mul(n, part, 1), v)
    else:
        out = {Partition2(0, 0): 1}
    return tuple(sorted(out.items()))


def poly_schubert(n: int, p: WPoly) -> SchubertSum:
    """Expansion of a polynomial in (c1, c2) in the Schubert basis.

    The sum runs on the numerators of ``p``, so integral input gives an
    integral sum; its denominator divides the result at the end.
    """
    X._check(p)
    out: SchubertSum = {}
    for (a, b), c in p.num.items():
        _sum_scale(out, dict(monomial_schubert(n, a, b)), c)
    if p.den != 1:
        out = {part: Fraction(c, p.den) for part, c in out.items()}
    return out


def schubert_degree(n: int, s: SchubertSum) -> int:
    """Coefficient of the point class sigma_(n,n)."""
    return s.get(Partition2(n, n), 0)


def schubert_pairing(n: int, s1: SchubertSum, s2: SchubertSum) -> int:
    """deg(s1 * s2) by Poincare duality, without forming the product.

    deg(sigma_(a,b) * sigma_mu) is 1 when mu = (n-b, n-a) and 0 otherwise.
    """
    get = s2.get
    return sum(c * get((n - b, n - a), 0) for (a, b), c in s1.items())


def giambelli(part: Partition2) -> WPoly:
    """sigma_(a,b) as a polynomial in (c1, c2): h_a*h_b - h_(a+1)*h_(b-1)."""
    a, b = part
    det = complete_symmetric(a) * complete_symmetric(b)
    if b >= 1:
        det = det - complete_symmetric(a + 1) * complete_symmetric(b - 1)
    return det


def giambelli_coords(ring: GRing, part: Partition2) -> tuple[int, ...]:
    """Quotient coordinates of ``giambelli(part)``, in integers.

    Each term pair c*x^e of h_a and d*x^f of h_b adds c*d times the integer
    reducer row of x^(e+f); no polynomial product is formed.
    """
    a, b = part
    reducer = ring.reducers[a + b]
    coords = [0] * ring.dim(a + b)
    for i, j, sign in ((a, b, 1), (a + 1, b - 1, -1)) if b else ((a, b, 1),):
        for (e1, e2), c in complete_symmetric(i).num.items():  # den 1: see build_ring
            for (f1, f2), d in complete_symmetric(j).num.items():
                coeff = sign * c * d
                for k, r in enumerate(reducer[(e1 + f1, e2 + f2)]):
                    coords[k] += coeff * r
    return tuple(coords)


# -- symmetric powers and the lines-on-a-cubic class -------------------------

_ROOT_VARS = ("r", "s")
_ROOT_WEIGHTS = (1, 1)


def _symmetric_reduce(p: WPoly) -> WPoly:
    """Rewrite a symmetric polynomial in the roots as a WPoly in (c1, c2)."""
    rest = p
    out = WPoly.zero()
    while not rest.is_zero():
        (i, j), c = max(rest.terms.items())
        if i < j:
            raise ValueError("input is not symmetric in the two roots")
        e1 = WPoly.variable("r", _ROOT_VARS, _ROOT_WEIGHTS) + WPoly.variable(
            "s", _ROOT_VARS, _ROOT_WEIGHTS
        )
        e2 = WPoly.monomial((1, 1), 1, _ROOT_VARS, _ROOT_WEIGHTS)
        out = out + WPoly.monomial((i - j, j), c)
        rest = rest - (e1 ** (i - j)) * (e2 ** j) * c
    return out


@lru_cache(maxsize=None)
def sym_power_chern(m: int) -> tuple[WPoly, ...]:
    """Total Chern class [c_0, ..., c_(m+1)] of Sym^m of a rank-2 bundle.

    Splitting principle: if the bundle has roots r, s then Sym^m has the
    m+1 roots i*r + j*s with i + j = m; each elementary symmetric function
    of those is rewritten in c1 = r + s, c2 = r*s.
    """
    if m < 1:
        raise ValueError("sym_power_chern needs m >= 1")
    r = WPoly.variable("r", _ROOT_VARS, _ROOT_WEIGHTS)
    s = WPoly.variable("s", _ROOT_VARS, _ROOT_WEIGHTS)
    roots = [r * i + s * (m - i) for i in range(m + 1)]
    elementary = [WPoly.constant(1, _ROOT_VARS, _ROOT_WEIGHTS)]
    for root in roots:
        nxt = [elementary[0]]
        for k in range(1, len(elementary) + 1):
            term = elementary[k] if k < len(elementary) else WPoly.zero(_ROOT_VARS, _ROOT_WEIGHTS)
            nxt.append(term + elementary[k - 1] * root)
        elementary = nxt
    return tuple(_symmetric_reduce(e) for e in elementary)


def fano_poly() -> WPoly:
    """18*x^2*y + 9*y^2, the class of the lines on a cubic inside the ring."""
    return WPoly({(2, 1): 18, (0, 2): 9})


def pairing(ring: GRing, k: int, weight: WPoly | None = None) -> MatQ:
    """deg(x_i * y_j * weight) between degree k and 2n - k - deg(weight).

    No weight means 1.  Each entry is sum c * reducers[2n][m_i + m_j + e][0]
    over the numerators c * x^e of the weight: one read of the top reducer
    per term, and any representative of the weight in the quotient will do.
    The entries are integers, divided by the weight's denominator when it is
    not 1.
    """
    weight = WPoly.constant(1) if weight is None else weight
    X._check(weight)
    terms, den = list(weight.num.items()), weight.den
    top = 2 * ring.n - weight.homogeneous_degree()
    if not 0 <= k <= top:
        raise UnsupportedRange(f"k must lie in 0..{top}")
    point = ring.reducers[2 * ring.n]
    right = ring.bases[top - k]
    rows = [
        [
            sum(c * point[(a1 + a2 + e1, b1 + b2 + e2)][0] for (e1, e2), c in terms)
            for a2, b2 in right
        ]
        for a1, b1 in ring.bases[k]
    ]
    if den != 1:
        rows = [[Fraction(x, den) for x in row] for row in rows]
    return MatQ.from_rows(rows, cols=len(right))
