"""Hodge diamonds, E-polynomials, and the Hilbert-square decomposition.

Hodge numbers of a smooth cubic hypersurface of dimension n come from the
Jacobian-ring count (the primitive middle-degree piece has
h^(n-q, q) = binom(n+2, 3q+1-n), the Hilbert function (1+t)^(n+2) of the
ring of a cubic evaluated in the Griffiths degrees); everything downstream
is bookkeeping with bigraded multiplicity tables.

The unsigned :class:`HodgeDiamond`, a ``wpoly.SparseSum`` of integer
multiplicities (``den`` 1), is the only representation.  Every diamond here
is pure (p + q = k), so the signed E-polynomial
sum (-1)^k h^(p,q)(H^k) u^p v^q carries nothing the diamond lacks: it exists
only as the text of a diamond (``str``), and degree parity is never
reconstructed from signs.  Multiplying by E(P^m) is a sum of Tate shifts
(``times_projective``), so the chain

    E(Hilb^2 X) = E(Sym^2 X) + (sum_(k=1)^(n-1) (uv)^k) * E(X)
    E(F) = (E(Hilb^2 X) - E(X) * E(P^n)) / (uv)^2

runs on diamonds and recovers the cohomology of the variety of lines F
exactly; the division must be exact and the result must be a genuine
diamond of dimension 2(n-2).  ``fano_hodge_decomposition`` then peels off
the symmetric square of the primitive middle cohomology and its n-1 Tate
shifts, leaving pure (k, k) Tate multiplicities.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping

from .errors import CheckFailed, NonIntegralResult, UnsupportedRange, exact
from .fano import taut_rank_F
from .wpoly import SparseSum, format_monomial

Entry = tuple[int, int, int]  # (cohomological degree k, p, q) with p + q = k


class HodgeDiamond(SparseSum):
    """Multiplicity table (k, p, q) -> integer; zero entries are dropped.

    A sparse sum with ``den`` 1 and no context; ``entries`` is ``num``.
    Intermediate bookkeeping may hold negative multiplicities; diamonds of
    actual varieties are validated with :meth:`is_effective`.  The text is
    the E-polynomial sum (-1)^k h^(p,q)(H^k) u^p v^q, highest degree first.
    """

    __slots__ = ()

    def __new__(cls, entries: Mapping[Entry, int] | None = None):
        for (k, p, q), m in (entries or {}).items():
            if p + q != k:
                raise ValueError(f"entry ({k},{p},{q}) violates p + q = k")
            if exact(m).denominator != 1:
                raise ValueError(f"entry ({k},{p},{q}) has multiplicity {m}, not an integer")
        return cls._exact(None, entries)

    entries = SparseSum.num  # read-only, like ``num``

    def scale(self, c: int) -> "HodgeDiamond":
        if exact(c).denominator != 1:
            raise ValueError(f"a diamond scales by integers only, not by {c}")
        return super().scale(c)

    def get(self, k: int, p: int, q: int) -> int:
        return self.entries.get((k, p, q), 0)

    def betti(self, k: int) -> int:
        return sum(m for (kk, _, _), m in self.entries.items() if kk == k)

    def euler(self) -> int:
        return sum((-1) ** k * m for (k, _, _), m in self.entries.items())

    def max_degree(self) -> int:
        return max((k for (k, _, _) in self.entries), default=0)

    def shift(self, t: int) -> "HodgeDiamond":
        """Tate-type shift: degree k -> k + 2t, type (p, q) -> (p+t, q+t)."""
        return self._reduced(
            None, {(k + 2 * t, p + t, q + t): m for (k, p, q), m in self.entries.items()}, 1
        )

    def is_effective(self) -> bool:
        return all(m > 0 for m in self.entries.values())

    def is_symmetric(self) -> bool:
        return all(self.get(k, q, p) == m for (k, p, q), m in self.entries.items())

    @staticmethod
    def _sort_key(key: Entry) -> Entry:
        return tuple(-e for e in key)

    @staticmethod
    def _format_term(key: Entry, m: int) -> tuple[str, int]:
        k, p, q = key
        return format_monomial(("u", "v"), (p, q)), (-1) ** k * m


# -- the cubic hypersurface ---------------------------------------------------


def primitive_hodge_numbers(n: int) -> dict[tuple[int, int], int]:
    """Primitive middle-degree Hodge numbers h^(n-q, q) of a cubic n-fold."""
    out = {}
    for q in range(n + 1):
        m = comb(n + 2, 3 * q + 1 - n) if 0 <= 3 * q + 1 - n <= n + 2 else 0
        if m:
            out[(n - q, q)] = m
    return out


@lru_cache(maxsize=None)
def hodge_cubic(n: int) -> HodgeDiamond:
    """Hodge diamond of a smooth cubic hypersurface of dimension n."""
    if n < 1:
        raise UnsupportedRange("hodge_cubic needs n >= 1")
    entries: dict[Entry, int] = {}
    for k in range(0, 2 * n + 1, 2):
        entries[(k, k // 2, k // 2)] = 1
    for (p, q), m in primitive_hodge_numbers(n).items():
        key = (n, p, q)
        entries[key] = entries.get(key, 0) + m
    return HodgeDiamond(entries)


@lru_cache(maxsize=None)
def primitive_middle(n: int) -> HodgeDiamond:
    """Primitive middle cohomology with a (1,1) twist; pure of degree n-2."""
    if n < 2:
        raise UnsupportedRange("primitive_middle needs n >= 2")
    return HodgeDiamond(
        {(n - 2, p - 1, q - 1): m for (p, q), m in primitive_hodge_numbers(n).items()}
    )


@lru_cache(maxsize=None)
def euler_cubic(n: int) -> int:
    """Euler characteristic: 3 * [h^n] of (1+h)^(n+2) / (1+3h), exactly.

    Cross-checked against the alternating Betti sum of the Hodge diamond;
    a mismatch raises :class:`CheckFailed`.
    """
    if n < 1:
        raise UnsupportedRange("euler_cubic needs n >= 1")
    coeff = sum(comb(n + 2, n - j) * (-3) ** j for j in range(n + 1))
    chi = 3 * coeff
    betti_sum = hodge_cubic(n).euler()
    if chi != betti_sum:
        raise CheckFailed(
            f"euler mismatch at n={n}: chern route {chi}, betti route {betti_sum}"
        )
    return chi


# -- symmetric squares and the Hilbert square ---------------------------------


def sym2_diamond(diamond: HodgeDiamond) -> HodgeDiamond:
    """Graded symmetric square of a bigraded multiplicity table.

    Distinct degrees contribute their tensor product once; equal even
    degrees the honest symmetric square, equal odd degrees the alternating
    square (super convention).
    """
    items = sorted(diamond.entries.items())
    out: dict[Entry, int] = {}

    def bump(key: Entry, m: int) -> None:
        out[key] = out.get(key, 0) + m

    degrees = sorted({k for (k, _, _) in diamond.entries})
    by_degree = {
        k: [((p, q), m) for (kk, p, q), m in items if kk == k] for k in degrees
    }
    for i, k1 in enumerate(degrees):
        for k2 in degrees[i:]:
            if k1 < k2:
                for (p1, q1), m1 in by_degree[k1]:
                    for (p2, q2), m2 in by_degree[k2]:
                        bump((k1 + k2, p1 + p2, q1 + q2), m1 * m2)
            else:
                pieces = by_degree[k1]
                sign = (-1) ** k1
                for a, ((p1, q1), m1) in enumerate(pieces):
                    for (p2, q2), m2 in pieces[a:]:
                        key = (2 * k1, p1 + p2, q1 + q2)
                        if (p1, q1) == (p2, q2):
                            # diagonal block: d(d+1)/2 or d(d-1)/2
                            bump(key, m1 * (m1 + sign) // 2)
                        else:
                            bump(key, m1 * m2)
    return HodgeDiamond(out)


def times_projective(d: HodgeDiamond, m: int) -> HodgeDiamond:
    """Diamond of d x P^m: the sum of the shifts d.shift(t), 0 <= t <= m."""
    return sum((d.shift(t) for t in range(m + 1)), HodgeDiamond())


@lru_cache(maxsize=None)
def hilb2_diamond(n: int) -> HodgeDiamond:
    """Diamond of the Hilbert square of the cubic.

    Blow-up of Sym^2 X along the diagonal: the exceptional P^(n-1)-bundle
    contributes sum_(k=1)^(n-1) X(-k) on top of Sym^2 X.
    """
    if n < 1:
        raise UnsupportedRange("hilb2_diamond needs n >= 1")
    x = hodge_cubic(n)
    return sym2_diamond(x) + times_projective(x, n - 2).shift(1)


@lru_cache(maxsize=None)
def fano_diamond(n: int) -> HodgeDiamond:
    """Diamond of the variety of lines, from the Hilbert-square relation.

    (uv)^2 * E(F) = E(Hilb^2 X) - E(X) * E(P^n).  The division must be exact
    (:class:`NonIntegralResult` otherwise) and the result must be a genuine
    diamond of dimension 2(n-2): nonnegative entries, and the top entry is
    1 for n >= 3 (for n = 2 it is 27, one per point of F).
    """
    if n < 2:
        raise UnsupportedRange("fano_diamond needs n >= 2")
    numerator = hilb2_diamond(n) - times_projective(hodge_cubic(n), n)
    if any(p < 2 or q < 2 for (_, p, q) in numerator.entries):
        raise NonIntegralResult(f"(uv)^2 does not divide the numerator at n={n}")
    diamond = numerator.shift(-2)
    dim = 2 * (n - 2)
    for (_, p, q), m in diamond.entries.items():
        if m < 0:
            raise CheckFailed(f"negative multiplicity at (p,q)=({p},{q}) for n={n}")
        if p > dim or q > dim:
            raise CheckFailed(f"entry ({p},{q}) beyond dimension {dim} for n={n}")
    top = diamond.get(2 * dim, dim, dim)
    expected_top = 27 if n == 2 else 1
    if top != expected_top:
        raise CheckFailed(f"top coefficient {top} != {expected_top} at n={n}")
    if not diamond.is_effective() or not diamond.is_symmetric():
        raise CheckFailed(f"invalid diamond for the variety of lines at n={n}")
    return diamond


@lru_cache(maxsize=None)
def fano_hodge_decomposition(n: int) -> tuple[int, ...]:
    """Tate multiplicities a_0..a_(2(n-2)) left after peeling the middle piece.

    Subtracts from the diamond of F the graded symmetric square of the
    twisted primitive middle cohomology H and its shifts H(-k) for
    0 <= k <= n-2 (sitting in degrees n-2+2k); the remainder must consist
    of nonnegative (k, k)-classes only.  Positivity of every a_k is *not*
    enforced: the computation yields a_1 = 0 at n = 3.
    """
    if n < 2:
        raise UnsupportedRange("fano_hodge_decomposition needs n >= 2")
    middle = primitive_middle(n)
    accounted = sym2_diamond(middle) + times_projective(middle, n - 2)
    remainder = fano_diamond(n) - accounted
    top = 2 * (n - 2)
    values = [0] * (top + 1)
    for (k, p, q), m in remainder.entries.items():
        if p != q or k != 2 * p or not 0 <= p <= top or m < 0:
            raise CheckFailed(
                f"remainder has non-Tate or negative entry ({k},{p},{q})={m} at n={n}"
            )
        values[p] = m
    return tuple(values)


def taut_rank_FX(n: int, k: int) -> int:
    """Graded rank of the tautological ring of F x X.

    Decomposable part: convolution of the F-ranks with rank R^b(X) = 1 for
    0 <= b <= n; plus one in each degree hit by the universal-line class
    (codimension n-1) times powers c1^0..c1^(n-2).
    """
    if n < 3:
        raise UnsupportedRange("taut_rank_FX needs n >= 3")
    if k < 0:
        raise UnsupportedRange("k must be nonnegative")
    top_f = 2 * (n - 2)
    total = 0
    for a in range(0, min(k, top_f) + 1):
        b = k - a
        if 0 <= b <= n:
            total += taut_rank_F(n, a)
    if 0 <= k - (n - 1) <= n - 2:
        total += 1
    return total
