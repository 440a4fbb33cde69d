"""Hodge diamonds, E-polynomials, and the Hilbert-square decomposition.

Hodge numbers of a smooth cubic hypersurface of dimension n come from the
Jacobian-ring count (the primitive middle-degree piece has
h^(n-q, q) = binom(n+2, 3q+1-n), the Hilbert function (1+t)^(n+2) of the
ring of a cubic evaluated in the Griffiths degrees); everything downstream
is bookkeeping with bigraded multiplicity tables.

The unsigned :class:`HodgeDiamond`, a ``wpoly.SparseSum`` of integer
multiplicities (``den`` 1), is the only representation.  Every diamond here
is pure, so an entry is keyed by its Hodge type (p, q) alone and sits in
degree p + q.  The signed E-polynomial sum (-1)^(p+q) h^(p,q) u^p v^q
carries nothing the diamond lacks: it exists only as the text of a diamond
(``str``), and degree parity is never reconstructed from signs.  Multiplying
by E(P^m) is a sum of Tate shifts (``times_projective``), so the chain

    E(Hilb^2 X) = E(Sym^2 X) + (sum_(k=1)^(n-1) (uv)^k) * E(X)
    E(F) = (E(Hilb^2 X) - E(X) * E(P^n)) / (uv)^2

runs on diamonds and recovers the cohomology of the variety of lines F
exactly.  ``fano_hodge_decomposition`` then peels off the symmetric square
of the primitive middle cohomology and its n-1 Tate shifts, leaving pure
(k, k) Tate multiplicities.  That E(F) is a genuine diamond of dimension
2(n-2) is the ``hodge.decomposition_closes`` row's fact alone: a broken one
leaves a negative, out-of-range or non-Tate entry that the peeling refuses.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping

from .errors import CheckFailed, UnsupportedRange, exact
from .wpoly import SparseSum, format_monomial

Entry = tuple[int, int]  # the Hodge type (p, q), in degree p + q


class HodgeDiamond(SparseSum):
    """Multiplicity table (p, q) -> integer; zero entries are dropped.

    A sparse sum with ``den`` 1 and no context; ``entries`` is ``num``.
    Keys are Hodge types, pairs of ``int``, and (p, q) sits in degree
    p + q; intermediate bookkeeping may hold negative multiplicities.  The
    text is the E-polynomial sum (-1)^(p+q) h^(p,q) u^p v^q, highest degree
    first.
    """

    __slots__ = ()

    def __new__(cls, entries: Mapping[Entry, int] | None = None):
        for key, m in (entries or {}).items():
            if type(key) is not tuple or len(key) != 2:
                raise ValueError(f"entry key {key!r} is not a Hodge type (p, q)")
            if not all(type(e) is int for e in key):  # a bool too
                raise TypeError(f"entry keys must be int, not {key!r}")
            if exact(m).denominator != 1:
                raise ValueError(f"entry {key} has multiplicity {m}, not an integer")
        return cls._exact(None, entries)

    entries = SparseSum.num  # read-only, like ``num``

    def scale(self, c: int) -> "HodgeDiamond":
        if exact(c).denominator != 1:
            raise ValueError(f"a diamond scales by integers only, not by {c}")
        return super().scale(c)

    def get(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def betti(self, k: int) -> int:
        return sum(m for (p, q), m in self.entries.items() if p + q == k)

    def euler(self) -> int:
        return sum(-m if (p + q) % 2 else m for (p, q), m in self.entries.items())

    def max_degree(self) -> int:
        return max((p + q for (p, q) in self.entries), default=0)

    def shift(self, t: int) -> "HodgeDiamond":
        """Tate-type shift: type (p, q) -> (p+t, q+t), degree up by 2t."""
        if type(t) is not int:  # a bool too
            raise TypeError(f"shift needs an int t, not {t!r}")
        return self._reduced(None, {(p + t, q + t): m for (p, q), m in self.entries.items()}, 1)

    @staticmethod
    def _sort_key(key: Entry) -> Entry:
        return -sum(key), -key[0]  # degree p + q, then p, both descending

    @staticmethod
    def _format_term(key: Entry, m: int) -> tuple[str, int]:
        return format_monomial(("u", "v"), key), -m if sum(key) % 2 else m


# -- the cubic hypersurface ---------------------------------------------------


def primitive_hodge_numbers(n: int) -> dict[tuple[int, int], int]:
    """Primitive middle-degree Hodge numbers h^(n-q, q) of a cubic n-fold."""
    if type(n) is not int:  # a bool too
        raise TypeError(f"primitive_hodge_numbers needs an int n, not {n!r}")
    out = {}
    for q in range(n + 1):
        m = comb(n + 2, 3 * q + 1 - n) if 0 <= 3 * q + 1 - n <= n + 2 else 0
        if m:
            out[(n - q, q)] = m
    return out


# the caches keyed by n alone keep one n (maxsize=1): verify runs n by n (cli.run)
@lru_cache(maxsize=1)
def hodge_cubic(n: int) -> HodgeDiamond:
    """Hodge diamond of a smooth cubic hypersurface of dimension n."""
    if type(n) is not int:  # a bool too
        raise TypeError(f"hodge_cubic needs an int n, not {n!r}")
    if n < 1:
        raise UnsupportedRange("hodge_cubic needs n >= 1")
    entries = dict.fromkeys(((i, i) for i in range(n + 1)), 1)
    for key, m in primitive_hodge_numbers(n).items():
        entries[key] = entries.get(key, 0) + m
    return HodgeDiamond(entries)


def primitive_middle(n: int) -> HodgeDiamond:
    """Primitive middle cohomology with a (1,1) twist; pure of degree n-2."""
    if type(n) is not int:  # a bool too
        raise TypeError(f"primitive_middle needs an int n, not {n!r}")
    if n < 2:
        raise UnsupportedRange("primitive_middle needs n >= 2")
    return HodgeDiamond({(p - 1, q - 1): m for (p, q), m in primitive_hodge_numbers(n).items()})


def euler_cubic(n: int) -> int:
    """Euler characteristic: 3 * [h^n] of (1+h)^(n+2) / (1+3h), exactly.

    The Chern route only: the ``hodge.euler_consistency`` row compares it
    with the alternating Betti sum of ``hodge_cubic(n)``, and the D * D rule
    of ``diagonal.XXClass`` reads it.
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"euler_cubic needs an int n, not {n!r}")
    if n < 1:
        raise UnsupportedRange("euler_cubic needs n >= 1")
    return 3 * sum(comb(n + 2, n - j) * (-3) ** j for j in range(n + 1))


# -- symmetric squares and the Hilbert square ---------------------------------


def sym2_diamond(diamond: HodgeDiamond) -> HodgeDiamond:
    """Graded symmetric square of a bigraded multiplicity table.

    Each unordered pair of entries is met once.  Two distinct entries give
    their tensor product, m1 * m2; an entry paired with itself gives its
    symmetric square m(m+1)/2 in even degree and its alternating square
    m(m-1)/2 in odd degree (super convention).
    """
    items = list(diamond.entries.items())
    out: dict[Entry, int] = {}
    for i, ((p1, q1), m1) in enumerate(items):
        key = (2 * p1, 2 * q1)
        out[key] = out.get(key, 0) + m1 * (m1 - 1 if (p1 + q1) % 2 else m1 + 1) // 2
        for (p2, q2), m2 in items[i + 1:]:
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + m1 * m2
    return HodgeDiamond(out)


def times_projective(d: HodgeDiamond, m: int) -> HodgeDiamond:
    """Diamond of d x P^m: the sum of the shifts d.shift(t), 0 <= t <= m.

    Every shifted entry is added into one table, in one pass.
    """
    if type(m) is not int:  # a bool too
        raise TypeError(f"times_projective needs an int m, not {m!r}")
    out: dict[Entry, int] = {}
    for (p, q), c in d.entries.items():
        for t in range(m + 1):
            key = (p + t, q + t)
            out[key] = out.get(key, 0) + c
    return HodgeDiamond._reduced(None, out, 1)


@lru_cache(maxsize=1)
def hilb2_diamond(n: int) -> HodgeDiamond:
    """Diamond of the Hilbert square of the cubic.

    Blow-up of Sym^2 X along the diagonal: the exceptional P^(n-1)-bundle
    contributes sum_(k=1)^(n-1) X(-k) on top of Sym^2 X.
    """
    x = hodge_cubic(n)
    return sym2_diamond(x) + times_projective(x, n - 2).shift(1)


@lru_cache(maxsize=1)
def fano_diamond(n: int) -> HodgeDiamond:
    """Diamond of the variety of lines: (uv)^2 * E(F) = E(Hilb^2 X) - E(X) * E(P^n).

    Unchecked: that it is a genuine diamond of dimension 2(n-2) is the
    ``hodge.decomposition_closes`` row's fact.  The top entry (27 at n = 2,
    one per point of F, and 1 above) is ``hodge.fano_dimension``'s.
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"fano_diamond needs an int n, not {n!r}")
    if n < 2:
        raise UnsupportedRange("fano_diamond needs n >= 2")
    return (hilb2_diamond(n) - times_projective(hodge_cubic(n), n)).shift(-2)


@lru_cache(maxsize=1)
def fano_hodge_decomposition(n: int) -> tuple[int, ...]:
    """Tate multiplicities a_0..a_(2(n-2)) left after peeling the middle piece.

    Subtracts from the diamond of F the graded symmetric square of the
    twisted primitive middle cohomology H and its shifts H(-k) for
    0 <= k <= n-2 (sitting in degrees n-2+2k); the remainder must consist
    of nonnegative (k, k)-classes only.  Positivity of every a_k is *not*
    enforced: the computation yields a_1 = 0 at n = 3.
    """
    middle = primitive_middle(n)
    accounted = sym2_diamond(middle) + times_projective(middle, n - 2)
    remainder = fano_diamond(n) - accounted
    top = 2 * (n - 2)
    values = [0] * (top + 1)
    for (p, q), m in remainder.entries.items():
        if p != q or not 0 <= p <= top or m < 0:
            raise CheckFailed(
                f"remainder has non-Tate or negative entry ({p + q},{p},{q})={m} at n={n}"
            )
        values[p] = m
    return tuple(values)
