"""Finite tautological models of X^2 and X^3 with diagonal classes.

X is a cubic hypersurface of dimension n with hyperplane class h,
deg h^n = 3.  The Chow-side models close multiplication on explicit bases:

* ``XXClass`` on {h1^r h2^s : r, s <= n} plus the diagonal D, with
  D * (h1^s h2^t) = (1/3) * sum_(a+b=n+s+t) h1^a h2^b   (s + t >= 1)
  D * D = (chi/9) * h1^n h2^n
  (push-pull through the ambient projective space; the diagonal
  self-intersection is pinned by the top Chern class of the tangent
  bundle, (chi/3) h^n);
* ``X3Class`` on monomials, decorated diagonals D_ab * h_c^m, and the
  small diagonal D3 = D12 * D23, with the rules pulled back factor-wise
  and D3 * (h-monomial of degree m) = (1/9) * sum_(p+q+r=2n+m) h1^p h2^q h3^r.

The cohomological twins replace each diagonal by its Kunneth expansion
(1/3) * sum_j h_a^j h_b^(n-j) + d_ab, where d_ab is the projector onto the
primitive middle cohomology; primitive classes are killed by h, and
contractions follow d_ab * d_bc = (1/3) h_b^n d_ac (no sign bookkeeping:
the projector law is verified, not assumed).  Same-pair products d * d
never arise on X^3 and are rejected.

Every class is a ``wpoly.SparseSum`` over n: integer numerators over one
denominator.  A model adds its key shapes, which its constructor checks, and
``_term_mul``, numerators over the rule denominator ``_DEN`` (27 for X3Class,
9 for XXClass and CohXXClass, 3 for CohX3Class), so a product is reduced
once, by one gcd.  ``Fraction`` appears only at the edge: coefficients,
degrees, pairings and text.

Degrees on X^3 are read off by Poincare duality: ``x3_pair(a, b)`` and
``coh_pair(a, b)`` sum only the term pairs whose codimensions add up to 3n,
without forming the product a * b.  Each takes only its own model's classes
(``X3Class`` and ``CohX3Class``) and raises ``ValueError`` on any other.

On top of the models: the decomposable coefficients of the small diagonal
after removing its axis corrections, the vanishing of the resulting
defect cycle, and the symbolic evaluator showing that the product of two
positive-codimension cycle classes is (1/9) * m_alpha * m_beta * h^(i+j),
a rank-1 image, on integers: the decomposable table is numerators over one
denominator, and ``cycle_product`` returns a ``FormalCycle`` (a cycle on X:
codimension i + j and moment m_alpha * m_beta / 3, held as num / den).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Mapping

from .errors import CheckFailed, UnsupportedRange, exact
from .hodge import euler_cubic, hodge_cubic
from .wpoly import Frozen, SparseSum, format_monomial

Key = tuple

PAIRS = ((1, 2), (1, 3), (2, 3))


def _third(a: int, b: int) -> int:
    return 6 - a - b


def primitive_dim(n: int) -> int:
    """Dimension of the primitive middle cohomology of the cubic."""
    return hodge_cubic(n).betti(n) - (1 if n % 2 == 0 else 0)


def primitive_self_pairing(n: int) -> int:
    """Integral of d * d on X^2: the signed trace chi - (n + 1)."""
    return euler_cubic(n) - (n + 1)


# -- shared formal-sum plumbing ------------------------------------------------


class _FormalSum(SparseSum):
    """Linear combination of basis keys of one model; ``ctx`` is the dimension n.

    A model adds its term product ``_term_mul`` over ``_DEN`` and its key
    shapes ``_KEYS``: tag -> number of ``int`` fields, the first two a pair
    from ``PAIRS`` for a tag other than ``MONO``.
    """

    __slots__ = ()
    _CONTEXT = "models"

    def __new__(cls, n: int, terms: Mapping[Key, Fraction | int] | None = None):
        for key in terms or {}:
            cls._check_key(n, key)
        return cls._exact(n, terms)

    @classmethod
    def _check_key(cls, n: int, key) -> None:
        """``TypeError`` for a non-``int`` entry; ``ValueError`` for any other bad key."""
        fields = cls._KEYS.get(key[0]) if isinstance(key, tuple) and key else None
        if fields is None or len(key) != 1 + fields:
            raise ValueError(f"{key!r} is not a key of {cls.__name__}")
        body = key[1:]
        if not all(isinstance(e, int) for e in body):
            raise TypeError(f"key entries must be int, not {key!r}")
        if key[0] != MONO and body:
            if body[:2] not in PAIRS:
                raise ValueError("diagonal pair must be one of (1,2), (1,3), (2,3)")
            body = body[2:]
        if not all(0 <= e <= n for e in body):
            raise ValueError(f"exponents of {key!r} out of the model range 0..{n}")

    n = SparseSum.ctx  # read-only, like ``ctx``

    def __mul__(self, other):
        self._check(other)
        term_mul = self._term_mul
        right = other.num.items()
        out: dict[Key, int] = {}
        for k1, c1 in self.num.items():
            for k2, c2 in right:
                product = term_mul(k1, k2)
                if product:
                    c12 = c1 * c2
                    for key, c in product.items():
                        out[key] = out.get(key, 0) + c12 * c
        return self._reduced(self.ctx, out, self.den * other.den * self._DEN)

    def _format_term(self, key: Key, c):
        return self._format_key(key), c


_H_NAMES = ("h1", "h2", "h3")  # the hyperplane class on each factor


# -- X x X: Chow model and cohomological twin -----------------------------------

MONO = "m"
DIAG = "D"
PRIM = "d"
SMALL = "D3"


def _mono2_mul(n: int, k1: Key, k2: Key, one: int) -> dict[Key, int]:
    """h1^r1 h2^s1 * h1^r2 h2^s2 on X^2 (unit numerator ``one``); zero above n."""
    r = k1[1] + k2[1]
    s = k1[2] + k2[2]
    if r > n or s > n:
        return {}
    return {(MONO, r, s): one}


def _mono3_mul(n: int, k1: Key, k2: Key, one: int) -> dict[Key, int]:
    """The same product of monomials on X^3."""
    i = k1[1] + k2[1]
    j = k1[2] + k2[2]
    k = k1[3] + k2[3]
    if i > n or j > n or k > n:
        return {}
    return {(MONO, i, j, k): one}


class XXClass(_FormalSum):
    """Chow model of X x X on {h1^r h2^s} and the diagonal ("D",)."""
    _DEN = 9
    _KEYS = {MONO: 2, DIAG: 0}

    def _term_mul(self, k1, k2):
        n = self.n
        if k1[0] == DIAG and k2[0] == DIAG:
            return {(MONO, n, n): euler_cubic(n)}
        if k1[0] == DIAG or k2[0] == DIAG:
            mono = k2 if k1[0] == DIAG else k1
            _, r, s = mono
            if r + s == 0:
                return {(DIAG,): 9}
            return {
                (MONO, a, n + r + s - a): 3
                for a in range(max(0, r + s), n + 1)
                if n + r + s - a <= n
            }
        return _mono2_mul(n, k1, k2, 9)

    @staticmethod
    def _sort_key(key):
        if key[0] == MONO:
            return (0, key[1] + key[2], -key[1], -key[2])
        return (1,)

    @staticmethod
    def _format_key(key):
        if key[0] == MONO:
            return format_monomial(_H_NAMES, key[1:])
        return "D"


def xx_monomial(n: int, r: int, s: int, coeff=1) -> XXClass:
    return XXClass(n, {(MONO, r, s): coeff})


def xx_diagonal(n: int) -> XXClass:
    return XXClass(n, {(DIAG,): 1})


def xx_degree(a: XXClass) -> Fraction:
    """Integral of the codimension-2n piece; deg(h1^n h2^n) = 9."""
    return 9 * a.coefficient((MONO, a.n, a.n))


def xx_basis(n: int) -> list[Key]:
    keys: list[Key] = [(MONO, r, s) for r in range(n + 1) for s in range(n + 1)]
    keys.append((DIAG,))
    return keys


class CohXXClass(_FormalSum):
    """Cohomological twin: monomials plus the primitive projector ("d",)."""
    _DEN = 9
    _KEYS = {MONO: 2, PRIM: 0}

    def _term_mul(self, k1, k2):
        n = self.n
        if k1[0] == PRIM and k2[0] == PRIM:
            return {(MONO, n, n): primitive_self_pairing(n)}
        if k1[0] == PRIM or k2[0] == PRIM:
            mono = k2 if k1[0] == PRIM else k1
            _, r, s = mono
            if r == s == 0:
                return {(PRIM,): 9}
            return {}  # primitive classes are killed by h
        return _mono2_mul(n, k1, k2, 9)

    _sort_key = staticmethod(XXClass._sort_key)

    @staticmethod
    def _format_key(key):
        if key[0] == MONO:
            return format_monomial(_H_NAMES, key[1:])
        return "d"


def xx_diagonal_expansion(n: int) -> CohXXClass:
    """Kunneth expansion (1/3) sum_j h1^j h2^(n-j) + d of the diagonal."""
    num = {(MONO, j, n - j): 1 for j in range(n + 1)}
    num[(PRIM,)] = 3
    return CohXXClass._reduced(n, num, 3)


def xx_to_coh(a: XXClass) -> CohXXClass:
    """Cycle-class map of the model: the diagonal goes to its Kunneth expansion.

    The expansion has denominator 3, so the image is taken over 3 * a.den.
    """
    out: dict[Key, int] = {}
    for key, c in a.num.items():
        if key[0] == MONO:
            out[key] = out.get(key, 0) + 3 * c
        else:
            for k, v in xx_diagonal_expansion(a.n).num.items():
                out[k] = out.get(k, 0) + c * v
    return CohXXClass._reduced(a.n, out, 3 * a.den)


# -- X^3: Chow model and cohomological twin --------------------------------------


def _delta_push(n: int, m: int) -> dict[Key, int]:
    """Small-diagonal pushforward of h^m: (1/9) sum over p+q+r = 2n+m, over 27."""
    out: dict[Key, int] = {}
    total = 2 * n + m
    for p in range(max(0, total - 2 * n), n + 1):
        for q in range(max(0, total - n - p), min(n, total - p) + 1):
            out[(MONO, p, q, total - p - q)] = 3
    return out


class X3Class(_FormalSum):
    """Chow model of X^3: monomials, decorated diagonals, small diagonal.

    Keys: ("m", i, j, k); ("D", a, b, m) for the diagonal in slots (a, b)
    times h_c^m on the remaining slot; ("D3",).
    """
    _DEN = 27
    _KEYS = {MONO: 3, DIAG: 3, SMALL: 0}

    def _term_mul(self, k1, k2):
        n = self.n
        if k1[0] == MONO:
            if k2[0] == MONO:
                return _mono3_mul(n, k1, k2, 27)
            k1, k2 = k2, k1
        if k2[0] == MONO:  # k2[a] is the exponent of slot a
            if k1[0] == SMALL:
                m = k2[1] + k2[2] + k2[3]
                if m == 0:
                    return {(SMALL,): 27}
                return _delta_push(n, m)
            _, a, b, m = k1
            c = _third(a, b)
            s, t, u = k2[a], k2[b], k2[c]
            if s + t == 0:
                if m + u > n:
                    return {}
                return {(DIAG, a, b, m + u): 27}
            if m + u > n:
                return {}
            out: dict[Key, int] = {}
            for p in range(max(0, s + t), n + 1):
                q = n + s + t - p
                if 0 <= q <= n:
                    slots = {a: p, b: q, c: m + u}
                    out[(MONO, slots[1], slots[2], slots[3])] = 9
            return out
        if k1[0] == SMALL and k2[0] == SMALL:
            return {}  # codimension 4n > 3n
        if k1[0] == SMALL or k2[0] == SMALL:
            diag = k2 if k1[0] == SMALL else k1
            _, a, b, m = diag
            if m > 0:
                return {}  # (chi/3) h^n inserted; any extra h dies above degree n
            return {(MONO, n, n, n): euler_cubic(n)}
        _, a1, b1, m1 = k1
        _, a2, b2, m2 = k2
        if (a1, b1) == (a2, b2):
            # pulled-back diagonal self-intersection, decorations multiply
            if m1 + m2 > n:
                return {}
            c = _third(a1, b1)
            slots = {a1: n, b1: n, c: m1 + m2}
            return {(MONO, slots[1], slots[2], slots[3]): 3 * euler_cubic(n)}
        # distinct diagonals meet in the small diagonal; decorations pile onto it
        if m1 + m2 == 0:
            return {(SMALL,): 27}
        return _delta_push(n, m1 + m2)

    @staticmethod
    def _sort_key(key):
        if key[0] == MONO:
            return (0, key[1] + key[2] + key[3], tuple(-e for e in key[1:]))
        if key[0] == DIAG:
            return (1, key[1:])
        return (2,)

    @staticmethod
    def _format_key(key):
        if key[0] == MONO:
            return format_monomial(_H_NAMES, key[1:])
        if key[0] == DIAG:
            _, a, b, m = key
            tail = format_monomial((f"h{_third(a, b)}",), (m,))
            return f"D{a}{b}" + (f"*{tail}" if tail else "")
        return "D3"


def x3_monomial(n: int, i: int, j: int, k: int, coeff=1) -> X3Class:
    # the constructor's key check, then _reduced: its coefficient pass would add
    # 1-2 us to each of the 2 924 calls of a 1..24 diagonal run
    key = (MONO, i, j, k)
    X3Class._check_key(n, key)
    c = exact(coeff)
    return X3Class._reduced(n, {key: c.numerator}, c.denominator)


def x3_diagonal(n: int, a: int, b: int, m: int = 0, coeff=1) -> X3Class:
    return X3Class(n, {(DIAG, a, b, m): coeff})


def x3_small_diagonal(n: int, coeff=1) -> X3Class:
    return X3Class(n, {(SMALL,): coeff})


def x3_degree(a: X3Class) -> Fraction:
    """Integral of the codimension-3n piece; deg(h1^n h2^n h3^n) = 27."""
    return 27 * a.coefficient((MONO, a.n, a.n, a.n))


def x3_pair(a: X3Class, b: X3Class) -> Fraction:
    """deg(a * b), read off by Poincare duality without forming the product.

    The model is graded (a key has codimension i + j + k, n + m or 2n) and
    only the (n, n, n) entry of the product is read, so each term of the
    smaller operand meets few terms of the larger one.  A monomial of
    degree d meets its complementary monomial (one lookup, value one), the
    decorated diagonals D_ab * h_c^(2n - d) and, for d = n, D3; a diagonal
    term meets every term.  The diagonal pairs go through
    ``X3Class._term_mul``, so the product rules stay in one place; its
    numerators are over 27 = deg(h1^n h2^n h3^n), so they are the degrees.
    """
    if type(a) is not X3Class:
        raise ValueError("x3_pair pairs X3Class classes only")
    a._check(b)
    if len(a.num) < len(b.num):
        a, b = b, a
    n = a.n
    top = (MONO, n, n, n)
    big = a.num
    term_mul = a._term_mul
    total = 0
    for k2, c2 in b.num.items():
        if k2[0] == MONO:
            _, i, j, k = k2
            c1 = big.get((MONO, n - i, n - j, n - k))
            if c1 is not None:
                total += 27 * c1 * c2
            m = 2 * n - i - j - k
            if not 0 <= m <= n:
                continue
            partners = [(DIAG, p, q, m) for p, q in PAIRS]
            if m == n:
                partners.append((SMALL,))
        else:
            partners = big
        for k1 in partners:
            c1 = big.get(k1)
            if c1 is not None:
                v = term_mul(k1, k2).get(top)
                if v is not None:
                    total += c1 * c2 * v
    return Fraction(total, a.den * b.den)


class CohX3Class(_FormalSum):
    """Cohomological model: monomials plus primitive projectors d_ab * h_c^m."""
    _DEN = 3
    _KEYS = {MONO: 3, PRIM: 3}

    def _term_mul(self, k1, k2):
        n = self.n
        if k1[0] == MONO:
            if k2[0] == MONO:
                return _mono3_mul(n, k1, k2, 3)
            k1, k2 = k2, k1
        if k2[0] == MONO:  # k2[a] is the exponent of slot a
            _, a, b, m = k1
            if k2[a] or k2[b]:
                return {}  # primitive slots are killed by h
            m += k2[_third(a, b)]
            if m > n:
                return {}
            return {(PRIM, a, b, m): 3}
        _, a1, b1, m1 = k1
        _, a2, b2, m2 = k2
        if (a1, b1) == (a2, b2):
            raise ValueError("same-pair primitive product never arises in the model")
        if m1 > 0 or m2 > 0:
            return {}  # decorations sit on a primitive slot of the other factor
        shared = ({a1, b1} & {a2, b2}).pop()
        rest = sorted(({a1, b1} | {a2, b2}) - {shared})
        return {(PRIM, rest[0], rest[1], n): 1}

    @staticmethod
    def _sort_key(key):
        if key[0] == MONO:
            return (0, key[1] + key[2] + key[3], tuple(-e for e in key[1:]))
        return (1, key[1:])

    @staticmethod
    def _format_key(key):
        if key[0] == MONO:
            return format_monomial(_H_NAMES, key[1:])
        _, a, b, m = key
        tail = format_monomial((f"h{_third(a, b)}",), (m,))
        return f"d{a}{b}" + (f"*{tail}" if tail else "")


def x3_diagonal_expansion(n: int, a: int, b: int, m: int = 0) -> CohX3Class:
    """Kunneth expansion of D_ab * h_c^m in the cohomological model."""
    c = _third(a, b)
    num: dict[Key, int] = {}
    if m <= n:
        for j in range(n + 1):
            slots = {a: j, b: n - j, c: m}
            num[(MONO, slots[1], slots[2], slots[3])] = 1
        num[(PRIM, a, b, m)] = 3
    return CohX3Class._reduced(n, num, 3)


@lru_cache(maxsize=None)
def small_diagonal_coh(n: int) -> CohX3Class:
    """Class of the small diagonal, computed as [D12] * [D23] in the model."""
    if n < 1:
        raise UnsupportedRange("small_diagonal_coh needs n >= 1")
    return x3_diagonal_expansion(n, 1, 2) * x3_diagonal_expansion(n, 2, 3)


def x3_to_coh(a: X3Class) -> CohX3Class:
    """Cycle-class map of the model: diagonals go to their Kunneth expansions.

    The expansions of D_ab * h_c^m and D3 have denominators 3 and 9, so the
    image is taken over 9 * a.den.
    """
    out: dict[Key, int] = {}
    for key, c in a.num.items():
        if key[0] == MONO:
            out[key] = out.get(key, 0) + 9 * c
            continue
        if key[0] == DIAG:
            image = x3_diagonal_expansion(a.n, key[1], key[2], key[3])
        else:
            image = small_diagonal_coh(a.n)
        f = c * (9 // image.den)
        for k, v in image.num.items():
            out[k] = out.get(k, 0) + f * v
    return CohX3Class._reduced(a.n, out, 9 * a.den)


def push13(a: CohX3Class) -> CohXXClass:
    """Pushforward to slots (1, 3): integrate slot 2 (h2^n -> 3, free d -> 0)."""
    out: dict[Key, int] = {}
    for key, c in a.num.items():
        if key[0] == MONO:
            _, i, j, k = key
            if j == a.n:
                out[(MONO, i, k)] = out.get((MONO, i, k), 0) + 3 * c
        else:
            _, p, q, m = key
            if (p, q) == (1, 3):
                if m == a.n:
                    out[(PRIM,)] = out.get((PRIM,), 0) + 3 * c
            # primitive slot 2 integrates to zero for the other pairs
    return CohXXClass._reduced(a.n, out, a.den)


def coh_pair(a: CohX3Class, b: CohX3Class) -> Fraction:
    """Integration pairing on the cohomological model, read off by Poincare duality.

    Monomials pair against complementary monomials (value 27); primitive
    terms pair against same-pair primitive terms with complementary
    decorations (value 3 * (chi - n - 1), the primitive self-pairing times
    the degree of h^n); the two sectors are orthogonal.  So each term of the
    smaller operand meets one term of the larger one: one lookup.
    """
    if type(a) is not CohX3Class:
        raise ValueError("coh_pair pairs CohX3Class classes only")
    a._check(b)
    if len(a.num) < len(b.num):
        a, b = b, a
    n = a.n
    big = a.num
    prim = 3 * primitive_self_pairing(n)
    total = 0
    for key, c in b.num.items():
        if key[0] == MONO:
            _, i, j, k = key
            total += 27 * c * big.get((MONO, n - i, n - j, n - k), 0)
        else:
            _, p, q, m = key
            total += prim * c * big.get((PRIM, p, q, n - m), 0)
    return Fraction(total, a.den * b.den)


# -- the decomposition of the small diagonal ------------------------------------


@lru_cache(maxsize=None)
def corrected_small_diagonal(n: int) -> X3Class:
    """D3 minus a third of each diagonal decorated with the opposite h^n."""
    if n < 1:
        raise UnsupportedRange("corrected_small_diagonal needs n >= 1")
    out = x3_small_diagonal(n)
    for a, b in PAIRS:
        out = out - x3_diagonal(n, a, b, n, Fraction(1, 3))
    return out


@lru_cache(maxsize=None)
def decomposable_coefficients(n: int) -> tuple[Mapping[tuple[int, int, int], int], int]:
    """Coefficients of the corrected small diagonal on the monomial basis.

    The primitive terms of the Kunneth expansions must cancel exactly
    (:class:`CheckFailed` otherwise).  Returns ``(table, den)``: the read-only,
    S3-invariant table holds the integer numerator of every (i, j, k) with
    i + j + k = 2n and 0 <= i, j, k <= n, zeros included, over one ``den``
    (9 at every n checked).
    """
    image = x3_to_coh(corrected_small_diagonal(n))
    table = {(i, j, 2 * n - i - j): 0 for i in range(n + 1) for j in range(n - i, n + 1)}
    for key, c in image.num.items():
        if key[0] != MONO:
            raise CheckFailed(
                f"primitive term {CohX3Class._format_key(key)} survives at n={n}"
            )
        table[key[1:]] = c
    return MappingProxyType(table), image.den


@lru_cache(maxsize=None)
def small_diagonal_defect(n: int) -> X3Class:
    """Corrected small diagonal minus its decomposable part; must die in cohomology."""
    table, den = decomposable_coefficients(n)
    return corrected_small_diagonal(n) - X3Class._reduced(
        n, {(MONO, i, j, k): c for (i, j, k), c in table.items()}, den
    )


@lru_cache(maxsize=None)
def defect_image(n: int) -> CohX3Class:
    """Cohomology class of the defect cycle, shared by the checks that read it."""
    return x3_to_coh(small_diagonal_defect(n))


def defect_vanishes_cohomologically(n: int) -> bool:
    image = defect_image(n)
    if not image.is_zero():
        raise CheckFailed(f"defect cycle has nonzero image at n={n}: {image}")
    return True


# -- the symbolic product evaluator ----------------------------------------------


class FormalCycle(Frozen):
    """Opaque cycle class: only its codimension and moment survive.

    The moment is the degree of the zero-cycle (class) * h^(n - codim), an
    ``int`` or a ``Fraction``, held as ``num / den`` in lowest terms with
    ``den > 0`` (so equal cycles have equal fields); ``moment`` reads it back.
    """

    __slots__ = ("codim", "num", "den")

    def __new__(cls, codim: int, moment: int | Fraction):
        if not isinstance(codim, int):
            raise TypeError(f"codimension must be int, not {codim!r}")
        if codim <= 0:
            raise ValueError("formal cycles must have positive codimension")
        moment = exact(moment)
        return cls._reduced(codim, moment.numerator, moment.denominator)

    @classmethod
    def _reduced(cls, codim: int, num: int, den: int) -> FormalCycle:
        """The cycle of moment ``num / den`` (``den > 0``), by one gcd."""
        g = gcd(num, den)
        out = object.__new__(cls)
        object.__setattr__(out, "codim", codim)
        object.__setattr__(out, "num", num // g)
        object.__setattr__(out, "den", den // g)
        return out

    @property
    def moment(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __eq__(self, other) -> bool:
        if type(other) is not FormalCycle:
            return NotImplemented
        return (self.codim, self.num, self.den) == (other.codim, other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.codim, self.num, self.den))

    def __repr__(self) -> str:
        return f"FormalCycle(codim={self.codim}, moment={self.moment})"


def cycle_product(n: int, alpha: FormalCycle, beta: FormalCycle) -> FormalCycle:
    """Product of two formal cycles through the small-diagonal decomposition.

    Evaluates the pushforward to the third slot of
    pi1* alpha * pi2* beta * (corrected small diagonal):

    * the D12 * h3^n correction integrates alpha * beta over X^2 and dies
      because its codimension n + i + j is below 2n (i + j < n);
    * the D23 / D13 corrections contain alpha * h^n resp. beta * h^n,
      zero above codimension n (i, j > 0);
    * the small-diagonal slot itself is the product being computed, and the
      vanishing of the defect cycle trades it for the decomposable table.
      deg(h^r * alpha) is m_alpha for r = n - i and zero otherwise (same for
      beta), so the only entry that survives the two integrations is
      (n-i, n-j, i+j); the table holds it, zero or not, for every valid i, j.

    The product is entry * m_alpha * m_beta * h^(i+j), a multiple of one
    class; as deg h^n = 3, its moment is three times its coefficient: for
    the entry t / den, 3 t num_alpha num_beta / (den den_alpha den_beta).
    """
    i, j = alpha.codim, beta.codim
    if not (0 < i and 0 < j and i + j < n):
        raise UnsupportedRange(
            f"cycle_product needs 0 < i, 0 < j, i + j < n; got i={i}, j={j}, n={n}"
        )
    table, den = decomposable_coefficients(n)
    num = 3 * table[(n - i, n - j, i + j)] * alpha.num * beta.num
    return FormalCycle._reduced(i + j, num, den * alpha.den * beta.den)
