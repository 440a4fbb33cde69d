"""Finite tautological models of X^2 and X^3 with diagonal classes.

X is a cubic hypersurface of dimension n with hyperplane class h,
deg h^n = 3.  The Chow-side models close multiplication on explicit bases:

* ``XXClass`` on {h1^r h2^s : r, s <= n} plus the diagonal D, with
  D * (h1^s h2^t) = (1/3) * sum_(a+b=n+s+t) h1^a h2^b   (s + t >= 1)
  D * D = (chi/9) * h1^n h2^n
  (push-pull through the ambient projective space; the diagonal
  self-intersection is pinned by the top Chern class of the tangent
  bundle, (chi/3) h^n);
* ``X3Class`` on monomials, decorated diagonals D_ab * h_c^m and the small
  diagonal D3, a module over the monomials: each class is multiplied by
  monomials only, D_ab * h^e by the X^2 rule (the free slot's exponent
  joins the decoration) and D3 * (h-monomial of degree m) =
  (1/9) * sum_(p+q+r=2n+m) h1^p h2^q h3^r; a product of two diagonal
  classes raises ``ValueError``.

The cohomological twins replace each diagonal by its Kunneth expansion
(1/3) * sum_j h_a^j h_b^(n-j) + d_ab, where d_ab is the projector onto the
primitive middle cohomology; primitive classes are killed by h, and
contractions follow d_ab * d_bc = (1/3) h_b^n d_ac (no sign bookkeeping:
the projector law is verified, not assumed).  On X^2, d * d integrates to
the signed primitive middle Betti number (-1)^n b_n^prim, read off the
Hodge numbers and not off chi.  Same-pair products d * d never arise on
X^3 and are rejected.

Every class is a ``wpoly.SparseSum`` over n: integer numerators over one
denominator.  A model adds its key shapes, which its constructor checks, and
``_term_mul``, numerators over the rule denominator ``_DEN`` (27 for X3Class,
9 for XXClass and CohXXClass, 3 for CohX3Class), so a product is reduced
once, by one gcd.  Every product runs through one loop, ``_product_num``,
and both cycle-class maps through one, ``_coh_num``; the maps and
``push13`` take classes of their own model only (``ValueError`` on any
other).  The key order and the key text belong to the base,
``_FormalSum``, and are the same for all four models.  ``Fraction`` appears
only at the edge: coefficients, degrees and text.

``degree(a)`` integrates a class of any model: the coefficient of the top
monomial times its degree, 3^s on X^s.  On X^3 the one integration is
``degree(a * b)``, or ``_x3_pair_keys(a, keys)`` for many monomial keys at
once.  The checks read this integer format through two readers by n:
``ring_map_failures`` and ``defect_pairings``.

On top of the models: the decomposable coefficients of the small diagonal
after removing its axis corrections, the vanishing of the resulting
defect cycle, and the symbolic evaluator showing that the product of two
positive-codimension cycle classes is (1/9) * m_alpha * m_beta * h^(i+j),
a rank-1 image, on integers: the decomposable table is numerators over one
denominator.  ``cycle_products`` evaluates a whole grid of such products in
one call, reading the table and the operand fields once, and returns each
product as the integer triple ``(codim, num, den)`` of a cycle on X:
codimension i + j and moment m_alpha * m_beta / 3 = num / den in lowest
terms, one gcd and no object per product.  ``FormalCycle`` stays at the
edge: the operands are ``FormalCycle``s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Mapping

from .errors import CheckFailed, UnsupportedRange, exact
from .hodge import euler_cubic, primitive_hodge_numbers
from .wpoly import Frozen, SparseSum, format_monomial

Key = tuple

PAIRS = ((1, 2), (1, 3), (2, 3))


def _third(a: int, b: int) -> int:
    return 6 - a - b


def _check_dim(n) -> None:
    if type(n) is not int:  # a bool too
        raise TypeError(f"dimension n must be int, not {n!r}")


def primitive_self_pairing(n: int) -> int:
    """Integral of d * d on X^2: the trace (-1)^n b_n^prim of the primitive projector."""
    dim = sum(primitive_hodge_numbers(n).values())
    return -dim if n % 2 else dim


# -- shared formal-sum plumbing ------------------------------------------------


class _FormalSum(SparseSum):
    """Linear combination of basis keys of one model; ``ctx`` is the dimension n.

    A model adds its term product ``_term_mul`` over ``_DEN`` and its key
    shapes ``_KEYS``: tag -> number of ``int`` fields, the first two a pair
    from ``PAIRS`` for a tag other than ``MONO``.  The key order and the key
    text are the base's, the same for every model: monomials first, by total
    degree and then by descending exponents, then every other key in plain
    tuple order, each written by ``_format_key``.
    """

    __slots__ = ()
    _CONTEXT = "models"

    def __new__(cls, n: int, terms: Mapping[Key, Fraction | int] | None = None):
        _check_dim(n)
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
        if not all(type(e) is int for e in body):  # a bool too
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
        out = _product_num(self.num, other.num, self._term_mul)
        return self._reduced(self.ctx, out, self.den * other.den * self._DEN)

    @staticmethod
    def _sort_key(key: Key):
        if key[0] == MONO:
            return (0, sum(key[1:]), tuple(-e for e in key[1:]))
        return (1, key)

    @staticmethod
    def _format_term(key: Key, c):
        return _format_key(key), c


def _product_num(left: Mapping[Key, int], right: Mapping[Key, int], term_mul) -> dict[Key, int]:
    """Unreduced numerators of ``left * right``, every term pair through ``term_mul``."""
    right = right.items()
    out: dict[Key, int] = {}
    for k1, c1 in left.items():
        for k2, c2 in right:
            product = term_mul(k1, k2)
            if product:
                c12 = c1 * c2
                for key, c in product.items():
                    out[key] = out.get(key, 0) + c12 * c
    return out


def _coh_num(num: Mapping[Key, int], image, common: int) -> dict[Key, int]:
    """Numerators over ``common`` of the cycle-class image of ``num``, unreduced.

    A monomial is its own image; any other key goes to ``image(key)``, whose
    denominator divides ``common``.
    """
    out: dict[Key, int] = {}
    for key, c in num.items():
        if key[0] == MONO:
            out[key] = out.get(key, 0) + common * c
        else:
            target = image(key)
            f = c * (common // target.den)
            for k, v in target.num.items():
                out[k] = out.get(k, 0) + f * v
    return out


_H_NAMES = ("h1", "h2", "h3")  # the hyperplane class on each factor


def _format_key(key: Key) -> str:
    """``h1^2*h3``, ``D``, ``d``, ``D3``, ``D12*h3^2`` or ``d13``."""
    tag, *body = key
    if tag == MONO:
        return format_monomial(_H_NAMES, body)
    if not body:
        return tag
    a, b, m = body
    tail = format_monomial((f"h{_third(a, b)}",), (m,))
    return f"{tag}{a}{b}" + (f"*{tail}" if tail else "")


def degree(a: _FormalSum) -> Fraction:
    """Integral of the top piece of a class on X^s: deg(h1^n ... hs^n) = 3^s."""
    s = a._KEYS[MONO]
    return 3**s * a.coefficient((MONO,) + (a.n,) * s)


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
            return {(MONO, a, n + r + s - a): 3 for a in range(r + s, n + 1)}
        return _mono2_mul(n, k1, k2, 9)


def xx_monomial(n: int, r: int, s: int, coeff=1) -> XXClass:
    return XXClass(n, {(MONO, r, s): coeff})


def xx_diagonal(n: int) -> XXClass:
    return XXClass(n, {(DIAG,): 1})


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


def xx_diagonal_expansion(n: int) -> CohXXClass:
    """Kunneth expansion (1/3) sum_j h1^j h2^(n-j) + d of the diagonal."""
    _check_dim(n)
    num = {(MONO, j, n - j): 1 for j in range(n + 1)}
    num[(PRIM,)] = 3
    return CohXXClass._reduced(n, num, 3)


def xx_to_coh(a: XXClass) -> CohXXClass:
    """Cycle-class map of the model: the diagonal goes to its Kunneth expansion.

    The expansion has denominator 3, so the image is taken over 3 * a.den.
    """
    if type(a) is not XXClass:
        raise ValueError("xx_to_coh maps XXClass classes only")
    out = _coh_num(a.num, lambda key: xx_diagonal_expansion(a.n), 3)
    return CohXXClass._reduced(a.n, out, 3 * a.den)


def ring_map_failures(n: int) -> list[tuple[Key, Key]]:
    """The pairs (g, b) with f(g * b) != f(g) * f(b), f = ``xx_to_coh``, in order.

    g runs over the generators h1, h2, D and b over ``xx_basis(n)``: both
    models are associative and f is linear and unital, so f is a ring map
    exactly when the list is empty.  Both sides are read term by term, over
    one denominator each, and compared cross-multiplied: no class per pair.
    """
    _check_dim(n)
    if n < 1:
        raise UnsupportedRange("ring_map_failures needs n >= 1")
    images = {k: xx_to_coh(XXClass(n, {k: 1})) for k in xx_basis(n)}
    image = images.__getitem__
    xx_mul = XXClass(n)._term_mul
    coh_mul = CohXXClass(n)._term_mul
    lhs_den = XXClass._DEN * 3  # every image's denominator divides 3
    failures = []
    for g in ((MONO, 1, 0), (MONO, 0, 1), (DIAG,)):
        fg = images[g]
        for k, fb in images.items():
            lhs = _coh_num(xx_mul(g, k), image, 3)  # f(g * b), over lhs_den
            rhs = _product_num(fg.num, fb.num, coh_mul)  # f(g) * f(b)
            rhs_den = fg.den * fb.den * CohXXClass._DEN
            if any(
                lhs.get(key, 0) * rhs_den != rhs.get(key, 0) * lhs_den
                for key in lhs.keys() | rhs.keys()
            ):
                failures.append((g, k))
    return failures


# -- X^3: Chow model and cohomological twin --------------------------------------


def _delta_push(n: int, m: int) -> dict[Key, int]:
    """Small-diagonal pushforward of h^m: (1/9) sum over p+q+r = 2n+m, over 27."""
    out: dict[Key, int] = {}
    total = 2 * n + m
    for p in range(m, n + 1):
        for q in range(n + m - p, n + 1):
            out[(MONO, p, q, total - p - q)] = 3
    return out


class X3Class(_FormalSum):
    """Chow model of X^3 as a module over the monomials.

    Keys: ("m", i, j, k); ("D", a, b, m) for the diagonal in slots (a, b)
    times h_c^m on the remaining slot; ("D3",).  A product of two terms
    needs a monomial among them; any other pair raises ``ValueError``.
    """
    _DEN = 27
    _KEYS = {MONO: 3, DIAG: 3, SMALL: 0}

    def _term_mul(self, k1, k2):
        n = self.n
        if k1[0] == MONO:
            if k2[0] == MONO:
                return _mono3_mul(n, k1, k2, 27)
            k1, k2 = k2, k1
        if k2[0] != MONO:
            raise ValueError(
                f"X3Class multiplies by monomials only, not {_format_key(k1)} * {_format_key(k2)}"
            )
        # k2[a] is the exponent of slot a
        if k1[0] == SMALL:
            m = k2[1] + k2[2] + k2[3]
            if m == 0:
                return {(SMALL,): 27}
            return _delta_push(n, m)
        _, a, b, m = k1
        c = 6 - a - b  # _third(a, b), inline on the pairing path
        s, t, u = k2[a], k2[b], k2[c]
        if m + u > n:
            return {}
        if s + t == 0:
            return {(DIAG, a, b, m + u): 27}
        # h_a^p h_b^(n + s + t - p) h_c^(m + u), written in slot order
        w, r = m + u, n + s + t
        if c == 3:
            keys = ((MONO, p, r - p, w) for p in range(s + t, n + 1))
        elif c == 2:
            keys = ((MONO, p, w, r - p) for p in range(s + t, n + 1))
        else:
            keys = ((MONO, w, p, r - p) for p in range(s + t, n + 1))
        return dict.fromkeys(keys, 9)


def x3_monomial(n: int, i: int, j: int, k: int, coeff=1) -> X3Class:
    return X3Class(n, {(MONO, i, j, k): coeff})


def x3_diagonal(n: int, a: int, b: int, m: int = 0, coeff=1) -> X3Class:
    return X3Class(n, {(DIAG, a, b, m): coeff})


def x3_small_diagonal(n: int, coeff=1) -> X3Class:
    return X3Class(n, {(SMALL,): coeff})


def _x3_pair_keys(a: X3Class, keys) -> list[int]:
    """The numerators of deg(a * key) over ``a.den``, in the order of ``keys``.

    The keys are monomial keys ("m", i, j, k), unchecked.  A key meets its
    complementary monomial (one lookup) and the diagonal terms of ``a``,
    collected once, through ``X3Class._term_mul``, whose (n, n, n) entry over
    27 = deg(h1^n h2^n h3^n) is the degree.  No class is built for a key.
    """
    n = a.n
    get = a.num.get
    term_mul = a._term_mul
    top = (MONO, n, n, n)
    diagonals = [(k1, c1) for k1, c1 in a.num.items() if k1[0] != MONO]
    out = []
    for key in keys:
        _, i, j, k = key
        total = 27 * get((MONO, n - i, n - j, n - k), 0)
        for k1, c1 in diagonals:
            v = term_mul(k1, key).get(top)
            if v is not None:
                total += c1 * v
        out.append(total)
    return out


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


def x3_diagonal_expansion(n: int, a: int, b: int, m: int = 0) -> CohX3Class:
    """Kunneth expansion of D_ab * h_c^m in the cohomological model."""
    _check_dim(n)
    CohX3Class._check_key(n, (PRIM, a, b, m))
    c = _third(a, b)
    num: dict[Key, int] = {}
    for j in range(n + 1):
        slots = {a: j, b: n - j, c: m}
        num[(MONO, slots[1], slots[2], slots[3])] = 1
    num[(PRIM, a, b, m)] = 3
    return CohX3Class._reduced(n, num, 3)


# the caches keyed by n alone keep one n (maxsize=1): verify runs n by n (cli.run)
@lru_cache(maxsize=1)
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
    if type(a) is not X3Class:
        raise ValueError("x3_to_coh maps X3Class classes only")
    n = a.n

    def image(key: Key) -> CohX3Class:
        return x3_diagonal_expansion(n, *key[1:]) if key[0] == DIAG else small_diagonal_coh(n)

    return CohX3Class._reduced(n, _coh_num(a.num, image, 9), 9 * a.den)


def push13(a: CohX3Class) -> CohXXClass:
    """Pushforward to slots (1, 3): integrate slot 2 (h2^n -> 3, free d -> 0)."""
    if type(a) is not CohX3Class:
        raise ValueError("push13 pushes CohX3Class classes only")
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


# -- the decomposition of the small diagonal ------------------------------------


def corrected_small_diagonal(n: int) -> X3Class:
    """D3 minus a third of each diagonal decorated with the opposite h^n."""
    _check_dim(n)
    if n < 1:
        raise UnsupportedRange("corrected_small_diagonal needs n >= 1")
    num = {(DIAG, a, b, n): -1 for a, b in PAIRS}
    num[(SMALL,)] = 3
    return X3Class._reduced(n, num, 3)


@lru_cache(maxsize=1)
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
                f"primitive term {_format_key(key)} survives at n={n}"
            )
        table[key[1:]] = c
    return MappingProxyType(table), image.den


@lru_cache(maxsize=1)
def small_diagonal_defect(n: int) -> X3Class:
    """Corrected small diagonal minus its decomposable part; must die in cohomology."""
    table, den = decomposable_coefficients(n)
    return corrected_small_diagonal(n) - X3Class._reduced(
        n, {(MONO, i, j, k): c for (i, j, k), c in table.items()}, den
    )


def defect_vanishes_cohomologically(n: int) -> bool:
    image = x3_to_coh(small_diagonal_defect(n))
    if not image.is_zero():
        raise CheckFailed(f"defect cycle has nonzero image at n={n}: {image}")
    return True


def defect_pairings(n: int) -> dict[tuple[int, int, int], int]:
    """deg(defect * h1^a h2^b h3^c) over the defect's ``den``, keyed (a, b, c), a + b + c = n.

    One ``_x3_pair_keys`` call reads every dual; no class is built per dual.
    """
    duals = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    return dict(zip(duals, _x3_pair_keys(small_diagonal_defect(n), [(MONO, *e) for e in duals])))


# -- the symbolic product evaluator ----------------------------------------------


class FormalCycle(Frozen):
    """Opaque cycle class: only its codimension and moment survive.

    The moment is the degree of the zero-cycle (class) * h^(n - codim), an
    ``int`` or a ``Fraction``, held as ``num / den`` in lowest terms with
    ``den > 0`` (so equal cycles have equal fields); ``moment`` reads it back.
    """

    __slots__ = ("codim", "num", "den")

    def __new__(cls, codim: int, moment: int | Fraction):
        if type(codim) is not int:  # a bool too: True would print as codim=True
            raise TypeError(f"codimension must be int, not {codim!r}")
        if codim <= 0:
            raise ValueError("formal cycles must have positive codimension")
        moment = exact(moment)  # an int or a Fraction: in lowest terms, den > 0
        out = _new_cycle(cls)
        _set_codim(out, codim)
        _set_num(out, moment.numerator)
        _set_den(out, moment.denominator)
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


# used by FormalCycle.__new__ only: the slot setters bypass Frozen.__setattr__
_new_cycle = object.__new__
_set_codim = FormalCycle.__dict__["codim"].__set__
_set_num = FormalCycle.__dict__["num"].__set__
_set_den = FormalCycle.__dict__["den"].__set__


def cycle_products(n: int, alphas, betas) -> list[list[tuple[int, int, int]]]:
    """Products of formal cycles through the small-diagonal decomposition.

    Returns the grid of ``alpha * beta`` for every alpha in ``alphas`` and
    every beta in ``betas``, row by row, each product as the fields
    ``(codim, num, den)`` of its ``FormalCycle``.  Each product is the
    pushforward to the third slot of pi1* alpha * pi2* beta * (corrected
    small diagonal):

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
    the entry t / den, 3 t num_alpha num_beta / (den den_alpha den_beta),
    reduced by one gcd.  The table and the fields of each beta are read once
    per grid, the fields of each alpha once per row, and the table entry and
    its product with the alpha numerator once per run of betas of equal
    codimension; no object but the triple is built per product.  The first
    pair out of range, in row order, raises ``UnsupportedRange``.
    """
    _check_dim(n)
    # no pair of positive codimensions is in range below n = 3, and the
    # table needs n >= 1: the range check below raises first
    table, den = decomposable_coefficients(n) if n >= 3 else (None, 1)
    fields = [(beta.codim, beta.num, beta.den) for beta in betas]
    grid = []
    for alpha in alphas:
        i, num_a, den_a = alpha.codim, 3 * alpha.num, den * alpha.den
        row = []
        run = None  # the codimension of the current run of betas
        for j, num_b, den_b in fields:
            if j != run:
                if not (0 < i and 0 < j and i + j < n):
                    raise UnsupportedRange(
                        f"cycle_products needs 0 < i, 0 < j, i + j < n; got i={i}, j={j}, n={n}"
                    )
                run, t = j, table[(n - i, n - j, i + j)] * num_a
            num = t * num_b
            d = den_a * den_b
            g = gcd(num, d)
            row.append((i + j, num // g, d // g))
        grid.append(row)
    return grid
