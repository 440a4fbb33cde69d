"""Exact sparse sums over the rationals, and weighted polynomials.

:class:`SparseSum` is the one storage of an exact linear combination: integer
numerators ``num`` over one denominator ``den``, in normal form (no zero
numerator, ``den > 0``, ``gcd(den, *num) == 1``, ``den == 1`` for zero).  It
alone normalises, adds, scales, compares, hashes and prints; ``Fraction``
appears only at the edge (``terms``, ``coefficient``, text).  Its subclasses
are :class:`WPoly`, ``hodge.HodgeDiamond`` and the diagonal models.

A :class:`WPoly` is a polynomial in Q[x, y], the one polynomial ring of the
package: x and y stand for the first and second Chern class of a rank-2
bundle, with weights 1 and 2, so x^a y^b has weighted degree a + 2b.  It is
a sparse map from exponent pairs (a, b) to rational coefficients, built from
``int`` or ``Fraction`` coefficients only.

The canonical text form sorts terms by descending graded-lex order, e.g.
``18*x^2*y + 9*y^2``; :meth:`WPoly.parse` inverts it exactly and rejects
every other text with ``ValueError``.  Its printer, ``signed_sum`` over
``format_monomial`` bodies, prints every sparse sum, and :class:`Frozen` is
the immutable base of every value type shared through caches.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import exact

Exponents = tuple[int, ...]

CHERN_VARS = ("x", "y")

# the canonical text form: magnitudes are positive and reduced, factors are
# name or name^e, terms are joined by " + " and " - ".  Patterns, not compiled
# ones: only ``WPoly.parse`` reads them, and ``re`` compiles each on its first
# use and caches it, so importing the package compiles nothing
_SEP_RE = r" ([+-]) "
_TERM_RE = (
    r"(?:(?P<coeff>[1-9]\d*(?:/[1-9]\d*)?)(?:\*|$))?"
    r"(?P<mono>[A-Za-z]\w*(?:\^\d+)?(?:\*[A-Za-z]\w*(?:\^\d+)?)*)?"
)
_FACTOR_RE = r"([A-Za-z]\w*)(?:\^(\d+))?"


class Frozen:
    """Base of the value types shared through caches: no attribute writes.

    A write to a cached value would poison every later computation in the
    process, so attributes are set once, through their slot setters, and
    rebinding or deleting one raises ``AttributeError``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def format_monomial(names: Iterable[str], exps: Iterable[int]) -> str:
    """``x^2*y`` for the exponents (2, 1) of ("x", "y"); "" for the unit."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
    )


def signed_sum(terms: Iterable[tuple[str, int]], den: int) -> str:
    """Canonical text of nonzero (body, numerator) pairs over ``den > 0``.

    Each coefficient ``numerator / den`` is reduced by one gcd and printed as
    ``p`` or ``p/q``, in the given order.  A magnitude 1 is left out before a
    nonempty body; the first term carries a bare ``-`` and later ones `` + ``
    or `` - ``; no terms print ``0``.
    """
    pieces = []
    for body, num in terms:
        g = gcd(num, den)
        mag = abs(num) // g
        text = str(mag) if g == den else f"{mag}/{den // g}"
        if body:
            text = body if text == "1" else f"{text}*{body}"
        if pieces:
            pieces.append(f"+ {text}" if num > 0 else f"- {text}")
        else:
            pieces.append(text if num > 0 else f"-{text}")
    return " ".join(pieces) if pieces else "0"


class SparseSum(Frozen):
    """Exact sparse sum of hashable keys: integer ``num`` over ``den``.

    ``num`` is a read-only view in the normal form of the module docstring;
    ``ctx``, the context (a model's n; ``None`` for polynomials and
    diamonds), is part of the value, and sums take operands of one type and
    context.  Subclasses validate keys in ``__new__`` and build through
    ``_exact``; arithmetic results come from the unvalidated ``_reduced``.
    The text lists the terms in the order of the subclass's
    ``_sort_key(key)``, as ``_format_term(key, c)`` pairs of a body and an
    integer numerator, which ``signed_sum`` prints over ``den``.
    """

    __slots__ = ("ctx", "num", "den")
    _CONTEXT = "contexts"  # what a mismatch of ``ctx`` is called in errors

    @classmethod
    def _exact(cls, ctx, terms: Mapping[Hashable, Fraction | int] | None):
        """The sum of the ``int`` or ``Fraction`` coefficients ``terms``."""
        coeffs = {key: exact(c) for key, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        return cls._reduced(ctx, num, den)

    @classmethod
    def _reduced(cls, ctx, num: dict, den: int):
        """The sum ``num / den`` (``den > 0``), brought to normal form.

        One gcd reduces it, and its three slots are set through the setters
        bound once at import, below the class.
        """
        g = gcd(den, *num.values())  # equals den when every numerator is 0
        out = _new_sum(cls)
        _set_ctx(out, ctx)
        _set_num(out, MappingProxyType({key: c // g for key, c in num.items() if c}))
        _set_den(out, den // g)
        return out

    @property
    def terms(self) -> Mapping[Hashable, Fraction]:
        """The coefficients as ``Fraction``s, for callers off the hot paths."""
        den = self.den
        return MappingProxyType({key: Fraction(c, den) for key, c in self.num.items()})

    def coefficient(self, key: Hashable) -> Fraction:
        return Fraction(self.num.get(key, 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other) -> None:
        if type(other) is not type(self) or other.ctx != self.ctx:
            raise ValueError(
                f"mismatched {self._CONTEXT}: {type(self).__name__} {self.ctx!r} vs "
                f"{type(other).__name__} {getattr(other, 'ctx', None)!r}"
            )

    def _plus(self, other, sign: int):
        """``self + sign * other``, over the lcm of the denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        out = {key: c * f for key, c in self.num.items()}
        for key, c in other.num.items():
            out[key] = out.get(key, 0) + c * g
        return self._reduced(self.ctx, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        c = exact(c)
        num = {key: c.numerator * v for key, v in self.num.items()}
        return self._reduced(self.ctx, num, c.denominator * self.den)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ctx, self.den, self.num) == (other.ctx, other.den, other.num)

    def __hash__(self) -> int:
        return hash((type(self), self.ctx, self.den, frozenset(self.num.items())))

    def __str__(self) -> str:
        num = self.num
        return signed_sum(
            (self._format_term(key, num[key]) for key in sorted(num, key=self._sort_key)),
            self.den,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# one-step construction: the slot setters bypass Frozen.__setattr__, bound once
_new_sum = object.__new__
_set_ctx = SparseSum.__dict__["ctx"].__set__
_set_num = SparseSum.__dict__["num"].__set__
_set_den = SparseSum.__dict__["den"].__set__


class WPoly(SparseSum):
    """Immutable sparse polynomial in x (weight 1) and y (weight 2).

    Keys are exponent pairs and ``ctx`` is ``None``.  Polynomials are shared
    through caches, so ``num`` and ``terms`` are read-only views.
    """

    __slots__ = ()

    def __new__(cls, terms: Mapping[Exponents, Fraction | int] | None = None):
        for exps in terms or {}:
            if not all(type(e) is int for e in exps):  # a bool too
                raise TypeError(f"exponents must be int, not {exps!r}")
            if len(exps) != 2 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
        return cls._exact(None, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "WPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "WPoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "WPoly":
        if name not in CHERN_VARS:
            raise ValueError(f"unknown variable {name!r}")
        return cls({tuple(int(v == name) for v in CHERN_VARS): 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff=1) -> "WPoly":
        return cls({tuple(exps): coeff})

    # -- grading -----------------------------------------------------------

    @staticmethod
    def wdeg(exps: Exponents) -> int:
        return exps[0] + 2 * exps[1]

    def homogeneous_degree(self) -> int:
        """Weighted degree of a nonzero homogeneous polynomial."""
        degrees = {self.wdeg(e) for e in self.num}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degrees.pop()

    # -- arithmetic ----------------------------------------------------------
    # Sums, differences and scaling are the base's; the operators stay
    # defined here, so that a constant operand is taken as a polynomial and
    # perfbench/layer_trace.py finds all six in this class's namespace.

    def _coerce(self, other) -> "WPoly":
        if isinstance(other, WPoly):
            return other
        return WPoly.constant(other)

    def __add__(self, other) -> "WPoly":
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "WPoly":
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other) -> "WPoly":
        return self._coerce(other)._plus(self, -1)

    def __mul__(self, other) -> "WPoly":
        if not isinstance(other, WPoly):
            return self.scale(other)
        out: dict[Exponents, int] = {}
        get = out.get
        right = other.num.items()
        for e1, c1 in self.num.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return self._reduced(self.ctx, out, self.den * other.den)

    __rmul__ = __mul__

    # -- canonical text form -------------------------------------------------

    def _sort_key(self, exps: Exponents):
        """Descending graded-lex order: leading term first."""
        return -self.wdeg(exps), tuple(-e for e in exps)

    def _format_term(self, exps: Exponents, c):
        return format_monomial(CHERN_VARS, exps), c

    @classmethod
    def parse(cls, text: str) -> "WPoly":
        """Parse the canonical text form produced by ``str``.

        Anything else raises ``ValueError``: ``parse(text)`` succeeds exactly
        when ``str`` of the result gives ``text`` back.
        """
        if text == "0":
            return cls.zero()
        pieces = re.split(_SEP_RE, text)
        first = pieces[0]
        signs = ["-" if first.startswith("-") else "+"] + pieces[1::2]
        chunks = [first[1:] if first.startswith("-") else first] + pieces[2::2]
        out: dict[Exponents, Fraction] = {}
        for sign, chunk in zip(signs, chunks):
            m = re.fullmatch(_TERM_RE, chunk)
            if not m or not (m["coeff"] or m["mono"]):
                raise ValueError(f"cannot parse term {chunk!r} of {text!r}")
            exps = [0, 0]
            for name, power in re.findall(_FACTOR_RE, m["mono"] or ""):
                if name not in CHERN_VARS:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                exps[CHERN_VARS.index(name)] += int(power) if power else 1
            coeff = Fraction(m["coeff"] or 1)
            out[tuple(exps)] = coeff if sign == "+" else -coeff
        poly = cls(out)
        if str(poly) != text:
            raise ValueError(f"not in canonical form: {text!r}")
        return poly
