"""Exact weighted polynomials over the rationals.

A :class:`WPoly` is a sparse map from exponent vectors to ``Fraction``
coefficients, built from ``int`` or ``Fraction`` coefficients only.  Every
variable carries a positive integer weight and the weighted degree of a
monomial is the weight-dot-product of its exponents.
Most of the package works in Q[x, y] with weights (1, 2), where x and y
stand for the first and second Chern class of a rank-2 bundle.

The canonical text form sorts terms by descending graded-lex order, e.g.
``18*x^2*y + 9*y^2``; :meth:`WPoly.parse` inverts it exactly and rejects
every other text with ``ValueError``.  Its printer, ``signed_sum`` over
``format_monomial`` bodies, also prints the diagonal model classes and the
E-polynomials of Hodge diamonds, and :class:`Frozen` is the immutable base
of every value type shared through caches.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import exact

Exponents = tuple[int, ...]

CHERN_VARS = ("x", "y")
CHERN_WEIGHTS = (1, 2)

# the canonical text form: magnitudes are positive and reduced, factors are
# name or name^e, terms are joined by " + " and " - "
_SEP_RE = re.compile(r" ([+-]) ")
_TERM_RE = re.compile(
    r"(?:(?P<coeff>[1-9]\d*(?:/[1-9]\d*)?)(?:\*|$))?"
    r"(?P<mono>[A-Za-z]\w*(?:\^\d+)?(?:\*[A-Za-z]\w*(?:\^\d+)?)*)?"
)
_FACTOR_RE = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?")


class Frozen:
    """Base of the value types shared through caches: no attribute writes.

    A write to a cached value would poison every later computation in the
    process, so attributes are set once with ``object.__setattr__`` and
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


def signed_sum(terms: Iterable[tuple[str, object]]) -> str:
    """Canonical text of nonzero (body, coefficient) pairs, in the given order.

    A magnitude 1 is left out before a nonempty body; the first term carries
    a bare ``-`` and later ones `` + `` or `` - ``; no terms print ``0``.
    """
    pieces = []
    for body, c in terms:
        mag = abs(c)
        text = body if (body and mag == 1) else (f"{mag}*{body}" if body else str(mag))
        if pieces:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        else:
            pieces.append(text if c > 0 else f"-{text}")
    return " ".join(pieces) if pieces else "0"


class WPoly(Frozen):
    """Immutable sparse polynomial with a weighted grading.

    ``terms`` is a read-only view: polynomials are shared through caches,
    so a write would poison every later computation in the process.
    """

    __slots__ = ("vars", "weights", "terms")

    def __init__(
        self,
        terms: Mapping[Exponents, Fraction | int] | None = None,
        vars: tuple[str, ...] = CHERN_VARS,
        weights: tuple[int, ...] = CHERN_WEIGHTS,
    ):
        if len(vars) != len(weights):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        clean: dict[Exponents, Fraction] = {}
        for exps, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(exact(c))
            if c == 0:
                continue
            if not all(isinstance(e, int) for e in exps):
                raise TypeError(f"exponents must be int, not {exps!r}")
            if len(exps) != len(vars) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            clean[exps] = c
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "terms", MappingProxyType(clean))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars=CHERN_VARS, weights=CHERN_WEIGHTS) -> "WPoly":
        return cls({}, vars, weights)

    @classmethod
    def constant(cls, c, vars=CHERN_VARS, weights=CHERN_WEIGHTS) -> "WPoly":
        zero = (0,) * len(vars)
        return cls({zero: c}, vars, weights)

    @classmethod
    def variable(cls, name: str, vars=CHERN_VARS, weights=CHERN_WEIGHTS) -> "WPoly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls({exps: Fraction(1)}, vars, weights)

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff=1, vars=CHERN_VARS, weights=CHERN_WEIGHTS) -> "WPoly":
        return cls({tuple(exps): coeff}, vars, weights)

    # -- grading -----------------------------------------------------------

    def wdeg(self, exps: Exponents) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {self.wdeg(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Weighted degree of a nonzero homogeneous polynomial."""
        degrees = {self.wdeg(e) for e in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degrees.pop()

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "WPoly") -> None:
        if self.vars != other.vars or self.weights != other.weights:
            raise ValueError(
                f"mismatched variable sets: {self.vars}/{self.weights} vs "
                f"{other.vars}/{other.weights}"
            )

    def _coerce(self, other) -> "WPoly":
        if isinstance(other, WPoly):
            self._check_compatible(other)
            return other
        return WPoly.constant(other, self.vars, self.weights)

    def __add__(self, other) -> "WPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return WPoly(out, self.vars, self.weights)

    __radd__ = __add__

    def __neg__(self) -> "WPoly":
        return WPoly({e: -c for e, c in self.terms.items()}, self.vars, self.weights)

    def __sub__(self, other) -> "WPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "WPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "WPoly":
        if not isinstance(other, WPoly):
            c = Fraction(exact(other))
            return WPoly({e: c * v for e, v in self.terms.items()}, self.vars, self.weights)
        self._check_compatible(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return WPoly(out, self.vars, self.weights)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "WPoly":
        if k < 0:
            raise ValueError("negative power")
        result = WPoly.constant(1, self.vars, self.weights)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, WPoly):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.weights, frozenset(self.terms.items())))

    # -- canonical text form -------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(
            self.terms.items(), key=lambda t: (self.wdeg(t[0]), t[0]), reverse=True
        )

    def __str__(self) -> str:
        return signed_sum(
            (format_monomial(self.vars, exps), c) for exps, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"WPoly({self})"

    @classmethod
    def parse(cls, text: str, vars=CHERN_VARS, weights=CHERN_WEIGHTS) -> "WPoly":
        """Parse the canonical text form produced by ``str``.

        Anything else raises ``ValueError``: ``parse(text)`` succeeds exactly
        when ``str`` of the result gives ``text`` back.
        """
        if text == "0":
            return cls.zero(vars, weights)
        pieces = _SEP_RE.split(text)
        first = pieces[0]
        signs = ["-" if first.startswith("-") else "+"] + pieces[1::2]
        chunks = [first[1:] if first.startswith("-") else first] + pieces[2::2]
        out: dict[Exponents, Fraction] = {}
        for sign, chunk in zip(signs, chunks):
            m = _TERM_RE.fullmatch(chunk)
            if not m or not (m["coeff"] or m["mono"]):
                raise ValueError(f"cannot parse term {chunk!r} of {text!r}")
            exps = [0] * len(vars)
            for name, power in _FACTOR_RE.findall(m["mono"] or ""):
                if name not in vars:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                exps[vars.index(name)] += int(power) if power else 1
            coeff = Fraction(m["coeff"] or 1)
            out[tuple(exps)] = coeff if sign == "+" else -coeff
        poly = cls(out, vars, weights)
        if str(poly) != text:
            raise ValueError(f"not in canonical form: {text!r}")
        return poly
