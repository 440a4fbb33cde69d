"""Exception types shared across the package, and the gate on exact input.

Plain ``ValueError`` is used for caller mistakes (mismatched operands,
inhomogeneous input, a degree other than the stated one, as a class below the
top given to the degree map, a ``HodgeDiamond`` key that is not a pair (p, q));
the classes below mark the structured failure modes that the verification
checks report on.  ``TypeError`` marks a coefficient that is not an ``int``
or ``Fraction``: the value constructors pass every coefficient through
``exact``, so no float enters the engine.  It also marks an integer
argument (an exponent or key entry, a codimension, a dimension n, a degree
k) that is not an ``int``, at the entry points that build a value or a
cache on it.  A ``bool`` is refused at each of these, as a coefficient or
moment too, though ``isinstance(True, int)`` holds: ``True`` is never read
as 1.  A matrix is built by the package from integers, and ``linalg``
refuses a ``float`` or ``Fraction`` entry with ``TypeError``.
"""

from fractions import Fraction


class UnsupportedRange(ValueError):
    """An operation was asked for a parameter outside its declared domain."""


class CheckFailed(RuntimeError):
    """A verified identity failed; computed data contradicts the expected law."""


def exact(c):
    """``c`` itself if it is an ``int`` or a ``Fraction``; ``TypeError`` otherwise.

    A ``bool`` is refused: ``True`` would otherwise be read as the integer 1.
    """
    if isinstance(c, (int, Fraction)) and type(c) is not bool:
        return c
    raise TypeError(f"exact arithmetic takes int or Fraction, not {type(c).__name__} {c!r}")
