"""Exact-arithmetic verification engine for cubic hypersurfaces.

Everything is computed over the rationals with no rounding anywhere:
Schubert calculus on the Grassmannian of lines, the class of the variety
of lines and its numerical tautological ring, Hodge-number bookkeeping
through the Hilbert-square relation, and the small-diagonal decomposition
that pins the product structure of the cycle ring down to rank one.
"""

# the API is per module (cubicchow.grassmann.build_ring); importing the
# package loads the engine modules and binds nothing else
from . import diagonal, errors, fano, grassmann, hodge, linalg, wpoly

__version__ = "0.1.0"
