"""Exact-arithmetic verification engine for cubic hypersurfaces.

Everything is computed over the rationals with no rounding anywhere:
Schubert calculus on the Grassmannian of lines, the class of the variety
of lines and its numerical tautological ring, Hodge-number bookkeeping
through the Hilbert-square relation, and the small-diagonal decomposition
that pins the product structure of the cycle ring down to rank one.
"""

from .errors import CheckFailed, UnsupportedRange
from .wpoly import WPoly
from .linalg import MatQ, kernel_basis, solve_linear
from .grassmann import (
    GRing,
    build_ring,
    complete_symmetric,
    degree_of_poly,
    fano_poly,
    giambelli,
    normal_form,
    shift11,
    sym_power_chern,
)
from .fano import ExtraRelation, FanoPairing, extra_relation, fano_pairing, ideal_decomposition
from .fano import taut_rank_F
from .hodge import (
    HodgeDiamond,
    euler_cubic,
    fano_diamond,
    fano_hodge_decomposition,
    hilb2_diamond,
    hodge_cubic,
    sym2_diamond,
    times_projective,
)
from .diagonal import (
    FormalCycle,
    XXClass,
    X3Class,
    CohXXClass,
    CohX3Class,
    corrected_small_diagonal,
    cycle_products,
    decomposable_coefficients,
    defect_vanishes_cohomologically,
    small_diagonal_coh,
    small_diagonal_defect,
)

__version__ = "0.1.0"
