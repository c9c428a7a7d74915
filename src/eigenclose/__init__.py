"""Certified two-sided eigenvalue enclosures for self-adjoint operators.

Given the three form matrices of a finite trial subspace inside the
operator domain, this package computes eigenvalue bounds that are
mathematically guaranteed -- every one-sided bound holds for the
underlying operator, not merely for its Galerkin discretization, and is
therefore immune to spectral pollution.  A pair of bounds in a window
(a, b) holds a spectral point when the window holds exactly the number
of points the trial space detects there,
N(a, b) (:func:`eigenclose.forms.detected_count`); a pair flagged
``inconsistent`` proves that the window holds more, and its absence
proves nothing.  Two equivalent routes are implemented (a shifted
matrix pencil and a fixed-point iteration on the local counting
function), both reading that one count, together with eigenvector
residual bounds, two pollution-prone finite element models to exercise
them, and a small command line harness.
"""

from .dirac1d import (
    FEModel,
    Mesh1D,
    assemble_1d,
    exact_spectrum_1d,
    uniform_mesh,
)
from .enclosure import (
    Enclosure,
    PencilEigen,
    ResidualBounds,
    Signature,
    local_counting,
    residual_bounds,
    signature,
    zm_bounds_one_sided,
    zm_eigen,
    zm_enclosures,
    zm_enclosures_all,
)
from .errors import (
    DeflationWarning,
    DegenerateShiftError,
    EigencloseError,
    EmptySideError,
    FormsFormatError,
    GapViolationError,
    InconsistentFormsError,
    InsufficientPointsError,
    MaxIterationsError,
    NoSignChangeError,
    NonFiniteError,
    NotPositiveDefiniteError,
    UnsupportedOrderError,
)
from .fixed_point import (
    FixedPointResult,
    dp_bounds,
    equivalence_gap,
    optimal_shift,
)
from .forms import (
    TrialForms,
    operator_forms,
    read_forms,
    write_forms,
)
from .linalg import (
    DEFAULT_TOL,
    cholesky_spd,
    symmetrize,
)
from .maxwell2d import (
    MaxwellModel,
    TriMesh,
    assemble_2d,
    exact_spectrum_2d,
    galerkin_spectrum,
    structured_tri_mesh,
    write_mesh,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DeflationWarning",
    "DegenerateShiftError",
    "EigencloseError",
    "EmptySideError",
    "Enclosure",
    "FEModel",
    "FixedPointResult",
    "FormsFormatError",
    "GapViolationError",
    "InconsistentFormsError",
    "InsufficientPointsError",
    "MaxIterationsError",
    "MaxwellModel",
    "Mesh1D",
    "NoSignChangeError",
    "NonFiniteError",
    "NotPositiveDefiniteError",
    "PencilEigen",
    "ResidualBounds",
    "Signature",
    "TriMesh",
    "TrialForms",
    "UnsupportedOrderError",
    "assemble_1d",
    "assemble_2d",
    "cholesky_spd",
    "dp_bounds",
    "equivalence_gap",
    "exact_spectrum_1d",
    "exact_spectrum_2d",
    "galerkin_spectrum",
    "local_counting",
    "operator_forms",
    "optimal_shift",
    "read_forms",
    "residual_bounds",
    "signature",
    "structured_tri_mesh",
    "symmetrize",
    "uniform_mesh",
    "write_forms",
    "write_mesh",
    "zm_bounds_one_sided",
    "zm_eigen",
    "zm_enclosures",
    "zm_enclosures_all",
]
