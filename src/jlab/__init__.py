"""Finite-dimensional laboratory for conjugation-structured operator theory.

Core objects: antilinear conjugations (``Conjugation``), operator class
profiles relative to a conjugation (``classify``), the refined polar
decomposition of J-unitary operators (``refined_polar``), and self-adjoint
J-imaginary extensions of partial symmetric operators through the Cayley
transform (``extend``).
"""

from .conjugation import (
    Conjugation,
    canonical,
    fixed_basis,
    random_conjugation,
)
from .errors import (
    BadFactor,
    BadShape,
    CapExceeded,
    DimensionMismatch,
    DomainError,
    DomainNotJInvariant,
    FileFormatError,
    JLabError,
    MultivaluedRelation,
    NoConvergence,
    NotConjugation,
    NotHermitian,
    NotInvariant,
    NotJImaginary,
    NotJUnitary,
    OutOfRange,
    RankDeficient,
    RankLoss,
    Singular,
)
from .extension import (
    DefectData,
    ExtensionResult,
    PartialSymmetricOperator,
    check_defect_j_invariance,
    extend,
    random_jimaginary_partial,
    ranges_defects,
    verify_symmetric_jimaginary,
)
from .jclass import (
    CLASS_NAMES,
    bilinear_form,
    classify,
    default_tol,
    definitional_oracle,
    j_unitary_residual,
)
from .numkernel import (
    SpectralDecomp,
    herm_eig,
    inverse,
    nonpositive_pivot,
    subspace_gap,
)
from .polar import (
    PolarParts,
    check_prop21,
    check_reciprocity,
    check_unitary_equiv,
    random_j_real_unitary,
    random_j_unitary,
    random_positive_j_unitary,
    refined_polar,
    synthesize,
)
from .report import CheckItem, ResidualReport

__version__ = "0.1.0"
