"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class
so that except-clauses stay narrow.  All inherit from JLabError.
"""


class JLabError(Exception):
    """Base class for package-specific failures."""


class NotConjugation(JLabError):
    """A coefficient matrix fails the conjugation axioms; the message names each."""


class DimensionMismatch(JLabError):
    """Operands have incompatible shapes or live in different spaces."""


class BadShape(JLabError):
    """A structural parameter (size, bandwidth, count) is inconsistent."""


class OutOfRange(JLabError):
    """A numeric parameter lies outside its admissible interval."""


class NotHermitian(JLabError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class NoConvergence(JLabError):
    """Iteration exhausted its sweep budget before reaching tolerance."""


class DomainError(JLabError):
    """A scalar function was evaluated outside its domain."""


class Singular(JLabError):
    """Elimination hit a pivot below the relative floor.

    When a matrix elimination fails at its last column, ``kernel`` is a unit
    null vector candidate x of M and ``second_sigma_bound`` a lower bound on
    M's second-smallest singular value, both read from the eliminated
    columns; every other raise carries None in both.
    """

    def __init__(self, message, kernel=None, second_sigma_bound=None):
        super().__init__(message)
        self.kernel = kernel
        self.second_sigma_bound = second_sigma_bound


class RankDeficient(JLabError):
    """Columns expected to be independent are numerically dependent."""


class NotInvariant(JLabError):
    """A subspace expected to be conjugation-invariant is not."""


class RankLoss(JLabError):
    """Fixed-vector extraction produced fewer vectors than the subspace dimension."""


class CapExceeded(JLabError):
    """Input exceeds a hard size cap meant to keep a slow path honest."""


class NotJUnitary(JLabError):
    """Gate failure: operator is not J-unitary within tolerance."""


class NotJImaginary(JLabError):
    """Gate failure: operator is not J-imaginary symmetric within tolerance."""


class BadFactor(JLabError):
    """A factor handed to synthesis violates its precondition."""


class DomainNotJInvariant(JLabError):
    """Gate failure: operator domain is not invariant under the conjugation."""


class MultivaluedRelation(JLabError):
    """Cayley inverse is multivalued: V - I stayed singular through both attempts."""

    def __init__(self, message, kernel_dim):
        super().__init__(message)
        self.kernel_dim = int(kernel_dim)


class FileFormatError(JLabError):
    """On-disk document is malformed; message names the offending field."""
