"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
that tests can assert on the exact condition instead of matching message
strings.  All of them derive from HopfOreError.
"""


class HopfOreError(Exception):
    """Base class for all package-specific errors."""


class OrderMismatch(HopfOreError):
    """Arithmetic attempted between cyclotomic numbers of different orders."""


class ShapeMismatch(HopfOreError):
    """Matrix dimensions incompatible with the requested operation."""


class InvalidParameter(HopfOreError):
    """A structural parameter is out of range (sizes, exponents, t < 1, ...)."""


class NotCentral(HopfOreError):
    """The designated group element is not central."""


class TrivialQ(HopfOreError):
    """chi evaluated at the central element is 1; the extension degenerates."""


class IncompleteSimpleList(HopfOreError):
    """The supplied simple modules do not exhaust the group algebra."""


class NotIrreducible(HopfOreError):
    """A supplied module fails the irreducibility test."""


class UnknownLabel(HopfOreError):
    """A simple or indecomposable label does not exist in the algebra."""


class UnsupportedLabel(HopfOreError):
    """The label is valid but unsupported by the requested operation."""


class AlgebraMismatch(HopfOreError):
    """Objects built over different algebras were combined."""


class ZeroBeta(HopfOreError):
    """beta = 0 requested where a nonzero eigenvalue is required."""


class NotFusionReady(HopfOreError):
    """The algebra does not satisfy the order condition the fusion rules need."""


class NonIntegerMultiplicity(HopfOreError):
    """A character inner product came out non-integral; data is inconsistent."""


class CandidatePoolIncomplete(HopfOreError):
    """Generalized eigenspaces of the candidate eigenvalues miss part of the module."""


class InternalInconsistency(HopfOreError):
    """Two routes that must agree disagreed; indicates corrupted input or a bug."""


class RingMismatch(HopfOreError):
    """Ring elements from different rings (or algebras) were combined."""


class ExprSyntaxError(HopfOreError):
    """Parse failure in the little expression language; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
