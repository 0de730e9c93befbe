"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
that tests can assert on the exact condition instead of matching message
strings.  All of them derive from HopfOreError, through exactly one of
two bases that fix the command line's exit code: UsageError (exit 2) for
an input the caller can correct, and MathError (exit 1) for results that
contradict each other.
"""


class HopfOreError(Exception):
    """Base class for all package-specific errors."""


class UsageError(HopfOreError):
    """The input is malformed, out of range or unsupported; exit code 2."""


class MathError(HopfOreError):
    """A computation contradicted itself or another route; exit code 1."""


class OrderMismatch(UsageError):
    """Arithmetic attempted between cyclotomic numbers of different orders."""


class ShapeMismatch(MathError):
    """Matrix dimensions incompatible with the requested operation."""


class InvalidParameter(UsageError):
    """A structural parameter is out of range (sizes, exponents, t < 1, ...)."""


class NotCentral(UsageError):
    """The designated group element is not central."""


class TrivialQ(UsageError):
    """chi evaluated at the central element is 1; the extension degenerates."""


class IncompleteSimpleList(UsageError):
    """The supplied simple modules do not exhaust the group algebra."""


class NotIrreducible(UsageError):
    """A supplied module fails the irreducibility test."""


class UnknownLabel(UsageError):
    """A simple or indecomposable label does not exist in the algebra."""


class UnsupportedLabel(UsageError):
    """The label is valid but unsupported by the requested operation."""


class AlgebraMismatch(UsageError):
    """Objects built over different algebras were combined."""


class ZeroBeta(UsageError):
    """beta = 0 requested where a nonzero eigenvalue is required."""


class NotFusionReady(UsageError):
    """The algebra does not satisfy the order condition the fusion rules need."""


class NonIntegerMultiplicity(MathError):
    """A character inner product came out non-integral; data is inconsistent."""


class CandidatePoolIncomplete(MathError):
    """Generalized eigenspaces of the candidate eigenvalues miss part of the module."""


class InternalInconsistency(MathError):
    """Two routes that must agree disagreed; indicates corrupted input or a bug."""


class RingMismatch(UsageError):
    """Ring elements from different rings (or algebras) were combined."""


class ExprSyntaxError(UsageError):
    """Parse failure in the little expression language; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
