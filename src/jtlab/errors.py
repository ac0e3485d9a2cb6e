"""Exception types shared across the package."""


class JtlabError(ValueError):
    """Base class for all domain errors raised by jtlab."""


class NotCIShape(JtlabError):
    """Sequence is not the Hilbert function of a graded complete intersection
    in two variables, i.e. not of the form (1,2,...,d-1,d^k,d-1,...,2,1)."""


class SizeMismatch(JtlabError):
    """Two partitions that should partition the same integer do not."""


class DiagonalMismatch(JtlabError):
    """A partition's diagonal lengths differ from the given Hilbert function."""


class BudgetExceeded(JtlabError):
    """The input asks for more work than a fixed up-front budget allows."""


class InternalInconsistency(JtlabError):
    """Two independent criteria that must agree disagreed.  A bug, never
    expected to fire."""


class InvalidLabel(JtlabError):
    """Branch label fails the interval conditions for its (d, k)."""


class NotCIJT(JtlabError):
    """Partition is not a complete intersection Jordan type."""


class NotCIJTWithDParts(NotCIJT):
    """The rectangle-flip map is only defined on CIJT partitions with
    exactly d parts."""


class InvalidSubset(JtlabError):
    """Hessian index subset not contained in the active range."""


class TopRequiresKGe2(JtlabError):
    """The top-Hessian generic Jordan type only exists when k >= 2."""


class ZeroInput(JtlabError):
    """An operation received the zero polynomial where nonzero is required."""


class ZeroForm(ZeroInput):
    """The linear form of a multiplication map is zero."""


class NotArtinian(JtlabError):
    """The quotient R/I is not finite dimensional."""


class DegreeOutOfRange(JtlabError):
    """Requested graded piece lies outside the algebra's degree range."""


class OrderOutOfRange(JtlabError):
    """Hessian order i outside [0, d-1]."""


class ParseError(JtlabError):
    """Malformed text input (partition, Hilbert function, or polynomial)."""
