"""Exception types shared across the package."""


class SkewstructError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(SkewstructError):
    """Operands have incompatible dimensions or grades."""


class GradeTooSmall(SkewstructError, ValueError):
    """A declared grade is below max(degree, 0): smaller than the degree, or negative."""


class NotSkewSymmetric(SkewstructError):
    """Input violates the skew-symmetry invariant."""


class FlavorMismatch(SkewstructError):
    """A block list of the wrong flavor was supplied."""


class InvalidBlock(SkewstructError, ValueError):
    """A canonical block's kind, index or eigenvalue is outside its domain."""


class ParamDomain(SkewstructError):
    """Parameters violate the domain constraints of a formula."""


class ZeroRank(SkewstructError):
    """Operation undefined for rank-zero input."""


class EvenGrade(SkewstructError):
    """The skew pencil template exists for odd grade only; pad first."""


class MissingBlocks(SkewstructError):
    """A rewriting rule consumes blocks that are not present."""


class SideConditionViolated(SkewstructError):
    """Rule parameters violate the rule's side conditions."""


class PairingBroken(SkewstructError):
    """A block list or structure does not pair up into a skew form."""


class AttemptsExhausted(SkewstructError):
    """A resampling loop hit its attempt cap."""


class RankVerificationFailed(SkewstructError):
    """The float analysis backend's numeric finite part gave an impossible structure.

    Only `floating.analyze_float` raises it, when the eigenvalues it kept
    fail the skew checks, such as the index sum against the exact deficit;
    every exact path is decided in rationals and never does.
    """


class InternalInconsistency(SkewstructError):
    """Cross-validation between two computation paths failed.

    Raised when internally recomputed invariants disagree; always an
    implementation bug, never a user error.
    """
