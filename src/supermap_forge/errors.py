"""Exception types raised by the library.

Every failure mode a caller can reasonably branch on gets its own class; all
of them derive from :class:`SupermapForgeError`, itself a ``ValueError``.
"""


class SupermapForgeError(ValueError):
    """Base class for all library errors."""


class AlgebraMismatchError(SupermapForgeError):
    """Operands live in (or maps expect) different multimatrix algebras."""


class ShapeMismatchError(SupermapForgeError):
    """Matrix data does not match the declared block dimensions."""


class NotPositiveError(SupermapForgeError):
    """An operator expected to be positive semidefinite is not."""


class NotCompletelyPositiveError(SupermapForgeError):
    """A map expected to be completely positive has a non-PSD Choi block."""


class NotTracePreservingError(SupermapForgeError):
    """A map declared as a channel fails the partial-trace condition."""


class NotUnitalError(SupermapForgeError):
    """A map expected to be unital does not preserve the identity."""


class StructureMissingError(SupermapForgeError):
    """A block/factor pair structure was required but not supplied or wrong."""


class NotMinimalError(SupermapForgeError):
    """A dilation assumed minimal is rank deficient."""


class ResidualTooLargeError(SupermapForgeError):
    """Two objects that must agree numerically differ beyond tolerance."""


class IsometryDefectError(SupermapForgeError):
    """A solved intertwiner deviates too far from an isometry."""


class BoundViolatedError(SupermapForgeError):
    """An environment dimension exceeds its proven upper bound."""


class SingularMarginalError(SupermapForgeError):
    """Random channel generation produced a singular marginal repeatedly."""
