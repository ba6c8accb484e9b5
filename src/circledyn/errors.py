"""Exception types raised by the workbench."""


class CircleDynError(Exception):
    """Base class for all workbench errors."""


class SpecFormatError(CircleDynError):
    """A map/homeomorphism description does not match the JSON schema.

    The message carries the offending field path, e.g. ``cuts[1]: not a number``.
    """


class InvalidMapError(CircleDynError):
    """An operation received a map spec that fails validation."""


class SolverError(CircleDynError):
    """A root-solve target is not finite or lies outside the range of its branch."""


class DepthCapExceeded(CircleDynError):
    """A word length or inverse-iteration depth exceeded its cap."""


class CellCapExceeded(CircleDynError):
    """A full-level enumeration would produce more cylinders than allowed."""


class WorkCapExceeded(CircleDynError):
    """A tail-sum enumeration would touch more word tuples than allowed."""


class DegreeMismatchError(CircleDynError):
    """A pair operation received maps of different degrees."""


class ResolutionExhausted(CircleDynError):
    """A distortion-ratio denominator fell below the numeric floor."""
