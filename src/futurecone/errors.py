"""Exception taxonomy for the futurecone package.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from FutureConeError so batch drivers can catch the family.
"""
from __future__ import annotations


class FutureConeError(Exception):
    """Base class for all futurecone domain errors."""


class EccentricityOutOfRange(FutureConeError):
    """State or arc is not a bound ellipse (a <= 0 or e >= 1)."""


class UnboundResult(FutureConeError):
    """A maneuver produced an unbound (escape or degenerate) state."""


class SurfaceViolation(FutureConeError):
    """A trajectory segment dips below the configured altitude floor."""


class ConvergenceError(FutureConeError):
    """An iterative solver hit its iteration cap without meeting tolerance."""


class AmbiguousPlane(FutureConeError):
    """Transfer geometry does not define a unique orbital plane.

    Attributes:
        row: Index of the offending row when raised from a batch of
            boundary problems (lambert_batch), else None.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NoBoundArc(FutureConeError):
    """Lambert targeting found no bound arc within the revolution cap."""


class EmptyCone(FutureConeError):
    """Cone sampling produced no valid trajectories at all."""


class EmptyOverlap(FutureConeError):
    """Containment was asked for cones whose time windows do not overlap."""


class WorkCapExceeded(FutureConeError):
    """A request needs more samples or steps than the module's cap."""


class ScenarioError(FutureConeError):
    """Scenario file is unreadable, malformed, or violates an invariant.

    Attributes:
        line: 1-based line number the error refers to, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioParseError(ScenarioError):
    """A scenario line is not blank, a comment, a section, or key = value."""


class ScenarioSchemaError(ScenarioError):
    """A scenario uses unknown, duplicate, missing, or mis-shaped fields."""


class ScenarioInvariantError(ScenarioError):
    """A well-formed scenario states something physically inconsistent."""
