"""Exception taxonomy for the futurecone package.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from FutureConeError so batch drivers can catch the family. The
package's one work cap is here too: every caller-set count that sizes an array
passes _check_work before the array exists; every altitude floor, _check_floor.
"""
from __future__ import annotations

import math


class FutureConeError(Exception):
    """Base class for all futurecone domain errors."""


class EccentricityOutOfRange(FutureConeError):
    """State or arc is not a bound ellipse (a <= 0 or e >= 1)."""


class UnboundResult(FutureConeError):
    """A maneuver produced an unbound (escape or degenerate) state."""


class SurfaceViolation(FutureConeError):
    """A trajectory segment dips below the configured altitude floor."""


class ConvergenceError(FutureConeError):
    """An iterative solver hit its iteration cap without meeting tolerance.

    Attributes:
        row: Index of the offending row when raised from a batch of
            solves (kepler's Kepler solve), else None.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


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
    """A request needs more samples or steps than the package's cap."""


# Elements one caller-set count may ask for, whatever it counts.
_WORK_CAP = 10**7


def _check_work(count: float, noun: str) -> None:
    """Refuse count noun above _WORK_CAP, before any array that long."""
    if count > _WORK_CAP:
        raise WorkCapExceeded(
            f"{noun}: {count:.10g} requested, capped at {_WORK_CAP}")


def _check_floor(floor: float) -> None:
    """Refuse an altitude floor that is not finite."""
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor}")


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
