"""Reachability toolkit for intercept analysis.

Future cones (attainable-trajectory sets) for impulsively maneuvering
spacecraft in inverse-square gravity, plus the planar Two Cars game as a
flat-space benchmark with known closed-form answers.
The root re-exports the orbital core; scenario files, the Two Cars game
and the array kernels are imported from their own modules.
"""
from .constants import EARTH_RADIUS_KM, MU_EARTH
from .errors import (
    AmbiguousPlane,
    EccentricityOutOfRange,
    EmptyOverlap,
    NoBoundArc,
    SurfaceViolation,
    UnboundResult,
)
from .cone import (
    ConeSpec,
    containment,
    leaf,
    membership,
    reduce_to_single_burn,
    sample_cone,
)
from .lambert import solve_lambert
from .maneuver import (
    ImpulsiveSchedule,
    ThrustProfile,
    integrate_thrust,
    profile_impulse,
    propagate_schedule,
    rocket_delta_v,
    shock_approximation,
)
from .kepler import StateVector, propagate_time

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPlane",
    "ConeSpec",
    "EARTH_RADIUS_KM",
    "EccentricityOutOfRange",
    "EmptyOverlap",
    "ImpulsiveSchedule",
    "MU_EARTH",
    "NoBoundArc",
    "StateVector",
    "SurfaceViolation",
    "ThrustProfile",
    "UnboundResult",
    "containment",
    "integrate_thrust",
    "leaf",
    "membership",
    "profile_impulse",
    "propagate_schedule",
    "propagate_time",
    "reduce_to_single_burn",
    "rocket_delta_v",
    "sample_cone",
    "shock_approximation",
    "solve_lambert",
]
