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
    apply_shock,
    integrate_thrust,
    profile_impulse,
    propagate_schedule,
    rocket_delta_v,
    shock_approximation,
)
from .kepler import (
    StateVector,
    arc_from_state,
    eccentric_from_true,
    mean_motion,
    min_radius,
    propagate_theta,
    propagate_time,
    solve_kepler,
    state_at,
    time_of_flight,
    true_from_eccentric,
)

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
    "apply_shock",
    "arc_from_state",
    "containment",
    "eccentric_from_true",
    "integrate_thrust",
    "leaf",
    "mean_motion",
    "membership",
    "min_radius",
    "profile_impulse",
    "propagate_schedule",
    "propagate_theta",
    "propagate_time",
    "reduce_to_single_burn",
    "rocket_delta_v",
    "sample_cone",
    "shock_approximation",
    "solve_kepler",
    "solve_lambert",
    "state_at",
    "time_of_flight",
    "true_from_eccentric",
]
