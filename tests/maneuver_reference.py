"""Shock chains one object at a time: the test oracle.

The chain loop that builds a StateVector per state: each segment coasts
with `kepler.coast`, each shock checks the floor and `kepler.is_bound`
on its own, and the trajectory's arcs are derived once more at the end
from the states the segments started at. `maneuver.propagate_schedule`
must give the same arcs, bit for bit, and raise the same errors with
the same messages.
"""
from __future__ import annotations

import numpy as np

from futurecone.constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM, MU_EARTH
from futurecone.errors import FutureConeError, SurfaceViolation, UnboundResult
from futurecone.kepler import (
    StateVector,
    _row_norm,
    arcs_from_states,
    coast,
    is_bound,
)
from futurecone.maneuver import ImpulsiveSchedule, ImpulsiveTrajectory


def apply_shock(s: StateVector, dv, mu: float = MU_EARTH,
                floor: float = DEFAULT_FLOOR_KM) -> StateVector:
    """Post-shock state, refused below the floor or off a bound ellipse."""
    dv = np.asarray(dv, dtype=float)
    post = StateVector(r=s.r, v=s.v + dv, t=s.t)
    floor_radius = EARTH_RADIUS_KM + floor
    rn = float(_row_norm(post.r))
    if rn < floor_radius:
        raise SurfaceViolation(
            f"state radius {rn!r} km is below the floor radius "
            f"{floor_radius!r} km")
    if not is_bound(post.r, post.v, mu):
        raise UnboundResult(
            f"post-shock state is unbound or rectilinear: |v| = "
            f"{float(np.linalg.norm(post.v))!r} km/s at r = {rn!r} km")
    return post


def propagate_schedule(origin: StateVector, sched: ImpulsiveSchedule,
                       t_end: float, mu: float = MU_EARTH,
                       floor: float = DEFAULT_FLOOR_KM) -> ImpulsiveTrajectory:
    """Piecewise-ballistic propagation of a shock schedule."""
    times = sched.times.tolist()
    if times:
        if times[0] < origin.t:
            raise ValueError(
                f"first shock at t={times[0]} precedes the origin "
                f"epoch {origin.t}")
        if t_end <= times[-1]:
            raise ValueError(
                f"t_end={t_end} must lie beyond the last shock at "
                f"t={times[-1]}")
    elif t_end < origin.t:
        raise ValueError(f"t_end={t_end} precedes the origin epoch {origin.t}")

    floor_radius = EARTH_RADIUS_KM + floor
    starts: list[StateVector] = []
    current = origin

    def segment(state: StateVector, until: float, label: str) -> StateVector:
        try:
            r, v, lowest = coast(state.r[None], state.v[None], state.t, until,
                                 mu)
            if lowest[0] < floor_radius:
                raise SurfaceViolation(
                    f"segment dips to radius {float(lowest[0])!r} km, below "
                    f"the floor radius {floor_radius!r} km")
        except FutureConeError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
        starts.append(state)
        return StateVector(r[0], v[0], until)

    for i, (t, dv) in enumerate(zip(times, sched.shocks)):
        if t > current.t:
            current = segment(current, t, f"segment before shock {i}")
        try:
            current = apply_shock(current, dv, mu, floor)
        except FutureConeError as exc:
            raise type(exc)(f"shock {i}: {exc}") from exc
    segment(current, t_end, "final segment")
    arcs = arcs_from_states([s.r for s in starts], [s.v for s in starts],
                            [s.t for s in starts], mu)
    return ImpulsiveTrajectory(arcs=arcs, t_end=t_end, schedule=sched,
                               origin=origin)
