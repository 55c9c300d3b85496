"""Propulsive trajectory models over the ballistic core.

Impulsive shock schedules (piecewise-ballistic chains with instantaneous
velocity jumps, held as an array of epochs and an array of dv rows), the
rocket equation for converting propellant mass to a delta-v allowance,
and a continuous-thrust integrator with its step-function shock
approximation. The approximation converging onto the integrated
trajectory as the step count grows is what licenses treating finite
thrust inside the impulsive framework.

A chain's epoch states are solved by Newton multiple shooting, all
segments flown in one batch per pass, one row a segment, and checked as
they converge; a pass that corrects takes the closed-form transition
matrices of its flight. A burn of hundreds of shocks costs a few kernel
calls rather than one flight per shock. A chain of at most
one shock after its origin is bit-identical to flying the segments one
after another; a longer one agrees with that to 4.3e-13 relative, the
worst of 1,500 random chains measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM, G0_KM_S2, MU_EARTH
from .errors import (
    ConvergenceError,
    FutureConeError,
    SurfaceViolation,
    UnboundResult,
    WorkCapExceeded,
    _check_floor,
    _check_work,
)
from .kepler import (
    ArcBatch,
    StateVector,
    _conic_of,
    _ellipse,
    _require_bound,
    _row_norm,
    _step,
    _transition,
    _vis_viva,
    states_at,
)

# RK4 steps one integrate_thrust resolution may take. Engagement-scale
# burns settle at 128-256 steps.
_MAX_STEPS = 2**16
# integrate_thrust accepts a step count once halving it moves the
# endpoint by less than this, relative to the position scale.
_SETTLE_TOL = 1e-8
# Newton multiple shooting of a shock chain: a segment's epoch state is
# converged when it is within this of its predecessor's flight, relative
# to its largest position and velocity component (the flight itself is
# good to about 1e-14).
_SHOOTING_TOL = 1e-13


class ShockError(ValueError):
    """A shock that a schedule refuses.

    Attributes:
        index: Row of the offending shock in its schedule.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class ShockOrderError(ShockError):
    """A shock epoch that does not strictly follow its predecessor's."""


@dataclass(frozen=True, eq=False)
class ImpulsiveSchedule:
    """Instantaneous velocity changes (shocks) in epoch order, as two
    read-only arrays; the default is the empty schedule. Equality is by
    value.

    Attributes:
        times: Shock epochs, s, shape (n,), finite and strictly
            increasing.
        shocks: Velocity increments, km/s, shape (n, 3), finite; row i
            is applied at times[i].

    Raises:
        ValueError: arrays of other shapes.
        ShockError: the first shock that is not finite (its epoch checked
            before its dv), else the first out of order (ShockOrderError).
    """

    times: np.ndarray = ()
    shocks: np.ndarray = ()

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        dv = np.array(self.shocks, dtype=float)
        if not dv.size:
            dv = dv.reshape(0, 3)
        if times.ndim != 1 or dv.shape != (times.size, 3):
            raise ValueError(
                f"need one 3-component dv row per epoch, got times of shape "
                f"{times.shape} and shocks of shape {dv.shape}")
        bad_t = ~np.isfinite(times)
        bad = bad_t | ~np.isfinite(dv).all(axis=1)
        if np.count_nonzero(bad):
            i = int(np.argmax(bad))
            if bad_t[i]:
                raise ShockError(
                    i, f"t: shock epoch must be finite, got {float(times[i])}")
            raise ShockError(i, f"dv must be finite, got {dv[i]}")
        late = np.flatnonzero(times[1:] <= times[:-1])
        if late.size:
            i = int(late[0]) + 1
            raise ShockOrderError(
                i, f"shock epochs must strictly increase; shock {i} at t = "
                   f"{float(times[i])!r} follows t = {float(times[i - 1])!r}")
        times.setflags(write=False)
        dv.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "shocks", dv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImpulsiveSchedule):
            return NotImplemented
        return bool(np.array_equal(self.times, other.times)
                    and np.array_equal(self.shocks, other.shocks))

    @cached_property
    def total_dv(self) -> float:
        """Summed shock magnitudes, km/s, added in shock order."""
        return float(sum(_row_norm(self.shocks).tolist()))


@dataclass(frozen=True, eq=False)
class ImpulsiveTrajectory:
    """Piecewise-ballistic chain produced by a shock schedule.

    Position is continuous across every shock and velocity jumps by the
    scheduled dv: bit for bit up to one shock after the origin, and
    beyond that to propagate_schedule's shooting tolerance, 1e-13 of the
    state's largest components. Arc i is valid from its epoch to the next arc's
    epoch, the last arc to t_end; a query at a shock epoch returns the
    post-shock state.

    Attributes:
        arcs: Epoch states, one ArcBatch row per ballistic segment, in
            epoch order.
        t_end: End of the last segment, s.
        schedule: The generating schedule.
        origin: State at the start of the chain.
        floor: Altitude floor the chain was checked against, km; a
            burn that stands in for the chain is held to it too.
    """

    arcs: ArcBatch
    t_end: float
    schedule: ImpulsiveSchedule
    origin: StateVector
    floor: float = DEFAULT_FLOOR_KM

    def __post_init__(self):
        object.__setattr__(self, "t_end", float(self.t_end))
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        starts = self.arcs.t0
        if not starts.size or np.any(np.diff(starts, append=self.t_end) < 0):
            raise ValueError(f"need arcs whose epochs ascend to t_end="
                             f"{self.t_end}, got {tuple(starts.tolist())}")

    def states(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at many times, one row each; raises
        ValueError for a time outside the window."""
        times = np.asarray(times, dtype=float)
        starts = self.arcs.t0
        inside = (starts[0] <= times) & (times <= self.t_end)
        if not inside.all():
            raise ValueError(
                f"t={times[~inside][0]} outside trajectory window "
                f"[{starts[0]}, {self.t_end}]")
        r, v, _ = states_at(self.arcs, times,
                            np.searchsorted(starts, times, side="right") - 1)
        return r, v

    def state_at(self, t: float) -> StateVector:
        """State at time t; shock epochs resolve to the post-shock arc."""
        r, v = self.states([t])
        return StateVector(r[0], v[0], t)


@dataclass(frozen=True, eq=False)
class ThrustProfile:
    """Finite-thrust acceleration history.

    Attributes:
        accel: Maps time (s) to an acceleration vector (km/s^2, 3
            components); integrable over the window. integrate_thrust
            calls it 2n + 1 times in all, n the step count it accepts,
            at the window start and each step's midpoint and end;
            shock_approximation and profile_impulse at 8 Gauss nodes per
            sub-interval.
        window: (t_start, t_end) thrusting interval, s, finite.
    """

    accel: Callable[[float], np.ndarray]
    window: tuple[float, float]

    def __post_init__(self):
        a, b = self.window
        object.__setattr__(self, "window", (float(a), float(b)))
        if not -math.inf < self.window[0] < self.window[1] < math.inf:
            raise ValueError(
                f"window must be finite and ordered, got {self.window}")


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Fixed-step integration output: times and stacked (r, v) rows."""

    times: np.ndarray
    rv: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.rv, dtype=float)
        t.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rv", y)

    @property
    def endpoint(self) -> StateVector:
        return StateVector(self.rv[-1, :3], self.rv[-1, 3:],
                           float(self.times[-1]))


# -- operations ----------------------------------------------------------

def rocket_delta_v(isp: float, m_i: float, m_f: float) -> float:
    """Delta-v allowance from propellant mass via the rocket equation.

    dv = isp * g0 * ln(m_i / m_f), returned in km/s with
    g0 = 9.80665e-3 km/s^2.

    Args:
        isp: Specific impulse, s.
        m_i: Initial mass, kg.
        m_f: Final (dry-side) mass, kg.

    Raises:
        ValueError: isp or a mass not positive and finite, or m_f > m_i.
    """
    for name, value in (("isp", isp), ("m_i", m_i), ("m_f", m_f)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if m_f > m_i:
        raise ValueError(f"final mass {m_f} exceeds initial mass {m_i}")
    return isp * G0_KM_S2 * math.log(m_i / m_f)


def propagate_schedule(origin: StateVector, sched: ImpulsiveSchedule,
                       t_end: float, mu: float = MU_EARTH,
                       floor: float = DEFAULT_FLOOR_KM) -> ImpulsiveTrajectory:
    """Piecewise-ballistic propagation of a shock schedule.

    Coasts on Lagrange-coefficient arcs between shock epochs, applies each
    shock in turn, and coasts to t_end. The epoch states of the segments
    are solved together by Newton multiple shooting (_shoot): every pass
    flies each segment as one row of one batch, and a pass that corrects
    takes the closed-form transition matrices of its flight, so the
    chain's kernel calls do not grow with its shock count. A chain of at
    most one shock after the origin is the sequential recurrence's own
    arithmetic, bit for bit. A longer one meets every shock within
    _SHOOTING_TOL (1e-13) of the state's largest components, and agrees
    with the sequential recurrence to 4.3e-13 relative, the worst of
    1,500 random chains measured. Each pass checks the states it has
    converged, with their segments' lowest radii from its own flight
    (_check_chain): the origin's bound test, each shock's floor and
    bound checks on its post-shock state (radius by kepler._row_norm),
    a stalled flight, and each segment's lowest radius against the
    altitude floor. The first failing check in chain order raises, as
    soon as the states up to it are converged; a state that has not
    converged is never read.

    Args:
        origin: State at the start of the window.
        sched: Valid shock schedule; all epochs in [origin.t, t_end].
        t_end: End of the trajectory window, finite, beyond the last
            shock.
        mu: Gravitational parameter.
        floor: Altitude floor, km.

    Returns:
        The trajectory chain, queryable at any t in [origin.t, t_end].

    Raises:
        ValueError: t_end or floor not finite, shock epochs outside the
            window, or t_end not beyond the last shock.
        UnboundResult, SurfaceViolation, EccentricityOutOfRange,
        ConvergenceError: from the offending segment or shock, with its
            index attached.
        WorkCapExceeded: one shooting row per segment, above the
            package's cap.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    _check_floor(floor)
    times = sched.times
    if times.size:
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

    # per segment: its epoch, its end and the shock that starts it (-1
    # for the origin); a shock at the origin epoch starts the first
    at_origin = int(times.size > 0 and times[0] == origin.t)
    shocks = np.arange(at_origin - 1, times.size)
    starts = np.concatenate([[origin.t], times[at_origin:]])
    ends = np.append(starts[1:], t_end)
    _check_work(len(starts), "shooting rows")
    first = np.concatenate(
        [origin.r, origin.v + sched.shocks[0] if at_origin else origin.v])
    # states past a failed check turn to nan or junk, read by no one
    with np.errstate(all="ignore"):
        r0, v0 = _shoot(first, starts, ends, sched.shocks[shocks[1:]], shocks,
                        times.size, mu, EARTH_RADIUS_KM + floor)
    return ImpulsiveTrajectory(arcs=ArcBatch(r0, v0, starts, mu=mu),
                               t_end=t_end, schedule=sched, origin=origin,
                               floor=floor)


def _flight(r, v, t0, t, mu: float):
    """States r, v at epochs t0 flown to t on the deferred-check kernels,
    where a row that is not a bound ellipse turns to nan. A row whose
    Kepler solve stalls is flown again as nan. Returns the _step flight
    and the stalls, {row: ConvergenceError}."""
    stalls = {}
    while True:
        try:
            conic = _conic_of(r, v, _vis_viva(r, v, mu), mu)
            return _step(r, v, t0, conic, t, mu), stalls
        except ConvergenceError as exc:
            if exc.row is None or exc.row in stalls:
                raise
            stalls[exc.row] = exc
            r, v = r.copy(), v.copy()
            r[exc.row] = v[exc.row] = np.nan


def _shoot(first, starts, ends, kicks, shocks, n_shocks: int, mu: float,
           floor_radius: float):
    """Epoch states of a shock chain by Newton multiple shooting
    (Keller 1968), in parareal form (Lions, Maday & Turinici 2001),
    each checked once it has converged.

    Segment j flies from starts[j] to ends[j]; the first starts from
    first, the state (r, v) as 6 components, and segment j >= 1 from
    segment j-1's flight plus kicks[j-1] on the velocity. The guess
    coasts the first state to every later start and adds the dv of
    every shock since. Each pass flies every state X[j] in one batch,
    one row a segment, giving G[j+1] (kick added). The states before the
    first whose residual X[j] - G[j] exceeds _SHOOTING_TOL of its
    largest position or velocity component are converged: _check_chain
    checks them, with their segments' lowest radii and stalls from this
    flight. Once all are, they are returned; otherwise the pass takes
    the 6x6 transition matrices Phi[j] of its flight (kepler._transition)
    and updates the states by _correct. The update never reads the old
    X[j+1], so a nan in a bad guess or past an unbinding shock does not
    stick, and each pass makes exact the first state that was not: the
    chain converges within as many passes as it has segments, and one
    more is the cap.

    Returns:
        (r, v): the epoch states, each (segments, 3).

    Raises:
        FutureConeError: _check_chain's, for the first failing check.
        ConvergenceError: the cap was reached; names the first segment
            not converged.
    """
    k = len(starts)
    x = np.empty((k, 6))
    x[0] = first
    if k > 1:
        (r, v, *_), _ = _flight(np.repeat(x[:1, :3], k - 1, axis=0),
                                np.repeat(x[:1, 3:], k - 1, axis=0),
                                starts[0], starts[1:], mu)
        x[1:, :3], x[1:, 3:] = r, v + np.cumsum(kicks, axis=0)
    cap = k + 1
    for _ in range(cap):
        # the largest position and velocity component of each state
        size = np.abs(x).reshape(k, 2, 3).max(axis=2)
        flight, stalls = _flight(x[:, :3], x[:, 3:], starts, ends, mu)
        r, v, lowest, _ = flight
        g = np.concatenate([r[:-1], v[:-1] + kicks], axis=1)
        resid = np.abs(x[1:] - g).reshape(k - 1, 2, 3).max(axis=2)
        ok = (resid <= _SHOOTING_TOL * size[1:]).all(axis=1)
        done = k if ok.all() else int(np.argmin(ok)) + 1
        _check_chain(x[:done, :3], x[:done, 3:], lowest[:done], stalls,
                     shocks[:done], n_shocks, mu, floor_radius)
        if done == k:
            return x[:, :3], x[:, 3:]
        x = _correct(x, g, _transition(x[:, :3], x[:, 3:], flight, mu))
    j = int(np.argmin(ok)) + 1
    raise ConvergenceError(
        f"{_segment_label(shocks[j], n_shocks)}: epoch state not converged "
        f"after {cap} shooting passes, residual {float(resid[j - 1].max())!r}")


def _correct(x, g, phi):
    """_shoot's update of epoch states x (k, 6) from their predecessors'
    flights g (kicks added) and those flights' transition matrices phi,
    which it overwrites. Up to the first state off its predecessor's
    flight, each takes that flight; each later one follows new[j] =
    phi[j-1] new[j-1] + g[j-1] - phi[j-1] x[j-1], by an inclusive scan
    of these affine maps (Hillis & Steele 1986)."""
    new = x.copy()
    off = int(np.argmin((x[1:] == g).all(axis=1))) + 1
    new[1:off + 1] = g[:off]
    new[off + 1:] = g[off:] - (phi[off:-1] @ x[off:-1, :, None])[..., 0]
    # after stride d, b[i] has the maps of rows (i - 2d, i] applied, and
    # a[i] is their product where i >= 2d, the rows the next stride reads
    b, a = new[off:], phi[off - 1:-1]
    d = 1
    while d < len(b):
        b[d:] += (a[d:] @ b[:-d, :, None])[..., 0]
        a[2 * d:] = a[2 * d:] @ a[d:-d]
        d *= 2
    return new


def _segment_label(shock: int, n_shocks: int) -> str:
    """How a chain error names the segment that starts at shock (-1 for
    the origin)."""
    return (f"segment before shock {shock + 1}" if shock + 1 < n_shocks
            else "final segment")


def _check_chain(r0, v0, lowest, stalls, shocks, n_shocks: int, mu: float,
                 floor_radius: float) -> None:
    """propagate_schedule's checks on converged segments, given their
    epoch states, their lowest radii and the stalls ({row:
    ConvergenceError}) of one flight, and their starting shocks (-1 for
    the origin). In chain order, a segment fails on its shock's floor
    test (radius by kepler._row_norm), its state's bound test (the
    shock's, or the origin's), a stalled flight, or a lowest radius
    below the floor; the first failure raises, labelled with its shock
    or segment."""
    rn, *_, bound = ellipse = _ellipse(r0, v0, mu)
    low = (shocks >= 0) & (rn < floor_radius)
    failed = low | ~bound | (lowest < floor_radius)
    k = min([*np.flatnonzero(failed)[:1].tolist(), *stalls],
            default=len(failed))
    if k >= len(failed):
        return
    shock = int(shocks[k])
    if low[k]:
        raise SurfaceViolation(
            f"shock {shock}: state radius {float(rn[k])!r} km is below the "
            f"floor radius {floor_radius!r} km")
    if shock >= 0 and not bound[k]:
        raise UnboundResult(
            f"shock {shock}: post-shock state is unbound or rectilinear: "
            f"|v| = {float(np.linalg.norm(v0[k]))!r} km/s at r = "
            f"{float(rn[k])!r} km")
    try:
        # the origin's bound test: a shock's state here is bound
        _require_bound(tuple(field[k:k + 1] for field in ellipse))
        if k in stalls:
            raise stalls[k]
        raise SurfaceViolation(
            f"segment dips to radius {float(lowest[k])!r} km, below "
            f"the floor radius {floor_radius!r} km")
    except FutureConeError as exc:
        raise type(exc)(f"{_segment_label(shock, n_shocks)}: {exc}") from exc


def _as_accel(value) -> list[float]:
    """value as a thrust acceleration, its three components as floats; a
    ValueError that names accel unless it is 3 finite components."""
    thrust = np.asarray(value, dtype=float)
    if thrust.shape != (3,):
        raise ValueError(f"accel must return 3 components, got an array of "
                         f"shape {thrust.shape}")
    components = thrust.tolist()
    if not all(map(math.isfinite, components)):
        raise ValueError(f"accel must return finite components, got {thrust}")
    return components


def integrate_thrust(origin: StateVector, profile: ThrustProfile,
                     mu: float = MU_EARTH,
                     floor: float = DEFAULT_FLOOR_KM) -> SampledTrajectory:
    """Fixed-step RK4 integration of gravity plus the thrust profile.

    Integrates dr/dt = v, dv/dt = -mu r/|r|^3 + accel(t) over the profile
    window. The step count doubles from 64 until halving it moves the
    endpoint by less than _SETTLE_TOL relative to the position scale.
    A resolution of n steps takes the thrust at t0 + k (t1 - t0) / 2n,
    k = 0..2n, and its even samples are the coarser resolution's, so
    the accepted n has sampled 2n + 1 times in all, each checked when
    first taken. The recurrence runs on six floats, every radius summed
    in kepler._row_norm's order, and the floor and bound checks run
    after every step.

    Args:
        origin: State at the window start; epochs must agree.
        profile: Thrust acceleration history.
        mu: Gravitational parameter.
        floor: Altitude floor, km.

    Returns:
        SampledTrajectory over the window at the accepted resolution.

    Raises:
        ValueError: origin epoch off the window start, floor not finite,
            or accel returned other than 3 finite components.
        SurfaceViolation, UnboundResult: first violation time attached.
        WorkCapExceeded: the endpoint has not settled at _MAX_STEPS
            steps.
    """
    t0, t1 = profile.window
    if origin.t != t0:
        raise ValueError(
            f"origin epoch {origin.t} must equal the window start {t0}")
    _check_floor(floor)
    floor_radius = EARTH_RADIUS_KM + floor
    accel = profile.accel

    def run(n_steps: int, coarse: list) -> tuple[np.ndarray, np.ndarray, list]:
        if n_steps > _MAX_STEPS:
            raise WorkCapExceeded(
                f"endpoint did not settle to {_SETTLE_TOL} within the cap of "
                f"{_MAX_STEPS} steps")
        h = (t1 - t0) / n_steps
        half, sixth = h / 2.0, h / 6.0
        x, y, z = origin.r.tolist()
        u, v, w = origin.v.tolist()
        rn = math.sqrt(x * x + y * y + z * z)
        times = [t0]
        rows = [(x, y, z, u, v, w)]
        # sample k is at t0 + k * half, a coarser run's sample j is 2j's
        samples = [coarse[0] if coarse else _as_accel(accel(t0))]
        for i in range(n_steps):
            t = t0 + i * h
            ax, ay, az = samples[-1]
            mid = mx, my, mz = _as_accel(accel(t0 + (2 * i + 1) * half))
            last = bx, by, bz = (coarse[i + 1] if coarse else
                                 _as_accel(accel(t0 + (2 * i + 2) * half)))
            samples += mid, last
            # stage k's state is (xk, yk, zk, uk, vk, wk), stage 1 the
            # step's start; its rates are its velocity and (duk, dvk, dwk)
            c = -mu / rn**3
            du1, dv1, dw1 = c * x + ax, c * y + ay, c * z + az
            x2, y2, z2 = x + half * u, y + half * v, z + half * w
            u2, v2, w2 = u + half * du1, v + half * dv1, w + half * dw1
            c = -mu / math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)**3
            du2, dv2, dw2 = c * x2 + mx, c * y2 + my, c * z2 + mz
            x3, y3, z3 = x + half * u2, y + half * v2, z + half * w2
            u3, v3, w3 = u + half * du2, v + half * dv2, w + half * dw2
            c = -mu / math.sqrt(x3 * x3 + y3 * y3 + z3 * z3)**3
            du3, dv3, dw3 = c * x3 + mx, c * y3 + my, c * z3 + mz
            x4, y4, z4 = x + h * u3, y + h * v3, z + h * w3
            u4, v4, w4 = u + h * du3, v + h * dv3, w + h * dw3
            c = -mu / math.sqrt(x4 * x4 + y4 * y4 + z4 * z4)**3
            du4, dv4, dw4 = c * x4 + bx, c * y4 + by, c * z4 + bz
            x = x + sixth * (u + 2.0 * u2 + 2.0 * u3 + u4)
            y = y + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
            z = z + sixth * (w + 2.0 * w2 + 2.0 * w3 + w4)
            u = u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
            v = v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            w = w + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            rn = math.sqrt(x * x + y * y + z * z)
            if rn < floor_radius:
                raise SurfaceViolation(
                    f"radius {rn!r} km below floor at t={t + h!r} s")
            if (u * u + v * v + w * w) / 2.0 - mu / rn >= 0.0:
                raise UnboundResult(f"state unbound at t={t + h!r} s")
            times.append(t + h)
            rows.append((x, y, z, u, v, w))
        return np.array(times), np.array(rows), samples

    scale = float(_row_norm(origin.r))
    n = 64
    _, rows, samples = run(n, [])
    while True:
        n *= 2
        end = rows[-1, :3]
        times, rows, samples = run(n, samples)
        if float(_row_norm(rows[-1, :3] - end)) / scale < _SETTLE_TOL:
            return SampledTrajectory(times=times, rv=rows)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _thrust_at_nodes(profile: ThrustProfile,
                     n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window in n equal sub-intervals, and the acceleration at each
    one's Gauss-Legendre nodes.

    Returns:
        (mid, half, accel): sub-interval midpoints and half-widths, shape
        (n,), and the acceleration at every node, shape (8, n, 3).

    Raises:
        ValueError: n < 1, or accel returned other than 3 finite
            components at some node (the first such value is named).
        WorkCapExceeded: 8n nodes above the package's cap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_work(len(_GAUSS_NODES) * n, "thrust nodes")
    edges = np.linspace(*profile.window, n + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    values = [[profile.accel(t) for t in (mid + half * node).tolist()]
              for node in _GAUSS_NODES]
    try:
        accel = np.array(values, dtype=float)
    except ValueError:
        accel = None  # values of more than one shape
    if accel is None or accel.shape[2:] != (3,) or not np.isfinite(accel).all():
        # refuse the first value that is not 3 finite components
        for row in values:
            for value in row:
                _as_accel(value)
    return mid, half, accel


def shock_approximation(profile: ThrustProfile, n: int) -> ImpulsiveSchedule:
    """Step-function reduction of a thrust profile to n midpoint shocks.

    The window splits into n equal sub-intervals; sub-interval i
    contributes a shock at its midpoint carrying the integrated
    acceleration over that sub-interval (Gauss-Legendre quadrature).
    Zero-impulse sub-intervals are dropped, so a zero profile reduces to
    an empty schedule.

    Args:
        profile: Thrust acceleration history.
        n: Number of sub-intervals, >= 1.

    Raises:
        ValueError: n < 1, or accel returned other than 3 finite
            components at some node.
        ShockError: a sub-interval's integrated dv is not finite.
        WorkCapExceeded: 8n quadrature nodes above the package's cap.
    """
    mid, half, accel = _thrust_at_nodes(profile, n)
    # an integral that overflows is refused by the schedule, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        # summed node by node in quadrature order, as a per-shock loop would
        dv = np.zeros((n, 3))
        for weight, at_node in zip(_GAUSS_WEIGHTS, accel):
            dv += weight * at_node
        dv *= half[:, None]
        # nan != 0, so a row that is not finite is kept for the schedule
        # to refuse
        keep = _row_norm(dv) != 0.0
    return ImpulsiveSchedule(mid[keep], dv[keep])


def profile_impulse(profile: ThrustProfile, n: int = 512) -> float:
    """Numerical total impulse of a profile: integral of |accel(t)| dt
    over n >= 1 equal sub-intervals (ValueError for n < 1)."""
    _, half, accel = _thrust_at_nodes(profile, n)
    return float(_GAUSS_WEIGHTS @ _row_norm(accel) @ half)
