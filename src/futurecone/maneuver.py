"""Propulsive trajectory models over the ballistic core.

Impulsive shock schedules (piecewise-ballistic chains with instantaneous
velocity jumps, held as an array of epochs and an array of dv rows), the
rocket equation for converting propellant mass to a delta-v allowance,
and a continuous-thrust integrator with its step-function shock
approximation. The approximation converging onto the integrated
trajectory as the step count grows is what licenses treating finite
thrust inside the impulsive framework.
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
    _check_work,
)
from .kepler import (
    ArcBatch,
    StateVector,
    _conic_of,
    _ellipse,
    _fly,
    _require_bound,
    _row_norm,
    _step,
    _vis_viva,
    states_at,
)

# RK4 steps one integrate_thrust resolution may take. Engagement-scale
# burns settle at 128-256 steps.
_MAX_STEPS = 2**16
# integrate_thrust accepts a step count once halving it moves the
# endpoint by less than this, relative to the position scale.
_SETTLE_TOL = 1e-8


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

    Position is continuous across every shock; velocity jumps by exactly
    the scheduled dv. Arc i is valid from its epoch to the next arc's
    epoch, the last arc to t_end; a query at a shock epoch returns the
    post-shock state.

    Attributes:
        arcs: Epoch states, one ArcBatch row per ballistic segment, in
            epoch order.
        t_end: End of the last segment, s.
        schedule: The generating schedule.
        origin: State at the start of the chain.
    """

    arcs: ArcBatch
    t_end: float
    schedule: ImpulsiveSchedule
    origin: StateVector

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
            components); integrable over the window.
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


def _refuse_shock(rn: float, bound: bool, v, floor_radius: float) -> None:
    """A shock's floor and bound checks on its post-shock state, given
    its radius (kepler._row_norm) and its bound test (kepler._ellipse)."""
    if rn < floor_radius:
        raise SurfaceViolation(
            f"state radius {rn!r} km is below the floor radius "
            f"{floor_radius!r} km")
    if not bound:
        raise UnboundResult(
            f"post-shock state is unbound or rectilinear: |v| = "
            f"{float(np.linalg.norm(v))!r} km/s at r = {rn!r} km")


def propagate_schedule(origin: StateVector, sched: ImpulsiveSchedule,
                       t_end: float, mu: float = MU_EARTH,
                       floor: float = DEFAULT_FLOOR_KM) -> ImpulsiveTrajectory:
    """Piecewise-ballistic propagation of a shock schedule.

    Coasts on Lagrange-coefficient arcs between shock epochs, applies each
    shock in turn, and coasts to t_end. The recurrence only flies: each
    segment derives its conic once, steps to its end and takes the next
    shock's dv, and its epoch state is kept as its row of the trajectory.
    The checks run once after it, over all epoch states in one batch: the
    origin's bound test, each shock's floor and bound checks on its
    post-shock state (the radius is kepler._row_norm, as in the segment
    checks) and each segment's lowest in-window radius against the
    altitude floor.
    The first failing check in chain order raises; a state past it is
    never read. A segment whose flight raises inside the recurrence is
    reported after the checks before it.

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
        ValueError: t_end not finite, shock epochs outside the window,
            or t_end not beyond the last shock.
        UnboundResult, SurfaceViolation, EccentricityOutOfRange,
        ConvergenceError: from the offending segment or shock, with its
            index attached.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
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

    # per segment: its epoch state, its end and the shock that starts it
    # (-1 for the origin), listed before it is flown
    segments: list[tuple] = []
    stalled = None  # the ConvergenceError of the segment last listed

    def fly(r, v, t: float, until: float, shock: int):
        segments.append((r, v, t, until, shock))
        return _step(r, v, t, _conic_of(r, v, _vis_viva(r, v, mu), mu),
                     until, mu)

    # states past a failed check turn to nan or junk, read by no one
    with np.errstate(all="ignore"):
        r, v, t, shock = origin.r[None], origin.v[None], origin.t, -1
        try:
            for i, (t_shock, dv) in enumerate(zip(times, sched.shocks)):
                if t_shock > t:
                    r, v = fly(r, v, t, t_shock, shock)[:2]
                t, v, shock = t_shock, v + dv, i
            fly(r, v, t, t_end, shock)
        except ConvergenceError as exc:
            stalled = exc
        r0, v0, t0, ends, shocks = zip(*segments)
        r0, v0 = np.concatenate(r0), np.concatenate(v0)
        _check_chain(r0, v0, np.array(t0), np.array(ends), np.array(shocks),
                     stalled, len(times), mu, EARTH_RADIUS_KM + floor)
    return ImpulsiveTrajectory(arcs=ArcBatch(r0, v0, t0, mu=mu), t_end=t_end,
                               schedule=sched, origin=origin)


def _check_chain(r0, v0, t0, ends, shocks, stalled, n_shocks: int,
                 mu: float, floor_radius: float) -> None:
    """propagate_schedule's checks on all segments at once, given their
    epoch states, ends and starting shocks (-1 for the origin). Raises
    for the first failing check in chain order, labelled with its shock
    or segment. With a stalled flight, the last segment is the one that
    raised, and it has no lowest radius."""
    ellipse = _ellipse(r0, v0, mu)
    rn, alpha, _, _, _, bound = ellipse
    flown = len(t0) - (stalled is not None)
    _, _, lowest = _fly(r0[:flown], v0[:flown], t0[:flown],
                        _conic_of(r0[:flown], v0[:flown],
                                  (rn[:flown], alpha[:flown]), mu),
                        ends[:flown], mu)
    failed = ~bound | ((shocks >= 0) & (rn < floor_radius))
    failed[:flown] |= lowest < floor_radius
    if np.count_nonzero(failed):
        k = int(np.argmax(failed))
    elif stalled is not None:
        k = flown
    else:
        return
    shock = int(shocks[k])
    if shock >= 0:
        try:
            _refuse_shock(float(rn[k]), bool(bound[k]), v0[k],
                          floor_radius)
        except FutureConeError as exc:
            raise type(exc)(f"shock {shock}: {exc}") from exc
    label = (f"segment before shock {shock + 1}" if shock + 1 < n_shocks
             else "final segment")
    try:
        if shock < 0:
            _require_bound(tuple(field[k:k + 1] for field in ellipse))
        if k == flown:
            raise stalled
        raise SurfaceViolation(
            f"segment dips to radius {float(lowest[k])!r} km, below "
            f"the floor radius {floor_radius!r} km")
    except FutureConeError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def _as_accel(value) -> np.ndarray:
    """value as a thrust acceleration; a ValueError that names accel
    unless it is 3 finite components."""
    thrust = np.asarray(value, dtype=float)
    if thrust.shape != (3,):
        raise ValueError(f"accel must return 3 components, got an array of "
                         f"shape {thrust.shape}")
    if not all(map(math.isfinite, thrust.tolist())):
        raise ValueError(f"accel must return finite components, got {thrust}")
    return thrust


def integrate_thrust(origin: StateVector, profile: ThrustProfile,
                     mu: float = MU_EARTH,
                     floor: float = DEFAULT_FLOOR_KM) -> SampledTrajectory:
    """Fixed-step RK4 integration of gravity plus the thrust profile.

    Integrates dr/dt = v, dv/dt = -mu r/|r|^3 + accel(t) over the profile
    window. The step count doubles from 64 until halving it moves the
    endpoint by less than _SETTLE_TOL relative to the position scale.

    Args:
        origin: State at the window start; epochs must agree.
        profile: Thrust acceleration history.
        mu: Gravitational parameter.
        floor: Altitude floor, km.

    Returns:
        SampledTrajectory over the window at the accepted resolution.

    Raises:
        ValueError: origin epoch differs from the window start, or accel
            returned other than 3 finite components.
        SurfaceViolation, UnboundResult: first violation time attached.
        WorkCapExceeded: the endpoint has not settled at _MAX_STEPS
            steps.
    """
    t0, t1 = profile.window
    if origin.t != t0:
        raise ValueError(
            f"origin epoch {origin.t} must equal the window start {t0}")
    floor_radius = EARTH_RADIUS_KM + floor

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r = y[:3]
        rn = float(np.linalg.norm(r))
        return np.concatenate([y[3:], -mu / rn**3 * r
                               + _as_accel(profile.accel(t))])

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
    return float(_GAUSS_WEIGHTS @ np.linalg.norm(accel, axis=2) @ half)
