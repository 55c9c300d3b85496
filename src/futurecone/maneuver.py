"""Propulsive trajectory models over the ballistic core.

Impulsive shock schedules (piecewise-ballistic chains with instantaneous
velocity jumps), the rocket equation for converting propellant mass to a
delta-v allowance, and a continuous-thrust integrator with its
step-function shock approximation. The approximation converging onto the
integrated trajectory as the step count grows is what licenses treating
finite thrust inside the impulsive framework.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM, G0_KM_S2, MU_EARTH
from .errors import (
    ConvergenceError,
    FutureConeError,
    SurfaceViolation,
    UnboundResult,
)
from .kepler import (
    BallisticArc,
    StateVector,
    arc_from_state,
    min_radius,
    state_at,
)

_BUDGET_SLACK = 1e-12  # float headroom on the schedule budget check


@dataclass(frozen=True, eq=False)
class ShockEvent:
    """One instantaneous velocity change.

    Attributes:
        t: Impulse epoch, s.
        dv: Velocity increment, km/s (3 components).
    """

    t: float
    dv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        dv = np.asarray(self.dv, dtype=float).copy()
        if dv.shape != (3,):
            raise ValueError(f"dv must have 3 components, got {dv.shape}")
        if not np.all(np.isfinite(dv)):
            raise ValueError(f"dv must be finite, got {dv}")
        dv.setflags(write=False)
        object.__setattr__(self, "dv", dv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShockEvent):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.dv, other.dv)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.dv))


@dataclass(frozen=True, eq=False)
class ImpulsiveSchedule:
    """Ordered shocks under a total delta-v allowance.

    Attributes:
        shocks: Shock events with strictly increasing epochs.
        budget: Total allowance, km/s; the sum of shock magnitudes may
            not exceed it.
    """

    shocks: tuple[ShockEvent, ...]
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "shocks", tuple(self.shocks))
        object.__setattr__(self, "budget", float(self.budget))
        if self.budget < 0.0:
            raise ValueError(f"budget must be nonnegative, got {self.budget}")
        times = [s.t for s in self.shocks]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"shock times must be strictly increasing: {times}")
        if self.total_dv > self.budget + _BUDGET_SLACK:
            raise ValueError(
                f"schedule spends {self.total_dv!r} km/s, over the "
                f"{self.budget!r} km/s budget")

    @property
    def total_dv(self) -> float:
        return float(sum(s.magnitude for s in self.shocks))


@dataclass(frozen=True, eq=False)
class ImpulsiveTrajectory:
    """Piecewise-ballistic chain produced by a shock schedule.

    Position is continuous across every shock; velocity jumps by exactly
    the scheduled dv. Arc i is valid on windows[i]; windows abut at shock
    epochs and a query at a shock epoch returns the post-shock state.

    Attributes:
        arcs: Conic descriptors, one per ballistic segment.
        windows: (start, end) validity interval per arc, s.
        schedule: The generating schedule.
        origin: State at the start of the chain.
    """

    arcs: tuple[BallisticArc, ...]
    windows: tuple[tuple[float, float], ...]
    schedule: ImpulsiveSchedule
    origin: StateVector

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "windows",
                           tuple((float(a), float(b)) for a, b in self.windows))
        if len(self.arcs) != len(self.windows):
            raise ValueError("one validity window per arc required")
        if any(b < a for a, b in self.windows):
            raise ValueError(f"windows must be ordered: {self.windows}")
        starts = [w[0] for w in self.windows]
        if any(s2 < s1 for s1, s2 in zip(starts, starts[1:])):
            raise ValueError("windows must be in ascending order")

    @property
    def t_start(self) -> float:
        return self.windows[0][0]

    @property
    def t_end(self) -> float:
        return self.windows[-1][1]

    def state_at(self, t: float) -> StateVector:
        """State at time t; shock epochs resolve to the post-shock arc."""
        if not self.t_start <= t <= self.t_end:
            raise ValueError(
                f"t={t} outside trajectory window "
                f"[{self.t_start}, {self.t_end}]")
        starts = [w[0] for w in self.windows]
        idx = max(0, bisect_right(starts, t) - 1)
        return state_at(self.arcs[idx], t)


@dataclass(frozen=True, eq=False)
class ThrustProfile:
    """Finite-thrust acceleration history.

    Attributes:
        accel: Maps time (s) to an acceleration vector (km/s^2);
            integrable over the window.
        window: (t_start, t_end) thrusting interval, s.
    """

    accel: Callable[[float], np.ndarray]
    window: tuple[float, float]

    def __post_init__(self):
        a, b = self.window
        object.__setattr__(self, "window", (float(a), float(b)))
        if not self.window[0] < self.window[1]:
            raise ValueError(f"window must be ordered, got {self.window}")


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
        ValueError: nonpositive isp or masses, or m_f > m_i.
    """
    if isp <= 0.0:
        raise ValueError(f"isp must be positive, got {isp}")
    if m_f <= 0.0 or m_i <= 0.0:
        raise ValueError(f"masses must be positive, got m_i={m_i}, m_f={m_f}")
    if m_f > m_i:
        raise ValueError(f"final mass {m_f} exceeds initial mass {m_i}")
    return isp * G0_KM_S2 * math.log(m_i / m_f)


def apply_shock(s: StateVector, dv, mu: float = MU_EARTH,
                floor: float = DEFAULT_FLOOR_KM) -> StateVector:
    """Instantaneous velocity change: position and epoch unchanged.

    Args:
        s: Pre-shock state.
        dv: Velocity increment, km/s (3 components).
        mu: Gravitational parameter.
        floor: Altitude floor, km above the spherical surface.

    Returns:
        Post-shock state on a bound arc.

    Raises:
        UnboundResult: post-shock orbit has e >= 1.
        SurfaceViolation: the state sits below the altitude floor.
    """
    dv = np.asarray(dv, dtype=float)
    post = StateVector(r=s.r, v=s.v + dv, t=s.t)
    floor_radius = EARTH_RADIUS_KM + floor
    rn = float(np.linalg.norm(post.r))
    if rn < floor_radius:
        raise SurfaceViolation(
            f"state radius {rn!r} km is below the floor radius "
            f"{floor_radius!r} km")
    try:
        arc_from_state(post, mu)
    except FutureConeError as exc:
        raise UnboundResult(f"post-shock state is not bound: {exc}") from exc
    return post


def propagate_schedule(origin: StateVector, sched: ImpulsiveSchedule,
                       t_end: float, mu: float = MU_EARTH,
                       floor: float = DEFAULT_FLOOR_KM) -> ImpulsiveTrajectory:
    """Piecewise-ballistic propagation of a shock schedule.

    Coasts on Lagrange-coefficient arcs between shock epochs, applies each
    shock in turn, and coasts to t_end. Every ballistic segment is checked
    against the altitude floor at its lowest in-window point.

    Args:
        origin: State at the start of the window.
        sched: Valid shock schedule; all epochs in [origin.t, t_end].
        t_end: End of the trajectory window, beyond the last shock.
        mu: Gravitational parameter.
        floor: Altitude floor, km.

    Returns:
        The trajectory chain, queryable at any t in [origin.t, t_end].

    Raises:
        ValueError: shock epochs outside the window, or t_end not beyond
            the last shock.
        UnboundResult, SurfaceViolation, EccentricityOutOfRange: from the
            offending segment or shock, with its index attached.
    """
    if sched.shocks:
        if sched.shocks[0].t < origin.t:
            raise ValueError(
                f"first shock at t={sched.shocks[0].t} precedes the origin "
                f"epoch {origin.t}")
        if t_end <= sched.shocks[-1].t:
            raise ValueError(
                f"t_end={t_end} must lie beyond the last shock at "
                f"t={sched.shocks[-1].t}")
    elif t_end < origin.t:
        raise ValueError(f"t_end={t_end} precedes the origin epoch {origin.t}")

    floor_radius = EARTH_RADIUS_KM + floor
    arcs: list[BallisticArc] = []
    windows: list[tuple[float, float]] = []
    current = origin

    def coast(state: StateVector, until: float, label: str) -> StateVector:
        try:
            arc = arc_from_state(state, mu)
            lowest = min_radius(arc, state.t, until)
            if lowest < floor_radius:
                raise SurfaceViolation(
                    f"segment dips to radius {lowest!r} km, below the "
                    f"floor radius {floor_radius!r} km")
        except FutureConeError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
        arcs.append(arc)
        windows.append((state.t, until))
        return state if until == state.t else state_at(arc, until)

    for i, shock in enumerate(sched.shocks):
        if shock.t > current.t:
            current = coast(current, shock.t, f"segment before shock {i}")
        try:
            current = apply_shock(current, shock.dv, mu, floor)
        except FutureConeError as exc:
            raise type(exc)(f"shock {i}: {exc}") from exc
    coast(current, t_end, "final segment")
    return ImpulsiveTrajectory(arcs=tuple(arcs), windows=tuple(windows),
                               schedule=sched, origin=origin)


def integrate_thrust(origin: StateVector, profile: ThrustProfile,
                     mu: float = MU_EARTH,
                     floor: float = DEFAULT_FLOOR_KM,
                     rel_tol: float = 1e-8) -> SampledTrajectory:
    """Fixed-step RK4 integration of gravity plus the thrust profile.

    Integrates dr/dt = v, dv/dt = -mu r/|r|^3 + accel(t) over the profile
    window. The step count doubles until halving it moves the endpoint by
    less than rel_tol relative to the position scale.

    Args:
        origin: State at the window start; epochs must agree.
        profile: Thrust acceleration history.
        mu: Gravitational parameter.
        floor: Altitude floor, km.
        rel_tol: Endpoint self-convergence target.

    Returns:
        SampledTrajectory over the window at the accepted resolution.

    Raises:
        ValueError: origin epoch differs from the window start.
        SurfaceViolation, UnboundResult: first violation time attached.
        ConvergenceError: step halving fails to settle.
    """
    t0, t1 = profile.window
    if origin.t != t0:
        raise ValueError(
            f"origin epoch {origin.t} must equal the window start {t0}")
    floor_radius = EARTH_RADIUS_KM + floor

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r = y[:3]
        rn = float(np.linalg.norm(r))
        acc = -mu / rn**3 * r + np.asarray(profile.accel(t), dtype=float)
        return np.concatenate([y[3:], acc])

    def run(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
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
    times, rows = run(n)
    while n <= (1 << 20):
        n *= 2
        times2, rows2 = run(n)
        shift = float(np.linalg.norm(rows2[-1, :3] - rows[-1, :3]))
        times, rows = times2, rows2
        if shift / scale < rel_tol:
            return SampledTrajectory(times=times, rv=rows)
    raise ConvergenceError(
        f"endpoint did not settle to {rel_tol} after {n} steps")


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def shock_approximation(profile: ThrustProfile, n: int) -> ImpulsiveSchedule:
    """Step-function reduction of a thrust profile to n midpoint shocks.

    The window splits into n equal sub-intervals; sub-interval i
    contributes a shock at its midpoint carrying the integrated
    acceleration over that sub-interval (Gauss-Legendre quadrature).
    Zero-impulse sub-intervals are dropped, so a zero profile reduces to
    an empty schedule. The schedule budget is the delta-v actually spent.

    Args:
        profile: Thrust acceleration history.
        n: Number of sub-intervals, >= 1.

    Raises:
        ValueError: n < 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t0, t1 = profile.window
    edges = np.linspace(t0, t1, n + 1)
    shocks: list[ShockEvent] = []
    for a, b in zip(edges, edges[1:]):
        half = (b - a) / 2.0
        mid = (a + b) / 2.0
        dv = np.zeros(3)
        for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            dv += weight * np.asarray(profile.accel(mid + half * node),
                                      dtype=float)
        dv *= half
        if float(np.linalg.norm(dv)) > 0.0:
            shocks.append(ShockEvent(t=mid, dv=dv))
    total = float(sum(s.magnitude for s in shocks))
    return ImpulsiveSchedule(shocks=tuple(shocks), budget=total)


def profile_impulse(profile: ThrustProfile, n: int = 512) -> float:
    """Numerical total impulse of a profile: integral of |accel(t)| dt."""
    t0, t1 = profile.window
    edges = np.linspace(t0, t1, n + 1)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        half = (b - a) / 2.0
        mid = (a + b) / 2.0
        for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            total += weight * float(np.linalg.norm(
                profile.accel(mid + half * node))) * half
    return total
