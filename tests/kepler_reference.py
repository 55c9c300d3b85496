"""Scalar Kepler machinery in plain floating point: the test oracle.

One state or arc at a time, with the `math` module and no arrays. The
array kernels of futurecone.kepler must agree with these functions row
by row; the package's own scalar functions are one-row views of those
kernels, so they are checked against this module too.
"""
from __future__ import annotations

import math

import numpy as np

from futurecone.constants import MU_EARTH
from futurecone.errors import ConvergenceError, EccentricityOutOfRange
from futurecone.kepler import (
    BallisticArc,
    StateVector,
    mean_motion,
    time_of_flight,
)

_KEPLER_TOL = 1e-14  # internal target; contract promises < 1e-12
_KEPLER_MAX_ITER = 50
_CIRCULAR_E = 1e-10


def solve_kepler(M: float, e: float) -> float:
    """Solve Kepler's equation E - e*sin(E) = M for the eccentric anomaly.

    Newton iteration from E = M + e*sin(M), falling back to bisection on
    [M - e, M + e] if Newton stalls. M may be any finite value; it is
    reduced mod 2*pi internally and the returned E lies in the same 2*pi
    branch as M.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    if not math.isfinite(M):
        raise ValueError(f"mean anomaly must be finite, got {M}")
    branch = 2.0 * math.pi * math.floor(M / (2.0 * math.pi))
    Mr = M - branch
    E = Mr + e * math.sin(Mr)
    for _ in range(_KEPLER_MAX_ITER):
        resid = E - e * math.sin(E) - Mr
        if abs(resid) < _KEPLER_TOL:
            return E + branch
        E -= resid / (1.0 - e * math.cos(E))
        if not (Mr - e - 0.5 <= E <= Mr + e + 0.5):
            break  # Newton left the bracket; bisection below
    lo, hi = Mr - e, Mr + e
    for _ in range(200):
        E = 0.5 * (lo + hi)
        resid = E - e * math.sin(E) - Mr
        if abs(resid) < _KEPLER_TOL:
            return E + branch
        if resid < 0.0:
            lo = E
        else:
            hi = E
    raise ConvergenceError(
        f"Kepler solve did not converge for M={M!r}, e={e!r}")


def true_from_eccentric(E: float, e: float) -> float:
    """True anomaly from eccentric anomaly, branch-preserving."""
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    beta = e / (1.0 + math.sqrt(1.0 - e * e))
    return E + 2.0 * math.atan2(beta * math.sin(E), 1.0 - beta * math.cos(E))


def eccentric_from_true(f: float, e: float) -> float:
    """Eccentric anomaly from true anomaly; inverse of true_from_eccentric."""
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    beta = e / (1.0 + math.sqrt(1.0 - e * e))
    return f - 2.0 * math.atan2(beta * math.sin(f), 1.0 + beta * math.cos(f))


def arc_from_state(s: StateVector, mu: float = MU_EARTH) -> BallisticArc:
    """Classical-element arc descriptor from a Cartesian state.

    Raises:
        EccentricityOutOfRange: unbound or rectilinear state
            (a <= 0, e >= 1, or p = 0).
    """
    r = s.r
    v = s.v
    rn = float(np.linalg.norm(r))
    v2 = float(v @ v)
    alpha = 2.0 / rn - v2 / mu  # 1/a
    if alpha <= 0.0:
        raise EccentricityOutOfRange(
            f"state is unbound: 2/r - v^2/mu = {alpha!r} <= 0")
    a = 1.0 / alpha
    h = np.cross(r, v)
    p = float(h @ h) / mu
    if p <= 0.0:
        raise EccentricityOutOfRange("rectilinear state: r x v = 0")
    e2 = 1.0 - p / a
    e = math.sqrt(e2) if e2 > 0.0 else 0.0
    if e >= 1.0:
        raise EccentricityOutOfRange(f"eccentricity {e!r} >= 1")
    sigma0 = float(r @ v) / math.sqrt(mu)
    # e*cos(f0) = p/r - 1 and e*sin(f0) = sigma0*sqrt(p)/r; atan2 keeps
    # full precision near the apsides, where acos of the cosine does not
    f0 = 0.0 if e < _CIRCULAR_E else math.atan2(sigma0 * math.sqrt(p) / rn,
                                                p / rn - 1.0)
    E0 = eccentric_from_true(f0, e)
    n = mean_motion(a, mu)
    tau = s.t - (E0 - e * math.sin(E0)) / n
    return BallisticArc(a=a, e=e, p=p, sigma0=sigma0, f0=f0, E0=E0,
                        tau=tau, r0=s, mu=mu)


def _lagrange_step(arc: BallisticArc, theta: float, t1: float) -> StateVector:
    """Advance arc.r0 by true-anomaly change theta; epoch stamped t1."""
    f1 = arc.f0 + theta
    r1n = arc.p / (1.0 + arc.e * math.cos(f1))
    r0n = float(np.linalg.norm(arc.r0.r))
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    sqrt_mu = math.sqrt(arc.mu)
    F = 1.0 - (r1n / arc.p) * (1.0 - cos_t)
    G = r1n * r0n * sin_t / (sqrt_mu * math.sqrt(arc.p))
    Ft = sqrt_mu / (r0n * arc.p) * (arc.sigma0 * (1.0 - cos_t)
                                    - math.sqrt(arc.p) * sin_t)
    Gt = 1.0 - (r0n / arc.p) * (1.0 - cos_t)
    return StateVector(r=F * arc.r0.r + G * arc.r0.v,
                       v=Ft * arc.r0.r + Gt * arc.r0.v,
                       t=t1)


def state_at(arc: BallisticArc, t: float) -> StateVector:
    """State on an arc at absolute time t (Kepler inversion)."""
    if t == arc.r0.t:
        return arc.r0
    n = mean_motion(arc.a, arc.mu)
    M = n * (t - arc.tau)
    E = solve_kepler(M, arc.e)
    f = true_from_eccentric(E, arc.e)
    return _lagrange_step(arc, f - arc.f0, t)


def min_radius(arc: BallisticArc, t_from: float, t_to: float) -> float:
    """Minimum radius on an arc over [t_from, t_to].

    Radius is monotone between apsides, so the minimum is the perigee
    radius when the interval crosses a perigee passage (E = 2*pi*k) and
    an endpoint radius a*(1 - e*cos E) otherwise: two Kepler solves.
    """
    n = mean_motion(arc.a, arc.mu)
    E_a = solve_kepler(n * (t_from - arc.tau), arc.e)
    r_from = arc.a * (1.0 - arc.e * math.cos(E_a))
    if t_to <= t_from:
        return r_from
    E_b = solve_kepler(n * (t_to - arc.tau), arc.e)
    k_lo = math.ceil(E_a / (2.0 * math.pi))
    if 2.0 * math.pi * k_lo <= E_b:
        return arc.a * (1.0 - arc.e)
    return min(r_from, arc.a * (1.0 - arc.e * math.cos(E_b)))


def propagate_theta(s0: StateVector, theta: float,
                    mu: float = MU_EARTH) -> StateVector:
    """Propagate a bound state by a true-anomaly change."""
    arc = arc_from_state(s0, mu)
    E1 = eccentric_from_true(arc.f0 + theta, arc.e)
    dt = time_of_flight(arc, arc.E0, E1)
    return _lagrange_step(arc, theta, s0.t + dt)


def propagate_time(s0: StateVector, dt: float,
                   mu: float = MU_EARTH) -> StateVector:
    """Propagate a bound state by a time interval (Kepler inversion)."""
    return state_at(arc_from_state(s0, mu), s0.t + dt)
