"""Exact two-body propagation for bound orbits.

Closed-form elliptic machinery: Kepler's equation, anomaly conversions,
time of flight between eccentric anomalies, and the Lagrange-coefficient
state transition parameterized by true-anomaly change. Anomalies are
tracked unwrapped (multi-revolution) so time of flight stays monotone;
angles are reduced only inside trig evaluation.

The scalar functions work on one state or arc in plain floating point.
The array kernels at the end of the module do the same work for many
rows at once (ArcBatch, arcs_from_states, positions_at) and give the
floor check in closed form (swept_min_radius); the containment engine
runs on them. The scalar path does not wrap the kernels because a batch
of one costs several scalar calls: 121 us for positions_at against
26 us for state_at on a 2-core x86 machine, and the shock chains of
maneuver make thousands of scalar calls.

Units: km, s, km/s. Bound orbits only (0 <= e < 1); unbound states raise.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .constants import MU_EARTH
from .errors import ConvergenceError, EccentricityOutOfRange

_KEPLER_TOL = 1e-14  # internal target; contract promises < 1e-12
_KEPLER_MAX_ITER = 50
_CIRCULAR_E = 1e-10


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Position and velocity of a body at an epoch.

    Attributes:
        r: Position vector, km (3 components).
        v: Velocity vector, km/s (3 components).
        t: Epoch, seconds past scenario origin.
    """

    r: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vec3(self.r, "r"))
        object.__setattr__(self, "v", _as_vec3(self.v, "v"))
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t):
            raise ValueError(f"epoch must be finite, got {self.t}")
        if float(np.linalg.norm(self.r)) == 0.0:
            raise ValueError("position magnitude must be positive")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (np.array_equal(self.r, other.r)
                and np.array_equal(self.v, other.v)
                and self.t == other.t)


@dataclass(frozen=True)
class BallisticArc:
    """Conic-arc descriptor for a bound Keplerian orbit.

    Derived once from a state, then queried repeatedly: the fields are the
    classical elements entering the Lagrange coefficients and Kepler's
    equation. f0 and E0 satisfy the half-angle relation and lie in the
    same quadrant; tau is the pericenter passage time consistent with them.

    Attributes:
        a: Semimajor axis, km.
        e: Eccentricity.
        p: Parameter a*(1 - e^2), km.
        sigma0: r0 . v0 / sqrt(mu) at the arc epoch.
        f0: True anomaly at the arc epoch, rad.
        E0: Eccentric anomaly at the arc epoch, rad.
        tau: Time of pericenter passage, s.
        r0: State at the arc epoch.
        mu: Gravitational parameter, km^3/s^2.
    """

    a: float
    e: float
    p: float
    sigma0: float
    f0: float
    E0: float
    tau: float
    r0: StateVector
    mu: float


# -- scalar anomaly machinery ------------------------------------------------

def solve_kepler(M: float, e: float) -> float:
    """Solve Kepler's equation E - e*sin(E) = M for the eccentric anomaly.

    Newton iteration from E = M + e*sin(M), falling back to bisection on
    [M - e, M + e] if Newton stalls. M may be any finite value; it is
    reduced mod 2*pi internally and the returned E lies in the same 2*pi
    branch as M.

    Args:
        M: Mean anomaly, rad.
        e: Eccentricity, 0 <= e < 1.

    Returns:
        Eccentric anomaly E, rad, with |E - e*sin(E) - M| < 1e-12.

    Raises:
        ValueError: e outside [0, 1) or M not finite.
        ConvergenceError: iteration cap hit (pathological e near 1).
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
    """True anomaly from eccentric anomaly, branch-preserving.

    Implements tan(f/2) = sqrt((1+e)/(1-e)) * tan(E/2) in the form
    f = E + 2*atan2(beta*sin E, 1 - beta*cos E), which keeps f/2 in the
    quadrant of E/2 and carries unwrapped multi-revolution anomalies
    through unchanged.
    """
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


def mean_motion(a: float, mu: float = MU_EARTH) -> float:
    """Mean motion n = sqrt(mu / a^3), rad/s.

    Raises:
        ValueError: nonpositive semimajor axis or mu.
    """
    if a <= 0.0:
        raise ValueError(f"semimajor axis must be positive, got {a}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return math.sqrt(mu / a**3)


def time_of_flight(arc: BallisticArc, E1: float, E2: float) -> float:
    """Time between two unwrapped eccentric anomalies on an arc.

    dt = sqrt(a^3/mu) * ((E2 - E1) - e*(sin E2 - sin E1)); additive over
    subdivision because the anomalies are unwrapped.
    """
    scale = math.sqrt(arc.a**3 / arc.mu)
    return scale * ((E2 - E1) - arc.e * (math.sin(E2) - math.sin(E1)))


# -- state <-> elements ------------------------------------------------------

def arc_from_state(s: StateVector, mu: float = MU_EARTH) -> BallisticArc:
    """Classical-element arc descriptor from a Cartesian state.

    a from the vis-viva equation, p from the angular momentum, e from
    p = a*(1 - e^2), sigma0 = r . v / sqrt(mu), anomalies consistent with
    the state. Near-circular orbits (e < 1e-10) take the convention
    f0 := 0 at the epoch, since the apsis direction is undefined.

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
    """State on an arc at absolute time t (Kepler inversion).

    The fast path for repeated queries against one orbit: the arc is
    derived once and each call costs one Kepler solve plus one
    Lagrange-coefficient step.
    """
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
    """Propagate a bound state by a true-anomaly change.

    (r, v) = Phi(theta) * (r0, v0) with the Lagrange coefficients
    F, G, Ft, Gt; the radius entering F and G is solved from the conic
    equation at anomaly f0 + theta. The output epoch is advanced by the
    time of flight for theta (negative theta gives a negative advance).

    Args:
        s0: Bound initial state.
        theta: True-anomaly change f - f0, rad, any finite value.
        mu: Gravitational parameter, km^3/s^2.

    Returns:
        The propagated state.

    Raises:
        EccentricityOutOfRange: s0 is not a bound ellipse.
    """
    arc = arc_from_state(s0, mu)
    E1 = eccentric_from_true(arc.f0 + theta, arc.e)
    dt = time_of_flight(arc, arc.E0, E1)
    return _lagrange_step(arc, theta, s0.t + dt)


def propagate_time(s0: StateVector, dt: float,
                   mu: float = MU_EARTH) -> StateVector:
    """Propagate a bound state by a time interval (Kepler inversion).

    Equivalent to propagate_theta at the theta whose time of flight is dt.

    Raises:
        EccentricityOutOfRange: s0 is not a bound ellipse.
    """
    return state_at(arc_from_state(s0, mu), s0.t + dt)


# -- array kernels -----------------------------------------------------------

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ArcBatch(Sequence):
    """Bound arcs as parallel arrays, one row per arc.

    The array form of BallisticArc: each element field holds one value
    per row, and r0, v0, t0 are the rows' epoch states. Indexing gives
    the BallisticArc of one row and slicing a smaller batch, so a batch
    reads as a sequence of arcs while the kernels use the arrays.
    """

    r0: np.ndarray
    v0: np.ndarray
    t0: np.ndarray
    a: np.ndarray
    e: np.ndarray
    p: np.ndarray
    sigma0: np.ndarray
    f0: np.ndarray
    E0: np.ndarray
    tau: np.ndarray
    mu: float

    def __post_init__(self):
        for field in fields(self)[:-1]:  # every field but mu
            arr = np.array(getattr(self, field.name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field.name, arr)
        object.__setattr__(self, "mu", float(self.mu))

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ArcBatch(**{field.name: getattr(self, field.name)[i]
                               for field in fields(self)[:-1]}, mu=self.mu)
        return BallisticArc(
            a=float(self.a[i]), e=float(self.e[i]), p=float(self.p[i]),
            sigma0=float(self.sigma0[i]), f0=float(self.f0[i]),
            E0=float(self.E0[i]), tau=float(self.tau[i]),
            r0=StateVector(self.r0[i], self.v0[i], self.t0[i]), mu=self.mu)

    @classmethod
    def from_arcs(cls, arcs) -> ArcBatch:
        """Batch of existing arcs, which must share one mu."""
        arcs = tuple(arcs)
        mus = {arc.mu for arc in arcs}
        if len(mus) > 1:
            raise ValueError(f"arcs of one batch must share mu, got {mus}")
        columns = {field.name: [getattr(arc, field.name) for arc in arcs]
                   for field in fields(BallisticArc)
                   if field.name not in ("r0", "mu")}
        return cls(r0=np.reshape([arc.r0.r for arc in arcs], (-1, 3)),
                   v0=np.reshape([arc.r0.v for arc in arcs], (-1, 3)),
                   t0=[arc.r0.t for arc in arcs], **columns,
                   mu=mus.pop() if mus else MU_EARTH)


def _energy_and_parameter(r, v, mu: float):
    """|r|, 1/a from vis-viva, and p = |r x v|^2 / mu, per row."""
    rn = np.linalg.norm(r, axis=-1)
    alpha = 2.0 / rn - np.einsum("...i,...i->...", v, v) / mu
    h = np.cross(r, v)
    return rn, alpha, np.einsum("...i,...i->...", h, h) / mu


def is_bound(r, v, mu: float = MU_EARTH) -> np.ndarray:
    """Rows whose state is a bound, non-rectilinear ellipse.

    The vis-viva energy sign plus a nonzero angular momentum: exactly
    the states arc_from_state accepts, without building an arc.
    """
    _, alpha, p = _energy_and_parameter(r, v, mu)
    return (alpha > 0.0) & (p > 0.0)


def _conic(r, v, mu: float):
    """|r|, a, e, p, sigma0 and the epoch true anomaly f0, per row.

    f0 comes from e*cos(f0) = p/r - 1 and e*sin(f0) = sigma0*sqrt(p)/r,
    as in arc_from_state, with f0 := 0 on near-circular rows.
    """
    rn, alpha, p = _energy_and_parameter(r, v, mu)
    a = 1.0 / alpha
    e = np.sqrt(np.maximum(1.0 - p / a, 0.0))
    sigma0 = np.einsum("...i,...i->...", r, v) / math.sqrt(mu)
    f0 = np.arctan2(sigma0 * np.sqrt(p) / rn, p / rn - 1.0)
    return rn, a, e, p, sigma0, np.where(e < _CIRCULAR_E, 0.0, f0)


def arcs_from_states(r, v, t, mu: float = MU_EARTH) -> ArcBatch:
    """Array form of arc_from_state: one arc per row of r and v.

    Args:
        r: Positions, km, shape (n, 3) or one (3,) shared by all rows.
        v: Velocities, km/s, shape (n, 3).
        t: Epochs, s, shape (n,) or one shared epoch.
        mu: Gravitational parameter, km^3/s^2.

    Raises:
        EccentricityOutOfRange: some row is unbound or rectilinear.
    """
    r, v = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(v, dtype=float))
    if not np.all(is_bound(r, v, mu)):
        raise EccentricityOutOfRange(
            "batch holds an unbound or rectilinear state")
    rn, a, e, p, sigma0, f0 = _conic(r, v, mu)
    beta = e / (1.0 + np.sqrt(1.0 - e * e))
    E0 = f0 - 2.0 * np.arctan2(beta * np.sin(f0), 1.0 + beta * np.cos(f0))
    tau = t - (E0 - e * np.sin(E0)) / np.sqrt(mu / a**3)
    return ArcBatch(r0=r, v0=v, t0=np.broadcast_to(t, rn.shape), a=a, e=e,
                    p=p, sigma0=sigma0, f0=f0, E0=E0, tau=tau, mu=mu)


def _solve_kepler_array(M: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Array form of solve_kepler, with the same Newton iteration.

    A row whose Newton iterate leaves its bracket or runs out of steps
    is finished by the scalar solver (bisection), as solve_kepler would.
    """
    branch = _TWO_PI * np.floor(M / _TWO_PI)
    Mr = M - branch
    E = Mr + e * np.sin(Mr)
    active = np.ones(M.shape, dtype=bool)
    fallback = np.zeros(M.shape, dtype=bool)
    for _ in range(_KEPLER_MAX_ITER):
        resid = E - e * np.sin(E) - Mr
        active &= np.abs(resid) >= _KEPLER_TOL
        if not active.any():
            break
        E = np.where(active, E - resid / (1.0 - e * np.cos(E)), E)
        stray = active & ((E < Mr - e - 0.5) | (E > Mr + e + 0.5))
        fallback |= stray
        active &= ~stray
    fallback |= active
    E = E + branch
    for i in np.flatnonzero(fallback):
        E[i] = solve_kepler(float(M[i]), float(e[i]))
    return E


def positions_at(arcs: ArcBatch, t, rows=None) -> np.ndarray:
    """Positions on many arcs at once, the array form of state_at(...).r.

    Row i is arc rows[i] at time t[i]: one vectorized Kepler solve and
    Lagrange step per row. A query at an arc's own epoch returns its
    epoch position exactly.

    Args:
        arcs: Arcs to query.
        t: Query times, s, one per row or one shared time.
        rows: Arc index per row; None queries every arc once.

    Returns:
        Array of shape (len(rows), 3), km.
    """
    rows = slice(None) if rows is None else rows
    r0, v0, t0 = arcs.r0[rows], arcs.v0[rows], arcs.t0[rows]
    a, e, p, f0 = arcs.a[rows], arcs.e[rows], arcs.p[rows], arcs.f0[rows]
    t = np.broadcast_to(np.asarray(t, dtype=float), t0.shape)
    E = _solve_kepler_array(np.sqrt(arcs.mu / a**3) * (t - arcs.tau[rows]), e)
    beta = e / (1.0 + np.sqrt(1.0 - e * e))
    theta = E + 2.0 * np.arctan2(beta * np.sin(E), 1.0 - beta * np.cos(E)) - f0
    r1n = p / (1.0 + e * np.cos(f0 + theta))
    r0n = np.linalg.norm(r0, axis=-1)
    F = 1.0 - (r1n / p) * (1.0 - np.cos(theta))
    G = r1n * r0n * np.sin(theta) / (math.sqrt(arcs.mu) * np.sqrt(p))
    out = F[:, None] * r0 + G[:, None] * v0
    return np.where((t == t0)[:, None], r0, out)


def swept_min_radius(r0, v0, r1n, sweep, mu: float = MU_EARTH) -> np.ndarray:
    """Lowest radius on departure arcs, in closed form (the floor check).

    Each row leaves r0 with velocity v0 and sweeps a true-anomaly
    interval [f0, f0 + sweep] before arriving at radius r1n. The radius
    falls to perigee and rises after it, so the arc passes perigee iff
    the interval holds a multiple of 2*pi, and its lowest radius is then
    a*(1 - e); otherwise it is the lower of |r0| and r1n. No Kepler
    solve; min_radius is the same test for a time interval on one arc.

    Args:
        r0: Departure positions, km, (..., 3).
        v0: Departure velocities, km/s, (..., 3); rows must be bound.
        r1n: Arrival radii, km.
        sweep: True anomaly swept, rad, >= 0 (2*pi per full revolution).
        mu: Gravitational parameter, km^3/s^2.
    """
    rn, a, e, _, _, f0 = _conic(r0, v0, mu)
    crossed = _TWO_PI * np.ceil(f0 / _TWO_PI) <= f0 + sweep
    return np.where(crossed, a * (1.0 - e), np.minimum(rn, r1n))
