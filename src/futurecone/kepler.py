"""Exact two-body propagation for bound orbits.

Every arc is its epoch state, flown by one step in the eccentric-anomaly
change dE, with the Lagrange coefficients written in dE (Battin 1987,
ch. 4; Vallado, Alg. 8). The step divides by neither e nor p, so
near-circular and near-rectilinear arcs keep full precision. Anomalies
are tracked unwrapped (multi-revolution); angles are reduced only inside
trig evaluation.

Each computation is written once, as an array kernel over many rows:
the Kepler solve, the step (states_at, coast) and the perigee-crossing
floor test (states_at, swept_min_radius). An ArcBatch holds epoch states
only, C-ordered, so a row's bits do not depend on how its batch was
built. states_at derives the conic of each arc of a batch once and
gathers it for every row that queries the arc. Row norms come from
_row_norm, np.linalg.norm(x, axis=-1)'s bits without its reduction pass;
it is the package's one measure of a radius. The containment engine and
the shock chains of maneuver run on the kernels; the scalar functions
are batches of one.

The bound test is a function of its own (_require_bound, on the fields
of the one vis-viva pass _ellipse), and so is the floor test: _conic
runs the bound test and derives the conic from the same pass
(_conic_of), and _fly is the Lagrange step (_step) plus the floor test.
A caller that defers its checks flies on _vis_viva, _conic_of and _step
alone, where a row that is not a bound ellipse turns to nan instead of
raising; the shock chains of maneuver fly so and test all their states
in one batch afterwards.

Units: km, s, km/s. Bound orbits only (0 <= e < 1); unbound states raise.
A bound state so nearly rectilinear that its e rounds to 1 is flown at
the largest float below 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU_EARTH
from .errors import ConvergenceError, EccentricityOutOfRange

_KEPLER_TOL = 1e-14  # internal target; contract promises < 1e-12
_KEPLER_MAX_ITER = 50
_BISECT_STEPS = 64  # halve a bracket of width <= 2 past float resolution
_CIRCULAR_E = 1e-10
_E_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest eccentricity flown
_TWO_PI = 2.0 * math.pi


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
        if not self.r.any():
            raise ValueError("position magnitude must be positive")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (np.array_equal(self.r, other.r)
                and np.array_equal(self.v, other.v)
                and self.t == other.t)


# -- scalar API: one-row views of the array kernels ---------------------------

def arc_from_state(s: StateVector, mu: float = MU_EARTH) -> ArcBatch:
    """The arc of one state: arcs_from_states on a batch of one row.

    Raises:
        EccentricityOutOfRange: unbound or rectilinear state.
    """
    return arcs_from_states(s.r[None], s.v[None], s.t, mu)


def state_at(arc: ArcBatch, t: float) -> StateVector:
    """State on the arc of a one-row batch at absolute time t: row 0 of
    states_at."""
    r, v, _ = states_at(arc, t)
    return StateVector(r[0], v[0], t)


def min_radius(arc: ArcBatch, t_from: float, t_to: float) -> float:
    """Minimum radius on the arc of a one-row batch over [t_from, t_to].

    Radius is monotone between apsides, so the minimum is the perigee
    radius when the interval crosses a perigee passage (E = 2*pi*k) and
    an endpoint radius otherwise: two steps from the arc's epoch state.
    """
    s = state_at(arc, t_from)
    _, _, lowest = coast(s.r[None], s.v[None], t_from, max(t_from, t_to),
                         arc.mu)
    return float(lowest[0])


def propagate_time(s0: StateVector, dt: float,
                   mu: float = MU_EARTH) -> StateVector:
    """Propagate a bound state by a time interval (Kepler inversion).

    Raises:
        EccentricityOutOfRange: s0 is not a bound ellipse.
    """
    t = s0.t + dt
    r, v, _ = coast(s0.r[None], s0.v[None], s0.t, t, mu)
    return StateVector(r[0], v[0], t)


# -- array kernels -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ArcBatch:
    """Bound arcs as their epoch states r0, v0 and t0, one row per arc.

    The kernels fly each row from its state; no orbital elements are
    kept. The arrays are copied C-ordered and read-only. len() counts
    the arcs, and a slice gives a smaller batch.
    """

    r0: np.ndarray
    v0: np.ndarray
    t0: np.ndarray
    mu: float

    def __post_init__(self):
        for name in ("r0", "v0", "t0"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mu", float(self.mu))

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, rows: slice) -> ArcBatch:
        if not isinstance(rows, slice):
            raise TypeError(f"an ArcBatch is sliced, not indexed by {rows!r}")
        return ArcBatch(self.r0[rows], self.v0[rows], self.t0[rows], self.mu)


def _solve_kepler(M: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Kepler's equation E - e*sin(E) = M, row by row.

    Newton iteration from E = M + e*sin(M) on M reduced mod 2*pi, each
    row stopping at its own first residual below _KEPLER_TOL. A row
    whose iterate leaves [Mr - e - 0.5, Mr + e + 0.5] or runs out of
    steps is bisected on [Mr - e, Mr + e] down to float resolution.

    Raises:
        ConvergenceError: a row did not converge; names the first.
    """
    branch = _TWO_PI * np.floor(M / _TWO_PI)
    Mr = M - branch
    E = Mr + e * np.sin(Mr)
    low, high = Mr - e - 0.5, Mr + e + 0.5
    newton = np.ones(M.shape, dtype=bool)
    stray = np.zeros(M.shape, dtype=bool)
    for _ in range(_KEPLER_MAX_ITER):
        resid = E - e * np.sin(E) - Mr
        newton &= np.abs(resid) >= _KEPLER_TOL
        if not np.count_nonzero(newton):
            break
        np.subtract(E, resid / (1.0 - e * np.cos(E)), out=E, where=newton)
        left = newton & ((E < low) | (E > high))
        if np.count_nonzero(left):
            stray |= left
            newton &= ~left
    stray |= newton
    if np.count_nonzero(stray):
        m, x = Mr[stray], e[stray]
        lo, hi = m - x, m + x
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            below = mid - x * np.sin(mid) < m
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        failed = np.abs(mid - x * np.sin(mid) - m) >= _KEPLER_TOL
        if np.count_nonzero(failed):
            i = np.flatnonzero(stray)[np.argmax(failed)]
            raise ConvergenceError(f"Kepler solve did not converge for "
                                   f"M={float(M[i])!r}, e={float(e[i])!r}")
        E[stray] = mid
    return E + branch


def _cross(x, y):
    """np.cross on the last axis, without its 40 us cost a call."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2,
                     x0 * y1 - x1 * y0], axis=-1)


def _row_norm(x):
    """np.linalg.norm(x, axis=-1) bit for bit, summed from the three
    columns in its order without its reduction pass."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _vis_viva(r, v, mu: float):
    """|r| and 1/a = 2/|r| - |v|^2/mu per state row: the vis-viva pass
    every conic starts from."""
    rn = _row_norm(r)
    return rn, 2.0 / rn - np.einsum("...i,...i->...", v, v) / mu


def _ellipse(r, v, mu: float):
    """The vis-viva pass with the angular momentum: |r|, 1/a, a, e and
    p = |r x v|^2 / mu per state row, and whether the row is a bound,
    non-rectilinear ellipse (the one test of arcs_from_states)."""
    rn, alpha = _vis_viva(r, v, mu)
    h = _cross(r, v)
    p = np.einsum("...i,...i->...", h, h) / mu
    with np.errstate(divide="ignore"):
        a = 1.0 / alpha
    e = np.sqrt(np.maximum(1.0 - p / a, 0.0))
    return rn, alpha, a, e, p, (alpha > 0.0) & (p > 0.0) & (e < 1.0)


def is_bound(r, v, mu: float = MU_EARTH) -> np.ndarray:
    """Rows whose state is a bound, non-rectilinear ellipse.

    Exactly the rows arcs_from_states accepts, without building an arc.
    """
    return _ellipse(r, v, mu)[-1]


def _require_bound(ellipse) -> None:
    """The bound test on the fields of _ellipse: EccentricityOutOfRange
    names the first row that is not a bound ellipse."""
    _, alpha, _, _, p, bound = ellipse
    if np.count_nonzero(bound) < bound.size:
        i = int(np.argmin(bound))
        raise EccentricityOutOfRange(
            f"state {i} is unbound or rectilinear: 2/r - v^2/mu = "
            f"{float(alpha[i])!r}, |r x v|^2/mu = {float(p[i])!r}")


def _bound_ellipse(r, v, mu: float):
    """_ellipse of rows that must all be bound (_require_bound)."""
    ellipse = _ellipse(r, v, mu)
    _require_bound(ellipse)
    return ellipse


def _elements(r, v, mu: float):
    """|r|, a, e, p, sigma0 and the true anomaly f0 per bound state row;
    atan2 keeps f0 precise near the apsides, and a near-circular row
    (e < _CIRCULAR_E) takes f0 := 0, since its apsis is undefined."""
    rn, _, a, e, p, _ = _bound_ellipse(r, v, mu)
    sigma0 = np.einsum("...i,...i->...", r, v) / math.sqrt(mu)
    f0 = np.arctan2(sigma0 * np.sqrt(p) / rn, p / rn - 1.0)
    return rn, a, e, p, sigma0, np.where(e < _CIRCULAR_E, 0.0, f0)


def _conic_of(r, v, vis_viva, mu: float):
    """What the step reads of each state row, given its _vis_viva: |r|,
    1/a, sigma0 = r . v / sqrt(mu), E0 and e, by atan2 and hypot of
    e*sin(E0) = sigma0/sqrt(a) and e*cos(E0) = 1 - |r|/a. No bound test:
    a row that is not a bound ellipse gives nan or meaningless fields.
    The hypot of a nearly rectilinear ellipse can round to 1 or just
    above; e is held below 1, where Kepler's equation is solved."""
    rn, alpha = vis_viva
    sigma0 = np.einsum("...i,...i->...", r, v) / math.sqrt(mu)
    e_cos, e_sin = 1.0 - rn * alpha, sigma0 * np.sqrt(alpha)
    return (rn, alpha, sigma0, np.arctan2(e_sin, e_cos),
            np.minimum(np.hypot(e_sin, e_cos), _E_BELOW_ONE))


def _conic(r, v, mu: float):
    """_conic_of state rows that must all be bound: the bound test
    (_bound_ellipse) shares its vis-viva pass with the conic."""
    return _conic_of(r, v, _bound_ellipse(r, v, mu)[:2], mu)


def arcs_from_states(r, v, t, mu: float = MU_EARTH) -> ArcBatch:
    """Bound arcs from states: one arc per row of r and v.

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
    _bound_ellipse(r, v, mu)
    return ArcBatch(r, v, np.full(r.shape[:-1], t), mu)


def _floor_radius(a, e, anomaly0, sweep, r0n, r1n):
    """The perigee-crossing floor test, in the true or the eccentric
    anomaly: perigee lies at multiples of 2*pi in both."""
    crossed = _TWO_PI * np.ceil(anomaly0 / _TWO_PI) <= anomaly0 + sweep
    return np.where(crossed, a * (1.0 - e), np.minimum(r0n, r1n))


def _step(r0, v0, t0, conic, t, mu: float):
    """The Lagrange step from epoch states whose _conic_of is given: E1
    solves Kepler's equation at M = E0 - e*sin(E0) + n*dt, and the
    Lagrange coefficients and r1 = a*(1 - e*cos(E1)) are written in
    dE = E1 - E0. Returns r1, v1 and the a, dE and |r1| the floor test
    reads."""
    rn0, alpha, sigma0, E0, e = conic
    dt = np.asarray(t, dtype=float) - t0
    n = np.sqrt(mu * alpha**3)
    dE = _solve_kepler(E0 - sigma0 * np.sqrt(alpha) + n * dt, e) - E0
    a = 1.0 / alpha
    versine = 1.0 - np.cos(dE)
    sin_d = np.sin(dE)
    r1n = rn0 + (a - rn0) * versine + sigma0 * np.sqrt(a) * sin_d
    # the Lagrange coefficients F, G, Ft, Gt of the step by dE
    F = 1.0 - (a / rn0) * versine
    G = dt - (dE - sin_d) / n
    Ft = -np.sqrt(mu * a) * sin_d / (rn0 * r1n)
    Gt = 1.0 - (a / r1n) * versine
    r1 = F[:, None] * r0 + G[:, None] * v0
    v1 = Ft[:, None] * r0 + Gt[:, None] * v0
    # a query at the epoch returns the epoch state exactly
    at_epoch = dt == 0.0
    if np.count_nonzero(at_epoch):
        at_epoch = np.broadcast_to(at_epoch, F.shape)
        r1[at_epoch], v1[at_epoch] = r0[at_epoch], v0[at_epoch]
    return r1, v1, a, dE, r1n


def _fly(r0, v0, t0, conic, t, mu: float):
    """coast from epoch states whose _conic_of is given: the _step, and
    the lowest radius from each epoch to t (_floor_radius)."""
    r1, v1, a, dE, r1n = _step(r0, v0, t0, conic, t, mu)
    rn0, _, _, E0, e = conic
    return r1, v1, _floor_radius(a, e, E0, dE, rn0, r1n)


def states_at(arcs: ArcBatch, t, rows=None):
    """States on many arcs at once.

    Row i is arc rows[i] at time t[i]: one vectorized Kepler solve and
    Lagrange step per row, on the conic derived once per arc of the
    batch (every row of an ArcBatch is bound). A query at an arc's own
    epoch returns its epoch state exactly. Each row also gets the lowest
    radius its arc reaches from the epoch to t[i], for t[i] at or after
    the epoch.

    Args:
        arcs: Arcs to query.
        t: Query times, s, one per row or one shared time.
        rows: Arc index per row; None queries every arc once.

    Returns:
        (r, v, lowest): positions, km, and velocities, km/s, each of
        shape (len(rows), 3), and the lowest radii, km.
    """
    rows = slice(None) if rows is None else rows
    conic = tuple(c[rows] for c in _conic(arcs.r0, arcs.v0, arcs.mu))
    return _fly(arcs.r0[rows], arcs.v0[rows], arcs.t0[rows], conic, t,
                arcs.mu)


def coast(r, v, t, t_end, mu: float = MU_EARTH):
    """States (n, 3) flown from epochs t to t_end: the (r, v, lowest) of
    states_at on the arcs of the states, without building the batch.

    Raises:
        EccentricityOutOfRange: some row is unbound or rectilinear.
    """
    return _fly(r, v, t, _conic(r, v, mu), t_end, mu)


def swept_min_radius(r0, v0, r1n, sweep, mu: float = MU_EARTH) -> np.ndarray:
    """Lowest radius on departure arcs, in closed form (the floor check).

    Each row leaves r0 with velocity v0 and sweeps a true-anomaly
    interval [f0, f0 + sweep] before arriving at radius r1n. The radius
    falls to perigee and rises after it, so the arc passes perigee iff
    the interval holds a multiple of 2*pi, and its lowest radius is then
    a*(1 - e); otherwise it is the lower of |r0| and r1n. No Kepler
    solve; states_at applies the same test to the arcs it flies.

    Args:
        r0: Departure positions, km, (..., 3).
        v0: Departure velocities, km/s, (..., 3); rows must be bound.
        r1n: Arrival radii, km.
        sweep: True anomaly swept, rad, >= 0 (2*pi per full revolution).
        mu: Gravitational parameter, km^3/s^2.
    """
    rn, a, e, _, _, f0 = _elements(r0, v0, mu)
    return _floor_radius(a, e, f0, sweep, rn, r1n)
