"""Exact two-body propagation for bound orbits.

Every arc is its epoch state, flown by one step in the eccentric-anomaly
change dE, with the Lagrange coefficients written in dE (Battin 1987,
ch. 4; Vallado, Alg. 8). The step divides by neither e nor p, so
near-circular and near-rectilinear arcs keep full precision. Anomalies
are tracked unwrapped (multi-revolution); angles are reduced only inside
trig evaluation.

Each computation is written once, as an array kernel over many rows:
the Kepler solve, the step (states_at, coast), its 6x6 transition
matrix in closed form from the step's Lagrange coefficients
(_transition) and the perigee-crossing floor test in dE (the step;
arc_min_radius, from an arc's two end states without a Kepler solve).
An ArcBatch holds epoch states only, C-ordered, so a row's bits do not
depend on how its batch was built.
states_at derives the conic of each arc of a batch once and gathers it
for every row that queries the arc, and _positions_at flies only the
position half of the same step (_position) for callers that read r
alone; the scalar functions are batches of one.

Two summation orders remain, each written once from the three columns:
_row_norm sums np.linalg.norm(x, axis=-1)'s order, for radii, bound and
floor tests and burn magnitudes (maneuver's RK4 sums its float radii in
it too); _dot sums np.einsum's C-order, for every dot product and
Lambert's norms. _dot's bits do not depend on the rows' memory layout,
as einsum's do. Both stay: merging them would move Lambert's bits,
which the pinned digests cover. _cross writes np.cross's bits into one
buffer.

The bound test is a function of its own (_require_bound, on the fields
of the one vis-viva pass _ellipse), and so is the floor test: _conic
runs the bound test and derives the conic from the same pass
(_conic_of), and the Lagrange step (_step) ends with the floor test.
A caller that defers its checks flies on _vis_viva, _conic_of and _step
alone, where a row that is not a bound ellipse turns to nan instead of
raising; the shock chains of maneuver fly so, check the states each
shooting pass has converged in one batch, and take _transition only on
a pass that corrects.

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
        ValueError: dt is not finite.
        EccentricityOutOfRange: s0 is not a bound ellipse.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
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
        ConvergenceError: a row did not converge; names the first, and
            carries its index as row.
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
                                   f"M={float(M[i])!r}, e={float(e[i])!r}",
                                   row=int(i))
        E[stray] = mid
    return E + branch


def _cross(x, y):
    """np.cross on the last axis bit for bit, each component written
    into its column of one (..., 3) buffer: no np.cross call overhead
    and no stacking pass."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)))
    np.subtract(x1 * y2, x2 * y1, out=out[..., 0])
    np.subtract(x2 * y0, x0 * y2, out=out[..., 1])
    np.subtract(x0 * y1, x1 * y0, out=out[..., 2])
    return out


def _dot(x, y):
    """np.einsum("...i,...i->...", x, y) of C-ordered rows bit for bit,
    summed from the three columns in its order: from +0.0 (so products
    that are all -0.0 sum to +0.0), then x0 y0, x2 y2 and x1 y1. One
    order whatever the rows' memory layout (einsum sums Fortran-ordered
    rows in another), and no einsum call overhead."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return 0.0 + x0 * y0 + x2 * y2 + x1 * y1


def _row_norm(x):
    """np.linalg.norm(x, axis=-1) bit for bit, summed from the three
    columns in its order without its reduction pass."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _vis_viva(r, v, mu: float):
    """|r| and 1/a = 2/|r| - |v|^2/mu per state row: the vis-viva pass
    every conic starts from."""
    rn = _row_norm(r)
    return rn, 2.0 / rn - _dot(v, v) / mu


def _ellipse(r, v, mu: float):
    """The vis-viva pass with the angular momentum: |r|, 1/a, a, e and
    p = |r x v|^2 / mu per state row, and whether the row is a bound,
    non-rectilinear ellipse (the one test of arcs_from_states)."""
    rn, alpha = _vis_viva(r, v, mu)
    h = _cross(r, v)
    p = _dot(h, h) / mu
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


def _conic_of(r, v, vis_viva, mu: float):
    """What the step reads of each state row, given its _vis_viva: |r|,
    1/a, sigma0 = r . v / sqrt(mu), E0 and e, by atan2 and hypot of
    e*sin(E0) = sigma0/sqrt(a) and e*cos(E0) = 1 - |r|/a. No bound test:
    a row that is not a bound ellipse gives nan or meaningless fields.
    The hypot of a nearly rectilinear ellipse can round to 1 or just
    above; e is held below 1, where Kepler's equation is solved."""
    rn, alpha = vis_viva
    sigma0 = _dot(r, v) / math.sqrt(mu)
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


def _floor_radius(a, e, E0, dE, r0n, r1n):
    """The perigee-crossing floor test: an arc sweeping [E0, E0 + dE]
    reaches perigee a*(1 - e) iff that holds a multiple of 2*pi, and
    otherwise its lowest radius is the lower of r0n and r1n."""
    crossed = _TWO_PI * np.ceil(E0 / _TWO_PI) <= E0 + dE
    return np.where(crossed, a * (1.0 - e), np.minimum(r0n, r1n))


def _position(r0, v0, t0, conic, t, mu: float):
    """The position half of the Lagrange step from epoch states whose
    _conic_of is given: E1 solves Kepler's equation at
    M = E0 - e*sin(E0) + n*dt, and F, G and r1 = F r0 + G v0 are written
    in dE = E1 - E0. A query at the epoch returns the epoch position
    exactly. Returns r1 and the dt, a, dE, 1 - cos dE, sin dE, F, G and
    epoch rows that _step goes on from."""
    rn0, alpha, sigma0, E0, e = conic
    dt = np.asarray(t, dtype=float) - t0
    n = np.sqrt(mu * alpha**3)
    dE = _solve_kepler(E0 - sigma0 * np.sqrt(alpha) + n * dt, e) - E0
    a = 1.0 / alpha
    versine = 1.0 - np.cos(dE)
    sin_d = np.sin(dE)
    F = 1.0 - (a / rn0) * versine
    G = dt - (dE - sin_d) / n
    r1 = F[:, None] * r0 + G[:, None] * v0
    at_epoch = dt == 0.0
    if np.count_nonzero(at_epoch):
        at_epoch = np.broadcast_to(at_epoch, F.shape)
        r1[at_epoch] = r0[at_epoch]
    else:
        at_epoch = None
    return r1, (dt, a, dE, versine, sin_d, F, G, at_epoch)


def _step(r0, v0, t0, conic, t, mu: float):
    """The Lagrange step: _position, then |r1| = a*(1 - e*cos(E1)), the
    velocity coefficients Ft, Gt and v1 in the same dE (the epoch
    velocity at the epoch). Returns r1, v1, the lowest radius from each
    epoch to t (_floor_radius), and the dt, |r0|, a, dE, |r1| and
    Lagrange coefficients F, G, Ft, Gt that _transition reads."""
    rn0, _, sigma0, E0, e = conic
    r1, (dt, a, dE, versine, sin_d, F, G, at_epoch) = _position(
        r0, v0, t0, conic, t, mu)
    r1n = rn0 + (a - rn0) * versine + sigma0 * np.sqrt(a) * sin_d
    Ft = -np.sqrt(mu * a) * sin_d / (rn0 * r1n)
    Gt = 1.0 - (a / r1n) * versine
    v1 = Ft[:, None] * r0 + Gt[:, None] * v0
    if at_epoch is not None:
        v1[at_epoch] = v0[at_epoch]
    return (r1, v1, _floor_radius(a, e, E0, dE, rn0, r1n),
            (dt, rn0, a, dE, r1n, F, G, Ft, Gt))


def _transition(r0, v0, flight, mu: float):
    """The 6x6 transition matrix d(r1, v1)/d(r0, v0) of each row of the
    _step flight of epoch states r0, v0, in closed form (Goodyear 1965;
    Battin 1987, sec. 9.7): four 3x3 blocks of outer products of the two
    states, in the step's Lagrange coefficients and
    C = a^(5/2)/sqrt(mu) (3 sin dE - 3 dE + dE (1 - cos dE))
    - a dt (1 - cos dE)."""
    r1, v1, _, (dt, rn0, a, dE, r1n, *lagrange) = flight
    versine = 1.0 - np.cos(dE)
    C = (a**2.5 / math.sqrt(mu) * (3.0 * np.sin(dE) - 3.0 * dE + dE * versine)
         - a * dt * versine)
    # per-row scalars as columns, to scale state rows
    rn0, r1n, C, F, G, Ft, Gt = (x[:, None] for x in (rn0, r1n, C, *lagrange))
    r0f, dr, dv = rn0 * (1.0 - F), r1 - r0, v1 - v0
    # (r1 v1^T - v1 r1^T) r1
    w = r1 * _dot(r1, v1)[:, None] - v1 * r1n**2

    def block(diagonal, *terms):
        """diagonal * I plus the outer product x y^T of each (x, y)."""
        x, y = zip(*terms)
        return (np.stack(x, 2) @ np.stack(y, 1)
                + diagonal[:, :, None] * np.eye(3))

    return np.block([
        [block(F, (r1n / mu * dv, dv), ((r0f * r1 + C * v1) / rn0**3, r0)),
         block(G, (r0f / mu * dr, v0), (-r0f / mu * dv, r0),
               (C / mu * v1, v0))],
        [block(Ft, (-dv / rn0**2, r0), (-r1 / r1n**2, dv),
               (-Ft / r1n**2 * r1, r1), (Ft / (mu * r1n) * w, dv),
               (-mu * C / (r1n * rn0)**3 * r1, r0)),
         block(Gt, (rn0 / mu * dv, dv), (r0f / r1n**3 * r1, r0),
               (-C / r1n**3 * r1, v0))]])


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
    return _step(*_epoch_rows(arcs, rows), t, arcs.mu)[:3]


def _epoch_rows(arcs: ArcBatch, rows):
    """The epoch states, epochs and conics of the arcs rows query (every
    arc for None), each conic derived once per arc of the batch."""
    rows = slice(None) if rows is None else rows
    conic = tuple(c[rows] for c in _conic(arcs.r0, arcs.v0, arcs.mu))
    return arcs.r0[rows], arcs.v0[rows], arcs.t0[rows], conic


def _positions_at(arcs: ArcBatch, t, rows=None) -> np.ndarray:
    """The positions of states_at, bit for bit, by the position half of
    its step (_position): for callers that read r alone."""
    return _position(*_epoch_rows(arcs, rows), t, arcs.mu)[0]


def coast(r, v, t, t_end, mu: float = MU_EARTH):
    """States (n, 3) flown from epochs t to t_end: the (r, v, lowest) of
    states_at on the arcs of the states, without building the batch.

    Raises:
        EccentricityOutOfRange: some row is unbound or rectilinear.
    """
    return _step(r, v, t, _conic(r, v, mu), t_end, mu)[:3]


def arc_min_radius(r0, v0, r1, v1, revs, mu: float = MU_EARTH) -> np.ndarray:
    """Lowest radius on bound arcs from (r0, v0) to (r1, v1), km, each
    with revs complete revolutions (the floor check of Lambert arcs).

    E1 is the anomaly of the arrival state on the departure conic, so
    the arc sweeps dE = (E1 - E0 mod 2*pi) + 2*pi*revs: the floor test
    _step applies, with no Kepler solve. Positions in km, velocities in
    km/s, (..., 3); mu in km^3/s^2.
    """
    r0n, alpha, _, E0, e = _conic_of(r0, v0, _vis_viva(r0, v0, mu), mu)
    r1n = _row_norm(r1)
    sigma1 = _dot(r1, v1) / math.sqrt(mu)
    E1 = np.arctan2(sigma1 * np.sqrt(alpha), 1.0 - r1n * alpha)
    dE = E1 - E0  # in [-2*pi, 2*pi]: one wrap, 8x faster than np.mod
    dE = np.where(dE < 0.0, dE + _TWO_PI, dE) + _TWO_PI * revs
    return _floor_radius(1.0 / alpha, e, E0, dE, r0n, r1n)
