"""Two-point boundary-value targeting (Lambert's problem).

Given two positions and a transfer time, find the terminal velocities of
every connecting bound ballistic arc, both transfer senses, zero through
max_revs complete revolutions. Universal-variable formulation: the free
parameter psi maps to a time of flight that is monotone on the zero-rev
band and U-shaped on each multi-revolution band, so every solution is
found by bracketed root-finding. Bound solutions correspond to psi > 0.

One array kernel, lambert_batch, solves many boundary problems at once.
Every row solves for psi on the zero-rev band, both senses together. On
the revs-th band, the rows whose transfer time admits revs revolutions
find the bottom of the U and then solve each side of it. Each solve is
Newton's method on the analytic slope of the time of flight, kept
inside a shrinking bracket by bisection; every element iterates until
its own step is negligible, so a row's solution does not depend on the
other rows of its batch. solve_lambert is the batch of one.

Coincident endpoints (periodic self-transfer) are a separate closed-form
branch: the universal-variable bands pinch off numerically there, but the
solution family is elementary (any arc whose period divides the transfer
time returns to its start).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU_EARTH
from .errors import AmbiguousPlane
from .kepler import is_bound

_FOUR_PI2 = 4.0 * math.pi**2
_TWO_PI = 2.0 * math.pi
_EDGE_INSET = 1e-9       # relative inset from band edges where tof blows up
_ZERO_REV_LO = 1e-10     # psi just above the parabolic limit
_PLANE_TOL = 1e-8        # rad, transfer angles this close to pi are ambiguous
_COINCIDENT_REL = 1e-6   # |r1 - r0| below this fraction of |r0| is a self-transfer
_TANGENT_TOL = 1e-9      # two roots this close on one band are one double root
_STEP_TOL = 1e-13        # a psi step below this * (1 + |psi|) ends the search
_NEWTON_MAX = 200        # cap on steps; bisection alone converges well before
_CURVATURE_STEP = 1e-7   # relative psi step of the tof-slope difference quotient


@dataclass(frozen=True, eq=False)
class LambertSolution:
    """One bound arc connecting the boundary conditions.

    Attributes:
        v_depart: Velocity at r0, km/s.
        v_arrive: Velocity at r1, km/s.
        revs: Complete revolutions on the transfer.
        branch: "short" or "long" transfer sense.
    """

    v_depart: np.ndarray
    v_arrive: np.ndarray
    revs: int
    branch: str

    def __post_init__(self):
        vd = np.asarray(self.v_depart, dtype=float).copy()
        va = np.asarray(self.v_arrive, dtype=float).copy()
        vd.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "v_depart", vd)
        object.__setattr__(self, "v_arrive", va)
        object.__setattr__(self, "revs", int(self.revs))


@dataclass(frozen=True, eq=False)
class LambertBatch:
    """Connecting arcs of many boundary problems, one row each.

    Every row has the same slots. Slot s holds the arc with revs[s]
    complete revolutions in transfer sense branch[s]: zero revolutions
    short then long, then per revolution count short low-psi, short
    high-psi, long low-psi, long high-psi. That is the order
    solve_lambert lists solutions in.

    Attributes:
        v_depart: Velocity at r0, km/s, (n, slots, 3); zero where the
            slot holds no arc.
        v_arrive: Velocity at r1, km/s, (n, slots, 3); zero likewise.
        found: Slots holding a bound arc, (n, slots).
        sweep: True anomaly each slot's arc sweeps, rad, (n, slots).
        revs: Complete revolutions per slot, (slots,).
        branch: Transfer sense per slot, "short" or "long".
    """

    v_depart: np.ndarray
    v_arrive: np.ndarray
    found: np.ndarray
    sweep: np.ndarray
    revs: np.ndarray
    branch: tuple[str, ...]


def _stumpff(psi) -> tuple[np.ndarray, ...]:
    """Stumpff functions C2, C3 for psi > 0 and their slopes d/dpsi.

    Series near 0, half-angle form elsewhere to avoid cancellation.
    """
    psi = np.asarray(psi, dtype=float)
    sq = np.sqrt(psi)
    c2 = 2.0 * np.sin(sq / 2.0) ** 2 / psi
    c3 = (sq - np.sin(sq)) / (psi * sq)
    dc2 = (1.0 - psi * c3 - 2.0 * c2) / (2.0 * psi)
    dc3 = (c2 - 3.0 * c3) / (2.0 * psi)
    small = psi <= 1e-6
    if small.any():
        c2 = np.where(small, 1.0 / 2.0 - psi / 24.0 + psi**2 / 720.0, c2)
        c3 = np.where(small, 1.0 / 6.0 - psi / 120.0 + psi**2 / 5040.0, c3)
        dc2 = np.where(small, -1.0 / 24.0 + psi / 360.0, dc2)
        dc3 = np.where(small, -1.0 / 120.0 + psi / 2520.0, dc3)
    return c2, c3, dc2, dc3


def _tof(psi, r_sum, A, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Time of flight at universal parameter psi and its slope d/dpsi.

    The slope is the Bate-Mueller-White derivative. Time is inf where
    y < 0.
    """
    c2, c3, dc2, dc3 = _stumpff(psi)
    y = r_sum + A * (psi * c3 - 1.0) / np.sqrt(c2)
    chi = np.sqrt(y / c2)
    chi3 = chi * chi * chi
    sqrt_y = np.sqrt(y)
    sqrt_mu = math.sqrt(mu)
    tof = (chi3 * c3 + A * sqrt_y) / sqrt_mu
    slope = (chi3 * (dc3 - 1.5 * c3 * dc2 / c2)
             + A / 8.0 * (3.0 * c3 * sqrt_y / c2 + A / chi)) / sqrt_mu
    return np.where((y < 0.0) | (c2 <= 0.0), np.inf, tof), slope


def _band(revs: int) -> tuple[float, float]:
    """psi bracket of the revs-th band, inset from its edges."""
    lo = _FOUR_PI2 * revs**2
    hi = _FOUR_PI2 * (revs + 1) ** 2
    width = hi - lo
    lo = lo + width * _EDGE_INSET if revs > 0 else _ZERO_REV_LO
    return lo, hi - width * _EDGE_INSET


def _newton(f_slope, lo, hi, rising) -> np.ndarray:
    """Elementwise root of f in [lo, hi]: Newton, bisecting as needed.

    f_slope(x) gives f and its slope; f changes sign on every bracket,
    upward where rising is true. Each step shrinks the bracket, and a
    Newton step that would leave it is replaced by the midpoint. An
    element stops after a step below _STEP_TOL * (1 + |x|); the others
    go on, so a row's root does not depend on its batch.
    """
    x = 0.5 * (lo + hi)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_NEWTON_MAX):
        f, slope = f_slope(x)
        up = (f < 0.0) == rising
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        step = x - f / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        moving = np.abs(step - x) > _STEP_TOL * (1.0 + np.abs(x))
        x = np.where(active, step, x)
        active &= moving
        if not active.any():
            break
    return x


def _match_time(r_sum, A, dt, lo, hi, rising, mu: float) -> np.ndarray:
    """psi in [lo, hi] whose time of flight is dt, elementwise.

    Newton on log(tof / dt), which stays near linear where the time of
    flight blows up at a band edge.
    """
    def err(x):
        tof, slope = _tof(x, r_sum, A, mu)
        return np.log(tof / dt), slope / tof

    return _newton(err, lo, hi, rising)


def _zero_rev(r_sum, A, dt, mu: float) -> np.ndarray:
    """psi on the zero-rev band per row and sense, (m, 2); nan if none.

    The time of flight rises monotonically from the parabolic limit, so
    a root exists iff dt lies strictly between the band's end values.
    """
    lo, hi = _band(0)
    has = ((_tof(lo, r_sum, A, mu)[0] < dt)
           & (_tof(hi, r_sum, A, mu)[0] > dt))
    psi = np.full(A.shape, np.nan)
    idx = np.nonzero(has)
    if idx[0].size:
        t = np.broadcast_to(dt, A.shape)[idx]
        psi[idx] = _match_time(np.broadcast_to(r_sum, A.shape)[idx], A[idx],
                               t, np.full(t.shape, lo), np.full(t.shape, hi),
                               True, mu)
    return psi


def _multi_rev(r_sum, A, dt, mu: float, revs: int) -> np.ndarray:
    """psi on the revs-th band per row and sense, (m, 2, 2) low/high.

    The time of flight is U-shaped on the band: find its bottom (the
    root of its slope, whose own slope is a difference quotient), then
    solve each side that brackets dt. Two roots closer than
    _TANGENT_TOL are one double root and keep only the low one.
    """
    lo, hi = _band(revs)

    def slope_and_curvature(x):
        step = _CURVATURE_STEP * (1.0 + x)
        slope = _tof(x, r_sum, A, mu)[1]
        return slope, (_tof(x + step, r_sum, A, mu)[1] - slope) / step

    full = np.full(A.shape, lo), np.full(A.shape, hi)
    psi_min = _newton(slope_and_curvature, *full, True)
    e_min = _tof(psi_min, r_sum, A, mu)[0] - dt
    e_lo = _tof(lo, r_sum, A, mu)[0] - dt
    e_hi = _tof(hi, r_sum, A, mu)[0] - dt
    has = np.stack([(e_lo * e_min <= 0.0), (e_min * e_hi <= 0.0)], axis=-1)
    has &= (e_min <= 0.0)[..., None]

    roots = np.full(has.shape, np.nan)
    idx = np.nonzero(has)
    if idx[0].size:
        def pick(values):
            return np.broadcast_to(values[..., None], has.shape)[idx]

        bottom = pick(psi_min)
        high = idx[-1] == 1
        roots[idx] = _match_time(pick(r_sum), pick(A), pick(dt),
                                 np.where(high, bottom, lo),
                                 np.where(high, hi, bottom), high, mu)
    has[..., 1] &= ~(has[..., 0]
                     & (np.abs(roots[..., 1] - roots[..., 0]) < _TANGENT_TOL))
    return np.where(has, roots, np.nan)


def _slots(max_revs: int) -> tuple[np.ndarray, np.ndarray]:
    """Revolutions and sense (+1 short, -1 long) of each slot."""
    revs = [0, 0] + [k for k in range(1, max_revs + 1) for _ in range(4)]
    sense = [1.0, -1.0] + [1.0, 1.0, -1.0, -1.0] * max_revs
    return np.array(revs), np.array(sense)


def _self_transfer(r0, delta, r0n, dt, mu: float, max_revs: int):
    """Coincident endpoints: arcs whose period divides dt return to r0.

    The connecting family is degenerate (any orbit plane through r0
    works), so the transfer plane is taken from the residual offset
    r1 - r0, which for propagated inputs points along the original
    velocity. Both signs are returned, in the low-psi slot of each
    sense; returns departure velocities (m, slots, 3) and found flags.
    """
    direction = delta / np.linalg.norm(delta, axis=-1)[:, None]
    v = np.zeros((len(dt), 2 + 4 * max_revs, 3))
    found = np.zeros(v.shape[:2], dtype=bool)
    for revs in range(1, max_revs + 1):
        a = (mu * (dt / (_TWO_PI * revs)) ** 2) ** (1.0 / 3.0)
        vis = mu * (2.0 / r0n - 1.0 / a)  # <= 0: r0 outside any such orbit
        speed = np.sqrt(np.maximum(vis, 0.0))
        for sign, slot in ((1.0, 4 * revs - 2), (-1.0, 4 * revs)):
            v[:, slot] = sign * speed[:, None] * direction
            found[:, slot] = (vis > 0.0) & is_bound(r0, v[:, slot], mu)
    return v, found


def lambert_batch(r0, r1, dt, mu: float = MU_EARTH,
                  max_revs: int = 1) -> LambertBatch:
    """All bound arcs for many boundary problems, one per row.

    Row i asks for every arc from r0[i] to r1[i] in exactly dt[i]
    seconds, as solve_lambert does for one.

    Args:
        r0: Departure positions, km, (n, 3), or one (3,) for all rows.
        r1: Arrival positions, km, (n, 3).
        dt: Transfer times, s, (n,) or one for all rows; positive.
        mu: Gravitational parameter, km^3/s^2.
        max_revs: Largest complete-revolution count to search.

    Raises:
        ValueError: zero-length position, nonpositive dt, negative max_revs.
        AmbiguousPlane: for the first row whose transfer angle is within
            1e-8 rad of pi or whose endpoints coincide exactly; its row
            attribute gives the row.
    """
    r1 = np.asarray(r1, dtype=float).reshape(-1, 3)
    r0 = np.broadcast_to(np.asarray(r0, dtype=float), r1.shape)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), r1.shape[:1])
    r0n = np.linalg.norm(r0, axis=-1)
    r1n = np.linalg.norm(r1, axis=-1)
    if not (np.all(r0n > 0.0) and np.all(r1n > 0.0)):
        raise ValueError("positions must have nonzero magnitude")
    if not np.all(dt > 0.0):
        raise ValueError(
            f"transfer time must be positive, got {dt[~(dt > 0.0)][0]}")
    if max_revs < 0:
        raise ValueError(f"max_revs must be nonnegative, got {max_revs}")

    with np.errstate(divide="ignore", invalid="ignore"):
        delta = r1 - r0
        chord = np.linalg.norm(delta, axis=-1)
        coincident = chord <= _COINCIDENT_REL * r0n
        cos_dnu = np.clip(np.einsum("ij,ij->i", r0, r1) / (r0n * r1n),
                          -1.0, 1.0)
        dnu = np.arccos(cos_dnu)
        flat = ~coincident & (np.abs(dnu - math.pi) < _PLANE_TOL)
        bad = np.flatnonzero(flat | (coincident & (chord == 0.0)))
        if bad.size:
            i = int(bad[0])
            if coincident[i]:
                raise AmbiguousPlane("endpoints coincide exactly; transfer "
                                     "plane is undefined", row=i)
            raise AmbiguousPlane(
                f"transfer angle {float(dnu[i])!r} rad is within {_PLANE_TOL} "
                "of pi; the transfer plane is undefined", row=i)

        A = np.sqrt(r0n * r1n * (1.0 + cos_dnu))
        r_sum = r0n + r1n
        a_min = (r_sum + chord) / 4.0  # minimum-energy semimajor axis
        t_rev = _TWO_PI * np.sqrt(a_min**3 / mu)
        slot_revs, slot_sense = _slots(max_revs)

        A2 = A[:, None] * slot_sense[:2]
        psi = np.full((len(dt), slot_revs.size), np.nan)
        psi[:, :2] = _zero_rev(r_sum[:, None], A2, dt[:, None], mu)
        for revs in range(1, max_revs + 1):
            # dt cannot fit revs revolutions on any bound arc below revs * t_rev
            rows = np.flatnonzero(~coincident & (dt >= revs * t_rev))
            if not rows.size:
                break
            psi[rows, 4 * revs - 2:4 * revs + 2] = _multi_rev(
                r_sum[rows, None], A2[rows], dt[rows, None], mu,
                revs).reshape(-1, 4)
        psi[coincident] = np.nan

        # velocity recovery from psi (Lagrange f, g, gdot)
        found = ~np.isnan(psi)
        psi = np.where(found, psi, 1.0)
        c2, c3 = _stumpff(psi)[:2]
        A_slot = A[:, None] * slot_sense
        y = r_sum[:, None] + A_slot * (psi * c3 - 1.0) / np.sqrt(c2)
        g = A_slot * np.sqrt(y / mu)
        found &= (y > 0.0) & (g != 0.0)
        g = np.where(found, g, 1.0)[..., None]
        f = (1.0 - y / r0n[:, None])[..., None]
        gdot = (1.0 - y / r1n[:, None])[..., None]
        v_depart = (r1[:, None] - f * r0[:, None]) / g
        v_arrive = (gdot * r1[:, None] - r0[:, None]) / g
        found &= is_bound(r0[:, None], v_depart, mu)

        if coincident.any():
            c = np.flatnonzero(coincident)
            v_self, found[c] = _self_transfer(r0[c], delta[c], r0n[c], dt[c],
                                              mu, max_revs)
            v_depart[c] = v_self
            v_arrive[c] = v_self

    keep = found[..., None]
    sweep = (np.where(slot_sense > 0.0, dnu[:, None], _TWO_PI - dnu[:, None])
             + _TWO_PI * slot_revs)
    return LambertBatch(
        v_depart=np.where(keep, v_depart, 0.0),
        v_arrive=np.where(keep, v_arrive, 0.0), found=found, sweep=sweep,
        revs=slot_revs,
        branch=tuple("short" if s > 0.0 else "long" for s in slot_sense))


def solve_lambert(r0, r1, dt: float, mu: float = MU_EARTH,
                  max_revs: int = 1) -> list[LambertSolution]:
    """All bound arcs from r0 to r1 in exactly dt seconds.

    The batch of one: lambert_batch on a single row.

    Args:
        r0: Departure position, km (3 components).
        r1: Arrival position, km (3 components).
        dt: Transfer time, s, positive.
        mu: Gravitational parameter, km^3/s^2.
        max_revs: Largest complete-revolution count to search.

    Returns:
        Bound solutions for 0..max_revs revolutions, both transfer senses
        where they exist, ordered by (revs, branch). Empty list when the
        geometry and time admit no bound arc (dt below the parabolic
        limit of both senses).

    Raises:
        ValueError: zero-length position, nonpositive dt, negative max_revs.
        AmbiguousPlane: transfer angle within 1e-8 rad of pi, or exactly
            coincident endpoints; the transfer plane is undefined and any
            choice would be arbitrary.
    """
    r1 = np.asarray(r1, dtype=float)
    if r1.shape != (3,):
        raise ValueError(f"r1 must have 3 components, got shape {r1.shape}")
    batch = lambert_batch(r0, r1, dt, mu, max_revs)
    return [LambertSolution(v_depart=batch.v_depart[0, s],
                            v_arrive=batch.v_arrive[0, s],
                            revs=batch.revs[s], branch=batch.branch[s])
            for s in np.flatnonzero(batch.found[0])]
