"""Universal-variable Lambert solver in plain numpy: the test oracle.

The psi search futurecone.lambert used before Izzo's formulation. The
free parameter psi maps to a time of flight that is monotone on the
zero-rev band and U-shaped on each multi-revolution band, so every
solution is found by bracketed root-finding; bound solutions have
psi > 0. Each solve is Newton's method on the analytic slope of the
time of flight, kept inside a shrinking bracket by bisection.

Regular rows only: no coincident-endpoint branch and no check of the
transfer plane. Slots are laid out as futurecone.lambert numbers them.

Also here: t_of_x, Izzo's time of flight as futurecone.lambert computed
it before each element evaluated only its own branch, both branches on
every element and np.where keeping one; and roots_searching_every_bottom,
futurecone.lambert's root finder as it was before rows above T(0) skipped
the search for the bottom of T.
"""
from __future__ import annotations

import math

import numpy as np

from futurecone.constants import MU_EARTH
from futurecone.kepler import is_bound
from futurecone.lambert import (
    _SERIES,
    _SERIES_S1,
    _bracketed,
    _halley_bottom,
    _householder,
    _time,
)

_FOUR_PI2 = 4.0 * math.pi**2
_EDGE_INSET = 1e-9       # relative inset from band edges where tof blows up
_ZERO_REV_LO = 1e-10     # psi just above the parabolic limit
_TANGENT_TOL = 1e-9      # two roots this close on one band are one double root
_STEP_TOL = 1e-13        # a psi step below this * (1 + |psi|) ends the search
_NEWTON_MAX = 200        # cap on steps; bisection alone converges well before
_CURVATURE_STEP = 1e-7   # relative psi step of the tof-slope difference quotient


def series_argument(x, lam, one_minus_lam2) -> np.ndarray:
    """s1 = (1 - lambda - x eta) / 2, the argument of Battin's series."""
    y = np.sqrt(one_minus_lam2 + lam * lam * x * x)
    lx = lam * x
    eta = np.where(lx > 0.0, one_minus_lam2 / (y + lx), y - lx)
    return 0.5 * (1.0 - lam - x * eta)


def t_of_x(x, lam, one_minus_lam2, revs) -> tuple[np.ndarray, ...]:
    """Izzo's T(x) and its first three x-slopes, both branches of T on
    every element."""
    u2 = (1.0 - x) * (1.0 + x)
    u = np.sqrt(u2)
    lam_sq = lam * lam
    y = np.sqrt(one_minus_lam2 + lam_sq * x * x)
    lx = lam * x
    eta = np.where(lx > 0.0, one_minus_lam2 / (y + lx), y - lx)
    s1 = 0.5 * (1.0 - lam - x * eta)
    q = _SERIES[-1]
    for c in _SERIES[-2::-1]:
        q = q * s1 + c
    battin = 0.5 * eta * (eta * eta * q + 4.0 * lam)
    psi = np.arctan2(u * eta, x * y + lam * u2)
    lancaster = (psi / u - x + lam * y) / u2
    T = (np.where(s1 < _SERIES_S1, battin, lancaster)
         + revs * math.pi / (u2 * u))
    lam3 = lam_sq * lam
    y_sq = y * y
    y3 = y_sq * y
    dT = (3.0 * T * x - 2.0 + 2.0 * lam3 * x / y) / u2
    ddT = (3.0 * T + 5.0 * x * dT + 2.0 * one_minus_lam2 * lam3 / y3) / u2
    dddT = (7.0 * x * ddT + 8.0 * dT
            - 6.0 * one_minus_lam2 * lam3 * lam_sq * x / (y3 * y_sq)) / u2
    return T, dT, ddT, dddT


def roots_searching_every_bottom(lam, one_minus_lam2, T, max_revs: int):
    """futurecone.lambert._roots with the Halley search for T_min run on
    every multi-revolution candidate, T >= M pi, whatever its T(0)."""
    sense = np.array([1.0, -1.0])
    lam_sq = lam * lam
    t1 = (2.0 / 3.0) * np.stack(
        [one_minus_lam2 * (1.0 + lam + lam_sq) / (1.0 + lam),
         1.0 + lam * lam_sq], axis=1)
    row, k = np.nonzero(T[:, None] > t1)
    lam0, oml0, tt, t1 = (lam[row] * sense[k], one_minus_lam2[row], T[row],
                          t1[row, k])
    t0 = np.arctan2(np.sqrt(oml0), lam0) + lam0 * np.sqrt(oml0)
    slow = tt >= t0
    guess = np.where(slow, t0 / tt, tt / t0) ** np.where(
        slow, 2.0 / 3.0, math.log(2.0) / np.log(t1 / t0)) - 1.0
    n = row.size
    parts = [(row, k, k, np.zeros(n), guess, np.full(n, -1.0), np.ones(n),
              np.ones(n, dtype=bool))]
    revs = np.arange(1, max_revs + 1)
    row, k, m = np.nonzero(np.broadcast_to(
        (T[:, None] >= math.pi * revs)[:, None, :], (T.size, 2, max_revs)))
    m = revs[m].astype(float)
    if row.size:
        args = (lam[row] * sense[k], one_minus_lam2[row], m)
        bottom = _bracketed(_halley_bottom, np.zeros(row.size),
                            np.full(row.size, -1.0), np.ones(row.size), *args)
        reach = T[row] >= _time(bottom, *args)[0]
        row, k, m, bottom = row[reach], k[reach], m[reach], bottom[reach]
        n = row.size
        tt = T[row]
        left = ((m + 1.0) * math.pi / (8.0 * tt)) ** (2.0 / 3.0)
        right = (8.0 * tt / (m * math.pi)) ** (2.0 / 3.0)
        slot = (4 * m - 2 + 2 * k).astype(np.intp)
        parts.append((row, k, slot, m, (right - 1.0) / (right + 1.0), bottom,
                      np.ones(n), np.zeros(n, dtype=bool)))
        parts.append((row, k, slot + 1, m, (left - 1.0) / (left + 1.0),
                      np.full(n, -1.0), bottom, np.ones(n, dtype=bool)))
    if len(parts) > 1:
        parts = [tuple(np.concatenate(c) for c in zip(*parts))]
    row, k, slot, m, guess, lo, hi, falling = parts[0]
    x = _bracketed(_householder, guess, lo, hi, lam[row] * sense[k],
                   one_minus_lam2[row], m, T[row], falling)
    return row, slot, x, sense[k]


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
    """Elementwise root of f in [lo, hi]: Newton, bisecting as needed."""
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
    """psi in [lo, hi] whose time of flight is dt, by Newton on
    log(tof / dt)."""
    def err(x):
        tof, slope = _tof(x, r_sum, A, mu)
        return np.log(tof / dt), slope / tof

    return _newton(err, lo, hi, rising)


def _zero_rev(r_sum, A, dt, mu: float) -> np.ndarray:
    """psi on the zero-rev band per row and sense, (m, 2); nan if none."""
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

    The bottom of the U is the root of the slope; each side that
    brackets dt is then solved. Two roots closer than _TANGENT_TOL are
    one double root and keep only the low one.
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


def lambert_dense(r0, r1, dt, mu: float = MU_EARTH, max_revs: int = 1):
    """Bound arcs of regular boundary problems, one row each.

    Args:
        r0, r1: Departure and arrival positions, km, (n, 3).
        dt: Transfer times, s, (n,).
        mu: Gravitational parameter, km^3/s^2.
        max_revs: Largest complete-revolution count to search.

    Returns:
        (found, v_depart, v_arrive): found flags (n, slots) and the
        terminal velocities (n, slots, 3), zero where not found.
    """
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    dt = np.asarray(dt, dtype=float)
    r0n = np.linalg.norm(r0, axis=-1)
    r1n = np.linalg.norm(r1, axis=-1)
    slot_revs = np.array([0, 0] + [k for k in range(1, max_revs + 1)
                                   for _ in range(4)])
    slot_sense = np.array([1.0, -1.0] + [1.0, 1.0, -1.0, -1.0] * max_revs)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.linalg.norm(r1 - r0, axis=-1)
        cos_dnu = np.clip(np.einsum("ij,ij->i", r0, r1) / (r0n * r1n),
                          -1.0, 1.0)
        A = np.sqrt(r0n * r1n * (1.0 + cos_dnu))
        r_sum = r0n + r1n
        t_rev = 2.0 * math.pi * np.sqrt(((r_sum + chord) / 4.0) ** 3 / mu)

        A2 = A[:, None] * slot_sense[:2]
        psi = np.full((len(dt), slot_revs.size), np.nan)
        psi[:, :2] = _zero_rev(r_sum[:, None], A2, dt[:, None], mu)
        for revs in range(1, max_revs + 1):
            rows = np.flatnonzero(dt >= revs * t_rev)
            if not rows.size:
                break
            psi[rows, 4 * revs - 2:4 * revs + 2] = _multi_rev(
                r_sum[rows, None], A2[rows], dt[rows, None], mu,
                revs).reshape(-1, 4)

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
    keep = found[..., None]
    return (found, np.where(keep, v_depart, 0.0),
            np.where(keep, v_arrive, 0.0))
