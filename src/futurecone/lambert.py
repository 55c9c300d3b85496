"""Two-point boundary-value targeting (Lambert's problem).

Given two positions and a transfer time, find the terminal velocities of
every connecting bound ballistic arc, both transfer senses, zero through
max_revs complete revolutions. Izzo's formulation (Izzo, "Revisiting
Lambert's problem", CMDA 121, 2015): with chord c and semiperimeter s,
the geometry is one parameter lambda = sqrt(1 - c/s), negative for the
long sense, and the time of flight a nondimensional T(x). Bound arcs
have x in (-1, 1), where x^2 = 1 - s / (2a). With no complete
revolution T falls from infinity at x = -1 to the parabolic time T1 at
x = 1, so a zero-rev arc exists iff T > T1. With M revolutions T is
U-shaped, infinite at both ends, and only T >= M*pi can reach its
bottom T_min; a time above T_min has one arc on each side of it.

One array kernel, lambert_batch, solves many boundary problems at once
and returns only the arcs that exist. T_min <= T(0), so a
multi-revolution time above T(0) has its two arcs either side of x = 0;
only times at or below T(0) search for T_min, the root of dT/dx, by
Halley steps from x = 0 (Izzo 2015). Each arc is a root of T(x) - T by
Householder steps from Izzo's closed-form guess. Every search stays
inside a bracket that each step shrinks, a step leaving it is replaced
by the midpoint, and every element iterates until its own step is
negligible, so a row's solution does not depend on the other rows of its
batch. T(x) is Battin's hypergeometric series near the parabola and near
zero transfer angle, where Lancaster's closed form cancels, and that
form elsewhere; each element evaluates only its own form, and T(0) and
the check that a time reaches T_min evaluate T alone, without its
slopes. solve_lambert is the batch of one.

Coincident endpoints (periodic self-transfer) are a separate closed-form
branch: lambda reaches +-1 there and the transfer plane is undefined,
but the solution family is elementary (any arc whose period divides the
transfer time returns to its start).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU_EARTH
from .errors import AmbiguousPlane
from .kepler import _cross, is_bound

_TWO_PI = 2.0 * math.pi
_PLANE_TOL = 1e-8        # rad, transfer angles this close to pi are ambiguous
_COINCIDENT_REL = 1e-6   # |r1 - r0| below this fraction of |r0| is a self-transfer
_X_TOL = 1e-13           # an x step below this ends a root search
_MAX_STEPS = 64          # cap on steps; bisection alone converges well before
_SERIES_S1 = 0.1         # Battin's series below this argument, Lancaster above


def _series_coefficients(terms: int) -> tuple[float, ...]:
    """Taylor coefficients of 4/3 * 2F1(3, 1; 5/2; z), Battin's Q(z)."""
    c = [4.0 / 3.0]
    for k in range(terms - 1):
        c.append(c[-1] * (3.0 + k) / (2.5 + k))
    return tuple(c)


# 17 terms reach double precision for z below _SERIES_S1
_SERIES = _series_coefficients(17)


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
    """Connecting arcs of many boundary problems, one entry per arc.

    Arcs are ordered by row, then slot. Slot s is the arc with revs[s]
    complete revolutions in transfer sense branch[s]: zero revolutions
    short then long, then per revolution count short right, short left,
    long right, long left, where the right arc has x above the bottom of
    T and sweeps the less eccentric anomaly. That is the order
    solve_lambert lists solutions in. A row holds an entry only for the
    slots where a bound arc exists.

    Attributes:
        row: Boundary problem of each arc, (k,).
        slot: Slot of each arc, (k,).
        v_depart: Velocity at r0, km/s, (k, 3).
        v_arrive: Velocity at r1, km/s, (k, 3).
        revs: Complete revolutions per slot, (slots,).
        branch: Transfer sense per slot, "short" or "long".
    """

    row: np.ndarray
    slot: np.ndarray
    v_depart: np.ndarray
    v_arrive: np.ndarray
    revs: np.ndarray
    branch: tuple[str, ...]


def _norm(v) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _battin(s1, eta, lam) -> np.ndarray:
    """T without the revolution term, by Battin's series in s1.

    The 17-term Horner loop runs in place: numpy reuses the temporaries
    of q * s1 + c only on arrays far larger than a batch's.
    """
    q = np.full_like(s1, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        np.multiply(q, s1, out=q)
        np.add(q, c, out=q)
    return 0.5 * eta * (eta * eta * q + 4.0 * lam)


def _lancaster(x, u, u2, y, eta, lam) -> np.ndarray:
    """T without the revolution term, Lancaster's closed form."""
    psi = np.arctan2(u * eta, x * y + lam * u2)
    return (psi / u - x + lam * y) / u2


def _time(x, lam, one_minus_lam2, revs) -> tuple[np.ndarray, ...]:
    """Nondimensional time of flight T(x), with the u^2 = 1 - x^2 and y
    its slopes reuse.

    Elementwise over x in (-1, 1). 1 - lambda^2 (= c/s) is passed in
    rather than formed, which keeps it exact near zero transfer angle;
    eta = y - lambda*x likewise uses (y - lambda*x)(y + lambda*x) =
    1 - lambda^2 on the side where the difference cancels. Each element
    evaluates one form only: Battin's series where its argument s1 is
    below _SERIES_S1, Lancaster's closed form elsewhere.
    """
    u2 = (1.0 - x) * (1.0 + x)
    u = np.sqrt(u2)
    y = np.sqrt(one_minus_lam2 + lam * lam * x * x)
    lx = lam * x
    eta = np.where(lx > 0.0, one_minus_lam2 / (y + lx), y - lx)
    s1 = 0.5 * (1.0 - lam - x * eta)
    series = s1 < _SERIES_S1
    n_series = np.count_nonzero(series)
    if n_series == x.size:
        T = _battin(s1, eta, lam)
    elif n_series == 0:
        T = _lancaster(x, u, u2, y, eta, lam)
    else:
        T = np.empty_like(x)
        i = np.flatnonzero(series)
        T[i] = _battin(s1[i], eta[i], lam[i])
        i = np.flatnonzero(~series)
        T[i] = _lancaster(x[i], u[i], u2[i], y[i], eta[i], lam[i])
    T += revs * math.pi / (u2 * u)
    return T, u2, y


def _t_of_x(x, lam, one_minus_lam2, revs) -> tuple[np.ndarray, ...]:
    """T(x) and its first three x-slopes, Izzo's eq. (22)."""
    T, u2, y = _time(x, lam, one_minus_lam2, revs)
    lam_sq = lam * lam
    lam3 = lam_sq * lam
    y_sq = y * y
    y3 = y_sq * y
    dT = (3.0 * T * x - 2.0 + 2.0 * lam3 * x / y) / u2
    ddT = (3.0 * T + 5.0 * x * dT + 2.0 * one_minus_lam2 * lam3 / y3) / u2
    dddT = (7.0 * x * ddT + 8.0 * dT
            - 6.0 * one_minus_lam2 * lam3 * lam_sq * x / (y3 * y_sq)) / u2
    return T, dT, ddT, dddT


def _bracketed(step, x, lo, hi, *args) -> np.ndarray:
    """Elementwise root search on (lo, hi), starting from x.

    step(x, *args) gives the next iterate and whether the root lies
    above x. An element stops after a step below _X_TOL; only the others
    go on. For them x becomes the bracket's lower or upper end, and a
    step that leaves the bracket (or is nan) is replaced by its midpoint.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    for _ in range(_MAX_STEPS):
        nxt, above = step(x, *args)
        going = ~(np.abs(nxt - x) <= _X_TOL)
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        nxt = np.where(going & ~((lo < nxt) & (nxt < hi)), 0.5 * (lo + hi),
                       nxt)
        out[idx] = nxt
        if not going.any():
            break
        if not going.all():
            keep = np.flatnonzero(going)
            idx, nxt, lo, hi = idx[keep], nxt[keep], lo[keep], hi[keep]
            args = tuple(a[keep] for a in args)
        x = nxt
    return out


def _halley_bottom(x, lam, one_minus_lam2, revs):
    """Halley step towards the root of dT/dx, the bottom of T."""
    _, d1, d2, d3 = _t_of_x(x, lam, one_minus_lam2, revs)
    return x - d1 * d2 / (d2 * d2 - 0.5 * d1 * d3), d1 < 0.0


def _householder(x, lam, one_minus_lam2, revs, target, falling):
    """Householder step towards T(x) = target; T falls in x if falling."""
    T, d1, d2, d3 = _t_of_x(x, lam, one_minus_lam2, revs)
    delta = T - target
    d1sq = d1 * d1
    step = (delta * (d1sq - 0.5 * delta * d2)
            / (d1 * (d1sq - delta * d2) + d3 * delta * delta / 6.0))
    return x - step, (delta > 0.0) == falling


def _roots(lam, one_minus_lam2, T, max_revs: int):
    """x of every bound arc whose time of flight is T, per row.

    lam is the short-sense lambda of each row; the long sense negates
    it. Returns (row, slot, x, sense) per arc, sense +1 short, -1 long.
    """
    sense = np.array([1.0, -1.0])
    # zero revolutions need T above the parabolic T1 = 2/3 (1 - lambda^3),
    # factored for the short sense (lambda >= 0), where it cancels
    lam_sq = lam * lam
    t1 = (2.0 / 3.0) * np.stack(
        [one_minus_lam2 * (1.0 + lam + lam_sq) / (1.0 + lam),
         1.0 + lam * lam_sq], axis=1)
    row, k = np.nonzero(T[:, None] > t1)
    lam0, oml0, tt, t1 = (lam[row] * sense[k], one_minus_lam2[row], T[row],
                          t1[row, k])
    t0 = np.arctan2(np.sqrt(oml0), lam0) + lam0 * np.sqrt(oml0)  # T(x = 0)
    slow = tt >= t0
    guess = np.where(slow, t0 / tt, tt / t0) ** np.where(
        slow, 2.0 / 3.0, math.log(2.0) / np.log(t1 / t0)) - 1.0
    n = row.size
    parts = [(row, k, k, np.zeros(n), guess, np.full(n, -1.0), np.ones(n),
              np.ones(n, dtype=bool))]

    # M revolutions: rows with T >= M pi may reach T_min; one arc each side.
    # T_min <= T(0), so only rows at or below T(0) search for it
    revs = np.arange(1, max_revs + 1)
    row, k, m = np.nonzero(np.broadcast_to(
        (T[:, None] >= math.pi * revs)[:, None, :], (T.size, 2, max_revs)))
    m = revs[m].astype(float)
    if row.size:
        args = (lam[row] * sense[k], one_minus_lam2[row], m)
        bottom = np.zeros(row.size)
        reach = T[row] > _time(bottom, *args)[0]
        low = np.flatnonzero(~reach)
        if low.size:
            sub = tuple(a[low] for a in args)
            bottom[low] = _bracketed(_halley_bottom, bottom[low],
                                     np.full(low.size, -1.0),
                                     np.ones(low.size), *sub)
            reach[low] = T[row[low]] >= _time(bottom[low], *sub)[0]
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
    velocity. Both signs are returned, in the right slot of each sense;
    returns (row, slot, velocity) lists of the bound arcs.
    """
    direction = delta / _norm(delta)[:, None]
    rows, slots, vs = [], [], []
    for revs in range(1, max_revs + 1):
        a = (mu * (dt / (_TWO_PI * revs)) ** 2) ** (1.0 / 3.0)
        vis = mu * (2.0 / r0n - 1.0 / a)  # <= 0: r0 outside any such orbit
        speed = np.sqrt(np.maximum(vis, 0.0))
        for sign, slot in ((1.0, 4 * revs - 2), (-1.0, 4 * revs)):
            v = sign * speed[:, None] * direction
            i = np.flatnonzero((vis > 0.0) & is_bound(r0, v, mu))
            rows.append(i)
            slots.append(np.full(i.size, slot))
            vs.append(v[i])
    return rows, slots, vs


def lambert_batch(r0, r1, dt, mu: float = MU_EARTH,
                  max_revs: int = 1) -> LambertBatch:
    """All bound arcs for many boundary problems, one per row.

    Row i asks for every arc from r0[i] to r1[i] in exactly dt[i]
    seconds, as solve_lambert does for one.

    Args:
        r0: Departure positions, km, (n, 3), or one (3,) for all rows.
        r1: Arrival positions, km, (n, 3), or one (3,) for one row.
        dt: Transfer times, s, (n,) or one for all rows; positive.
        mu: Gravitational parameter, km^3/s^2.
        max_revs: Largest complete-revolution count to search.

    Raises:
        ValueError: r0, r1 or dt of another shape, a position zero or
            not finite, dt not positive and finite, negative max_revs.
        AmbiguousPlane: for the first row whose transfer angle is within
            1e-8 rad of pi or whose endpoints coincide exactly; its row
            attribute gives the row.
    """
    r1 = np.asarray(r1, dtype=float)
    if r1.ndim not in (1, 2) or r1.shape[-1] != 3:
        raise ValueError(f"r1 must have shape (n, 3) or (3,), "
                         f"got shape {r1.shape}")
    r1 = r1.reshape(-1, 3)
    r0 = np.asarray(r0, dtype=float)
    if r0.shape not in ((3,), r1.shape):
        raise ValueError(f"r0 must have shape (3,) or {r1.shape}, "
                         f"got shape {r0.shape}")
    for name, arr in (("r0", r0), ("r1", r1)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    r0 = np.broadcast_to(r0, r1.shape)
    dt = np.asarray(dt, dtype=float)
    if dt.shape not in ((), (1,), r1.shape[:1]):
        raise ValueError(f"dt must be one time or one per row, got {dt.shape}")
    dt = np.broadcast_to(dt, r1.shape[:1])
    r0n = _norm(r0)
    r1n = _norm(r1)
    if not (np.all(r0n > 0.0) and np.all(r1n > 0.0)):
        raise ValueError("positions must have nonzero magnitude")
    bad_dt = ~(np.isfinite(dt) & (dt > 0.0))
    if bad_dt.any():
        raise ValueError(
            f"transfer time must be positive and finite, got {dt[bad_dt][0]}")
    if max_revs < 0:
        raise ValueError(f"max_revs must be nonnegative, got {max_revs}")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = r1 - r0
        chord = _norm(delta)
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

        i0 = r0 / r0n[:, None]
        i1 = r1 / r1n[:, None]
        s = 0.5 * (r0n + r1n + chord)
        root_r = np.sqrt(r0n * r1n)
        lam = root_r * _norm(i0 + i1) / (2.0 * s)
        T = np.sqrt(2.0 * mu / s**3) * dt
        T[coincident] = 0.0  # no arc here: they take the closed form below
        row, slot, x, sense = _roots(lam, chord / s, T, max_revs)

        # velocity recovery, Izzo's eq. (21): radial and transverse parts
        normal = _cross(i0, i1)
        normal /= _norm(normal)[:, None]
        rho = ((r0n - r1n) / chord)[row]
        sigma = (root_r * _norm(i1 - i0) / chord)[row]  # sqrt(1 - rho^2)
        gamma = np.sqrt(0.5 * mu * s)[row]
        lam = sense * lam[row]
        oml2 = (chord / s)[row]
        y = np.sqrt(oml2 + lam * lam * x * x)
        lx = lam * x
        y_plus = np.where(lx < 0.0, oml2 / (y - lx), y + lx)  # y + lambda x
        ly = lam * y
        vr0 = gamma * ((ly - x) - rho * (ly + x)) / r0n[row]
        vr1 = -gamma * ((ly - x) + rho * (ly + x)) / r1n[row]
        vt = sense * gamma * sigma * y_plus
        v_depart = (vr0[:, None] * i0.take(row, axis=0)
                    + (vt / r0n[row])[:, None]
                    * _cross(normal, i0).take(row, axis=0))
        v_arrive = (vr1[:, None] * i1.take(row, axis=0)
                    + (vt / r1n[row])[:, None]
                    * _cross(normal, i1).take(row, axis=0))
        bound = is_bound(r0.take(row, axis=0), v_depart, mu)
        if not bound.all():
            row, slot = row[bound], slot[bound]
            v_depart, v_arrive = v_depart[bound], v_arrive[bound]
        rows, slots, departs, arrives = [row], [slot], [v_depart], [v_arrive]

        if coincident.any():
            c = np.flatnonzero(coincident)
            c_rows, c_slots, c_vs = _self_transfer(
                r0[c], delta[c], r0n[c], dt[c], mu, max_revs)
            rows += [c[i] for i in c_rows]
            slots += c_slots
            departs += c_vs
            arrives += c_vs

    # _roots lists the zero-rev arcs first, in (row, slot) order as
    # np.nonzero found them, and the multi-rev arcs (slots from 2) after
    # them: only those, or appended self-transfer arcs, need the sort
    if len(rows) > 1 or (slot.size and slot[-1] > 1):
        row = np.concatenate(rows)
        slot = np.concatenate(slots)
        order = np.lexsort((slot, row))
        row, slot = row[order], slot[order]
        v_depart = np.concatenate(departs)[order]
        v_arrive = np.concatenate(arrives)[order]
    slot_revs, slot_sense = _slots(max_revs)
    return LambertBatch(
        row=row, slot=slot, v_depart=v_depart, v_arrive=v_arrive,
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
        geometry and time admit no bound arc (dt at or below the
        parabolic time of both senses).

    Raises:
        ValueError: a position not of 3 finite components or zero, dt
            not positive and finite, negative max_revs.
        AmbiguousPlane: transfer angle within 1e-8 rad of pi, or exactly
            coincident endpoints; the transfer plane is undefined and any
            choice would be arbitrary.
    """
    for name, shape in (("r0", np.shape(r0)), ("r1", np.shape(r1))):
        if shape != (3,):
            raise ValueError(f"{name} must have shape (3,), got shape {shape}")
    batch = lambert_batch(r0, r1, dt, mu, max_revs)
    return [LambertSolution(v_depart=batch.v_depart[i],
                            v_arrive=batch.v_arrive[i],
                            revs=batch.revs[s], branch=batch.branch[s])
            for i, s in enumerate(batch.slot)]
