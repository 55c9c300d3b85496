"""Two Cars verdicts with their repeated work: the test oracle.

The arc kernel that builds each pose column with ``full``,
``concatenate`` and ``stack``; a control family built per car, with its
extremal table written out in Python lists on every call; the random
three-segment laws that test the disk bound (``random_controls``); the
sampled containment verdict that flies the two cars' families, random
draws included, in two kernel calls per grid time; and the explicit pursuit
that flies every approach sample through every route segment and
takes the separation over the whole span. `futurecone.twocars` must
give the same verdicts, from the extremal table alone, and the same
pursuit results, bit for bit, except that its pursuit path stops at
the capture sample.
"""
from __future__ import annotations

import math

import numpy as np

from futurecone.twocars import (
    _GEOM_SLACK,
    _TINY_TURN,
    CarConfig,
    CarPath,
    CarState,
    EquivalenceVerdict,
    PursuitResult,
    _measured_peak_accel,
    _sample_count,
    _tangent_path,
    cockayne_check,
)


def arc_poses(v: float | np.ndarray,
              start: tuple[float, float, float] | np.ndarray,
              rates: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Poses (..., k + 1, 3) along constant-rate segments, from one
    start pose (3,) or start poses (..., 3)."""
    turn = rates * durations
    half = 0.5 * turn
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chord = np.where(np.abs(turn) < _TINY_TURN, v * durations,
                         2.0 * (v / rates) * np.sin(half))

    def accumulate(origin: np.ndarray, steps: np.ndarray) -> np.ndarray:
        head = np.full(steps.shape[:-1] + (1,), origin[..., None])
        return np.cumsum(np.concatenate([head, steps], axis=-1), axis=-1)

    start = np.asarray(start, float)
    theta = accumulate(start[..., 2], np.broadcast_to(turn, chord.shape))
    mid = theta[..., :-1] + half
    x = accumulate(start[..., 0], chord * np.sin(mid))
    y = accumulate(start[..., 1], chord * np.cos(mid))
    return np.stack([x, y, theta], axis=-1)


def random_controls(u_max: float, tau: float, n_random: int,
                    rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Rates and durations, each (n_random, 3), of random three-segment
    laws over tau: half with saturated rates, half with rates uniform
    in the admissible interval."""
    cuts = np.sort(rng.uniform(0.0, 1.0, (n_random, 2)), axis=1)
    durations = tau * np.column_stack(
        [cuts[:, 0], cuts[:, 1] - cuts[:, 0], 1.0 - cuts[:, 1]])
    rates = rng.uniform(-u_max, u_max, (n_random, 3))
    half = n_random // 2
    rates[:half] = u_max * rng.choice([-1.0, 1.0], (half, 3))
    return rates, durations


def family_endpoints(cfg: CarConfig, theta0: float, tau: float,
                     n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoint offsets (m, 2) of the extremal and random control laws."""
    u_max = cfg.admissible_rate
    fractions = np.linspace(0.125, 0.875, 7)
    rates = [[0.0, 0.0, 0.0], [u_max, u_max, u_max], [-u_max, -u_max, -u_max]]
    durations = [[tau, 0.0, 0.0]] * 3
    for frac in fractions:
        for first in (u_max, -u_max):
            for second in (-first, 0.0):
                rates.append([first, second, 0.0])
                durations.append([frac * tau, (1.0 - frac) * tau, 0.0])
    rates = np.array(rates)
    durations = np.array(durations)
    if n_random > 0:
        random_rates, random_dur = random_controls(u_max, tau, n_random, rng)
        rates = np.vstack([rates, random_rates])
        durations = np.vstack([durations, random_dur])
    return arc_poses(cfg.v, (0.0, 0.0, theta0), rates, durations)[:, -1, :2]


def containment_equivalence(pursuer: CarConfig, evader: CarConfig,
                            horizon: float, headstart: float,
                            samples: int = 256, time_grid: int = 33,
                            seed: int = 0) -> EquivalenceVerdict:
    """Sampled containment next to Cockayne, one family per car per time."""
    come_about = math.pi * pursuer.R / pursuer.v
    if headstart < come_about * (1.0 - _GEOM_SLACK):
        raise ValueError(
            f"headstart {headstart} is below the come-about time "
            f"{come_about}")
    if not horizon > headstart:
        raise ValueError(
            f"horizon {horizon} must exceed the headstart {headstart}")
    if time_grid < 2:
        raise ValueError(f"time_grid must be at least 2, got {time_grid}")
    times = np.linspace(headstart, horizon, time_grid)
    radius_ok = True
    witness = None
    for k, t in enumerate(times):
        tau = float(t)
        evader_pts = family_endpoints(evader, 0.0, tau, samples,
                                      np.random.default_rng([seed, k]))
        pursuer_pts = family_endpoints(pursuer, 0.0, tau, samples,
                                       np.random.default_rng([seed, k]))
        ranges = np.linalg.norm(evader_pts, axis=1)
        frontier = float(np.max(np.linalg.norm(pursuer_pts, axis=1)))
        over = np.flatnonzero((ranges > frontier) | (
            (ranges == frontier) & (evader.v >= pursuer.v)))
        if over.size:
            worst = over[np.argmax(ranges[over])]
            witness = np.array([evader_pts[worst, 0],
                                evader_pts[worst, 1], tau])
            radius_ok = False
            break
    accel_ok = evader.v ** 2 / evader.R <= pursuer.v ** 2 / pursuer.R
    return EquivalenceVerdict(
        contained=radius_ok and accel_ok, radius_ok=radius_ok,
        accel_ok=accel_ok, cockayne=cockayne_check(pursuer, evader),
        witness=witness, evader_peak_accel=_measured_peak_accel(evader),
        pursuer_peak_accel=_measured_peak_accel(pursuer),
        horizon=horizon, n_times=time_grid)


def explicit_policy_pursuit(pursuer: CarConfig, evader: CarConfig,
                            p0: CarState, evader_path: CarPath,
                            capture_radius: float | None = None
                            ) -> PursuitResult:
    """Explicit-policy chase; every approach sample drives every route
    segment, and the separation is taken over the whole span."""
    if evader_path.cfg != evader:
        raise ValueError("evader config does not match the recorded track")
    if capture_radius is None:
        capture_radius = 1e-3 * pursuer.R
    if not (math.isfinite(capture_radius) and capture_radius > 0.0):
        raise ValueError(
            f"capture radius must be positive and finite, got {capture_radius}")
    track_t0 = float(evader_path.times[0])
    track_end = float(evader_path.times[-1])
    if track_end <= p0.t:
        raise ValueError(
            f"evader track ends at {track_end}, before the pursuit "
            f"starts at {p0.t}")
    start = evader_path.states[0]
    rates, durations = _tangent_path(p0, start[:2], float(start[2]), pursuer)
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    t_acq = p0.t + float(edges[-1])

    step = capture_radius / (pursuer.v + evader.v)
    if evader_path.times.size > 1:
        step = min(float(np.median(np.diff(evader_path.times))), step)
    n = _sample_count((track_end - p0.t) / step, "pursuit")
    times = p0.t + (track_end - p0.t) * np.arange(n + 1) / n
    states = np.empty((n + 1, 3))
    n_approach = int(np.searchsorted(times, t_acq, side="right"))
    elapsed = times[:n_approach, None] - p0.t
    states[:n_approach] = arc_poses(
        pursuer.v, (p0.x, p0.y, p0.theta), rates,
        np.clip(elapsed - edges[:-1], 0.0, durations))[:, -1]
    u = track_t0 + (pursuer.v / evader.v) * (times[n_approach:] - t_acq)
    for col in range(3):
        states[n_approach:, col] = np.interp(u, evader_path.times,
                                             evader_path.states[:, col])

    dx = states[:, 0] - np.interp(times, evader_path.times,
                                  evader_path.states[:, 0])
    dy = states[:, 1] - np.interp(times, evader_path.times,
                                  evader_path.states[:, 1])
    gap = np.sqrt(dx * dx + dy * dy)
    hits = np.flatnonzero(gap <= capture_radius)
    captured = bool(hits.size)
    closest = int(np.argmin(gap[:hits[0] + 1] if captured else gap))
    return PursuitResult(
        captured=captured,
        capture_time=float(times[hits[0]]) if captured else None,
        closest_approach=float(gap[closest]),
        closest_time=float(times[closest]), acquisition_time=t_acq,
        capture_radius=capture_radius,
        path=CarPath(cfg=pursuer, times=times, states=states))
