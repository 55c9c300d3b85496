"""Planar pursuit between two constant-speed cars that steer to maneuver.

Each car moves at a fixed speed and controls only its heading, with the
turn rate bounded by speed over minimum turn radius. The classic verdict
is Cockayne's pair of inequalities: the pursuer intercepts the evader
against all opposition exactly when it is faster and can pull at least
as much lateral acceleration. The same verdict falls out of cone
containment, and this module carries both sides: kinematics and
reachable sets for the cones, the interception inequalities, the
explicit pursuit policy (drive to the evader's starting point, then
follow its track), and a sampled containment test that is compared
against the inequalities.

Every path is built by one exact arc kernel over constant-rate
segments: each moves by its chord along the mid-heading, and heading
and position accumulate by cumulative sums. Steering laws report their
rates for many epochs at once (``SteeringLaw.rates_at``), so a
propagation is one rate lookup and one kernel call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import WorkCapExceeded

# Steering is bounded strictly below v/R; the supremum is approached
# through this relative margin, never attained.
_RATE_MARGIN = 1e-9
# Below this turn angle per step the exact arc update degenerates to a
# straight segment (the v/u lever arm overflows as u -> 0).
_TINY_TURN = 1e-12
# Samples one pursuit, or steps one propagation, may allocate. The
# largest criterion-8 games need about 5e5.
_MAX_SAMPLES = 10**7
# Relative headroom granted to empirical comparisons against analytic
# bounds, absorbing round-off without admitting real violations.
_GEOM_SLACK = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CarConfig:
    """Constant speed and minimum turn radius of one car.

    Attributes:
        v: Speed, m/s; held exactly along every path.
        R: Minimum turn radius, m. The turn rate obeys the strict bound
            |thetadot| < v/R.
    """

    v: float
    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"speed must be positive and finite, got {self.v}")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError(
                f"turn radius must be positive and finite, got {self.R}")

    @property
    def max_turn_rate(self) -> float:
        """Supremum v/R of the admissible turn rate, rad/s (open bound)."""
        return self.v / self.R

    @property
    def admissible_rate(self) -> float:
        """Largest turn rate treated as admissible, rad/s.

        The strict bound v/R is approached through a fixed relative
        margin rather than attained.
        """
        return (1.0 - _RATE_MARGIN) * self.v / self.R


@dataclass(frozen=True)
class CarState:
    """Planar pose of one car at an instant.

    Attributes:
        x: Position, m.
        y: Position, m.
        theta: Heading, rad, measured from +y toward +x; stored
            unreduced so paths keep a continuous heading, reduced mod
            2*pi for comparison via ``heading``.
        t: Epoch, s.
    """

    x: float
    y: float
    theta: float
    t: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def position(self) -> np.ndarray:
        """Position (x, y) as an array, m."""
        return np.array([self.x, self.y])

    @property
    def heading(self) -> float:
        """Heading reduced to [0, 2*pi)."""
        return self.theta % TWO_PI


@dataclass(frozen=True, eq=False)
class SteeringLaw:
    """Turn-rate control thetadot(t) with its admissibility cap.

    Attributes:
        thetadot: Piecewise-continuous turn rate, rad/s, as a function
            of absolute time.
        rate_cap: Largest magnitude the law may return, rad/s. Laws
            built by the constructors validate their rates against the
            car's admissible bound at construction; a raw callable has
            every rate it returns checked during propagation.
    """

    thetadot: Callable[[float], float]
    rate_cap: float
    # (switches, rates) of a constructor-built law; None for a raw callable
    _table: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_cap) and self.rate_cap >= 0.0):
            raise ValueError(
                f"rate cap must be finite and nonnegative, got {self.rate_cap}")

    @classmethod
    def constant(cls, rate: float, cfg: CarConfig) -> "SteeringLaw":
        """Constant turn rate, validated against cfg at construction.

        Raises:
            ValueError: |rate| exceeds the admissible bound.
        """
        return cls.piecewise([], [rate], cfg)

    @classmethod
    def piecewise(cls, switches, rates, cfg: CarConfig) -> "SteeringLaw":
        """Piecewise-constant law: rates[i] applies before switches[i].

        Args:
            switches: Strictly increasing switch epochs, s (may be
                empty).
            rates: One more rate than switches; rates[-1] applies for
                all time past the last switch.
            cfg: Car whose admissible bound validates every rate.

        Raises:
            ValueError: rate out of bounds or switches not increasing.
        """
        switches = np.asarray(switches, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (switches.size + 1,):
            raise ValueError(
                f"need len(switches) + 1 rates, got {switches.size} switches "
                f"and {rates.size} rates")
        if switches.size and not np.all(np.diff(switches) > 0.0):
            raise ValueError("switch epochs must be strictly increasing")
        bad = np.flatnonzero(~(np.abs(rates) <= cfg.admissible_rate))
        if bad.size:
            raise ValueError(
                f"turn rate {rates[bad[0]]} exceeds the admissible bound "
                f"{cfg.admissible_rate} (strictly below v/R = "
                f"{cfg.max_turn_rate})")

        law = cls(thetadot=lambda t: float(law.rates_at(t)),
                  rate_cap=float(np.max(np.abs(rates))))
        object.__setattr__(law, "_table", (switches, rates))
        return law

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        """Turn rates at each epoch, rad/s, shape of times.

        Constructor-built laws answer with one table lookup, which is
        also their thetadot; a raw callable is evaluated per epoch.
        """
        if self._table is None:
            return np.fromiter(map(self.thetadot, times.tolist()), float)
        switches, rates = self._table
        return rates[np.searchsorted(switches, times, side="right")]


@dataclass(frozen=True, eq=False)
class CarPath:
    """Sampled planar trajectory of one car.

    Attributes:
        cfg: Car that drove the path.
        times: Sample epochs, s, strictly increasing, shape (n,).
        states: Pose samples (x, y, theta), shape (n, 3). Heading is
            continuous (not reduced mod 2*pi).
    """

    cfg: CarConfig
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.shape != (times.size, 3):
            raise ValueError(
                f"need times (n,) and states (n, 3), got {times.shape} "
                f"and {states.shape}")
        if times.size < 1:
            raise ValueError("a path needs at least one sample")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample epochs must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def positions(self) -> np.ndarray:
        """Position samples, shape (n, 2)."""
        return self.states[:, :2]

    @property
    def velocities(self) -> np.ndarray:
        """Velocity samples v*(sin theta, cos theta), shape (n, 2).

        The heading is stored as an angle, so every sample has speed
        exactly v.
        """
        theta = self.states[:, 2]
        return self.cfg.v * np.column_stack([np.sin(theta), np.cos(theta)])

    @property
    def endpoint(self) -> CarState:
        """Final sample as a CarState."""
        x, y, theta = self.states[-1]
        return CarState(float(x), float(y), float(theta), float(self.times[-1]))


def _arc_poses(v: float, start: tuple[float, float, float],
               rates: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Poses along constant-rate segments by exact arc composition.

    Each segment moves by the chord 2(v/u) sin(turn/2) along its
    mid-heading, which avoids the cancellation of differenced cosines
    and never exceeds the arc length v*tau, so the distance bound
    survives round-off. Heading and position accumulate from the start
    pose segment by segment, in order.

    Args:
        v: Speed, m/s.
        start: Start pose (x0, y0, theta0).
        rates: Turn rates, rad/s, segments along the last axis.
        durations: Segment durations, s, broadcasting against rates.

    Returns:
        Poses (x, y, theta), shape (..., k + 1, 3): the start pose, then
        the pose after each of the k segments.
    """
    turn = rates * durations
    half = 0.5 * turn
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.where(np.abs(turn) < _TINY_TURN, v * durations,
                         2.0 * (v / rates) * np.sin(half))

    def accumulate(origin: float, steps: np.ndarray) -> np.ndarray:
        head = np.full(steps.shape[:-1] + (1,), origin)
        return np.cumsum(np.concatenate([head, steps], axis=-1), axis=-1)

    theta = accumulate(start[2], turn)
    mid = theta[..., :-1] + half
    x = accumulate(start[0], chord * np.sin(mid))
    y = accumulate(start[1], chord * np.cos(mid))
    return np.stack([x, y, theta], axis=-1)


def _sample_count(ratio: float, what: str) -> int:
    """ceil(ratio), at least 1, refused above _MAX_SAMPLES before any
    array of that length exists."""
    if ratio > _MAX_SAMPLES:
        raise WorkCapExceeded(
            f"{what} needs {ratio:.6g} samples, more than the cap of "
            f"{_MAX_SAMPLES}")
    return max(1, math.ceil(ratio))


def propagate_car(cfg: CarConfig, s0: CarState, law: SteeringLaw, t: float,
                  step: float) -> CarPath:
    """Drive a car under a steering law for duration t.

    Fixed-step integration of x' = v sin(theta), y' = v cos(theta),
    theta' = law(t). Each step holds the rate at the step midpoint
    (all midpoints in one ``law.rates_at`` call, a table lookup for
    constructor-built laws) and applies the exact constant-rate arc,
    all steps in one kernel call. Speed is exactly v at every sample,
    and piecewise-constant laws whose switches fall on step boundaries
    propagate without integration error.

    Args:
        cfg: Car speed and turn radius.
        s0: Start pose and epoch.
        law: Admissible steering law; its cap must not exceed the
            car's admissible bound.
        t: Duration, s, > 0.
        step: Largest step, s, > 0; t is split into ceil(t/step)
            equal steps, the last landing exactly on s0.t + t.

    Returns:
        CarPath sampled at every step boundary, including s0.

    Raises:
        ValueError: nonpositive t or step, or a law rate over the bound.
        WorkCapExceeded: more than _MAX_SAMPLES steps.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"duration must be positive and finite, got {t}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    if law.rate_cap > cfg.admissible_rate * (1.0 + _GEOM_SLACK):
        raise ValueError(
            f"law rate cap {law.rate_cap} exceeds the admissible bound "
            f"{cfg.admissible_rate} for v={cfg.v}, R={cfg.R}")
    n_steps = _sample_count(t / step - _GEOM_SLACK, "propagation")
    times = s0.t + (t * np.arange(n_steps + 1)) / n_steps
    rates = law.rates_at(0.5 * (times[:-1] + times[1:]))
    over = np.flatnonzero(np.abs(rates) > law.rate_cap * (1.0 + _GEOM_SLACK))
    if over.size:
        raise ValueError(f"law returned rate {float(rates[over[0]])} above "
                         f"its declared cap {law.rate_cap}")
    states = _arc_poses(cfg.v, (s0.x, s0.y, s0.theta), rates, np.diff(times))
    times[-1] = s0.t + t
    return CarPath(cfg=cfg, times=times, states=states)


def path_accelerations(path: CarPath) -> np.ndarray:
    """Central-difference accelerations at interior samples.

    Returns:
        Array of shape (n - 2, 2) aligned with path.times[1:-1].

    Raises:
        ValueError: fewer than three samples.
    """
    if path.times.size < 3:
        raise ValueError("need at least three samples to difference")
    vel = path.velocities
    dt = path.times[2:] - path.times[:-2]
    return (vel[2:] - vel[:-2]) / dt[:, None]


def _family_endpoints(cfg: CarConfig, theta0: float, tau: float,
                      n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoint offsets, shape (m, 2), of controls spanning the
    admissible set over tau from initial heading theta0.

    Deterministic extremals come first: straight, both constant
    saturated turns, and saturated bang-bang pairs switching at a fan
    of fractions (these trace the attainable boundary). Random draws
    are three-segment laws, half with saturated rates and half with
    rates uniform in the admissible interval.
    """
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
        cuts = np.sort(rng.uniform(0.0, 1.0, (n_random, 2)), axis=1)
        random_dur = tau * np.column_stack(
            [cuts[:, 0], cuts[:, 1] - cuts[:, 0], 1.0 - cuts[:, 1]])
        random_rates = rng.uniform(-u_max, u_max, (n_random, 3))
        half = n_random // 2
        random_rates[:half] = u_max * rng.choice([-1.0, 1.0], (half, 3))
        rates = np.vstack([rates, random_rates])
        durations = np.vstack([durations, random_dur])
    return _arc_poses(cfg.v, (0.0, 0.0, theta0), rates, durations)[:, -1, :2]


@dataclass(frozen=True, eq=False)
class ReachableSet:
    """Sampled cross-section of one car's attainable region at a time.

    Attributes:
        origin: Start pose the region grows from.
        t: Elapsed time, s.
        endpoints: Exact sampled endpoints, shape (m, 2).
        occupancy: Boolean grid over the bounding square of half-width
            v*t centered on the origin; occupancy[i, j] covers the cell
            with x-index i and y-index j.
        cell_size: Grid cell edge length, m.
    """

    origin: CarState
    t: float
    endpoints: np.ndarray
    occupancy: np.ndarray
    cell_size: float

    def __post_init__(self) -> None:
        self.endpoints.setflags(write=False)
        self.occupancy.setflags(write=False)

    @property
    def occupied_cells(self) -> np.ndarray:
        """Centers of occupied grid cells, shape (k, 2)."""
        idx = np.argwhere(self.occupancy)
        res = self.occupancy.shape[0]
        half = 0.5 * res * self.cell_size
        lower = self.origin.position - half
        return lower + (idx + 0.5) * self.cell_size


def reachable_set(cfg: CarConfig, s0: CarState, t: float,
                  resolution: int = 128, n_controls: int = 512,
                  seed: int = 0) -> ReachableSet:
    """Sample the set of positions attainable exactly at elapsed time t.

    Endpoints of a family of admissible steering laws (saturated
    extremals plus random piecewise-constant draws) are composed in
    closed form and rasterized onto an occupancy grid spanning the
    disk bound: no admissible car leaves the disk of radius v*t.

    Args:
        cfg: Car speed and turn radius.
        s0: Start pose.
        t: Elapsed time, s, > 0.
        resolution: Grid cells per axis across the bounding square.
        n_controls: Random control draws on top of the extremal family.
        seed: Seed for the random draws.

    Returns:
        ReachableSet with exact endpoints and the occupancy grid.

    Raises:
        ValueError: nonpositive t, resolution, or n_controls < 0.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"elapsed time must be positive and finite, got {t}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    if n_controls < 0:
        raise ValueError(f"n_controls must be nonnegative, got {n_controls}")
    rng = np.random.default_rng(seed)
    endpoints = s0.position + _family_endpoints(cfg, s0.theta, t, n_controls,
                                                rng)
    half = cfg.v * t
    cell = 2.0 * half / resolution
    idx = np.floor((endpoints - (s0.position - half)) / cell).astype(int)
    idx = np.clip(idx, 0, resolution - 1)
    occupancy = np.zeros((resolution, resolution), dtype=bool)
    occupancy[idx[:, 0], idx[:, 1]] = True
    return ReachableSet(origin=s0, t=t, endpoints=endpoints,
                        occupancy=occupancy, cell_size=cell)


class CockayneVerdict(NamedTuple):
    """Cockayne's two interception inequalities for pursuer vs evader."""

    speed_ok: bool
    accel_ok: bool

    @property
    def intercept(self) -> bool:
        """Guaranteed-intercept verdict: both inequalities hold."""
        return self.speed_ok and self.accel_ok


def cockayne_check(pursuer: CarConfig, evader: CarConfig) -> CockayneVerdict:
    """Evaluate Cockayne's interception conditions.

    The pursuer intercepts against all opposition exactly when it is
    strictly faster (v1 > v2) and commands at least the evader's
    lateral acceleration (v1^2/R1 >= v2^2/R2).
    """
    speed_ok = pursuer.v > evader.v
    accel_ok = pursuer.v ** 2 / pursuer.R >= evader.v ** 2 / evader.R
    return CockayneVerdict(speed_ok=speed_ok, accel_ok=accel_ok)


def _tangent_path(p0: CarState, goal: np.ndarray, goal_heading: float,
                  cfg: CarConfig) -> list[tuple[float, float]]:
    """Shortest turn-straight-turn route to a goal pose.

    Evaluates the four circle-tangent-circle constructions (both turn
    senses on each end) at the admissible turn radius and returns the
    shortest as (rate, duration) segments. The same-sense pairs always
    admit a tangent, so a route exists for every goal.
    """
    u = cfg.admissible_rate
    rho = cfg.v / u
    theta0 = p0.theta
    best: list[tuple[float, float]] | None = None
    best_time = math.inf
    for sign0 in (1.0, -1.0):
        # turn center sits a lever arm to the side of the heading
        c0 = p0.position + sign0 * rho * np.array(
            [math.cos(theta0), -math.sin(theta0)])
        for sign1 in (1.0, -1.0):
            c1 = goal + sign1 * rho * np.array(
                [math.cos(goal_heading), -math.sin(goal_heading)])
            w = c1 - c0
            d = float(np.hypot(w[0], w[1]))
            chi = math.atan2(w[0], w[1])
            if sign0 == sign1:
                theta_t = chi
                straight = d
            else:
                if d < 2.0 * rho:
                    continue
                offset = math.asin(min(1.0, 2.0 * rho / d))
                theta_t = chi + sign0 * offset
                straight = d * math.cos(offset)
            turn0 = (sign0 * (theta_t - theta0)) % TWO_PI
            turn1 = (sign1 * (goal_heading - theta_t)) % TWO_PI
            total = (turn0 + turn1) / u + straight / cfg.v
            if total < best_time:
                best_time = total
                best = [(sign0 * u, turn0 / u), (0.0, straight / cfg.v),
                        (sign1 * u, turn1 / u)]
    assert best is not None
    return [(rate, dur) for rate, dur in best if dur > 0.0]


@dataclass(frozen=True, eq=False)
class PursuitResult:
    """Outcome of one explicit-policy pursuit.

    Attributes:
        captured: Whether the pursuer closed within the capture radius
            before the recorded evader track ran out.
        capture_time: First sample epoch within the capture radius, s;
            None when not captured.
        closest_approach: Smallest sampled separation, m.
        closest_time: Epoch of the closest approach, s.
        acquisition_time: Epoch at which the pursuer reaches the track
            start and begins following, s (capture may precede it).
        capture_radius: Separation treated as interception, m.
        path: The pursuer's sampled path over the simulated span.
    """

    captured: bool
    capture_time: float | None
    closest_approach: float
    closest_time: float
    acquisition_time: float
    capture_radius: float
    path: CarPath


def explicit_policy_pursuit(pursuer: CarConfig, evader: CarConfig,
                            p0: CarState, evader_path: CarPath,
                            capture_radius: float | None = None
                            ) -> PursuitResult:
    """Chase a recorded evader track by the explicit policy.

    The pursuer first drives the shortest turn-straight-turn route to
    the evader's starting pose, then follows the recorded track at its
    own (higher) speed, eating into the evader's head start. The policy
    presumes the track's curvature lies within the pursuer's own
    capability, which holds whenever the pursuer's turn radius is no
    larger than the evader's. Capture is the first sampled epoch at
    which the separation falls within the capture radius; failure is
    reported in band with the closest approach.

    Args:
        pursuer: Chasing car.
        evader: Car that drove evader_path; must match its config.
        p0: Pursuer start pose and epoch.
        evader_path: Recorded evader track; its final epoch is the
            simulation horizon. Positions outside the recorded span
            hold the nearest endpoint.
        capture_radius: Separation treated as interception, m;
            defaults to 1e-3 times the pursuer turn radius.

    Returns:
        PursuitResult with the verdict and the pursuer path.

    Raises:
        ValueError: mismatched evader config, empty horizon, or a
            capture radius that is not positive and finite.
        WorkCapExceeded: the sampling needs more than _MAX_SAMPLES
            samples.
    """
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
    segments = _tangent_path(p0, np.array(start[:2]), float(start[2]), pursuer)
    # a pursuer already on the track start gets no segments at all
    rates, durations = np.array(segments).reshape(-1, 2).T
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    t_acq = p0.t + float(edges[-1])

    # sample finely enough that the separation cannot step across the
    # capture ball between samples, and no coarser than the track
    step = capture_radius / (pursuer.v + evader.v)
    if evader_path.times.size > 1:
        step = min(float(np.median(np.diff(evader_path.times))), step)
    n = _sample_count((track_end - p0.t) / step, "pursuit")
    times = p0.t + (track_end - p0.t) * np.arange(n + 1) / n
    states = np.empty((n + 1, 3))
    n_approach = int(np.searchsorted(times, t_acq, side="right"))
    # each approach sample drives every segment for its own clipped time
    elapsed = times[:n_approach, None] - p0.t
    states[:n_approach] = _arc_poses(
        pursuer.v, (p0.x, p0.y, p0.theta), rates,
        np.clip(elapsed - edges[:-1], 0.0, durations))[:, -1]
    # follow the track: arc length v1*(t - t_acq) into a track recorded
    # at speed v2 lands at evader epoch u
    u = track_t0 + (pursuer.v / evader.v) * (times[n_approach:] - t_acq)
    for col in range(3):
        states[n_approach:, col] = np.interp(u, evader_path.times,
                                             evader_path.states[:, col])

    # one coordinate at a time: few full-length temporaries at once
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


def _measured_peak_accel(cfg: CarConfig, angle_step: float = 0.01,
                         n: int = 64) -> float:
    """Peak path acceleration measured on a saturated turn.

    Central differences over a fixed heading step per sample, so two
    cars measured this way carry the same finite-difference factor and
    their peaks compare exactly as v^2/R does.
    """
    u = cfg.admissible_rate
    dt = angle_step / u
    times = dt * np.arange(n)
    theta = u * times
    states = np.column_stack([np.zeros(n), np.zeros(n), theta])
    # positions are irrelevant; accelerations differentiate velocity
    path = CarPath(cfg=cfg, times=times, states=states)
    return float(np.max(np.linalg.norm(path_accelerations(path), axis=1)))


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """Sampled cone-containment verdict next to Cockayne's inequalities.

    Attributes:
        contained: Sampled verdict that the evader cone lies properly
            inside the pursuer cone: the evader's frontier stayed
            strictly inside the pursuer's at every sampled time and the
            evader's demonstrated peak acceleration lies within the
            pursuer's.
        radius_ok: At every sampled elapsed time, the evader's sampled
            frontier stayed strictly inside the pursuer's.
        accel_ok: Evader peak acceleration within the pursuer's, both
            measured on saturated turns with a common difference step.
        cockayne: The closed-form inequalities for the same pair.
        witness: Evader point at or beyond the pursuer frontier, as
            (x, y, t), or None; x and y are relative to the shared
            starting position.
        evader_peak_accel: Measured evader peak, m/s^2.
        pursuer_peak_accel: Measured pursuer peak, m/s^2.
        headstart: First sampled elapsed time, s.
        horizon: Last sampled elapsed time, s.
        n_samples: Random control draws per car per sampled time.
        n_times: Sampled times across [headstart, horizon].
    """

    contained: bool
    radius_ok: bool
    accel_ok: bool
    cockayne: CockayneVerdict
    witness: np.ndarray | None
    evader_peak_accel: float
    pursuer_peak_accel: float
    headstart: float
    horizon: float
    n_samples: int
    n_times: int

    def __post_init__(self) -> None:
        if self.witness is not None:
            self.witness.setflags(write=False)

    @property
    def agree(self) -> bool:
        """Whether the sampled verdict matches Cockayne's conjunction."""
        return self.contained == self.cockayne.intercept


def containment_equivalence(pursuer: CarConfig, evader: CarConfig,
                            horizon: float, headstart: float,
                            samples: int = 256, time_grid: int = 33,
                            seed: int = 0) -> EquivalenceVerdict:
    """Test evader-cone containment by sampling, next to Cockayne.

    Both cars start at the same position with free initial heading, the
    simplification under which each reachable set is a disk once a full
    heading cycle has elapsed. Proper cone containment then reduces to
    two capability comparisons at equal elapsed time: the evader's
    sampled frontier must stay strictly inside the pursuer's at every
    sampled time, and the peak acceleration the evader demonstrates on
    a saturated turn must lie within the pursuer's. Both cars see the
    same control family and the same random draws, and both peaks are
    measured with a common heading step, so ties resolve exactly the
    way the closed-form inequalities do: an equal pair fails the strict
    frontier test and passes the acceleration test. Free heading makes
    both frontiers rotation invariant, so each car is sampled in its
    own frame.

    Args:
        pursuer: Car whose cone must contain the evader's.
        evader: Car whose cone is tested for containment.
        horizon: Last sampled elapsed time, s; must exceed headstart.
        headstart: First sampled elapsed time, s, at least pi*R1/v1.
            Skipping the opening heading reversal keeps the
            free-heading reading of the pursuer's leaf honest.
        samples: Random control draws per car per sampled time.
        time_grid: Sampled times across [headstart, horizon].
        seed: Seed for the control draws; both cars see identical
            draws at each sampled time.

    Returns:
        EquivalenceVerdict with both verdicts and any witness point.

    Raises:
        ValueError: horizon not past the headstart, or headstart below
            the come-about time.
    """
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
        evader_pts = _family_endpoints(evader, 0.0, tau, samples,
                                       np.random.default_rng([seed, k]))
        pursuer_pts = _family_endpoints(pursuer, 0.0, tau, samples,
                                        np.random.default_rng([seed, k]))
        ranges = np.linalg.norm(evader_pts, axis=1)
        frontier = float(np.max(np.linalg.norm(pursuer_pts, axis=1)))
        # proper inclusion: a frontier tie already breaks containment,
        # mirroring the strict speed inequality
        over = np.flatnonzero(ranges >= frontier)
        if over.size:
            worst = over[np.argmax(ranges[over])]
            witness = np.array([evader_pts[worst, 0],
                                evader_pts[worst, 1], tau])
            radius_ok = False
            break
    evader_peak = _measured_peak_accel(evader)
    pursuer_peak = _measured_peak_accel(pursuer)
    accel_ok = evader_peak <= pursuer_peak * (1.0 + 1e-6)
    return EquivalenceVerdict(
        contained=radius_ok and accel_ok, radius_ok=radius_ok,
        accel_ok=accel_ok, cockayne=cockayne_check(pursuer, evader),
        witness=witness, evader_peak_accel=evader_peak,
        pursuer_peak_accel=pursuer_peak, headstart=headstart,
        horizon=horizon, n_samples=samples, n_times=time_grid)
