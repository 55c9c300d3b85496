"""Planar pursuit between two constant-speed cars that steer to maneuver.

Each car moves at a fixed speed and controls only its heading, with the
turn rate bounded by speed over minimum turn radius. The classic verdict
is Cockayne's pair of inequalities: the pursuer intercepts the evader
against all opposition exactly when it is faster and can pull at least
as much lateral acceleration. The same verdict falls out of cone
containment, and this module carries both sides: kinematics and
reachable sets for the cones, the interception inequalities, the
explicit pursuit policy (drive to the evader's starting point, then
follow its track), and a containment test on the extremal controls
that is compared against the inequalities.

Every path is built by one exact arc kernel over constant-rate
segments: each moves by its chord along the mid-heading, and heading
and position accumulate by running sums. A steering law is one
vectorized rate function (``SteeringLaw.rates_at``), so a propagation
is one rate call, one check of every rate against the car's bound and
one kernel call; a pursuit route is three rate/duration rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import _check_work

# Steering is bounded strictly below v/R; the supremum is approached
# through this relative margin, never attained.
_RATE_MARGIN = 1e-9
# Below this turn angle per step the exact arc update degenerates to a
# straight segment (the v/u lever arm overflows as u -> 0).
_TINY_TURN = 1e-12
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
                f"turn_radius must be positive and finite, got {self.R}")

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


def _check_rates(rates: np.ndarray, cfg: CarConfig) -> None:
    """Refuse the first nan rate or rate over cfg's admissible bound."""
    bad = np.flatnonzero(
        ~(np.abs(rates) <= cfg.admissible_rate * (1.0 + _GEOM_SLACK)))
    if bad.size:
        raise ValueError(
            f"turn rate {rates[bad[0]]} exceeds the admissible bound "
            f"{cfg.admissible_rate} (strictly below v/R = "
            f"{cfg.max_turn_rate})")


@dataclass(frozen=True, eq=False)
class SteeringLaw:
    """Turn-rate control thetadot(t), evaluated for many epochs at once.

    Attributes:
        rates_at: Turn rates, rad/s, at an array of absolute epochs, s:
            one rate per epoch. A propagation checks every rate it
            samples against its car's admissible bound.
    """

    rates_at: Callable[[np.ndarray], np.ndarray]

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
            switches: Finite, strictly increasing switch epochs, s, shape
                (k,) (k may be 0).
            rates: Shape (k + 1,); rates[-1] applies for all time past
                the last switch.
            cfg: Car whose admissible bound validates every rate.

        Raises:
            ValueError: misshapen switches or rates, rate out of bounds,
                or switches not finite and increasing.
        """
        # copies: a caller's later writes cannot reach a validated law
        switches = np.array(switches, dtype=float)
        rates = np.array(rates, dtype=float)
        if switches.ndim != 1 or rates.shape != (switches.size + 1,):
            raise ValueError(
                f"need switches (k,) and rates (k + 1,), got switches "
                f"{switches.shape} and rates {rates.shape}")
        if not (np.all(np.diff(switches) > 0.0)
                and np.all(np.isfinite(switches))):
            raise ValueError(
                "switch epochs must be finite and strictly increasing")
        _check_rates(rates, cfg)
        return cls(lambda times: rates[np.searchsorted(switches, times,
                                                       side="right")])


@dataclass(frozen=True, eq=False)
class CarPath:
    """Sampled planar trajectory of one car.

    Attributes:
        cfg: Car that drove the path.
        times: Sample epochs, s, finite and strictly increasing, shape
            (n,).
        states: Finite pose samples (x, y, theta), shape (n, 3). Heading
            is continuous (not reduced mod 2*pi).
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
        # nan fails every comparison, so this also refuses nan epochs;
        # increasing epochs are all finite once both ends are
        if not (np.all(np.diff(times) > 0.0) and math.isfinite(times[0])
                and math.isfinite(times[-1])):
            raise ValueError(
                "sample epochs must be finite and strictly increasing")
        if not np.all(np.isfinite(states)):
            raise ValueError("pose samples must be finite")
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


def _arc_poses(v: float | np.ndarray,
               start: tuple[float, float, float] | np.ndarray,
               rates: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Poses along constant-rate segments by exact arc composition.

    Each segment moves by the chord 2(v/u) sin(turn/2) along its
    mid-heading, which avoids the cancellation of differenced cosines
    and never exceeds the arc length v*tau, so the distance bound
    survives round-off. Heading and position accumulate from the start
    pose segment by segment, in order, in a segment-first buffer, so
    each running sum adds contiguous lanes.

    Args:
        v: Speed, m/s, broadcasting against rates.
        start: Start pose (x0, y0, theta0), or start poses (..., 3).
        rates: Turn rates, rad/s, segments along the last axis.
        durations: Segment durations, s, broadcasting against rates.

    Returns:
        Poses (x, y, theta), shape (..., k + 1, 3): the start pose, then
        the pose after each of the k segments.
    """
    shape = np.broadcast_shapes(np.shape(v), rates.shape, durations.shape)
    poses = np.empty((3, shape[-1] + 1) + shape[:-1])
    x, y, theta = poses
    x[0], y[0], theta[0] = np.moveaxis(np.asarray(start, float), -1, 0)
    # each step is built in its slot of the buffer: the turn in theta's,
    # the half turn, then the mid-heading, in y's, the chord in x's
    turn, half, chord = (np.moveaxis(c[1:], 0, -1) for c in (theta, y, x))
    np.multiply(rates, durations, out=turn)
    np.multiply(turn, 0.5, out=half)
    # a rate at or near zero turns tinily, and its chord is patched below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = v / rates
        scale *= 2.0
        np.sin(half, out=chord)
        chord *= scale
    tiny = np.abs(turn) < _TINY_TURN
    if tiny.any():
        chord[tiny] = np.broadcast_to(v * durations, shape)[tiny]
    _accumulate(theta)
    np.add(half, np.moveaxis(theta[:-1], 0, -1), out=half)
    step_y = np.cos(half)
    step_y *= chord
    np.sin(half, out=half)
    chord *= half
    half[...] = step_y
    _accumulate(x)
    _accumulate(y)
    return np.moveaxis(poses, (0, 1), (-1, -2))


def _accumulate(steps: np.ndarray) -> None:
    """Running sums down axis 0, in place: a cumsum of one lane, or one
    add over all lanes per segment."""
    if steps.ndim == 1:
        np.cumsum(steps, out=steps)
    else:
        for prev, row in zip(steps, steps[1:]):
            np.add(prev, row, out=row)


def _sample_count(ratio: float, what: str) -> int:
    """ceil(ratio), at least 1, once ratio has passed the work cap."""
    _check_work(ratio, what)
    return max(1, math.ceil(ratio))


def propagate_car(cfg: CarConfig, s0: CarState, law: SteeringLaw, t: float,
                  step: float) -> CarPath:
    """Drive a car under a steering law for duration t.

    Fixed-step integration of x' = v sin(theta), y' = v cos(theta),
    theta' = law(t). Each step holds the rate at the step midpoint
    (all midpoints in one ``law.rates_at`` call, every rate checked
    against the car's admissible bound) and applies the exact
    constant-rate arc, all steps in one kernel call. Speed is exactly v
    at every sample, and piecewise-constant laws whose switches fall on
    step boundaries propagate without integration error.

    Args:
        cfg: Car speed and turn radius.
        s0: Start pose and epoch.
        law: Steering law; every rate it returns for the step
            midpoints must lie within the car's admissible bound.
        t: Duration, s, > 0.
        step: Largest step, s, > 0; t is split into ceil(t/step)
            equal steps, the last landing exactly on s0.t + t.

    Returns:
        CarPath sampled at every step boundary, including s0.

    Raises:
        ValueError: nonpositive t or step, a step below the float
            spacing of the epochs it separates, a law rate over the
            bound, or not one law rate per step.
        WorkCapExceeded: more steps than the package's cap.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"duration must be positive and finite, got {t}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    n_steps = _sample_count(t / step - _GEOM_SLACK, "propagation steps")
    times = np.arange(n_steps + 1, dtype=float)
    times *= t
    times /= n_steps
    times += s0.t
    durations = np.diff(times)
    if not durations.min() > 0.0:
        epoch = times[np.argmin(durations)]
        raise ValueError(
            f"step {t / n_steps} s falls below the float spacing "
            f"{np.spacing(abs(epoch))} s of epoch {epoch} s")
    mid = times[:-1] + times[1:]
    mid *= 0.5
    rates = np.asarray(law.rates_at(mid), float)
    del mid  # the kernel's buffers can take its memory
    if rates.shape != (n_steps,):
        raise ValueError(f"law returned rates of shape {rates.shape} for "
                         f"{n_steps} epochs")
    _check_rates(rates, cfg)
    states = _arc_poses(cfg.v, (s0.x, s0.y, s0.theta), rates, durations)
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


# Unit rates and duration fractions, each (31, 2), of the extremals:
# straight, both constant saturated turns, and saturated bang-bang
# pairs switching at a fan of fractions (these trace the attainable
# boundary). Each entry is 0, +-1, frac or 1 - frac, so a scaled entry
# is the one rounding of u_max * rate or tau * fraction.
_FRACTIONS = np.linspace(0.125, 0.875, 7)
_EXTREMAL_RATES = np.array(
    [[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]
    + [[first, second] for _ in _FRACTIONS for first in (1.0, -1.0)
       for second in (-first, 0.0)])
_EXTREMAL_DURATIONS = np.array(
    [[1.0, 0.0]] * 3
    + [[frac, 1.0 - frac] for frac in _FRACTIONS for _ in range(4)])
_EXTREMAL_RATES.setflags(write=False)
_EXTREMAL_DURATIONS.setflags(write=False)


def reachable_set(cfg: CarConfig, s0: CarState, t: float) -> np.ndarray:
    """Endpoints of the extremal controls at elapsed time t.

    The straight line, both saturated turns and the saturated bang-bang
    pairs of the extremal table, composed in closed form. These trace
    the boundary of the set attainable exactly at t, and none leaves
    the disk of radius v*t.

    Args:
        cfg: Car speed and turn radius.
        s0: Start pose.
        t: Elapsed time, s, > 0 and finite.

    Returns:
        Read-only endpoints, shape (31, 2), one per extremal control.

    Raises:
        ValueError: t not positive and finite.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"elapsed time must be positive and finite, got {t}")
    endpoints = s0.position + _arc_poses(
        cfg.v, (0.0, 0.0, s0.theta), cfg.admissible_rate * _EXTREMAL_RATES,
        t * _EXTREMAL_DURATIONS)[:, -1, :2]
    endpoints.setflags(write=False)
    return endpoints


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
                  cfg: CarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Shortest turn-straight-turn route to a goal pose.

    Evaluates the four circle-tangent-circle constructions (both turn
    senses on each end) at the admissible turn radius and returns the
    shortest as the rates and durations, each shape (3,), of its turn,
    straight and turn; a segment the route does not need lasts 0. The
    same-sense pairs always admit a tangent, so a route exists for
    every goal.
    """
    u = cfg.admissible_rate
    rho = cfg.v / u
    theta0 = p0.theta
    best = None
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
                best = ((sign0 * u, 0.0, sign1 * u),
                        (turn0 / u, straight / cfg.v, turn1 / u))
    return np.array(best[0]), np.array(best[1])


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
        path: The pursuer's sampled path, ending at the capture sample,
            or over the whole simulated span when not captured.
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
    reported in band with the closest approach. A faster pursuer's
    span is sampled up to the sample where it trails the evader by at
    most the capture radius of arc, a sure hit on a driven track, and
    past it only if no hit came.

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
        PursuitResult with the verdict and the pursuer path up to capture.

    Raises:
        ValueError: mismatched evader config, empty horizon, or a
            capture radius that is not positive and finite.
        WorkCapExceeded: the sampling needs more samples than the
            package's cap.
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
    rates, durations = _tangent_path(p0, start[:2], float(start[2]), pursuer)
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    corners = _arc_poses(pursuer.v, (p0.x, p0.y, p0.theta), rates, durations)
    t_acq = p0.t + float(edges[-1])

    # sample finely enough that the separation cannot step across the
    # capture ball between samples, and no coarser than the track
    step = capture_radius / (pursuer.v + evader.v)
    if evader_path.times.size > 1:
        gaps = np.diff(evader_path.times)
        if step > gaps.min():  # else the median, no less, cannot win
            step = min(float(np.median(gaps)), step)
    span = track_end - p0.t
    n = _sample_count(span / step, "pursuit samples")
    # no chord of a driven track outruns its arc, so a follow sample
    # trailing the evader by at most the capture radius of arc is a
    # hit: sample up to the first one, two samples on for rounding, and
    # the rest of the span only if no hit came by then
    sure = n
    if pursuer.v > evader.v:
        t_sure = (pursuer.v * t_acq - evader.v * track_t0
                  - capture_radius) / (pursuer.v - evader.v)
        sure = min(n, 2 + math.ceil((max(t_sure, t_acq) - p0.t)
                                    / span * n))
    passes, hit = [], None
    for lo, hi in ((0, sure + 1), (sure + 1, n + 1)):
        if hit is not None or lo == hi:
            break
        times = p0.t + span * np.arange(lo, hi) / n
        states = np.empty((hi - lo, 3))
        n_approach = int(np.searchsorted(times, t_acq, side="right"))
        # each approach sample flies one arc from the corner where its
        # segment starts; every segment before it was flown in full
        elapsed = times[:n_approach] - p0.t
        seg = np.searchsorted(edges[1:-1], elapsed)
        states[:n_approach] = _arc_poses(
            pursuer.v, corners[seg], rates[seg, None],
            np.clip(elapsed - edges[seg], 0.0, durations[seg])[:, None]
        )[:, -1]
        # follow the track: arc length v1*(t - t_acq) into a track recorded
        # at speed v2 lands at evader epoch u
        u = track_t0 + (pursuer.v / evader.v) * (times[n_approach:] - t_acq)
        # the track samples bracketing this pass's epochs and u: each
        # interpolation reads the same two samples as on the whole track
        at = np.searchsorted(evader_path.times,
                             [times[0], times[-1], *u[:1], *u[-1:]], "right")
        reach = slice(max(int(at.min()) - 1, 0), int(at.max()) + 1)
        knots = evader_path.times[reach]
        track = np.ascontiguousarray(evader_path.states[reach].T)
        for col in range(3):
            states[n_approach:, col] = np.interp(u, knots, track[col])
        dx = states[:, 0] - np.interp(times, knots, track[0])
        dy = states[:, 1] - np.interp(times, knots, track[1])
        gap = np.sqrt(dx * dx + dy * dy)
        hits = np.flatnonzero(gap <= capture_radius)
        hit = lo + int(hits[0]) if hits.size else None
        passes.append((times, states, gap))
    end = n + 1 if hit is None else hit + 1
    times, states, gap = (
        (part[0] if len(part) == 1 else np.concatenate(part))[:end]
        for part in zip(*passes))
    closest = int(np.argmin(gap))
    return PursuitResult(
        captured=hit is not None,
        capture_time=None if hit is None else float(times[hit]),
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
    """Cone-containment verdict next to Cockayne's inequalities.

    Attributes:
        contained: Verdict that the evader cone lies properly inside the
            pursuer cone: the evader's frontier stayed strictly inside
            the pursuer's at every grid time and the evader's peak
            lateral acceleration lies within the pursuer's.
        radius_ok: At every grid time, the evader's frontier stayed
            strictly inside the pursuer's.
        accel_ok: Evader peak lateral acceleration v^2/R within the
            pursuer's.
        cockayne: The closed-form inequalities for the same pair.
        witness: Evader point at or beyond the pursuer frontier, as
            (x, y, t), or None; x and y are relative to the shared
            starting position.
        evader_peak_accel: Measured evader peak, m/s^2.
        pursuer_peak_accel: Measured pursuer peak, m/s^2.
        horizon: Last grid time, s.
        n_times: Grid times from the headstart to the horizon.
    """

    contained: bool
    radius_ok: bool
    accel_ok: bool
    cockayne: CockayneVerdict
    witness: np.ndarray | None
    evader_peak_accel: float
    pursuer_peak_accel: float
    horizon: float
    n_times: int

    def __post_init__(self) -> None:
        if self.witness is not None:
            self.witness.setflags(write=False)

    @property
    def agree(self) -> bool:
        """Whether the containment verdict matches Cockayne's conjunction."""
        return self.contained == self.cockayne.intercept


def containment_equivalence(pursuer: CarConfig, evader: CarConfig,
                            horizon: float, headstart: float,
                            time_grid: int = 33) -> EquivalenceVerdict:
    """Test evader-cone containment on the extremal controls, next to
    Cockayne.

    Both cars start at the same position with free initial heading, the
    simplification under which each reachable set is a disk once a full
    heading cycle has elapsed. Proper cone containment then reduces to
    two capability comparisons at equal elapsed time: the evader's
    frontier must stay strictly inside the pursuer's at every grid
    time, and the evader's peak lateral acceleration must lie within
    the pursuer's. A frontier is the farthest endpoint of the extremal
    table: its straight line reaches v*t, and no chord is longer than
    its arc. Both cars at every grid time fly in one kernel call, each
    in its own frame (free heading makes frontiers rotation invariant),
    and the witness is taken at the first grid time where an evader
    endpoint reaches the pursuer's frontier.

    Rounding can tie what the exact quantities order, so both
    comparisons are settled in the arithmetic cockayne_check uses.
    Frontiers tied in floating point are ordered by the speeds, and a
    tie at equal speeds breaks containment, as the speed inequality is
    strict. The peaks are compared as v^2/R: the reported peaks,
    measured on saturated turns with one difference factor, carry
    their own rounding, a few ulps apart on a tie.

    Args:
        pursuer: Car whose cone must contain the evader's.
        evader: Car whose cone is tested for containment.
        horizon: Last grid time, s; finite and past the headstart.
        headstart: First grid time, s, at least pi*R1/v1. Skipping the
            opening heading reversal keeps the free-heading reading of
            the pursuer's leaf honest.
        time_grid: Grid times across [headstart, horizon].

    Returns:
        EquivalenceVerdict with both verdicts and any witness point.

    Raises:
        ValueError: headstart not at least the come-about time, horizon
            not finite or not past the headstart, or time_grid below 2.
        WorkCapExceeded: the poses of both cars over the grid exceed
            the package's cap.
    """
    come_about = math.pi * pursuer.R / pursuer.v
    if not headstart >= come_about * (1.0 - _GEOM_SLACK):
        raise ValueError(
            f"headstart {headstart} is below the come-about time "
            f"{come_about}")
    # an infinite horizon grids to nan times, where no frontier test fails
    if not (horizon > headstart and math.isfinite(horizon)):
        raise ValueError(f"horizon {horizon} must be finite and exceed the "
                         f"headstart {headstart}")
    if time_grid < 2:
        raise ValueError(f"time_grid must be at least 2, got {time_grid}")
    # both cars' start and segment-end poses, every extremal and time
    n_extremals, n_segments = _EXTREMAL_RATES.shape
    _check_work(2 * time_grid * n_extremals * (n_segments + 1),
                "extremal poses")
    times = np.linspace(headstart, horizon, time_grid)
    cars = (evader, pursuer)
    speeds = np.array([car.v for car in cars])[:, None, None, None]
    u_max = np.array([car.admissible_rate for car in cars])[:, None, None, None]
    # (car, grid time, extremal, segment) -> endpoints (car, time, extremal)
    ends = _arc_poses(speeds, (0.0, 0.0, 0.0), u_max * _EXTREMAL_RATES,
                      times[:, None, None] * _EXTREMAL_DURATIONS)[..., -1, :2]
    ranges, reach = np.linalg.norm(ends, axis=-1)
    far, frontier = np.max(ranges, axis=-1), np.max(reach, axis=-1)
    over = np.flatnonzero((far > frontier) | (
        (far == frontier) & (evader.v >= pursuer.v)))
    radius_ok = not over.size
    witness = None
    if not radius_ok:
        k = over[0]
        worst = np.argmax(ranges[k])
        witness = np.array([ends[0, k, worst, 0], ends[0, k, worst, 1],
                            float(times[k])])
    cockayne = cockayne_check(pursuer, evader)
    return EquivalenceVerdict(
        contained=radius_ok and cockayne.accel_ok, radius_ok=radius_ok,
        accel_ok=cockayne.accel_ok, cockayne=cockayne, witness=witness,
        evader_peak_accel=_measured_peak_accel(evader),
        pursuer_peak_accel=_measured_peak_accel(pursuer),
        horizon=horizon, n_times=time_grid)
