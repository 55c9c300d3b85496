"""Tests for the planar pursuit kinematics and verdicts."""
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from futurecone import twocars
from futurecone.errors import WorkCapExceeded
from futurecone.twocars import (
    CarConfig,
    CarPath,
    CarState,
    CockayneVerdict,
    SteeringLaw,
    cockayne_check,
    containment_equivalence,
    explicit_policy_pursuit,
    path_accelerations,
    propagate_car,
    reachable_set,
    _arc_poses,
    _tangent_path,
)

rng = np.random.default_rng(20260817)

TWO_PI = 2.0 * math.pi

# Endpoint of a fixed bang-bang law, frozen from a per-segment DOP853
# integration of the heading kinematics (rtol 1e-13); the exact arc
# composition agreed with it to 3.6e-15.
BANGBANG_V = 1.3
BANGBANG_R = 0.7
BANGBANG_U = 1.6714285697571432
BANGBANG_SWITCHES = [0.75, 1.5, 2.25, 3.0]
BANGBANG_RATES = [BANGBANG_U, -BANGBANG_U, BANGBANG_U, -BANGBANG_U, 0.0]
BANGBANG_START = (0.2, -0.4, 0.3)
BANGBANG_END = (3.5027483114865117, 3.0331908331561332, 0.29999999999999927)


def wrap_angle(delta: float) -> float:
    """Reduce an angle difference to (-pi, pi]."""
    return (delta + math.pi) % TWO_PI - math.pi


def loop_propagate(cfg, s0, law, t, step):
    """Scalar reference for propagate_car: one exact arc per step,
    rate at the step midpoint, pose updated in a Python loop."""
    n = max(1, math.ceil(t / step - 1e-12))
    times = [s0.t]
    states = [(s0.x, s0.y, s0.theta)]
    x, y, theta = states[0]
    for k in range(n):
        lo = s0.t + (t * k) / n
        hi = s0.t + (t * (k + 1)) / n
        u = law.thetadot(0.5 * (lo + hi))
        turn = u * (hi - lo)
        if abs(turn) < 1e-12:
            chord, half = cfg.v * (hi - lo), 0.0
        else:
            chord, half = 2.0 * (cfg.v / u) * math.sin(0.5 * turn), 0.5 * turn
        x += chord * math.sin(theta + half)
        y += chord * math.cos(theta + half)
        theta += turn
        times.append(hi)
        states.append((x, y, theta))
    times[-1] = s0.t + t
    return np.array(times), np.array(states)


class TestCarConfig:
    """Speed and turn-radius validation plus derived rates."""

    def test_rates(self):
        cfg = CarConfig(v=2.0, R=0.5)
        assert cfg.max_turn_rate == 4.0
        assert 0.0 < cfg.admissible_rate < cfg.max_turn_rate
        assert cfg.admissible_rate == pytest.approx(4.0, rel=1e-8)

    def test_rejects_bad_values(self):
        for v, R in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0),
                     (1.0, math.inf)]:
            with pytest.raises(ValueError):
                CarConfig(v=v, R=R)


class TestCarState:
    """Pose validation and heading reduction."""

    def test_heading_reduced(self):
        s = CarState(x=1.0, y=2.0, theta=3.0 * math.pi, t=0.0)
        assert s.heading == pytest.approx(math.pi)
        assert s.theta == 3.0 * math.pi
        assert_allclose(s.position, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CarState(x=math.nan, y=0.0, theta=0.0, t=0.0)
        with pytest.raises(ValueError):
            CarState(x=0.0, y=0.0, theta=math.inf, t=0.0)


class TestSteeringLaw:
    """Construction-time admissibility and piecewise lookup."""

    def test_constant_validates(self):
        cfg = CarConfig(v=1.0, R=2.0)
        law = SteeringLaw.constant(0.4, cfg)
        assert law.thetadot(123.0) == 0.4
        assert law.rate_cap == 0.4
        with pytest.raises(ValueError):
            SteeringLaw.constant(cfg.max_turn_rate, cfg)

    def test_piecewise_lookup(self):
        cfg = CarConfig(v=1.0, R=1.0)
        law = SteeringLaw.piecewise([1.0, 2.0], [0.1, -0.2, 0.3], cfg)
        assert law.thetadot(0.5) == 0.1
        assert law.thetadot(1.0) == -0.2
        assert law.thetadot(1.5) == -0.2
        assert law.thetadot(5.0) == 0.3
        assert law.rate_cap == 0.3

    def test_piecewise_validates(self):
        cfg = CarConfig(v=1.0, R=1.0)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([2.0, 1.0], [0.1, 0.1, 0.1], cfg)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([1.0], [0.1, 0.1, 0.1], cfg)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([1.0], [0.1, 2.0], cfg)


class TestPropagateCar:
    """Fixed-step propagation against closed forms and the oracle."""

    def test_straight_line(self):
        cfg = CarConfig(v=1.5, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        path = propagate_car(cfg, s0, SteeringLaw.constant(0.0, cfg),
                             t=4.0, step=0.25)
        assert_allclose(path.endpoint.position, [0.0, 6.0], atol=1e-12)
        assert path.endpoint.theta == 0.0
        assert path.times[0] == 0.0 and path.times[-1] == 4.0

    def test_constant_turn_closes_circle(self):
        """A constant rate c traces a circle of radius v/c, closing
        after one full turn (period 2*pi/c)."""
        cfg = CarConfig(v=1.3, R=0.7)
        c = 0.8 * cfg.admissible_rate
        period = TWO_PI / c
        s0 = CarState(x=0.5, y=-0.2, theta=1.1, t=0.0)
        path = propagate_car(cfg, s0, SteeringLaw.constant(c, cfg),
                             t=period, step=period / 1024)
        assert_allclose(path.endpoint.position, s0.position, atol=1e-9)
        assert path.endpoint.theta == pytest.approx(s0.theta + TWO_PI)
        # every sample sits on the circle of radius v/c
        center = s0.position + (cfg.v / c) * np.array(
            [math.cos(s0.theta), -math.sin(s0.theta)])
        radii = np.linalg.norm(path.positions - center, axis=1)
        assert_allclose(radii, cfg.v / c, rtol=1e-12)

    def test_bangbang_endpoint_matches_oracle(self):
        cfg = CarConfig(v=BANGBANG_V, R=BANGBANG_R)
        law = SteeringLaw.piecewise(BANGBANG_SWITCHES, BANGBANG_RATES, cfg)
        s0 = CarState(*BANGBANG_START, t=0.0)
        # step 1/64 divides every switch epoch, so each step holds one rate
        path = propagate_car(cfg, s0, law, t=4.0, step=0.015625)
        end = path.endpoint
        assert_allclose([end.x, end.y, end.theta], BANGBANG_END, atol=1e-12)

    def test_step_halving_converges(self):
        cfg = CarConfig(v=1.0, R=1.0)
        amp = 0.9 * cfg.admissible_rate
        law = SteeringLaw(thetadot=lambda t: amp * math.sin(1.3 * t),
                          rate_cap=amp)
        s0 = CarState(x=0.0, y=0.0, theta=0.2, t=0.0)
        coarse = propagate_car(cfg, s0, law, t=10.0, step=2.5e-4)
        fine = propagate_car(cfg, s0, law, t=10.0, step=1.25e-4)
        shift = np.linalg.norm(coarse.endpoint.position
                               - fine.endpoint.position)
        assert shift < 1e-8 * (cfg.v * 10.0)

    def test_speed_exact_at_every_sample(self):
        cfg = CarConfig(v=2.7, R=1.4)
        law = SteeringLaw.piecewise([2.0], [0.8, -1.1], cfg)
        s0 = CarState(x=1.0, y=1.0, theta=0.7, t=5.0)
        path = propagate_car(cfg, s0, law, t=6.0, step=0.01)
        speeds = np.linalg.norm(path.velocities, axis=1)
        assert_allclose(speeds, cfg.v, rtol=1e-15)

    def test_rejects_inadmissible_law(self):
        cfg = CarConfig(v=1.0, R=1.0)
        overdriven = SteeringLaw(thetadot=lambda t: 2.0, rate_cap=2.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, overdriven, t=1.0, step=0.1)
        # a law lying about its cap is caught when sampled
        liar = SteeringLaw(thetadot=lambda t: 0.9, rate_cap=0.1)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, liar, t=1.0, step=0.1)

    def test_rejects_bad_spans(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        law = SteeringLaw.constant(0.0, cfg)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, law, t=0.0, step=0.1)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, law, t=1.0, step=0.0)

    def test_error_names_first_rate_over_cap(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        liar = SteeringLaw(
            thetadot=lambda t: 0.0 if t < 0.5 else (0.7 if t < 0.8 else 0.9),
            rate_cap=0.1)
        with pytest.raises(ValueError, match="rate 0.7 above"):
            propagate_car(cfg, s0, liar, t=1.0, step=0.1)

    def test_matches_scalar_loop(self):
        """The array kernel agrees with the per-step loop; numpy's sin
        may differ from math.sin by an ulp, hence no bit identity."""
        cfg = CarConfig(v=BANGBANG_V, R=BANGBANG_R)
        amp = 0.9 * cfg.admissible_rate
        laws = [SteeringLaw.piecewise(BANGBANG_SWITCHES, BANGBANG_RATES, cfg),
                SteeringLaw(thetadot=lambda t: amp * math.sin(1.3 * t),
                            rate_cap=amp)]
        s0 = CarState(*BANGBANG_START, t=0.25)
        for law in laws:
            path = propagate_car(cfg, s0, law, t=7.0, step=0.013)
            times, states = loop_propagate(cfg, s0, law, t=7.0, step=0.013)
            assert np.array_equal(path.times, times)
            assert_allclose(path.states, states, rtol=1e-12,
                            atol=1e-12 * cfg.v * 7.0)

    def test_raw_callable_matches_table(self):
        """A raw callable wrapping a piecewise law takes the per-epoch
        branch of rates_at and must drive the identical path."""
        cfg = CarConfig(v=BANGBANG_V, R=BANGBANG_R)
        table = SteeringLaw.piecewise(BANGBANG_SWITCHES, BANGBANG_RATES, cfg)
        raw = SteeringLaw(thetadot=table.thetadot, rate_cap=table.rate_cap)
        s0 = CarState(*BANGBANG_START, t=0.25)
        a = propagate_car(cfg, s0, table, t=4.0, step=0.013)
        b = propagate_car(cfg, s0, raw, t=4.0, step=0.013)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_step_count_capped_before_allocation(self, monkeypatch):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        law = SteeringLaw.constant(0.5, cfg)
        with pytest.raises(WorkCapExceeded):
            propagate_car(cfg, s0, law, t=1.0, step=1e-300)
        cap = 100_000
        monkeypatch.setattr(twocars, "_MAX_SAMPLES", cap)
        assert propagate_car(cfg, s0, law, t=1.0,
                             step=1.0 / cap).times.size == cap + 1
        tracemalloc.start()
        try:
            with pytest.raises(WorkCapExceeded):
                propagate_car(cfg, s0, law, t=1.0, step=1.0 / (cap + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one array of cap floats would already be 8 * cap bytes
        assert peak < cap


class TestPathInvariants:
    """Acceleration orthogonality and the lateral-acceleration cap."""

    def test_orthogonality_smooth_laws(self):
        for trial in range(5):
            v = float(rng.uniform(0.5, 3.0))
            R = float(rng.uniform(0.5, 3.0))
            cfg = CarConfig(v=v, R=R)
            amp = 0.95 * cfg.admissible_rate
            freq = float(rng.uniform(0.3, 1.5)) * v / R
            law = SteeringLaw(
                thetadot=lambda t, a=amp, w=freq: a * math.sin(w * t),
                rate_cap=amp)
            s0 = CarState(x=0.0, y=0.0, theta=float(rng.uniform(0, TWO_PI)),
                          t=0.0)
            path = propagate_car(cfg, s0, law, t=6.0 * R / v,
                                 step=1e-3 * R / v)
            acc = path_accelerations(path)
            dots = np.abs(np.sum(acc * path.velocities[1:-1], axis=1))
            scale = v ** 2 * cfg.max_turn_rate
            assert dots.max() <= 1e-6 * scale

    def test_peak_acceleration_capped(self):
        for trial in range(5):
            v = float(rng.uniform(0.5, 3.0))
            R = float(rng.uniform(0.5, 3.0))
            cfg = CarConfig(v=v, R=R)
            u = cfg.admissible_rate
            switches = np.sort(rng.uniform(0.0, 6.0 * R / v, 4))
            rates = u * rng.choice([-1.0, 1.0], 5)
            law = SteeringLaw.piecewise(switches, rates, cfg)
            s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
            path = propagate_car(cfg, s0, law, t=6.0 * R / v,
                                 step=2e-3 * R / v)
            peaks = np.linalg.norm(path_accelerations(path), axis=1)
            assert peaks.max() <= (v ** 2 / R) * (1.0 + 1e-6)

    def test_constant_turn_orthogonality_is_exact(self):
        cfg = CarConfig(v=2.0, R=1.0)
        law = SteeringLaw.constant(0.9 * cfg.admissible_rate, cfg)
        s0 = CarState(x=0.0, y=0.0, theta=0.3, t=0.0)
        path = propagate_car(cfg, s0, law, t=3.0, step=0.01)
        acc = path_accelerations(path)
        dots = np.abs(np.sum(acc * path.velocities[1:-1], axis=1))
        # symmetric differences of a uniformly rotating velocity are
        # exactly perpendicular to it
        assert dots.max() < 1e-12


class TestReachableSet:
    """Disk bound, straight-ahead inclusion, and grid bookkeeping."""

    def test_disk_bound(self):
        cfg = CarConfig(v=1.7, R=0.9)
        s0 = CarState(x=2.0, y=-1.0, theta=0.8, t=0.0)
        region = reachable_set(cfg, s0, t=3.0, n_controls=400, seed=1)
        ranges = np.linalg.norm(region.endpoints - s0.position, axis=1)
        assert ranges.max() <= cfg.v * 3.0 * (1.0 + 1e-12)

    def test_contains_straight_ahead_point(self):
        cfg = CarConfig(v=1.2, R=1.0)
        s0 = CarState(x=0.5, y=0.5, theta=2.1, t=0.0)
        region = reachable_set(cfg, s0, t=2.5, seed=2)
        ahead = s0.position + cfg.v * 2.5 * np.array(
            [math.sin(s0.theta), math.cos(s0.theta)])
        gaps = np.linalg.norm(region.endpoints - ahead, axis=1)
        assert gaps.min() < 1e-12

    def test_collapses_as_t_vanishes(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=1.0, y=2.0, theta=0.0, t=0.0)
        region = reachable_set(cfg, s0, t=1e-9, n_controls=100, seed=3)
        ranges = np.linalg.norm(region.endpoints - s0.position, axis=1)
        # translating offsets to absolute coordinates costs an ulp of s0
        slack = 16 * np.finfo(float).eps * np.linalg.norm(s0.position)
        assert ranges.max() <= 1e-9 * (1.0 + 1e-12) + slack

    def test_half_turn_endpoint_at_diameter(self):
        """After t = pi*R/v the saturated turn ends a diameter away."""
        cfg = CarConfig(v=1.4, R=0.8)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        t = math.pi * cfg.R / cfg.v
        region = reachable_set(cfg, s0, t=t, n_controls=0, seed=0)
        ranges = np.linalg.norm(region.endpoints - s0.position, axis=1)
        assert np.abs(ranges - 2.0 * cfg.R).min() < 1e-6 * cfg.R

    def test_grid_metadata(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        region = reachable_set(cfg, s0, t=2.0, resolution=64, seed=4)
        assert region.cell_size == pytest.approx(2.0 * 2.0 / 64)
        assert region.occupancy.shape == (64, 64)
        cells = region.occupied_cells
        assert cells.shape[1] == 2
        # straight-ahead endpoint's cell is occupied
        ahead = s0.position + np.array([0.0, 2.0])
        assert np.linalg.norm(cells - ahead, axis=1).min() \
            <= region.cell_size * math.sqrt(2.0)

    def test_deterministic_for_seed(self):
        cfg = CarConfig(v=1.0, R=0.5)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        a = reachable_set(cfg, s0, t=2.0, seed=7)
        b = reachable_set(cfg, s0, t=2.0, seed=7)
        assert np.array_equal(a.endpoints, b.endpoints)
        assert np.array_equal(a.occupancy, b.occupancy)

    def test_rejects_bad_arguments(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        with pytest.raises(ValueError):
            reachable_set(cfg, s0, t=0.0)
        with pytest.raises(ValueError):
            reachable_set(cfg, s0, t=1.0, resolution=0)
        with pytest.raises(ValueError):
            reachable_set(cfg, s0, t=1.0, n_controls=-1)


class TestCockayneCheck:
    """The two interception inequalities on known configurations."""

    def test_both_hold(self):
        verdict = cockayne_check(CarConfig(v=2.0, R=1.0),
                                 CarConfig(v=1.0, R=1.0))
        assert verdict == CockayneVerdict(True, True)
        assert verdict.intercept

    def test_acceleration_fails(self):
        verdict = cockayne_check(CarConfig(v=1.2, R=2.0),
                                 CarConfig(v=1.0, R=1.0))
        assert verdict == CockayneVerdict(True, False)
        assert not verdict.intercept

    def test_speed_must_be_strict(self):
        verdict = cockayne_check(CarConfig(v=1.0, R=1.0),
                                 CarConfig(v=1.0, R=1.0))
        assert verdict == CockayneVerdict(False, True)
        assert not verdict.intercept


class TestTangentPath:
    """The turn-straight-turn route reaches arbitrary goal poses."""

    def test_reaches_random_goal_poses(self):
        cfg = CarConfig(v=1.2, R=0.8)
        for trial in range(40):
            p0 = CarState(x=float(rng.uniform(-5, 5)),
                          y=float(rng.uniform(-5, 5)),
                          theta=float(rng.uniform(-math.pi, 3 * math.pi)),
                          t=0.0)
            goal = rng.uniform(-5, 5, 2)
            goal_heading = float(rng.uniform(-math.pi, 3 * math.pi))
            segments = _tangent_path(p0, goal, goal_heading, cfg)
            for rate, duration in segments:
                assert abs(rate) <= cfg.admissible_rate * (1 + 1e-12)
                assert duration > 0.0
            rates, durations = np.array(segments).T
            x, y, theta = _arc_poses(cfg.v, (p0.x, p0.y, p0.theta), rates,
                                     durations)[-1]
            assert_allclose([x, y], goal, atol=1e-9)
            assert abs(wrap_angle(theta - goal_heading)) < 1e-9

    def test_straight_ahead_goal_is_a_straight_drive(self):
        cfg = CarConfig(v=2.0, R=1.0)
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        segments = _tangent_path(p0, np.array([0.0, 5.0]), 0.0, cfg)
        assert len(segments) == 1
        rate, duration = segments[0]
        assert rate == 0.0
        assert duration == pytest.approx(5.0 / cfg.v)


class TestExplicitPolicyPursuit:
    """Track acquisition and chase-down behavior."""

    def straight_engagement(self, v1, v2, gap, horizon, step=0.01):
        pursuer = CarConfig(v=v1, R=1.0)
        evader = CarConfig(v=v2, R=1.0)
        e0 = CarState(x=0.0, y=gap, theta=0.0, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.0, evader),
                              t=horizon, step=step)
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        return pursuer, evader, p0, track

    def test_chase_down_time_matches_closed_form(self):
        """Straight chase: capture at initial gap over the speed excess."""
        v1, v2, gap = 2.0, 1.0, 5.0
        pursuer, evader, p0, track = self.straight_engagement(
            v1, v2, gap, horizon=8.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert result.captured
        assert result.acquisition_time == pytest.approx(gap / v1)
        expected = gap / (v1 - v2)
        assert abs(result.capture_time - expected) \
            < 0.03 + result.capture_radius / (v1 - v2)

    def test_gap_closes_at_speed_excess_after_acquisition(self):
        v1, v2, gap = 2.0, 1.0, 5.0
        pursuer, evader, p0, track = self.straight_engagement(
            v1, v2, gap, horizon=8.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        times = result.path.times
        follow = (times > result.acquisition_time + 0.2) \
            & (times < result.capture_time - 0.2)
        evader_pos = np.column_stack([
            np.interp(times[follow], track.times, track.states[:, 0]),
            np.interp(times[follow], track.times, track.states[:, 1])])
        gaps = np.linalg.norm(result.path.positions[follow] - evader_pos,
                              axis=1)
        rates = -np.diff(gaps) / np.diff(times[follow])
        assert_allclose(rates, v1 - v2, rtol=1e-6)

    def test_equal_speeds_never_capture(self):
        v, gap = 1.0, 3.0
        pursuer, evader, p0, track = self.straight_engagement(
            v, v, gap, horizon=15.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert not result.captured
        assert result.capture_time is None
        assert result.closest_approach == pytest.approx(gap, rel=1e-9)
        evader_pos = np.column_stack([
            np.interp(result.path.times, track.times, track.states[:, 0]),
            np.interp(result.path.times, track.times, track.states[:, 1])])
        gaps = np.linalg.norm(result.path.positions - evader_pos, axis=1)
        assert np.all(np.diff(gaps) >= -1e-9)

    def test_random_cockayne_true_engagements_capture(self):
        """Faster pursuer with tighter turning catches weaving evaders
        inside ten head-start times."""
        for seed in range(10):
            local = np.random.default_rng(seed)
            v2 = float(local.uniform(0.5, 1.5))
            v1 = v2 + float(local.uniform(0.4, 1.0))
            R1 = float(local.uniform(0.5, 1.0))
            R2 = R1 + float(local.uniform(0.0, 1.0))
            pursuer = CarConfig(v=v1, R=R1)
            evader = CarConfig(v=v2, R=R2)
            assert cockayne_check(pursuer, evader).intercept
            gap0 = float(local.uniform(2.0, 6.0)) * R1
            bound = 10.0 * gap0 / (v1 - v2)
            horizon = 1.2 * bound
            u2 = evader.admissible_rate
            switches = np.sort(local.uniform(0.0, horizon, 8))
            rates = local.uniform(-0.8 * u2, 0.8 * u2, 9)
            law = SteeringLaw.piecewise(switches, rates, evader)
            e0 = CarState(x=0.0, y=0.0,
                          theta=float(local.uniform(0.0, TWO_PI)), t=0.0)
            step = min(0.01, 5e-4 * R1 / (v1 - v2))
            track = propagate_car(evader, e0, law, t=horizon, step=step)
            angle = float(local.uniform(0.0, TWO_PI))
            p0 = CarState(x=gap0 * math.sin(angle), y=gap0 * math.cos(angle),
                          theta=float(local.uniform(0.0, TWO_PI)), t=0.0)
            result = explicit_policy_pursuit(pursuer, evader, p0, track)
            assert result.captured, f"seed {seed} escaped"
            assert result.capture_time <= bound

    def test_rejects_mismatched_track(self):
        pursuer, evader, p0, track = self.straight_engagement(
            2.0, 1.0, 3.0, horizon=5.0)
        with pytest.raises(ValueError):
            explicit_policy_pursuit(pursuer, CarConfig(v=1.1, R=1.0), p0,
                                    track)

    def test_rejects_expired_track(self):
        pursuer, evader, p0, track = self.straight_engagement(
            2.0, 1.0, 3.0, horizon=5.0)
        late = CarState(x=0.0, y=0.0, theta=0.0, t=9.0)
        with pytest.raises(ValueError):
            explicit_policy_pursuit(pursuer, evader, late, track)

    def test_default_capture_radius(self):
        pursuer, evader, p0, track = self.straight_engagement(
            2.0, 1.0, 3.0, horizon=8.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert result.capture_radius == 1e-3 * pursuer.R

    def test_start_on_track_start_captures_at_once(self):
        """A pursuer already at the evader's start pose needs no route."""
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        e0 = CarState(x=1.0, y=2.0, theta=0.0, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.3, evader),
                              t=5.0, step=0.01)
        assert _tangent_path(e0, e0.position, e0.theta, pursuer) == []
        result = explicit_policy_pursuit(pursuer, evader, e0, track)
        assert result.acquisition_time == 0.0
        assert result.captured and result.capture_time == 0.0

    def test_one_sample_track(self):
        """A single-sample track is held at its one pose; the sampling
        step then comes from the capture radius alone."""
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        track = CarPath(cfg=evader, times=[1.0], states=[[0.0, 3.0, 0.0]])
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert result.path.times[0] == 0.0
        assert result.path.times[-1] == 1.0
        step = result.capture_radius / (pursuer.v + evader.v)
        assert np.diff(result.path.times).max() <= step * (1.0 + 1e-9)
        assert not result.captured
        assert result.closest_approach == pytest.approx(1.0)

    def test_rejects_bad_capture_radius(self):
        pursuer, evader, p0, track = self.straight_engagement(
            2.0, 1.0, 3.0, horizon=5.0)
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="capture radius"):
                explicit_policy_pursuit(pursuer, evader, p0, track,
                                        capture_radius=radius)

    def test_sample_count_capped_before_allocation(self, monkeypatch):
        pursuer, evader, p0, track = self.straight_engagement(
            2.0, 1.0, 3.0, horizon=5.0)
        with pytest.raises(WorkCapExceeded):
            explicit_policy_pursuit(pursuer, evader, p0, track,
                                    capture_radius=1e-300)
        cap = 100_000
        monkeypatch.setattr(twocars, "_MAX_SAMPLES", cap)
        # 5 s of track sampled at radius / (v1 + v2) = 5 / n
        fits = explicit_policy_pursuit(pursuer, evader, p0, track,
                                       capture_radius=3.0 * 5.0 / (cap - 1))
        assert fits.path.times.size <= cap + 1
        tracemalloc.start()
        try:
            with pytest.raises(WorkCapExceeded):
                explicit_policy_pursuit(pursuer, evader, p0, track,
                                        capture_radius=3.0 * 5.0 / (2 * cap))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap


def equivalence_horizon(pursuer: CarConfig, evader: CarConfig,
                        headstart: float) -> float:
    """Horizon spanning several turn periods beyond the headstart."""
    return headstart + 20.0 * max(pursuer.R / pursuer.v,
                                  evader.R / evader.v)


class TestContainmentEquivalence:
    """Sampled containment against Cockayne's inequalities."""

    def run_pair(self, pursuer, evader, seed=0):
        headstart = TWO_PI * pursuer.R / pursuer.v
        horizon = equivalence_horizon(pursuer, evader, headstart)
        return containment_equivalence(pursuer, evader, horizon, headstart,
                                       seed=seed)

    def test_cockayne_true_pair_contained(self):
        verdict = self.run_pair(CarConfig(v=2.0, R=1.0),
                                CarConfig(v=1.0, R=1.0))
        assert verdict.contained and verdict.radius_ok and verdict.accel_ok
        assert verdict.cockayne.intercept
        assert verdict.agree
        assert verdict.witness is None

    def test_slower_pursuer_has_witness(self):
        pursuer = CarConfig(v=0.8, R=1.0)
        evader = CarConfig(v=1.2, R=1.0)
        verdict = self.run_pair(pursuer, evader)
        assert not verdict.contained and not verdict.radius_ok
        assert verdict.witness is not None
        x, y, t = verdict.witness
        assert math.hypot(x, y) > pursuer.v * t
        assert verdict.agree

    def test_equal_pair_not_contained(self):
        """An identical pair fails strict containment and Cockayne alike."""
        verdict = self.run_pair(CarConfig(v=1.0, R=1.0),
                                CarConfig(v=1.0, R=1.0))
        assert not verdict.radius_ok
        assert verdict.accel_ok
        assert not verdict.contained
        assert not verdict.cockayne.intercept
        assert verdict.agree
        assert verdict.witness is not None

    def test_acceleration_deficit_detected(self):
        # faster but far too blunt a turner: 1.44/4 < 1
        verdict = self.run_pair(CarConfig(v=1.2, R=4.0),
                                CarConfig(v=1.0, R=1.0))
        assert verdict.radius_ok and not verdict.accel_ok
        assert not verdict.contained
        assert not verdict.cockayne.accel_ok
        assert verdict.agree

    def test_matched_acceleration_boundary_contained(self):
        """Equality in the acceleration condition is allowed."""
        verdict = self.run_pair(CarConfig(v=2.0, R=1.0),
                                CarConfig(v=1.0, R=0.25))
        assert verdict.accel_ok and verdict.contained
        assert verdict.cockayne.intercept
        assert verdict.agree

    def test_random_pairs_agree(self):
        for seed in range(30):
            local = np.random.default_rng(1000 + seed)
            pursuer = CarConfig(v=float(local.uniform(0.5, 3.0)),
                                R=float(local.uniform(0.5, 3.0)))
            evader = CarConfig(v=float(local.uniform(0.5, 3.0)),
                               R=float(local.uniform(0.5, 3.0)))
            verdict = self.run_pair(pursuer, evader, seed=seed)
            assert verdict.agree, (
                f"seed {seed}: contained={verdict.contained} "
                f"cockayne={verdict.cockayne}")

    def test_deterministic_for_seed(self):
        pursuer = CarConfig(v=0.9, R=1.0)
        evader = CarConfig(v=1.4, R=0.7)
        a = self.run_pair(pursuer, evader, seed=5)
        b = self.run_pair(pursuer, evader, seed=5)
        assert a.contained == b.contained
        assert np.array_equal(a.witness, b.witness)
        assert a.evader_peak_accel == b.evader_peak_accel

    def test_rejects_bad_windows(self):
        pursuer = CarConfig(v=1.0, R=1.0)
        evader = CarConfig(v=0.5, R=1.0)
        short = 0.5 * math.pi * pursuer.R / pursuer.v
        with pytest.raises(ValueError):
            containment_equivalence(pursuer, evader, horizon=20.0,
                                    headstart=short)
        with pytest.raises(ValueError):
            containment_equivalence(pursuer, evader, horizon=1.0,
                                    headstart=math.pi)
