"""Tests for the planar pursuit kinematics and verdicts."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from futurecone import twocars
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

import twocars_reference as ref

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
        u = float(law.rates_at(np.array([0.5 * (lo + hi)]))[0])
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


class TestCarPath:
    """Sample validation."""

    def test_rejects_non_finite_epochs(self):
        cfg = CarConfig(v=1.0, R=1.0)
        for times in ([0.0, math.nan, 2.0], [math.nan], [0.0, 1.0, math.inf],
                      [-math.inf, 1.0, 2.0], [0.0, 2.0, 1.0]):
            with pytest.raises(ValueError, match="epochs"):
                CarPath(cfg=cfg, times=times,
                        states=np.zeros((len(times), 3)))

    def test_rejects_non_finite_poses(self):
        cfg = CarConfig(v=1.0, R=1.0)
        for bad in (math.inf, -math.inf, math.nan):
            states = np.zeros((3, 3))
            states[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                CarPath(cfg=cfg, times=[0.0, 1.0, 2.0], states=states)

    @pytest.mark.parametrize("times, states, message", [
        ([0.0, 1.0], np.zeros((3, 3)), r"^need times \(n,\) and states"),
        ([0.0, 1.0], np.zeros((2, 2)), r"^need times \(n,\) and states"),
        ([[0.0, 1.0]], np.zeros((2, 3)), r"^need times \(n,\) and states"),
        ([], np.zeros((0, 3)), "^a path needs at least one sample$"),
    ], ids=["rows", "columns", "times_2d", "empty"])
    def test_rejects_shapes_and_empty_paths(self, times, states, message):
        with pytest.raises(ValueError, match=message):
            CarPath(cfg=CarConfig(v=1.0, R=1.0), times=times, states=states)


class TestSteeringLaw:
    """Construction-time admissibility and piecewise lookup."""

    def test_constant_validates(self):
        cfg = CarConfig(v=1.0, R=2.0)
        law = SteeringLaw.constant(0.4, cfg)
        assert law.rates_at(np.array([123.0])).tolist() == [0.4]
        with pytest.raises(ValueError):
            SteeringLaw.constant(cfg.max_turn_rate, cfg)

    def test_piecewise_lookup(self):
        cfg = CarConfig(v=1.0, R=1.0)
        law = SteeringLaw.piecewise([1.0, 2.0], [0.1, -0.2, 0.3], cfg)
        rates = law.rates_at(np.array([0.5, 1.0, 1.5, 5.0]))
        assert rates.tolist() == [0.1, -0.2, -0.2, 0.3]

    def test_piecewise_keeps_its_own_table(self):
        """Writing to the caller's arrays after construction changes
        neither the law nor its validated rates."""
        cfg = CarConfig(v=1.0, R=1.0)
        switches, rates = np.array([1.0]), np.array([0.1, 0.2])
        law = SteeringLaw.piecewise(switches, rates, cfg)
        switches[0], rates[:] = 5.0, 2.0
        assert law.rates_at(np.array([0.5, 2.0])).tolist() == [0.1, 0.2]

    def test_piecewise_validates(self):
        cfg = CarConfig(v=1.0, R=1.0)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([2.0, 1.0], [0.1, 0.1, 0.1], cfg)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([1.0], [0.1, 0.1, 0.1], cfg)
        with pytest.raises(ValueError):
            SteeringLaw.piecewise([1.0], [0.1, 2.0], cfg)
        # a nan switch left the first rate on for all time
        for switches in ([math.nan], [math.inf], [1.0, math.inf],
                         [math.nan, 1.0]):
            with pytest.raises(ValueError,
                               match="^switch epochs must be finite"):
                SteeringLaw.piecewise(switches,
                                      [0.1] * len(switches) + [-0.2], cfg)

    @pytest.mark.parametrize("switches, rates, shapes", [
        ([[1.0], [2.0]], [0.1, 0.2, 0.3], r"\(2, 1\) and rates \(3,\)"),
        ([], 0.1, r"\(0,\) and rates \(\)"),
        ([1.0], [[0.1, 0.2]], r"\(1,\) and rates \(1, 2\)"),
    ], ids=["switches_2d", "rates_0d", "rates_2d"])
    def test_piecewise_refuses_misshapen_tables(self, switches, rates,
                                                shapes):
        """Both shapes are named; 2-D switches once built a law that
        numpy refused at the first propagation."""
        with pytest.raises(ValueError, match=(
                r"^need switches \(k,\) and rates \(k \+ 1,\), got "
                r"switches " + shapes + "$")):
            SteeringLaw.piecewise(switches, rates, CarConfig(v=1.0, R=1.0))


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
        law = SteeringLaw(lambda t: amp * np.sin(1.3 * t))
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
        overdriven = SteeringLaw(lambda t: np.full_like(t, 2.0))
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, overdriven, t=1.0, step=0.1)

    @pytest.mark.parametrize("rates_at, shape", [
        (lambda t: 0.5, r"\(\)"),
        (lambda t: np.zeros(t.size + 1), r"\(11,\)"),
        (lambda t: np.zeros((t.size, 1)), r"\(10, 1\)"),
    ], ids=["scalar", "one_too_many", "column"])
    def test_rejects_law_without_one_rate_per_step(self, rates_at, shape):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        with pytest.raises(ValueError, match=(
                f"^law returned rates of shape {shape} for 10 epochs$")):
            propagate_car(cfg, s0, SteeringLaw(rates_at), t=1.0, step=0.1)

    def test_rejects_bad_spans(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        law = SteeringLaw.constant(0.0, cfg)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, law, t=0.0, step=0.1)
        with pytest.raises(ValueError):
            propagate_car(cfg, s0, law, t=1.0, step=0.0)

    def test_rejects_a_step_below_the_epoch_spacing(self):
        """At epoch 1e12 s floats lie 2**-13 s apart, so 1e-6 s steps
        would repeat sample epochs: the call names the step and the
        epoch, and a step above the spacing there is driven."""
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=1e12)
        law = SteeringLaw.constant(0.1, cfg)
        with pytest.raises(ValueError, match=(
                r"^step 1e-06 s falls below the float spacing "
                r"0\.0001220703125 s of epoch 1000000000000\.0 s$")):
            propagate_car(cfg, s0, law, t=1e-3, step=1e-6)
        path = propagate_car(cfg, s0, law, t=1.0, step=1e-3)
        assert path.times[0] == 1e12 and path.times[-1] == 1e12 + 1.0

    def test_error_names_first_rate_over_cap(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        law = SteeringLaw(
            lambda t: np.select([t < 0.5, t < 0.8], [0.0, 1.7], 1.9))
        with pytest.raises(ValueError, match="^turn rate 1.7 exceeds"):
            propagate_car(cfg, s0, law, t=1.0, step=0.1)

    def test_matches_scalar_loop(self):
        """The array kernel agrees with the per-step loop; numpy's sin
        may differ from math.sin by an ulp, hence no bit identity."""
        cfg = CarConfig(v=BANGBANG_V, R=BANGBANG_R)
        amp = 0.9 * cfg.admissible_rate
        laws = [SteeringLaw.piecewise(BANGBANG_SWITCHES, BANGBANG_RATES, cfg),
                SteeringLaw(lambda t: amp * np.sin(1.3 * t))]
        s0 = CarState(*BANGBANG_START, t=0.25)
        for law in laws:
            path = propagate_car(cfg, s0, law, t=7.0, step=0.013)
            times, states = loop_propagate(cfg, s0, law, t=7.0, step=0.013)
            assert np.array_equal(path.times, times)
            assert_allclose(path.states, states, rtol=1e-12,
                            atol=1e-12 * cfg.v * 7.0)


class TestPathInvariants:
    """Acceleration orthogonality and the lateral-acceleration cap."""

    def test_orthogonality_smooth_laws(self):
        for trial in range(5):
            v = float(rng.uniform(0.5, 3.0))
            R = float(rng.uniform(0.5, 3.0))
            cfg = CarConfig(v=v, R=R)
            amp = 0.95 * cfg.admissible_rate
            freq = float(rng.uniform(0.3, 1.5)) * v / R
            law = SteeringLaw(lambda t, a=amp, w=freq: a * np.sin(w * t))
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_accelerations_need_three_samples(self, n):
        path = CarPath(cfg=CarConfig(v=1.0, R=1.0), times=np.arange(n),
                       states=np.zeros((n, 3)))
        with pytest.raises(ValueError, match="^need at least three samples"):
            path_accelerations(path)

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


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def lead_shapes():
    """Leading shapes of the kernel's callers: one track, one row per
    approach sample, and (car, grid time, extremal)."""
    return st.one_of(st.just(()), st.tuples(st.integers(1, 9)),
                     st.tuples(st.just(2), st.integers(1, 4), st.just(31)))


# zero, tiny (the straight-segment branch) and ordinary turn rates
arc_rates = st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13),
                      st.floats(-5.0, 5.0))


class TestArcPoses:
    """The segment-first kernel against the oracle's column-built one."""

    @settings(max_examples=200)
    @given(data=st.data(), lead=lead_shapes(), k=st.integers(1, 4),
           per_row=st.booleans(), broadcast_speed=st.booleans())
    def test_matches_the_oracle_bit_for_bit(self, data, lead, k, per_row,
                                            broadcast_speed):
        """Scalar or per-row speeds, one start pose or one per row, and
        segments with zero, tiny and ordinary turns."""
        rates = data.draw(hnp.arrays(float, lead + (k,), elements=arc_rates))
        durations = data.draw(hnp.arrays(float, lead + (k,),
                                         elements=st.floats(0.0, 10.0)))
        speeds = st.floats(0.1, 10.0)
        v = (data.draw(hnp.arrays(float, lead + (1,), elements=speeds))
             if broadcast_speed else data.draw(speeds))
        coords = st.floats(-1e3, 1e3)
        start = (data.draw(hnp.arrays(float, lead + (3,), elements=coords))
                 if per_row else tuple(data.draw(coords) for _ in range(3)))
        assert_same_bits(_arc_poses(v, start, rates, durations),
                         ref.arc_poses(v, start, rates, durations))


class TestReachableSet:
    """Disk bound, straight-ahead inclusion, and the extremal endpoints."""

    def test_disk_bound(self):
        cfg = CarConfig(v=1.7, R=0.9)
        s0 = CarState(x=2.0, y=-1.0, theta=0.8, t=0.0)
        endpoints = reachable_set(cfg, s0, t=3.0)
        ranges = np.linalg.norm(endpoints - s0.position, axis=1)
        assert ranges.max() <= cfg.v * 3.0 * (1.0 + 1e-12)

    def test_contains_straight_ahead_point(self):
        cfg = CarConfig(v=1.2, R=1.0)
        s0 = CarState(x=0.5, y=0.5, theta=2.1, t=0.0)
        endpoints = reachable_set(cfg, s0, t=2.5)
        ahead = s0.position + cfg.v * 2.5 * np.array(
            [math.sin(s0.theta), math.cos(s0.theta)])
        gaps = np.linalg.norm(endpoints - ahead, axis=1)
        assert gaps.min() < 1e-12

    def test_collapses_as_t_vanishes(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=1.0, y=2.0, theta=0.0, t=0.0)
        endpoints = reachable_set(cfg, s0, t=1e-9)
        ranges = np.linalg.norm(endpoints - s0.position, axis=1)
        # translating offsets to absolute coordinates costs an ulp of s0
        slack = 16 * np.finfo(float).eps * np.linalg.norm(s0.position)
        assert ranges.max() <= 1e-9 * (1.0 + 1e-12) + slack

    def test_half_turn_endpoint_at_diameter(self):
        """After t = pi*R/v the saturated turn ends a diameter away."""
        cfg = CarConfig(v=1.4, R=0.8)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        t = math.pi * cfg.R / cfg.v
        endpoints = reachable_set(cfg, s0, t=t)
        ranges = np.linalg.norm(endpoints - s0.position, axis=1)
        assert np.abs(ranges - 2.0 * cfg.R).min() < 1e-6 * cfg.R

    def test_deterministic(self):
        cfg = CarConfig(v=1.0, R=0.5)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        a = reachable_set(cfg, s0, t=2.0)
        b = reachable_set(cfg, s0, t=2.0)
        assert a.tobytes() == b.tobytes()

    def test_returns_read_only_endpoints(self):
        """One row per extremal control."""
        cfg = CarConfig(v=1.0, R=0.5)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        endpoints = reachable_set(cfg, s0, t=2.0)
        assert endpoints.shape == (31, 2)
        assert not endpoints.flags.writeable

    def test_rejects_bad_arguments(self):
        cfg = CarConfig(v=1.0, R=1.0)
        s0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^elapsed time must be"):
                reachable_set(cfg, s0, t=t)


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
            rates, durations = _tangent_path(p0, goal, goal_heading, cfg)
            assert rates.shape == durations.shape == (3,)
            assert np.all(np.abs(rates) <= cfg.admissible_rate * (1 + 1e-12))
            assert np.all(durations >= 0.0)
            x, y, theta = _arc_poses(cfg.v, (p0.x, p0.y, p0.theta), rates,
                                     durations)[-1]
            assert_allclose([x, y], goal, atol=1e-9)
            assert abs(wrap_angle(theta - goal_heading)) < 1e-9

    def test_straight_ahead_goal_is_a_straight_drive(self):
        cfg = CarConfig(v=2.0, R=1.0)
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        rates, durations = _tangent_path(p0, np.array([0.0, 5.0]), 0.0, cfg)
        assert rates[1] == 0.0
        assert durations[0] == durations[2] == 0.0
        assert durations[1] == pytest.approx(5.0 / cfg.v)


def weaving_game(seed: int):
    """A criterion-8 engagement: a faster, tighter-turning pursuer
    against an evader weaving on a random piecewise-constant law.

    Returns (pursuer, evader, p0, track, bound), bound being ten
    head-start times.
    """
    local = np.random.default_rng(seed)
    v2 = float(local.uniform(0.5, 1.5))
    v1 = v2 + float(local.uniform(0.4, 1.0))
    R1 = float(local.uniform(0.5, 1.0))
    R2 = R1 + float(local.uniform(0.0, 1.0))
    pursuer = CarConfig(v=v1, R=R1)
    evader = CarConfig(v=v2, R=R2)
    gap0 = float(local.uniform(2.0, 6.0)) * R1
    bound = 10.0 * gap0 / (v1 - v2)
    horizon = 1.2 * bound
    u2 = evader.admissible_rate
    switches = np.sort(local.uniform(0.0, horizon, 8))
    rates = local.uniform(-0.8 * u2, 0.8 * u2, 9)
    law = SteeringLaw.piecewise(switches, rates, evader)
    e0 = CarState(x=0.0, y=0.0, theta=float(local.uniform(0.0, TWO_PI)),
                  t=0.0)
    step = min(0.01, 5e-4 * R1 / (v1 - v2))
    track = propagate_car(evader, e0, law, t=horizon, step=step)
    angle = float(local.uniform(0.0, TWO_PI))
    p0 = CarState(x=gap0 * math.sin(angle), y=gap0 * math.cos(angle),
                  theta=float(local.uniform(0.0, TWO_PI)), t=0.0)
    return pursuer, evader, p0, track, bound


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
        # the closest approach is the separation at its own sample
        closest = np.flatnonzero(result.path.times == result.closest_time)
        assert closest.size == 1
        assert gaps[closest[0]] == pytest.approx(result.closest_approach,
                                                 rel=1e-12)

    def test_random_cockayne_true_engagements_capture(self):
        """Faster pursuer with tighter turning catches weaving evaders
        inside ten head-start times."""
        for seed in range(10):
            pursuer, evader, p0, track, bound = weaving_game(seed)
            assert cockayne_check(pursuer, evader).intercept
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
        _, durations = _tangent_path(e0, e0.position, e0.theta, pursuer)
        assert durations.tolist() == [0.0, 0.0, 0.0]
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


cars = st.builds(CarConfig, v=st.floats(0.1, 10.0), R=st.floats(0.1, 10.0))


def equivalence_horizon(pursuer: CarConfig, evader: CarConfig,
                        headstart: float) -> float:
    """Horizon spanning several turn periods beyond the headstart."""
    return headstart + 20.0 * max(pursuer.R / pursuer.v,
                                  evader.R / evader.v)


class TestContainmentEquivalence:
    """Containment on the extremal controls against Cockayne's
    inequalities."""

    def run_pair(self, pursuer, evader, **kwargs):
        headstart = TWO_PI * pursuer.R / pursuer.v
        horizon = equivalence_horizon(pursuer, evader, headstart)
        return containment_equivalence(pursuer, evader, horizon, headstart,
                                       **kwargs)

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

    def test_acceleration_excess_below_a_millionth_detected(self):
        """An evader pulling 5e-7 more lateral acceleration than the
        pursuer is not contained, as Cockayne says."""
        verdict = self.run_pair(CarConfig(v=2.0, R=1.0),
                                CarConfig(v=1.0, R=0.25 / (1.0 + 5e-7)))
        assert verdict.radius_ok and not verdict.accel_ok
        assert not verdict.contained
        assert not verdict.cockayne.intercept
        assert verdict.agree

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("exponent", range(1, 16))
    def test_near_ties_agree(self, exponent, sign):
        """Speed ratios and lateral-acceleration ratios of 1 +- 10^-k
        give Cockayne's verdict, for k = 1 through 15."""
        ratio = 1.0 + sign * 10.0 ** -exponent
        pursuer = CarConfig(v=1.7, R=0.9)
        fast = CarConfig(v=pursuer.v * ratio, R=2.0 * pursuer.R)
        v2 = 0.6 * pursuer.v
        turner = CarConfig(v=v2, R=v2 ** 2 / (pursuer.v ** 2 / pursuer.R
                                              * ratio))
        for evader in (fast, turner):
            verdict = self.run_pair(pursuer, evader)
            assert verdict.agree, (evader, verdict.cockayne)
        assert self.run_pair(pursuer, fast).radius_ok == (sign < 0.0)
        assert self.run_pair(pursuer, turner).accel_ok == (sign < 0.0)

    def test_random_pairs_agree(self):
        for seed in range(30):
            local = np.random.default_rng(1000 + seed)
            pursuer = CarConfig(v=float(local.uniform(0.5, 3.0)),
                                R=float(local.uniform(0.5, 3.0)))
            evader = CarConfig(v=float(local.uniform(0.5, 3.0)),
                               R=float(local.uniform(0.5, 3.0)))
            verdict = self.run_pair(pursuer, evader)
            assert verdict.agree, (
                f"seed {seed}: contained={verdict.contained} "
                f"cockayne={verdict.cockayne}")

    @settings(max_examples=300)
    @given(pursuer=cars, evader=cars,
           tie=st.sampled_from(["none", "speed", "accel"]),
           exponent=st.integers(1, 15), sign=st.sampled_from([1, 0, -1]),
           ulps=st.integers(-3, 3))
    def test_verdict_is_cockayne(self, pursuer, evader, tie, exponent, sign,
                                 ulps):
        """Containment equals Cockayne's conjunction on random pairs and
        on speed and acceleration near-ties built from them, down to a
        few ulps, and any witness lies at or beyond the pursuer's
        straight-line reach."""
        ratio = 1.0 + sign * 10.0 ** -exponent
        if tie == "speed":
            v2 = pursuer.v * ratio
            evader = CarConfig(v=v2 + ulps * math.ulp(v2), R=evader.R)
        elif tie == "accel":
            r2 = evader.v ** 2 / (pursuer.v ** 2 / pursuer.R * ratio)
            evader = CarConfig(v=evader.v, R=r2 + ulps * math.ulp(r2))
        verdict = self.run_pair(pursuer, evader, time_grid=9)
        assert verdict.contained == cockayne_check(pursuer, evader).intercept
        if verdict.witness is not None:
            x, y, t = verdict.witness
            assert np.hypot(x, y) >= pursuer.v * t

    def test_deterministic(self):
        pursuer = CarConfig(v=0.9, R=1.0)
        evader = CarConfig(v=1.4, R=0.7)
        a = self.run_pair(pursuer, evader)
        b = self.run_pair(pursuer, evader)
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
        # an infinite horizon grids to nan times, where every frontier
        # comparison is false and radius_ok read true
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^horizon .* must be finite"):
                containment_equivalence(pursuer, pursuer, horizon=horizon,
                                        headstart=4.0)
        with pytest.raises(ValueError, match="^headstart nan is below"):
            containment_equivalence(pursuer, evader, horizon=10.0,
                                    headstart=math.nan)

    @pytest.mark.parametrize("time_grid", [1, 0])
    def test_rejects_fewer_than_two_grid_times(self, time_grid):
        with pytest.raises(ValueError, match=(
                f"^time_grid must be at least 2, got {time_grid}$")):
            containment_equivalence(CarConfig(v=1.0, R=1.0),
                                    CarConfig(v=0.5, R=1.0), horizon=20.0,
                                    headstart=math.pi, time_grid=time_grid)

    @pytest.mark.parametrize("time_grid", [2, 5, 33, 400])
    def test_one_kernel_call_whatever_the_grid(self, monkeypatch, time_grid):
        """Both cars at every grid time fly in one kernel call, and a
        slower pursuer's witness lies at the first grid time."""
        calls = []
        kernel = twocars._arc_poses

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(twocars, "_arc_poses", counted)
        contained = containment_equivalence(
            CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0), horizon=20.0,
            headstart=math.pi, time_grid=time_grid)
        assert contained.witness is None and len(calls) == 1
        calls.clear()
        slower = containment_equivalence(
            CarConfig(v=0.8, R=1.0), CarConfig(v=1.2, R=1.0), horizon=20.0,
            headstart=4.0, time_grid=time_grid)
        assert slower.witness[2] == 4.0 and len(calls) == 1


class TestAgainstReference:
    """Verdicts and pursuits equal the oracle's bit for bit, in every
    field: the oracle adds random controls to each car's family and
    flies it in its own kernel call per grid time, flies every approach
    sample through every route segment, and takes the separation over
    the whole span, of which the pursuit path is the prefix up to the
    capture."""

    def assert_same_verdict(self, pursuer, evader, headstart, horizon,
                            time_grid=33, **draws):
        """The draw-free verdict against the oracle's, which adds the
        random controls that draws asks for."""
        got = containment_equivalence(pursuer, evader, horizon, headstart,
                                      time_grid=time_grid)
        want = ref.containment_equivalence(pursuer, evader, horizon,
                                           headstart, time_grid=time_grid,
                                           **draws)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "witness" and b is not None:
                assert_same_bits(a, b)
            else:
                assert a == b, f.name
        return got

    def assert_same_pursuit(self, pursuer, evader, p0, track, **kwargs):
        got = explicit_policy_pursuit(pursuer, evader, p0, track, **kwargs)
        want = ref.explicit_policy_pursuit(pursuer, evader, p0, track,
                                           **kwargs)
        for f in dataclasses.fields(got):
            if f.name != "path":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        # the oracle samples the whole span; the path stops at the hit
        end = (want.path.times.size if want.capture_time is None else
               int(np.flatnonzero(want.path.times == want.capture_time)[0]) + 1)
        assert got.path.cfg == want.path.cfg
        assert_same_bits(got.path.times, want.path.times[:end])
        assert_same_bits(got.path.states, want.path.states[:end])
        return got

    @pytest.mark.parametrize("time_grid", [33, 5])
    def test_random_pairs(self, time_grid):
        witnesses = 0
        for seed in range(12):
            local = np.random.default_rng(3000 + seed)
            pursuer = CarConfig(v=float(local.uniform(0.5, 3.0)),
                                R=float(local.uniform(0.5, 3.0)))
            evader = CarConfig(v=float(local.uniform(0.5, 3.0)),
                               R=float(local.uniform(0.5, 3.0)))
            headstart = TWO_PI * pursuer.R / pursuer.v
            verdict = self.assert_same_verdict(
                pursuer, evader, headstart,
                equivalence_horizon(pursuer, evader, headstart),
                time_grid=time_grid, seed=seed)
            witnesses += verdict.witness is not None
        assert 0 < witnesses < 12

    def test_equal_pair(self):
        cfg = CarConfig(v=1.3, R=0.7)
        headstart = TWO_PI * cfg.R / cfg.v
        verdict = self.assert_same_verdict(
            cfg, cfg, headstart, equivalence_horizon(cfg, cfg, headstart),
            samples=64, seed=9)
        assert verdict.witness is not None

    @settings(max_examples=300)
    @given(cfg=st.builds(CarConfig, v=st.floats(0.1, 10.0),
                         R=st.floats(1e-3, 1e3)), s0=st.builds(
        CarState, x=st.floats(-1e3, 1e3), y=st.floats(-1e3, 1e3),
        theta=st.floats(-10.0, 10.0), t=st.just(0.0)),
        t=st.floats(1e-9, 1e3))
    def test_reachable_set_endpoints(self, cfg, s0, t):
        """The oracle's family without random draws, bit for bit."""
        want = s0.position + ref.family_endpoints(
            cfg, s0.theta, t, 0, np.random.default_rng(0))
        assert_same_bits(reachable_set(cfg, s0, t), want)

    def test_weaving_games(self):
        for seed in range(4):
            pursuer, evader, p0, track, _ = weaving_game(100 + seed)
            assert self.assert_same_pursuit(pursuer, evader, p0,
                                            track).captured

    def test_equal_speed_chase_without_capture(self):
        """No hit, and no sure sample at equal speeds: the path covers
        the whole span."""
        pursuer, evader = CarConfig(v=1.0, R=1.0), CarConfig(v=1.0, R=1.0)
        e0 = CarState(x=0.0, y=3.0, theta=0.0, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.2, evader),
                              t=12.0, step=0.01)
        p0 = CarState(x=1.0, y=0.0, theta=1.0, t=0.0)
        result = self.assert_same_pursuit(pursuer, evader, p0, track)
        assert not result.captured
        assert result.path.times[0] == p0.t
        assert result.path.times[-1] == pytest.approx(12.0, rel=1e-15)
        # 12 s at capture radius / (v1 + v2) = 5e-4 s
        assert result.path.times.size > 24_000

    @staticmethod
    def sure_sample(pursuer, evader, p0, track, result, n):
        """The pursuit's split: the first sample past the epoch where a
        pursuer following the track trails the evader by the capture
        radius of arc, two samples on, at most n."""
        t_acq, radius = result.acquisition_time, result.capture_radius
        t_sure = (pursuer.v * t_acq - evader.v * track.times[0]
                  - radius) / (pursuer.v - evader.v)
        span = track.times[-1] - p0.t
        return min(n, math.ceil((max(t_sure, t_acq) - p0.t) / span * n) + 2)

    @staticmethod
    def count_passes(monkeypatch):
        """Calls of the arc kernel, less the one for the route's
        corners: one per sampling pass."""
        calls = []
        kernel = twocars._arc_poses
        monkeypatch.setattr(twocars, "_arc_poses",
                            lambda *args: calls.append(1) or kernel(*args))
        return lambda: len(calls) - 1

    @pytest.mark.parametrize("offset", [0, -1, 1], ids=[
        "at the sure sample", "one before it", "past it"])
    def test_hit_around_the_sure_sample(self, monkeypatch, offset):
        """A straight track recorded at s times its car's speed: its
        separation s v2 (t - u) crosses the capture radius halfway
        between two samples, placed by s next to the sure sample. A hit
        at or before it takes one pass; past it, which only a track
        whose chords outrun its speed can do, a second pass."""
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        times = np.linspace(0.0, 10.0, 1001)
        p0 = CarState(x=0.0, y=-1.0, theta=0.0, t=0.0)
        unit = CarPath(cfg=evader, times=times, states=np.column_stack(
            [np.zeros_like(times), times, np.zeros_like(times)]))
        first = ref.explicit_policy_pursuit(pursuer, evader, p0, unit,
                                            capture_radius=0.05)
        n = first.path.times.size - 1
        sure = self.sure_sample(pursuer, evader, p0, unit, first, n)
        # on the unit-speed track the pursuer trails by 2 t_acq - t
        t_cross = p0.t + (times[-1] - p0.t) * (sure + offset - 0.5) / n
        scale = 0.05 / (2.0 * first.acquisition_time - t_cross)
        track = CarPath(cfg=evader, times=times,
                        states=unit.states * [1.0, scale, 1.0])
        passes = self.count_passes(monkeypatch)
        result = self.assert_same_pursuit(pursuer, evader, p0, track,
                                          capture_radius=0.05)
        assert result.captured
        assert result.path.times.size == sure + offset + 1
        assert passes() == (1 if offset <= 0 else 2)

    @settings(max_examples=40)
    @given(v2=st.floats(0.5, 1.5), excess=st.floats(0.3, 1.0),
           r1=st.floats(0.5, 1.0), r2=st.floats(0.5, 2.0),
           gap=st.floats(0.5, 3.0), angles=st.tuples(*[st.floats(
               0.0, TWO_PI)] * 3), law_seed=st.integers(0, 2 ** 32 - 1),
           reach=st.floats(0.5, 3.0), radius=st.floats(1e-3, 0.05))
    def test_one_pass_on_driven_tracks(self, v2, excess, r1, r2, gap,
                                       angles, law_seed, reach, radius):
        """On a track that propagate_car drove, a faster pursuer's hit
        comes by the sure sample: the pursuit samples in one pass, and
        equals the oracle bit for bit. The track runs for reach times a
        rough capture epoch, so some games end before the capture."""
        horizon = reach * (gap + math.pi * r1) / excess
        pursuer = CarConfig(v=v2 + excess, R=r1)
        evader = CarConfig(v=v2, R=r2)
        local = np.random.default_rng(law_seed)
        u2 = evader.admissible_rate
        law = SteeringLaw.piecewise(np.sort(local.uniform(0.0, horizon, 4)),
                                    local.uniform(-u2, u2, 5), evader)
        e0 = CarState(x=0.0, y=0.0, theta=angles[0], t=0.0)
        track = propagate_car(evader, e0, law, t=horizon, step=0.01)
        p0 = CarState(x=gap * math.sin(angles[1]),
                      y=gap * math.cos(angles[1]), theta=angles[2], t=0.0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            passes = self.count_passes(monkeypatch)
            self.assert_same_pursuit(pursuer, evader, p0, track,
                                     capture_radius=radius)
            assert passes() == 1

    def test_capture_after_the_sure_sample(self):
        """A track whose chords outrun its recorded speed: trailing it by
        less than half the capture radius is not yet a hit, and the hit
        comes later."""
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        times = np.linspace(0.0, 10.0, 1001)
        states = np.column_stack([np.zeros_like(times), 5.0 * times,
                                  np.zeros_like(times)])
        track = CarPath(cfg=evader, times=times, states=states)
        p0 = CarState(x=0.0, y=-1.0, theta=0.0, t=0.0)
        result = self.assert_same_pursuit(pursuer, evader, p0, track,
                                          capture_radius=0.05)
        assert result.captured
        lag = evader.v * (result.capture_time - (
            2.0 * (result.capture_time - result.acquisition_time)))
        assert lag < 0.5 * result.capture_radius

    def test_start_on_track_start(self):
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        e0 = CarState(x=1.0, y=2.0, theta=0.0, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.3, evader),
                              t=5.0, step=0.01)
        result = self.assert_same_pursuit(pursuer, evader, e0, track)
        assert result.acquisition_time == 0.0

    def test_one_sample_track(self):
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        track = CarPath(cfg=evader, times=[1.0], states=[[0.0, 3.0, 0.0]])
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        assert not self.assert_same_pursuit(pursuer, evader, p0,
                                            track).captured

    @pytest.mark.parametrize("capture_radius, thin, medians", [
        (None, 1, 0), (0.029, 1, 0), (0.031, 1, 1), (1.5, 1, 1),
        (0.06, 5, 1)])
    def test_median_gap_taken_only_when_it_can_set_the_step(
            self, monkeypatch, capture_radius, thin, medians):
        """The sampling step is the smaller of the capture step and the
        track's median gap, 0.01 s on a track of 0.01 s steps, also when
        it keeps only every fifth step after t = 4 s. At or below the
        track's least gap the capture step is the smaller, and the median
        is not taken: the pursuit is the oracle's either way."""
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        e0 = CarState(x=0.0, y=6.0, theta=math.pi, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.4, evader),
                              t=8.0, step=0.01)
        keep = (np.arange(track.times.size) % thin == 0) | (track.times <= 4.0)
        track = CarPath(cfg=evader, times=track.times[keep],
                        states=track.states[keep])
        median, taken = np.median, []
        monkeypatch.setattr(np, "median",
                            lambda a: taken.append(1) or median(a))
        self.assert_same_pursuit(pursuer, evader,
                                 CarState(x=0.0, y=0.0, theta=0.0, t=0.0),
                                 track, capture_radius=capture_radius)
        assert len(taken) == medians + 1  # the oracle's is always taken

    def test_capture_during_approach(self):
        pursuer, evader = CarConfig(v=2.0, R=1.0), CarConfig(v=1.0, R=1.0)
        e0 = CarState(x=0.0, y=6.0, theta=math.pi, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.0, evader),
                              t=8.0, step=0.01)
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        result = self.assert_same_pursuit(pursuer, evader, p0, track,
                                          capture_radius=1.5)
        assert result.captured
        assert result.capture_time < result.acquisition_time
