"""Tests for impulsive schedules, the rocket equation, and finite thrust."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from futurecone import (
    MU_EARTH,
    ImpulsiveSchedule,
    StateVector,
    SurfaceViolation,
    ThrustProfile,
    UnboundResult,
    integrate_thrust,
    profile_impulse,
    propagate_schedule,
    propagate_time,
    rocket_delta_v,
    shock_approximation,
    solve_lambert,
)
from futurecone import kepler, maneuver
from futurecone.errors import (
    ConvergenceError,
    EccentricityOutOfRange,
    FutureConeError,
    WorkCapExceeded,
)
from futurecone.constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM
from futurecone.kepler import ArcBatch, _row_norm, states_at
from futurecone.maneuver import ImpulsiveTrajectory

import maneuver_reference as ref
from kepler_reference import arc_from_state, mean_motion

rng = np.random.default_rng(7)

RN = 7238.137
VC = math.sqrt(MU_EARTH / RN)


def circular_state(t: float = 0.0) -> StateVector:
    return StateVector([RN, 0.0, 0.0], [0.0, VC, 0.0], t)


class TestRocketDeltaV:
    def test_no_propellant_is_zero(self):
        assert rocket_delta_v(300.0, 1000.0, 1000.0) == 0.0

    def test_frozen_values(self):
        assert_allclose(rocket_delta_v(76.0, 958.0, 880.0),
                        0.06329570988231352, rtol=1e-14)
        assert_allclose(rocket_delta_v(76.0, 892.0, 880.0),
                        0.010094584111627062, rtol=1e-14)

    def test_additive_over_staging(self):
        """Burning 1000->900->810 equals burning 1000->810."""
        joint = rocket_delta_v(250.0, 1000.0, 810.0)
        staged = (rocket_delta_v(250.0, 1000.0, 900.0)
                  + rocket_delta_v(250.0, 900.0, 810.0))
        assert_allclose(staged, joint, rtol=1e-13)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            rocket_delta_v(300.0, 900.0, 1000.0)
        with pytest.raises(ValueError):
            rocket_delta_v(300.0, 1000.0, 0.0)
        with pytest.raises(ValueError):
            rocket_delta_v(0.0, 1000.0, 900.0)

    @pytest.mark.parametrize("args, field", [
        ((math.nan, 10.0, 5.0), "isp"), ((math.inf, 10.0, 5.0), "isp"),
        ((300.0, math.inf, 5.0), "m_i"), ((300.0, math.nan, 5.0), "m_i"),
        ((300.0, 10.0, math.nan), "m_f"),
    ])
    def test_rejects_numbers_that_are_not_finite(self, args, field):
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite"):
            rocket_delta_v(*args)


def apply_shock(s: StateVector, dv,
                floor: float = DEFAULT_FLOOR_KM) -> StateVector:
    """The post-shock state of one shock at the epoch of s: the first
    arc of a chain from s whose one shock is at its origin."""
    traj = propagate_schedule(s, ImpulsiveSchedule([s.t], [dv]), s.t + 1.0,
                              floor=floor)
    return StateVector(traj.arcs.r0[0], traj.arcs.v0[0], traj.arcs.t0[0])


class TestApplyShock:
    """A shock applied by a chain at its origin's epoch."""

    def test_zero_dv_identity(self):
        s = circular_state()
        post = apply_shock(s, np.zeros(3))
        assert post == s

    def test_position_and_epoch_unchanged(self):
        s = circular_state(t=17.0)
        post = apply_shock(s, [0.01, -0.02, 0.005])
        assert np.array_equal(post.r, s.r)
        assert post.t == s.t
        assert np.array_equal(post.v, s.v + np.array([0.01, -0.02, 0.005]))

    def test_retrograde_burn_hits_target_apsis(self):
        """dv sized for a target apsis radius gives the predicted axis."""
        target = 6800.0
        dv_mag = VC * (1.0 - math.sqrt(2.0 * target / (RN + target)))
        s = circular_state()
        post = apply_shock(s, [0.0, -dv_mag, 0.0])
        arc = arc_from_state(post)
        assert_allclose(arc.a, (RN + target) / 2.0, rtol=1e-12)
        assert_allclose(arc.a * (1.0 - arc.e), target, rtol=1e-9)

    def test_radial_burn_sets_sigma(self):
        dv_mag = 0.05
        post = apply_shock(circular_state(), [dv_mag, 0.0, 0.0])
        arc = arc_from_state(post)
        assert_allclose(arc.sigma0, RN * dv_mag / math.sqrt(MU_EARTH),
                        rtol=1e-12)

    def test_unbound_rejected(self):
        s = circular_state()
        esc = math.sqrt(2.0 * MU_EARTH / RN)
        with pytest.raises(UnboundResult, match="^shock 0: post-shock state "
                           "is unbound"):
            apply_shock(s, [0.0, esc - VC + 0.01, 0.0])

    def test_below_floor_rejected(self):
        low = StateVector([6400.0, 0.0, 0.0],
                          [0.0, math.sqrt(MU_EARTH / 6400.0), 0.0], 0.0)
        with pytest.raises(SurfaceViolation, match="^shock 0: state radius"):
            apply_shock(low, np.zeros(3))

    def test_radius_below_the_floor_by_an_ulp_is_refused_as_the_shock(self):
        """A post-shock radius is measured once, by kepler._row_norm. A
        position whose np.linalg.norm is the floor radius and whose
        _row_norm is one ulp below it passed the shock's floor test and
        failed its own segment's, which then named the segment."""
        gen = np.random.default_rng(3)
        for u in gen.normal(size=(1000, 3)):
            r = 7000.0 * u / np.linalg.norm(u)
            if float(_row_norm(r)) < float(np.linalg.norm(r)):
                break
        else:
            raise AssertionError("no position whose two norms differ")
        floor = float(np.linalg.norm(r)) - EARTH_RADIUS_KM
        assert EARTH_RADIUS_KM + floor == float(np.linalg.norm(r))
        # at perigee, so the segment's lowest radius is its start's
        v = np.cross(r, gen.normal(size=3))
        v *= 1.001 * math.sqrt(MU_EARTH / 7000.0) / np.linalg.norm(v)
        with pytest.raises(SurfaceViolation, match=(
                f"^shock 0: state radius {float(_row_norm(r))!r} km is below "
                f"the floor radius {EARTH_RADIUS_KM + floor!r} km$")):
            apply_shock(StateVector(r, v, 0.0), np.zeros(3), floor)


def norm_sum(sched: ImpulsiveSchedule) -> float:
    """kepler._row_norm of each shock, added in shock order."""
    return float(sum(float(_row_norm(dv)) for dv in sched.shocks))


class TestScheduleValidation:
    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            ImpulsiveSchedule([10.0, 5.0], [[0.01, 0, 0], [0.01, 0, 0]])

    def test_total_dv(self):
        sched = ImpulsiveSchedule([10.0, 20.0],
                                  [[0.03, 0.0, 0.0], [0.0, 0.04, 0.0]])
        assert_allclose(sched.total_dv, 0.07, rtol=1e-15)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_shock_epoch(self, t):
        with pytest.raises(ValueError, match="shock epoch must be finite"):
            ImpulsiveSchedule([t], [[0.01, 0.0, 0.0]])

    @pytest.mark.parametrize("times, shocks", [
        ([1.0], [0.01, 0.0, 0.0]),
        ([1.0, 2.0], [[0.01, 0.0, 0.0]]),
        ([1.0], [[0.01, 0.0]]),
        ([[1.0]], [[0.01, 0.0, 0.0]]),
        ([], [[0.01, 0.0, 0.0]]),
    ], ids=["flat_row", "row_missing", "two_components", "times_2d",
            "no_epochs"])
    def test_rejects_shapes(self, times, shocks):
        with pytest.raises(ValueError, match="^need one 3-component dv row "
                           "per epoch"):
            ImpulsiveSchedule(times, shocks)

    def test_default_is_empty(self):
        sched = ImpulsiveSchedule()
        assert sched.times.shape == (0,) and sched.shocks.shape == (0, 3)
        assert sched == ImpulsiveSchedule([], [])
        assert sched.total_dv == 0.0

    def test_arrays_are_read_only_copies(self):
        times, dvs = np.array([1.0, 2.0]), np.ones((2, 3))
        sched = ImpulsiveSchedule(times, dvs)
        times[0], dvs[0, 0] = 5.0, 5.0
        assert sched.times[0] == 1.0 and sched.shocks[0, 0] == 1.0
        with pytest.raises(ValueError):
            sched.shocks[0, 0] = 2.0

    def test_equality_is_by_value(self):
        a = ImpulsiveSchedule([1.0, 2.0], [[0.0, 0.01, 0.0], [0.0, 0.0, 0.02]])
        assert a == ImpulsiveSchedule((1.0, 2.0), a.shocks.tolist())
        assert a != ImpulsiveSchedule([1.0, 2.0],
                                      [[0.0, 0.01, 0.0], [0.0, 0.0, 0.03]])
        assert a != ImpulsiveSchedule([1.0, 3.0], a.shocks)
        assert a != ImpulsiveSchedule([1.0], a.shocks[:1])

    @given(st.lists(st.tuples(st.floats(-1e9, 1e9),
                              st.lists(st.floats(-1e3, 1e3), min_size=3,
                                       max_size=3)),
                    max_size=40, unique_by=lambda shock: shock[0]))
    def test_total_dv_is_the_shock_order_norm_sum(self, drawn):
        """Bit for bit the sum of kepler._row_norm per shock, in order."""
        drawn.sort()
        sched = ImpulsiveSchedule([t for t, _ in drawn],
                                  [dv for _, dv in drawn])
        assert sched.total_dv == norm_sum(sched)

    @given(times=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=30,
                          unique=True),
           dvs=st.data(), flaw=st.sampled_from(
               [None, "swap", math.nan, math.inf, -math.inf]),
           at=st.integers(0, 10**6), epoch=st.booleans())
    def test_accepts_ordered_finite_rows_refuses_a_flaw_by_index(
            self, times, dvs, flaw, at, epoch):
        """Finite, strictly increasing epochs with finite rows are kept
        as given; a swapped pair, or a nan or inf epoch or component, is
        refused with the index of the shock it makes invalid."""
        times.sort()
        rows = dvs.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                          max_size=3),
                                 min_size=len(times), max_size=len(times)))
        if flaw is None:
            sched = ImpulsiveSchedule(times, rows)
            assert sched.times.tolist() == times
            assert sched.shocks.tolist() == rows
            return
        if flaw == "swap":
            if len(times) < 2:
                return
            i = 1 + at % (len(times) - 1)
            times[i - 1], times[i] = times[i], times[i - 1]
            error = maneuver.ShockOrderError
        else:
            i = at % len(times)
            if epoch:
                times[i] = flaw
            else:
                rows[i][at % 3] = flaw
            error = maneuver.ShockError
        with pytest.raises(error) as info:
            ImpulsiveSchedule(times, rows)
        assert info.value.index == i


class TestPropagateSchedule:
    def test_empty_schedule_is_ballistic(self):
        s = circular_state()
        sched = ImpulsiveSchedule()
        traj = propagate_schedule(s, sched, 3000.0)
        assert len(traj.arcs) == 1
        expected = propagate_time(s, 3000.0)
        got = traj.state_at(3000.0)
        assert_allclose(got.r, expected.r, rtol=1e-12)
        assert_allclose(got.v, expected.v, rtol=1e-12)

    def test_shock_at_origin_epoch(self):
        """One shock at t0 composes the velocity jump with plain
        propagation."""
        s = circular_state()
        dv = np.array([0.01, 0.02, 0.0])
        sched = ImpulsiveSchedule([0.0], [dv])
        traj = propagate_schedule(s, sched, 2000.0)
        expected = propagate_time(StateVector(s.r, s.v + dv, s.t), 2000.0)
        got = traj.state_at(2000.0)
        assert_allclose(got.r, expected.r, rtol=1e-12)
        assert_allclose(got.v, expected.v, rtol=1e-12)

    def test_continuity_and_velocity_jumps(self):
        s = circular_state()
        sched = ImpulsiveSchedule([500.0, 1500.0, 2600.0],
                                  rng.normal(0.0, 0.01, (3, 3)))
        traj = propagate_schedule(s, sched, 3000.0)
        assert len(traj.arcs) == 4
        for i, (t, dv) in enumerate(zip(sched.times, sched.shocks)):
            r, v, _ = states_at(traj.arcs, t, [i])
            assert np.array_equal(traj.arcs.r0[i + 1], r[0])
            assert np.array_equal(traj.arcs.v0[i + 1], v[0] + dv)

    def test_frozen_thin_pulse_oracle(self):
        """Endpoint against full numerical integration with 1e-3 s pulses."""
        gen = np.random.default_rng(42)
        times = np.sort(gen.uniform(200.0, 5000.0, 5))
        dvs = gen.normal(0.0, 0.02, (5, 3))
        sched = ImpulsiveSchedule(times, dvs)
        traj = propagate_schedule(circular_state(), sched, 5500.0)
        end = traj.state_at(5500.0)
        oracle_r = np.array([5635.395575033997, -4707.729768629039,
                             31.96951679368622])
        oracle_v = np.array([4.691210799510753, 5.652856945215718,
                             -0.0276438821324464])
        assert float(np.linalg.norm(end.r - oracle_r)) / RN < 1e-5
        assert float(np.linalg.norm(end.v - oracle_v)) / VC < 1e-5

    def test_single_burn_equivalence(self):
        """A burn at the origin reaches any schedule endpoint for no more
        total delta-v, on engagement-scale (sub-half-revolution) windows."""
        satisfied = 0
        unsolved = 0
        trials = 25
        period = 2.0 * math.pi / mean_motion(RN)
        t_end = 0.3 * period
        for _ in range(trials):
            s = circular_state()
            times = np.sort(rng.uniform(10.0, 0.8 * t_end, 3))
            dvs = rng.normal(0.0, 0.008, (3, 3))
            sched = ImpulsiveSchedule(times, dvs)
            traj = propagate_schedule(s, sched, t_end)
            end = traj.state_at(t_end)
            sols = solve_lambert(s.r, end.r, t_end - s.t, max_revs=1)
            if not sols:
                unsolved += 1
                continue
            best = min(float(np.linalg.norm(sol.v_depart - s.v))
                       for sol in sols)
            assert best <= sched.total_dv + 1e-6
            satisfied += 1
        assert satisfied >= trials * 0.9
        assert unsolved <= trials * 0.1

    def test_floor_violation_reports_segment(self):
        s = circular_state()
        # retrograde burn deep enough to drop perigee below the floor
        sched = ImpulsiveSchedule([100.0], [[0.0, -0.9, 0.0]])
        with pytest.raises(SurfaceViolation):
            propagate_schedule(s, sched, 6000.0)

    def test_rejects_t_end_before_last_shock(self):
        sched = ImpulsiveSchedule([100.0], [[0.01, 0.0, 0.0]])
        with pytest.raises(ValueError):
            propagate_schedule(circular_state(), sched, 50.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_t_end_that_is_not_finite(self, t_end):
        for sched in (ImpulsiveSchedule(),
                      ImpulsiveSchedule([100.0], [[0.01, 0.0, 0.0]])):
            with pytest.raises(ValueError, match="^t_end must be finite"):
                propagate_schedule(circular_state(), sched, t_end)

    def test_state_at_outside_window(self):
        sched = ImpulsiveSchedule()
        traj = propagate_schedule(circular_state(), sched, 100.0)
        with pytest.raises(ValueError):
            traj.state_at(101.0)

    def test_arc_epochs_must_ascend_to_t_end(self):
        sched = ImpulsiveSchedule([100.0], [[0.0, 0.01, 0.0]])
        traj = propagate_schedule(circular_state(), sched, 500.0)
        assert traj.arcs.t0.tolist() == [0.0, 100.0]
        with pytest.raises(ValueError, match="ascend"):
            ImpulsiveTrajectory(arcs=traj.arcs[::-1], t_end=500.0,
                                schedule=sched, origin=traj.origin)
        with pytest.raises(ValueError, match="ascend"):
            ImpulsiveTrajectory(arcs=traj.arcs, t_end=50.0, schedule=sched,
                                origin=traj.origin)
        with pytest.raises(ValueError, match="ascend"):
            ImpulsiveTrajectory(arcs=traj.arcs[:0], t_end=500.0,
                                schedule=sched, origin=traj.origin)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    def test_trajectory_rejects_t_end_that_is_not_finite(self, t_end):
        """A nan t_end passed the ascending check, and every later query
        failed as outside the window [0.0, nan]."""
        sched = ImpulsiveSchedule()
        traj = propagate_schedule(circular_state(), sched, 100.0)
        with pytest.raises(ValueError, match="^t_end must be finite, got "):
            ImpulsiveTrajectory(arcs=traj.arcs, t_end=t_end, schedule=sched,
                                origin=traj.origin)


def random_chain(gen: np.random.Generator):
    """Origin, schedule and end of a random chain from a near-circular
    orbit: a few kicks of tens of m/s, or a finite burn as 8-64 shocks."""
    radius = float(gen.uniform(6900.0, 7400.0))
    speed = math.sqrt(MU_EARTH / radius) * float(gen.uniform(0.98, 1.02))
    spin = random_rotation(gen)
    origin = StateVector(spin @ [radius, 0.0, 0.0], spin @ [0.0, speed, 0.0],
                         float(gen.uniform(-100.0, 100.0)))
    period = 2.0 * math.pi * radius / speed
    t_end = origin.t + float(gen.uniform(0.1, 0.6)) * period
    if gen.random() < 0.5:
        times = np.sort(gen.uniform(origin.t, t_end, int(gen.integers(1, 9))))
        dvs = gen.normal(0.0, 0.02, (len(times), 3))
        return origin, ImpulsiveSchedule(times, dvs), t_end
    axis = spin @ gen.normal(size=3)
    profile = ThrustProfile(
        lambda t: 3e-6 * math.sin((t - origin.t) / 300.0) * axis,
        (origin.t, t_end))
    sched = shock_approximation(profile, int(gen.integers(8, 65)))
    return origin, sched, t_end


def random_rotation(gen: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
    return q


def assert_same_chain(got: ImpulsiveTrajectory, want: ImpulsiveTrajectory):
    """Every arc field and 1000 exported states equal to the bit."""
    for field in ArcBatch.__dataclass_fields__:
        a, b = getattr(got.arcs, field), getattr(want.arcs, field)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field
    times = np.linspace(want.arcs.t0[0], want.t_end, 1000)
    for a, b in zip(got.states(times), want.states(times)):
        assert a.tobytes() == b.tobytes()


def schedule_of(events) -> ImpulsiveSchedule:
    """The schedule of (t, dv) pairs."""
    return ImpulsiveSchedule([t for t, _ in events], [dv for _, dv in events])


def chain_error(propagate, origin, sched, t_end):
    with pytest.raises(FutureConeError) as info:
        propagate(origin, sched, t_end)
    return info.value


class TestChainAgainstReference:
    """propagate_schedule against the chain loop of maneuver_reference."""

    def test_random_chains_bit_identical(self):
        gen = np.random.default_rng(2026)
        for _ in range(30):
            origin, sched, t_end = random_chain(gen)
            assert_same_chain(propagate_schedule(origin, sched, t_end),
                              ref.propagate_schedule(origin, sched, t_end))

    @pytest.mark.parametrize("times", [(), (0.0,), (700.0,)],
                             ids=["empty", "shock_at_origin", "single_shock"])
    def test_short_schedules_bit_identical(self, times):
        s = circular_state()
        sched = ImpulsiveSchedule(times, [[0.01, -0.02, 0.005]] * len(times))
        assert_same_chain(propagate_schedule(s, sched, 2500.0),
                          ref.propagate_schedule(s, sched, 2500.0))

    @given(radius=st.floats(6450.0, 7400.0), speed=st.floats(0.95, 1.45),
           n_shocks=st.integers(0, 40), at_origin=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_schedules_match_reference(self, radius, speed, n_shocks,
                                              at_origin, seed):
        """0-40 shocks in a random frame, the first possibly at the
        origin epoch. One kick in seven is of 0.5, 3 or 12 km/s, the
        rest of 10 m/s, so chains dip below the floor or unbind the
        orbit at any shock: the same arcs to the bit, or the same error
        with the same message, as the chain loop of the reference."""
        gen = np.random.default_rng(seed)
        spin = random_rotation(gen)
        origin = StateVector(
            spin @ [radius, 0.0, 0.0],
            spin @ [0.0, speed * math.sqrt(MU_EARTH / radius), 0.0], 0.0)
        times = np.unique(gen.uniform(1.0, 3999.0, n_shocks))
        if at_origin and n_shocks:
            times[0] = 0.0
        sizes = np.where(gen.random(n_shocks) < 1.0 / 7.0,
                         gen.choice([0.5, 3.0, 12.0], n_shocks), 0.01)
        dvs = sizes[:, None] * gen.normal(size=(n_shocks, 3))
        sched = ImpulsiveSchedule(times, dvs)
        try:
            want = ref.propagate_schedule(origin, sched, 4000.0)
        except FutureConeError as exc:
            got = chain_error(propagate_schedule, origin, sched, 4000.0)
            assert (type(got), str(got)) == (type(exc), str(exc))
        else:
            assert_same_chain(propagate_schedule(origin, sched, 4000.0), want)


LOW = StateVector([6400.0, 0.0, 0.0], [0.0, math.sqrt(MU_EARTH / 6400.0), 0.0],
                  0.0)
ESCAPING = StateVector([RN, 0.0, 0.0], [0.0, 1.05 * math.sqrt(2.0) * VC, 0.0],
                       0.0)


class TestChainErrors:
    """Each refusal names the shock or segment that caused it."""

    @pytest.mark.parametrize("origin, events, t_end, kind, label", [
        (LOW, ((0.0, [0.0, 0.0, 0.0]),), 600.0, SurfaceViolation,
         "shock 0: state radius"),
        (circular_state(), ((100.0, [0.0, 0.01, 0.0]),
                            (500.0, [0.0, 0.0, 20.0])), 900.0,
         UnboundResult, "shock 1: post-shock state is unbound"),
        (circular_state(), ((100.0, [0.0, -0.9, 0.0]),
                            (4000.0, [0.0, 0.01, 0.0])), 6000.0,
         SurfaceViolation, "segment before shock 1: segment dips"),
        (circular_state(), ((100.0, [0.0, -0.9, 0.0]),), 6000.0,
         SurfaceViolation, "final segment: segment dips"),
        (ESCAPING, ((100.0, [0.0, 0.01, 0.0]),), 600.0,
         EccentricityOutOfRange, "segment before shock 0: state 0 is unbound"),
        # positive energy and angular momentum, but so nearly radial that
        # e rounds to 1: not a bound ellipse, so the shock is refused
        (circular_state(), ((0.0, [0.1, 1e-9 - VC, 0.0]),), 600.0,
         UnboundResult, "shock 0: post-shock state is unbound"),
    ], ids=["below_floor_at_shock", "escape_kick", "dip_before_shock",
            "dip_in_final_segment", "unbound_origin", "radial_after_shock"])
    def test_labels_match_reference(self, origin, events, t_end, kind, label):
        sched = schedule_of(events)
        got = chain_error(propagate_schedule, origin, sched, t_end)
        want = chain_error(ref.propagate_schedule, origin, sched, t_end)
        assert type(got) is kind and str(got).startswith(label)
        assert (type(got), str(got)) == (type(want), str(want))

    @pytest.mark.parametrize("kick, kind, label", [
        (0.01, ConvergenceError, "segment before shock 1: stalled"),
        (20.0, UnboundResult, "shock 0: post-shock state is unbound"),
    ], ids=["stall_reported", "earlier_unbinding_shock_first"])
    def test_stalled_flight_after_earlier_checks(self, monkeypatch, kick,
                                                  kind, label):
        """A Kepler solve that fails on the second segment's flight is
        reported, as by the reference, only when no shock or segment
        before it fails."""
        solve = kepler._solve_kepler

        def stall_second_flight(M, e):
            flights.append(len(M) == 1)
            if flights.count(True) == 2:
                raise ConvergenceError("stalled")
            return solve(M, e)

        monkeypatch.setattr(kepler, "_solve_kepler", stall_second_flight)
        sched = ImpulsiveSchedule([100.0, 500.0, 700.0],
                                  [[0.0, 0.0, dv] for dv in (kick, 0.01, 0.01)])
        errors = []
        for propagate in (propagate_schedule, ref.propagate_schedule):
            flights = []
            errors.append(chain_error(propagate, circular_state(), sched,
                                      900.0))
        got, want = errors
        assert type(got) is kind and str(got).startswith(label)
        assert (type(got), str(got)) == (type(want), str(want))


def test_unbound_shock_then_more_shocks_warns_nothing():
    """Flying on past an unbinding shock turns the later states to nan
    quietly; the shock that unbound the orbit is the one named."""
    events = ((100.0, [0.0, 0.01, 0.0]), (500.0, [0.0, 0.0, 20.0]),
              (700.0, [0.0, 0.01, 0.0]), (800.0, [0.01, 0.0, 0.0]))
    sched = schedule_of(events)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(UnboundResult,
                           match="^shock 1: post-shock state is unbound"):
            propagate_schedule(circular_state(), sched, 900.0)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_one_conic_pass_per_segment(monkeypatch):
    """A 256-shock chain derives each segment's conic once, the shock's
    bound check included: one vis-viva pass per arc, not two."""
    period = 2.0 * math.pi / mean_motion(RN)
    profile = ThrustProfile(
        lambda t: 3e-6 * np.array([-math.sin(t / period), math.cos(t / period),
                                   0.1]), (0.0, 0.25 * period))
    sched = shock_approximation(profile, 256)
    passes = []
    pass_once = kepler._ellipse

    def counted(*args):
        passes.append(1)
        return pass_once(*args)

    monkeypatch.setattr(kepler, "_ellipse", counted)
    traj = propagate_schedule(circular_state(), sched, 0.25 * period)
    assert len(traj.arcs) == 257
    assert len(passes) <= len(traj.arcs)


class TestIntegrateThrust:
    def test_zero_thrust_matches_ballistic(self):
        s = circular_state()
        profile = ThrustProfile(lambda t: np.zeros(3), (0.0, 1200.0))
        traj = integrate_thrust(s, profile)
        expected = propagate_time(s, 1200.0)
        end = traj.endpoint
        assert float(np.linalg.norm(end.r - expected.r)) / RN < 1e-8
        assert float(np.linalg.norm(end.v - expected.v)) / VC < 1e-8

    def test_small_radial_thrust_first_order(self):
        """Short window: thrust displaces by a*t^2/2 along the push."""
        s = circular_state()
        a_mag = 1e-6
        window = 60.0
        profile = ThrustProfile(
            lambda t: np.array([a_mag, 0.0, 0.0]), (0.0, window))
        pushed = integrate_thrust(s, profile).endpoint
        coasted = propagate_time(s, window)
        diff = pushed.r - coasted.r
        expected = 0.5 * a_mag * window**2
        assert_allclose(diff[0], expected, rtol=0.02)

    def test_floor_violation_reports_time(self):
        s = circular_state()

        def retro(t):
            v_hat = np.array([0.0, 1.0, 0.0])  # crude, enough to deorbit
            return -4e-3 * v_hat

        profile = ThrustProfile(retro, (0.0, 2000.0))
        with pytest.raises(SurfaceViolation, match="at t="):
            integrate_thrust(s, profile)

    def test_escape_reports_unbound(self):
        s = circular_state()
        profile = ThrustProfile(
            lambda t: np.array([0.0, 5e-3, 0.0]), (0.0, 2000.0))
        with pytest.raises(UnboundResult, match="at t="):
            integrate_thrust(s, profile)

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 0.0),
                                        (0.0, math.nan)])
    def test_profile_window_must_be_finite(self, window):
        """An infinite window doubled its step count up to the cap."""
        with pytest.raises(ValueError, match="^window must be finite"):
            ThrustProfile(lambda t: np.zeros(3), window)

    @pytest.mark.parametrize("accel", [lambda t: 1e-6,
                                       lambda t: np.full(2, 1e-6),
                                       lambda t: np.full((3, 1), 1e-6)],
                             ids=["scalar", "two", "column"])
    def test_rejects_acceleration_that_is_not_3_components(self, accel):
        """A scalar was flown as the same push on every axis."""
        profile = ThrustProfile(accel, (0.0, 600.0))
        with pytest.raises(ValueError, match="^accel must return 3 components"):
            integrate_thrust(circular_state(), profile)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_acceleration_that_is_not_finite(self, bad):
        """nan after t = 50 s doubled the step count to the cap and raised
        WorkCapExceeded "did not settle" after seconds of work."""
        calls = []

        def push(t):
            calls.append(t)
            return np.array([1e-6, 0.0, bad if t > 50.0 else 0.0])

        profile = ThrustProfile(push, (0.0, 600.0))
        with pytest.raises(ValueError, match="^accel must return finite "
                           "components, got "):
            integrate_thrust(circular_state(), profile)
        assert max(calls) - 50.0 <= 600.0 / 64

    def test_epoch_mismatch_rejected(self):
        profile = ThrustProfile(lambda t: np.zeros(3), (10.0, 20.0))
        with pytest.raises(ValueError):
            integrate_thrust(circular_state(t=0.0), profile)

    def test_step_cap(self, monkeypatch):
        """A resolution over _MAX_STEPS raises before it takes a step."""
        s = circular_state()
        calls = []

        def push(t):
            calls.append(t)
            return np.array([1e-6, 0.0, 0.0])

        profile = ThrustProfile(push, (0.0, 600.0))
        steps = integrate_thrust(s, profile).times.size - 1
        monkeypatch.setattr(maneuver, "_MAX_STEPS", steps)
        assert integrate_thrust(s, profile).times.size == steps + 1
        monkeypatch.setattr(maneuver, "_MAX_STEPS", steps // 2)
        calls.clear()
        with pytest.raises(WorkCapExceeded, match="cap"):
            integrate_thrust(s, profile)
        # RK4 takes 4 samples per step; only the resolutions under the cap ran
        assert len(calls) == 4 * (steps - 64)


class TestShockApproximation:
    def test_constant_profile_single_shock(self):
        a_vec = np.array([1e-5, 0.0, 0.0])
        profile = ThrustProfile(lambda t: a_vec, (0.0, 100.0))
        sched = shock_approximation(profile, 1)
        assert sched.times.tolist() == [50.0]
        assert_allclose(sched.shocks, [a_vec * 100.0], rtol=1e-13)

    def test_zero_profile_empty_schedule(self):
        profile = ThrustProfile(lambda t: np.zeros(3), (0.0, 100.0))
        assert shock_approximation(profile, 8) == ImpulsiveSchedule()

    @pytest.mark.parametrize("reduce", [shock_approximation, profile_impulse])
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_subinterval(self, reduce, n):
        """Both callers of the quadrature refuse n < 1 by name, before
        the profile is evaluated."""
        calls = []
        profile = ThrustProfile(lambda t: calls.append(t) or np.ones(3),
                                (0.0, 100.0))
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            reduce(profile, n)
        assert calls == []

    @pytest.mark.parametrize("reduce", [shock_approximation, profile_impulse])
    @pytest.mark.parametrize("n", [3, 4])
    def test_rejects_acceleration_that_is_not_3_components(self, reduce, n):
        """A scalar gave shocks of its integral on every axis (n = 3), a
        broadcast error (n = 4) or an AxisError (profile_impulse)."""
        profile = ThrustProfile(lambda t: 1e-6, (0.0, 100.0))
        with pytest.raises(ValueError, match=r"^accel must return 3 "
                           r"components, got an array of shape \(\)$"):
            reduce(profile, n)

    @pytest.mark.parametrize("reduce", [shock_approximation, profile_impulse])
    def test_rejects_acceleration_whose_shape_changes(self, reduce):
        """3 components before t = 50 s and a scalar after gave numpy's
        inhomogeneous-shape error, which did not name accel."""
        profile = ThrustProfile(lambda t: np.ones(3) if t < 50.0 else 1e-6,
                                (0.0, 100.0))
        with pytest.raises(ValueError, match=r"^accel must return 3 "
                           r"components, got an array of shape \(\)$"):
            reduce(profile, 4)

    @pytest.mark.parametrize("reduce", [shock_approximation, profile_impulse])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_acceleration_that_is_not_finite(self, reduce, bad):
        """A profile that turned nan after t = 50 s gave a nan impulse
        (inf for an inf profile)."""
        profile = ThrustProfile(
            lambda t: np.array([1e-6, 0.0, bad if t > 50.0 else 0.0]),
            (0.0, 100.0))
        with pytest.raises(ValueError, match=r"^accel must return finite "
                           r"components, got \["):
            reduce(profile, 8)

    def test_dv_that_overflows_is_refused_not_dropped(self):
        """A finite acceleration whose integral overflows gives a row
        that is not finite; its norm is not above 0, yet it is refused."""
        profile = ThrustProfile(lambda t: np.array([1e308, -1e308, 0.0]),
                                (0.0, 100.0))
        with pytest.raises(maneuver.ShockError, match="^dv must be finite"):
            shock_approximation(profile, 2)

    def test_total_dv_within_profile_impulse(self):
        profile = ThrustProfile(
            lambda t: np.array([1e-5 * math.sin(t / 30.0), 1e-5, 0.0]),
            (0.0, 300.0))
        sched = shock_approximation(profile, 16)
        assert sched.total_dv <= profile_impulse(profile) + 1e-12

    def test_gap_shrinks_with_refinement(self):
        """The shock chain converges onto the integrated trajectory."""
        s = circular_state()
        profile = ThrustProfile(
            lambda t: 2e-6 * np.array([math.cos(t / 200.0),
                                       math.sin(t / 200.0), 0.3]),
            (0.0, 900.0))
        end_true = integrate_thrust(s, profile).endpoint
        gaps = []
        for n in (4, 16, 64):
            sched = shock_approximation(profile, n)
            traj = propagate_schedule(s, sched, 900.0)
            end = traj.state_at(900.0)
            gaps.append(float(np.linalg.norm(end.r - end_true.r)))
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_rows_whose_norm_underflows_are_dropped(self):
        """A sub-interval's shock is kept iff its magnitude is above 0."""
        profile = ThrustProfile(
            lambda t: np.array([1e-5 if t < 50.0 else 1e-300, 0.0, 0.0]),
            (0.0, 100.0))
        sched = shock_approximation(profile, 4)
        assert sched.times.tolist() == [12.5, 37.5]
        tiny = ThrustProfile(lambda t: np.full(3, 1e-300), (0.0, 100.0))
        assert shock_approximation(tiny, 4) == ImpulsiveSchedule()

    def test_total_dv_is_the_shock_order_norm_sum(self):
        """Bit for bit the sum of kepler._row_norm per shock, in order."""
        profile = ThrustProfile(
            lambda t: np.array([1e-5 * math.sin(t / 30.0), 1e-5, 0.0]),
            (0.0, 300.0))
        sched = shock_approximation(profile, 256)
        assert len(sched.shocks) == 256
        assert sched.total_dv == norm_sum(sched)
