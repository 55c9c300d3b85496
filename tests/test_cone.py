"""Tests for cone sampling, membership, and containment."""
import functools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from futurecone import (
    AmbiguousPlane,
    ConeSpec,
    EARTH_RADIUS_KM,
    EccentricityOutOfRange,
    EmptyOverlap,
    MU_EARTH,
    ImpulsiveSchedule,
    NoBoundArc,
    StateVector,
    containment,
    leaf,
    membership,
    propagate_schedule,
    propagate_time,
    reduce_to_single_burn,
    sample_cone,
)
from futurecone import lambert
from futurecone.cone import _required_dv
from futurecone.errors import EmptyCone
from futurecone.kepler import (
    _positions_at,
    _row_norm,
    arc_min_radius,
    arcs_from_states,
    coast,
    states_at,
)
from futurecone.lambert import lambert_batch
from futurecone.maneuver import ImpulsiveTrajectory
from futurecone.scenario_io import builtin_scenario, load_scenario

from kepler_reference import mean_motion

rng = np.random.default_rng(11)

RN = 7238.137
VC = math.sqrt(MU_EARTH / RN)


def circular_state(t: float = 0.0) -> StateVector:
    return StateVector([RN, 0.0, 0.0], [0.0, VC, 0.0], t)


def leo_spec(budget: float = 0.05, window=(60.0, 600.0)) -> ConeSpec:
    return ConeSpec(vertex=circular_state(), budget=budget, window=window)


class TestConeSpec:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ConeSpec(vertex=circular_state(), budget=0.1, window=(100.0, 50.0))
        with pytest.raises(ValueError):
            ConeSpec(vertex=circular_state(t=200.0), budget=0.1,
                     window=(100.0, 500.0))

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ConeSpec(vertex=circular_state(), budget=-0.1,
                     window=(60.0, 600.0))

    @pytest.mark.parametrize("field, value", [
        ("budget", math.nan), ("budget", math.inf),
        ("floor", math.nan), ("floor", math.inf), ("floor", -math.inf),
        ("mu", math.nan), ("mu", math.inf), ("mu", -MU_EARTH), ("mu", 0.0),
        ("window", (425.0, math.inf)), ("window", (math.nan, 500.0)),
        ("window", (100.0, math.nan)),
    ])
    def test_rejects_numbers_that_are_not_finite_or_out_of_range(
            self, field, value):
        spec = dict(vertex=circular_state(), budget=0.1, window=(60.0, 600.0))
        spec[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ConeSpec(**spec)

    def test_rejects_vertex_below_floor(self):
        low = StateVector([6400.0, 0.0, 0.0], [0.0, 7.9, 0.0], 0.0)
        with pytest.raises(ValueError):
            ConeSpec(vertex=low, budget=0.1, window=(60.0, 600.0))


class TestSampleCone:
    def test_deterministic_for_seed(self):
        spec = leo_spec()
        a = sample_cone(spec, 50, seed=4)
        b = sample_cone(spec, 50, seed=4)
        assert len(a.trajectories) == len(b.trajectories)
        assert np.array_equal(a.trajectories.v0, b.trajectories.v0)

    def test_budget_zero_degenerates_to_ballistic(self):
        spec = leo_spec(budget=0.0)
        sset = sample_cone(spec, 20, seed=1)
        expected = propagate_time(circular_state(), 300.0)
        for got in states_at(sset.trajectories, 300.0)[0]:
            assert_allclose(got, expected.r, rtol=1e-12)

    @pytest.mark.parametrize("v", [(1.0, 1e-12, 0.0), (1.0, 0.0, 0.0)],
                             ids=["nearly_radial", "radial"])
    def test_radial_vertex_is_empty_cone(self, v):
        """A vertex whose e rounds to 1 has no bound arc to sample."""
        spec = ConeSpec(vertex=StateVector([7000.0, 0.0, 0.0], v, 0.0),
                        budget=0.0, window=(0.0, 100.0))
        with pytest.raises(EmptyCone):
            sample_cone(spec, 4, seed=0)

    def test_burns_within_budget(self):
        spec = leo_spec(budget=0.03)
        sset = sample_cone(spec, 200, seed=9)
        for v in sset.trajectories.v0:
            dv = v - spec.vertex.v
            assert float(np.linalg.norm(dv)) <= 0.03 + 1e-15

    def test_rejects_a_negative_seed(self):
        """Named as seed, by sample_cone and so by containment."""
        spec = leo_spec()
        message = "^seed must be nonnegative, got -1$"
        with pytest.raises(ValueError, match=message):
            sample_cone(spec, 4, seed=-1)
        with pytest.raises(ValueError, match=message):
            containment(spec, spec, n_target_samples=4, time_grid=2, seed=-1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_draw(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            sample_cone(leo_spec(), n, seed=0)

    def test_rejects_empty_time_grid(self):
        """containment refuses its grid before it samples the target."""
        spec = leo_spec()
        with pytest.raises(ValueError, match="^time_grid must be >= 1"):
            containment(spec, spec, n_target_samples=10, time_grid=0)
        with pytest.raises(ValueError, match="^time_grid must be >= 1"):
            containment(spec, spec, n_target_samples=0, time_grid=0)


class TestLeaf:
    def test_vertex_leaf_is_singleton(self):
        spec = leo_spec()
        sset = sample_cone(spec, 100, seed=3)
        cloud = leaf(sset, spec.vertex.t)
        assert cloud.shape == (100, 3)
        assert len(np.unique(cloud, axis=0)) == 1
        assert_allclose(cloud[0], spec.vertex.r, rtol=0, atol=0)

    def test_budget_zero_leaf_is_singleton(self):
        spec = leo_spec(budget=0.0)
        sset = sample_cone(spec, 20, seed=5)
        cloud = leaf(sset, 400.0)
        assert len(np.unique(np.round(cloud, 9), axis=0)) == 1

    def test_leaf_radius_grows_linearly(self):
        """Leaf diameter tracks dv * elapsed while dispersion is small."""
        budget = 0.01
        spec = leo_spec(budget=budget, window=(0.1, 500.0))
        sset = sample_cone(spec, 400, seed=6)
        for elapsed in (150.0, 300.0):
            cloud = leaf(sset, elapsed)
            center = cloud.mean(axis=0)
            radius = float(np.max(np.linalg.norm(cloud - center, axis=1)))
            # linearized relative motion: offsets scale like dv * t,
            # modulated by orbital shear within a factor of ~2
            assert radius > 0.5 * budget * elapsed
            assert radius < 2.5 * budget * elapsed

    def test_leaf_and_containment_place_an_arc_alike(self):
        """leaf queries every arc, containment gathers rows: both fly
        each arc exactly as its own epoch state flies."""
        spec = builtin_scenario("fy1c").target
        arcs = sample_cone(spec, 2000, seed=0).trajectories
        assert all(a.flags.c_contiguous for a in (arcs.r0, arcs.v0, arcs.t0))
        rows = np.arange(len(arcs))
        for t in (spec.window[0], spec.window[1]):
            every, _, _ = states_at(arcs, t)
            gathered, _, _ = states_at(arcs, t, rows)
            own, _, _ = coast(arcs.r0[rows], arcs.v0[rows], arcs.t0[rows], t)
            assert np.array_equal(every, gathered)
            assert np.array_equal(every, own)

    def test_rejects_time_outside_window(self):
        spec = leo_spec(window=(60.0, 600.0))
        sset = sample_cone(spec, 10, seed=7)
        with pytest.raises(ValueError):
            leaf(sset, 601.0)
        with pytest.raises(ValueError):
            leaf(sset, -1.0)


LEO_MULTIREV = (Path(__file__).resolve().parents[1] / "perfbench"
                / "scenarios" / "leo_multirev.cone")


@functools.cache
def engagement(name: str):
    """The interceptor and target of a workload's scenario."""
    scn = (builtin_scenario("fy1c") if name == "fy1c"
           else load_scenario(LEO_MULTIREV))
    return scn.interceptor, scn.target


class TestPositionStep:
    """containment and leaf read positions alone, from the position half
    of the Lagrange step: the positions of states_at, bit for bit."""

    @given(st.sampled_from(["fy1c", "leo_multirev"]), st.integers(0, 2**32),
           st.integers(1, 60), st.integers(1, 8), st.data())
    @example("leo_multirev", 0, 7, 3, None)
    def test_gathered_rows_match_states_at(self, name, seed, n, grid, data):
        """Rows gathered as containment gathers them (draws within a
        grid time), over the overlap grid and the arcs' own epoch."""
        interceptor, target = engagement(name)
        arcs = sample_cone(target, n, seed).trajectories
        lo = max(interceptor.window[0], target.window[0])
        hi = min(interceptor.window[1], target.window[1])
        times = np.append(target.vertex.t, np.linspace(lo, hi, grid))
        total = times.size * len(arcs)
        start, stop = 0, total
        if data is not None:
            start = data.draw(st.integers(0, total - 1))
            stop = data.draw(st.integers(start + 1, total))
        flat = np.arange(start, stop)
        t, rows = times[flat // len(arcs)], flat % len(arcs)
        got = _positions_at(arcs, t, rows)
        assert got.tobytes() == states_at(arcs, t, rows)[0].tobytes()
        at_epoch = t == target.vertex.t
        assert np.array_equal(got[at_epoch], arcs.r0[rows[at_epoch]])
        for one in (times[0], times[-1]):
            assert (_positions_at(arcs, one).tobytes()
                    == states_at(arcs, one)[0].tobytes())


class TestMembership:
    def test_coasting_point_costs_nothing(self):
        spec = leo_spec(budget=0.0)
        ballistic = propagate_time(spec.vertex, 300.0)
        result = membership(spec, ballistic.r, 300.0)
        assert result.member
        assert result.required_dv < 1e-9
        assert result.margin == spec.budget - result.required_dv

    def test_sampled_point_is_member(self):
        """Constructive self-consistency: sampled cone points pass."""
        spec = leo_spec(budget=0.05)
        sset = sample_cone(spec, 30, seed=8)
        for point in states_at(sset.trajectories[:10], 400.0)[0]:
            result = membership(spec, point, 400.0)
            assert result.member
            assert result.margin >= 0.0

    def test_far_point_is_not_member(self):
        spec = leo_spec(budget=0.05, window=(30.0, 600.0))
        # quarter-circumference away in 60 s: far outside any 50 m/s cone
        far = np.array([0.0, float(np.linalg.norm(spec.vertex.r)), 0.0])
        result = membership(spec, far, 60.0)
        assert not result.member
        ballistic = propagate_time(spec.vertex, 60.0)
        gap = float(np.linalg.norm(far - ballistic.r))
        assert result.required_dv == math.inf or \
            result.required_dv > 0.1 * gap / 60.0

    def test_margin_consistency(self):
        spec = leo_spec(budget=0.02)
        point = propagate_time(spec.vertex, 200.0).r + np.array([5.0, 0, 0])
        result = membership(spec, point, 200.0)
        assert result.margin == spec.budget - result.required_dv
        assert result.member == (result.margin >= 0.0)

    def test_budget_monotonicity(self):
        point = propagate_time(circular_state(), 300.0).r + np.array(
            [8.0, -3.0, 2.0])
        margins = []
        for budget in (0.01, 0.05, 0.2):
            result = membership(leo_spec(budget=budget), point, 300.0)
            margins.append(result.margin)
        assert margins[0] < margins[1] < margins[2]

    def test_rejects_time_outside_window(self):
        spec = leo_spec(window=(60.0, 600.0))
        with pytest.raises(ValueError):
            membership(spec, [7000.0, 0.0, 0.0], 30.0)
        with pytest.raises(ValueError):
            membership(spec, [7000.0, 0.0, 0.0], 700.0)

    def test_rejects_point_that_is_not_a_position(self):
        spec = leo_spec()
        with pytest.raises(ValueError, match="^point must have 3 components"):
            membership(spec, [7000.0, 0.0, 0.0, 0.0, 7.5, 0.0], 300.0)
        with pytest.raises(ValueError, match="^point must be finite"):
            membership(spec, [7000.0, math.nan, 0.0], 300.0)


class TestContainment:
    def test_cone_contains_itself(self):
        spec = leo_spec(budget=0.02, window=(60.0, 400.0))
        report = containment(spec, spec, n_target_samples=60, time_grid=9,
                             seed=12)
        assert report.contained
        assert report.fraction_contained == 1.0
        assert report.worst_margin >= 0.0

    def test_bigger_target_budget_breaks_containment(self):
        vertex = circular_state()
        interceptor = ConeSpec(vertex=vertex, budget=0.01,
                               window=(60.0, 400.0))
        target = ConeSpec(vertex=vertex, budget=0.1, window=(60.0, 400.0))
        report = containment(interceptor, target, n_target_samples=200,
                             time_grid=9, seed=13)
        assert not report.contained
        assert report.fraction_contained < 1.0
        assert report.worst_margin < 0.0

    def test_disjoint_windows_rejected(self):
        vertex = circular_state()
        a = ConeSpec(vertex=vertex, budget=0.05, window=(60.0, 100.0))
        b = ConeSpec(vertex=vertex, budget=0.05, window=(200.0, 300.0))
        with pytest.raises(EmptyOverlap):
            containment(a, b, n_target_samples=10, time_grid=5, seed=0)

    def test_grid_at_the_interceptor_vertex_leaves_nothing_to_test(self):
        """The overlap opens at the interceptor's vertex epoch, where
        membership is undefined, and a one-point grid stands there."""
        interceptor = ConeSpec(vertex=circular_state(100.0), budget=0.05,
                               window=(100.0, 400.0))
        target = leo_spec(window=(60.0, 400.0))
        with pytest.raises(EmptyCone, match="^no testable target points"):
            containment(interceptor, target, n_target_samples=10,
                        time_grid=1)

    def test_deterministic_reports(self):
        spec = leo_spec(budget=0.02, window=(60.0, 400.0))
        r1 = containment(spec, spec, n_target_samples=40, time_grid=7, seed=3)
        r2 = containment(spec, spec, n_target_samples=40, time_grid=7, seed=3)
        assert r1.fraction_contained == r2.fraction_contained
        assert r1.worst_margin == r2.worst_margin
        assert np.array_equal(r1.worst_point[0], r2.worst_point[0])
        assert r1.worst_point[1] == r2.worst_point[1]
        assert r1.samples == r2.samples

    def test_chunk_size_does_not_change_report(self, monkeypatch):
        """Chunks split the (time, draw) order without reordering it."""
        import futurecone.cone as cone_module

        interceptor = leo_spec(budget=0.01, window=(60.0, 400.0))
        target = leo_spec(budget=0.03, window=(60.0, 400.0))
        whole = containment(interceptor, target, n_target_samples=40,
                            time_grid=7, seed=5)
        monkeypatch.setattr(cone_module, "_CHUNK_POINTS", 9)
        chunked = containment(interceptor, target, n_target_samples=40,
                              time_grid=7, seed=5)
        assert not whole.contained
        assert chunked.fraction_contained == whole.fraction_contained
        assert chunked.worst_margin == whole.worst_margin
        assert np.array_equal(chunked.worst_point[0], whole.worst_point[0])
        assert chunked.worst_point[1] == whole.worst_point[1]
        assert chunked.samples == whole.samples

    def test_worst_point_consistent_with_membership(self):
        spec = leo_spec(budget=0.02, window=(60.0, 400.0))
        report = containment(spec, spec, n_target_samples=40, time_grid=7,
                             seed=3)
        point, t = report.worst_point
        check = membership(spec, point, t)
        assert_allclose(check.margin, report.worst_margin, rtol=0, atol=1e-12)

    def test_intercept_witness_repropagates(self):
        """Membership's cheapest arc really arrives at the tested point."""
        from futurecone import solve_lambert

        spec = leo_spec(budget=0.05, window=(60.0, 500.0))
        sset = sample_cone(spec, 10, seed=21)
        t = 350.0
        point = states_at(sset.trajectories, t, [4])[0][0]
        result = membership(spec, point, t)
        assert result.member
        sols = solve_lambert(spec.vertex.r, point, t - spec.vertex.t,
                             spec.mu, 1)
        best = min(sols,
                   key=lambda s: float(np.linalg.norm(s.v_depart
                                                      - spec.vertex.v)))
        arrived = propagate_time(
            StateVector(spec.vertex.r, best.v_depart, spec.vertex.t),
            t - spec.vertex.t)
        assert float(np.linalg.norm(arrived.r - point)) < 1e-5 * RN


def leo_vertex(radius: float, speed_ratio: float,
               inclination: float) -> StateVector:
    """Vertex at radius on the x axis; speed_ratio times circular speed."""
    speed = speed_ratio * math.sqrt(MU_EARTH / radius)
    return StateVector([radius, 0.0, 0.0],
                       [0.0, speed * math.cos(inclination),
                        speed * math.sin(inclination)], 0.0)


# LEO vertices from just above the 90 km floor (radius 6461 km) up, a
# little off circular either way, so that long-way and multi-revolution
# arcs often dip below the floor and are rejected.
vertices = st.builds(leo_vertex,
                     st.floats(6480.0, 7400.0),
                     st.floats(0.96, 1.04),
                     st.floats(0.0, math.pi))
# Target points: the vertex after a burn of up to 0.3 km/s per axis and a
# coast of up to two revolutions, moved by up to 150 km per axis.
burns = st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                  st.floats(-0.3, 0.3))
offsets = st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0),
                    st.floats(-150.0, 150.0))
targets = st.lists(st.tuples(burns, st.floats(0.02, 2.0), offsets),
                   min_size=1, max_size=6)


def target_points(vertex: StateVector, drawn):
    """Positions and times of drawn (burn, revolutions, offset) targets."""
    period = 2.0 * math.pi * math.sqrt(
        float(np.linalg.norm(vertex.r)) ** 3 / MU_EARTH)
    points, times = [], []
    for burn, revs, offset in drawn:
        kicked = StateVector(vertex.r, vertex.v + np.array(burn), vertex.t)
        t = revs * period
        try:
            r = propagate_time(kicked, t).r
        except EccentricityOutOfRange:
            r = vertex.r  # an unbound kick: aim back at the vertex instead
        points.append(r + np.array(offset))
        times.append(t)
    return np.array(points), np.array(times), period


class TestBatchedKernel:
    @given(vertices, st.floats(0.0, 0.5), st.integers(0, 2), targets)
    @example(leo_vertex(6480.0, 1.0, 0.9), 0.4, 2,
             [((0.0, 0.2, 0.0), 1.3, (0.0, 0.0, 0.0)),
              ((0.0, -0.2, 0.1), 1.8, (40.0, 0.0, -20.0))])
    def test_batch_matches_batch_of_one(self, vertex, budget, max_revs,
                                        drawn):
        """Containment's kernel and membership agree point by point."""
        points, times, period = target_points(vertex, drawn)
        spec = ConeSpec(vertex=vertex, budget=budget,
                        window=(0.0, 2.0 * period))
        singles = []
        for point, t in zip(points, times):
            try:
                singles.append(membership(spec, point, float(t), max_revs))
            except AmbiguousPlane:
                with pytest.raises(AmbiguousPlane):
                    _required_dv(spec, points, times, max_revs)
                return
        required, checked = _required_dv(spec, points, times, max_revs)
        for single, dv, n in zip(singles, required, checked):
            assert single.solutions_checked == n
            assert single.member == (dv <= budget + 1e-12)
            if math.isinf(single.required_dv):
                assert math.isinf(dv)
            else:
                assert abs(single.required_dv - dv) <= 1e-12

    def test_floor_rejects_arcs(self):
        """The example above keeps arcs only above the floor."""
        vertex = leo_vertex(6480.0, 1.0, 0.9)
        points, times, period = target_points(
            vertex, [((0.0, -0.2, 0.1), 1.8, (40.0, 0.0, -20.0))])
        spec = ConeSpec(vertex=vertex, budget=0.4,
                        window=(0.0, 2.0 * period))
        no_floor = replace(spec, floor=-EARTH_RADIUS_KM)
        floored, _ = _required_dv(spec, points, times, 2)
        unfloored, _ = _required_dv(no_floor, points, times, 2)
        assert floored[0] > unfloored[0]

    @given(vertices, st.floats(0.0, 0.99), st.integers(0, 2), targets)
    @example(leo_vertex(6480.0, 1.0, 0.9), 0.99, 2,
             [((0.0, 0.2, 0.0), 1.3, (0.0, 0.0, 0.0)),
              ((0.0, -0.2, 0.1), 1.8, (40.0, 0.0, -20.0)),
              ((0.0, 0.0, 0.0), 0.02, (-3000.0, 3000.0, 0.0))])
    def test_cheapest_arc_matches_the_slot_matrix(self, vertex, height,
                                                  max_revs, drawn):
        """The least cost over each row's arcs equals the least of a
        (points x slots) matrix filled with +inf, bit for bit. Floors
        up to 99% of the vertex altitude reject arcs; in the example the
        second point's ten arcs all dip below the floor and the third
        has none."""
        points, times, period = target_points(vertex, drawn)
        altitude = float(np.linalg.norm(vertex.r)) - EARTH_RADIUS_KM
        spec = ConeSpec(vertex=vertex, budget=0.1, floor=height * altitude,
                        window=(0.0, 2.0 * period))
        try:
            sols = lambert_batch(vertex.r, points, times, MU_EARTH, max_revs)
        except AmbiguousPlane:
            return
        lowest = arc_min_radius(vertex.r, sols.v_depart, points[sols.row],
                                sols.v_arrive, sols.revs[sols.slot])
        ok = lowest >= EARTH_RADIUS_KM + spec.floor
        matrix = np.full((len(points), sols.revs.size), np.inf)
        matrix[sols.row[ok], sols.slot[ok]] = np.linalg.norm(
            sols.v_depart[ok] - vertex.v, axis=-1)
        required, checked = _required_dv(spec, points, times, max_revs)
        assert np.array_equal(required, matrix.min(axis=1))
        assert np.array_equal(checked,
                              np.bincount(sols.row, minlength=len(points)))

    @given(st.builds(leo_vertex, st.floats(6600.0, 7400.0),
                     st.floats(0.99, 1.03), st.floats(0.0, math.pi)),
           st.floats(0.0, 0.05), st.floats(0.0, 0.3), st.floats(0.001, 0.03),
           st.integers(0, 2), st.integers(0, 1000))
    def test_more_budget_never_breaks_containment(self, vertex, budget,
                                                  extra, target_budget,
                                                  max_revs, seed):
        target = ConeSpec(vertex=vertex, budget=target_budget,
                          window=(300.0, 3000.0))
        interceptor = ConeSpec(vertex=vertex, budget=budget,
                               window=(100.0, 4000.0))
        richer = replace(interceptor, budget=budget + extra)
        low = containment(interceptor, target, n_target_samples=12,
                          time_grid=4, seed=seed, max_revs=max_revs)
        high = containment(richer, target, n_target_samples=12,
                           time_grid=4, seed=seed, max_revs=max_revs)
        assert high.samples == low.samples
        assert high.fraction_contained >= low.fraction_contained
        assert high.contained or not low.contained


def test_antipodal_point_is_ambiguous():
    """A target point opposite the vertex has no transfer plane; the
    error names the query time."""
    interceptor = ConeSpec(vertex=circular_state(), budget=0.1,
                           window=(60.0, 900.0))
    # a coasting target that reaches (-RN2, 0, 0) at t = 425 s
    rn2 = 7000.0
    rate = math.sqrt(MU_EARTH / rn2**3)
    phase = math.pi - rate * 425.0
    speed = math.sqrt(MU_EARTH / rn2)
    target = ConeSpec(
        vertex=StateVector([rn2 * math.cos(phase), rn2 * math.sin(phase), 0.0],
                           [-speed * math.sin(phase),
                            speed * math.cos(phase), 0.0], 0.0),
        budget=0.0, window=(425.0, 475.0))
    with pytest.raises(AmbiguousPlane,
                       match=re.escape("membership query at t=425.0")):
        containment(interceptor, target, n_target_samples=5, time_grid=3)


class TestReduceToSingleBurn:
    def test_single_shock_at_origin_recovered(self):
        s = circular_state()
        dv = np.array([0.01, -0.015, 0.004])
        sched = ImpulsiveSchedule([0.0], [dv])
        traj = propagate_schedule(s, sched, 900.0)
        dv0 = reduce_to_single_burn(traj)
        assert_allclose(dv0, dv, rtol=0, atol=1e-9)

    def test_opposing_shocks_cost_less_merged(self):
        """A burn undone shortly after merges to nearly nothing."""
        s = circular_state()
        dv = np.array([0.0, 0.02, 0.0])
        sched = ImpulsiveSchedule([100.0, 160.0], [dv, -dv])
        traj = propagate_schedule(s, sched, 600.0)
        dv0 = reduce_to_single_burn(traj)
        assert float(np.linalg.norm(dv0)) < sched.total_dv

    def test_random_schedule_inequality(self):
        period = 2.0 * math.pi / mean_motion(RN)
        t_end = 0.3 * period
        for _ in range(10):
            s = circular_state()
            times = np.sort(rng.uniform(10.0, 0.8 * t_end, 4))
            dvs = rng.normal(0.0, 0.006, (4, 3))
            sched = ImpulsiveSchedule(times, dvs)
            traj = propagate_schedule(s, sched, t_end)
            dv0 = reduce_to_single_burn(traj)
            assert float(np.linalg.norm(dv0)) <= sched.total_dv + 1e-6

    @pytest.mark.parametrize("fraction, cheapest", [
        (0.3, "0.010514617782652736"), (0.4, "0.017012973654808743")])
    def test_late_shock_outreaches_vertex_burns(self, fraction, cheapest):
        """The single-burn equivalence fails past a quarter period: one
        out-of-plane shock a quarter period before the end, on a 700 km
        circular orbit, reaches an endpoint that the cheapest vertex burn
        reaches only for about 1/sin(n t_end) times the shock."""
        r = EARTH_RADIUS_KM + 700.0
        period = 2.0 * math.pi * math.sqrt(r ** 3 / MU_EARTH)
        t_end = fraction * period
        s = StateVector([r, 0.0, 0.0], [0.0, math.sqrt(MU_EARTH / r), 0.0],
                        0.0)
        sched = ImpulsiveSchedule([t_end - period / 4.0], [[0.0, 0.0, 0.01]])
        traj = propagate_schedule(s, sched, t_end)
        with pytest.raises(NoBoundArc, match=(
                f"^cheapest single burn {cheapest} km/s exceeds the "
                r"schedule total 0\.01 km/s at max_revs=1$")):
            reduce_to_single_burn(traj)
        # linear theory: a burn at tau moves the out-of-plane position at
        # t_end by sin(n (t_end - tau)) / n
        assert float(cheapest) == pytest.approx(
            0.01 / math.sin(2.0 * math.pi * fraction), rel=1e-5)

    def test_no_bound_arc_across_the_orbit_in_one_second(self):
        """An endpoint nearly opposite the origin, 1 s away: no bound
        arc connects them, and the refusal says so."""
        origin = circular_state()
        arcs = arcs_from_states([-RN, 0.0, 0.0], [[0.0, -VC, 0.0]], 0.0,
                                MU_EARTH)
        traj = ImpulsiveTrajectory(arcs=arcs, t_end=1.0,
                                   schedule=ImpulsiveSchedule(),
                                   origin=origin)
        with pytest.raises(NoBoundArc, match=(
                r"^no bound arc from origin to endpoint over 1\.0 s at "
                r"max_revs=1$")):
            reduce_to_single_burn(traj)

    def test_certificate_is_membership_of_the_endpoint(self):
        """The burn the certificate names, refused or returned, costs
        exactly membership's required dv for the chain's endpoint, on
        late single-shock chains. A floor radius of 0 admits every arc.
        The first chain's refusal named a burn 1 ulp off membership's
        when the certificate priced its arcs with a norm of its own."""
        chains = [(6726.2804409472865, 1749.351676178549,
                   376.84822561775127, [-0.0066519467348661356,
                                        0.0035151007009301973,
                                        0.009034701816518087])]
        gen = np.random.default_rng(23)
        for _ in range(40):
            r = EARTH_RADIUS_KM + gen.uniform(300.0, 2000.0)
            period = 2.0 * math.pi * math.sqrt(r ** 3 / MU_EARTH)
            t_end = gen.uniform(0.3, 0.45) * period
            chains.append((r, t_end, t_end - period / 4.0,
                           gen.normal(0.0, 0.01, 3)))
        refused = 0
        for r, t_end, t_shock, dv in chains:
            origin = StateVector([r, 0.0, 0.0],
                                 [0.0, math.sqrt(MU_EARTH / r), 0.0], 0.0)
            traj = propagate_schedule(
                origin, ImpulsiveSchedule([t_shock], [dv]), t_end)
            spec = ConeSpec(vertex=origin, budget=0.0,
                            window=(t_end / 2.0, t_end),
                            floor=-EARTH_RADIUS_KM)
            required = membership(spec, traj.state_at(t_end).r,
                                  t_end).required_dv
            try:
                named = float(_row_norm(reduce_to_single_burn(traj)))
            except NoBoundArc as exc:
                refused += 1
                named = float(re.match(r"cheapest single burn (\S+) km/s",
                                       str(exc)).group(1))
            assert named == required, (r, t_end, t_shock, dv)
        assert 0 < refused < len(chains)

    def test_certificate_arc_stays_above_the_chain_floor(self):
        """A low chain that passes its floor checks, whose cheapest
        Lambert arc to the endpoint (0.1546 km/s, under the schedule's
        0.1751 km/s) dips to 6423.96 km, below the 6468.137 km floor:
        the certificate prices arcs as membership does, so it refuses
        with membership's required dv instead of naming that arc."""
        r, t_end = 6478.2041931826125, 3044.5585703740066
        origin = StateVector([r, 0.0, 0.0],
                             [0.0, math.sqrt(MU_EARTH / r), 0.0], 0.0)
        sched = ImpulsiveSchedule(
            [896.972111699592, 2530.968716140158, 2561.8894310450028],
            [[-0.09183728525968399, -0.010238305841693354,
              -0.017612850520561524],
             [0.013254545346516176, -0.02321222958187408,
              -0.023931923152636227],
             [-0.036065787392430236, -0.025987988618508942,
              0.008011335315871216]])
        traj = propagate_schedule(origin, sched, t_end)
        spec = ConeSpec(vertex=origin, budget=sched.total_dv,
                        window=(t_end / 2.0, t_end))
        verdict = membership(spec, traj.state_at(t_end).r, t_end)
        assert not verdict.member
        with pytest.raises(NoBoundArc, match=(
                f"^cheapest single burn {verdict.required_dv!r} km/s "
                f"exceeds the schedule total {sched.total_dv!r} km/s")):
            reduce_to_single_burn(traj)

    def test_no_certificate_when_every_arc_dips(self):
        """A low chain whose every connecting arc at max_revs=1 dips
        below its floor: the refusal says no arc stays above it."""
        r, t_end = 6480.290644496709, 2459.1552022729106
        origin = StateVector([r, 0.0, 0.0],
                             [0.0, math.sqrt(MU_EARTH / r), 0.0], 0.0)
        sched = ImpulsiveSchedule(
            [1045.3313769441888, 1690.885884942259, 2318.092377808802],
            [[-0.017350007954750418, 0.02427815634611327,
              -0.025449871860776067],
             [-0.0810555893323392, -0.015981087833721538,
              0.029722345956660887],
             [-0.03139104159619677, -0.0020940930252944853,
              -0.03874400760019105]])
        traj = propagate_schedule(origin, sched, t_end)
        with pytest.raises(NoBoundArc, match=(
                f"^no bound arc from origin to endpoint over {t_end!r} s "
                r"at max_revs=1 stays above the floor radius 6468\.137 "
                r"km$")):
            reduce_to_single_burn(traj)

    def test_package_paths_build_no_lambert_solution(self, monkeypatch):
        """Containment and the certificate read Lambert arcs as arrays:
        neither builds a per-solution object."""
        def refuse(self):
            raise AssertionError("LambertSolution built")
        monkeypatch.setattr(lambert.LambertSolution, "__post_init__", refuse)
        scn = builtin_scenario("fy1c")
        report = containment(scn.interceptor, scn.target,
                             n_target_samples=20, time_grid=5)
        assert report.samples > 0
        sched = ImpulsiveSchedule([100.0, 400.0], [[0.0, 0.01, 0.0],
                                                   [0.005, 0.0, 0.002]])
        traj = propagate_schedule(circular_state(), sched, 900.0)
        dv0 = reduce_to_single_burn(traj)
        assert float(_row_norm(dv0)) <= sched.total_dv + 1e-6
        with pytest.raises(AssertionError, match="^LambertSolution built$"):
            lambert.solve_lambert([7000.0, 0.0, 0.0], [0.0, 7000.0, 0.0],
                                  1500.0)

    def test_no_arc_reported(self):
        """A long-horizon geometry outside the rev cap raises, not lies."""
        s = circular_state()
        dv = np.array([0.0, 0.05, 0.0])
        sched = ImpulsiveSchedule([3000.0], [dv])
        period = 2.0 * math.pi / mean_motion(RN)
        traj = propagate_schedule(s, sched, 0.9 * period)
        try:
            dv0 = reduce_to_single_burn(traj)
        except NoBoundArc:
            return  # honest refusal is the contract
        assert float(np.linalg.norm(dv0)) <= sched.total_dv + 1e-6
