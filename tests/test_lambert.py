"""Tests for the two-point boundary-value solver."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from futurecone import (
    AmbiguousPlane,
    MU_EARTH,
    StateVector,
    propagate_time,
    sample_cone,
    solve_lambert,
)
from futurecone import lambert
from futurecone.kepler import _ellipse, coast, is_bound, states_at
from futurecone.lambert import lambert_batch
from futurecone.scenario_io import builtin_scenario

import lambert_reference
from kepler_reference import arc_from_state, mean_motion

rng = np.random.default_rng(1)


def random_rotation(gen=rng) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_bound_state(e_max: float = 0.8, gen=rng) -> StateVector:
    a = gen.uniform(6900.0, 20000.0)
    e = gen.uniform(0.0, e_max)
    f = gen.uniform(-math.pi, math.pi)
    p = a * (1.0 - e * e)
    rn = p / (1.0 + e * math.cos(f))
    rot = random_rotation(gen)
    r_pf = rn * np.array([math.cos(f), math.sin(f), 0.0])
    v_pf = math.sqrt(MU_EARTH / p) * np.array(
        [-math.sin(f), e + math.cos(f), 0.0])
    return StateVector(rot @ r_pf, rot @ v_pf, 0.0)


def landing_miss(r0, v_depart, r1, dt) -> float:
    """Relative arrival miss when re-propagating a departure velocity."""
    s = propagate_time(StateVector(r0, v_depart, 0.0), dt)
    return float(np.linalg.norm(s.r - r1) / np.linalg.norm(r1))


def one_period_later(rn: float) -> np.ndarray:
    """Where a circular orbit from (rn, 0, 0) is a period later, made
    near-coincident on purpose: the start rotated by 1e-9 rad in the
    orbit plane, a chord of 1e-9 * rn. An exact flight of one period
    lands on the start itself, which is ambiguous."""
    return rn * np.array([math.cos(1e-9), math.sin(1e-9), 0.0])


def certify(sol, r0, r1, dt) -> float:
    """Relative arrival miss when re-propagating a solution."""
    return landing_miss(r0, sol.v_depart, r1, dt)


@pytest.fixture(scope="module")
def random_problems():
    """1500 random problems solved in one batch, with every arc's
    relative miss when re-propagated.

    Origins are bound states with e <= 0.5, transfer times 0.05 to 2.5
    periods of the origin's orbit, up to two revolutions.
    """
    gen = np.random.default_rng(20)
    r0, r1, dts = [], [], []
    for _ in range(1500):
        s0 = random_bound_state(e_max=0.5, gen=gen)
        period = 2.0 * math.pi / mean_motion(arc_from_state(s0).a)
        dt = float(gen.uniform(0.05, 2.5)) * period
        r0.append(s0.r)
        r1.append(propagate_time(s0, dt).r)
        dts.append(dt)
    r0, r1, dts = np.array(r0), np.array(r1), np.array(dts)
    batch = lambert_batch(r0, r1, dts, max_revs=2)
    # coast is the kernel propagate_time runs on one row
    landed, _, _ = coast(r0[batch.row], batch.v_depart, 0.0, dts[batch.row])
    miss = (np.linalg.norm(landed - r1[batch.row], axis=1)
            / np.linalg.norm(r1[batch.row], axis=1))
    return r0, r1, dts, batch, miss


class TestCircularQuarterTransfer:
    def test_departure_is_circular_velocity(self):
        rn = 7238.137
        vc = math.sqrt(MU_EARTH / rn)
        s0 = StateVector([rn, 0.0, 0.0], [0.0, vc, 0.0], 0.0)
        period = 2.0 * math.pi / mean_motion(rn)
        s1 = propagate_time(s0, period / 4.0)
        sols = solve_lambert(s0.r, s1.r, period / 4.0)
        best = min(np.linalg.norm(s.v_depart - s0.v) for s in sols)
        assert best / vc < 1e-9


class TestRoundTrip:
    def test_recovers_departure_velocity(self):
        """Propagation oracle: the generating orbit is among solutions."""
        for _ in range(100):
            s0 = random_bound_state()
            arc = arc_from_state(s0)
            period = 2.0 * math.pi / mean_motion(arc.a)
            dt = float(rng.uniform(0.05, 1.8)) * period
            s1 = propagate_time(s0, dt)
            try:
                sols = solve_lambert(s0.r, s1.r, dt, max_revs=2)
            except AmbiguousPlane:
                continue  # random draw landed on a near-pi transfer
            assert sols, f"no solutions for dt={dt}"
            best = min(float(np.linalg.norm(s.v_depart - s0.v)) for s in sols)
            assert best / float(np.linalg.norm(s0.v)) < 1e-6

    def test_solutions_self_certify(self):
        for _ in range(30):
            s0 = random_bound_state()
            arc = arc_from_state(s0)
            period = 2.0 * math.pi / mean_motion(arc.a)
            dt = float(rng.uniform(0.1, 1.5)) * period
            s1 = propagate_time(s0, dt)
            try:
                sols = solve_lambert(s0.r, s1.r, dt, max_revs=2)
            except AmbiguousPlane:
                continue
            for sol in sols:
                assert certify(sol, s0.r, s1.r, dt) < 1e-6


class TestPeriodicSelfTransfer:
    def test_original_orbit_among_solutions(self):
        rn = 7238.137
        vc = math.sqrt(MU_EARTH / rn)
        s0 = StateVector([rn, 0.0, 0.0], [0.0, vc, 0.0], 0.0)
        period = 2.0 * math.pi / mean_motion(rn)
        sols = solve_lambert(s0.r, one_period_later(rn), period, max_revs=2)
        one_rev = [s for s in sols if s.revs == 1]
        assert one_rev
        best = min(float(np.linalg.norm(s.v_depart - s0.v)) for s in one_rev)
        assert best / vc < 1e-6

    def test_exact_coincidence_is_ambiguous(self):
        r = np.array([7000.0, 0.0, 0.0])
        with pytest.raises(AmbiguousPlane):
            solve_lambert(r, r.copy(), 6000.0, max_revs=2)


class TestSolutionSet:
    def test_monotone_in_max_revs(self):
        """Raising max_revs never removes solutions."""
        s0 = random_bound_state(e_max=0.3)
        arc = arc_from_state(s0)
        period = 2.0 * math.pi / mean_motion(arc.a)
        dt = 1.7 * period
        s1 = propagate_time(s0, dt)
        sols_by_cap = [solve_lambert(s0.r, s1.r, dt, max_revs=k)
                       for k in range(4)]
        for lo, hi in zip(sols_by_cap, sols_by_cap[1:]):
            keys_lo = {(s.revs, s.branch, round(float(s.v_depart[0]), 9))
                       for s in lo}
            keys_hi = {(s.revs, s.branch, round(float(s.v_depart[0]), 9))
                       for s in hi}
            assert keys_lo <= keys_hi

    def test_time_reversal_symmetry(self):
        s0 = random_bound_state(e_max=0.4)
        arc = arc_from_state(s0)
        period = 2.0 * math.pi / mean_motion(arc.a)
        dt = 0.3 * period
        s1 = propagate_time(s0, dt)
        fwd = solve_lambert(s0.r, s1.r, dt)
        rev = solve_lambert(s1.r, s0.r, dt)
        assert fwd and rev
        for f in fwd:
            miss = min(
                float(np.linalg.norm(r.v_depart + f.v_arrive))
                + float(np.linalg.norm(r.v_arrive + f.v_depart))
                for r in rev if r.revs == f.revs)
            assert miss < 1e-6

    def test_multirev_pairs(self):
        """A generous dt admits low and high energy multi-rev solutions."""
        rn = 7238.137
        vc = math.sqrt(MU_EARTH / rn)
        s0 = StateVector([rn, 0.0, 0.0], [0.0, vc, 0.0], 0.0)
        period = 2.0 * math.pi / mean_motion(rn)
        s1 = propagate_time(s0, 0.25 * period)
        sols = solve_lambert(s0.r, s1.r, 2.25 * period, max_revs=2)
        two_rev = [s for s in sols if s.revs == 2]
        assert len(two_rev) >= 2
        for sol in sols:
            assert certify(sol, s0.r, s1.r, 2.25 * period) < 1e-6


class TestEdges:
    def test_tiny_dt_gives_empty(self):
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = np.array([0.0, 7000.0, 0.0])
        assert solve_lambert(r0, r1, 1.0) == []

    def test_near_pi_transfer_raises(self):
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = np.array([-7500.0, 0.0, 0.0])
        with pytest.raises(AmbiguousPlane):
            solve_lambert(r0, r1, 3000.0)

    def test_rejects_bad_inputs(self):
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = np.array([0.0, 7000.0, 0.0])
        with pytest.raises(ValueError):
            solve_lambert(r0, r1, -5.0)
        with pytest.raises(ValueError):
            solve_lambert(np.zeros(3), r1, 100.0)
        with pytest.raises(ValueError):
            solve_lambert(r0, r1, 100.0, max_revs=-1)

    def test_rejects_positions_of_another_shape(self):
        """A scalar r0 is not broadcast to a position, nor six numbers
        read as two arrivals."""
        with pytest.raises(ValueError, match=r"^r0 must have shape"):
            solve_lambert(7000.0, [0.0, 7000.0, 0.0], 1500.0)
        with pytest.raises(ValueError, match=r"^r0 must have shape"):
            lambert_batch(np.ones((2, 3)), np.ones((3, 3)), 1500.0)
        with pytest.raises(ValueError, match=r"^r1 must have shape"):
            lambert_batch([7000.0, 0.0, 0.0],
                          [0.0, 7000.0, 0.0, 0.0, 7100.0, 0.0], 1500.0)

    @pytest.mark.parametrize("name", ["r0", "r1"])
    def test_rejects_positions_that_are_not_finite(self, name):
        ends = {"r0": [7000.0, 0.0, 0.0], "r1": [0.0, 7000.0, 0.0]}
        ends[name] = [math.nan, 7000.0, 0.0]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_lambert(ends["r0"], ends["r1"], 1500.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_rejects_transfer_time_that_is_not_finite(self, dt):
        with pytest.raises(ValueError,
                           match="^transfer time must be positive and finite"):
            solve_lambert([7000.0, 0.0, 0.0], [0.0, 7000.0, 0.0], dt)

    def test_near_parabolic_arcs_exist(self):
        """Just above the parabolic time (Lambert's theorem) every short
        zero-rev arc exists, however close to parabolic; those not too
        close land, where Kepler propagation is still well conditioned."""
        gen = np.random.default_rng(8)
        angle = gen.uniform(0.01, 1.0, 300)
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = gen.uniform(7000.0, 9000.0, 300)[:, None] * np.stack(
            [np.cos(angle), np.sin(angle), np.zeros(300)], axis=1)
        chord = np.linalg.norm(r1 - r0, axis=1)
        s = 0.5 * (7000.0 + np.linalg.norm(r1, axis=1) + chord)
        t_parabolic = (math.sqrt(2.0 / MU_EARTH) / 3.0
                       * (s**1.5 - (s - chord) ** 1.5))
        excess = 10.0 ** gen.uniform(-9.0, -3.0, 300)
        dts = t_parabolic * (1.0 + excess)
        batch = lambert_batch(r0, r1, dts, max_revs=0)
        short = batch.slot == 0
        assert_array_equal(batch.row[short], np.arange(300))
        for i, v in zip(batch.row[short], batch.v_depart[short]):
            if excess[i] >= 1e-4:
                assert landing_miss(r0, v, r1[i], dts[i]) < 1e-8

    def test_bound_only(self):
        """Every solution implies e < 1."""
        for _ in range(20):
            s0 = random_bound_state()
            arc = arc_from_state(s0)
            period = 2.0 * math.pi / mean_motion(arc.a)
            dt = float(rng.uniform(0.1, 1.0)) * period
            s1 = propagate_time(s0, dt)
            try:
                sols = solve_lambert(s0.r, s1.r, dt, max_revs=1)
            except AmbiguousPlane:
                continue
            for sol in sols:
                assert is_bound(s0.r, sol.v_depart)


class TestBatch:
    def test_rows_match_solve_lambert(self):
        """Each row of a batch equals its own batch of one."""
        r0, r1, dts = [], [], []
        for _ in range(30):
            s0 = random_bound_state(e_max=0.5)
            period = 2.0 * math.pi / mean_motion(arc_from_state(s0).a)
            dt = float(rng.uniform(0.1, 2.5)) * period
            r0.append(s0.r)
            r1.append(propagate_time(s0, dt).r)
            dts.append(dt)
        # a periodic self-transfer row takes the closed-form branch
        rn = 7238.137
        s0 = StateVector([rn, 0.0, 0.0], [0.0, math.sqrt(MU_EARTH / rn), 0.0],
                         0.0)
        period = 2.0 * math.pi / mean_motion(rn)
        r0.append(s0.r)
        r1.append(one_period_later(rn))
        dts.append(period)
        batch = lambert_batch(np.array(r0), np.array(r1), np.array(dts),
                              max_revs=2)
        for i in range(len(dts)):
            single = solve_lambert(r0[i], r1[i], dts[i], max_revs=2)
            arcs = np.flatnonzero(batch.row == i)
            assert [(s.revs, s.branch) for s in single] == [
                (batch.revs[k], batch.branch[k]) for k in batch.slot[arcs]]
            for sol, j in zip(single, arcs):
                assert_allclose(sol.v_depart, batch.v_depart[j],
                                rtol=0, atol=1e-12)
                assert_allclose(sol.v_arrive, batch.v_arrive[j],
                                rtol=0, atol=1e-12)
        self_slots = batch.slot[batch.row == len(dts) - 1]
        assert self_slots.size and self_slots.min() >= 2

    def test_ambiguous_row_is_named(self):
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = np.array([[0.0, 7000.0, 0.0], [-7500.0, 0.0, 0.0]])
        with pytest.raises(AmbiguousPlane) as info:
            lambert_batch(r0, r1, 3000.0)
        assert info.value.row == 1


class TestEverySlot:
    def test_every_arc_lands(self, random_problems):
        """Every returned arc, in every slot, re-propagates onto r1."""
        _, _, _, batch, miss = random_problems
        assert batch.row.size > 5000
        assert set(batch.slot) == set(range(10))
        assert miss.max() < 1e-8

    def test_matches_reference_solver(self, random_problems):
        """Same slots as the universal-variable solver, same arcs where
        its own arc lands; where they differ, the new arc is the one
        that lands."""
        r0, r1, dts, batch, miss = random_problems
        found, v_ref, _ = lambert_reference.lambert_dense(r0, r1, dts,
                                                          max_revs=2)
        rows, slots = np.nonzero(found)
        assert_array_equal(batch.row, rows)
        assert_array_equal(batch.slot, slots)
        dv = np.linalg.norm(batch.v_depart - v_ref[rows, slots], axis=1)
        for k in np.flatnonzero(dv > 1e-9):
            i = rows[k]
            ref_miss = landing_miss(r0[i], v_ref[i, slots[k]], r1[i], dts[i])
            assert ref_miss > 1e-10
            assert miss[k] < ref_miss

    def test_long_branch_pairs_near_zero_angle(self):
        """Multi-rev pairs at a 1 degree transfer angle. On the long
        branch lambda is near -0.99 and a first Halley step from x = 0
        towards the one-rev bottom of T lands outside (-1, 1)."""
        rn = 7000.0
        angle = math.radians(1.0)
        r0 = np.array([rn, 0.0, 0.0])
        r1 = rn * np.array([math.cos(angle), math.sin(angle), 0.0])
        dt = 2.5 * 2.0 * math.pi / mean_motion(rn)
        sols = solve_lambert(r0, r1, dt, max_revs=2)
        assert [(s.revs, s.branch) for s in sols] == [
            (0, "short"), (0, "long")] + [
            (revs, branch) for revs in (1, 2)
            for branch in ("short", "short", "long", "long")]
        for sol in sols:
            assert certify(sol, r0, r1, dt) < 1e-8


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# x in (-1, 1), lambda in [-1, 1], complete revolutions 0-2
t_of_x_elements = st.tuples(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-1.0, 1.0), st.integers(0, 2))


class TestTimeByBranch:
    """Each element evaluates only its own branch of T(x), and gets the
    bits of the two-branch evaluation that kept one by np.where."""

    @staticmethod
    def check(x, lam, revs):
        """T and its slopes match the oracle on the whole array, on its
        series elements alone and on its Lancaster elements alone; T
        alone matches the full evaluation's T. Returns which of the
        three arrays straddled s1 = _SERIES_S1, were all series, or all
        Lancaster."""
        one_minus_lam2 = (1.0 - lam) * (1.0 + lam)
        kinds = set()
        with np.errstate(all="ignore"):
            series = (lambert_reference.series_argument(x, lam,
                                                        one_minus_lam2)
                      < lambert._SERIES_S1)
            for pick in (slice(None), series, ~series):
                args = (x[pick], lam[pick], one_minus_lam2[pick],
                        revs[pick])
                if not args[0].size:
                    continue
                n = np.count_nonzero(series[pick])
                kinds.add("series" if n == args[0].size
                          else "lancaster" if n == 0 else "straddle")
                got = lambert._t_of_x(*args)
                for g, w in zip(got, lambert_reference.t_of_x(*args)):
                    assert_bits_equal(g, w)
                assert_bits_equal(lambert._time(*args)[0], got[0])
        return kinds

    @given(st.lists(t_of_x_elements, min_size=1, max_size=40))
    @example([(0.999, 0.5, 0), (-0.5, 0.3, 1), (0.2, -1.0, 2)])
    @example([(0.0, 1.0, 0), (0.0, -1.0, 1), (0.5, 0.0, 2)])
    def test_matches_two_branch_oracle(self, elements):
        x, lam, revs = (np.array(c, dtype=float) for c in zip(*elements))
        self.check(x, lam, revs)

    def test_grid_takes_every_path(self):
        x, lam, revs = (a.ravel() for a in np.meshgrid(
            np.linspace(-0.999, 0.999, 101), np.linspace(-1.0, 1.0, 41),
            [0.0, 1.0, 2.0]))
        assert self.check(x, lam, revs) == {"straddle", "series",
                                            "lancaster"}


def batch_digest(batch) -> str:
    """sha256 over every LambertBatch field: dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in ("row", "slot", "v_depart", "v_arrive", "sweep", "revs"):
        a = np.ascontiguousarray(getattr(batch, name))
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(batch.branch).encode())
    return h.hexdigest()


def fy1c_rows():
    """fy1c target points at three times of the target's window (inside
    the interceptor's), from the interceptor's vertex: zero-revolution
    rows only."""
    scn = builtin_scenario("fy1c")
    vertex = scn.interceptor.vertex
    arcs = sample_cone(scn.target, 20, seed=0).trajectories
    n = len(arcs)
    t = np.repeat(np.linspace(*scn.target.window, 3), n)
    points, _, _ = states_at(arcs, t, np.tile(np.arange(n), 3))
    return np.broadcast_to(vertex.r, points.shape), points, t - vertex.t, 1


def multirev_rows():
    """Random bound origins flown 1.1 to 2.5 periods: multi-revolution
    arcs in every row."""
    gen = np.random.default_rng(14)
    r0, r1, dts = [], [], []
    for _ in range(12):
        s0 = random_bound_state(e_max=0.3, gen=gen)
        # a from the package's vis-viva pass: the digests below were
        # taken on its bits, which the oracle's a can miss by an ulp
        a = _ellipse(s0.r[None], s0.v[None], MU_EARTH)[2][0]
        period = 2.0 * math.pi / mean_motion(float(a))
        dt = float(gen.uniform(1.1, 2.5)) * period
        r0.append(s0.r)
        r1.append(propagate_time(s0, dt).r)
        dts.append(dt)
    return np.array(r0), np.array(r1), np.array(dts), 2


def quarter_rows(n: int):
    """n zero-revolution rows: a quarter period or less of LEO."""
    angle = np.linspace(0.3, 1.5, n)
    r1 = 7200.0 * np.stack([np.cos(angle), np.sin(angle), np.zeros(n)],
                           axis=1)
    r0 = np.broadcast_to([7000.0, 0.0, 0.0], r1.shape)
    return r0, r1, 900.0 * angle


def unbound_rows():
    """Zero-revolution rows and one just above the parabolic time,
    whose short candidate arc is recovered unbound."""
    r0, r1, dt = quarter_rows(8)
    return (np.vstack([r0, [[7000.0, 0.0, 0.0]]]),
            np.vstack([r1, [[-3329.1746923771375, 7274.379414605454, 0.0]]]),
            np.append(dt, 1182.2649611685804), 0)


def multirev_unbound_rows():
    """The unbound candidate's row, then the multi-revolution rows."""
    r0, r1, dt, _ = multirev_rows()
    u0, u1, udt, _ = unbound_rows()
    return (np.vstack([u0[-1:], r0]), np.vstack([u1[-1:], r1]),
            np.append(udt[-1], dt), 2)


def self_transfer_rows():
    """Zero-revolution rows and one periodic self-transfer row."""
    r0, r1, dt = quarter_rows(8)
    rn = 7238.137
    return (np.vstack([r0, [[rn, 0.0, 0.0]]]),
            np.vstack([r1, one_period_later(rn)]),
            np.append(dt, 2.0 * math.pi / mean_motion(rn)), 1)


class TestSkippedPasses:
    """lambert_batch compacts by boundedness only when an arc is
    unbound, and sorts only when multi-revolution or self-transfer arcs
    were appended. Both ways give each row its batch of one, and every
    field the bits the code gave before these passes were skipped
    (digests taken from that code)."""

    @pytest.mark.parametrize("rows, compacted, resorted, digest", [
        (fy1c_rows, False, False,
         "2e662812d5b44e785dc1b911ea33d1c34c7ce4eeb9c588c7b7dc923c95969739"),
        (multirev_rows, False, True,
         "2cfe666295a09bb49a1769f6c0e20d0e5bed763d9cf221ede27021eaf5ebbb7f"),
        (unbound_rows, True, False,
         "af2eaa9f4cdfe18253037a418c2a3fea949142842f2b1b9889868d2c39ab50a2"),
        (multirev_unbound_rows, True, True,
         "d940831ea08d08207a096ac76534626ff0a7764706a29d1d9183f32765b10cf5"),
        (self_transfer_rows, False, True,
         "66f8803f77c5779b4cceeae72edc798b4d28a5e84176802b61449cf16c61149d"),
    ], ids=["fy1c", "multirev", "unbound", "multirev_unbound",
            "self_transfer"])
    def test_rows_match_batch_of_one_and_old_bits(self, monkeypatch, rows,
                                                 compacted, resorted, digest):
        r0, r1, dt, max_revs = rows()
        is_bound = lambert.is_bound
        checks = []

        def spy(r, v, mu):
            checks.append(is_bound(r, v, mu))
            return checks[-1]

        monkeypatch.setattr(lambert, "is_bound", spy)
        batch = lambert_batch(r0, r1, dt, MU_EARTH, max_revs)
        # the first check is of the candidate arcs
        assert (not checks[0].all()) == compacted
        assert (batch.slot.max() > 1) == resorted
        key = batch.row * len(batch.revs) + batch.slot
        assert np.all(np.diff(key) > 0)
        assert batch_digest(batch) == digest
        for i in range(len(dt)):
            single = lambert_batch(r0[i], r1[i:i + 1], dt[i], MU_EARTH,
                                   max_revs)
            mine = batch.row == i
            assert_bits_equal(single.row, np.zeros_like(batch.row[mine]))
            for name in ("slot", "v_depart", "v_arrive", "sweep"):
                assert_bits_equal(getattr(single, name),
                                  getattr(batch, name)[mine])
