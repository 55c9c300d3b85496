"""Tests for the two-point boundary-value solver."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from futurecone import (
    AmbiguousPlane,
    MU_EARTH,
    StateVector,
    arc_from_state,
    mean_motion,
    propagate_time,
    solve_lambert,
)
from futurecone.lambert import lambert_batch

rng = np.random.default_rng(1)


def random_rotation() -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_bound_state(e_max: float = 0.8) -> StateVector:
    a = rng.uniform(6900.0, 20000.0)
    e = rng.uniform(0.0, e_max)
    f = rng.uniform(-math.pi, math.pi)
    p = a * (1.0 - e * e)
    rn = p / (1.0 + e * math.cos(f))
    rot = random_rotation()
    r_pf = rn * np.array([math.cos(f), math.sin(f), 0.0])
    v_pf = math.sqrt(MU_EARTH / p) * np.array(
        [-math.sin(f), e + math.cos(f), 0.0])
    return StateVector(rot @ r_pf, rot @ v_pf, 0.0)


def certify(sol, r0, r1, dt) -> float:
    """Relative arrival miss when re-propagating a solution."""
    s = propagate_time(StateVector(r0, sol.v_depart, 0.0), dt)
    return float(np.linalg.norm(s.r - r1) / np.linalg.norm(r1))


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
        s1 = propagate_time(s0, period)
        sols = solve_lambert(s0.r, s1.r, period, max_revs=2)
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
                arc2 = arc_from_state(StateVector(s0.r, sol.v_depart, 0.0))
                assert arc2.e < 1.0


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
        r1.append(propagate_time(s0, period).r)
        dts.append(period)
        batch = lambert_batch(np.array(r0), np.array(r1), np.array(dts),
                              max_revs=2)
        for i in range(len(dts)):
            single = solve_lambert(r0[i], r1[i], dts[i], max_revs=2)
            slots = np.flatnonzero(batch.found[i])
            assert [(s.revs, s.branch) for s in single] == [
                (batch.revs[k], batch.branch[k]) for k in slots]
            for sol, k in zip(single, slots):
                assert_allclose(sol.v_depart, batch.v_depart[i, k],
                                rtol=0, atol=1e-12)
                assert_allclose(sol.v_arrive, batch.v_arrive[i, k],
                                rtol=0, atol=1e-12)
        assert batch.found[-1, 2:].any() and not batch.found[-1, :2].any()

    def test_ambiguous_row_is_named(self):
        r0 = np.array([7000.0, 0.0, 0.0])
        r1 = np.array([[0.0, 7000.0, 0.0], [-7500.0, 0.0, 0.0]])
        with pytest.raises(AmbiguousPlane) as info:
            lambert_batch(r0, r1, 3000.0)
        assert info.value.row == 1
