"""Tests for the two-body propagation core."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from futurecone import (
    EccentricityOutOfRange,
    MU_EARTH,
    StateVector,
    propagate_time,
    solve_lambert,
)
from futurecone import kepler
from futurecone.errors import ConvergenceError
from futurecone.kepler import (
    ArcBatch,
    _conic,
    _ellipse,
    _row_norm,
    _solve_kepler,
    arc_from_state,
    arcs_from_states,
    coast,
    is_bound,
    min_radius,
    state_at,
    states_at,
    swept_min_radius,
)

import kepler_reference as ref
from kepler_reference import (
    eccentric_from_true,
    mean_motion,
    time_of_flight,
    true_from_eccentric,
)

rng = np.random.default_rng(0)


def random_rotation() -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def state_from_elements(a: float, e: float, f: float,
                        rot: np.ndarray) -> StateVector:
    """Independent perifocal construction, rotated into a random frame."""
    p = a * (1.0 - e * e)
    rn = p / (1.0 + e * math.cos(f))
    r_pf = rn * np.array([math.cos(f), math.sin(f), 0.0])
    v_pf = math.sqrt(MU_EARTH / p) * np.array(
        [-math.sin(f), e + math.cos(f), 0.0])
    return StateVector(r=rot @ r_pf, v=rot @ v_pf, t=0.0)


def random_bound_state(e_max: float = 0.9) -> StateVector:
    a = rng.uniform(6800.0, 25000.0)
    e = rng.uniform(0.0, e_max)
    f = rng.uniform(-math.pi, math.pi)
    return state_from_elements(a, e, f, random_rotation())


def dop853(s0: StateVector, dt: float) -> np.ndarray:
    """Position and velocity, stacked, after dt by DOP853 at rtol 1e-13."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        r = y[:3]
        return np.concatenate([y[3:], -MU_EARTH * r / np.linalg.norm(r)**3])

    sol = solve_ivp(rhs, (0.0, dt), np.concatenate([s0.r, s0.v]),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    return sol.y[:, -1]


def solve_kepler(M: float, e: float) -> float:
    """The Kepler kernel on one row."""
    return float(_solve_kepler(np.array([M], dtype=float),
                               np.array([e], dtype=float))[0])


class TestSolveKepler:
    """The Kepler kernel, one row at a time."""

    def test_frozen_value(self):
        # independently verified against scipy.optimize.brentq
        assert_allclose(solve_kepler(1.0, 0.1), 1.0885977523978934, rtol=1e-13)

    def test_circular_is_identity(self):
        for M in np.linspace(-7.0, 7.0, 11):
            assert solve_kepler(float(M), 0.0) == pytest.approx(M, abs=1e-15)

    @pytest.mark.parametrize("e", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_residual_grid(self, e):
        for M in np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False):
            E = solve_kepler(float(M), e)
            assert abs(E - e * math.sin(E) - M) < 1e-12

    def test_branch_preserved(self):
        """M shifted by 2*pi*k returns E shifted by exactly 2*pi*k."""
        E0 = solve_kepler(1.3, 0.6)
        for k in (-3, -1, 1, 2, 10):
            Ek = solve_kepler(1.3 + 2.0 * math.pi * k, 0.6)
            assert_allclose(Ek, E0 + 2.0 * math.pi * k, rtol=0, atol=1e-9)

    def test_large_mean_anomaly(self):
        M = 12345.678
        e = 0.8
        E = solve_kepler(M, e)
        assert abs(E - e * math.sin(E) - M) < 1e-9


class TestAnomalyConversions:
    """The oracle's anomaly conversions, which its arcs and the swept
    anomalies of the floor tests below are built on."""

    def test_frozen_value(self):
        # E = pi/2, e = 0.5 gives f = 2*pi/3 exactly
        assert_allclose(true_from_eccentric(math.pi / 2.0, 0.5),
                        2.0943951023931953, rtol=1e-14)

    @pytest.mark.parametrize("e", [0.0, 0.2, 0.5, 0.9, 0.999])
    def test_round_trip(self, e):
        for f in np.linspace(-20.0, 20.0, 81):
            E = eccentric_from_true(float(f), e)
            assert_allclose(true_from_eccentric(E, e), f, rtol=0, atol=1e-12)

    def test_branch_preserved(self):
        """Unwrapped anomalies carry their revolution count through."""
        e = 0.7
        f = 0.9
        E = eccentric_from_true(f, e)
        for k in (-2, 1, 5):
            shifted = eccentric_from_true(f + 2.0 * math.pi * k, e)
            assert_allclose(shifted, E + 2.0 * math.pi * k, rtol=0, atol=1e-12)

    def test_apsides_fixed_points(self):
        for e in (0.1, 0.5, 0.9):
            assert true_from_eccentric(0.0, e) == 0.0
            assert_allclose(true_from_eccentric(math.pi, e), math.pi,
                            rtol=1e-14)


class TestTimeOfFlight:
    """The oracle's mean motion and time of flight, which the periods
    and anomaly advances of these tests come from."""

    def test_frozen_mean_motion(self):
        assert_allclose(mean_motion(7238.137), 0.0010252474302388003,
                        rtol=1e-14)

    def test_frozen_quarter_arc(self):
        s = state_from_elements(7238.0, 0.1, 0.0, np.eye(3))
        arc = ref.arc_from_state(s)
        assert_allclose(time_of_flight(arc, 0.0, math.pi / 2.0),
                        1434.536216154526, rtol=1e-12)

    def test_full_revolution_is_period(self):
        s = random_bound_state()
        arc = ref.arc_from_state(s)
        period = 2.0 * math.pi / mean_motion(arc.a, arc.mu)
        assert_allclose(time_of_flight(arc, arc.E0, arc.E0 + 2.0 * math.pi),
                        period, rtol=1e-13)

    def test_additive_over_subdivision(self):
        s = random_bound_state()
        arc = ref.arc_from_state(s)
        E1, E2, E3 = 0.4, 2.9, 7.7
        total = time_of_flight(arc, E1, E3)
        split = time_of_flight(arc, E1, E2) + time_of_flight(arc, E2, E3)
        assert_allclose(split, total, rtol=1e-13)

    def test_rejects_nonpositive_axis(self):
        for a, mu in ((-7000.0, MU_EARTH), (0.0, MU_EARTH),
                      (math.nan, MU_EARTH), (math.inf, MU_EARTH),
                      (7000.0, math.nan), (7000.0, math.inf),
                      (7000.0, 0.0), (7000.0, -MU_EARTH)):
            with pytest.raises(ValueError):
                mean_motion(a, mu)


class TestArcFromState:
    """The conic the kernels derive from a state (kepler._conic: |r|,
    1/a, sigma0, E0 and e; kepler._ellipse: a, e and p), against the
    elements the state was built from and the oracle's. The package's
    arc_from_state is the state itself, as a batch of one row."""

    def test_recovers_elements(self):
        for _ in range(50):
            a = rng.uniform(6800.0, 25000.0)
            e = rng.uniform(0.0, 0.9)
            f = rng.uniform(-math.pi, math.pi)
            s = state_from_elements(a, e, f, random_rotation())
            _, alpha, _, E0, e_got = _conic(s.r[None], s.v[None], MU_EARTH)
            assert_allclose(1.0 / alpha[0], a, rtol=1e-10)
            assert_allclose(e_got[0], e, rtol=0, atol=1e-10)
            assert_allclose(E0[0], eccentric_from_true(f, e), rtol=0,
                            atol=1e-8)
            arc = ref.arc_from_state(s)
            assert_allclose(arc.a, a, rtol=1e-10)
            assert_allclose(arc.e, e, rtol=0, atol=1e-10)
            assert_allclose(arc.f0, f, rtol=0, atol=1e-8)

    def test_conic_invariant(self):
        """The e of the step's conic and the a and p of the bound test
        satisfy p = a*(1 - e^2)."""
        for _ in range(50):
            s = random_bound_state()
            _, _, a, _, p, _ = _ellipse(s.r[None], s.v[None], MU_EARTH)
            e = _conic(s.r[None], s.v[None], MU_EARTH)[-1]
            assert_allclose(p, a * (1.0 - e**2), rtol=1e-12)

    def test_circular_state(self):
        """Exact perpendicular circular state: e = 0, sigma0 = 0, a = r."""
        rn = 7238.137
        vc = math.sqrt(MU_EARTH / rn)
        s = StateVector([rn, 0.0, 0.0], [0.0, vc, 0.0], 0.0)
        _, alpha, sigma0, _, e = _conic(s.r[None], s.v[None], MU_EARTH)
        assert e[0] < 1e-15
        assert sigma0[0] == 0.0
        assert_allclose(1.0 / alpha[0], rn, rtol=1e-12)
        arc = ref.arc_from_state(s)
        assert arc.e == 0.0
        assert abs(arc.sigma0) < 1e-12
        assert_allclose(arc.a, rn, rtol=1e-12)
        assert arc.f0 == 0.0

    def test_near_circular_convention(self):
        """Sub-threshold eccentricity takes the f0 := 0 convention."""
        s = state_from_elements(7000.0, 0.0, 1.2, np.eye(3))
        arc = ref.arc_from_state(s)
        assert arc.e < 1e-7  # float-constructed circle lands near sqrt(eps)
        if arc.e < 1e-10:
            assert arc.f0 == 0.0

    def test_sigma_sign_matches_anomaly_sign(self):
        outbound = state_from_elements(8000.0, 0.3, 0.8, np.eye(3))
        inbound = state_from_elements(8000.0, 0.3, -0.8, np.eye(3))
        for s, sign in ((outbound, 1.0), (inbound, -1.0)):
            sigma0 = _conic(s.r[None], s.v[None], MU_EARTH)[2][0]
            assert sign * sigma0 > 0.0
            assert sign * ref.arc_from_state(s).sigma0 > 0.0

    def test_rejects_unbound(self):
        r = np.array([7000.0, 0.0, 0.0])
        v_esc = math.sqrt(2.0 * MU_EARTH / 7000.0)
        with pytest.raises(EccentricityOutOfRange):
            arc_from_state(StateVector(r, [0.0, v_esc * 1.01, 0.0], 0.0))

    def test_rejects_rectilinear(self):
        r = np.array([7000.0, 0.0, 0.0])
        with pytest.raises(EccentricityOutOfRange):
            arc_from_state(StateVector(r, [3.0, 0.0, 0.0], 0.0))


def theta_advance(s0: StateVector, theta: float) -> float:
    """The oracle's time of flight for a true-anomaly change theta."""
    arc = ref.arc_from_state(s0)
    return time_of_flight(arc, arc.E0, eccentric_from_true(arc.f0 + theta,
                                                           arc.e))


class TestPropagation:
    def test_round_trip(self):
        """Forward dt then backward dt restores the state, over up to
        two revolutions either way."""
        for _ in range(50):
            s0 = random_bound_state()
            theta = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
            dt = theta_advance(s0, float(theta))
            s1 = propagate_time(s0, dt)
            s2 = propagate_time(s1, -dt)
            scale = float(np.linalg.norm(s0.r))
            assert float(np.linalg.norm(s2.r - s0.r)) / scale < 1e-9
            assert float(np.linalg.norm(s2.v - s0.v)) < 1e-9
            assert abs(s2.t - s0.t) < 1e-6

    def test_wronskian(self):
        """F*Gt - Ft*G = 1: extract coefficients from basis propagation."""
        for _ in range(20):
            s0 = random_bound_state()
            theta = float(rng.uniform(0.1, 2.0 * math.pi))
            s1 = propagate_time(s0, theta_advance(s0, theta))
            # solve [r1 v1] = [F G; Ft Gt] [r0 v0] in the orbital plane
            basis = np.column_stack([s0.r, s0.v])
            coeffs, *_ = np.linalg.lstsq(basis, np.column_stack([s1.r, s1.v]),
                                         rcond=None)
            F, G = coeffs[0, 0], coeffs[0, 1]
            Ft, Gt = coeffs[1, 0], coeffs[1, 1]
            assert abs(F * Gt - Ft * G - 1.0) < 1e-10

    def test_conserves_energy_and_momentum(self):
        for _ in range(20):
            s0 = random_bound_state()
            s1 = propagate_time(
                s0, theta_advance(s0, float(rng.uniform(0.0, 10.0))))

            def energy(s):
                return (float(s.v @ s.v) / 2.0
                        - MU_EARTH / float(np.linalg.norm(s.r)))

            assert_allclose(energy(s1), energy(s0), rtol=1e-10)
            assert_allclose(np.cross(s1.r, s1.v), np.cross(s0.r, s0.v),
                            rtol=1e-10)

    def test_time_epoch_advances(self):
        """The state flown for the time of flight of a true-anomaly
        advance is stamped with that epoch and lies at that anomaly."""
        s0 = random_bound_state()
        arc = ref.arc_from_state(s0)
        dt = theta_advance(s0, 1.0)
        s1 = propagate_time(s0, dt)
        assert s1.t == s0.t + dt
        advance = ref.arc_from_state(s1).f0 - arc.f0
        assert abs(math.remainder(advance - 1.0, 2.0 * math.pi)) < 1e-9

    def test_propagate_time_matches_theta(self):
        s0 = random_bound_state()
        s_theta = ref.propagate_theta(s0, 2.3)
        s_time = propagate_time(s0, s_theta.t - s0.t)
        assert_allclose(s_time.r, s_theta.r, rtol=1e-9)
        assert_allclose(s_time.v, s_theta.v, rtol=1e-9)

    def test_full_period_returns(self):
        s0 = random_bound_state()
        period = 2.0 * math.pi / mean_motion(ref.arc_from_state(s0).a)
        s1 = propagate_time(s0, period)
        assert_allclose(s1.r, s0.r, rtol=1e-8)
        assert_allclose(s1.v, s0.v, rtol=1e-8)

    def test_state_at_epoch_is_identity(self):
        s0 = random_bound_state()
        assert state_at(arc_from_state(s0), s0.t) == s0

    def test_radius_matches_conic(self):
        s0 = random_bound_state()
        arc = ref.arc_from_state(s0)
        for theta in np.linspace(0.0, 2.0 * math.pi, 17):
            s = propagate_time(s0, theta_advance(s0, float(theta)))
            f = arc.f0 + theta
            expected = arc.p / (1.0 + arc.e * math.cos(f))
            assert_allclose(float(np.linalg.norm(s.r)), expected, rtol=1e-10)

    def test_against_numerical_integration(self):
        """Cross-check arcs against a DOP853 integration.

        The second arc starts at an apsis of a near-circular orbit (a
        small tangential burn on a circular one), where the apsis
        direction is barely defined.
        """
        vc = math.sqrt(MU_EARTH / 6878.0)
        apsis = StateVector([6878.0, 0.0, 0.0], [0.0, vc + 1e-4, 0.0], 0.0)
        cases = ((state_from_elements(8200.0, 0.25, 0.4, random_rotation()),
                  2500.0),
                 (apsis, 3000.0))

        for s0, dt in cases:
            expected = dop853(s0, dt)
            s1 = propagate_time(s0, dt)
            assert_allclose(s1.r, expected[:3], rtol=1e-8)
            assert_allclose(s1.v, expected[3:], rtol=1e-8)


class TestStepFromState:
    """The step in the eccentric-anomaly change, at the ends of the
    eccentricity range where an element form loses precision."""

    @pytest.mark.parametrize("angle", [1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_near_rectilinear_lambert_arcs_land(self, angle):
        """Lambert arcs at transfer angles near 0 between unequal radii
        are ellipses with e near 1. Every returned slot, long branches
        through the centre included, lands on r1."""
        r0 = np.array([7000.0, 0.0, 0.0])
        for r1n in (7500.0, 8500.0, 9500.0):
            r1 = r1n * np.array([math.cos(angle), math.sin(angle), 0.0])
            for dt in (600.0, 1200.0, 2400.0, 9000.0):
                for sol in solve_lambert(r0, r1, dt, max_revs=1):
                    landed = propagate_time(StateVector(r0, sol.v_depart, 0.0),
                                            dt).r
                    assert float(np.linalg.norm(landed - r1)) < 1e-8 * r1n

    @pytest.mark.parametrize("burn", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
    def test_near_circular_arc_matches_integration(self, burn):
        """A tangential burn of burn km/s on a circular orbit, flown for
        most of a revolution, where e and the apsis are barely defined."""
        rn = 7000.0
        s0 = StateVector([rn, 0.0, 0.0],
                         [0.0, math.sqrt(MU_EARTH / rn) + burn, 0.0], 0.0)
        miss = propagate_time(s0, 5400.0).r - dop853(s0, 5400.0)[:3]
        assert float(np.linalg.norm(miss)) < 1e-11 * rn

    @given(st.floats(6800.0, 40000.0), st.floats(0.0, 0.99),
           st.floats(-math.pi, math.pi), st.floats(-30000.0, 30000.0),
           st.integers(0, 2**32 - 1))
    def test_back_and_forth_returns_and_keeps_the_lagrange_identity(
            self, a, e, f, dt, seed):
        """Flying dt and then -dt restores the state, and the step's
        coefficients satisfy F*Gt - Ft*G = 1."""
        frame, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        s0 = state_from_elements(a, e, f, frame)
        s1 = propagate_time(s0, dt)
        s2 = propagate_time(s1, -dt)
        assert float(np.linalg.norm(s2.r - s0.r)) < 1e-9 * a
        assert float(np.linalg.norm(s2.v - s0.v)) < 1e-9 * float(
            np.linalg.norm(s0.v))
        coeffs, *_ = np.linalg.lstsq(np.column_stack([s0.r, s0.v]),
                                     np.column_stack([s1.r, s1.v]), rcond=None)
        (F, Ft), (G, Gt) = coeffs
        assert abs(F * Gt - Ft * G - 1.0) < 1e-9


class TestStateVector:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 2.0], [0.0, 0.0, 0.0], 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector([math.nan, 0.0, 7000.0], [1.0, 0.0, 0.0], 0.0)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)

    def test_arrays_read_only(self):
        s = StateVector([7000.0, 0.0, 0.0], [0.0, 7.5, 0.0], 0.0)
        with pytest.raises(ValueError):
            s.r[0] = 1.0

    def test_equality_is_exact(self):
        a = StateVector([7000.0, 0.0, 0.0], [0.0, 7.5, 0.0], 0.0)
        b = StateVector([7000.0, 0.0, 0.0], [0.0, 7.5, 0.0], 0.0)
        c = StateVector([7000.0, 0.0, 1e-12], [0.0, 7.5, 0.0], 0.0)
        assert a == b
        assert a != c


class TestScalarViews:
    """The one-row views against the scalar reference."""

    def test_views_match_reference(self):
        for _ in range(40):
            s = random_bound_state(e_max=0.8)
            arc, expected = arc_from_state(s), ref.arc_from_state(s)
            assert isinstance(arc, ArcBatch) and len(arc) == 1
            t1, t2 = sorted(rng.uniform(0.0, 30000.0, 2))
            for got, want in ((state_at(arc, t1), ref.state_at(expected, t1)),
                              (propagate_time(s, t2),
                               ref.propagate_time(s, t2))):
                assert_allclose(got.r, want.r, rtol=1e-9)
                assert_allclose(got.v, want.v, rtol=1e-9)
                assert_allclose(got.t, want.t, rtol=1e-12)
            assert_allclose(min_radius(arc, t1, t2),
                            ref.min_radius(expected, t1, t2), rtol=1e-9)
            M = float(rng.uniform(-50.0, 50.0))
            assert_allclose(solve_kepler(M, expected.e),
                            ref.solve_kepler(M, expected.e), rtol=0,
                            atol=1e-12)

    @given(st.floats(6800.0, 40000.0), st.floats(0.0, 0.99),
           st.floats(-math.pi, math.pi), st.floats(-30000.0, 30000.0),
           st.floats(-30000.0, 30000.0), st.integers(0, 2**32 - 1))
    def test_views_are_row_zero_of_the_kernels(self, a, e, f, t1, t2, seed):
        """state_at, min_radius and propagate_time give row 0 of
        states_at and coast, bit for bit."""
        frame, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        s = state_from_elements(a, e, f, frame)
        arc = arc_from_state(s)
        assert np.array_equal(arc.r0, s.r[None])
        assert np.array_equal(arc.v0, s.v[None])
        assert arc.t0.tolist() == [s.t]
        r, v, _ = states_at(arc, t1)
        view = state_at(arc, t1)
        assert np.array_equal(view.r, r[0]) and np.array_equal(view.v, v[0])
        assert view.t == t1
        _, _, lowest = coast(r, v, t1, max(t1, t2))
        assert min_radius(arc, t1, t2) == lowest[0]
        r, v, _ = coast(s.r[None], s.v[None], s.t, s.t + t2)
        view = propagate_time(s, t2)
        assert np.array_equal(view.r, r[0]) and np.array_equal(view.v, v[0])


class TestArrayKernels:
    """The array kernels against the scalar reference, row by row."""

    def batch(self, n: int = 40):
        states = [random_bound_state(e_max=0.8) for _ in range(n)]
        r = np.array([s.r for s in states])
        v = np.array([s.v for s in states])
        return states, arcs_from_states(r, v, 0.0)

    def test_elements_match_arc_from_state(self):
        """Each row holds its state exactly, and the conic the kernels
        derive from it has the oracle's elements."""
        states, arcs = self.batch()
        _, alpha, sigma0, E0, e = _conic(arcs.r0, arcs.v0, arcs.mu)
        p = _ellipse(arcs.r0, arcs.v0, arcs.mu)[4]
        for i, s in enumerate(states):
            arc = ref.arc_from_state(s)
            assert StateVector(arcs.r0[i], arcs.v0[i], arcs.t0[i]) == s
            for got, want in ((1.0 / alpha[i], arc.a), (e[i], arc.e),
                              (p[i], arc.p), (sigma0[i], arc.sigma0)):
                assert_allclose(got, want, rtol=1e-12, atol=1e-9)
            assert abs(math.remainder(E0[i] - arc.E0, 2.0 * math.pi)) < 1e-12

    def test_positions_match_state_at(self):
        states, arcs = self.batch()
        rows = rng.integers(0, len(states), 200)
        times = rng.uniform(0.0, 30000.0, 200)
        times[:5] = 0.0  # the epoch itself returns the epoch state
        r, v, _ = states_at(arcs, times, rows)
        for row, t, r_i, v_i in zip(rows, times, r, v):
            expected = ref.state_at(ref.arc_from_state(states[row]), float(t))
            assert_allclose(r_i, expected.r, rtol=1e-9)
            assert_allclose(v_i, expected.v, rtol=1e-9)
        assert np.array_equal(r[:5], arcs.r0[rows[:5]])
        assert np.array_equal(v[:5], arcs.v0[rows[:5]])

    def test_rows_do_not_depend_on_the_batch(self):
        """A row of a large batch equals the same query as a batch of
        one, bit for bit."""
        _, arcs = self.batch()
        rows = rng.integers(0, len(arcs), 300)
        times = rng.uniform(0.0, 30000.0, 300)
        r, v, lowest = states_at(arcs, times, rows)
        for i in range(0, 300, 7):
            r1, v1, lowest1 = states_at(arcs, times[i:i + 1], rows[i:i + 1])
            assert np.array_equal(r1[0], r[i])
            assert np.array_equal(v1[0], v[i])
            assert lowest1[0] == lowest[i]

    def test_slices_are_batches(self):
        _, arcs = self.batch(5)
        part = arcs[1:3]
        assert isinstance(part, ArcBatch)
        assert len(part) == 2
        assert np.array_equal(part.r0, arcs.r0[1:3])
        assert np.array_equal(part.v0, arcs.v0[1:3])
        assert np.array_equal(part.t0, arcs.t0[1:3])
        with pytest.raises(TypeError, match="sliced, not indexed"):
            arcs[1]

    def test_swept_min_radius_matches_min_radius(self):
        states, arcs = self.batch()
        for i, s in enumerate(states):
            arc = ref.arc_from_state(s)
            n = mean_motion(arc.a)
            for t in rng.uniform(1.0, 3.0 * 2.0 * math.pi / n, 5):
                E = ref.solve_kepler(n * (float(t) - arc.tau), arc.e)
                sweep = ref.true_from_eccentric(E, arc.e) - arc.f0
                r1n = float(np.linalg.norm(ref.state_at(arc, float(t)).r))
                expected = ref.min_radius(arc, 0.0, float(t))
                got = swept_min_radius(s.r, s.v, r1n, sweep)
                assert_allclose(got, expected, rtol=1e-9)
                _, _, lowest = states_at(arcs, float(t), [i])
                assert_allclose(lowest[0], expected, rtol=1e-9)

    def test_kepler_solve_near_parabolic(self):
        """Rows whose Newton iterate strays finish on the bisection."""
        M = rng.uniform(-50.0, 50.0, 2000)
        e = rng.uniform(0.9, 0.999999, 2000)
        E = _solve_kepler(M, e)
        assert np.max(np.abs(E - e * np.sin(E) - M)) < 1e-12
        expected = [ref.solve_kepler(float(m), float(x)) for m, x in zip(M, e)]
        assert_allclose(E, expected, rtol=0, atol=1e-6)

    def test_kepler_solve_names_the_row_that_does_not_converge(
            self, monkeypatch):
        monkeypatch.setattr(kepler, "_KEPLER_TOL", 0.0)
        with pytest.raises(ConvergenceError, match="M=2.5, e=0.3"):
            _solve_kepler(np.array([2.5, 1.0]), np.array([0.3, 0.1]))
        s = StateVector([7000.0, 0.0, 0.0], [0.0, 7.7, 0.0], 0.0)
        with pytest.raises(ConvergenceError):
            propagate_time(s, 600.0)

    def test_is_bound_matches_arc_from_state(self):
        r = np.tile([7000.0, 0.0, 0.0], (4, 1))
        escape = math.sqrt(2.0 * MU_EARTH / 7000.0)
        v = np.array([[0.0, 7.5, 0.0], [0.0, 1.01 * escape, 0.0],
                      [3.0, 0.0, 0.0], [0.0, 0.99 * escape, 0.0]])
        assert is_bound(r, v).tolist() == [True, False, False, True]
        with pytest.raises(EccentricityOutOfRange):
            arcs_from_states(r, v, 0.0)

    def test_is_bound_matches_arcs_from_states_near_radial(self):
        """Positive energy and angular momentum are not enough: a state so
        nearly radial that e rounds to 1 is refused by both."""
        r = np.array([7000.0, 0.0, 0.0])
        gen = np.random.default_rng(5)
        tangential = 10.0 ** gen.uniform(-14.0, -4.0, 400)
        radial = gen.uniform(-5.0, 5.0, 400)
        v = np.stack([radial, tangential, np.zeros(400)], axis=1)
        bound = is_bound(r, v)
        assert bound.any() and not bound.all()
        for row, ok in zip(v, bound):
            if ok:
                arcs_from_states(r, row[None], 0.0)
            else:
                with pytest.raises(EccentricityOutOfRange):
                    arcs_from_states(r, row[None], 0.0)
        assert not is_bound(r, np.array([1.0, 1e-12, 0.0]))


class TestRowNorm:
    @given(hnp.arrays(float, st.tuples(st.integers(0, 40), st.just(3)),
                      elements=st.floats(-1e300, 1e300)))
    def test_equals_linalg_norm_bit_for_bit(self, x):
        """From subnormals up to squares that overflow to inf in both."""
        with np.errstate(over="ignore"):
            expected = np.linalg.norm(x, axis=-1)
            assert np.array_equal(_row_norm(x), expected)
            assert np.array_equal(_row_norm(np.asfortranarray(x)), expected)

    def test_one_row(self):
        x = np.array([3.0, -4.0, 12.0])
        assert _row_norm(x) == np.linalg.norm(x, axis=-1) == 13.0


class TestNearlyRadialStates:
    """States at 7000 km, radial speed within +-10 km/s, tangential speed
    1e-14 to 1e-4 km/s: bound ellipses so nearly rectilinear that the
    hypot of e*sin(E0) and e*cos(E0) rounds to 1 or above on thousands of
    the rows is_bound accepts."""

    def states(self):
        radial, tangential = np.meshgrid(np.linspace(-10.0, 10.0, 401),
                                         np.logspace(-14.0, -4.0, 201))
        v = np.stack([radial.ravel(), tangential.ravel(),
                      np.zeros(radial.size)], axis=1)
        r = np.tile([7000.0, 0.0, 0.0], (len(v), 1))
        bound = is_bound(r, v)
        return r[bound], v[bound]

    def test_eccentricity_stays_below_one(self):
        r, v = self.states()
        rn, alpha, sigma0, _, e = _conic(r, v, MU_EARTH)
        unclamped = np.hypot(sigma0 * np.sqrt(alpha), 1.0 - rn * alpha)
        assert np.count_nonzero(unclamped >= 1.0) > 1000
        assert np.all(e < 1.0)
        assert np.array_equal(e[unclamped < 1.0], unclamped[unclamped < 1.0])

    def test_coast_keeps_energy(self):
        """Energy after 600 s, to 1e-13 of the terms it is the difference
        of: rows falling inward end near the center, where v^2/2 and
        mu/r are each hundreds of times the energy."""
        r, v = self.states()
        r1, v1, _ = kepler.coast(r, v, 0.0, 600.0)

        def terms(r, v):
            return (0.5 * np.einsum("ij,ij->i", v, v),
                    MU_EARTH / np.linalg.norm(r, axis=1))

        kinetic0, potential0 = terms(r, v)
        kinetic1, potential1 = terms(r1, v1)
        drift = np.abs((kinetic1 - potential1) - (kinetic0 - potential0))
        assert np.all(drift <= 1e-13 * (kinetic1 + potential1))
