"""Release acceptance: one test per numbered criterion.

Each test asserts its criterion's stated tolerances and runtime budget,
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. The suite leans on the unit oracles (propagation round
trips, closed-form game verdicts, the pinned engagement numbers) rather
than re-deriving them.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from futurecone.cli import main
from futurecone.cone import containment, reduce_to_single_burn
from futurecone.constants import EARTH_RADIUS_KM, MU_EARTH
from futurecone.errors import AmbiguousPlane, NoBoundArc
from futurecone.kepler import StateVector, propagate_time
from futurecone.lambert import solve_lambert
from futurecone.maneuver import (
    ImpulsiveSchedule,
    ThrustProfile,
    integrate_thrust,
    propagate_schedule,
    rocket_delta_v,
    shock_approximation,
)
from futurecone.scenario_io import (
    SamplingSpec,
    Scenario,
    TwoCarsGame,
    builtin_scenario,
    save_scenario,
)
from futurecone.twocars import (
    CarConfig,
    CarState,
    SteeringLaw,
    cockayne_check,
    containment_equivalence,
    explicit_policy_pursuit,
    path_accelerations,
    propagate_car,
    reachable_set,
    _arc_poses,
)

import twocars_reference
from kepler_reference import arc_from_state, mean_motion

TWO_PI = 2.0 * math.pi
R860 = EARTH_RADIUS_KM + 860.0
V860 = math.sqrt(MU_EARTH / R860)


def circular_860(t: float = 0.0) -> StateVector:
    return StateVector(r=(R860, 0.0, 0.0), v=(0.0, V860, 0.0), t=t)


def random_bound_state(rng, e_max: float = 0.8) -> StateVector:
    a = rng.uniform(6900.0, 20000.0)
    e = rng.uniform(0.0, e_max)
    f = rng.uniform(-math.pi, math.pi)
    p = a * (1.0 - e * e)
    rn = p / (1.0 + e * math.cos(f))
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    r_pf = rn * np.array([math.cos(f), math.sin(f), 0.0])
    v_pf = math.sqrt(MU_EARTH / p) * np.array(
        [-math.sin(f), e + math.cos(f), 0.0])
    return StateVector(q @ r_pf, q @ v_pf, 0.0)


def test_criterion_1_kepler_engine():
    """Full-period closure, conservation, and the Lagrange identity."""
    s0 = circular_860()
    period = TWO_PI / mean_motion(R860)
    s1 = propagate_time(s0, period)
    assert float(np.linalg.norm(s1.r - s0.r)) / R860 < 1e-9
    assert float(np.linalg.norm(s1.v - s0.v)) / V860 < 1e-9

    def energy(s: StateVector) -> float:
        return float(s.v @ s.v) / 2.0 - MU_EARTH / float(np.linalg.norm(s.r))

    h0 = np.cross(s0.r, s0.v)
    for frac in np.linspace(0.0, 1.0, 33):
        s = propagate_time(s0, float(frac) * period)
        assert abs(energy(s) - energy(s0)) / abs(energy(s0)) < 1e-9
        drift = float(np.linalg.norm(np.cross(s.r, s.v) - h0))
        assert drift / float(np.linalg.norm(h0)) < 1e-9

    basis = np.column_stack([s0.r, s0.v])
    for frac in np.linspace(0.0, 1.0, 64, endpoint=False):
        s = propagate_time(s0, float(frac) * period)
        coeffs, *_ = np.linalg.lstsq(basis, np.column_stack([s.r, s.v]),
                                     rcond=None)
        F, G = coeffs[0, 0], coeffs[0, 1]
        Ft, Gt = coeffs[1, 0], coeffs[1, 1]
        assert abs(F * Gt - Ft * G - 1.0) < 1e-10


def test_criterion_2_lambert_self_certification():
    """1000 round trips recover the generating departure velocity."""
    rng = np.random.default_rng(2)
    completed = 0
    skipped = 0
    while completed < 1000:
        s0 = random_bound_state(rng)
        arc = arc_from_state(s0)
        period = TWO_PI / mean_motion(arc.a)
        dt = float(rng.uniform(0.05, 1.8)) * period
        s1 = propagate_time(s0, dt)
        try:
            sols = solve_lambert(s0.r, s1.r, dt, max_revs=2)
        except AmbiguousPlane:
            skipped += 1  # near-pi transfer has no defined plane
            continue
        assert sols, f"no solutions for dt={dt}"
        best = min(float(np.linalg.norm(s.v_depart - s0.v)) for s in sols)
        assert best / float(np.linalg.norm(s0.v)) < 1e-6
        completed += 1
    assert skipped < 50


def test_criterion_3_multi_shock_reduction():
    """500 random schedules never beat their single-burn equivalent."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    unsolved = 0
    for _ in range(500):
        alt = float(rng.uniform(400.0, 1200.0))
        rn = EARTH_RADIUS_KM + alt
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = rng.normal(size=3)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        s = StateVector(rn * u, math.sqrt(MU_EARTH / rn) * w, 0.0)
        t_end = 0.3 * TWO_PI / mean_motion(rn)
        k = int(rng.integers(2, 7))
        times = np.sort(rng.uniform(10.0, 0.8 * t_end, k))
        dvs = rng.normal(0.0, 0.02, (k, 3))
        total = float(np.sum(np.linalg.norm(dvs, axis=1)))
        if total > 0.2:
            dvs *= 0.2 * float(rng.uniform(0.3, 1.0)) / total
        sched = ImpulsiveSchedule(times, dvs)
        traj = propagate_schedule(s, sched, t_end)
        try:
            dv0 = reduce_to_single_burn(traj)
        except NoBoundArc as exc:
            # an arc dearer than the chain would be a counterexample to
            # the single-burn equivalence, not an unsolved geometry
            assert str(exc).startswith("no bound arc"), str(exc)
            unsolved += 1
            continue
        assert float(np.linalg.norm(dv0)) <= sched.total_dv + 1e-6
    assert unsolved < 25
    assert time.perf_counter() - start < 60.0


def test_criterion_4_thrust_chain_convergence():
    """Shock chains converge onto three integrated thrust profiles."""
    start = time.perf_counter()
    rate = mean_motion(R860)
    amp = 2e-6
    profiles = (
        ThrustProfile(lambda t: amp * np.array([-math.sin(rate * t),
                                                math.cos(rate * t), 0.0]),
                      (0.0, 900.0)),
        ThrustProfile(lambda t: amp * np.array([math.cos(rate * t),
                                                math.sin(rate * t), 0.0]),
                      (0.0, 900.0)),
        ThrustProfile(lambda t: amp * math.sin(t / 200.0)
                      * np.array([0.48, 0.64, 0.6]),
                      (0.0, 900.0)),
    )
    for profile in profiles:
        s = circular_860()
        true_end = integrate_thrust(s, profile).endpoint
        ballistic = propagate_time(s, 900.0)
        scale = float(np.linalg.norm(true_end.r - ballistic.r))
        errors = []
        for n in (4, 16, 64, 256):
            sched = shock_approximation(profile, n)
            end = propagate_schedule(s, sched, 900.0).state_at(900.0)
            errors.append(float(np.linalg.norm(end.r - true_end.r)) / scale)
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4
    assert time.perf_counter() - start < 60.0


def test_criterion_5_rocket_equation_anchors():
    """Published stock figures for the target's thruster."""
    full_stock = 1e3 * rocket_delta_v(76.0, 958.0, 880.0)
    assert_allclose(full_stock, 63.3, atol=0.05)
    assert abs(full_stock - 63.0) <= 0.05 * 63.0

    remaining = 1e3 * rocket_delta_v(76.0, 892.0, 880.0)
    assert_allclose(remaining, 10.1, atol=0.05)
    assert abs(remaining - 11.0) <= 0.15 * 11.0


def test_criterion_6_bundled_engagement_containment():
    """The bundled engagement is contained; a rigged control is not."""
    start = time.perf_counter()
    scn = builtin_scenario("fy1c")
    assert scn.interceptor.window == (68.0, 750.0)
    assert scn.target.window == (425.0, 475.0)
    assert scn.target.budget == 0.0101

    report = containment(scn.interceptor, scn.target,
                         n_target_samples=2000, time_grid=51, seed=0)
    assert report.contained
    assert report.fraction_contained == 1.0
    assert report.samples >= 2000 * 51

    fat_target = replace(scn.target, budget=scn.target.budget * 100.0)
    thin_interceptor = replace(scn.interceptor,
                               budget=scn.interceptor.budget / 100.0)
    control = containment(thin_interceptor, fat_target,
                          n_target_samples=2000, time_grid=51, seed=0)
    assert not control.contained
    assert time.perf_counter() - start < 300.0


def test_criterion_7_two_cars_equivalence():
    """Sampled containment agrees with the closed-form inequalities."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(200):
        pursuer = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                            R=float(rng.uniform(0.5, 3.0)))
        evader = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                           R=float(rng.uniform(0.5, 3.0)))
        headstart = TWO_PI * pursuer.R / pursuer.v
        horizon = headstart + 20.0 * max(pursuer.R / pursuer.v,
                                         evader.R / evader.v)
        verdict = containment_equivalence(pursuer, evader, horizon=horizon,
                                          headstart=headstart)
        assert verdict.contained == cockayne_check(pursuer, evader).intercept

    for trial in range(5):
        cfg = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                        R=float(rng.uniform(0.5, 3.0)))
        s0 = CarState(x=float(rng.uniform(-2.0, 2.0)),
                      y=float(rng.uniform(-2.0, 2.0)),
                      theta=float(rng.uniform(0.0, TWO_PI)), t=0.0)
        t = float(rng.uniform(1.0, 4.0)) * cfg.R / cfg.v
        # the extremals, then 400 random laws flown by the same kernel
        rates, durations = twocars_reference.random_controls(
            cfg.admissible_rate, t, 400, np.random.default_rng(trial))
        ends = _arc_poses(cfg.v, (0.0, 0.0, s0.theta), rates,
                          durations)[:, -1, :2]
        ranges = np.linalg.norm(np.vstack(
            [reachable_set(cfg, s0, t=t) - s0.position, ends]), axis=1)
        assert ranges.max() <= cfg.v * t * (1.0 + 1e-12)

    for trial in range(5):
        cfg = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                        R=float(rng.uniform(0.5, 3.0)))
        amp = 0.95 * cfg.admissible_rate
        freq = float(rng.uniform(0.3, 1.5)) * cfg.v / cfg.R
        law = SteeringLaw(
            thetadot=lambda t, a=amp, w=freq: a * math.sin(w * t),
            rate_cap=amp)
        s0 = CarState(x=0.0, y=0.0, theta=float(rng.uniform(0.0, TWO_PI)),
                      t=0.0)
        path = propagate_car(cfg, s0, law, t=6.0 * cfg.R / cfg.v,
                             step=1e-3 * cfg.R / cfg.v)
        acc = path_accelerations(path)
        dots = np.abs(np.sum(acc * path.velocities[1:-1], axis=1))
        assert dots.max() <= 1e-6 * cfg.v ** 2 * cfg.max_turn_rate

        u = cfg.admissible_rate
        switches = np.sort(rng.uniform(0.0, 6.0 * cfg.R / cfg.v, 4))
        rates = u * rng.choice([-1.0, 1.0], 5)
        saturated = SteeringLaw.piecewise(switches, rates, cfg)
        path = propagate_car(cfg, s0, saturated, t=6.0 * cfg.R / cfg.v,
                             step=2e-3 * cfg.R / cfg.v)
        peaks = np.linalg.norm(path_accelerations(path), axis=1)
        assert peaks.max() <= (cfg.v ** 2 / cfg.R) * (1.0 + 1e-6)
    assert time.perf_counter() - start < 120.0


def test_criterion_8_explicit_policy_pursuit():
    """Track-following captures within ten head-start times."""
    start = time.perf_counter()
    for seed in range(100):
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
        e0 = CarState(x=0.0, y=0.0, theta=float(local.uniform(0.0, TWO_PI)),
                      t=0.0)
        step = min(0.01, 5e-4 * R1 / (v1 - v2))
        track = propagate_car(evader, e0, law, t=horizon, step=step)
        angle = float(local.uniform(0.0, TWO_PI))
        p0 = CarState(x=gap0 * math.sin(angle), y=gap0 * math.cos(angle),
                      theta=float(local.uniform(0.0, TWO_PI)), t=0.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert result.captured, f"seed {seed} escaped"
        assert result.capture_time <= bound, f"seed {seed} too slow"

    for v, gap in ((0.7, 2.0), (1.0, 3.0), (2.5, 8.0)):
        pursuer = CarConfig(v=v, R=1.0)
        evader = CarConfig(v=v, R=1.0)
        e0 = CarState(x=0.0, y=gap, theta=0.0, t=0.0)
        track = propagate_car(evader, e0, SteeringLaw.constant(0.0, evader),
                              t=15.0, step=0.01)
        p0 = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
        result = explicit_policy_pursuit(pursuer, evader, p0, track)
        assert not result.captured
        evader_pos = np.column_stack([
            np.interp(result.path.times, track.times, track.states[:, 0]),
            np.interp(result.path.times, track.times, track.states[:, 1])])
        gaps = np.linalg.norm(result.path.positions - evader_pos, axis=1)
        assert np.all(np.diff(gaps) >= -1e-9)
    assert time.perf_counter() - start < 20.0


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Identical seeded invocations produce byte-identical outputs."""
    runs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"contain_{tag}.report"
        code = main(["contain", "--builtin", "fy1c", "--samples", "200",
                     "--grid", "7", "--seed", "3", "--out", str(out)])
        assert code == 0
        runs[tag] = (out.read_bytes(), capsys.readouterr().out)
    assert runs["a"] == runs["b"]

    eph = {}
    for tag in ("a", "b"):
        out = tmp_path / f"eph_{tag}.csv"
        code = main(["propagate", "--builtin", "fy1c", "--out", str(out)])
        assert code == 0
        eph[tag] = out.read_bytes()
    assert eph["a"] == eph["b"]

    game = TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                       evader=CarConfig(v=1.0, R=1.0),
                       horizon=26.0, headstart=TWO_PI)
    scn_path = tmp_path / "cars.cone"
    save_scenario(Scenario(name="cars", twocars=game,
                           sampling=SamplingSpec(n_samples=128, time_grid=9,
                                                 seed=1)), scn_path)
    cars = {}
    for tag in ("a", "b"):
        out = tmp_path / f"cars_{tag}.report"
        code = main(["twocars", "--scenario", str(scn_path),
                     "--out", str(out)])
        assert code == 0
        cars[tag] = out.read_bytes()
    assert cars["a"] == cars["b"]
