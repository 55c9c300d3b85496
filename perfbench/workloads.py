"""The four benchmark workloads, each with its inputs and output checks.

A workload is built from a seed and serves numbered requests: request i
draws its inputs from the seed and i alone, so the same seed gives the
same requests in the same order. ``request`` is the timed part; it calls
the program only through module attributes, so a tracer installed on
those attributes sees every call. ``check`` is untimed: it verifies the
output against an oracle and returns the work units the request
completed, or raises CheckFailed.

Why these four:

* fy1c_contain: the headline command, ``futurecone contain --builtin
  fy1c``, at 200 draws on the scenario's own 51-step time grid per
  request (a tenth of its 2000x51 sampling, so that a run holds several
  requests). Zero-revolution Lambert only, one solution per point, no
  arc rejected by the floor. A run with seed 0 also runs the command at
  the full 2000x51 sampling, untimed, and checks its pinned result.
* leo_multirev_contain: the same CLI path and layers on a co-orbital
  LEO scenario whose window spans more than one revolution, so the
  one-revolution Lambert bands run and half the arcs fail the floor
  check. An engine that is fast on zero-rev only shows up here.
* burn_chains: finite burns, shock chains, ephemeris export and the
  single-burn certification; the only workload where ``maneuver`` and
  ``scenario_io`` do the work, and where ``kepler`` answers many
  queries per arc.
* twocars_pursuit: the planar game, checked against Cockayne's
  closed-form inequalities; the only workload for ``twocars``.
"""
from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

# Pinned headline result: fy1c at its own 2000x51 sampling and seed 0.
FY1C_SEED0_SAMPLES = 102000
FY1C_SEED0_WORST_MARGIN = 0.6934002990995162
FY1C_SEED0_TOL = 1e-12
# A Lambert departure burn propagated over the transfer time must land
# within this fraction of the target radius, and reproduce the reported
# margin within MARGIN_TOL km/s.
LANDING_REL_TOL = 1e-8
MARGIN_TOL = 1e-9
# Criterion 4: shock-chain endpoint error relative to the thrust-induced
# displacement, and the certification slack on the single burn.
CHAIN_REL_TOL = 1e-4
CERTIFY_SLACK = 1e-6
# Request seeds for the CLI are seed + SEED_STRIDE * i, so request 0
# runs the run's own seed.
SEED_STRIDE = 1000


# Golden-ratio step of the even draws below.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def even_draw(seed: int, i: int) -> float:
    """Uniform draw in [0, 1) for request i that spreads evenly over runs.

    A golden-ratio sequence from a seeded start: each value is uniform,
    and any run of consecutive requests covers [0, 1) about evenly. Used
    for the input that sets a request's cost, so that every run sees
    the same mix of request sizes whatever its seed and length.
    """
    start = float(np.random.default_rng([seed]).uniform())
    return (start + i * _GOLDEN) % 1.0


class CheckFailed(Exception):
    """A request's output disagreed with its oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class _Workload:
    """Shared shape; subclasses fill in inputs, request and check."""

    name = ""
    unit = ""
    # Requests replayed with tracing on; fixed so counters repeat.
    traced_requests = 1
    # Floor radius of the containment floor check, km; None when the
    # workload runs no containment.
    floor_radius: float | None = None

    def __init__(self, fc, root: str, out_dir: str, seed: int) -> None:
        self.fc = fc
        self.out_dir = out_dir
        self.seed = seed

    def warmup(self) -> bool:
        """Run untimed work first; False when two runs of one seed differ.

        Raises CheckFailed or the program's errors when the work fails.
        """
        self.check(0, self.request(0))
        return True


# ---------------------------------------------------------------------------
# containment through the CLI


class _ContainWorkload(_Workload):
    unit = "points"
    # CLI arguments that set the size of one timed request.
    request_args: tuple[str, ...] = ()
    # Reduced sampling for the warm-up runs that also check that two
    # runs with one seed write identical report bytes.
    repeat_args = ("--samples", "40", "--grid", "6")

    def __init__(self, fc, root, out_dir, seed):
        super().__init__(fc, root, out_dir, seed)
        self.scenario = self.load()
        self.interceptor = self.scenario.interceptor
        self.floor_radius = (fc.constants.EARTH_RADIUS_KM
                             + self.scenario.floor_km)
        self.report_path = os.path.join(out_dir, f"{self.name}.report")

    def source(self) -> list[str]:
        raise NotImplementedError

    def load(self):
        raise NotImplementedError

    def cli_seed(self, i: int) -> int:
        return self.seed + SEED_STRIDE * i

    def _contain(self, extra: list[str], out: str) -> int:
        argv = ["contain", *self.source(), *extra, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.fc.cli.main(argv)

    def request(self, i: int):
        code = self._contain([*self.request_args,
                              "--seed", str(self.cli_seed(i))],
                             self.report_path)
        if code not in (0, 3):
            raise CheckFailed(f"contain exited {code}")
        return code

    def warmup(self) -> bool:
        self.check_headline()
        reports = []
        for tag in ("a", "b"):
            path = os.path.join(self.out_dir, f"{self.name}.repeat-{tag}")
            extra = [*self.repeat_args, "--seed", str(self.seed)]
            code = self._contain(extra, path)
            if code not in (0, 3):
                raise CheckFailed(f"contain exited {code}")
            with open(path, "rb") as handle:
                reports.append(handle.read())
        return reports[0] == reports[1]

    def check(self, i: int, code: int) -> int:
        fields = _report_fields(self.report_path)
        contained = fields["contained"] == "true"
        fraction = float(fields["fraction_contained"])
        margin = float(fields["worst_margin"])
        point = np.array([float(x) for x in fields["worst_point_r"].split(",")])
        t = float(fields["worst_point_t"])
        samples = int(fields["samples"])
        _require(samples > 0, "no points tested")
        _require(contained == (code == 0), "exit code contradicts verdict")
        _require(contained == (fraction == 1.0),
                 "verdict contradicts the member fraction")
        _require(math.isfinite(margin), "worst margin is not finite")
        self.check_worst_point(point, t, margin)
        return samples

    def check_headline(self) -> None:
        """Check a pinned result, where the workload has one."""

    def check_worst_point(self, point: np.ndarray, t: float,
                          margin: float) -> None:
        """The worst point's cheapest burn lands on it and sets the margin.

        Among the Lambert arcs from the interceptor vertex to the worst
        point, one must reproduce the reported margin as budget minus
        its departure burn, and that arc, propagated by Kepler's
        equation, must arrive at the point.
        """
        kepler = self.fc.kepler
        spec = self.interceptor
        dt = t - spec.vertex.t
        sols = self.fc.lambert.solve_lambert(spec.vertex.r, point, dt,
                                             spec.mu, 1)
        for sol in sols:
            burn = float(np.linalg.norm(sol.v_depart - spec.vertex.v))
            if abs(spec.budget - burn - margin) > MARGIN_TOL:
                continue
            depart = kepler.StateVector(spec.vertex.r, sol.v_depart,
                                        spec.vertex.t)
            landed = kepler.propagate_time(depart, dt, spec.mu).r
            miss = float(np.linalg.norm(landed - point))
            _require(miss <= LANDING_REL_TOL * float(np.linalg.norm(point)),
                     f"worst-point arc misses the point by {miss!r} km")
            return
        raise CheckFailed(
            f"no Lambert arc to the worst point gives margin {margin!r}")


def _report_fields(path: str) -> dict[str, str]:
    """The fields of a verdict report the CLI wrote."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _require(bool(lines) and lines[0] == "containment_report",
             "not a containment report")
    return dict(line.split(" = ", 1) for line in lines[1:])


class Fy1cContain(_ContainWorkload):
    name = "fy1c_contain"
    request_args = ("--samples", "200")
    traced_requests = 2

    def source(self):
        return ["--builtin", "fy1c"]

    def load(self):
        return self.fc.scenario_io.builtin_scenario("fy1c")

    def check_headline(self) -> None:
        """At seed 0, the full 2000x51 command gives the pinned verdict."""
        if self.seed != 0:
            return
        code = self._contain(["--seed", "0"], self.report_path)
        _require(code == 0, f"seed 0 exited {code}, not contained")
        fields = _report_fields(self.report_path)
        samples = int(fields["samples"])
        margin = float(fields["worst_margin"])
        _require(fields["contained"] == "true"
                 and float(fields["fraction_contained"]) == 1.0,
                 "seed 0 is not contained")
        _require(samples == FY1C_SEED0_SAMPLES,
                 f"seed 0 tested {samples} points")
        _require(abs(margin - FY1C_SEED0_WORST_MARGIN) <= FY1C_SEED0_TOL,
                 f"seed 0 worst margin {margin!r}")
        self.check(0, code)


class LeoMultirevContain(_ContainWorkload):
    name = "leo_multirev_contain"
    traced_requests = 4

    def __init__(self, fc, root, out_dir, seed):
        self.path = os.path.join(root, "perfbench", "scenarios",
                                 "leo_multirev.cone")
        super().__init__(fc, root, out_dir, seed)

    def source(self):
        return ["--scenario", self.path]

    def load(self):
        return self.fc.scenario_io.load_scenario(self.path)


# ---------------------------------------------------------------------------
# finite burns as shock chains

# Criterion 4's profile shapes in the orbit's own frame: a rotating
# along-track push, a rotating radial push, and a fixed direction
# modulated by sin(t / 200 s). The rotating pushes take a random phase;
# the fixed direction keeps criterion 4's zero phase, because a random
# phase can cancel most of its net push, and the chain error relative to
# that push then reached 3.9e-4 in 150 draws (the absolute error stayed
# near 4e-5 km), over criterion 4's 1e-4.
_SHAPES = ("along", "radial", "fixed")
_EXPORT_ROWS = 1000
_SHOCKS = 256


class BurnChains(_Workload):
    name = "burn_chains"
    unit = "chains"
    traced_requests = 12

    def __init__(self, fc, root, out_dir, seed):
        super().__init__(fc, root, out_dir, seed)
        self.csv_path = os.path.join(out_dir, f"{self.name}.csv")

    def inputs(self, i: int):
        """Origin, horizon and thrust profile of chain i."""
        fc = self.fc
        rng = np.random.default_rng([self.seed, i])
        mu = fc.constants.MU_EARTH
        radius = float(rng.uniform(6778.0, 7378.0))
        inc = float(rng.uniform(0.0, math.pi))
        node = float(rng.uniform(0.0, 2.0 * math.pi))
        # in-plane unit vectors at the origin: radial p, along-track q
        p = np.array([math.cos(node), math.sin(node), 0.0])
        q = np.array([-math.sin(node) * math.cos(inc),
                      math.cos(node) * math.cos(inc), math.sin(inc)])
        speed = math.sqrt(mu / radius)
        origin = fc.kepler.StateVector(radius * p, speed * q, 0.0)
        rate = speed / radius
        horizon = (0.1 + 0.2 * even_draw(self.seed, i)) * 2.0 * math.pi / rate
        amp = float(rng.uniform(1e-6, 4e-6))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        shape = _SHAPES[(self.seed + i) % len(_SHAPES)]
        if shape == "along":
            def accel(t):
                a = rate * t + phase
                return amp * (-math.sin(a) * p + math.cos(a) * q)
        elif shape == "radial":
            def accel(t):
                a = rate * t + phase
                return amp * (math.cos(a) * p + math.sin(a) * q)
        else:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)

            def accel(t):
                return amp * math.sin(t / 200.0) * axis
        profile = fc.maneuver.ThrustProfile(accel, (0.0, horizon))
        return origin, horizon, profile

    def request(self, i: int):
        maneuver = self.fc.maneuver
        origin, horizon, profile = self.inputs(i)
        reference = maneuver.integrate_thrust(origin, profile).endpoint
        schedule = maneuver.shock_approximation(profile, _SHOCKS)
        chain = maneuver.propagate_schedule(origin, schedule, horizon)
        end = chain.state_at(horizon)
        times = np.linspace(0.0, horizon, _EXPORT_ROWS)
        self.fc.scenario_io.export_points(chain, self.csv_path,
                                          body_tag="chain", times=times)
        dv0 = self.fc.cone.reduce_to_single_burn(chain)
        return origin, horizon, reference, schedule, end, dv0

    def check(self, i: int, output) -> int:
        kepler = self.fc.kepler
        origin, horizon, reference, schedule, end, dv0 = output
        coast = kepler.propagate_time(origin, horizon).r
        scale = float(np.linalg.norm(reference.r - coast))
        error = float(np.linalg.norm(end.r - reference.r)) / scale
        _require(error < CHAIN_REL_TOL,
                 f"chain endpoint off the integrated one by {error!r}")
        mag = float(np.linalg.norm(dv0))
        _require(mag <= schedule.total_dv + CERTIFY_SLACK,
                 f"single burn {mag!r} km/s over the schedule total")
        landed = _coast(origin.r, origin.v + dv0, horizon,
                        self.fc.constants.MU_EARTH)
        miss = float(np.linalg.norm(landed - end.r))
        _require(miss <= LANDING_REL_TOL * float(np.linalg.norm(end.r)),
                 f"single burn misses the chain endpoint by {miss!r} km")
        with open(self.csv_path, encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        _require(len(rows) == _EXPORT_ROWS + 1, "wrong ephemeris row count")
        last = rows[-1].split(",")
        _require(float(last[0]) == horizon
                 and [float(x) for x in last[1:4]] == end.r.tolist(),
                 "ephemeris does not end at the chain endpoint")
        return 1


def _coast(r0: np.ndarray, v0: np.ndarray, dt: float, mu: float) -> np.ndarray:
    """Position after a two-body coast, by numerical integration.

    Independent of the program's Kepler solver, which loses about 1e-8
    of the radius on near-circular arcs (a tangential single burn on a
    circular orbit starts one exactly at an apsis); the integrator
    reaches about 1e-13.
    """
    # imported here so that the program's set-up time does not include it
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        r = y[:3]
        return np.concatenate([y[3:], -mu / float(r @ r) ** 1.5 * r])

    done = solve_ivp(rhs, (0.0, dt), np.concatenate([r0, v0]),
                     method="DOP853", rtol=1e-12, atol=1e-9)
    if not done.success:
        raise CheckFailed(f"reference coast failed: {done.message}")
    return done.y[:3, -1]


# ---------------------------------------------------------------------------
# Two Cars pursuit games


class TwocarsPursuit(_Workload):
    name = "twocars_pursuit"
    unit = "games"
    traced_requests = 6

    def inputs(self, i: int):
        """Criterion 8's game distribution, one draw per request."""
        tc = self.fc.twocars
        rng = np.random.default_rng([self.seed, i])
        v2 = float(rng.uniform(0.5, 1.5))
        v1 = v2 + float(rng.uniform(0.4, 1.0))
        r1 = float(rng.uniform(0.5, 1.0))
        r2 = r1 + float(rng.uniform(0.0, 1.0))
        pursuer = tc.CarConfig(v=v1, R=r1)
        evader = tc.CarConfig(v=v2, R=r2)
        # the gap sets the track length, hence most of the game's cost
        gap0 = (2.0 + 4.0 * even_draw(self.seed, i)) * r1
        bound = 10.0 * gap0 / (v1 - v2)
        horizon = 1.2 * bound
        u2 = evader.admissible_rate
        switches = np.sort(rng.uniform(0.0, horizon, 8))
        rates = rng.uniform(-0.8 * u2, 0.8 * u2, 9)
        law = tc.SteeringLaw.piecewise(switches, rates, evader)
        e0 = tc.CarState(x=0.0, y=0.0, theta=float(rng.uniform(0.0, tc.TWO_PI)),
                         t=0.0)
        step = min(0.01, 5e-4 * r1 / (v1 - v2))
        angle = float(rng.uniform(0.0, tc.TWO_PI))
        p0 = tc.CarState(x=gap0 * math.sin(angle), y=gap0 * math.cos(angle),
                         theta=float(rng.uniform(0.0, tc.TWO_PI)), t=0.0)
        return pursuer, evader, law, e0, p0, horizon, step, bound

    def request(self, i: int):
        tc = self.fc.twocars
        pursuer, evader, law, e0, p0, horizon, step, bound = self.inputs(i)
        track = tc.propagate_car(evader, e0, law, horizon, step)
        chase = tc.explicit_policy_pursuit(pursuer, evader, p0, track)
        verdicts = []
        for p, e in ((pursuer, evader), (evader, pursuer)):
            headstart = tc.TWO_PI * p.R / p.v
            span = headstart + 20.0 * max(p.R / p.v, e.R / e.v)
            verdicts.append(tc.containment_equivalence(
                p, e, horizon=span, headstart=headstart))
        return pursuer, evader, bound, chase, verdicts

    def check(self, i: int, output) -> int:
        pursuer, evader, bound, chase, (forward, swapped) = output
        _require(chase.captured, "the evader escaped")
        _require(chase.capture_time <= bound,
                 f"capture at {chase.capture_time!r} s, bound {bound!r} s")
        _require(forward.contained == cockayne(pursuer, evader),
                 "forward verdict disagrees with Cockayne")
        _require(swapped.contained == cockayne(evader, pursuer),
                 "swapped verdict disagrees with Cockayne")
        return 1


def cockayne(pursuer, evader) -> bool:
    """Cockayne's inequalities, written out independently of the program:
    strictly faster, and at least the evader's lateral acceleration."""
    return (pursuer.v > evader.v
            and pursuer.v ** 2 / pursuer.R >= evader.v ** 2 / evader.R)


WORKLOADS = {w.name: w for w in (Fy1cContain, LeoMultirevContain,
                                 BurnChains, TwocarsPursuit)}
