"""Command-line interface: exit codes, golden files, determinism."""
from __future__ import annotations

import math

import numpy as np
import pytest

from futurecone.cli import main
from futurecone.cone import ConeSpec
from futurecone.constants import EARTH_RADIUS_KM, MU_EARTH
from futurecone.kepler import StateVector, arc_from_state, state_at
from futurecone.maneuver import ImpulsiveSchedule, ShockEvent, propagate_schedule
from futurecone.scenario_io import SamplingSpec, Scenario, TwoCarsGame, save_scenario
from futurecone.twocars import CarConfig

TWO_PI = 2.0 * math.pi
LEO_R = EARTH_RADIUS_KM + 860.0
LEO_V = math.sqrt(MU_EARTH / LEO_R)


def leo_vertex(t: float = 0.0) -> StateVector:
    return StateVector(r=(LEO_R, 0.0, 0.0), v=(0.0, LEO_V, 0.0), t=t)


def orbital_file(tmp_path, *, interceptor_budget=0.5, target_budget=0.01,
                 shocks=(), name="demo"):
    scn = Scenario(
        name=name,
        interceptor=ConeSpec(vertex=leo_vertex(), budget=interceptor_budget,
                             window=(100.0, 900.0)),
        target=ConeSpec(vertex=leo_vertex(), budget=target_budget,
                        window=(200.0, 400.0)),
        shocks=tuple(shocks),
        sampling=SamplingSpec(n_samples=40, time_grid=3, seed=0))
    path = tmp_path / f"{name}.cone"
    save_scenario(scn, path)
    return path, scn


def twocars_file(tmp_path, pursuer: CarConfig, evader: CarConfig,
                 name="cars", seed=0):
    headstart = TWO_PI * pursuer.R / pursuer.v
    horizon = headstart + 20.0 * max(pursuer.R / pursuer.v,
                                     evader.R / evader.v)
    scn = Scenario(name=name,
                   twocars=TwoCarsGame(pursuer=pursuer, evader=evader,
                                       horizon=horizon, headstart=headstart),
                   sampling=SamplingSpec(n_samples=64, time_grid=9,
                                         seed=seed))
    path = tmp_path / f"{name}.cone"
    save_scenario(scn, path)
    return path, scn


def report_fields(path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines[1:])


def usage_error(argv, capsys) -> None:
    """Run main on flags argparse must refuse: exit 1, one error line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("futurecone: error:")
    assert err.count("\n") == 1


class TestFlagGrammar:
    """Flag-grammar invariants, enforced by the parser alone."""

    def test_rejects_unknown_command(self, capsys):
        usage_error(["plot", "--scenario", "x.cone", "--out", "o"], capsys)

    def test_rejects_both_sources(self, capsys):
        usage_error(["contain", "--scenario", "x.cone", "--builtin", "fy1c",
                     "--out", "o"], capsys)

    def test_rejects_neither_source(self, capsys):
        usage_error(["contain", "--out", "o"], capsys)

    def test_rejects_unknown_format(self, capsys):
        usage_error(["contain", "--scenario", "x.cone", "--out", "o",
                     "--format", "vrml"], capsys)


class TestPropagate:
    """Trajectory export through the shock schedule."""

    def test_ballistic_matches_kepler(self, tmp_path):
        path, scn = orbital_file(tmp_path)
        out = tmp_path / "eph.csv"
        code = main(["propagate", "--scenario", str(path), "--grid", "9",
                     "--out", str(out)])
        assert code == 0
        arc = arc_from_state(scn.target.vertex)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,body_tag,margin"
        assert len(lines) == 10
        for line, t in zip(lines[1:], np.linspace(0.0, 400.0, 9)):
            cells = line.split(",")
            assert float(cells[0]) == t
            np.testing.assert_allclose([float(c) for c in cells[1:4]],
                                       state_at(arc, float(t)).r, rtol=1e-12)

    def test_five_shock_schedule_matches_library(self, tmp_path):
        shocks = tuple(ShockEvent(t=220.0 + 20.0 * k,
                                  dv=(0.001 * (k + 1), -0.0005 * k, 0.0002))
                       for k in range(5))
        path, scn = orbital_file(tmp_path, shocks=shocks, name="burns")
        out = tmp_path / "eph.csv"
        code = main(["propagate", "--scenario", str(path), "--grid", "11",
                     "--out", str(out)])
        assert code == 0
        budget = float(sum(np.linalg.norm(s.dv) for s in shocks))
        traj = propagate_schedule(
            scn.target.vertex, ImpulsiveSchedule(shocks=shocks, budget=budget),
            t_end=400.0)
        for line, t in zip(out.read_text().splitlines()[1:],
                           np.linspace(0.0, 400.0, 11)):
            cells = line.split(",")
            assert [float(c) for c in cells[1:4]] == traj.state_at(
                float(t)).r.tolist()

    def test_unbound_shock_exits_2(self, tmp_path, capsys):
        path, _ = orbital_file(
            tmp_path, shocks=(ShockEvent(t=250.0, dv=(0.0, 8.0, 0.0)),),
            name="unbound")
        code = main(["propagate", "--scenario", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("futurecone: error:")
        assert "unbound" in err
        assert err.count("\n") == 1

    def test_report_format_is_rejected(self, tmp_path, capsys):
        path, _ = orbital_file(tmp_path)
        code = main(["propagate", "--scenario", str(path), "--format",
                     "report", "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert capsys.readouterr().err.startswith("futurecone: error:")


class TestContain:
    """Containment verdicts and their exit codes."""

    def test_identical_cones_exit_0(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.01,
                               target_budget=0.01, name="same")
        out = tmp_path / "v.report"
        code = main(["contain", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        fields = report_fields(out)
        assert fields["contained"] == "true"
        assert fields["fraction_contained"] == "1.0"

    def test_fat_target_exits_3_and_writes_report(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.001,
                               target_budget=0.01, name="fat")
        out = tmp_path / "v.report"
        code = main(["contain", "--scenario", str(path), "--out", str(out)])
        assert code == 3
        fields = report_fields(out)
        assert fields["contained"] == "false"
        assert float(fields["worst_margin"]) < 0.0

    def test_builtin_fy1c_contained(self, tmp_path):
        out = tmp_path / "fy1c.report"
        code = main(["contain", "--builtin", "fy1c", "--samples", "150",
                     "--grid", "5", "--out", str(out)])
        assert code == 0
        fields = report_fields(out)
        assert fields["contained"] == "true"
        assert fields["fraction_contained"] == "1.0"
        assert fields["samples"] == "750"

    def test_sampling_overrides_apply(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.01,
                               target_budget=0.01, name="knobs")
        out = tmp_path / "v.report"
        code = main(["contain", "--scenario", str(path), "--samples", "20",
                     "--grid", "4", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert report_fields(out)["samples"] == "80"

    def test_csv_format_writes_worst_row(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.01,
                               target_budget=0.01, name="csv")
        out = tmp_path / "v.csv"
        code = main(["contain", "--scenario", str(path), "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,body_tag,margin"
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "worst"


class TestTwoCars:
    """Side-by-side game verdicts."""

    def test_dominating_pursuer_both_true(self, tmp_path):
        path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                               CarConfig(v=1.0, R=1.0))
        out = tmp_path / "v.report"
        code = main(["twocars", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        fields = report_fields(out)
        assert fields["cockayne_intercept"] == "true"
        assert fields["equivalence_contained"] == "true"
        assert fields["agree"] == "true"
        assert fields["witness"] == "none"

    def test_equal_pair_both_false(self, tmp_path):
        path, _ = twocars_file(tmp_path, CarConfig(v=1.0, R=1.0),
                               CarConfig(v=1.0, R=1.0), name="equal")
        out = tmp_path / "v.report"
        code = main(["twocars", "--scenario", str(path), "--out", str(out)])
        assert code == 3
        fields = report_fields(out)
        assert fields["cockayne_intercept"] == "false"
        assert fields["equivalence_contained"] == "false"
        assert fields["agree"] == "true"
        assert fields["witness"] != "none"
        assert len(fields["witness"].split(", ")) == 3

    def test_random_pair_agrees(self, tmp_path):
        rng = np.random.default_rng(11)
        pursuer = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                            R=float(rng.uniform(0.5, 3.0)))
        evader = CarConfig(v=float(rng.uniform(0.5, 3.0)),
                           R=float(rng.uniform(0.5, 3.0)))
        path, _ = twocars_file(tmp_path, pursuer, evader, name="rand")
        out = tmp_path / "v.report"
        code = main(["twocars", "--scenario", str(path), "--out", str(out)])
        assert code in (0, 3)
        assert report_fields(out)["agree"] == "true"

    def test_csv_format_is_rejected(self, tmp_path, capsys):
        path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                               CarConfig(v=1.0, R=1.0))
        code = main(["twocars", "--scenario", str(path), "--format", "csv",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("futurecone: error:")


class TestErrorPaths:
    """Diagnostics and exit-code mapping."""

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["contain", "--scenario", str(tmp_path / "no.cone"),
                     "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert capsys.readouterr().err.startswith("futurecone: error:")

    def test_parse_error_exits_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cone"
        bad.write_text("name = x\nwat\n")
        code = main(["contain", "--scenario", str(bad),
                     "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_builtin_exits_1(self, tmp_path, capsys):
        code = main(["contain", "--builtin", "nope",
                     "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_kind_mismatch_exits_1(self, tmp_path, capsys):
        path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                               CarConfig(v=1.0, R=1.0))
        code = main(["contain", "--scenario", str(path),
                     "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert "orbital" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["contain", "--out", "x.report"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("futurecone: error:")
        assert err.count("\n") == 1

    def test_bad_sampling_override_exits_1(self, tmp_path, capsys):
        path, _ = orbital_file(tmp_path)
        code = main(["contain", "--scenario", str(path), "--samples", "0",
                     "--out", str(tmp_path / "x.report")])
        assert code == 1
        assert capsys.readouterr().err.startswith("futurecone: error:")


class TestDeterminism:
    """Identical invocations produce identical bytes."""

    def test_contain_reruns_are_byte_identical(self, tmp_path, capsys):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.05,
                               target_budget=0.01, name="det")
        flags = ["contain", "--scenario", str(path), "--seed", "5"]
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        main(flags + ["--out", str(a)])
        out_a = capsys.readouterr().out
        main(flags + ["--out", str(b)])
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b

    def test_propagate_reruns_are_byte_identical(self, tmp_path):
        shocks = (ShockEvent(t=250.0, dv=(0.002, 0.001, 0.0)),)
        path, _ = orbital_file(tmp_path, shocks=shocks, name="det2")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["propagate", "--scenario", str(path), "--out", str(a)])
        main(["propagate", "--scenario", str(path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_twocars_reruns_are_byte_identical(self, tmp_path):
        path, _ = twocars_file(tmp_path, CarConfig(v=1.7, R=0.9),
                               CarConfig(v=1.1, R=1.4), name="det3")
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        main(["twocars", "--scenario", str(path), "--out", str(a)])
        main(["twocars", "--scenario", str(path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_the_draw(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.05,
                               target_budget=0.01, name="seeds")
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        main(["contain", "--scenario", str(path), "--seed", "1",
              "--format", "csv", "--out", str(a)])
        main(["contain", "--scenario", str(path), "--seed", "2",
              "--format", "csv", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()
