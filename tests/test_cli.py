"""Command-line interface: exit codes, golden files, determinism."""
from __future__ import annotations

import hashlib
import math
import platform
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from futurecone import cli
from futurecone.cli import main
from futurecone.cone import ConeSpec
from futurecone.constants import EARTH_RADIUS_KM, MU_EARTH
from futurecone.kepler import StateVector, arc_from_state, state_at
from futurecone.maneuver import ImpulsiveSchedule, propagate_schedule
from futurecone.scenario_io import (
    SamplingSpec,
    Scenario,
    TwoCarsGame,
    load_scenario,
    save_scenario,
)
from futurecone.twocars import CarConfig

TWO_PI = 2.0 * math.pi
LEO_MULTIREV = (Path(__file__).resolve().parents[1] / "perfbench"
                / "scenarios" / "leo_multirev.cone")
LEO_R = EARTH_RADIUS_KM + 860.0
LEO_V = math.sqrt(MU_EARTH / LEO_R)

# A target that burns five times inside its window, written as a person
# would write it (not in canonical form).
FIVE_SHOCKS = """\
name = chain5
[interceptor]
r_km = 7238.137, 0, 0
v_km_s = 0, 7.42, 0.01
t_s = 0
budget_km_s = 0.5
window_s = 100, 900
[target]
r_km = 7238.137, 0, 0
v_km_s = 0, 7.4208, 0
t_s = 0
budget_km_s = 0.02
window_s = 200, 1500
[shock]
t_s = 210.5
dv_km_s = 1e-3, -2e-3, 0
[shock]
t_s = 400
dv_km_s = 0, 0.0031, 1.7e-4
[shock]
t_s = 612.25
dv_km_s = -0.004, 0.001, -0.0025
[shock]
t_s = 800
dv_km_s = 0.0123, 0, 0
[shock]
t_s = 1333.3333
dv_km_s = -1e-5, 2e-5, -3e-5
[sampling]
n_samples = 40
time_grid = 61
seed = 0
"""


def leo_vertex(t: float = 0.0) -> StateVector:
    return StateVector(r=(LEO_R, 0.0, 0.0), v=(0.0, LEO_V, 0.0), t=t)


def orbital_file(tmp_path, *, interceptor_budget=0.5, target_budget=0.01,
                 shocks=ImpulsiveSchedule(), name="demo"):
    scn = Scenario(
        name=name,
        interceptor=ConeSpec(vertex=leo_vertex(), budget=interceptor_budget,
                             window=(100.0, 900.0)),
        target=ConeSpec(vertex=leo_vertex(), budget=target_budget,
                        window=(200.0, 400.0)),
        shocks=shocks,
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


    @pytest.mark.parametrize("command, solver, fmt", [
        ("propagate", "propagate_schedule", "report"),
        ("twocars", "containment_equivalence", "csv"),
    ])
    def test_format_the_command_lacks_fails_before_any_solve(
            self, tmp_path, capsys, monkeypatch, command, solver, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{solver} ran")

        monkeypatch.setattr(cli, solver, refuse)
        if command == "propagate":
            path, _ = orbital_file(tmp_path)
        else:
            path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                                   CarConfig(v=1.0, R=1.0))
        out = tmp_path / "x.out"
        usage_error([command, "--scenario", str(path), "--format", fmt,
                     "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    @pytest.mark.parametrize("command, solver", [
        ("propagate", "propagate_schedule"),
        ("twocars", "containment_equivalence"),
    ], ids=["propagate", "twocars"])
    def test_draw_flags_are_refused(self, tmp_path, capsys, monkeypatch,
                                    command, solver, flag):
        """Commands that make no random draws take no draw flags: the
        parser refuses them before any solve."""
        def refuse(*args, **kwargs):
            raise AssertionError(f"{solver} ran")

        monkeypatch.setattr(cli, solver, refuse)
        if command == "propagate":
            path, _ = orbital_file(tmp_path)
        else:
            path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                                   CarConfig(v=1.0, R=1.0))
        out = tmp_path / "x.out"
        usage_error([command, "--scenario", str(path), flag, "5",
                     "--out", str(out)], capsys)
        assert not out.exists()


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
        shocks = ImpulsiveSchedule(
            [220.0 + 20.0 * k for k in range(5)],
            [(0.001 * (k + 1), -0.0005 * k, 0.0002) for k in range(5)])
        path, scn = orbital_file(tmp_path, shocks=shocks, name="burns")
        out = tmp_path / "eph.csv"
        code = main(["propagate", "--scenario", str(path), "--grid", "11",
                     "--out", str(out)])
        assert code == 0
        traj = propagate_schedule(scn.target.vertex, shocks, t_end=400.0)
        for line, t in zip(out.read_text().splitlines()[1:],
                           np.linspace(0.0, 400.0, 11)):
            cells = line.split(",")
            assert [float(c) for c in cells[1:4]] == traj.state_at(
                float(t)).r.tolist()

    def test_unbound_shock_exits_2(self, tmp_path, capsys):
        path, _ = orbital_file(
            tmp_path, shocks=ImpulsiveSchedule([250.0], [(0.0, 8.0, 0.0)]),
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
        usage_error(["propagate", "--scenario", str(path), "--format",
                     "report", "--out", str(tmp_path / "x.report")], capsys)


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
        usage_error(["twocars", "--scenario", str(path), "--format", "csv",
                     "--out", str(tmp_path / "x.csv")], capsys)

    def test_grid_flag_sets_the_time_grid(self, tmp_path, monkeypatch):
        grids = []
        verdict = cli.containment_equivalence

        def recorded(*args, time_grid, **kwargs):
            grids.append(time_grid)
            return verdict(*args, time_grid=time_grid, **kwargs)

        monkeypatch.setattr(cli, "containment_equivalence", recorded)
        path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                               CarConfig(v=1.0, R=1.0))
        out = tmp_path / "v.report"
        main(["twocars", "--scenario", str(path), "--out", str(out)])
        main(["twocars", "--scenario", str(path), "--grid", "4",
              "--out", str(out)])
        assert grids == [9, 4]


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

    @pytest.mark.parametrize("name", ["../data/fy1c", "nope"])
    def test_builtin_outside_the_bundle_exits_1(self, tmp_path, capsys, name):
        out = tmp_path / "x.report"
        code = main(["contain", "--builtin", name, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("futurecone: error: unknown built-in scenario")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nan_budget_exits_1_without_verdict(self, tmp_path, capsys):
        path, _ = orbital_file(tmp_path)
        path.write_text(path.read_text().replace("budget_km_s = 0.5",
                                                 "budget_km_s = nan"))
        out = tmp_path / "x.report"
        code = main(["contain", "--scenario", str(path), "--out", str(out)])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_horizon_exits_1_without_verdict(self, tmp_path,
                                                      capsys):
        """An infinite horizon once gave a contained verdict that
        disagreed with Cockayne, from a grid of nan times."""
        car = CarConfig(v=1.0, R=1.0)
        path, _ = twocars_file(tmp_path, car, car)
        text = path.read_text()
        start = text.index("horizon = ")
        end = text.index("\n", start)
        path.write_text(text[:start] + "horizon = inf" + text[end:])
        out = tmp_path / "x.report"
        code = main(["twocars", "--scenario", str(path), "--out", str(out)])
        assert code == 1
        assert "[game] horizon must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--samples", "--grid"])
    def test_sampling_over_the_cap_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "r.txt"
        code = main(["contain", "--builtin", "fy1c", flag, "1000000000000",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("futurecone: error:")
        assert "capped" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["propagate", "twocars"])
    def test_grid_over_the_cap_exits_2(self, tmp_path, capsys, command):
        if command == "propagate":
            source = ["--builtin", "fy1c"]
        else:
            path, _ = twocars_file(tmp_path, CarConfig(v=2.0, R=1.0),
                                   CarConfig(v=1.0, R=1.0))
            source = ["--scenario", str(path)]
        out = tmp_path / "x.out"
        code = main([command, *source, "--grid", "1000000000000",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("futurecone: error:")
        assert "capped" in err
        assert err.count("\n") == 1
        assert not out.exists()

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
        shocks = ImpulsiveSchedule([250.0], [(0.002, 0.001, 0.0)])
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

    def test_reused_parser_keeps_no_flag_of_an_earlier_call(self, tmp_path,
                                                            capsys):
        """The parser is built once per process: a call without --seed
        and --samples after one with them writes the bytes of a fresh
        parser, and a later usage error still exits 1 on one line."""
        first, second, fresh = (tmp_path / f"{name}.report"
                                for name in ("first", "second", "fresh"))
        flags = ["contain", "--builtin", "fy1c", "--grid", "6"]
        main(flags + ["--seed", "5", "--samples", "40", "--out", str(first)])
        main(flags + ["--out", str(second)])
        assert cli._build_parser() is cli._build_parser()
        cli._build_parser.cache_clear()
        main(flags + ["--out", str(fresh)])
        assert second.read_bytes() == fresh.read_bytes()
        assert second.read_bytes() != first.read_bytes()
        capsys.readouterr()
        usage_error(["contain", "--builtin", "fy1c", "--samples", "x",
                     "--out", str(first)], capsys)

    def test_seed_flag_changes_the_draw(self, tmp_path):
        path, _ = orbital_file(tmp_path, interceptor_budget=0.05,
                               target_budget=0.01, name="seeds")
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        main(["contain", "--scenario", str(path), "--seed", "1",
              "--format", "csv", "--out", str(a)])
        main(["contain", "--scenario", str(path), "--seed", "2",
              "--format", "csv", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestGoldenBytes:
    """Outputs pinned by their sha256: a change that claims identical
    results must leave every byte of these runs as it is."""

    @pytest.mark.parametrize("flags, digest", [
        (["contain", "--builtin", "fy1c", "--samples", "40", "--grid", "6",
          "--seed", "0"],
         "ff67a8f0830c2244f3544037d1b75ae2abf1554a67ee1d9c65613eb15f013be2"),
        (["contain", "--scenario", str(LEO_MULTIREV), "--seed", "0"],
         "6a179573f4981fbe759d2a1a7aa08f3c27dae095fa8db5bea30d741280968ca5"),
        (["propagate", "--builtin", "fy1c"],
         "73fa92589928e08132b8939204d177331863b829872ae6a7e50a9b99debf2741"),
    ], ids=["contain_fy1c", "contain_leo_multirev", "propagate_fy1c"])
    def test_output_bytes(self, tmp_path, flags, digest):
        out = tmp_path / "out"
        assert main(flags + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_shock_chain_bytes(self, tmp_path):
        """A five-shock chain through propagate (csv), and the canonical
        text of its scenario. The csv is the shooting solution's: its
        numbers are within 2.0e-14 relative of the sequential loop's."""
        source, saved, out = (tmp_path / name
                              for name in ("in.cone", "saved.cone", "out"))
        source.write_text(FIVE_SHOCKS)
        save_scenario(load_scenario(source), saved)
        assert hashlib.sha256(saved.read_bytes()).hexdigest() == (
            "88b153fdbfd72d55c4552289e3678adaf7f9aa9ccbc051331c919c8a7f22df72")
        assert main(["propagate", "--scenario", str(source), "--format",
                     "csv", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1083fe22b7b26947e29a337f4819185dbdbd717263cc58c40192220c465914c4")


def no_libc(name):
    raise OSError(f"cannot open {name!r}")


def libc_without_mallopt(name):
    return SimpleNamespace()


class TestHeapPolicy:
    """main has glibc keep freed heap memory mapped, once per process.
    The policy moves where arrays live, never a byte of output."""

    FLAGS = ["contain", "--builtin", "fy1c", "--samples", "200",
             "--seed", "1"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_repeated_requests_fault_in_no_working_set(self, tmp_path,
                                                       capsys):
        """After one request, each repeat reuses its pages. With glibc's
        defaults each repeat faulted 1,460-2,313 pages in again."""
        import resource

        out = str(tmp_path / "r.report")
        assert main(self.FLAGS + ["--out", out]) == 0
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(self.FLAGS + ["--out", out]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        assert max(faults) < 100, faults

    @pytest.mark.parametrize("cdll", [no_libc, libc_without_mallopt],
                             ids=["no_libc", "no_mallopt"])
    def test_missing_mallopt_changes_nothing(self, tmp_path, monkeypatch,
                                             cdll):
        """Without libc or its mallopt the policy is skipped, silently,
        and main writes the bytes it writes with the policy."""
        kept, skipped = tmp_path / "kept.report", tmp_path / "skipped.report"
        assert main(self.FLAGS + ["--out", str(kept)]) == 0
        opened = []
        with monkeypatch.context() as patch:
            patch.setattr(cli.ctypes, "CDLL",
                          lambda name: opened.append(name) or cdll(name))
            cli._keep_heap_mapped.cache_clear()
            try:
                cli._keep_heap_mapped()
                assert main(self.FLAGS + ["--out", str(skipped)]) == 0
            finally:
                cli._keep_heap_mapped.cache_clear()
        assert opened == [None]
        assert skipped.read_bytes() == kept.read_bytes()
