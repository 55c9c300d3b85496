"""Scenario parsing, the bundled engagement, and exports."""
from __future__ import annotations

import math

import numpy as np
import pytest

from futurecone.cone import ConeSampleSet, ConeSpec, ContainmentReport, containment
from futurecone.constants import EARTH_RADIUS_KM, MU_EARTH
from futurecone.errors import (
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioSchemaError,
)
from futurecone.kepler import StateVector, arc_from_state
from futurecone.maneuver import ImpulsiveSchedule, ShockEvent, propagate_schedule
from futurecone.scenario_io import (
    FY1CParameters,
    SamplingSpec,
    Scenario,
    TwoCarsGame,
    builtin_scenario,
    bundled_path,
    export_points,
    fy1c_scenario,
    load_scenario,
    save_scenario,
)
from futurecone.twocars import CarConfig

LEO_R = EARTH_RADIUS_KM + 860.0
LEO_V = math.sqrt(MU_EARTH / LEO_R)


def leo_vertex(t: float = 0.0) -> StateVector:
    return StateVector(r=(LEO_R, 0.0, 0.0), v=(0.0, LEO_V, 0.0), t=t)


def orbital_scenario(**overrides) -> Scenario:
    base = dict(
        name="demo",
        interceptor=ConeSpec(vertex=leo_vertex(), budget=0.5,
                             window=(100.0, 900.0)),
        target=ConeSpec(vertex=leo_vertex(), budget=0.01,
                        window=(200.0, 400.0)),
    )
    base.update(overrides)
    return Scenario(**base)


MINIMAL_ORBITAL = """\
name = minimal

[interceptor]
r_km = 7238.137, 0.0, 0.0
v_km_s = 0.0, 7.42, 0.0
t_s = 0.0
budget_km_s = 0.5
window_s = 100.0, 900.0

[target]
r_km = 7238.137, 0.0, 0.0
v_km_s = 0.0, 7.42, 0.0
t_s = 0.0
budget_km_s = 0.01
window_s = 200.0, 400.0
"""

TWOCARS_FILE = """\
name = cars
[pursuer]
speed = 2.0
turn_radius = 1.0
[evader]
speed = 1.0
turn_radius = 1.0
[game]
horizon = 40.0
headstart = 6.3

[sampling]
n_samples = 128
time_grid = 17
seed = 3
"""


class TestSamplingSpec:
    """Monte Carlo knob validation."""

    def test_defaults(self):
        spec = SamplingSpec()
        assert (spec.n_samples, spec.time_grid, spec.seed) == (2000, 51, 0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SamplingSpec(n_samples=0)
        with pytest.raises(ValueError):
            SamplingSpec(time_grid=1)
        with pytest.raises(ValueError):
            SamplingSpec(seed=-1)


class TestScenarioInvariants:
    """Construction-time consistency checks."""

    def test_kind_property(self):
        assert orbital_scenario().kind == "orbital"
        game = TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                           evader=CarConfig(v=1.0, R=1.0),
                           horizon=40.0, headstart=6.3)
        assert Scenario(name="cars", twocars=game).kind == "twocars"

    def test_orbital_needs_both_cones(self):
        with pytest.raises(ValueError):
            orbital_scenario(target=None)

    def test_rejects_mixed_kinds(self):
        game = TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                           evader=CarConfig(v=1.0, R=1.0),
                           horizon=40.0, headstart=6.3)
        with pytest.raises(ValueError):
            orbital_scenario(twocars=game)

    def test_rejects_neither_kind(self):
        with pytest.raises(ValueError):
            Scenario(name="empty")

    def test_rejects_shocks_on_planar(self):
        game = TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                           evader=CarConfig(v=1.0, R=1.0),
                           horizon=40.0, headstart=6.3)
        with pytest.raises(ValueError):
            Scenario(name="cars", twocars=game,
                     shocks=(ShockEvent(t=1.0, dv=(0.0, 0.0, 0.0)),))

    def test_rejects_mismatched_mu(self):
        with pytest.raises(ValueError):
            orbital_scenario(mu=MU_EARTH * 1.01)

    def test_game_window_validation(self):
        with pytest.raises(ValueError):
            TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                        evader=CarConfig(v=1.0, R=1.0),
                        horizon=5.0, headstart=5.0)

    def test_equality_is_field_for_field(self):
        assert orbital_scenario() == orbital_scenario()
        assert orbital_scenario() != orbital_scenario(name="other")
        assert orbital_scenario() != orbital_scenario(
            target=ConeSpec(vertex=leo_vertex(), budget=0.02,
                            window=(200.0, 400.0)))

    def test_equality_compares_arrays_by_value(self):
        def shocks(dz):
            return (ShockEvent(t=250.0, dv=[0.0, 0.01, 0.0]),
                    ShockEvent(t=300.0, dv=[0.0, 0.0, dz]))

        assert orbital_scenario(shocks=shocks(0.02)) \
            == orbital_scenario(shocks=shocks(0.02))
        assert orbital_scenario(shocks=shocks(0.02)) \
            != orbital_scenario(shocks=shocks(0.03))
        assert orbital_scenario() != orbital_scenario(
            target=ConeSpec(vertex=leo_vertex(t=1.0), budget=0.01,
                            window=(200.0, 400.0)))
        with pytest.raises(TypeError):
            hash(orbital_scenario())


class TestLoadScenario:
    """File parsing with line-precise diagnostics."""

    def test_minimal_orbital(self, tmp_path):
        path = tmp_path / "m.cone"
        path.write_text(MINIMAL_ORBITAL)
        scn = load_scenario(path)
        assert scn.name == "minimal"
        assert scn.kind == "orbital"
        assert scn.mu == MU_EARTH
        assert scn.floor_km == 90.0
        assert scn.sampling == SamplingSpec()
        assert scn.interceptor.budget == 0.5
        assert scn.target.window == (200.0, 400.0)
        assert np.array_equal(scn.target.vertex.r, [7238.137, 0.0, 0.0])

    def test_twocars_file(self, tmp_path):
        path = tmp_path / "c.cone"
        path.write_text(TWOCARS_FILE)
        scn = load_scenario(path)
        assert scn.kind == "twocars"
        assert scn.twocars.pursuer == CarConfig(v=2.0, R=1.0)
        assert scn.twocars.horizon == 40.0
        assert scn.sampling == SamplingSpec(n_samples=128, time_grid=17,
                                            seed=3)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.cone"
        path.write_text("# leading comment\n\n" +
                        MINIMAL_ORBITAL.replace("budget_km_s = 0.5",
                                                "budget_km_s = 0.5  # stock"))
        assert load_scenario(path).interceptor.budget == 0.5

    def test_unordered_window_is_invariant_error_with_line(self, tmp_path):
        bad = MINIMAL_ORBITAL.replace("window_s = 200.0, 400.0",
                                      "window_s = 400.0, 200.0")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(
            "window_s = 400.0, 200.0") + 1
        assert "t2 must exceed t1" in str(err.value)

    def test_garbage_line_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text("name = x\nwat\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert err.value.line == 2

    def test_bad_number_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL.replace("t_s = 0.0", "t_s = soon", 1))
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert "soon" in str(err.value)

    def test_unknown_section_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL + "\n[payload]\nmass = 1.0\n")
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(path)
        assert "payload" in str(err.value)

    def test_unknown_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL + "color = red\n")
        with pytest.raises(ScenarioSchemaError):
            load_scenario(path)

    def test_duplicate_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL + "budget_km_s = 0.2\n")
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(path)
        assert "duplicate" in str(err.value)

    def test_missing_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL.replace("budget_km_s = 0.5\n", "", 1))
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(path)
        assert "budget_km_s" in str(err.value)

    def test_wrong_arity_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL.replace(
            "r_km = 7238.137, 0.0, 0.0", "r_km = 7238.137, 0.0", 1))
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(path)
        assert "expected 3" in str(err.value)

    def test_mixed_kinds_is_invariant_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL + "\n[game]\n"
                        "horizon = 10.0\nheadstart = 1.0\n")
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert "mixes" in str(err.value)

    def test_missing_name_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL.replace("name = minimal\n", "", 1))
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(path)
        assert "name" in str(err.value)

    def test_blank_name_is_invariant_error_with_line(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL.replace("name = minimal", "name =", 1))
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == 1
        assert "name" in str(err.value)

    def test_below_floor_vertex_is_invariant_error(self, tmp_path):
        low = MINIMAL_ORBITAL.replace("r_km = 7238.137, 0.0, 0.0",
                                      "r_km = 6400.0, 0.0, 0.0", 1)
        path = tmp_path / "bad.cone"
        path.write_text(low)
        with pytest.raises(ScenarioInvariantError):
            load_scenario(path)

    def test_shock_sections_load_in_order(self, tmp_path):
        path = tmp_path / "s.cone"
        path.write_text(MINIMAL_ORBITAL +
                        "\n[shock]\nt_s = 250.0\ndv_km_s = 0.001, 0.0, 0.0\n"
                        "\n[shock]\nt_s = 300.0\ndv_km_s = 0.0, 0.002, 0.0\n")
        scn = load_scenario(path)
        assert [s.t for s in scn.shocks] == [250.0, 300.0]
        assert np.array_equal(scn.shocks[1].dv, [0.0, 0.002, 0.0])

    def test_unordered_shocks_is_invariant_error(self, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text(MINIMAL_ORBITAL +
                        "\n[shock]\nt_s = 300.0\ndv_km_s = 0.001, 0.0, 0.0\n"
                        "\n[shock]\nt_s = 250.0\ndv_km_s = 0.0, 0.002, 0.0\n")
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert "strictly increase" in str(err.value)

    def test_unordered_shock_reports_its_section_line(self, tmp_path):
        bad = (MINIMAL_ORBITAL
               + "\n[shock]\nt_s = 250.0\ndv_km_s = 0.001, 0.0, 0.0\n"
               + "\n[shock]\nt_s = 300.0\ndv_km_s = 0.0, 0.002, 0.0\n"
               + "\n[shock]\nt_s = 300.0\ndv_km_s = 0.0, 0.0, 0.001\n")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        headers = [i + 1 for i, line in enumerate(bad.splitlines())
                   if line == "[shock]"]
        assert err.value.line == headers[2]
        assert "strictly increase" in str(err.value)

    def test_negative_budget_reports_its_key_line(self, tmp_path):
        bad = MINIMAL_ORBITAL.replace("budget_km_s = 0.01",
                                      "budget_km_s = -0.01")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(
            "budget_km_s = -0.01") + 1
        assert "nonnegative" in str(err.value)

    def test_window_before_vertex_reports_its_key_line(self, tmp_path):
        bad = MINIMAL_ORBITAL.replace("t_s = 0.0\nbudget_km_s = 0.01",
                                      "t_s = 250.0\nbudget_km_s = 0.01")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(
            "window_s = 200.0, 400.0") + 1
        assert "vertex epoch" in str(err.value)

    def test_mixed_kinds_reports_first_planar_section_line(self, tmp_path):
        planar = TWOCARS_FILE.split("\n", 1)[1].split("\n[sampling]")[0]
        bad = MINIMAL_ORBITAL + planar
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index("[pursuer]") + 1
        assert "mixes" in str(err.value)


class TestSaveScenario:
    """Canonical writing and the round-trip guarantee."""

    def test_round_trip_orbital_with_shocks(self, tmp_path):
        scn = orbital_scenario(
            shocks=(ShockEvent(t=210.0, dv=(0.001, -0.002, 0.0)),
                    ShockEvent(t=260.0, dv=(0.0, 0.003, 1e-4))),
            sampling=SamplingSpec(n_samples=7, time_grid=5, seed=9))
        path = tmp_path / "rt.cone"
        save_scenario(scn, path)
        assert load_scenario(path) == scn

    def test_round_trip_twocars(self, tmp_path):
        game = TwoCarsGame(pursuer=CarConfig(v=2.5, R=0.75),
                           evader=CarConfig(v=1.1, R=1.3),
                           horizon=37.5, headstart=1.8849555921538759)
        scn = Scenario(name="cars", twocars=game,
                       sampling=SamplingSpec(n_samples=64, time_grid=9,
                                             seed=2))
        path = tmp_path / "rt.cone"
        save_scenario(scn, path)
        assert load_scenario(path) == scn

    def test_save_is_deterministic(self, tmp_path):
        scn = orbital_scenario()
        a, b = tmp_path / "a.cone", tmp_path / "b.cone"
        save_scenario(scn, a)
        save_scenario(scn, b)
        assert a.read_bytes() == b.read_bytes()


class TestFY1C:
    """The bundled engagement's pinned numbers."""

    def test_bundled_file_matches_constructor(self):
        assert load_scenario(bundled_path("fy1c")) == fy1c_scenario()

    def test_windows(self):
        scn = fy1c_scenario()
        assert scn.interceptor.window == (68.0, 750.0)
        assert scn.target.window == (425.0, 475.0)

    def test_target_budget(self):
        scn = fy1c_scenario()
        assert scn.target.budget == 0.0101
        assert 0.0101 <= scn.target.budget <= 0.011

    def test_vertex_altitude(self):
        scn = fy1c_scenario()
        alt = np.linalg.norm(scn.interceptor.vertex.r) - EARTH_RADIUS_KM
        assert abs(alt - 104.0) < 1e-9
        assert scn.interceptor.vertex.t == 68.0

    def test_target_orbit_is_circular_860(self):
        scn = fy1c_scenario()
        r = float(np.linalg.norm(scn.target.vertex.r))
        v = float(np.linalg.norm(scn.target.vertex.v))
        np.testing.assert_allclose(r, EARTH_RADIUS_KM + 860.0, rtol=1e-9)
        np.testing.assert_allclose(v, math.sqrt(MU_EARTH / r), rtol=1e-9)

    def test_parameter_invariants_guard_budgets(self):
        with pytest.raises(ValueError):
            FY1CParameters(target_mass_current_kg=958.0)

    def test_builtin_lookup(self):
        assert builtin_scenario("fy1c") == fy1c_scenario()
        with pytest.raises(ValueError):
            builtin_scenario("unknown")

    def test_desk_scale_containment_report(self, tmp_path):
        scn = fy1c_scenario()
        report = containment(scn.interceptor, scn.target,
                             n_target_samples=120, time_grid=5, seed=0)
        assert report.contained
        path = tmp_path / "fy1c.report"
        export_points(report, path, format="report")
        text = path.read_text()
        assert "contained = true" in text
        assert "fraction_contained = 1.0" in text


class TestExportPoints:
    """CSV and report writers."""

    def sample_set(self, times) -> ConeSampleSet:
        spec = ConeSpec(vertex=leo_vertex(), budget=0.0,
                        window=(100.0, 900.0))
        arc = arc_from_state(spec.vertex)
        return ConeSampleSet(spec=spec, trajectories=(arc,), seed=0,
                             leaf_times=np.asarray(times, dtype=float))

    def test_empty_cloud_writes_header_only(self, tmp_path):
        spec = ConeSpec(vertex=leo_vertex(), budget=0.0,
                        window=(100.0, 900.0))
        empty = ConeSampleSet(spec=spec, trajectories=(), seed=0,
                              leaf_times=np.array([100.0]))
        path = tmp_path / "empty.csv"
        export_points(empty, path)
        assert path.read_text() == "t,x,y,z,body_tag,margin\n"

    def test_singleton_vertex_leaf_is_one_row(self, tmp_path):
        cloud = self.sample_set([0.0])
        path = tmp_path / "one.csv"
        export_points(cloud, path, body_tag="target")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        t, x, y, z, tag, margin = lines[1].split(",")
        assert float(t) == 0.0
        assert (float(x), float(y), float(z)) == (LEO_R, 0.0, 0.0)
        assert tag == "target"
        assert margin == ""

    def test_rows_ordered_by_time_then_sample(self, tmp_path):
        cloud = self.sample_set([300.0, 100.0, 200.0])
        path = tmp_path / "cloud.csv"
        export_points(cloud, path)
        times = [float(line.split(",")[0])
                 for line in path.read_text().splitlines()[1:]]
        assert times == [300.0, 100.0, 200.0]

    def test_trajectory_export_matches_schedule(self, tmp_path):
        origin = leo_vertex()
        sched = ImpulsiveSchedule(
            shocks=(ShockEvent(t=500.0, dv=(0.0, 0.01, 0.0)),), budget=0.02)
        traj = propagate_schedule(origin, sched, t_end=2000.0)
        grid = np.linspace(0.0, 2000.0, 9)
        path = tmp_path / "traj.csv"
        export_points(traj, path, body_tag="target", times=grid)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 9
        for line, t in zip(lines, grid):
            cells = line.split(",")
            expect = traj.state_at(float(t)).r
            assert [float(c) for c in cells[1:4]] == expect.tolist()

    def test_trajectory_export_needs_times(self, tmp_path):
        origin = leo_vertex()
        traj = propagate_schedule(origin, ImpulsiveSchedule(shocks=(),
                                                            budget=0.0),
                                  t_end=1000.0)
        with pytest.raises(ValueError):
            export_points(traj, tmp_path / "x.csv")

    def test_report_text_mirrors_fields(self, tmp_path):
        report = ContainmentReport(
            contained=False, fraction_contained=0.75, worst_margin=-0.125,
            worst_point=(np.array([1.0, 2.0, 3.0]), 450.0),
            samples=16, window_tested=(425.0, 475.0))
        path = tmp_path / "r.report"
        export_points(report, path, format="report")
        text = path.read_text()
        assert text.splitlines()[0] == "containment_report"
        assert "contained = false" in text
        assert "fraction_contained = 0.75" in text
        assert "worst_margin = -0.125" in text
        assert "worst_point_r = 1.0, 2.0, 3.0" in text
        assert "worst_point_t = 450.0" in text
        assert "samples = 16" in text
        assert "window_tested = 425.0, 475.0" in text

    def test_report_as_csv_is_worst_row(self, tmp_path):
        report = ContainmentReport(
            contained=True, fraction_contained=1.0, worst_margin=0.5,
            worst_point=(np.array([1.0, 2.0, 3.0]), 450.0),
            samples=16, window_tested=(425.0, 475.0))
        path = tmp_path / "r.csv"
        export_points(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "450.0,1.0,2.0,3.0,worst,0.5"

    def test_export_is_deterministic(self, tmp_path):
        cloud = self.sample_set([100.0, 500.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_points(cloud, a)
        export_points(cloud, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_combinations(self, tmp_path):
        cloud = self.sample_set([100.0])
        with pytest.raises(ValueError):
            export_points(cloud, tmp_path / "x.report", format="report")
        with pytest.raises(ValueError):
            export_points(cloud, tmp_path / "x.csv", format="vrml")
        with pytest.raises(ValueError):
            export_points(object(), tmp_path / "x.csv")
