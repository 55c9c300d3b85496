"""Scenario parsing, the bundled engagement, and exports."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from futurecone.cone import ConeSampleSet, ConeSpec, ContainmentReport, containment
from futurecone.constants import EARTH_RADIUS_KM, MU_EARTH
from futurecone.errors import (
    ScenarioError,
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioSchemaError,
)
from futurecone.kepler import StateVector, arcs_from_states
from futurecone.maneuver import ImpulsiveSchedule, propagate_schedule
from futurecone.scenario_io import (
    FY1CParameters,
    SamplingSpec,
    Scenario,
    TwoCarsGame,
    builtin_scenario,
    bundled_path,
    export_points,
    load_scenario,
    save_scenario,
)
from futurecone.twocars import CarConfig, CockayneVerdict, EquivalenceVerdict

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
                     shocks=ImpulsiveSchedule([1.0], [[0.0, 0.0, 0.0]]))

    def test_rejects_mismatched_mu(self):
        with pytest.raises(ValueError):
            orbital_scenario(mu=MU_EARTH * 1.01)

    def test_game_window_validation(self):
        with pytest.raises(ValueError):
            TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                        evader=CarConfig(v=1.0, R=1.0),
                        horizon=5.0, headstart=5.0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^horizon must be finite"):
                TwoCarsGame(pursuer=CarConfig(v=1.0, R=1.0),
                            evader=CarConfig(v=1.0, R=1.0),
                            horizon=horizon, headstart=4.0)

    def test_equality_is_field_for_field(self):
        assert orbital_scenario() == orbital_scenario()
        assert orbital_scenario() != orbital_scenario(name="other")
        assert orbital_scenario() != orbital_scenario(
            target=ConeSpec(vertex=leo_vertex(), budget=0.02,
                            window=(200.0, 400.0)))

    def test_equality_compares_arrays_by_value(self):
        def shocks(dz):
            return ImpulsiveSchedule([250.0, 300.0],
                                     [[0.0, 0.01, 0.0], [0.0, 0.0, dz]])

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
        assert scn.shocks.times.tolist() == [250.0, 300.0]
        assert np.array_equal(scn.shocks.shocks[1], [0.0, 0.002, 0.0])

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_shock_epoch_reports_its_key_line(self, tmp_path,
                                                         value):
        bad = (MINIMAL_ORBITAL
               + f"\n[shock]\nt_s = {value}\ndv_km_s = 0.001, 0.0, 0.0\n")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(f"t_s = {value}") + 1
        assert "[shock] t: shock epoch must be finite" in str(err.value)

    @pytest.mark.parametrize("line, field", [
        ("budget_km_s = nan", "budget"),
        ("budget_km_s = inf", "budget"),
        ("floor_km = nan", "floor"),
        ("floor_km = inf", "floor"),
        ("mu_km3_s2 = nan", "mu"),
        ("mu_km3_s2 = inf", "mu"),
        ("mu_km3_s2 = -398600.4418", "mu"),
    ])
    def test_bad_cone_number_reports_its_key_line(self, tmp_path, line,
                                                  field):
        if line.startswith("budget"):
            bad = MINIMAL_ORBITAL.replace("budget_km_s = 0.01", line)
        else:
            bad = MINIMAL_ORBITAL.replace("name = minimal\n",
                                          f"name = minimal\n{line}\n")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(line) + 1
        assert str(err.value).split("] ", 1)[1].startswith(field)

    @pytest.mark.parametrize("line", [
        "mu_km3_s2 = nan", "mu_km3_s2 = inf", "mu_km3_s2 = -inf",
        "mu_km3_s2 = 0", "floor_km = nan", "floor_km = inf",
        "floor_km = -inf",
    ])
    def test_bad_top_number_of_twocars_file_reports_its_key_line(
            self, tmp_path, line):
        bad = TWOCARS_FILE.replace("name = cars\n", f"name = cars\n{line}\n")
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index(line) + 1
        field = "mu" if line.startswith("mu") else "floor_km"
        assert str(err.value).split(": ", 1)[1].startswith(field)

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

    @pytest.mark.parametrize("text, kind, line, fragment", [
        (MINIMAL_ORBITAL.replace("[target]", "[target"), ScenarioParseError,
         10, "malformed section header '[target'"),
        (MINIMAL_ORBITAL.replace("[target]", "[ ]"), ScenarioParseError, 10,
         "empty section name"),
        (TWOCARS_FILE.replace("seed = 3", "seed = x"), ScenarioParseError, 15,
         "seed: expected an integer, got 'x'"),
        (MINIMAL_ORBITAL.replace("name = minimal\n",
                                 "name = minimal\ncolor = red\n"),
         ScenarioSchemaError, 2, "unknown top-level key 'color'"),
        (MINIMAL_ORBITAL + "\n" + MINIMAL_ORBITAL.split("\n\n")[2],
         ScenarioSchemaError, 17, "[target] appears twice (first at line 10)"),
        (TWOCARS_FILE.replace("n_samples = 128", "n_samples = 0"),
         ScenarioInvariantError, 13,
         "[sampling] n_samples must be positive, got 0"),
        (TWOCARS_FILE.replace("seed = 3", "seed = -1"),
         ScenarioInvariantError, 15,
         "[sampling] seed must be nonnegative, got -1"),
        (TWOCARS_FILE.replace("headstart = 6.3", "headstart = 40.0"),
         ScenarioInvariantError, 10,
         "[game] headstart must satisfy 0 < headstart < horizon, got "
         "headstart=40.0"),
        (TWOCARS_FILE.replace("speed = 2.0", "speed = -1"),
         ScenarioInvariantError, 3,
         "[pursuer] speed must be positive and finite, got -1.0"),
        (TWOCARS_FILE.replace("speed = 1.0\nturn_radius = 1.0",
                              "speed = 1.0\nturn_radius = 0"),
         ScenarioInvariantError, 7,
         "[evader] turn_radius must be positive and finite, got 0.0"),
        (MINIMAL_ORBITAL + "\n[shock]\nt_s = 250.0\ndv_km_s = nan, 0, 0\n",
         ScenarioInvariantError, 19, "[shock] dv must be finite"),
        (TWOCARS_FILE.replace("[game]\nhorizon = 40.0\nheadstart = 6.3\n", ""),
         ScenarioInvariantError, None, "planar scenario is missing [game]"),
        (TWOCARS_FILE.encode().replace(b"seed = 3", b"seed = \xff"),
         ScenarioParseError, 15, "not valid UTF-8 text"),
        (MINIMAL_ORBITAL.replace("window_s = 100.0, 900.0",
                                 "window_s = 68.0, inf"),
         ScenarioInvariantError, 8,
         "[interceptor] window must be finite, got (68.0, inf)"),
        (TWOCARS_FILE.replace("horizon = 40.0", "horizon = inf"),
         ScenarioInvariantError, 9, "[game] horizon must be finite, got inf"),
    ], ids=["malformed_header", "empty_header", "non_integer_seed",
            "unknown_top_key", "section_twice", "zero_samples",
            "negative_seed", "headstart_past_horizon", "negative_speed",
            "zero_turn_radius", "non_finite_dv", "planar_without_game",
            "not_utf8", "infinite_window", "infinite_horizon"])
    def test_error_class_line_and_message(self, tmp_path, text, kind, line,
                                          fragment):
        path = tmp_path / "bad.cone"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert type(err.value) is kind
        assert err.value.line == line
        assert fragment in str(err.value)

    def test_mixed_kinds_reports_first_planar_section_line(self, tmp_path):
        planar = TWOCARS_FILE.split("\n", 1)[1].split("\n[sampling]")[0]
        bad = MINIMAL_ORBITAL + planar
        path = tmp_path / "bad.cone"
        path.write_text(bad)
        with pytest.raises(ScenarioInvariantError) as err:
            load_scenario(path)
        assert err.value.line == bad.splitlines().index("[pursuer]") + 1
        assert "mixes" in str(err.value)


# vector components stay small enough for their norms not to overflow
FINITE = st.floats(-1e150, 1e150)
EPOCHS = st.floats(-1e9, 1e9)


@st.composite
def orbital_scenarios(draw) -> Scenario:
    """Orbital scenarios whose numbers span every finite magnitude."""
    mu = draw(st.floats(1e-300, 1e300))
    floor = draw(st.floats(-6000.0, 1000.0))

    def cone() -> ConeSpec:
        r = (draw(st.floats(EARTH_RADIUS_KM + 1000.0, 1e150)), draw(FINITE),
             draw(FINITE))
        t = draw(EPOCHS)
        t1 = t + draw(st.floats(0.0, 1e9))
        t2 = t1 + draw(st.floats(1e-3, 1e9))
        return ConeSpec(vertex=StateVector(r, [draw(FINITE) for _ in "xyz"],
                                           t),
                        budget=draw(st.floats(0.0, 1e300)), window=(t1, t2),
                        floor=floor, mu=mu)

    epochs = sorted(draw(st.sets(EPOCHS, max_size=3)))
    shocks = ImpulsiveSchedule(epochs, [[draw(FINITE) for _ in "xyz"]
                                        for _ in epochs])
    sampling = SamplingSpec(draw(st.integers(1, 2**63)),
                            draw(st.integers(2, 2**63)),
                            draw(st.integers(0, 2**63)))
    return Scenario(name="drawn", mu=mu, floor_km=floor, interceptor=cone(),
                    target=cone(), shocks=shocks, sampling=sampling)


TWO_SHOCKS = ImpulsiveSchedule([210.0, 260.0], [(0.001, -0.002, 0.0),
                                               (0.0, 0.003, 1e-4)])


class TestSaveScenario:
    """Canonical writing and the round-trip guarantee."""

    @given(orbital_scenarios())
    def test_round_trip_any_finite_numbers(self, tmp_path_factory, scn):
        """Every finite float and every count comes back as itself, and
        the saved text is a fixed point of load and save."""
        folder = tmp_path_factory.mktemp("rt")
        first, second = folder / "a.cone", folder / "b.cone"
        save_scenario(scn, first)
        assert load_scenario(first) == scn
        save_scenario(load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_orbital_with_shocks(self, tmp_path):
        scn = orbital_scenario(
            shocks=TWO_SHOCKS,
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

    def test_round_trip_numpy_scalars(self, tmp_path):
        """Numbers held as numpy scalars are written as plain numbers."""
        game = TwoCarsGame(pursuer=CarConfig(v=np.float64(2.5), R=0.75),
                           evader=CarConfig(v=1.1, R=np.float64(1.3)),
                           horizon=37.5, headstart=2.0)
        scn = Scenario(name="cars", twocars=game,
                       sampling=SamplingSpec(n_samples=np.int64(64)))
        path = tmp_path / "rt.cone"
        save_scenario(scn, path)
        assert "speed = 2.5\n" in path.read_text()
        assert load_scenario(path) == scn

    @pytest.mark.parametrize("field, value", [
        ("mu", math.nan), ("mu", math.inf), ("mu", -math.inf), ("mu", 0.0),
        ("floor_km", math.nan), ("floor_km", math.inf),
        ("floor_km", -math.inf), ("floor_km", 0.0),
    ])
    def test_round_trip_twocars_top_numbers(self, tmp_path, field, value):
        """Top-level numbers a planar scenario cannot round-trip are
        refused; the rest come back equal."""
        game = TwoCarsGame(pursuer=CarConfig(v=2.0, R=1.0),
                           evader=CarConfig(v=1.0, R=1.0),
                           horizon=40.0, headstart=6.3)
        if field == "floor_km" and value == 0.0:
            scn = Scenario(name="cars", twocars=game, floor_km=value)
            path = tmp_path / "rt.cone"
            save_scenario(scn, path)
            assert load_scenario(path) == scn
            return
        with pytest.raises(ValueError, match=f"^{field} "):
            Scenario(name="cars", twocars=game, **{field: value})

    def test_orbital_text_is_canonical(self, tmp_path):
        scn = orbital_scenario(
            shocks=TWO_SHOCKS,
            sampling=SamplingSpec(n_samples=7, time_grid=5, seed=9))
        path = tmp_path / "o.cone"
        save_scenario(scn, path)
        v = repr(LEO_V)
        assert path.read_text() == (
            "name = demo\n"
            "mu_km3_s2 = 398600.4418\n"
            "floor_km = 90.0\n"
            "\n"
            "[interceptor]\n"
            "r_km = 7238.137, 0.0, 0.0\n"
            f"v_km_s = 0.0, {v}, 0.0\n"
            "t_s = 0.0\n"
            "budget_km_s = 0.5\n"
            "window_s = 100.0, 900.0\n"
            "\n"
            "[target]\n"
            "r_km = 7238.137, 0.0, 0.0\n"
            f"v_km_s = 0.0, {v}, 0.0\n"
            "t_s = 0.0\n"
            "budget_km_s = 0.01\n"
            "window_s = 200.0, 400.0\n"
            "\n"
            "[shock]\n"
            "t_s = 210.0\n"
            "dv_km_s = 0.001, -0.002, 0.0\n"
            "\n"
            "[shock]\n"
            "t_s = 260.0\n"
            "dv_km_s = 0.0, 0.003, 0.0001\n"
            "\n"
            "[sampling]\n"
            "n_samples = 7\n"
            "time_grid = 5\n"
            "seed = 9\n")

    def test_twocars_text_is_canonical(self, tmp_path):
        game = TwoCarsGame(pursuer=CarConfig(v=2.5, R=0.75),
                           evader=CarConfig(v=1.1, R=1.3),
                           horizon=37.5, headstart=1.8849555921538759)
        scn = Scenario(name="cars", twocars=game, floor_km=0.0,
                       sampling=SamplingSpec(n_samples=64, time_grid=9,
                                             seed=2))
        path = tmp_path / "c.cone"
        save_scenario(scn, path)
        assert path.read_bytes() == (
            b"name = cars\n"
            b"mu_km3_s2 = 398600.4418\n"
            b"floor_km = 0.0\n"
            b"\n"
            b"[pursuer]\n"
            b"speed = 2.5\n"
            b"turn_radius = 0.75\n"
            b"\n"
            b"[evader]\n"
            b"speed = 1.1\n"
            b"turn_radius = 1.3\n"
            b"\n"
            b"[game]\n"
            b"horizon = 37.5\n"
            b"headstart = 1.8849555921538759\n"
            b"\n"
            b"[sampling]\n"
            b"n_samples = 64\n"
            b"time_grid = 9\n"
            b"seed = 2\n")

    def test_save_is_deterministic(self, tmp_path):
        scn = orbital_scenario()
        a, b = tmp_path / "a.cone", tmp_path / "b.cone"
        save_scenario(scn, a)
        save_scenario(scn, b)
        assert a.read_bytes() == b.read_bytes()


class TestFY1C:
    """The bundled engagement's pinned numbers."""

    def test_bundled_file_matches_parameters(self):
        params = FY1CParameters()
        scn = builtin_scenario("fy1c")
        assert scn.interceptor.budget == params.interceptor_budget_km_s
        assert scn.target.budget == round(params.target_budget_km_s, 4)
        assert scn.interceptor.window == params.interceptor_window_s
        assert scn.target.window == params.target_window_s
        assert scn.floor_km == params.floor_km
        assert scn.interceptor.vertex.t == params.vertex_t_s
        assert scn.target.vertex.t == 0.0

    def test_windows(self):
        scn = builtin_scenario("fy1c")
        assert scn.interceptor.window == (68.0, 750.0)
        assert scn.target.window == (425.0, 475.0)

    def test_target_budget(self):
        scn = builtin_scenario("fy1c")
        assert scn.target.budget == 0.0101
        assert 0.0101 <= scn.target.budget <= 0.011

    def test_vertex_altitude(self):
        scn = builtin_scenario("fy1c")
        alt = np.linalg.norm(scn.interceptor.vertex.r) - EARTH_RADIUS_KM
        assert abs(alt - 104.0) < 1e-9
        assert scn.interceptor.vertex.t == 68.0

    def test_target_orbit_is_circular_860(self):
        scn = builtin_scenario("fy1c")
        r = float(np.linalg.norm(scn.target.vertex.r))
        v = float(np.linalg.norm(scn.target.vertex.v))
        np.testing.assert_allclose(r, EARTH_RADIUS_KM + 860.0, rtol=1e-9)
        np.testing.assert_allclose(v, math.sqrt(MU_EARTH / r), rtol=1e-9)

    def test_parameter_invariants_guard_budgets(self):
        with pytest.raises(ValueError):
            FY1CParameters(target_mass_current_kg=958.0)

    def test_builtin_lookup(self):
        assert builtin_scenario("fy1c") == builtin_scenario("fy1c")
        with pytest.raises(ValueError):
            builtin_scenario("unknown")

    @pytest.mark.parametrize("name", ["../data/fy1c", "data/fy1c", "nope",
                                      ""])
    def test_only_bundled_file_stems_resolve(self, name):
        with pytest.raises(ValueError, match="unknown built-in scenario"):
            bundled_path(name)
        with pytest.raises(ValueError, match="unknown built-in scenario"):
            builtin_scenario(name)

    def test_desk_scale_containment_report(self, tmp_path):
        scn = builtin_scenario("fy1c")
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

    def sample_set(self) -> ConeSampleSet:
        spec = ConeSpec(vertex=leo_vertex(), budget=0.0,
                        window=(100.0, 900.0))
        arcs = arcs_from_states(spec.vertex.r, spec.vertex.v[None],
                                spec.vertex.t)
        return ConeSampleSet(spec=spec, trajectories=arcs, seed=0)

    def test_empty_cloud_writes_header_only(self, tmp_path):
        cloud = self.sample_set()
        empty = ConeSampleSet(spec=cloud.spec,
                              trajectories=cloud.trajectories[:0], seed=0)
        path = tmp_path / "empty.csv"
        export_points(empty, path, times=[100.0])
        assert path.read_text() == "t,x,y,z,body_tag,margin\n"

    def test_singleton_vertex_leaf_is_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        export_points(self.sample_set(), path, body_tag="target",
                      times=[0.0])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        t, x, y, z, tag, margin = lines[1].split(",")
        assert float(t) == 0.0
        assert (float(x), float(y), float(z)) == (LEO_R, 0.0, 0.0)
        assert tag == "target"
        assert margin == ""

    def test_rows_ordered_by_time_then_sample(self, tmp_path):
        path = tmp_path / "cloud.csv"
        export_points(self.sample_set(), path, times=[300.0, 100.0, 200.0])
        times = [float(line.split(",")[0])
                 for line in path.read_text().splitlines()[1:]]
        assert times == [300.0, 100.0, 200.0]

    def test_trajectory_export_matches_schedule(self, tmp_path):
        origin = leo_vertex()
        sched = ImpulsiveSchedule([500.0], [(0.0, 0.01, 0.0)])
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
        # the row at the shock epoch reads the post-shock arc
        assert grid[2] == 500.0
        assert ([float(c) for c in lines[2].split(",")[1:4]]
                == traj.arcs.r0[1].tolist())

    @pytest.mark.parametrize("t", [-1.0, 2000.5, math.nan])
    def test_trajectory_export_outside_window_writes_nothing(self, tmp_path,
                                                             t):
        traj = propagate_schedule(leo_vertex(), ImpulsiveSchedule(),
                                  t_end=2000.0)
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError, match="outside trajectory window"):
            export_points(traj, path, times=[0.0, t, 1000.0])
        assert not path.exists()

    def test_trajectory_export_needs_times(self, tmp_path):
        origin = leo_vertex()
        traj = propagate_schedule(origin, ImpulsiveSchedule(), t_end=1000.0)
        with pytest.raises(ValueError, match="needs sample times"):
            export_points(traj, tmp_path / "x.csv")

    def test_cloud_export_needs_times(self, tmp_path):
        """A cloud has no default grid: its leaves are taken at the
        times given, as a trajectory's states are."""
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError,
                           match="^ConeSampleSet export needs sample times$"):
            export_points(self.sample_set(), path)
        assert not path.exists()

    def twocars_verdict(self, witness) -> EquivalenceVerdict:
        return EquivalenceVerdict(
            contained=False, radius_ok=False, accel_ok=True,
            cockayne=CockayneVerdict(speed_ok=False, accel_ok=True),
            witness=witness, evader_peak_accel=0.5,
            pursuer_peak_accel=np.float64(0.75), headstart=1.0, horizon=9.0,
            n_times=3)

    def test_twocars_report_text(self, tmp_path):
        path = tmp_path / "v.report"
        export_points(self.twocars_verdict(np.array([1.0, -2.5, 3.0])), path,
                      format="report")
        assert path.read_bytes() == (
            b"twocars_report\n"
            b"cockayne_speed_ok = false\n"
            b"cockayne_accel_ok = true\n"
            b"cockayne_intercept = false\n"
            b"equivalence_radius_ok = false\n"
            b"equivalence_accel_ok = true\n"
            b"equivalence_contained = false\n"
            b"agree = true\n"
            b"evader_peak_accel = 0.5\n"
            b"pursuer_peak_accel = 0.75\n"
            b"witness = 1.0, -2.5, 3.0\n")
        export_points(self.twocars_verdict(None), path, format="report")
        assert path.read_text().splitlines()[-1] == "witness = none"

    def test_twocars_verdict_has_no_csv_form(self, tmp_path):
        path = tmp_path / "v.csv"
        with pytest.raises(ValueError, match="only have a report form"):
            export_points(self.twocars_verdict(None), path, format="csv")
        assert not path.exists()

    def test_report_text_mirrors_fields(self, tmp_path):
        report = ContainmentReport(
            contained=False, fraction_contained=0.75, worst_margin=-0.125,
            worst_point=(np.array([1.0, 2.0, 3.0]), 450.0),
            samples=16, window_tested=(425.0, 475.0))
        path = tmp_path / "r.report"
        export_points(report, path, format="report")
        assert path.read_bytes() == (
            b"containment_report\n"
            b"contained = false\n"
            b"fraction_contained = 0.75\n"
            b"worst_margin = -0.125\n"
            b"worst_point_r = 1.0, 2.0, 3.0\n"
            b"worst_point_t = 450.0\n"
            b"samples = 16\n"
            b"window_tested = 425.0, 475.0\n")

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
        cloud = self.sample_set()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_points(cloud, a, times=[100.0, 500.0])
        export_points(cloud, b, times=[100.0, 500.0])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_combinations(self, tmp_path):
        cloud = self.sample_set()
        with pytest.raises(ValueError):
            export_points(cloud, tmp_path / "x.report", format="report")
        with pytest.raises(ValueError):
            export_points(cloud, tmp_path / "x.csv", format="vrml")
        with pytest.raises(ValueError):
            export_points(object(), tmp_path / "x.csv")
