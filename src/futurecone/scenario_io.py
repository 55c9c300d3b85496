"""Scenario files, the bundled demonstration engagement, and exports.

A scenario is a small structured-text document describing either an
orbital engagement (two cones: interceptor and target) or a planar
pursuit game (two cars). The format is line-based: `key = value` pairs,
`[section]` headers, `#` comments, with units spelled out in the key
names so a mis-scaled number is visible at the point it is written.
Every load error carries the 1-based line it refers to.

The bundled `fy1c` scenario reconstructs a direct-ascent intercept of a
sun-synchronous satellite at 860 km. Its vertex states are approximate
scenario data, frozen from a simplified great-circle ascent (launch
site 28.13 N 102.02 E, azimuth 345.73 deg, vertex at 104 km altitude
68 s after launch), not the output of a flown booster model.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cone import ConeSampleSet, ConeSpec, ContainmentReport, leaf
from .constants import DEFAULT_FLOOR_KM, MU_EARTH
from .errors import (
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioSchemaError,
)
from .kepler import StateVector
from .maneuver import ImpulsiveTrajectory, ShockEvent, rocket_delta_v
from .twocars import CarConfig

__all__ = [
    "FY1CParameters",
    "SamplingSpec",
    "Scenario",
    "TwoCarsGame",
    "builtin_scenario",
    "export_points",
    "fy1c_scenario",
    "load_scenario",
    "save_scenario",
]


@dataclass(frozen=True)
class SamplingSpec:
    """Monte Carlo knobs shared by the sampling commands.

    Attributes:
        n_samples: Target-cone draws (or car control draws).
        time_grid: Times sampled across the window of interest.
        seed: Base RNG seed; commands derive their streams from it.
    """

    n_samples: int = 2000
    time_grid: int = 51
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.time_grid < 2:
            raise ValueError(f"time_grid must be at least 2, got {self.time_grid}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class TwoCarsGame:
    """Planar pursuit matchup: configurations plus the study window.

    Attributes:
        pursuer: Car whose cone must contain the evader's.
        evader: Car being chased.
        horizon: Last elapsed time examined, s.
        headstart: First elapsed time examined, s.
    """

    pursuer: CarConfig
    evader: CarConfig
    horizon: float
    headstart: float

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "headstart", float(self.headstart))
        if not 0.0 < self.headstart < self.horizon:
            raise ValueError(
                f"need 0 < headstart < horizon, got headstart="
                f"{self.headstart}, horizon={self.horizon}")


@dataclass(frozen=True)
class Scenario:
    """One engagement description, orbital or planar.

    Exactly one of the two descriptions is present: an orbital scenario
    carries both cone specs (and optionally a shock schedule for
    propagation studies); a planar scenario carries the two-cars
    matchup. Equality is field-for-field, which is what the
    save/load round-trip guarantee is stated in terms of.

    Attributes:
        name: Short identifier; single line, no '#'.
        mu: Gravitational parameter, km^3/s^2.
        floor_km: Altitude floor for every orbital check, km.
        interceptor: Interceptor cone, orbital scenarios only.
        target: Target cone, orbital scenarios only.
        twocars: Planar matchup, planar scenarios only.
        shocks: Optional maneuver schedule for the propagate command.
        sampling: Monte Carlo defaults for this scenario.
    """

    name: str
    mu: float = MU_EARTH
    floor_km: float = DEFAULT_FLOOR_KM
    interceptor: ConeSpec | None = None
    target: ConeSpec | None = None
    twocars: TwoCarsGame | None = None
    shocks: tuple[ShockEvent, ...] = ()
    sampling: SamplingSpec = SamplingSpec()

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "floor_km", float(self.floor_km))
        object.__setattr__(self, "shocks", tuple(self.shocks))
        if (not self.name or "#" in self.name or "\n" in self.name
                or self.name != self.name.strip()):
            raise ValueError(f"name must be a bare single-line token, "
                             f"got {self.name!r}")
        orbital = self.interceptor is not None or self.target is not None
        if orbital and self.twocars is not None:
            raise ValueError("scenario mixes orbital and planar sections")
        if orbital:
            if self.interceptor is None or self.target is None:
                raise ValueError(
                    "orbital scenario needs both interceptor and target")
            for label, spec in (("interceptor", self.interceptor),
                                ("target", self.target)):
                if spec.mu != self.mu or spec.floor != self.floor_km:
                    raise ValueError(
                        f"{label} cone carries mu={spec.mu}, "
                        f"floor={spec.floor}; scenario says mu={self.mu}, "
                        f"floor={self.floor_km}")
        elif self.twocars is None:
            raise ValueError(
                "scenario needs either both cones or a twocars section")
        elif self.shocks:
            raise ValueError("shock schedules apply to orbital scenarios")
        times = [s.t for s in self.shocks]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"shock epochs must strictly increase: {times}")

    @property
    def kind(self) -> str:
        """"orbital" or "twocars"."""
        return "twocars" if self.twocars is not None else "orbital"

    __hash__ = None


# ---------------------------------------------------------------------------
# file schema

_TOP_KEYS = frozenset({"name", "mu_km3_s2", "floor_km"})
_CONE_KEYS = frozenset({"r_km", "v_km_s", "t_s", "budget_km_s", "window_s"})
_SECTION_KEYS: dict[str, frozenset[str]] = {
    "interceptor": _CONE_KEYS,
    "target": _CONE_KEYS,
    "shock": frozenset({"t_s", "dv_km_s"}),
    "pursuer": frozenset({"speed", "turn_radius"}),
    "evader": frozenset({"speed", "turn_radius"}),
    "game": frozenset({"horizon", "headstart"}),
    "sampling": frozenset({"n_samples", "time_grid", "seed"}),
}
# sampling keys may be given individually; every other section is all-or-error
_OPTIONAL_VALUE_SECTIONS = frozenset({"sampling"})
_ORBITAL_SECTIONS = frozenset({"interceptor", "target", "shock"})
_PLANAR_SECTIONS = frozenset({"pursuer", "evader", "game"})

_Pairs = dict[str, tuple[str, int]]


def _parse_lines(lines: list[str]) -> tuple[_Pairs, list[tuple[str, int, _Pairs]]]:
    """Split raw lines into top-level pairs and section blocks."""
    top: _Pairs = {}
    sections: list[tuple[str, int, _Pairs]] = []
    current: _Pairs | None = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]") or len(text) < 3:
                raise ScenarioParseError(
                    f"malformed section header {text!r}", lineno)
            name = text[1:-1].strip()
            if not name:
                raise ScenarioParseError("empty section name", lineno)
            current = {}
            sections.append((name, lineno, current))
            continue
        key, sep, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ScenarioParseError(
                f"expected 'key = value' or '[section]', got {text!r}",
                lineno)
        store = top if current is None else current
        if key in store:
            raise ScenarioSchemaError(f"duplicate key {key!r}", lineno)
        store[key] = (value, lineno)
    return top, sections


def _float(pairs: _Pairs, key: str) -> float:
    value, lineno = pairs[key]
    try:
        return float(value)
    except ValueError:
        raise ScenarioParseError(
            f"{key}: expected a number, got {value!r}", lineno) from None


def _floats(pairs: _Pairs, key: str, n: int) -> tuple[float, ...]:
    value, lineno = pairs[key]
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ScenarioSchemaError(
            f"{key}: expected {n} comma-separated values, got {len(parts)}",
            lineno)
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise ScenarioParseError(
                f"{key}: expected a number, got {part!r}", lineno) from None
    return tuple(out)


def _int(pairs: _Pairs, key: str) -> int:
    value, lineno = pairs[key]
    try:
        return int(value)
    except ValueError:
        raise ScenarioParseError(
            f"{key}: expected an integer, got {value!r}", lineno) from None


def _check_keys(name: str, lineno: int, pairs: _Pairs) -> None:
    allowed = _SECTION_KEYS[name]
    for key, (_, key_line) in pairs.items():
        if key not in allowed:
            raise ScenarioSchemaError(
                f"[{name}] does not take {key!r}", key_line)
    if name in _OPTIONAL_VALUE_SECTIONS:
        return
    missing = sorted(allowed - pairs.keys())
    if missing:
        raise ScenarioSchemaError(
            f"[{name}] is missing {', '.join(missing)}", lineno)


def _cone_from_section(name: str, lineno: int, pairs: _Pairs,
                       mu: float, floor_km: float) -> ConeSpec:
    r = _floats(pairs, "r_km", 3)
    v = _floats(pairs, "v_km_s", 3)
    t = _float(pairs, "t_s")
    budget = _float(pairs, "budget_km_s")
    window = _floats(pairs, "window_s", 2)
    window_line = pairs["window_s"][1]
    if not window[0] < window[1]:
        raise ScenarioInvariantError(
            f"window_s: t2 must exceed t1, got {window}", window_line)
    if not t <= window[0]:
        raise ScenarioInvariantError(
            f"window_s must start at or after the vertex epoch "
            f"t_s = {t}, got {window}", window_line)
    if budget < 0.0:
        raise ScenarioInvariantError(
            f"budget_km_s must be nonnegative, got {budget}",
            pairs["budget_km_s"][1])
    try:
        vertex = StateVector(r=r, v=v, t=t)
        return ConeSpec(vertex=vertex, budget=budget, window=window,
                        floor=floor_km, mu=mu)
    except ValueError as exc:
        raise ScenarioInvariantError(f"[{name}]: {exc}", lineno) from exc


def _car_from_section(name: str, lineno: int, pairs: _Pairs) -> CarConfig:
    speed = _float(pairs, "speed")
    radius = _float(pairs, "turn_radius")
    try:
        return CarConfig(v=speed, R=radius)
    except ValueError as exc:
        raise ScenarioInvariantError(f"[{name}]: {exc}", lineno) from exc


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file.

    Args:
        path: Scenario file location.

    Returns:
        The validated Scenario.

    Raises:
        ScenarioParseError: a line is not blank, comment, section, or
            key = value, or a value is not the expected kind of number.
        ScenarioSchemaError: unknown or repeated sections or keys,
            missing required keys, wrong component counts.
        ScenarioInvariantError: well-formed fields that contradict each
            other (unordered windows, negative budgets, mixed kinds,
            below-floor vertices).
        OSError: unreadable path.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    top, sections = _parse_lines(lines)

    for key, (_, lineno) in top.items():
        if key not in _TOP_KEYS:
            raise ScenarioSchemaError(
                f"unknown top-level key {key!r}", lineno)
    if "name" not in top:
        raise ScenarioSchemaError("scenario has no name", None)
    name = top["name"][0]
    mu = _float(top, "mu_km3_s2") if "mu_km3_s2" in top else MU_EARTH
    floor_km = _float(top, "floor_km") if "floor_km" in top else DEFAULT_FLOOR_KM

    seen: dict[str, int] = {}
    shocks_raw: list[tuple[int, _Pairs]] = []
    blocks: dict[str, tuple[int, _Pairs]] = {}
    for sec_name, lineno, pairs in sections:
        if sec_name not in _SECTION_KEYS:
            raise ScenarioSchemaError(f"unknown section [{sec_name}]", lineno)
        _check_keys(sec_name, lineno, pairs)
        if sec_name == "shock":
            shocks_raw.append((lineno, pairs))
            continue
        if sec_name in seen:
            raise ScenarioSchemaError(
                f"[{sec_name}] appears twice (first at line "
                f"{seen[sec_name]})", lineno)
        seen[sec_name] = lineno
        blocks[sec_name] = (lineno, pairs)

    present = set(blocks)
    orbital = sorted(present & _ORBITAL_SECTIONS) or (
        ["shock"] if shocks_raw else [])
    planar = sorted(present & _PLANAR_SECTIONS)
    if orbital and planar:
        raise ScenarioInvariantError(
            f"scenario mixes orbital ({', '.join(orbital)}) and planar "
            f"({', '.join(planar)}) sections", blocks[planar[0]][0])

    sampling = SamplingSpec()
    if "sampling" in blocks:
        lineno, pairs = blocks["sampling"]
        values = {key: _int(pairs, key) for key in pairs}
        try:
            sampling = SamplingSpec(**values)
        except ValueError as exc:
            raise ScenarioInvariantError(f"[sampling]: {exc}", lineno) from exc

    if planar:
        missing = sorted(_PLANAR_SECTIONS - present)
        if missing:
            raise ScenarioInvariantError(
                "planar scenario is missing "
                + ", ".join(f"[{m}]" for m in missing), None)
        game_line, game_pairs = blocks["game"]
        pursuer = _car_from_section("pursuer", *blocks["pursuer"])
        evader = _car_from_section("evader", *blocks["evader"])
        try:
            game = TwoCarsGame(pursuer=pursuer, evader=evader,
                               horizon=_float(game_pairs, "horizon"),
                               headstart=_float(game_pairs, "headstart"))
        except ValueError as exc:
            raise ScenarioInvariantError(f"[game]: {exc}", game_line) from exc
        return Scenario(name=name, mu=mu, floor_km=floor_km, twocars=game,
                        sampling=sampling)

    missing = sorted({"interceptor", "target"} - present)
    if missing:
        raise ScenarioInvariantError(
            "orbital scenario is missing "
            + ", ".join(f"[{m}]" for m in missing), None)
    interceptor = _cone_from_section("interceptor", *blocks["interceptor"],
                                     mu=mu, floor_km=floor_km)
    target = _cone_from_section("target", *blocks["target"],
                                mu=mu, floor_km=floor_km)

    shocks = []
    last_t = None
    for lineno, pairs in shocks_raw:
        t = _float(pairs, "t_s")
        dv = _floats(pairs, "dv_km_s", 3)
        if last_t is not None and t <= last_t:
            raise ScenarioInvariantError(
                f"shock epochs must strictly increase; t_s = {t} follows "
                f"{last_t}", lineno)
        last_t = t
        try:
            shocks.append(ShockEvent(t=t, dv=dv))
        except ValueError as exc:
            raise ScenarioInvariantError(f"[shock]: {exc}", lineno) from exc

    return Scenario(name=name, mu=mu, floor_km=floor_km,
                    interceptor=interceptor, target=target,
                    shocks=tuple(shocks), sampling=sampling)


def _vec(values) -> str:
    return ", ".join(repr(float(x)) for x in values)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario in canonical form; load_scenario reads it back
    field-for-field identical.

    Args:
        scenario: Scenario to serialize.
        path: Destination file.
    """
    out = [
        f"name = {scenario.name}",
        f"mu_km3_s2 = {scenario.mu!r}",
        f"floor_km = {scenario.floor_km!r}",
    ]
    if scenario.kind == "orbital":
        for label, spec in (("interceptor", scenario.interceptor),
                            ("target", scenario.target)):
            out += [
                "",
                f"[{label}]",
                f"r_km = {_vec(spec.vertex.r)}",
                f"v_km_s = {_vec(spec.vertex.v)}",
                f"t_s = {spec.vertex.t!r}",
                f"budget_km_s = {spec.budget!r}",
                f"window_s = {_vec(spec.window)}",
            ]
        for shock in scenario.shocks:
            out += [
                "",
                "[shock]",
                f"t_s = {shock.t!r}",
                f"dv_km_s = {_vec(shock.dv)}",
            ]
    else:
        game = scenario.twocars
        for label, car in (("pursuer", game.pursuer),
                           ("evader", game.evader)):
            out += [
                "",
                f"[{label}]",
                f"speed = {car.v!r}",
                f"turn_radius = {car.R!r}",
            ]
        out += [
            "",
            "[game]",
            f"horizon = {game.horizon!r}",
            f"headstart = {game.headstart!r}",
        ]
    out += [
        "",
        "[sampling]",
        f"n_samples = {scenario.sampling.n_samples}",
        f"time_grid = {scenario.sampling.time_grid}",
        f"seed = {scenario.sampling.seed}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# bundled engagement

@dataclass(frozen=True)
class FY1CParameters:
    """Published numbers behind the bundled direct-ascent engagement.

    The target is a sun-synchronous weather satellite; the interceptor
    is a two-stage solid booster with a small divert stage. The delta-v
    stocks follow from the rocket equation: the target's from its
    station-keeping thruster and propellant mass, the interceptor's
    from the stage-2 propellant remaining at the cone vertex plus the
    divert stage.

    Attributes:
        target_alt_km: Target circular altitude, km.
        target_inclination_deg: Target inclination, deg.
        target_isp_s: Target thruster specific impulse, s.
        target_mass_full_kg: Target mass with full tanks, kg.
        target_mass_current_kg: Target mass at the engagement epoch, kg.
        target_mass_dry_kg: Target dry mass, kg.
        stage_isp_s: Booster stage specific impulses, s.
        stage_burn_s: Booster stage burn times, s.
        stage2_tare_kg: Stage-2 structure mass, kg.
        stage2_prop_kg: Stage-2 propellant at ignition, kg.
        stage3_mass_full_kg: Divert stage plus payload, full, kg.
        stage3_mass_dry_kg: Divert stage plus payload, empty, kg.
        vertex_alt_km: Interceptor cone vertex altitude, km.
        vertex_t_s: Vertex epoch, s after launch.
        encounter_t_s: Nominal encounter epoch, s after launch.
        interceptor_window_s: Interceptor cone window, s.
        target_window_s: Target cone window, s.
        site_lat_deg: Launch site latitude, deg.
        site_lon_deg: Launch site longitude, deg.
        launch_azimuth_deg: Launch azimuth, deg east of north.
        floor_km: Altitude floor for the engagement, km.
    """

    target_alt_km: float = 860.0
    target_inclination_deg: float = 98.8
    target_isp_s: float = 76.0
    target_mass_full_kg: float = 958.0
    target_mass_current_kg: float = 892.0
    target_mass_dry_kg: float = 880.0
    stage_isp_s: tuple[float, float] = (225.0, 230.0)
    stage_burn_s: tuple[float, float] = (36.0, 36.0)
    stage2_tare_kg: float = 900.0
    stage2_prop_kg: float = 6400.0
    stage3_mass_full_kg: float = 600.0
    stage3_mass_dry_kg: float = 520.0
    vertex_alt_km: float = 104.0
    vertex_t_s: float = 68.0
    encounter_t_s: float = 450.0
    interceptor_window_s: tuple[float, float] = (68.0, 750.0)
    target_window_s: tuple[float, float] = (425.0, 475.0)
    site_lat_deg: float = 28.13
    site_lon_deg: float = 102.02
    launch_azimuth_deg: float = 345.73
    floor_km: float = 90.0

    def __post_init__(self):
        # the published maneuver stock runs from about 11 m/s left at
        # the engagement down the tanks to about 63 m/s when full
        low = self.target_budget_km_s
        high = rocket_delta_v(self.target_isp_s, self.target_mass_full_kg,
                              self.target_mass_dry_kg)
        if not 0.011 * 0.85 <= low <= 0.011 * 1.15:
            raise ValueError(
                f"remaining target stock {low} km/s is outside the "
                f"published 11 m/s low end")
        if not 0.063 * 0.95 <= high <= 0.063 * 1.05:
            raise ValueError(
                f"full target stock {high} km/s is outside the published "
                f"63 m/s high end")

    @property
    def target_budget_km_s(self) -> float:
        """Delta-v stock left in the target at the engagement epoch."""
        return rocket_delta_v(self.target_isp_s, self.target_mass_current_kg,
                              self.target_mass_dry_kg)

    @property
    def interceptor_budget_km_s(self) -> float:
        """Stage-2 remainder past the vertex plus the divert stage."""
        burn_end = self.stage_burn_s[0] + self.stage_burn_s[1]
        frac_left = (burn_end - self.vertex_t_s) / self.stage_burn_s[1]
        m_i = (self.stage2_tare_kg + self.stage2_prop_kg * frac_left
               + self.stage3_mass_full_kg)
        m_f = self.stage2_tare_kg + self.stage3_mass_full_kg
        stage2 = rocket_delta_v(self.stage_isp_s[1], m_i, m_f)
        divert = rocket_delta_v(self.stage_isp_s[1],
                                self.stage3_mass_full_kg,
                                self.stage3_mass_dry_kg)
        return stage2 + divert


# Frozen vertex states for the bundled engagement. Derived once from the
# FY1CParameters geometry: great-circle ascent ground track, encounter
# 250 km downrange at the target altitude, ascending-pass orbit plane,
# target back-propagated to launch, interceptor velocity the cheapest
# zero-rev arc from vertex to encounter. Approximate by construction.
_FY1C_INTERCEPTOR_R_KM = (-1176.7798552137733, 5574.943157217145,
                          3090.8409944430614)
_FY1C_INTERCEPTOR_V_KM_S = (-0.43756194008432386, 2.8416147275412222,
                            2.2649146452830995)
_FY1C_TARGET_R_KM = (-1979.4790816403834, 6941.797875878563,
                     532.6650898560224)
_FY1C_TARGET_V_KM_S = (1.2427223815229218, -0.20679425738498436,
                       7.313163293775773)


def fy1c_scenario() -> Scenario:
    """The bundled demonstration engagement.

    Returns:
        Orbital scenario with the interceptor cone rooted at the 104 km
        ascent vertex and the target cone rooted at the satellite's
        launch-epoch state, windows per FY1CParameters. The target
        budget is the rocket-equation stock rounded to 0.0101 km/s; the
        interceptor budget is the stage-2 remainder plus divert stage.
    """
    params = FY1CParameters()
    interceptor = ConeSpec(
        vertex=StateVector(r=_FY1C_INTERCEPTOR_R_KM,
                           v=_FY1C_INTERCEPTOR_V_KM_S,
                           t=params.vertex_t_s),
        budget=params.interceptor_budget_km_s,
        window=params.interceptor_window_s,
        floor=params.floor_km)
    target = ConeSpec(
        vertex=StateVector(r=_FY1C_TARGET_R_KM, v=_FY1C_TARGET_V_KM_S,
                           t=0.0),
        budget=round(params.target_budget_km_s, 4),
        window=params.target_window_s,
        floor=params.floor_km)
    return Scenario(name="fy1c", mu=MU_EARTH, floor_km=params.floor_km,
                    interceptor=interceptor, target=target,
                    sampling=SamplingSpec(n_samples=2000, time_grid=51,
                                          seed=0))


def builtin_scenario(name: str) -> Scenario:
    """Look up a scenario bundled with the package.

    Args:
        name: Built-in name; currently only "fy1c".

    Returns:
        The named scenario.

    Raises:
        ValueError: unknown name.
    """
    if name == "fy1c":
        return fy1c_scenario()
    raise ValueError(f"unknown built-in scenario {name!r}; try 'fy1c'")


def bundled_path(name: str):
    """Filesystem path of a bundled scenario file (for copying/editing)."""
    return resources.files("futurecone").joinpath(f"data/{name}.cone")


# ---------------------------------------------------------------------------
# exports

_CSV_HEADER = ("t", "x", "y", "z", "body_tag", "margin")


def _write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows)


def export_points(obj, path, format: str = "csv", *, body_tag: str = "cone",
                  times=None) -> None:
    """Write a point cloud, trajectory, or containment report to a file.

    CSV files carry the fixed columns t, x, y, z, body_tag, margin with
    '.' decimals; margin is blank where no membership margin exists.
    Rows are ordered by time, then by sample index, so identical inputs
    produce identical bytes. The structured-text format mirrors the
    containment report's fields one per line.

    Args:
        obj: ConeSampleSet, ImpulsiveTrajectory, or ContainmentReport.
        path: Destination file.
        format: "csv" or "report".
        body_tag: Label written in the body_tag column.
        times: Sample epochs, s; required for a trajectory, ignored
            otherwise.

    Raises:
        ValueError: unsupported object/format combination, or a
            trajectory without times.
        OSError: unwritable path.
    """
    if format not in ("csv", "report"):
        raise ValueError(f"format must be 'csv' or 'report', got {format!r}")
    if isinstance(obj, ContainmentReport):
        if format == "csv":
            r, t = obj.worst_point
            _write_rows(path, [(repr(float(t)), repr(float(r[0])),
                                repr(float(r[1])), repr(float(r[2])),
                                "worst", repr(obj.worst_margin))])
            return
        lines = [
            "containment_report",
            f"contained = {'true' if obj.contained else 'false'}",
            f"fraction_contained = {obj.fraction_contained!r}",
            f"worst_margin = {obj.worst_margin!r}",
            f"worst_point_r = {_vec(obj.worst_point[0])}",
            f"worst_point_t = {obj.worst_point[1]!r}",
            f"samples = {obj.samples}",
            f"window_tested = {_vec(obj.window_tested)}",
        ]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        return
    if format == "report":
        raise ValueError("the report format is for containment reports; "
                         "point clouds export as csv")
    if isinstance(obj, ConeSampleSet):
        rows = []
        for t in obj.leaf_times:
            points = leaf(obj, float(t))
            rows += [(repr(float(t)), repr(p[0]), repr(p[1]), repr(p[2]),
                      body_tag, "") for p in points.tolist()]
        _write_rows(path, rows)
        return
    if isinstance(obj, ImpulsiveTrajectory):
        if times is None:
            raise ValueError("trajectory export needs sample times")
        rows = []
        for t in np.asarray(times, dtype=float):
            state = obj.state_at(float(t))
            r = state.r.tolist()
            rows.append((repr(float(t)), repr(r[0]), repr(r[1]), repr(r[2]),
                         body_tag, ""))
        _write_rows(path, rows)
        return
    raise ValueError(f"cannot export {type(obj).__name__}")
