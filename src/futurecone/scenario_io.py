"""Scenario files, the bundled demonstration engagement, and exports.

A scenario is a small structured-text document describing either an
orbital engagement (two cones: interceptor and target) or a planar
pursuit game (two cars). The format is line-based: `key = value` pairs,
`[section]` headers, `#` comments, with units spelled out in the key
names so a mis-scaled number is visible at the point it is written.
A load error carries the 1-based line it refers to, or None when it is
about the file as a whole: no name, neither kind, a missing cone or a
missing planar section.

Bundled scenarios are the files in the package's `data/` directory.
`fy1c.cone` reconstructs a direct-ascent intercept of a sun-synchronous
satellite at 860 km; FY1CParameters holds the published numbers its
budgets and windows derive from. Its vertex states are approximate
scenario data, frozen from a simplified great-circle ascent (launch
site 28.13 N 102.02 E, azimuth 345.73 deg, vertex at 104 km altitude
68 s after launch), not the output of a flown booster model.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
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
from .maneuver import (
    ImpulsiveSchedule,
    ImpulsiveTrajectory,
    ShockError,
    ShockOrderError,
    rocket_delta_v,
)
from .twocars import CarConfig, EquivalenceVerdict

__all__ = [
    "FY1CParameters",
    "SamplingSpec",
    "Scenario",
    "TwoCarsGame",
    "builtin_scenario",
    "export_points",
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
        horizon: Last elapsed time examined, s, finite.
        headstart: First elapsed time examined, s.
    """

    pursuer: CarConfig
    evader: CarConfig
    horizon: float
    headstart: float

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "headstart", float(self.headstart))
        if not np.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if not 0.0 < self.headstart < self.horizon:
            raise ValueError(
                f"headstart must satisfy 0 < headstart < horizon, got "
                f"headstart={self.headstart}, horizon={self.horizon}")


def _check_kind(orbital: bool, planar: bool) -> None:
    """A scenario is orbital (cones, shocks) or planar (two cars)."""
    if orbital and planar:
        raise ValueError("scenario mixes orbital and planar sections")
    if not (orbital or planar):
        raise ValueError(
            "scenario needs either both cones or a twocars section")


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
        shocks: Target maneuver schedule for the propagate command;
            empty by default.
        sampling: Monte Carlo defaults for this scenario.
    """

    name: str
    mu: float = MU_EARTH
    floor_km: float = DEFAULT_FLOOR_KM
    interceptor: ConeSpec | None = None
    target: ConeSpec | None = None
    twocars: TwoCarsGame | None = None
    shocks: ImpulsiveSchedule = field(default_factory=ImpulsiveSchedule)
    sampling: SamplingSpec = SamplingSpec()

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "floor_km", float(self.floor_km))
        if (not self.name or "#" in self.name
                or self.name.splitlines() != [self.name]
                or self.name != self.name.strip()):
            raise ValueError(f"name must be a bare single-line token, "
                             f"got {self.name!r}")
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not np.isfinite(self.floor_km):
            raise ValueError(f"floor_km must be finite, got {self.floor_km}")
        cones = (("interceptor", self.interceptor), ("target", self.target))
        orbital = bool(self.shocks.times.size) or any(
            spec is not None for _, spec in cones)
        _check_kind(orbital, self.twocars is not None)
        if orbital:
            missing = [label for label, spec in cones if spec is None]
            if missing:
                raise ValueError(
                    f"orbital scenario is missing {' and '.join(missing)}")
            for label, spec in cones:
                if spec.mu != self.mu or spec.floor != self.floor_km:
                    raise ValueError(
                        f"{label} cone carries mu={spec.mu}, "
                        f"floor={spec.floor}; scenario says mu={self.mu}, "
                        f"floor={self.floor_km}")

    @property
    def kind(self) -> str:
        """"orbital" or "twocars"."""
        return "twocars" if self.twocars is not None else "orbital"

    __hash__ = None


# ---------------------------------------------------------------------------
# file schema

# The scenario format, section by section ("" is the top level): each
# key in file order, with what its value holds: one str, int or float,
# or that many comma-separated numbers. A file may leave out the
# top-level keys other than name and any [sampling] key; [shock] may
# repeat. Loading and saving both follow this table.
_CONE = {"r_km": 3, "v_km_s": 3, "t_s": float, "budget_km_s": float,
         "window_s": 2}
_CAR = {"speed": float, "turn_radius": float}
_SCHEMA: dict[str, dict[str, type | int]] = {
    "": {"name": str, "mu_km3_s2": float, "floor_km": float},
    "interceptor": _CONE,
    "target": _CONE,
    "shock": {"t_s": float, "dv_km_s": 3},
    "pursuer": _CAR,
    "evader": _CAR,
    "game": {"horizon": float, "headstart": float},
    "sampling": {"n_samples": int, "time_grid": int, "seed": int},
}
_ORBITAL_SECTIONS = frozenset({"interceptor", "target", "shock"})
_PLANAR_SECTIONS = frozenset({"pursuer", "evader", "game"})

_Pairs = dict[str, tuple[str, int]]


def _parse_lines(lines: list[str]) -> tuple[_Pairs, list[tuple[str, int, _Pairs]]]:
    """Split raw lines into top-level pairs and section blocks."""
    top: _Pairs = {}
    sections: list[tuple[str, int, _Pairs]] = []
    store = top  # the pairs of the section being read
    for lineno, raw in enumerate(lines, start=1):
        text = raw.partition("#")[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]") or len(text) < 3:
                raise ScenarioParseError(
                    f"malformed section header {text!r}", lineno)
            name = text[1:-1].strip()
            if not name:
                raise ScenarioParseError("empty section name", lineno)
            store = {}
            sections.append((name, lineno, store))
            continue
        key, sep, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ScenarioParseError(
                f"expected 'key = value' or '[section]', got {text!r}",
                lineno)
        if key in store:
            raise ScenarioSchemaError(f"duplicate key {key!r}", lineno)
        store[key] = (value, lineno)
    return top, sections


def _read(kind, key: str, pairs: _Pairs):
    """The value of key in pairs, read as its schema kind; a refusal
    names the part that does not read."""
    text, lineno = pairs[key]
    single = isinstance(kind, type)
    if single:
        parts, cast = [text], kind
    else:
        parts, cast = [p.strip() for p in text.split(",")], float
        if len(parts) != kind:
            raise ScenarioSchemaError(
                f"{key}: expected {kind} comma-separated values, got "
                f"{len(parts)}", lineno)
    values = []
    for part in parts:
        try:
            values.append(cast(part))
        except ValueError:
            noun = "an integer" if cast is int else "a number"
            raise ScenarioParseError(
                f"{key}: expected {noun}, got {part!r}", lineno) from None
    return values[0] if single else tuple(values)


def _values(section: str, pairs: _Pairs) -> dict:
    """The section's values present in pairs, read, in schema order."""
    values = {}
    for key, kind in _SCHEMA[section].items():
        if key in pairs:
            values[key] = _read(kind, key, pairs)
    return values


# Constructor errors start with the offending field. Its key is the
# field's own name, or this where the two differ:
_FIELD_KEYS = {"window": "window_s", "budget": "budget_km_s",
               "vertex": "r_km", "floor": "floor_km", "mu": "mu_km3_s2",
               "t": "t_s", "dv": "dv_km_s", "position": "r_km"}
# A cone's vertex state names its fields so; a file names them by key.
_VERTEX_KEYS = {"r": "r_km", "v": "v_km_s", "epoch": "t_s"}


def _invariant(exc: ValueError, label: str, where: tuple[_Pairs, ...],
               line: int | None) -> ScenarioInvariantError:
    """exc, prefixed by label, at the line of the key that its first word
    names, if one of the pairs in where holds it, else at line."""
    field = str(exc).split()[0].rstrip(":")
    key = _FIELD_KEYS.get(field, field)
    found = [pairs[key][1] for pairs in where if key in pairs]
    return ScenarioInvariantError(label + str(exc),
                                  found[0] if found else line)


def _build(make, label: str, where: tuple[_Pairs, ...], line: int | None,
           *args, **kwargs):
    """make(*args, **kwargs), refusing as _invariant does."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _invariant(exc, label, where, line) from exc


def _cone(mu: float, floor: float, r, v, t, budget, window) -> ConeSpec:
    """A cone from its section's values; a refused vertex state value is
    named by its key."""
    try:
        vertex = StateVector(r=r, v=v, t=t)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_VERTEX_KEYS.get(field, field)} {rest}") from exc
    return ConeSpec(vertex=vertex, budget=budget, window=window, floor=floor,
                    mu=mu)


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file.

    Args:
        path: Scenario file location.

    Returns:
        The validated Scenario.

    Raises:
        ScenarioParseError: a line is not UTF-8 text, not blank,
            comment, section, or key = value, or a value is not the
            expected kind of number.
        ScenarioSchemaError: unknown or repeated sections or keys,
            missing required keys, wrong component counts.
        ScenarioInvariantError: well-formed fields that contradict each
            other (unordered windows, negative budgets, mixed kinds,
            below-floor vertices).
        OSError: unreadable path.
    """
    # splitlines sees the same lines as a text-mode read, at less cost
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the valid prefix plus one character ends on the bad byte's line
        line = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise ScenarioParseError("not valid UTF-8 text", line) from None
    top, sections = _parse_lines(text.splitlines())

    for key, (_, lineno) in top.items():
        if key not in _SCHEMA[""]:
            raise ScenarioSchemaError(
                f"unknown top-level key {key!r}", lineno)
    if "name" not in top:
        raise ScenarioSchemaError("scenario has no name", None)
    head = _values("", top)
    mu = head.get("mu_km3_s2", MU_EARTH)
    floor_km = head.get("floor_km", DEFAULT_FLOOR_KM)

    shocks_raw: list[tuple[int, _Pairs]] = []
    blocks: dict[str, tuple[int, _Pairs]] = {}
    for sec_name, lineno, pairs in sections:
        # section names are never empty, so the top level cannot match
        if sec_name not in _SCHEMA:
            raise ScenarioSchemaError(f"unknown section [{sec_name}]", lineno)
        keys = _SCHEMA[sec_name]
        for key, (_, key_line) in pairs.items():
            if key not in keys:
                raise ScenarioSchemaError(
                    f"[{sec_name}] does not take {key!r}", key_line)
        missing = sorted(keys.keys() - pairs.keys())
        if missing and sec_name != "sampling":
            raise ScenarioSchemaError(
                f"[{sec_name}] is missing {', '.join(missing)}", lineno)
        if sec_name == "shock":
            shocks_raw.append((lineno, pairs))
        elif sec_name in blocks:
            raise ScenarioSchemaError(
                f"[{sec_name}] appears twice (first at line "
                f"{blocks[sec_name][0]})", lineno)
        else:
            blocks[sec_name] = (lineno, pairs)

    planar_lines = sorted(blocks[s][0]
                          for s in blocks.keys() & _PLANAR_SECTIONS)
    _build(_check_kind, "", (), planar_lines[0] if planar_lines else None,
           bool(blocks.keys() & _ORBITAL_SECTIONS or shocks_raw),
           bool(planar_lines))

    def build(make, name: str, lineno: int, pairs: _Pairs, *leading):
        """make(*leading, the section's values), refusing at its lines."""
        return _build(make, f"[{name}] ", (pairs, top), lineno, *leading,
                      *_values(name, pairs).values())

    sampling = SamplingSpec()
    if "sampling" in blocks:
        lineno, pairs = blocks["sampling"]
        sampling = _build(SamplingSpec, "[sampling] ", (pairs,), lineno,
                          **_values("sampling", pairs))

    game = None
    if planar_lines:
        # a TwoCarsGame cannot be built without all three sections
        missing = sorted(_PLANAR_SECTIONS - blocks.keys())
        if missing:
            raise ScenarioInvariantError(
                "planar scenario is missing "
                + ", ".join(f"[{m}]" for m in missing), None)
        cars = [build(CarConfig, label, *blocks[label])
                for label in ("pursuer", "evader")]
        game = build(TwoCarsGame, "game", *blocks["game"], *cars)

    cones = {label: build(_cone, label, *blocks[label], mu, floor_km)
             for label in ("interceptor", "target") if label in blocks}
    shocks = [_values("shock", pairs) for _, pairs in shocks_raw]
    try:
        schedule = ImpulsiveSchedule([shock["t_s"] for shock in shocks],
                                     [shock["dv_km_s"] for shock in shocks])
    except ShockError as exc:
        # an order refusal names no key: it stays at the section line
        lineno, pairs = shocks_raw[exc.index]
        label = "" if isinstance(exc, ShockOrderError) else "[shock] "
        raise _invariant(exc, label, (pairs,), lineno) from exc

    try:
        return Scenario(name=head["name"], mu=mu, floor_km=floor_km,
                        twocars=game, shocks=schedule, sampling=sampling,
                        **cones)
    except ValueError as exc:
        raise _invariant(exc, "", (top,), None) from exc


def _format(value) -> str:
    """The text of one value: true/false, none, integers as they are,
    repr of each float, vectors comma-joined."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return ", ".join(repr(float(x)) for x in value)


def _lines(fields) -> list[str]:
    """One `key = value` line per (key, value) pair."""
    return [f"{key} = {_format(value)}" for key, value in fields]


def _sections(scenario: Scenario):
    """(section, its values in schema order) for each section of the
    scenario's file, in file order."""
    yield "", (scenario.name, scenario.mu, scenario.floor_km)
    if scenario.kind == "orbital":
        for label in ("interceptor", "target"):
            spec = getattr(scenario, label)
            yield label, (spec.vertex.r, spec.vertex.v, spec.vertex.t,
                          spec.budget, spec.window)
        for t, dv in zip(scenario.shocks.times, scenario.shocks.shocks):
            yield "shock", (t, dv)
    else:
        game = scenario.twocars
        for label in ("pursuer", "evader"):
            car = getattr(game, label)
            yield label, (car.v, car.R)
        yield "game", (game.horizon, game.headstart)
    sampling = scenario.sampling
    yield "sampling", (sampling.n_samples, sampling.time_grid, sampling.seed)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario in canonical form; load_scenario reads it back
    field-for-field identical.

    Args:
        scenario: Scenario to serialize.
        path: Destination file.
    """
    out: list[str] = []
    for section, values in _sections(scenario):
        if section:
            out += ["", f"[{section}]"]
        out += _lines(zip(_SCHEMA[section], values))
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


def bundled_path(name: str):
    """Path of the bundled scenario file data/<name>.cone.

    Raises:
        ValueError: no bundled scenario has that name.
    """
    data = resources.files("futurecone").joinpath("data")
    names = sorted(entry.name[:-len(".cone")] for entry in data.iterdir()
                   if entry.name.endswith(".cone"))
    if name not in names:
        raise ValueError(f"unknown built-in scenario {name!r}; try "
                         + ", ".join(map(repr, names)))
    return data.joinpath(f"{name}.cone")


def builtin_scenario(name: str) -> Scenario:
    """Load a scenario bundled with the package, by file stem.

    Raises:
        ValueError: no bundled scenario has that name.
    """
    return load_scenario(bundled_path(name))


# ---------------------------------------------------------------------------
# exports

_CSV_HEADER = ("t", "x", "y", "z", "body_tag", "margin")


def _write_points(path, rows, tail: tuple[str, str]) -> None:
    """rows, pairs (t, [x, y, z]) of floats, as csv rows under the header,
    each ending in tail, its (body_tag, margin) columns: csv.writer's
    bytes, built as one join and written in one call. A float's repr
    needs no quoting, and the tail is quoted once, as csv.writer quotes
    it."""
    quoted = io.StringIO()
    csv.writer(quoted, lineterminator="\n").writerow(tail)
    tail = quoted.getvalue()
    text = "".join([",".join(_CSV_HEADER) + "\n",
                    *[f"{t!r},{x!r},{y!r},{z!r},{tail}"
                      for t, (x, y, z) in rows]])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _report_lines(verdict) -> list[str]:
    """The verdict's report, one field per line."""
    if isinstance(verdict, ContainmentReport):
        return ["containment_report", *_lines([
            ("contained", verdict.contained),
            ("fraction_contained", verdict.fraction_contained),
            ("worst_margin", verdict.worst_margin),
            ("worst_point_r", verdict.worst_point[0]),
            ("worst_point_t", verdict.worst_point[1]),
            ("samples", verdict.samples),
            ("window_tested", verdict.window_tested),
        ])]
    cockayne = verdict.cockayne
    return ["twocars_report", *_lines([
        ("cockayne_speed_ok", cockayne.speed_ok),
        ("cockayne_accel_ok", cockayne.accel_ok),
        ("cockayne_intercept", cockayne.intercept),
        ("equivalence_radius_ok", verdict.radius_ok),
        ("equivalence_accel_ok", verdict.accel_ok),
        ("equivalence_contained", verdict.contained),
        ("agree", verdict.agree),
        ("evader_peak_accel", verdict.evader_peak_accel),
        ("pursuer_peak_accel", verdict.pursuer_peak_accel),
        ("witness", verdict.witness),
    ])]


def export_points(obj, path, format: str = "csv", *, body_tag: str = "cone",
                  times=None) -> None:
    """Write a point cloud, trajectory, or verdict report to a file.

    CSV files carry the fixed columns t, x, y, z, body_tag, margin with
    '.' decimals; margin is blank where no membership margin exists.
    Rows are ordered by time, then by sample index, so identical inputs
    produce identical bytes. The report format writes a verdict's
    fields one per line; it is the only form of a Two Cars verdict, and
    a containment report's csv form is its worst-point row.

    Args:
        obj: ConeSampleSet, ImpulsiveTrajectory, ContainmentReport, or
            EquivalenceVerdict.
        path: Destination file.
        format: "csv" or "report".
        body_tag: Label written in the body_tag column.
        times: Sample epochs, s; required for a point cloud (its leaf
            at each epoch) or a trajectory, ignored for a verdict.

    Raises:
        ValueError: unsupported object/format combination, a point
            cloud or trajectory without times, or a time outside its
            span.
        OSError: unwritable path.
    """
    if format not in ("csv", "report"):
        raise ValueError(f"format must be 'csv' or 'report', got {format!r}")
    if format == "report":
        if not isinstance(obj, (ContainmentReport, EquivalenceVerdict)):
            raise ValueError("the report format is for verdicts; point "
                             "clouds and trajectories export as csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(_report_lines(obj)) + "\n")
        return
    if isinstance(obj, EquivalenceVerdict):
        raise ValueError("twocars verdicts only have a report form")
    if isinstance(obj, ContainmentReport):
        r, t = obj.worst_point
        _write_points(path, [(t, r.tolist())],
                      ("worst", repr(obj.worst_margin)))
        return
    if not isinstance(obj, (ConeSampleSet, ImpulsiveTrajectory)):
        raise ValueError(f"cannot export {type(obj).__name__}")
    if times is None:
        raise ValueError(f"{type(obj).__name__} export needs sample times")
    times = np.asarray(times, dtype=float).tolist()
    if isinstance(obj, ConeSampleSet):
        rows = [(t, p) for t in times for p in leaf(obj, t).tolist()]
    else:
        rows = zip(times, obj.states(times)[0].tolist())
    _write_points(path, rows, (body_tag, ""))
