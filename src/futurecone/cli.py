"""Command-line front end for scenario runs.

Three subcommands drive the library from scenario files:

    futurecone propagate --scenario burn.cone --out ephemeris.csv
    futurecone contain --builtin fy1c --out verdict.report
    futurecone twocars --scenario cars.cone --out verdict.report

Exit codes are script-friendly: 0 for success (including a contained
verdict), 1 for unusable input (flags or scenario files), 2 for numeric
failures inside the run, 3 for a clean not-contained verdict. Verdict
files are written even when the verdict is negative. Every error path
prints a single-line ``futurecone: error: ...`` diagnostic to stderr,
and identical invocations produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from .cone import containment
from .errors import FutureConeError, ScenarioError
from .maneuver import ImpulsiveSchedule, propagate_schedule
from .scenario_io import (
    SamplingSpec,
    Scenario,
    builtin_scenario,
    export_points,
    load_scenario,
)
from .twocars import EquivalenceVerdict, containment_equivalence

class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1 with a one-line diagnostic."""

    def error(self, message: str) -> None:
        self.exit(1, f"futurecone: error: {message}\n")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin is not None:
        return builtin_scenario(args.builtin)
    return load_scenario(args.scenario)


def _resolve_sampling(scenario: Scenario,
                      args: argparse.Namespace) -> SamplingSpec:
    base = scenario.sampling
    return SamplingSpec(
        n_samples=base.n_samples if args.samples is None else args.samples,
        time_grid=base.time_grid if args.grid is None else args.grid,
        seed=base.seed if args.seed is None else args.seed,
    )


def _require_kind(scenario: Scenario, kind: str, command: str) -> None:
    if scenario.kind != kind:
        raise ValueError(f"{command} needs a {kind} scenario, "
                         f"got {scenario.kind}")


def cmd_propagate(scenario: Scenario, args: argparse.Namespace) -> int:
    """Fly the target body through its shock schedule and export it.

    The scenario's [shock] sections become an impulsive schedule whose
    budget is exactly their summed magnitude, so an unflyable shock
    surfaces as a propagation error rather than being rejected up
    front. Samples are taken on a uniform grid from the target vertex
    to the end of its window.

    Args:
        scenario: Orbital scenario; its target cone is propagated.
        args: Parsed flags.

    Returns:
        0 on success.

    Raises:
        ValueError: Scenario is not orbital, or an override is out of
            range.
        FutureConeError: Propagation left the model's valid range.
    """
    _require_kind(scenario, "orbital", "propagate")
    sampling = _resolve_sampling(scenario, args)
    budget = float(sum(np.linalg.norm(shock.dv)
                       for shock in scenario.shocks))
    schedule = ImpulsiveSchedule(shocks=scenario.shocks, budget=budget)
    target = scenario.target
    trajectory = propagate_schedule(target.vertex, schedule,
                                    t_end=target.window[1],
                                    mu=scenario.mu, floor=scenario.floor_km)
    times = np.linspace(target.vertex.t, target.window[1],
                        sampling.time_grid)
    export_points(trajectory, args.out, format=args.format or "csv",
                  body_tag="target", times=times)
    print(f"propagate: wrote {sampling.time_grid} states to {args.out}")
    return 0


def cmd_contain(scenario: Scenario, args: argparse.Namespace) -> int:
    """Run the containment test and write the verdict file.

    Args:
        scenario: Orbital scenario with interceptor and target cones.
        args: Parsed flags.

    Returns:
        0 when the target cone is contained, 3 when it is not; the
        verdict file is written either way.

    Raises:
        ValueError: Scenario is not orbital, or an override is out of
            range.
        FutureConeError: Sampling or propagation failed numerically.
    """
    _require_kind(scenario, "orbital", "contain")
    sampling = _resolve_sampling(scenario, args)
    report = containment(scenario.interceptor, scenario.target,
                         n_target_samples=sampling.n_samples,
                         time_grid=sampling.time_grid, seed=sampling.seed)
    export_points(report, args.out, format=args.format or "report")
    print(f"contain: contained = {_bool(report.contained)} "
          f"fraction = {float(report.fraction_contained)!r} "
          f"worst_margin = {float(report.worst_margin)!r}")
    return 0 if report.contained else 3


def _write_twocars_report(verdict: EquivalenceVerdict, path: str) -> None:
    lines = [
        "twocars_report",
        f"cockayne_speed_ok = {_bool(verdict.cockayne.speed_ok)}",
        f"cockayne_accel_ok = {_bool(verdict.cockayne.accel_ok)}",
        f"cockayne_intercept = {_bool(verdict.cockayne.intercept)}",
        f"equivalence_radius_ok = {_bool(verdict.radius_ok)}",
        f"equivalence_accel_ok = {_bool(verdict.accel_ok)}",
        f"equivalence_contained = {_bool(verdict.contained)}",
        f"agree = {_bool(verdict.agree)}",
        f"evader_peak_accel = {float(verdict.evader_peak_accel)!r}",
        f"pursuer_peak_accel = {float(verdict.pursuer_peak_accel)!r}",
    ]
    if verdict.witness is None:
        lines.append("witness = none")
    else:
        lines.append("witness = " + ", ".join(repr(float(c))
                                              for c in verdict.witness))
    with open(path, "w", newline="\n") as stream:
        stream.write("\n".join(lines) + "\n")


def cmd_twocars(scenario: Scenario, args: argparse.Namespace) -> int:
    """Run both Two Cars verdicts and write them side by side.

    Args:
        scenario: Two Cars scenario with pursuer, evader, and game
            window.
        args: Parsed flags; the format must be report.

    Returns:
        0 when the sampled verdict is contained, 3 when it is not.

    Raises:
        ValueError: Scenario is not a Two Cars game, the format is not
            report, or the game window starts before a full pursuer
            turn.
    """
    _require_kind(scenario, "twocars", "twocars")
    sampling = _resolve_sampling(scenario, args)
    if (args.format or "report") != "report":
        raise ValueError("twocars verdicts only have a report form")
    game = scenario.twocars
    verdict = containment_equivalence(game.pursuer, game.evader,
                                      horizon=game.horizon,
                                      headstart=game.headstart,
                                      samples=sampling.n_samples,
                                      time_grid=sampling.time_grid,
                                      seed=sampling.seed)
    _write_twocars_report(verdict, args.out)
    print(f"twocars: contained = {_bool(verdict.contained)} "
          f"cockayne = {_bool(verdict.cockayne.intercept)} "
          f"agree = {_bool(verdict.agree)}")
    return 0 if verdict.contained else 3


_COMMANDS = {
    "propagate": cmd_propagate,
    "contain": cmd_contain,
    "twocars": cmd_twocars,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="futurecone",
                     description="Reachability runs from scenario files.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)
    descriptions = {
        "propagate": "Fly the target through its shocks and export "
                     "sampled states.",
        "contain": "Decide whether the target cone sits inside the "
                   "interceptor cone (exit 0 yes, 3 no).",
        "twocars": "Compare the sampled Two Cars verdict with the "
                   "closed-form one (exit 0 contained, 3 not).",
    }
    for name, text in descriptions.items():
        sub = subparsers.add_parser(name, help=text, description=text)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", metavar="PATH",
                            help="scenario file to run")
        source.add_argument("--builtin", metavar="NAME",
                            help="bundled scenario name (fy1c)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the scenario's sampling seed")
        sub.add_argument("--samples", type=int, default=None,
                         help="override the scenario's sample count")
        sub.add_argument("--grid", type=int, default=None,
                         help="override the scenario's time grid size")
        sub.add_argument("--out", metavar="PATH", required=True,
                         help="output file to write")
        sub.add_argument("--format", choices=("csv", "report"),
                         default=None,
                         help="output format (default: csv for "
                              "propagate, report otherwise)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Args:
        argv: Flag list, or None for sys.argv.

    Returns:
        0 success or contained, 1 unusable input, 2 numeric failure,
        3 not contained.
    """
    args = _build_parser().parse_args(argv)
    try:
        scenario = _resolve_scenario(args)
        return _COMMANDS[args.command](scenario, args)
    except (ScenarioError, OSError, ValueError) as err:
        print(f"futurecone: error: {err}", file=sys.stderr)
        return 1
    except FutureConeError as err:
        print(f"futurecone: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
