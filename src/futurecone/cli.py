"""Command-line front end for scenario runs.

Three subcommands drive the library from scenario files:

    futurecone propagate --scenario burn.cone --out ephemeris.csv
    futurecone contain --builtin fy1c --out verdict.report
    futurecone twocars --scenario cars.cone --out verdict.report

Exit codes are script-friendly: 0 for success (including a contained
verdict), 1 for unusable input (flags or scenario files), 2 for numeric
failures inside the run or a count over the work cap, 3 for a clean
not-contained verdict. Each command takes only the flags it uses, and
the parser refuses the rest before any work. Verdict files are written
even when the verdict is negative. Every error path prints a
single-line ``futurecone: error: ...`` diagnostic to stderr, and
identical invocations produce byte-identical output files. The parser
is built once per process, which saves time only for callers that run
main more than once.

main also has glibc keep freed heap memory mapped, once per process
(_keep_heap_mapped): with glibc's defaults each containment request
faulted its working set in again, about 1,700 pages for a 200 x 51
fy1c run, and with the policy none after the first. The policy belongs
to the command's own process; importing the package sets nothing, and
library callers keep their allocator defaults.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .cone import containment
from .errors import FutureConeError, ScenarioError, _check_work
from .maneuver import propagate_schedule
from .scenario_io import (
    SamplingSpec,
    Scenario,
    _lines,
    builtin_scenario,
    export_points,
    load_scenario,
)
from .twocars import containment_equivalence


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1 with a one-line diagnostic."""

    def error(self, message: str) -> None:
        self.exit(1, f"futurecone: error: {message}\n")


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin is not None:
        return builtin_scenario(args.builtin)
    return load_scenario(args.scenario)


def _resolve_sampling(scenario: Scenario,
                      args: argparse.Namespace) -> SamplingSpec:
    """The scenario's sampling under the sampling flags the command
    takes."""
    flags = {"n_samples": "samples", "time_grid": "grid", "seed": "seed"}
    return replace(scenario.sampling, **{
        field: value for field, flag in flags.items()
        if (value := getattr(args, flag, None)) is not None})


def _require_kind(scenario: Scenario, kind: str, command: str) -> None:
    if scenario.kind != kind:
        raise ValueError(f"{command} needs a {kind} scenario, "
                         f"got {scenario.kind}")


def cmd_propagate(scenario: Scenario, args: argparse.Namespace) -> int:
    """Fly the target body through its shock schedule and export it.

    The scenario's [shock] sections are its schedule; an unflyable
    shock surfaces as a propagation error. Samples are taken on a
    uniform grid from the target vertex to the end of its window.

    Args:
        scenario: Orbital scenario; its target cone is propagated.
        args: Parsed flags.

    Returns:
        0 on success.

    Raises:
        ValueError: Scenario is not orbital, or an override is out of
            range.
        FutureConeError: The grid is over the work cap, or propagation
            left the model's valid range.
    """
    _require_kind(scenario, "orbital", "propagate")
    sampling = _resolve_sampling(scenario, args)
    _check_work(sampling.time_grid, "grid times")
    target = scenario.target
    trajectory = propagate_schedule(target.vertex, scenario.shocks,
                                    t_end=target.window[1],
                                    mu=scenario.mu, floor=scenario.floor_km)
    times = np.linspace(target.vertex.t, target.window[1],
                        sampling.time_grid)
    export_points(trajectory, args.out, format=args.format,
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
    export_points(report, args.out, format=args.format)
    print("contain:", *_lines([
        ("contained", report.contained),
        ("fraction", report.fraction_contained),
        ("worst_margin", report.worst_margin)]))
    return 0 if report.contained else 3


def cmd_twocars(scenario: Scenario, args: argparse.Namespace) -> int:
    """Run both Two Cars verdicts and write them side by side.

    Args:
        scenario: Two Cars scenario with pursuer, evader, and game
            window.
        args: Parsed flags.

    Returns:
        0 when the containment verdict is contained, 3 when it is not.

    Raises:
        ValueError: Scenario is not a Two Cars game, or the game window
            starts before a full pursuer turn.
        FutureConeError: The grid's poses are over the work cap.
    """
    _require_kind(scenario, "twocars", "twocars")
    game = scenario.twocars
    verdict = containment_equivalence(
        game.pursuer, game.evader, horizon=game.horizon,
        headstart=game.headstart,
        time_grid=_resolve_sampling(scenario, args).time_grid)
    export_points(verdict, args.out, format=args.format)
    print("twocars:", *_lines([
        ("contained", verdict.contained),
        ("cockayne", verdict.cockayne.intercept),
        ("agree", verdict.agree)]))
    return 0 if verdict.contained else 3


# glibc's mallopt parameter numbers (malloc.h) and the values main sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling on 64-bit builds
_TRIM_THRESHOLD = 256 << 20  # above a containment chunk's working set


@functools.cache
def _keep_heap_mapped() -> None:
    """Have glibc keep freed heap memory mapped for this process.

    By default glibc returns the top of its heap to the kernel, and
    mmaps every array of 128 KiB or more afresh, whenever a chunk of 64
    KiB or more is freed; each request then faults its working set in
    again, page by page. Setting the mmap threshold to its ceiling and
    the trim threshold above the working set keeps those pages for the
    next chunk and request. Both are set: either one alone switches off
    glibc's dynamic mmap threshold, and the trim one alone leaves every
    array of 128 KiB or more mmapped. Nothing happens without glibc's
    mallopt (Windows cannot open the running program as None).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# name: (function, description, output formats with the default first)
_COMMANDS = {
    "propagate": (cmd_propagate,
                  "Fly the target through its shocks and export sampled "
                  "states.", ("csv",)),
    "contain": (cmd_contain,
                "Decide whether the target cone sits inside the "
                "interceptor cone (exit 0 yes, 3 no).", ("report", "csv")),
    "twocars": (cmd_twocars,
                "Compare the Two Cars containment verdict with the "
                "closed-form one (exit 0 contained, 3 not).", ("report",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="futurecone",
                     description="Reachability runs from scenario files.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)
    for name, (_, text, formats) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=text, description=text)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", metavar="PATH",
                            help="scenario file to run")
        source.add_argument("--builtin", metavar="NAME",
                            help="bundled scenario name (fy1c)")
        if name == "contain":  # the one command that makes random draws
            sub.add_argument("--seed", type=int, default=None,
                             help="override the scenario's sampling seed")
            sub.add_argument("--samples", type=int, default=None,
                             help="override the scenario's sample count")
        sub.add_argument("--grid", type=int, default=None,
                         help="override the scenario's time grid size")
        sub.add_argument("--out", metavar="PATH", required=True,
                         help="output file to write")
        sub.add_argument("--format", choices=formats,
                         default=formats[0],
                         help=f"output format: {' or '.join(formats)} "
                              f"(default: {formats[0]})")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Args:
        argv: Flag list, or None for sys.argv.

    Returns:
        0 success or contained, 1 unusable input, 2 numeric failure,
        3 not contained.
    """
    _keep_heap_mapped()
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command][0]
    try:
        return command(_resolve_scenario(args), args)
    except (ScenarioError, OSError, ValueError) as err:
        print(f"futurecone: error: {err}", file=sys.stderr)
        return 1
    except FutureConeError as err:
        print(f"futurecone: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
