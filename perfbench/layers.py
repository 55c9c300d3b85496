"""Which functions are traced, which counters they feed, and the
per-layer metric list.

Layers are the program's modules. Each traced function reports
``<module>.<function>.calls``, ``.busy_s`` (time inside the call) and
``.self_s`` (busy time not covered by traced callees). Counters are read
from arguments and results at the same boundaries, so ratios are
measured where the work happens. Every metric is reported on every
workload; a layer that does no work on a workload reads 0, and a ratio
whose base is 0 reads 0.
"""
from __future__ import annotations

import os

import numpy as np

# (module, attribute) -> span name. Methods are given as "Class.method".
TRACED = {
    ("cli", "main"): "cli.main",
    ("scenario_io", "load_scenario"): "scenario_io.load_scenario",
    ("scenario_io", "export_points"): "scenario_io.export_points",
    ("cone", "containment"): "cone.containment",
    ("cone", "membership"): "cone.membership",
    ("cone", "sample_cone"): "cone.sample_cone",
    ("cone", "reduce_to_single_burn"): "cone.reduce_to_single_burn",
    ("lambert", "solve_lambert"): "lambert.solve_lambert",
    ("kepler", "state_at"): "kepler.state_at",
    ("kepler", "arc_from_state"): "kepler.arc_from_state",
    ("kepler", "min_radius"): "kepler.min_radius",
    ("maneuver", "propagate_schedule"): "maneuver.propagate_schedule",
    ("maneuver", "integrate_thrust"): "maneuver.integrate_thrust",
    ("maneuver", "shock_approximation"): "maneuver.shock_approximation",
    ("maneuver", "ImpulsiveTrajectory.state_at"):
        "maneuver.trajectory_state_at",
    ("twocars", "propagate_car"): "twocars.propagate_car",
    ("twocars", "explicit_policy_pursuit"): "twocars.explicit_policy_pursuit",
    ("twocars", "containment_equivalence"): "twocars.containment_equivalence",
}
ROOT_SPAN = "bench.request"
HIST_BINS = 7  # solutions per Lambert call: 0..5, then 6 or more

COUNTERS = {
    "cone.draws": "count",
    "cone.draws_retained": "count",
    "cone.draw_yield": "ratio",
    "cone.points_tested": "count",
    "cone.points_below_floor": "count",
    "cone.points_before_epoch": "count",
    "cone.member_frac": "ratio",
    "lambert.solutions": "count",
    "lambert.solutions_per_call": "count",
    **{f"lambert.solutions_hist.{k}": "count" for k in range(HIST_BINS - 1)},
    f"lambert.solutions_hist.{HIST_BINS - 1}plus": "count",
    "lambert.ambiguous": "count",
    "kepler.floor_checks": "count",
    "kepler.floor_accepted": "count",
    "kepler.floor_accept_frac": "ratio",
    "maneuver.shocks": "count",
    "maneuver.integrate_thrust.steps": "count",
    "scenario_io.export_points.bytes": "bytes",
    "twocars.propagate_car.steps": "count",
    "twocars.explicit_policy_pursuit.samples": "count",
    "twocars.agree_frac": "ratio",
    "trace.requests": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in [*TRACED.values(), ROOT_SPAN]:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def install(tracer, wl) -> None:
    """Wrap every traced function and attach the counter hooks."""
    fc = wl.fc
    counts = tracer.counts
    last = {}

    def sample_cone(args, result):
        counts["cone.draws"] += args()["n"]
        last["retained"] = len(result.trajectories)
        counts["cone.draws_retained"] += last["retained"]

    def containment(args, report):
        a = args()
        interceptor, target = a["interceptor"], a["target"]
        lo = max(interceptor.window[0], target.window[0])
        hi = min(interceptor.window[1], target.window[1])
        grid = np.linspace(lo, hi, a["time_grid"])
        after = int(np.count_nonzero(grid > interceptor.vertex.t))
        counts["cone.points_tested"] += report.samples
        counts["cone.points_below_floor"] += (last["retained"] * after
                                              - report.samples)
        counts["cone.points_before_epoch"] += (last["retained"]
                                               * (grid.size - after))

    def membership(args, result):
        counts["cone.members"] += result.member

    def solve_lambert(args, sols):
        counts["lambert.solutions"] += len(sols)
        k = min(len(sols), HIST_BINS - 1)
        label = f"{k}plus" if k == HIST_BINS - 1 else str(k)
        counts[f"lambert.solutions_hist.{label}"] += 1

    def lambert_raised(exc):
        if isinstance(exc, fc.errors.AmbiguousPlane):
            counts["lambert.ambiguous"] += 1

    def min_radius(args, radius):
        # only the containment floor check, not segment checks in chains
        if tracer.parent_name() == "cone.membership":
            counts["kepler.floor_checks"] += 1
            counts["kepler.floor_accepted"] += radius >= wl.floor_radius

    def propagate_schedule(args, result):
        counts["maneuver.shocks"] += len(args()["sched"].shocks)

    def integrate_thrust(args, result):
        counts["maneuver.integrate_thrust.steps"] += result.times.size - 1

    def export_points(args, result):
        counts["scenario_io.export_points.bytes"] += os.path.getsize(
            args()["path"])

    def propagate_car(args, path):
        counts["twocars.propagate_car.steps"] += path.times.size - 1

    def pursuit(args, result):
        counts["twocars.explicit_policy_pursuit.samples"] += (
            result.path.times.size)

    def equivalence(args, verdict):
        counts["twocars.agree"] += verdict.agree

    hooks = {
        "cone.sample_cone": sample_cone,
        "cone.containment": containment,
        "cone.membership": membership,
        "lambert.solve_lambert": solve_lambert,
        "kepler.min_radius": min_radius,
        "maneuver.propagate_schedule": propagate_schedule,
        "maneuver.integrate_thrust": integrate_thrust,
        "scenario_io.export_points": export_points,
        "twocars.propagate_car": propagate_car,
        "twocars.explicit_policy_pursuit": pursuit,
        "twocars.containment_equivalence": equivalence,
    }
    raised = {"lambert.solve_lambert": lambert_raised}
    for (module, attr), name in TRACED.items():
        owner = getattr(fc, module)
        if "." in attr:
            cls, method = attr.split(".")
            tracer.install_method(getattr(owner, cls), method, name,
                                  hooks.get(name))
        else:
            tracer.install(getattr(owner, attr), name, hooks.get(name),
                           raised.get(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, wl, overhead: float) -> dict:
    """Per-layer metrics of the traced pass, every name present."""
    counts = tracer.counts
    calls = tracer.calls
    counts["cone.draw_yield"] = _ratio(counts["cone.draws_retained"],
                                       counts["cone.draws"])
    counts["cone.member_frac"] = _ratio(counts["cone.members"],
                                        calls["cone.membership"])
    counts["lambert.solutions_per_call"] = _ratio(
        counts["lambert.solutions"], calls["lambert.solve_lambert"])
    counts["kepler.floor_accept_frac"] = _ratio(counts["kepler.floor_accepted"],
                                                counts["kepler.floor_checks"])
    counts["twocars.agree_frac"] = _ratio(
        counts["twocars.agree"], calls["twocars.containment_equivalence"])
    counts["trace.requests"] = wl.traced_requests
    counts["trace.spans"] = tracer.span_count
    counts["trace.overhead_frac"] = overhead
    out = {}
    for name, unit in metric_units().items():
        span, _, field = name.rpartition(".")
        if name in COUNTERS:
            value = counts[name]
        elif field == "calls":
            value = calls[span]
        elif field == "busy_s":
            value = tracer.busy_ns[span] / 1e9
        else:
            value = tracer.self_ns[span] / 1e9
        out[name] = {"value": value, "unit": unit}
    return out
