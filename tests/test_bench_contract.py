"""The benchmark still runs on the package as it stands.

``perfbench/layers.py`` wraps every (module, attribute) pair in its
``TRACED`` table and reads some arguments of the wrapped calls by name.
Deleting or renaming one of them breaks the traced benchmark run, so
these tests check both, and run one request of each workload traced to
check what the hooks read from the objects they are given. A request of each workload must also pass the
workload's own output check, so that a change to the scenario loader,
the verdict report, the shock chains, the ephemeris export or the Two
Cars game that would fail benchmark requests fails here.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Arguments the counter hooks in layers.install read, per traced pair.
HOOK_ARGUMENTS = {
    ("cone", "sample_cone"): ("n",),
    ("cone", "containment"): ("interceptor", "target", "time_grid"),
    ("maneuver", "propagate_schedule"): ("sched",),
    ("scenario_io", "export_points"): ("path",),
}

# Counters that one traced request 0 of a workload reports.
TRACED_COUNTS = {
    "BurnChains": {"maneuver.shocks": 256},
}
WORKLOADS = ["Fy1cContain", "LeoMultirevContain", "BurnChains",
             "TwocarsPursuit"]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced() -> dict:
    return _load("layers").TRACED


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"futurecone.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", sorted(_traced()))
def test_traced_pair_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_traced_pairs_are_distinct_and_bound_once():
    """The tracer wraps every module binding that is the traced object,
    so an alias of one kernel under two traced names, or a second name
    for it in its own module, would count one call under both spans."""
    objects = {pair: _resolve(*pair) for pair in _traced()}
    assert len({id(fn) for fn in objects.values()}) == len(objects)
    for (module, attr), fn in objects.items():
        if "." in attr:
            continue  # a method, wrapped on its class
        owner = importlib.import_module(f"futurecone.{module}")
        names = [name for name, value in vars(owner).items() if value is fn]
        assert names == [attr], f"futurecone.{module} binds {attr} as {names}"


@pytest.mark.parametrize("module, attr", sorted(HOOK_ARGUMENTS))
def test_hook_arguments_are_parameters(module, attr):
    assert (module, attr) in _traced()
    parameters = inspect.signature(_resolve(module, attr)).parameters
    for name in HOOK_ARGUMENTS[module, attr]:
        assert name in parameters, f"{module}.{attr} has no {name!r}"


def test_burn_chains_request_passes_its_check(tmp_path):
    """One burn_chains request, checked as the benchmark checks it: the
    chain endpoint against RK4, the single burn, and the exported last
    row equal to the endpoint bit for bit."""
    import futurecone
    import futurecone.scenario_io  # binds the modules the workload calls

    workload = _load("workloads").BurnChains(
        futurecone, str(PERFBENCH.parent), str(tmp_path), 0)
    assert workload.check(0, workload.request(0)) == 1


def test_twocars_request_passes_its_check(tmp_path):
    """One twocars_pursuit request, checked as the benchmark checks it:
    capture within the bound, and both verdicts equal to Cockayne's
    inequalities."""
    import futurecone
    import futurecone.twocars  # binds the module the workload calls

    workload = _load("workloads").TwocarsPursuit(
        futurecone, str(PERFBENCH.parent), str(tmp_path), 0)
    assert workload.check(0, workload.request(0)) == 1


@pytest.mark.parametrize("name", ["Fy1cContain", "LeoMultirevContain"])
def test_contain_request_passes_its_check(tmp_path, name):
    """The containment workloads parse a scenario and write a report on
    every request. The warm-up must see identical report bytes from two
    runs of one seed (and, for fy1c at seed 0, the pinned 2000x51
    margin); one request must then pass the report check."""
    import futurecone
    import futurecone.cli  # binds the modules the workload calls

    workload = getattr(_load("workloads"), name)(
        futurecone, str(PERFBENCH.parent), str(tmp_path), 0)
    assert workload.warmup()
    assert workload.check(0, workload.request(0)) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_request_reports_every_metric(tmp_path, name):
    """Request 0 traced as ``run.py --trace 1`` traces it: the hooks of
    layers.install read their arguments and results without error, and
    layers.metrics reports every metric, with the counts pinned above."""
    import futurecone
    import futurecone.cli  # binds the modules the workloads call
    import futurecone.twocars

    layers, tracing = _load("layers"), _load("tracing")
    workload = getattr(_load("workloads"), name)(
        futurecone, str(PERFBENCH.parent), str(tmp_path), 0)
    tracer = tracing.Tracer([futurecone] + [
        getattr(futurecone, module) for module in _load("run").MODULES])
    layers.install(tracer, workload)
    root = tracer.wrap(workload.request, layers.ROOT_SPAN)
    tracer.request_id = 0
    tracer.enabled = True
    try:
        root(0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    metrics = layers.metrics(tracer, workload, 0.0)
    assert list(metrics) == list(layers.metric_units())
    assert metrics[f"{layers.ROOT_SPAN}.calls"]["value"] == 1
    for counter, value in TRACED_COUNTS.get(name, {}).items():
        assert metrics[counter]["value"] == value, counter
