"""The benchmark's traced names still resolve on the package.

``perfbench/layers.py`` wraps every (module, attribute) pair in its
``TRACED`` table and reads some arguments of the wrapped calls by name.
Deleting or renaming one of them breaks the traced benchmark run, so
these tests check both against the package as it stands.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# Arguments the counter hooks in layers.install read, per traced pair.
HOOK_ARGUMENTS = {
    ("cone", "sample_cone"): ("n",),
    ("cone", "containment"): ("interceptor", "target", "time_grid"),
    ("maneuver", "propagate_schedule"): ("sched",),
    ("scenario_io", "export_points"): ("path",),
}


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"futurecone.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", sorted(_traced()))
def test_traced_pair_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", sorted(HOOK_ARGUMENTS))
def test_hook_arguments_are_parameters(module, attr):
    assert (module, attr) in _traced()
    parameters = inspect.signature(_resolve(module, attr)).parameters
    for name in HOOK_ARGUMENTS[module, attr]:
        assert name in parameters, f"{module}.{attr} has no {name!r}"
