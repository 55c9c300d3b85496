"""No dead names: every module-level private name in the package is
read somewhere in the package outside its own definition, and every
public field, property or method of a package class is read by name in
the package, its tests or its benchmark. A read is matched by name
alone, so a public name that several classes define is listed, with
where each class's copy is read, in SHARED_NAMES."""
import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "futurecone"
MODULES = sorted(SRC.glob("*.py"))
READERS = [*MODULES, *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def definitions(tree: ast.Module):
    """(name, node) of each private function, class or constant the
    module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if is_private(name):
                yield name, node


def references(node: ast.AST):
    """Names read under node: Names, Attributes and the names of
    from-imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced(tree: ast.Module, reads: Counter) -> list[str]:
    """Private names of tree read only inside their own definitions,
    given the reads of the whole package."""
    return [name for name, node in definitions(tree)
            if reads[name] == Counter(references(node))[name]]


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}
READS = Counter(name for tree in TREES.values() for name in references(tree))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    unused = unreferenced(TREES[module], READS)
    assert not unused, f"{module} defines unreferenced {unused}"


def test_finds_an_unreferenced_helper():
    """The scan flags a helper that only its own body mentions."""
    tree = ast.parse("def _lonely(n):\n    return _lonely(n - 1)\n"
                     "_USED = 1\n\ndef public():\n    return _USED\n")
    assert unreferenced(tree, Counter(references(tree))) == ["_lonely"]


def public_attributes(tree: ast.Module):
    """(class, name) of each public field, property or method that a
    class of the module defines in its body."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((cls.name, name) for name in names
                        if not name.startswith("_"))


def attribute_loads(tree: ast.AST) -> set[str]:
    """Attribute names read (loaded) anywhere under tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_attributes(tree: ast.Module, loads: set[str]) -> list[str]:
    """Class.name of each public class attribute of tree that no
    attribute load reads."""
    return [f"{cls}.{name}" for cls, name in public_attributes(tree)
            if name not in loads]


LOADS = set().union(*(attribute_loads(ast.parse(path.read_text(
    encoding="utf-8"))) for path in READERS))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_class_attribute_is_read(module):
    unread = unread_attributes(TREES[module], LOADS)
    assert not unread, f"{module} defines unread {unread}"


def test_finds_an_unread_field():
    """The scan flags a field that nothing reads by name: storing it,
    or reading it through getattr, does not count."""
    tree = ast.parse(
        "class Record:\n    used: int = 0\n    unused: int = 1\n\n"
        "    @property\n    def shown(self):\n        return self.used\n"
        "\n\nr = Record()\nr.unused = 2\nprint(r.shown, "
        "getattr(r, 'unused'))\n")
    assert unread_attributes(tree, attribute_loads(tree)) == ["Record.unused"]


# Public attribute names that more than one package class defines, with
# the classes (sorted) and where each class's copy is read. The read
# scan above cannot tell these copies apart, so a name that a new class
# takes up, or a class that takes up a listed name, fails
# test_every_shared_attribute_name_is_listed until it is listed here.
SHARED_NAMES = {
    "accel_ok": (("CockayneVerdict", "EquivalenceVerdict"),
                 "containment_equivalence reads Cockayne's; the twocars "
                 "report writes the verdict's"),
    "branch": (("LambertBatch", "LambertSolution"),
               "solve_lambert reads the batch's into each solution; "
               "test_lambert reads the solution's"),
    "contained": (("ContainmentReport", "EquivalenceVerdict"),
                  "cli's contain and twocars commands read one each"),
    "endpoint": (("CarPath", "SampledTrajectory"),
                 "test_twocars reads the path's; the burn_chains "
                 "benchmark reads integrate_thrust's"),
    "floor": (("ConeSpec", "ImpulsiveTrajectory"),
              "containment reads the cone's; reduce_to_single_burn the "
              "trajectory's"),
    "floor_km": (("FY1CParameters", "Scenario"),
                 "test_scenario_io checks the bundled fy1c file against "
                 "the parameters'; cli's propagate reads the scenario's"),
    "horizon": (("EquivalenceVerdict", "TwoCarsGame"),
                "cli's twocars reads the game's; the verdict's only echoes "
                "the argument, read by test_twocars's field-by-field "
                "oracle comparison, and goes with ROADMAP item 4"),
    "mu": (("ArcBatch", "ConeSpec", "Scenario"),
           "states_at reads the batch's, sample_cone the cone's, cli's "
           "propagate the scenario's"),
    "revs": (("LambertBatch", "LambertSolution"),
             "cone's _burn_costs reads the batch's; test_lambert the "
             "solution's"),
    "shocks": (("ImpulsiveSchedule", "Scenario"),
               "propagate_schedule reads the schedule's; cli's propagate "
               "the scenario's"),
    "states": (("CarPath", "ImpulsiveTrajectory"),
               "explicit_policy_pursuit reads the path's; the "
               "trajectory's method serves its state_at"),
    "t": (("CarState", "StateVector"),
          "propagate_car reads the pose's; kepler and cone the state's"),
    "times": (("CarPath", "ImpulsiveSchedule", "SampledTrajectory"),
              "explicit_policy_pursuit reads the path's, "
              "propagate_schedule the schedule's, the sampled "
              "trajectory's endpoint its own"),
    "v": (("CarConfig", "StateVector"),
          "the twocars kernels read the car's; kepler and cone the "
          "state's"),
    "v_arrive": (("LambertBatch", "LambertSolution"),
                 "cone's _burn_costs reads the batch's; test_lambert the "
                 "solution's"),
    "v_depart": (("LambertBatch", "LambertSolution"),
                 "cone's _burn_costs reads the batch's; the containment "
                 "benchmark's worst-point check the solution's"),
    "window": (("ConeSpec", "ThrustProfile"),
               "containment reads the cone's; integrate_thrust the "
               "profile's"),
}


def shared_names(trees) -> dict[str, tuple[str, ...]]:
    """Public attribute name -> the classes defining it (sorted), for
    each name that more than one class of trees defines."""
    owners = defaultdict(set)
    for tree in trees:
        for cls, name in public_attributes(tree):
            owners[name].add(cls)
    return {name: tuple(sorted(classes))
            for name, classes in owners.items() if len(classes) > 1}


def test_every_shared_attribute_name_is_listed():
    listed = {name: classes for name, (classes, _) in SHARED_NAMES.items()}
    assert shared_names(TREES.values()) == listed
    assert all(reason for _, reason in SHARED_NAMES.values())


def test_finds_a_shared_name():
    """A field that two classes define is shared however often each
    class reads it; a name one class defines twice is not."""
    tree = ast.parse(
        "class A:\n    seed: int = 0\n    solo: int = 1\n\n"
        "class B:\n    seed: int = 2\n    twice = 3\n    twice = 4\n")
    assert shared_names([tree]) == {"seed": ("A", "B")}
