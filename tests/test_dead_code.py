"""No dead names: every module-level private name in the package is
read somewhere in the package outside its own definition, and every
public field, property or method of a package class is read by name in
the package, its tests or its benchmark."""
import ast
from collections import Counter
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
