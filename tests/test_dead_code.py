"""No dead private helpers: every module-level private name in the
package is read somewhere in the package outside its own definition."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "futurecone"
MODULES = sorted(SRC.glob("*.py"))


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
