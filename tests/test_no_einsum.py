"""No np.einsum in the package: every dot product goes through
kepler._dot, whose summation order does not depend on the rows' memory
layout. einsum sums Fortran-ordered rows in another order than
C-ordered ones, so the same rows could give other bits."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "futurecone"
MODULES = sorted(SRC.glob("*.py"))


def einsum_lines(tree: ast.Module) -> list[int]:
    """Lines of tree that name einsum: an attribute read (np.einsum), a
    bare name, or a from-import of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "einsum":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "einsum":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "einsum" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum(path):
    lines = einsum_lines(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} calls einsum on lines {lines}; use _dot"


def test_finds_einsum():
    """Each way of naming it is found; a docstring mentioning it is
    not."""
    tree = ast.parse(
        '"""np.einsum sums in its own order."""\n'
        "import numpy as np\nfrom numpy import einsum\n"
        "a = np.einsum('i,i->', x, x)\nb = einsum('i,i->', x, x)\n")
    assert einsum_lines(tree) == [3, 4, 5]
