"""Source hygiene: every module-level import in ``partfan`` is used.

``__init__.py`` is skipped, since it imports names only to re-export them.
A name counts as used when it appears as a name anywhere else in its
module, so ``from .x import y`` followed by ``y.attr`` is a use.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "partfan")
                 .glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by module-level imports of ``source`` and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom fractions import Fraction\n\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "Fraction")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
