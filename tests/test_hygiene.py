"""Source hygiene: no unused import and no definition that nothing names.

The import scan skips ``__init__.py``, since it imports names only to
re-export them.  A name counts as used when it appears as a name anywhere
else in its module, so ``from .x import y`` followed by ``y.attr`` is a use.

The definition scan starts from the names ``__init__.py`` exports and the
names the benchmark reads: the ``WRAPPED`` table of ``perfbench/tracer.py``
and everything ``perfbench/workloads.py`` names.  Both benchmark files are
only parsed, never imported.  A module-level function or class is reached
when a start name is its name, or when the live code of another module or
of its own module outside its definition names it, as a name or as an
attribute.  Dead definitions are dropped and the scan repeats, so a routine
named only by dead ones is dead too.

The Fraction scan pins the exactness boundary: spans and projections are
decided on integers, so only ``rational.py`` imports ``fractions``, and
``Fraction`` is named only in ``rational._exact`` (input parsing) and
``rational.rref``.

The error scan asks that every ``PartFanError`` subclass of ``errors.py``
be named in some test module: a refusal that no test names is one that
no test shows can happen.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "partfan"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _names(nodes):
    """Every name read within ``nodes``, as a name or as an attribute."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unreferenced_definitions(sources, roots=frozenset()):
    """(module, name) of each module-level def or class that no live code names.

    ``sources`` maps module names to source text; ``roots`` holds the names
    that code outside those modules reads.
    """
    bodies = {module: ast.parse(text).body for module, text in sources.items()}
    dead = set()
    while True:
        live = {m: [n for n in body if (m, getattr(n, "name", None)) not in dead]
                for m, body in bodies.items()}
        named = {m: _names(nodes) for m, nodes in live.items()}
        found = {(m, node.name) for m, nodes in live.items() for node in nodes
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in set(roots).union(
                     *(n for k, n in named.items() if k != m),
                     _names(n for n in nodes if n is not node))}
        if not found:
            return sorted(dead)
        dead |= found


def exported_names():
    """The names ``partfan/__init__.py`` imports to re-export."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _strings(tree):
    """The dotted parts of every string constant in ``tree``."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def benchmark_names():
    """The names in the tracer's ``WRAPPED`` table and in the workloads.

    The workloads also look partfan functions up by string, for instance
    the catalogue partitions, so their string constants count as names.
    """
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    wrapped = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return _strings(wrapped) | _strings(workloads) | _names([workloads])


def test_the_scan_finds_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n\nclass Wrapped:\n    pass\n",
        "b": "from .a import used\n\n\ndef orphan():\n    return chained()\n\n\n"
             "def chained():\n    return used()\n",
    }
    assert unreferenced_definitions(sources, {"used", "Wrapped"}) == [
        ("a", "recursive"), ("b", "chained"), ("b", "orphan")]


def test_every_definition_is_reached():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreferenced_definitions(sources, exported_names() | benchmark_names()) == []


FRACTION_OWNERS = {("rational", "_exact"), ("rational", "rref")}


def fraction_uses(sources):
    """(module, line) of each ``fractions`` import or ``Fraction`` name out of bounds.

    ``sources`` maps module names to source text.  Only ``rational`` may
    import ``fractions``, and only the module-level functions in
    ``FRACTION_OWNERS`` may name ``Fraction``, as a name or as an attribute.
    """
    out = []
    for module, text in sources.items():
        for top in ast.parse(text).body:
            if (module, getattr(top, "name", None)) in FRACTION_OWNERS:
                continue
            for node in ast.walk(top):
                imported = (isinstance(node, ast.ImportFrom) and node.module == "fractions"
                            or isinstance(node, ast.Import)
                            and any(a.name == "fractions" for a in node.names))
                if (imported and module != "rational"
                        or isinstance(node, ast.Name) and node.id == "Fraction"
                        or isinstance(node, ast.Attribute) and node.attr == "Fraction"):
                    out.append((module, node.lineno))
    return sorted(out)


def test_the_scan_finds_fraction_uses_out_of_bounds():
    rational = ("from fractions import Fraction\n\n\ndef _exact(x):\n    return Fraction(x)\n"
                "\n\ndef identity(n):\n    return [Fraction(1)] * n\n")
    cones = ("import fractions\n\n\ndef half():\n    return fractions.Fraction(1, 2)\n"
             "\n\ndef rref(rows):\n    from fractions import Fraction\n    return rows\n")
    assert fraction_uses({"rational": rational, "cones": cones}) == [
        ("cones", 1), ("cones", 5), ("cones", 9), ("rational", 9)]


def test_fraction_is_named_only_where_input_is_parsed_and_rref_is_formed():
    assert fraction_uses({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def error_classes():
    """The ``PartFanError`` subclasses that ``errors.py`` defines."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {
        "PartFanError"}


def test_every_error_class_is_named_by_a_test():
    """Each error class is named in a test, as a name or as an attribute."""
    named = set().union(*(_names([ast.parse(p.read_text())])
                          for p in (ROOT / "tests").glob("*.py")))
    assert sorted(error_classes() - named) == []
