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
attribute.  A method of a module-level class, dunders apart, is reached
when a start name is its name or when live code outside its own body
names it.  Dead definitions are dropped and the scan repeats, so a routine
named only by dead ones is dead too, and so are the methods of a dead
class.

The export scan pins the public surface: every name ``__init__.py``
exports must be reached by the same scan started from the README's
``python`` blocks and the benchmark's names alone.  An export that only
the tests call is no part of the surface.

The state scan asks that every attribute assigned on ``self`` in
``src/partfan``, tuple targets included, be read somewhere: as an
attribute anywhere in ``src/partfan`` (which the definition scan keeps
live), or as a name in the README's ``python`` blocks or in
``perfbench/workloads.py``.  State that nothing reads is state to delete.

The Fraction scan pins the exactness boundary: spans and projections are
decided on integers, so only ``rational.py`` imports ``fractions``, and
``Fraction`` is named only in ``rational._exact`` (input parsing) and
``rational.rref``.

The error scan asks that every ``PartFanError`` subclass of ``errors.py``
be named in some test module: a refusal that no test names is one that
no test shows can happen.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_readme import README, python_blocks

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


def _parts(body):
    """A module body as (name, owner, names) parts.

    Each method of a module-level class, dunders apart, is a part named
    ``Class.method`` and owned by the class.  Every other top-level
    statement is a part named and owned by what it defines (None when it
    defines nothing), a class's part holding the rest of the class.
    ``names`` is every name the part reads.
    """
    parts = []
    for node in body:
        name = getattr(node, "name", None)
        if not isinstance(node, ast.ClassDef):
            parts.append((name, name, _names([node])))
            continue
        methods = [n for n in node.body if isinstance(n, ast.FunctionDef)
                   and not (n.name.startswith("__") and n.name.endswith("__"))]
        rest = [n for n in node.body if n not in methods]
        parts.append((name, name, _names(node.decorator_list + node.bases
                                         + node.keywords + rest)))
        parts += [("%s.%s" % (name, m.name), name, _names([m])) for m in methods]
    return parts


def unreferenced_definitions(sources, roots=frozenset()):
    """(module, name) of each module-level def or class, and (module,
    ``Class.method``) of each method, that no live code names.

    ``sources`` maps module names to source text; ``roots`` holds the names
    that code outside those modules reads.  A top-level definition's own
    code is its whole body, methods included; a method's is its body.
    """
    parts = [(m, *part) for m, text in sources.items()
             for part in _parts(ast.parse(text).body)]
    dead = set()
    while True:
        live = [(m, name, owner, names) for m, name, owner, names in parts
                if (m, name) not in dead and (m, owner) not in dead]
        named = Counter(n for *_, names in live for n in names)
        found = set()
        for module, name, owner, _ in live:
            if name is None:
                continue
            own = [names for m, n, o, names in live
                   if m == module and (n == name or name == owner == o)]
            short = name.rpartition(".")[2]
            if short not in roots and named[short] == sum(short in n for n in own):
                found.add((module, name))
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


def test_the_scan_finds_an_unreferenced_method():
    sources = {
        "a": "class Box:\n    def __init__(self):\n        self.helper()\n\n"
             "    def helper(self):\n        return 1\n\n"
             "    def recursive(self):\n        return self.recursive()\n\n"
             "    def orphan(self):\n        return self.chained()\n\n"
             "    def chained(self):\n        return 2\n\n"
             "    def traced(self):\n        return 3\n\n"
             "    def used(self):\n        return Box\n\n\n"
             "class Gone:\n    def inner(self):\n        return Gone\n",
        "b": "from .a import Box\n\n\ndef main():\n    return Box().used()\n",
    }
    assert unreferenced_definitions(sources, {"main", "traced"}) == [
        ("a", "Box.chained"), ("a", "Box.orphan"), ("a", "Box.recursive"),
        ("a", "Gone"), ("a", "Gone.inner")]


def test_every_definition_is_reached():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreferenced_definitions(sources, exported_names() | benchmark_names()) == []


def unreached_exports(sources, exports, roots):
    """The names in ``exports`` that no code reached from ``roots`` names.

    Reached is as in ``unreferenced_definitions``, so an export that only
    other unreached exports name is unreached too.
    """
    return sorted(name for _, name in unreferenced_definitions(sources, roots)
                  if name in exports)


def readme_names():
    """The names read in the README's ``python`` blocks."""
    return _names(ast.parse(block) for block in python_blocks(README.read_text()))


def test_the_scan_finds_an_export_that_nothing_reaches():
    sources = {
        "a": "def main():\n    return shown()\n\n\ndef shown():\n    return 1\n\n\n"
             "def orphan():\n    return alias()\n\n\ndef alias():\n    return 2\n",
        "b": "def documented():\n    return 3\n",
    }
    exports = {"shown", "orphan", "alias", "documented"}
    assert unreached_exports(sources, exports, {"main", "documented"}) == ["alias", "orphan"]


def test_every_export_is_reached_from_the_readme_or_the_benchmark():
    sources = {p.stem: p.read_text() for p in SOURCES}
    roots = readme_names() | benchmark_names()
    assert unreached_exports(sources, exported_names(), roots) == []


def unread_state(sources, roots=frozenset()):
    """(module, line, attribute) of each attribute assigned on ``self`` in
    ``sources`` that none of them reads as an attribute and ``roots`` does
    not name.

    ``sources`` maps module names to source text.  An assignment is an
    attribute of ``self`` in store context, so each attribute of a tuple
    target counts; an augmented assignment reads its target too.
    """
    assigned, read = [], set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.AugAssign):
                read.add(getattr(node.target, "attr", None))
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                assigned.append((module, node.lineno, node.attr))
    return sorted(a for a in assigned if a[2] not in read | roots)


def test_the_scan_finds_unread_state():
    sources = {
        "a": "class Box:\n    def __init__(self, x):\n        self.kept, self.lost = x, x\n"
             "        self.count = 0\n        self.shown = self.gone = x\n\n"
             "    def bump(self):\n        self.count += 1\n",
        "b": "def read(box):\n    return box.kept\n",
    }
    assert unread_state(sources, {"shown"}) == [("a", 3, "lost"), ("a", 5, "gone")]


def test_every_attribute_assigned_on_self_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    assert unread_state(sources, readme_names() | _names([workloads])) == []


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
