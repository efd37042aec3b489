"""The README's ``python`` blocks run as written and give the values they state.

Its ``sh`` pipelines run in CI as separate ``partfan`` processes; the last
test checks that the workflow runs each of them as the README writes it.

The blocks ("Library tour", then "Hyperplane arrangements") run in order in
one namespace, since the second reads the first's ``pf``.  Every bare
expression in them is evaluated and must be a key of ``STATED`` (the value
its comment gives, or True where the comment names a passed check), so a
new line in the tour needs its value here too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

STATED = {
    "pf.validate_fan(fan).ok": True,
    "pf.is_finite_complete(fan)": True,
    "pf.is_admissible(fan, torus)": (True, None),
    "pf.check_cubical(cat).ok": True,
    "pf.compose(cat, f, g).rank": 2,
    "pf.euler_characteristic(cw)": 0,
    "pf.abelianization(pi1)": (2, ()),
    'pf.compare_pi1_picture(cw, pic)["abelianizations_equal"]': True,
    "sorted(pf.support(arr, arrfan.fan, base[:1]).indices)": [0, 1, 3],
    "pf.wa_certify(arr, pres)": True,
}


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_blocks_give_the_stated_values():
    namespace = {}
    seen = {}
    for block in python_blocks(README.read_text()):
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                source = ast.get_source_segment(block, node)
                seen[source] = eval(compile(ast.Expression(node.value), "README", "eval"),
                                    namespace)
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert seen == STATED


def commands(text):
    """The text with comments dropped, continuations joined and blanks collapsed."""
    text = re.sub(r"#[^\n]*", "", text).replace("\\\n", " ")
    return re.sub(r"[ \t]+", " ", text)


def test_ci_runs_the_readme_pipelines():
    (block,) = [b for b in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
                if "| partfan" in b]
    pipelines = [line.strip() for line in commands(block).splitlines() if line.strip()]
    workflow = commands(WORKFLOW.read_text())
    assert len(pipelines) == 5
    assert [p for p in pipelines if p not in workflow] == []
