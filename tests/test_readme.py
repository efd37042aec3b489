"""The README's ``python`` blocks run as written and give the values they state.

The blocks ("Library tour", then "Hyperplane arrangements") run in order in
one namespace, since the second reads the first's ``pf``.  Every bare
expression in them is evaluated and must be a key of ``STATED`` (the value
its comment gives, or True where the comment names a passed check), so a
new line in the tour needs its value here too.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

STATED = {
    "pf.validate_fan(fan).ok": True,
    "pf.is_finite_complete(fan)": True,
    "pf.is_admissible(fan, torus)": (True, None),
    "pf.check_cubical(cat).ok": True,
    "pf.euler_characteristic(cw)": 0,
    "pf.abelianization(pi1)": (2, ()),
    'pf.compare_pi1_picture(cw, pic)["abelianizations_equal"]': True,
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
