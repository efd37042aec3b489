"""Mutated envelopes through ``cli.main``: a document or exit 0, never a traceback.

The catalogue envelopes and the outputs of a few pipelines on them are
mutated: an entry anywhere in the document is replaced, deleted or
duplicated, or a junk value is put in its place.  Junk includes entries
no number or cone can be built from, such as ``"1/0"`` and a huge
exponent, and cone lists that overlap.  Each mutant goes through one of
the command lines below, in-process, under a time cap.  The run must exit
0, or exit 1 with a ``PartFanError`` document on stdout; no other
exception may escape ``main``.
"""

import copy
import io
import json
import sys
from functools import cache

from hypothesis import HealthCheck, given, settings, strategies as st

from partfan import errors
from partfan.cli import main

COMMANDS = [
    ["fan", "validate"], ["fan", "complete"], ["fan", "from-arrangement"],
    ["partition", "potentials"], ["partition", "check"],
    ["partition", "closure", "--seed", "s1~s3"], ["partition", "enumerate"],
    ["category", "build"], ["category", "check-cubical"],
    ["category", "check-last-factors"], ["category", "export", "--format", "json"],
    ["poset", "functional", "--b", "1,1"], ["poset", "bisector", "--base", "[0,1]"],
    ["poset", "regions"], ["poset", "check"], ["poset", "nondegenerate"],
    ["group", "picture"], ["group", "picture", "--mode", "codim2", "--format", "text"],
    ["group", "alt"], ["group", "psi", "--source", "[0]", "--target", "[0,1]"],
    ["group", "abelianize"], ["group", "certify-rank2"], ["group", "certify-brauer"],
    ["cw", "build"], ["cw", "euler"], ["cw", "pi1"], ["cw", "compare"],
    ["arrangement", "flats"], ["arrangement", "shards"],
    ["arrangement", "shard-partition"], ["arrangement", "flat-partition"],
    ["arrangement", "wall-algebra"], ["render"],
]

# (stdin of the first stage, [argv per stage]) whose last output is a base
PIPELINES = [
    *((None, [["examples", name]])
      for name in ("square", "hirzebruch-a1", "three-lines", "brauer3")),
    (None, [["examples", "hirzebruch-a1"], ["partition", "potentials"]]),
    (None, [["examples", "square"], ["partition", "closure", "--seed", "s1~s3,s2~s4"],
            ["poset", "functional", "--b", "1,1"]]),
    (None, [["examples", "square"], ["partition", "closure", "--seed", "s1~s3,s2~s4"],
            ["cw", "build"]]),
    (None, [["examples", "square"], ["partition", "closure", "--seed", "s1~s3,s2~s4"],
            ["poset", "functional", "--b", "1,1"], ["group", "picture"]]),
    (None, [["examples", "brauer3"], ["arrangement", "shard-partition"]]),
]

OVERLAPPING = [[0, 1], [0, 2], [1, 3], [2, 3]]
JUNK = ["1/0", "-2/0", "1e1000000000", "x", "", 0.5, True, None, 0, -1, 7, 10 ** 6,
        [], {}, [0, 2], OVERLAPPING, [[1, 0], [0, 1], [1, 1], [-1, 0]]]

ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.PartFanError)}


def run(argv, text):
    """(exit code, stdout) of ``main(argv)`` with ``text`` on stdin."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


@cache
def bases():
    out = []
    for text, stages in PIPELINES:
        for argv in stages:
            code, text = run(argv, text or "")
            assert code == 0, (argv, text)
        out.append(json.loads(text))
    return out


def containers(doc, path=()):
    """The path of every list and object in the document, the root first."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from containers(value, path + (key,))


@st.composite
def mutants(draw):
    doc = copy.deepcopy(draw(st.sampled_from(bases())))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(containers(doc))
        node = doc
        for key in draw(st.sampled_from(paths)):
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["replace", "delete", "duplicate", "junk"]))
        if action == "replace":
            path = draw(st.sampled_from(paths))
            other = doc
            for k in path:
                other = other[k]
            node[key] = copy.deepcopy(other)
        elif action == "delete":
            del node[key]
        elif action == "duplicate" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(node[key]))
        elif action == "duplicate":
            node[draw(st.sampled_from(keys))] = copy.deepcopy(node[key])
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(mutants(), st.sampled_from(COMMANDS))
def test_mutated_envelopes_end_in_a_document(time_limit, doc, argv):
    with time_limit(3):
        code, out = run(argv, json.dumps(doc))
    if code != 0:
        assert code == 1
        assert json.loads(out)["error"] in ERROR_CODES
