"""The CLI envelope: which entry a command reads first, and what it prints.

``DOCUMENTS`` pins, for every subcommand, the exit code and the document
it prints for each of four envelopes on stdin: none, the square fan, the
fan with the finest partition (no listed blocks), and those with a poset
of no covers.  A missing entry's document names the first entry the
command reads, so the table fixes the order of the reads.  Error
documents are written out; an output of more than 60 characters is pinned
by the first 16 hex digits of its SHA-256.
"""

import argparse
import hashlib
import io
import json
import sys

import pytest

from partfan import cli
from partfan.cli import build_parser, main

SQUARE = {"dim": 2, "rays": [[1, 0], [0, -1], [-1, 0], [0, 1]],
          "max_cones": [[0, 3], [0, 1], [1, 2], [2, 3]]}

ENVELOPES = [
    {},
    {"fan": SQUARE},
    {"fan": SQUARE, "partition": {"blocks": []}},
    {"fan": SQUARE, "partition": {"blocks": []}, "poset": {"covers": []}},
]


def missing(key):
    return (1, json.dumps({"error": "BadInput",
                           "witness": {"key": key, "problem": "missing"}}, sort_keys=True))


# (argv, then the document for each envelope); "FILE" is a partition file
# holding {"blocks": []}
DOCUMENTS = [
    (["fan", "validate"],
     missing("fan"),
     (0, '{"max_cones": 4, "valid": true, "violations": []}'),
     (0, '{"max_cones": 4, "valid": true, "violations": []}'),
     (0, '{"max_cones": 4, "valid": true, "violations": []}')),
    (["fan", "complete"],
     missing("fan"),
     (0, '{"complete": true}'),
     (0, '{"complete": true}'),
     (0, '{"complete": true}')),
    (["fan", "from-arrangement"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["partition", "potentials"],
     missing("fan"),
     (0, "sha256:50f7d69c96b9f6ee"),
     (0, "sha256:50f7d69c96b9f6ee"),
     (0, "sha256:9566241781aeff7d")),
    (["partition", "check"],
     missing("fan"),
     missing("partition"),
     (0, '{"admissible": true, "witness": null}'),
     (0, '{"admissible": true, "witness": null}')),
    (["partition", "closure", "--seed", "s1~s3,s2~s4"],
     missing("fan"),
     (0, "sha256:50f7d69c96b9f6ee"),
     (0, "sha256:50f7d69c96b9f6ee"),
     (0, "sha256:9566241781aeff7d")),
    (["partition", "meet", "--other", "FILE"],
     missing("fan"),
     missing("partition"),
     (0, "sha256:32a4f7d818498425"),
     (0, "sha256:62c0721b26cb9c6e")),
    (["partition", "join", "--other", "FILE"],
     missing("fan"),
     missing("partition"),
     (0, "sha256:32a4f7d818498425"),
     (0, "sha256:62c0721b26cb9c6e")),
    (["partition", "enumerate"],
     missing("fan"),
     (0, "sha256:b1900f4aa16d7686"),
     (0, "sha256:b1900f4aa16d7686"),
     (0, "sha256:b1900f4aa16d7686")),
    (["category", "build"],
     missing("fan"),
     missing("partition"),
     (0, "sha256:d866fd15603e8688"),
     (0, "sha256:03600266abb9a183")),
    (["category", "check-cubical"],
     missing("fan"),
     missing("partition"),
     (0, '{"cubical": true, "violations": {}}'),
     (0, '{"cubical": true, "violations": {}}')),
    (["category", "check-last-factors"],
     missing("fan"),
     missing("partition"),
     (0, '{"compatible": true, "witness": null}'),
     (0, '{"compatible": true, "witness": null}')),
    (["category", "export"],
     missing("fan"),
     missing("partition"),
     (0, "sha256:1eafce4824d76597"),
     (0, "sha256:1eafce4824d76597")),
    (["poset", "functional", "--b", "1,1"],
     missing("fan"),
     (0, "sha256:07fd90c92fd68185"),
     (0, "sha256:14cc3dd03d0af9a5"),
     (0, "sha256:14cc3dd03d0af9a5")),
    (["poset", "bisector", "--base", "[0,3]"],
     missing("fan"),
     (0, "sha256:1e32487a508d23de"),
     (0, "sha256:89a5ea93117498ec"),
     (0, "sha256:89a5ea93117498ec")),
    (["poset", "regions"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["poset", "check"],
     missing("fan"),
     missing("poset"),
     missing("poset"),
     (0, "sha256:8cf096d0889bfa7b")),
    (["poset", "nondegenerate"],
     missing("fan"),
     missing("partition"),
     missing("poset"),
     (0, '{"nondegenerate": true, "witness": null}')),
    (["group", "picture"],
     missing("fan"),
     missing("partition"),
     missing("poset"),
     (1, '{"error": "PosetInvalid", "witness": []}')),
    (["group", "alt"],
     missing("fan"),
     missing("partition"),
     missing("poset"),
     (1, '{"error": "NotAnInterval", "witness": []}')),
    (["group", "psi", "--source", "[]", "--target", "[0,3]"],
     missing("fan"),
     missing("partition"),
     missing("poset"),
     (1, '{"error": "NotAnInterval", "witness": []}')),
    (["group", "quotient", "--coarse", "FILE"],
     missing("fan"),
     missing("partition"),
     missing("presentation"),
     missing("presentation")),
    (["group", "abelianize"],
     missing("presentation"),
     missing("presentation"),
     missing("presentation"),
     missing("presentation")),
    (["group", "certify-rank2"],
     missing("fan"),
     missing("partition"),
     (0, '{"faithful": true, "witness": null}'),
     (1, '{"error": "PosetInvalid", "witness": []}')),
    (["group", "certify-brauer"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["cw", "build"],
     missing("fan"),
     missing("partition"),
     (0, "sha256:490ef902e74fef64"),
     (0, "sha256:39f400f0de5e68e4")),
    (["cw", "euler"],
     missing("fan"),
     missing("partition"),
     (0, '1'),
     (0, '1')),
    (["cw", "pi1"],
     missing("fan"),
     missing("partition"),
     (0, '{"generators": ["X[-1,0]"], "relators": [[["X[-1,0]", -1]]]}'),
     (0, '{"generators": ["X[-1,0]"], "relators": [[["X[-1,0]", -1]]]}')),
    (["cw", "compare"],
     missing("fan"),
     missing("partition"),
     missing("presentation"),
     missing("presentation")),
    (["arrangement", "flats"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["arrangement", "shards"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["arrangement", "shard-partition"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["arrangement", "flat-partition"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["arrangement", "wall-algebra"],
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement"),
     missing("arrangement")),
    (["render"],
     missing("arrangement"),
     (0, "sha256:4f3ff072a3002a86"),
     (0, "sha256:4f3ff072a3002a86"),
     (0, "sha256:4f3ff072a3002a86")),
]


def run(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def pinned(code, out):
    text = out.rstrip("\n")
    if code == 0 and len(text) > 60:
        text = "sha256:" + hashlib.sha256(out.encode()).hexdigest()[:16]
    return code, text


@pytest.mark.parametrize("argv, documents", [(d[0], d[1:]) for d in DOCUMENTS],
                         ids=[" ".join(d[0][:2]) for d in DOCUMENTS])
def test_each_subcommand_prints_the_pinned_documents(monkeypatch, capsys, tmp_path,
                                                     argv, documents):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"blocks": []}))
    argv = [str(other) if a == "FILE" else a for a in argv]
    got = [pinned(*run(argv, json.dumps(env), monkeypatch, capsys)) for env in ENVELOPES]
    assert got == list(documents)


def subcommands(parser, prefix=()):
    """The argv prefix of every subcommand of ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return set().union(*(subcommands(p, prefix + (name,))
                         for name, p in subs[0].choices.items()))


def test_the_table_has_every_subcommand():
    assert subcommands(build_parser()) - {("examples",)} == \
        {tuple(d[0][:2]) for d in DOCUMENTS}


def test_quotient_reads_the_coarse_file_before_the_presentation(monkeypatch, capsys,
                                                                tmp_path):
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"blocks": [[[9]]]}))
    envelope = {"fan": SQUARE, "partition": {"blocks": []}}
    code, out = run(["group", "quotient", "--coarse", str(coarse)], json.dumps(envelope),
                    monkeypatch, capsys)
    assert (code, json.loads(out)) == (1, {"error": "UnknownCone", "witness": [9]})


class Unreadable(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin was read")


def test_examples_never_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", Unreadable())
    assert main(["examples", "square"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["fan"]


def test_each_entry_is_parsed_once(monkeypatch, capsys):
    parsed = []
    for key, loader in cli._LOADERS.items():
        def counting(*args, key=key, loader=loader):
            parsed.append(key)
            return loader(*args)
        monkeypatch.setitem(cli._LOADERS, key, counting)
    envelope = {"fan": SQUARE, "partition": {"blocks": [[[0], [2]], [[1], [3]]]}}
    code, out = run(["fan", "validate"], json.dumps(envelope), monkeypatch, capsys)
    assert (code, parsed) == (0, ["fan"])
    code, out = run(["poset", "functional", "--b", "1,1"], json.dumps(envelope),
                    monkeypatch, capsys)
    code, out = run(["group", "picture", "--mode", "codim2"], out, monkeypatch, capsys)
    assert code == 0
    assert parsed == ["fan", "fan", "fan", "partition", "poset"]


def test_an_entry_is_parsed_on_the_fan_the_command_built(monkeypatch, capsys):
    """certify-brauer parses the envelope's partition on the arrangement fan."""
    code, out = run(["examples", "brauer3"], "", monkeypatch, capsys)
    code, out = run(["arrangement", "shard-partition"], out, monkeypatch, capsys)
    envelope = json.loads(out)
    del envelope["fan"]
    code, out = run(["group", "certify-brauer"], json.dumps(envelope), monkeypatch, capsys)
    assert code == 0 and json.loads(out)["faithful"] is True
    envelope["partition"]["blocks"].append([[99]])
    code, out = run(["group", "certify-brauer"], json.dumps(envelope), monkeypatch, capsys)
    assert (code, json.loads(out)) == (1, {"error": "UnknownCone", "witness": [99]})


SQUARE_RAYS = {"dim": 2, "rays": SQUARE["rays"]}
FLOAT_BLOCK = {"fan": SQUARE, "partition": {"blocks": [[[0.0], [2]]]}}


def presentation(*letters):
    return {"presentation": {"generators": ["a"], "relators": [list(letters)]}}


@pytest.mark.parametrize("argv, envelope, document", [
    (["fan", "validate"], {"fan": dict(SQUARE_RAYS, max_cones=[[True, 0]])},
     {"error": "BadIndex", "witness": [True, 0]}),
    (["partition", "potentials"], {"fan": dict(SQUARE_RAYS, max_cones=[[True, 0]])},
     {"error": "BadIndex", "witness": [True, 0]}),
    (["fan", "validate"], {"fan": dict(SQUARE_RAYS, max_cones=[[0.0, 1]])},
     {"error": "BadIndex", "witness": [0.0, 1]}),
    (["partition", "check"], FLOAT_BLOCK, {"error": "UnknownCone", "witness": [0.0]}),
    (["cw", "build"], FLOAT_BLOCK, {"error": "UnknownCone", "witness": [0.0]}),
    (["group", "psi", "--source", "[0]", "--target", "[0,3]"],
     {"fan": SQUARE, "partition": {"blocks": [[[0.0]]]}, "poset": {"covers": []}},
     {"error": "UnknownCone", "witness": [0.0]}),
    (["poset", "check"], {"fan": SQUARE, "poset": {"covers": [[[True, 0], [0, 3]]]}},
     {"error": "UnknownCone", "witness": [0, True]}),
    (["group", "abelianize"], presentation(["a", "1"]),
     {"error": "BadInput", "witness": {"key": "presentation", "problem":
      "ValueError: letter ['a', '1'] is not [generator, 1 or -1]"}}),
    (["group", "abelianize"], presentation(["a", 2]),
     {"error": "BadInput", "witness": {"key": "presentation", "problem":
      "ValueError: letter ['a', 2] is not [generator, 1 or -1]"}}),
    (["group", "abelianize"], presentation(["a", 1.5]),
     {"error": "BadInput", "witness": {"key": "presentation", "problem":
      "ValueError: letter ['a', 1.5] is not [generator, 1 or -1]"}}),
    (["group", "abelianize"], presentation(["a", True]),
     {"error": "BadInput", "witness": {"key": "presentation", "problem":
      "ValueError: letter ['a', True] is not [generator, 1 or -1]"}}),
], ids=["bool-index-validate", "bool-index-potentials", "float-index", "float-block",
        "float-block-cw", "float-block-psi", "bool-cover", "string-exponent",
        "exponent-2", "float-exponent", "bool-exponent"])
def test_non_integer_indices_and_exponents_are_error_documents(monkeypatch, capsys,
                                                                argv, envelope, document):
    code, out = run(argv, json.dumps(envelope), monkeypatch, capsys)
    assert (code, json.loads(out)) == (1, document)
