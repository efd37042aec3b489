import io
import json
import math
import os
import subprocess
import sys

import pytest

import partfan
from partfan import cli
from partfan.cli import main
from partfan.errors import BadInput


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def pipeline(monkeypatch, capsys, *stages):
    text = ""
    code = 0
    for stage in stages:
        code, text = run_cli(stage, stdin_text=text,
                             monkeypatch=monkeypatch, capsys=capsys)
        if code != 0:
            break
    return code, text


def test_examples_potentials(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "hirzebruch-a1"],
                         ["partition", "potentials"])
    assert code == 0
    blocks = json.loads(out)["partition"]["blocks"]
    assert [[[1], [3]]] == [b for b in blocks if b == [[1], [3]]]
    assert [[[0, 1], [0, 3], [1, 2], [2, 3]]] == \
        [b for b in blocks if len(b) == 4]


def test_torus_euler_pipeline(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["cw", "build"],
                         ["cw", "euler"])
    assert code == 0
    assert json.loads(out) == 0


def test_brauer_validate_pipeline(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["fan", "from-arrangement"],
                         ["fan", "validate"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["max_cones"] == 32


def test_error_json(monkeypatch, capsys):
    code, out = run_cli(["partition", "check"],
                        stdin_text=json.dumps({}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "BadInput"


def test_error_witness_seed(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "SeedNotPossible"
    assert doc["witness"] == [[0], [1]]


def test_deterministic_output(monkeypatch, capsys):
    runs = []
    for _ in range(2):
        code, out = pipeline(monkeypatch, capsys,
                             ["examples", "brauer3"],
                             ["arrangement", "shard-partition",
                              "--base", "positive"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_partition_meet_with_file(monkeypatch, capsys, tmp_path):
    code, env_text = pipeline(monkeypatch, capsys,
                              ["examples", "square"],
                              ["partition", "closure", "--seed", "s1~s3,s2~s4"])
    assert code == 0
    code, other_text = pipeline(monkeypatch, capsys,
                                ["examples", "square"],
                                ["partition", "closure", "--seed", "s1~s3"])
    assert code == 0
    other = tmp_path / "other.json"
    other.write_text(other_text)
    code, out = run_cli(["partition", "meet", "--other", str(other)],
                        stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["partition"] == json.loads(other_text)["partition"]
    same = tmp_path / "same.json"
    same.write_text(env_text)
    code, out = run_cli(["partition", "join", "--other", str(same)],
                        stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert (code, json.loads(out)) == (0, json.loads(env_text))


def test_group_pipeline(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["poset", "functional", "--b", "1,1"],
                         ["group", "picture", "--mode", "codim2"],
                         ["group", "abelianize"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 2, "torsion": []}


def test_group_abelianize_without_coefficient_explosion(monkeypatch, capsys, time_limit):
    """Relator i is a^r1 b^r2 c^r3 d^r4 e^r5 for row i; a corner-pivot Smith
    form ran past 30 s here, with entries of over 4 300 digits."""
    rows = [(3, -6, 6, -5, 4), (2, 0, -5, 4, 4), (-4, -5, -3, -3, -5),
            (-6, 2, 2, 6, 0), (3, 4, -6, -1, 2), (2, -21, -3, -35, -17)]
    gens = ["a", "b", "c", "d", "e"]
    relators = [[[g, 1 if r > 0 else -1] for g, r in zip(gens, row) for _ in range(abs(r))]
                for row in rows]
    envelope = {"presentation": {"generators": gens, "relators": relators}}
    with time_limit(1):
        code, out = run_cli(["group", "abelianize"], stdin_text=json.dumps(envelope),
                            monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == '{"free_rank": 0, "torsion": [2, 7054]}'


def test_group_psi(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["poset", "functional", "--b", "1,1"],
                         ["group", "psi", "--source", "[]",
                          "--target", "[0,3]"])
    assert code == 0
    word = json.loads(out)["word"]
    assert len(word.split()) == 2


def test_certify_rank2(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["group", "certify-rank2"])
    assert code == 0
    assert json.loads(out)["faithful"]


@pytest.mark.parametrize("example", ["hirzebruch-a1", "square"])
def test_group_psi_source_not_a_face(monkeypatch, capsys, example):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", example],
                         ["partition", "potentials"],
                         ["poset", "functional", "--b", "1,2"],
                         ["group", "psi", "--source", "[0]",
                          "--target", "[1,2]"])
    assert code == 1
    assert json.loads(out) == {"error": "NotAFace", "witness": [[0], [1, 2]]}


def test_certify_rank2_empty_fan(monkeypatch, capsys):
    envelope = {"fan": {"dim": 2, "rays": [], "max_cones": []},
                "partition": {"blocks": []}}
    code, out = run_cli(["group", "certify-rank2"], json.dumps(envelope),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "NotComplete"
    assert doc["witness"]["max_cones"] == []


def test_certify_brauer(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["group", "certify-brauer"])
    assert code == 0
    doc = json.loads(out)
    assert doc["wall_algebra"] and doc["hom_distinctness"] and doc["faithful"]


def test_poset_check_and_nondegenerate(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["poset", "functional", "--b", "1,1"],
                         ["poset", "nondegenerate"])
    assert code == 0
    assert json.loads(out)["nondegenerate"]


@pytest.mark.parametrize("command", [["poset", "nondegenerate"],
                                     ["group", "picture"], ["group", "alt"]])
def test_block_across_classes_is_an_error_document(monkeypatch, capsys, command):
    # the same document as ``partition check``; it was a raw KeyError
    code, out = pipeline(monkeypatch, capsys, ["examples", "square"])
    envelope = json.loads(out)
    envelope["partition"] = {"blocks": [[[0], [1]]]}
    expected = {"error": "PossibleIdentViolation", "witness": [[0], [1]]}
    code, out = run_cli(["partition", "check"], json.dumps(envelope),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert (code, json.loads(out)) == (1, expected)
    code, out = run_cli(["poset", "functional", "--b", "1,2"], json.dumps(envelope),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code, out = run_cli(command, out, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, json.loads(out)) == (1, expected)
    assert capsys.readouterr().err == ""


def test_category_check_cubical(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "hirzebruch-a1"],
                         ["partition", "closure", "--seed", "s2~s4"],
                         ["category", "check-cubical"])
    assert code == 0
    assert json.loads(out)["cubical"]
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "hirzebruch-a1"],
                         ["partition", "closure", "--seed", "s2~s4"],
                         ["category", "build"])
    assert (code, sorted(json.loads(out))) == (0, ["category", "fan", "partition"])


def test_category_check_last_factors_three_lines(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "three-lines"],
                         ["partition", "closure",
                          "--seed", "s1~s4,s2~s5,s3~s6,[0,1]~[0,2]"],
                         ["category", "check-last-factors"])
    assert code == 0
    doc = json.loads(out)
    assert doc["compatible"] is False
    assert len(doc["witness"]) == 3


def test_render_square(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["render"])
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_render_brauer_projection(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["render", "--projection", "1,1,1"])
    assert code == 0
    assert "<polyline" in out


def test_category_export_roundtrip(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "potentials"],
                         ["category", "export", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert "morphisms" in doc and "composition" in doc
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "potentials"],
                         ["category", "export", "--format", "dot"])
    assert code == 0 and out.startswith("digraph category {")


def test_partition_enumerate(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "enumerate"])
    assert code == 0
    assert json.loads(out)["count"] == 20


def test_fan_complete(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"], ["fan", "complete"])
    assert code == 0 and json.loads(out)["complete"]


def test_poset_bisector_and_check(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "square"],
                         ["partition", "closure", "--seed", "s1~s3,s2~s4"],
                         ["poset", "bisector", "--base", "[0,3]"],
                         ["poset", "check"])
    assert code == 0
    doc = json.loads(out)
    assert doc["facial_intervals"] and doc["interval_unions"]
    assert doc["weak_variant"] == "not checked"


def test_poset_regions(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["poset", "regions", "--base", "positive"])
    assert code == 0
    env = json.loads(out)
    assert len(env["poset"]["covers"]) == 48


def test_group_alt_and_formats(monkeypatch, capsys):
    stages = [["examples", "square"],
              ["partition", "closure", "--seed", "s1~s3,s2~s4"],
              ["poset", "functional", "--b", "1,1"]]
    code, env_text = pipeline(monkeypatch, capsys, *stages)
    assert code == 0
    code, out = run_cli(["group", "alt"], stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert len(json.loads(out)["presentation"]["generators"]) == 6
    code, out = run_cli(["group", "picture", "--format", "text"],
                        stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and out.startswith("gens: ")
    code, out = run_cli(["group", "picture", "--format", "gap"],
                        stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "FreeGroup" in out


def test_group_quotient_cli(monkeypatch, capsys, tmp_path):
    stages = [["examples", "hirzebruch-a1"],
              ["partition", "closure", "--seed", ""],      # finest
              ["poset", "bisector", "--base", "[0,3]"],
              ["group", "picture"]]
    code, env_text = pipeline(monkeypatch, capsys, *stages)
    assert code == 0
    coarse = tmp_path / "coarse.json"
    code, coarse_env = pipeline(monkeypatch, capsys,
                                ["examples", "hirzebruch-a1"],
                                ["partition", "potentials"])
    coarse.write_text(coarse_env)
    code, out = run_cli(["group", "quotient", "--coarse", str(coarse)],
                        stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    pres = json.loads(out)["presentation"]
    assert [["X[0,1]", 1], ["X[0,-1]", -1]] in pres["relators"]


def test_cw_pi1_and_compare(monkeypatch, capsys):
    stages = [["examples", "square"],
              ["partition", "closure", "--seed", "s1~s3,s2~s4"]]
    code, env_text = pipeline(monkeypatch, capsys, *stages)
    code, out = run_cli(["cw", "pi1"], stdin_text=env_text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert len(json.loads(out)["generators"]) == 2
    code, env2 = run_cli(["poset", "functional", "--b", "1,1"],
                         stdin_text=env_text,
                         monkeypatch=monkeypatch, capsys=capsys)
    code, env3 = run_cli(["group", "picture", "--mode", "codim2"],
                         stdin_text=env2,
                         monkeypatch=monkeypatch, capsys=capsys)
    code, out = run_cli(["cw", "compare"], stdin_text=env3,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["generators_equal"] and doc["abelianizations_equal"]


def test_arrangement_reports(monkeypatch, capsys):
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["arrangement", "flats"])
    assert code == 0
    assert len(json.loads(out)["flats"]) == 18
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["arrangement", "shards"])
    doc = json.loads(out)
    assert code == 0 and doc["count"] == len(doc["shards"])
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["arrangement", "wall-algebra"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 9
    assert doc["table"]["(1,1,0) * (0,0,1)"] == "(1,1,1)"
    assert doc["table"]["(1,1,0) * (0,1,1)"] == "0"
    code, out = pipeline(monkeypatch, capsys,
                         ["examples", "brauer3"],
                         ["arrangement", "flat-partition"],
                         ["partition", "check"])
    assert code == 0 and json.loads(out)["admissible"]


SQUARE = {"dim": 2, "rays": [[1, 0], [0, -1], [-1, 0], [0, 1]],
          "max_cones": [[0, 3], [0, 1], [1, 2], [2, 3]]}


@pytest.mark.parametrize("args, envelope", [
    (["fan", "validate"], {"fan": {"dim": 2}}),
    (["fan", "validate"], {"fan": dict(SQUARE, rays=[[1, 0], ["a", 1], [-1, 0],
                                                      [0, 1]])}),
    (["fan", "from-arrangement"], {"arrangement": {"dim": 3}}),
    (["fan", "validate"], {"fan": "x"}),
    (["poset", "bisector", "--base", "[a]"], {"fan": SQUARE}),
    (["poset", "functional", "--b", "1,x"], {"fan": SQUARE}),
    (["render", "--projection", "1,1,a"],
     {"arrangement": {"dim": 3, "normals": [[1, 0, 0]]}}),
])
def test_malformed_input_is_bad_input(monkeypatch, capsys, args, envelope):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "BadInput"
    assert captured.err == ""


AXES = {"dim": 3, "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize("projection, arrangement, error", [
    ("1,1,1", {"dim": 4, "normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                     [0, 0, 0, 1]]},
     {"error": "DimensionMismatch", "witness": [3, 4]}),
    ("0,0,0", AXES, {"error": "BadInput", "witness": [0, 0, 0]}),
    ("1,0", AXES, {"error": "DimensionMismatch", "witness": [3, 2]}),
    ("1,0,0,1", AXES, {"error": "DimensionMismatch", "witness": [3, 4]}),
], ids=["rank-4", "zero-pole", "short-pole", "long-pole"])
def test_render_rejects_what_it_cannot_draw(monkeypatch, capsys, projection,
                                            arrangement, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"arrangement": arrangement})))
    code = main(["render", "--projection", projection])
    captured = capsys.readouterr()
    assert (code, json.loads(captured.out), captured.err) == (1, error, "")


def test_render_pole_on_a_normal(monkeypatch, capsys):
    # the pole (1,0,0) is the first normal, which is also the axis the
    # great circle's frame used to be taken across
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"arrangement": AXES})))
    code = main(["render", "--projection", "1,0,0"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.startswith("<svg") and captured.out.count("<text") == 3
    assert "<polyline" in captured.out


@pytest.mark.parametrize("spaced, joined, envelope", [
    (["poset", "functional", "--b", "-1,2"], ["poset", "functional", "--b=-1,2"],
     {"fan": SQUARE}),
    (["render", "--projection", "-1,0,0"], ["render", "--projection=-1,0,0"],
     {"arrangement": AXES}),
    (["render", "--proj", "-1,0,0"], ["render", "--projection=-1,0,0"],
     {"arrangement": AXES}),
], ids=["functional", "projection", "abbreviated"])
def test_a_value_with_a_leading_minus_parses_in_both_forms(monkeypatch, capsys,
                                                           spaced, joined, envelope):
    # argparse read "-1,2" after a space as an unknown option (exit 2)
    outputs = []
    for args in (spaced, joined):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
        code = main(args)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, envelope, witness", [
    (["fan", "validate"], {"fan": dict(SQUARE, rays=[[0.1, 0.3], [1, 3], [-1, 0],
                                                      [0, 1]])}, 0.1),
    (["fan", "validate"], {"fan": dict(SQUARE, rays=[[1, 0], [0, -1], [-1, 0],
                                                      [False, True]])}, False),
    (["fan", "from-arrangement"],
     {"arrangement": {"dim": 2, "normals": [[0.1, 0.3], [1, 3]]}}, 0.1),
])
def test_floats_and_booleans_are_inexact(monkeypatch, capsys, args, envelope, witness):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "InexactNumber", "witness": witness}
    assert captured.err == ""


@pytest.mark.parametrize("normals, witness", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
     {"dim": 3, "rays": 4, "signs": [-1, 1, 1, 1]}),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], {"dim": 3, "rays": 0, "signs": [1, 1, 1]}),
], ids=["four-planes", "non-essential"])
def test_non_simplicial_arrangement_witness_is_the_tope(monkeypatch, capsys, normals,
                                                        witness):
    envelope = {"arrangement": {"dim": 3, "normals": normals}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
    code = main(["fan", "from-arrangement"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "NotSimplicialArrangement",
                                        "witness": witness}


@pytest.mark.parametrize("dim, document", [
    ("{}", '{"error": "BadInput", "witness": {}}'),
    ('"3"', '{"error": "BadInput", "witness": "3"}'),
    ("3.0", '{"error": "BadInput", "witness": 3.0}'),
    ("-1", '{"error": "BadInput", "witness": -1}'),
    ("true", '{"error": "BadInput", "witness": true}'),
], ids=["object", "string", "float", "negative", "boolean"])
def test_a_dim_that_is_no_integer_at_least_zero_is_bad_input(monkeypatch, capsys,
                                                             dim, document):
    """A fan's or an arrangement's dim is refused with the value as the
    witness, by every command that reads it."""
    arrangement = '{"arrangement": {"dim": %s, "normals": []}}' % dim
    fan = '{"fan": {"dim": %s, "rays": [], "max_cones": []}}' % dim
    for args, stdin_text in [(["fan", "from-arrangement"], arrangement),
                             (["fan", "validate"], fan), (["fan", "complete"], fan)]:
        assert run_cli(args, stdin_text, monkeypatch, capsys) == (1, document + "\n"), args


@pytest.mark.parametrize("args, stdin_text, witness", [
    (["partition", "check"], json.dumps({"fan": SQUARE}),
     {"key": "partition", "problem": "missing"}),
    (["category", "build"], json.dumps({"fan": SQUARE}),
     {"key": "partition", "problem": "missing"}),
    (["fan", "validate"], "[1, 2]", "array"),
    (["fan", "validate"], "3", "number"),
    (["arrangement", "shards"],
     json.dumps({"arrangement": {"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]]}}), 3),
    (["poset", "functional", "--b", "-1,x"], json.dumps({"fan": SQUARE}), "-1,x"),
    (["poset", "functional", "--b", "--help"], json.dumps({"fan": SQUARE}), "--help"),
    (["render", "--projection", "-1,0,a"], json.dumps({"arrangement": AXES}), "-1,0,a"),
], ids=["no-partition", "category-no-partition", "array", "number",
        "no-positive-chamber", "minus-functional", "option-as-functional",
        "minus-projection"])
def test_bad_input_has_a_witness(monkeypatch, capsys, args, stdin_text, witness):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "BadInput", "witness": witness}
    assert captured.err == ""


RAY_ZERO_DENOMINATOR = {"fan": dict(SQUARE, rays=[["1/0", 0], [0, -1], [-1, 0], [0, 1]])}


@pytest.mark.parametrize("args, envelope, key", [
    (["fan", "validate"], RAY_ZERO_DENOMINATOR, "fan"),
    (["fan", "from-arrangement"],
     {"arrangement": {"dim": 2, "normals": [[1, 0], [0, "-2/0"]]}}, "arrangement"),
    (["fan", "from-arrangement"],
     {"arrangement": {"dim": 2, "normals": [[1, 0], [0, "1e1000000000"]]}}, "arrangement"),
])
def test_unbuildable_numbers_are_bad_input(monkeypatch, capsys, args, envelope, key):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    document = json.loads(captured.out)
    assert (document["error"], document["witness"]["key"]) == ("BadInput", key)
    assert document["witness"]["problem"].startswith("ValueError: ")
    assert captured.err == ""


@pytest.mark.parametrize("text, problem", [
    ('{"fan": {"dim": 2, "rays": [[1%s, 0], [0, 1]], "max_cones": [[0, 1]]}}' % ("0" * 5000),
     "4300"),
    ("[" * 100000 + "]" * 100000, "recursion"),
], ids=["5001-digit-integer", "deep-nesting"])
def test_json_that_python_refuses_is_not_json(monkeypatch, capsys, text, problem):
    """``json.loads`` refuses an integer of more than 4300 digits with a
    plain ValueError, and deep nesting with RecursionError; neither is a
    JSONDecodeError."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    with pytest.raises(BadInput, match="stdin is not JSON"):
        cli._read_stdin()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(["fan", "validate"])
    captured = capsys.readouterr()
    assert code == 1
    document = json.loads(captured.out)
    assert document["error"] == "BadInput" and problem in document["witness"]
    assert captured.err == ""


ONE_PROCESS_CALLS = [
    (["examples", "square"], ""),
    (["fan", "validate"], json.dumps({"fan": SQUARE})),
    (["partition", "potentials"], json.dumps({"fan": SQUARE})),
    (["partition", "check"], json.dumps({"fan": SQUARE})),
    ([], ""),
    (["examples", "hirzebruch-a1"], ""),
    ([], ""),
]


def test_repeated_main_calls_print_what_separate_processes_print(monkeypatch):
    """The parser is built once per process; reusing it changes no output,
    and the help text still goes to the current sys.stdout."""
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(partfan.__file__))
    separate = [subprocess.run([sys.executable, "-m", "partfan.cli", *argv],
                               input=stdin_text, capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src), timeout=120)
                for argv, stdin_text in ONE_PROCESS_CALLS]
    for (argv, stdin_text), proc in zip(ONE_PROCESS_CALLS, separate):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        monkeypatch.setattr(sys, "stdout", out)
        code = main(argv)
        assert (code, out.getvalue()) == (proc.returncode, proc.stdout)
        assert proc.stderr == ""
    assert separate[4].stdout.startswith("usage: partfan")


def test_functional_poset_on_double_winding_fan(monkeypatch, capsys):
    fan = {"dim": 2, "rays": [[1, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]],
           "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
    code, out = run_cli(["poset", "functional", "--b", "1,1"],
                        stdin_text=json.dumps({"fan": fan}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"error": "NotComplete",
                               "witness": dict(fan, max_cones=sorted(fan["max_cones"]))}


def test_a_chain_past_the_recursion_limit_is_walked(monkeypatch, capsys):
    """2 100 chambers round the origin: the bisector poset's one maximal
    chain crosses 2 100 walls, more than Python's default recursion limit,
    and the picture group is one relator through every generator."""
    n = 2100
    rays = [[round(10 ** 6 * math.cos(2 * math.pi * k / n)),
             round(10 ** 6 * math.sin(2 * math.pi * k / n))] for k in range(n)]
    fan = {"dim": 2, "rays": rays, "max_cones": [sorted([k, (k + 1) % n]) for k in range(n)]}
    code, out = run_cli(["poset", "bisector", "--base", "[0,1]"], json.dumps({"fan": fan}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    envelope = dict(json.loads(out), partition={"blocks": []})
    code, out = run_cli(["group", "picture"], json.dumps(envelope),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code, out = run_cli(["group", "abelianize"], out, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, json.loads(out)) == (0, {"free_rank": n - 1, "torsion": []})


def test_cw_build_on_one_chamber_fan_names_the_fan(monkeypatch, capsys):
    fan = {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    code, out = run_cli(["partition", "potentials"], json.dumps({"fan": fan}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code, out = run_cli(["cw", "build"], out, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"error": "NotComplete", "witness": fan}


README_PIPELINES = [
    [["examples", "hirzebruch-a1"], ["partition", "potentials"]],
    [["examples", "square"], ["partition", "closure", "--seed", "s1~s3,s2~s4"],
     ["cw", "build"], ["cw", "euler"]],
    [["examples", "brauer3"], ["fan", "from-arrangement"], ["fan", "validate"]],
    [["examples", "brauer3"], ["group", "certify-brauer"]],
    [["examples", "brauer3"], ["render"]],
    [["examples", "brauer3"], ["arrangement", "shard-partition"]],
]

# Runs each pipeline in one process and prints [argv, exit code, stdout]
# per stage, one JSON line each.
PIPELINE_DRIVER = """
import io, json, sys
from partfan.cli import main
for stages in json.loads(sys.argv[1]):
    text = ""
    for argv in stages:
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        code = main(argv)
        text = sys.stdout.getvalue()
        sys.__stdout__.write(json.dumps([argv, code, text]) + "\\n")
"""


def test_readme_pipelines_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(partfan.__file__))
    procs = [subprocess.Popen(
        [sys.executable, "-c", PIPELINE_DRIVER, json.dumps(README_PIPELINES)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        for seed in ("1", "2")]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    stages = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(stages) == sum(len(p) for p in README_PIPELINES)
    assert all(code == 0 for _, code, _ in stages)
