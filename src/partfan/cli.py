"""Command-line surface.

Subcommands communicate through a JSON envelope on stdin/stdout holding
any of: fan, partition, poset, arrangement, presentation, category, cw.
Every handler is called as ``handler(args, env)`` with one ``Envelope``,
which reads stdin and parses each entry on first use.
Producing commands extend the envelope; checking commands print a result
document; euler prints a bare integer.  All output is deterministic
(sorted keys, sorted collections).  Module errors exit nonzero with
``{"error": code, "witness": ...}``.
"""

import argparse
import functools
import json
import sys

from . import arrangement as arrlib
from . import catalog
from . import category as catlib
from . import cw as cwlib
from . import groups as grplib
from . import partition as partlib
from . import poset as posetlib
from . import render
from .errors import BadInput, NotComplete, PartFanError
from .fan import fan_from_json, is_finite_complete, validate_fan


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_vector_values(
        sys.argv[1:] if argv is None else argv))
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    env = Envelope()
    try:
        output = args.handler(args, env)
    except PartFanError as err:
        print(json.dumps(err.to_json(), sort_keys=True))
        return 1
    if output is env:
        output = env.data
    if output is not None:
        if isinstance(output, str):
            sys.stdout.write(output)
        else:
            print(json.dumps(output, sort_keys=True))
    return 0


# options whose value is a comma-separated vector, which may start with "-"
_VECTOR_OPTIONS = ("--b", "--projection")


def _attach_vector_values(argv):
    """Write each "--b -1,2" as "--b=-1,2", the form argparse always reads.

    argparse takes a token that starts with "-" for an option unless it is
    a plain negative number, so "--b -1,2" would stop with a usage error.
    Abbreviated names such as "--proj" are attached too.  Every value
    attached this way reaches the command's own parser, which ends a bad
    one in BadInput with the value as the witness.
    """
    out = []
    for token in argv:
        if out and len(out[-1]) > 2 and token.startswith("-") and \
                any(name.startswith(out[-1]) for name in _VECTOR_OPTIONS):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="partfan",
                                     description="partitioned-fan toolkit")
    sub = parser.add_subparsers(dest="command")

    examples = sub.add_parser("examples", help="emit a built-in example")
    examples.add_argument("name", choices=sorted(catalog.EXAMPLES))
    examples.set_defaults(handler=cmd_examples)

    fan = sub.add_parser("fan").add_subparsers(dest="sub")
    _cmd(fan, "validate", cmd_fan_validate)
    _cmd(fan, "complete", cmd_fan_complete)
    _cmd(fan, "from-arrangement", cmd_fan_from_arrangement)

    part = sub.add_parser("partition").add_subparsers(dest="sub")
    _cmd(part, "potentials", cmd_partition_potentials)
    _cmd(part, "check", cmd_partition_check)
    closure = _cmd(part, "closure", cmd_partition_closure)
    closure.add_argument("--seed", required=True,
                         help='e.g. "s1~s3,s2~s4" or "[0]~[2]"')
    meet = _cmd(part, "meet", cmd_partition_meet)
    meet.add_argument("--other", required=True)
    joinp = _cmd(part, "join", cmd_partition_join)
    joinp.add_argument("--other", required=True)
    enum = _cmd(part, "enumerate", cmd_partition_enumerate)
    enum.add_argument("--limit", type=int, default=16)

    cat = sub.add_parser("category").add_subparsers(dest="sub")
    _cmd(cat, "build", cmd_category_build)
    _cmd(cat, "check-cubical", cmd_category_cubical)
    _cmd(cat, "check-last-factors", cmd_category_last_factors)
    export = _cmd(cat, "export", cmd_category_export)
    export.add_argument("--format", choices=("dot", "json"), default="dot")

    poset = sub.add_parser("poset").add_subparsers(dest="sub")
    functional = _cmd(poset, "functional", cmd_poset_functional)
    functional.add_argument("--b", required=True, help='functional, e.g. "1,1"')
    bisector = _cmd(poset, "bisector", cmd_poset_bisector)
    bisector.add_argument("--base", required=True, help='chamber, e.g. "[0,3]"')
    regions = _cmd(poset, "regions", cmd_poset_regions)
    regions.add_argument("--base", default="positive")
    _cmd(poset, "check", cmd_poset_check)
    _cmd(poset, "nondegenerate", cmd_poset_nondegenerate)

    group = sub.add_parser("group").add_subparsers(dest="sub")
    picture = _cmd(group, "picture", cmd_group_picture)
    picture.add_argument("--mode", choices=("full", "codim2"), default="full")
    picture.add_argument("--format", choices=("json", "text", "gap"),
                         default="json")
    alt = _cmd(group, "alt", cmd_group_alt)
    alt.add_argument("--format", choices=("json", "text", "gap"),
                     default="json")
    psi = _cmd(group, "psi", cmd_group_psi)
    psi.add_argument("--source", required=True)
    psi.add_argument("--target", required=True)
    quotient = _cmd(group, "quotient", cmd_group_quotient)
    quotient.add_argument("--coarse", required=True, help="partition JSON file")
    _cmd(group, "abelianize", cmd_group_abelianize)
    _cmd(group, "certify-rank2", cmd_group_certify_rank2)
    _cmd(group, "certify-brauer", cmd_group_certify_brauer)

    cw = sub.add_parser("cw").add_subparsers(dest="sub")
    _cmd(cw, "build", cmd_cw_build)
    _cmd(cw, "euler", cmd_cw_euler)
    _cmd(cw, "pi1", cmd_cw_pi1)
    _cmd(cw, "compare", cmd_cw_compare)

    arr = sub.add_parser("arrangement").add_subparsers(dest="sub")
    _cmd(arr, "flats", cmd_arr_flats)
    shardsp = _cmd(arr, "shards", cmd_arr_shards)
    shardsp.add_argument("--base", default="positive")
    shard_part = _cmd(arr, "shard-partition", cmd_arr_shard_partition)
    shard_part.add_argument("--base", default="positive")
    _cmd(arr, "flat-partition", cmd_arr_flat_partition)
    _cmd(arr, "wall-algebra", cmd_arr_wall_algebra)

    renderp = sub.add_parser("render")
    renderp.add_argument("--projection", default="1,1,1")
    renderp.set_defaults(handler=cmd_render)
    return parser


def _cmd(sub, name, handler):
    p = sub.add_parser(name)
    p.set_defaults(handler=handler)
    return p


# ---------------------------------------------------------------------------
# the envelope

_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}

_LOADERS = {
    "fan": fan_from_json,
    "arrangement": arrlib.arrangement_from_json,
    "presentation": grplib.presentation_from_json,
    "partition": partlib.partition_from_json,
    "poset": posetlib.poset_from_json,
}


class Envelope:
    """The JSON envelope a command reads, and the one it prints.

    stdin is read on the first use of an entry, so a command that reads
    none (``examples``) never touches it.  ``env[key]`` parses the entry
    once and keeps the object; a partition or poset is parsed on the
    envelope's fan, which is read first.  A malformed or missing entry
    raises BadInput naming the key and the problem.  ``env[key] = obj``
    sets a built object as the entry: later entries are parsed on it, and
    the printed envelope holds its ``to_json()``.
    """

    def __init__(self, data=None, parsed=()):
        self._data = data
        self._parsed = dict(parsed)

    @property
    def data(self):
        """The envelope as JSON, read from stdin on first use."""
        if self._data is None:
            self._data = _read_stdin()
        return self._data

    def __contains__(self, key):
        return key in self.data

    def __getitem__(self, key):
        if key not in self._parsed:
            fan = (self["fan"],) if key in ("partition", "poset") else ()
            if key not in self.data:
                raise BadInput("no %s in the input envelope" % key,
                               witness={"key": key, "problem": "missing"})
            try:
                self._parsed[key] = _LOADERS[key](*fan, self.data[key])
            except (KeyError, IndexError, TypeError, ValueError) as err:
                raise BadInput("malformed %s in the input envelope" % key,
                               witness={"key": key, "problem": "%s: %s" % (
                                   type(err).__name__, err)}) from err
        return self._parsed[key]

    def __setitem__(self, key, obj):
        self._parsed[key] = obj
        self.data[key] = obj.to_json()


def _read_stdin():
    if sys.stdin.isatty():
        return {}
    text = sys.stdin.read().strip()
    if not text:
        return {}
    data = _parse_json(text, "stdin is not JSON")
    if not isinstance(data, dict):
        raise BadInput("envelope must be a JSON object", witness=_JSON_TYPES[type(data)])
    return data


def _parse_json(text, problem):
    """The JSON value of stdin or of an option's file; BadInput, with the
    parser's message as the witness, when it is none."""
    # json.loads raises JSONDecodeError, a plain ValueError for an integer
    # of too many digits, or RecursionError for arrays nested too deep
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise BadInput(problem, witness=str(err)) from err


def parse_ints(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise BadInput("expected comma-separated integers", witness=text) from None


def parse_cone(text):
    text = text.strip()
    try:
        if text.startswith("s"):
            return (int(text[1:]) - 1,)
        if text in ("0", "[]"):
            return ()
        if text.startswith("[") and text.endswith("]"):
            inner = text[1:-1].strip()
            return tuple(sorted(int(t) for t in inner.split(","))) if inner else ()
    except ValueError:
        pass
    raise BadInput("cannot parse cone selector", witness=text)


def parse_seeds(text):
    pairs = []
    depth = 0
    token = ""
    chunks = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append(token)
            token = ""
        else:
            token += ch
    if token:
        chunks.append(token)
    for chunk in chunks:
        if "~" not in chunk:
            raise BadInput("seed must look like a~b", witness=chunk)
        a, b = chunk.split("~", 1)
        pairs.append((parse_cone(a), parse_cone(b)))
    return pairs


def _arrangement_fan(env, selector):
    """The arrangement's fan, set as the envelope's fan, and its base chamber."""
    arrfan = arrlib.arrangement_fan(env["arrangement"], with_signs=True)
    env["fan"] = arrfan.fan
    if selector != "positive":
        return arrfan, arrfan.fan.check_cone(parse_cone(selector))
    target = (1,) * len(arrfan.arrangement.normals)
    for c in arrfan.fan.max_cones:
        if arrfan.sign_of(c) == target:
            return arrfan, c
    raise BadInput("no all-positive chamber", witness=len(target))


# ---------------------------------------------------------------------------
# handlers

def cmd_examples(args, env):
    obj = catalog.EXAMPLES[args.name]()
    if args.name == "brauer3":
        return {"arrangement": obj.to_json()}
    return {"fan": obj.to_json()}


def cmd_fan_validate(args, env):
    out = validate_fan(env["fan"]).to_json()
    out["max_cones"] = len(env["fan"].max_cones)
    return out


def cmd_fan_complete(args, env):
    return {"complete": is_finite_complete(env["fan"])}


def cmd_fan_from_arrangement(args, env):
    env["fan"] = arrlib.arrangement_fan(env["arrangement"])
    return env


def cmd_partition_potentials(args, env):
    env["partition"] = partlib.potential_identifications(env["fan"]).partition
    return env


def cmd_partition_check(args, env):
    ok, witness = partlib.is_admissible(env["fan"], env["partition"])
    return {"admissible": ok,
            "witness": None if witness is None else [list(c) for c in witness]}


def cmd_partition_closure(args, env):
    env["partition"] = partlib.admissible_closure(env["fan"], parse_seeds(args.seed))
    return env


def _other_partition(path, env):
    """The partition in the file at ``path``, parsed on the envelope's fan."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as err:
        raise BadInput("cannot read the partition file", witness=str(err)) from err
    data = _parse_json(text, "cannot read the partition file")
    if not (isinstance(data, dict) and "partition" in data):
        data = {"partition": data}
    return Envelope(data, {"fan": env["fan"]})["partition"]


def cmd_partition_meet(args, env):
    env["partition"] = partlib.meet(env["partition"], _other_partition(args.other, env))
    return env


def cmd_partition_join(args, env):
    env["partition"] = partlib.join(env["partition"], _other_partition(args.other, env))
    return env


def cmd_partition_enumerate(args, env):
    parts = partlib.enumerate_admissible(env["fan"], limit=args.limit)
    return {"count": len(parts), "partitions": [p.to_json() for p in parts]}


def cmd_category_build(args, env):
    env["category"] = catlib.build_category(env["fan"], env["partition"])
    return env


def cmd_category_cubical(args, env):
    category = catlib.build_category(env["fan"], env["partition"])
    return catlib.check_cubical(category).to_json()


def cmd_category_last_factors(args, env):
    category = catlib.build_category(env["fan"], env["partition"])
    ok, witness = catlib.check_last_factor_compatibility(category)
    return {"compatible": ok, "witness": None if witness is None else list(witness)}


def cmd_category_export(args, env):
    category = catlib.build_category(env["fan"], env["partition"])
    if args.format == "dot":
        return catlib.export_category_dot(category)
    return category.to_json()


def cmd_poset_functional(args, env):
    env["poset"] = posetlib.poset_from_linear_functional(env["fan"], parse_ints(args.b))
    return env


def cmd_poset_bisector(args, env):
    fan = env["fan"]
    env["poset"] = posetlib.rank2_bisector_poset(fan, fan.check_cone(parse_cone(args.base)))
    return env


def cmd_poset_regions(args, env):
    env["poset"] = arrlib.poset_of_regions(*_arrangement_fan(env, args.base))
    return env


def cmd_poset_check(args, env):
    return posetlib.check_weak_fan_poset(env["fan"], env["poset"]).to_json()


def cmd_poset_nondegenerate(args, env):
    ok, witness = posetlib.check_nondegenerate(env["fan"], env["partition"], env["poset"])
    return {"nondegenerate": ok, "witness": witness}


def cmd_group_picture(args, env):
    pres = grplib.picture_group(env["fan"], env["partition"], env["poset"], mode=args.mode)
    return _presentation_output(env, pres, args.format)


def cmd_group_alt(args, env):
    pres = grplib.alt_presentation(env["fan"], env["partition"], env["poset"])
    return _presentation_output(env, pres, args.format)


def _presentation_output(env, pres, fmt):
    if fmt == "text":
        return pres.to_text() + "\n"
    if fmt == "gap":
        return pres.to_gap()
    env["presentation"] = pres
    return env


def cmd_group_psi(args, env):
    fan, partition, poset = env["fan"], env["partition"], env["poset"]
    morphism = catlib.build_category(fan, partition).morphism_of_pair(
        parse_cone(args.source), parse_cone(args.target))
    return {"word": grplib.render_word(grplib.psi(fan, partition, poset, morphism))}


def cmd_group_quotient(args, env):
    # read the partition, the --coarse file, then the presentation: the first
    # error is that of the first of them that is missing or malformed
    fine = env["partition"]
    coarse = _other_partition(args.coarse, env)
    env["presentation"] = grplib.quotient_presentation(
        env["presentation"], env["fan"], fine, coarse)
    return env


def cmd_group_abelianize(args, env):
    free_rank, torsion = grplib.abelianization(env["presentation"])
    return {"free_rank": free_rank, "torsion": list(torsion)}


def cmd_group_certify_rank2(args, env):
    fan, partition = env["fan"], env["partition"]
    if "poset" not in env and not fan.max_cones:
        raise NotComplete("the bisector poset needs a finite complete fan",
                          witness=fan.to_json())
    category = catlib.build_category(fan, partition)
    poset = env["poset"] if "poset" in env else \
        posetlib.rank2_bisector_poset(fan, fan.max_cones[0])
    ok, witness = grplib.rank2_faithfulness_certificate(category, poset)
    return {"faithful": ok, "witness": witness}


def cmd_group_certify_brauer(args, env):
    arrfan, base = _arrangement_fan(env, "positive")
    arr, fan = env["arrangement"], arrfan.fan
    flat = arrlib.flat_partition(arr, fan)
    partition = env["partition"] if "partition" in env else flat
    poset = arrlib.poset_of_regions(arrfan, base)
    flat_pres = grplib.picture_group(fan, flat, poset, mode="codim2")
    wa_ok = arrlib.wa_certify(arr, flat_pres)
    category = catlib.build_category(fan, partition)
    hom_ok, witness = grplib.hom_distinctness_certificate(category, poset, wa_ok)
    return {"wall_algebra": wa_ok, "hom_distinctness": hom_ok,
            "faithful": wa_ok and hom_ok, "witness": witness}


def cmd_cw_build(args, env):
    env["cw"] = cwlib.build_cw(env["fan"], env["partition"])
    return env


def cmd_cw_euler(args, env):
    return cwlib.euler_characteristic(cwlib.build_cw(env["fan"], env["partition"]))


def cmd_cw_pi1(args, env):
    return cwlib.pi1_presentation(cwlib.build_cw(env["fan"], env["partition"])).to_json()


def cmd_cw_compare(args, env):
    complex_ = cwlib.build_cw(env["fan"], env["partition"])
    return cwlib.compare_pi1_picture(complex_, env["presentation"])


def cmd_arr_flats(args, env):
    return {"flats": [f.to_json() for f in arrlib.flats(env["arrangement"])]}


def cmd_arr_shards(args, env):
    arrfan, base = _arrangement_fan(env, args.base)
    shard_list = arrlib.shards(env["arrangement"], arrfan, base)
    return {"count": len(shard_list),
            "shards": [s.to_json() for s in shard_list]}


def cmd_arr_shard_partition(args, env):
    arrfan, base = _arrangement_fan(env, args.base)
    env["partition"] = arrlib.shard_partition(env["arrangement"], arrfan, base)
    return env


def cmd_arr_flat_partition(args, env):
    env["fan"] = arrlib.arrangement_fan(env["arrangement"])
    env["partition"] = arrlib.flat_partition(env["arrangement"], env["fan"])
    return env


def cmd_arr_wall_algebra(args, env):
    algebra = arrlib.WallAlgebra(env["arrangement"])
    table = {}
    for a in algebra.basis:
        for b in algebra.basis:
            table["%s * %s" % (_wa_name(a), _wa_name(b))] = \
                _wa_name(algebra.basis_mul(a, b))
    return {"basis": [_wa_name(b) for b in algebra.basis], "table": table}


def _wa_name(key):
    if key == arrlib.ZERO_SYMBOL:
        return "0"
    return "(%s)" % ",".join(str(x) for x in key)


def cmd_render(args, env):
    if "fan" in env and env["fan"].dim == 2:
        return render.fan_svg(env["fan"])
    return render.arrangement_svg(env["arrangement"],
                                  projection_point=parse_ints(args.projection))


if __name__ == "__main__":
    sys.exit(main())
