"""The three workloads.

A workload turns a seed into plain inputs (``make_inputs``, timed as part
of set-up) and the inputs into jobs (``make_jobs``, not timed; it also
computes the oracles' data).  A job is (name, compute, check): ``compute``
calls partfan and is the only timed part; ``check`` judges its result with
the oracles, returns a list of problems, and adds the job's size counts and
the verdicts it records without asserting (keys ``verdict.*``) to ``sizes``.
"""

import hashlib
import io
import json
import random
import sys
from itertools import combinations

import inputs
import oracles


# ---------------------------------------------------------------------------
# coxeter-rank3: the full library pipeline on A3, Brauer and B3

def coxeter_inputs(seed):
    del seed   # the corpus is fixed; runs differ only by the machine
    return inputs.ARRANGEMENTS


def coxeter_jobs(pf, data):
    return [(name, _coxeter_compute(pf, name, normals),
             _coxeter_check(name, oracles.Rank3Lattice(normals))) for name, normals in data]


def _coxeter_compute(pf, name, normals):
    def compute():
        arr = pf.Arrangement(3, normals)
        arrfan = pf.arrangement_fan(arr, with_signs=True)
        fan = arrfan.fan
        r = {"fan": fan, "valid": pf.validate_fan(fan).ok,
             "complete": pf.is_finite_complete(fan), "flats": len(pf.flats(arr))}
        base = next(c for c in fan.max_cones
                    if arrfan.sign_of(c) == (1,) * len(arr.normals))
        flat = pf.flat_partition(arr, fan)
        shard = pf.shard_partition(arr, arrfan, base)
        r["admissible"] = [pf.is_admissible(fan, p)[0] for p in (flat, shard)]
        r["refines"] = pf.refines(shard, flat)
        poset = pf.poset_of_regions(arrfan, base)
        r["base"], r["poset"], r["wall_algebra"] = base, poset, None
        r["parts"] = {}
        for kind, part in (("flat", flat), ("shard", shard)):
            category = pf.build_category(fan, part)
            complex_ = pf.build_cw(fan, part)
            picture = pf.picture_group(fan, part, poset, mode="codim2")
            entry = {"blocks": part.blocks, "category": category,
                     "cubical": pf.check_cubical(category).ok,
                     "euler": pf.euler_characteristic(complex_),
                     "picture": picture,
                     "compare": pf.compare_pi1_picture(complex_, picture)}
            if name == "brauer":
                # the wall algebra, and so the certificate, exists for Brauer only
                if kind == "flat":
                    r["wall_algebra"] = pf.wa_certify(arr, picture)
                entry["hom_distinct"] = pf.hom_distinctness_certificate(
                    category, poset, r["wall_algebra"])[0]
            if kind == "shard":
                entry["last_factors"] = pf.check_last_factor_compatibility(category)[0]
            r["parts"][kind] = entry
        if name == "A3":
            r["fan_poset"] = pf.check_weak_fan_poset(fan, poset)
        return r
    return compute


def _coxeter_check(name, lattice):
    def check(r, sizes):
        fan = r["fan"]
        normals, m = lattice.normals, len(lattice.normals)
        problems = oracles.check_arrangement_fan(lattice, fan.rays, fan.max_cones,
                                                 fan.cones)
        if not (r["valid"] and r["complete"]):
            problems.append("fan not reported valid and complete")
        if r["flats"] != lattice.flat_count:
            problems.append("%d flats != %d" % (r["flats"], lattice.flat_count))
        if not all(r["admissible"]) or not r["refines"]:
            problems.append("partitions not admissible, or shard does not refine flat")
        covers = [(lo, up) for lo, up, _ in r["poset"].covers]
        leq = oracles.order_closure(fan.max_cones, covers)
        if any((r["base"], c) not in leq for c in fan.max_cones):
            problems.append("base is not the minimum of the poset of regions")
        for kind, entry in r["parts"].items():
            problems += oracles.check_arrangement_partition(
                normals, fan.rays, fan.cones, entry["blocks"], kind)
            if not entry["cubical"]:
                problems.append("%s category is not cubical" % kind)
            if not entry["compare"]["abelianizations_equal"]:
                problems.append("%s: pi1 and picture group abelianizations differ" % kind)
            if entry.get("hom_distinct") is False:
                problems.append("%s hom-distinctness certificate fails" % kind)
            sizes["size.morphisms"] += len(entry["category"].morphisms)
            sizes["size.compose_entries"] += len(entry["category"].compose_table)
            sizes["size.relators"] += len(entry["picture"].relators)
        if len(r["parts"]["flat"]["blocks"]) != lattice.flat_count:
            problems.append("flat partition has not one block per flat")
        if r["parts"]["flat"]["euler"] != len(lattice.lines) - m:
            problems.append("flat CW Euler characteristic != #lines - m")
        sizes["verdict.last_factors.%s" % r["parts"]["shard"]["last_factors"]] += 1
        if name == "brauer" and r["wall_algebra"] is not True:
            problems.append("wall-algebra certificate fails on Brauer")
        if "fan_poset" in r:
            report = r["fan_poset"]
            if not report.ok:
                problems.append("A3 poset of regions is not a fan poset")
            sizes["size.intervals"] += len(leq)
            sizes["size.union_failures"] += len(report.union_failures)
        sizes["size.cones"] += len(fan.cones)
        return problems
    return check


# ---------------------------------------------------------------------------
# planar-batch: many small planar fans, cold caches

CATALOGUE_PARTITIONS = {"square": "torus_partition", "hirzebruch-a1": "hirzebruch_p1",
                        "three-lines": "three_lines_partition"}
CATALOGUE_FANS = {"square": "square", "hirzebruch-a1": "hirzebruch",
                  "three-lines": "three_lines"}
BISECTOR_BASES = 2       # allowed bisector bases per fan
LATTICE_PAIRS = 6        # meet/join pairs per enumerated fan


def planar_inputs(seed):
    fans = inputs.planar_batch(seed)
    rng = random.Random(seed)
    fans += [{"name": name, "rays": rays, "chambers": chambers, "catalogue": True,
              "functionals": inputs.functional_candidates(rng, rays), "picks": seed}
             for name, rays, chambers in inputs.CATALOGUE]
    return fans


def _oracle_choices(fan):
    """The fan's spec with its allowed bisector bases and first fan-poset
    functional, both decided by the oracles."""
    rng = random.Random(fan["picks"])
    allowed = [c for c in fan["chambers"] if oracles.bisector_base_allowed(fan["rays"], c)]
    spec = {k: v for k, v in fan.items() if k != "functionals"}
    spec["bases"] = sorted(rng.sample(allowed, min(BISECTOR_BASES, len(allowed))))
    spec["functional"] = next((b for b in fan["functionals"]
                               if oracles.fan_poset_functional(fan["rays"], b)), None)
    return spec


def planar_jobs(pf, data):
    import partfan.catalog as catalog
    specs = [_oracle_choices(f) for f in data]
    return [(f["name"], _planar_compute(pf, catalog, f), _planar_check(f)) for f in specs]


def _seed_pairs(rng, classes):
    """Closure seeds drawn from the E-classes: every opposite-ray class (so a
    symmetric fan closes to a single 0-cell) and one seeded chamber pair."""
    pairs = [(cls[0], cls[1]) for cls in classes if len(cls) == 2 and len(cls[0]) == 1]
    chambers = next(cls for cls in classes if len(cls[0]) == 2)
    return pairs + [tuple(rng.sample(chambers, 2))]


def _planar_compute(pf, catalog, spec):
    def compute():
        rng = random.Random(spec["picks"])
        if spec.get("catalogue"):
            fan = getattr(catalog, CATALOGUE_FANS[spec["name"]])()
        else:
            fan = pf.build_fan(2, spec["rays"], spec["chambers"])
        r = {"fan": fan, "valid": pf.validate_fan(fan).ok}
        ident = pf.potential_identifications(fan)
        if spec.get("catalogue"):
            partition = getattr(catalog, CATALOGUE_PARTITIONS[spec["name"]])(fan)
        else:
            partition = pf.admissible_closure(fan, _seed_pairs(rng, ident.classes))
        again = pf.admissible_closure(
            fan, [(b[0], c) for b in partition.blocks for c in b[1:]])
        r["idempotent"] = again.blocks == partition.blocks
        r["admissible"] = pf.is_admissible(fan, partition)[0]
        category = pf.build_category(fan, partition)
        r["category"] = category
        r["cubical"] = pf.check_cubical(category).ok
        r["last_factors"] = pf.check_last_factor_compatibility(category)[0]
        complex_ = pf.build_cw(fan, partition)
        r["pi1"] = pf.pi1_presentation(complex_)
        finest = pf.Partition(fan, [(c,) for c in fan.cones])
        r["finest_euler"] = pf.euler_characteristic(pf.build_cw(fan, finest))
        posets = [pf.rank2_bisector_poset(fan, b) for b in spec["bases"]]
        if spec["functional"] is not None:
            posets.append(pf.poset_from_linear_functional(fan, spec["functional"]))
        r["posets"] = []
        for poset in posets:
            entry = {"covers": [(lo, up) for lo, up, _ in poset.covers],
                     "report": pf.check_weak_fan_poset(fan, poset),
                     "nondegenerate": pf.check_nondegenerate(fan, partition, poset)[0]}
            if entry["nondegenerate"]:
                picture = pf.picture_group(fan, partition, poset, mode="full")
                entry["picture"] = picture
                entry["functor"] = pf.functor_check(category, poset)[0]
                entry["rank2"] = pf.rank2_faithfulness_certificate(category, poset)[0]
                if len(complex_.vertices) == 1:
                    entry["compare"] = pf.compare_pi1_picture(complex_, picture)
            r["posets"].append(entry)
        r["lattice"] = []
        if len(fan.cones) <= 16:
            admissible = pf.enumerate_admissible(fan)
            r["enumerated"] = len(admissible)
            pairs = list(combinations(range(len(admissible)), 2))
            for i, j in rng.sample(pairs, min(LATTICE_PAIRS, len(pairs))):
                p, q = admissible[i], admissible[j]
                lo, hi = pf.meet(p, q), pf.join(p, q)
                r["lattice"].append((p.blocks, q.blocks, lo.blocks, hi.blocks,
                                     pf.is_admissible(fan, lo)[0],
                                     pf.is_admissible(fan, hi)[0]))
        return r
    return compute


def _refines(fine, coarse):
    owner = {c: i for i, b in enumerate(coarse) for c in b}
    return all(len({owner[c] for c in b}) == 1 for b in fine)


def _planar_check(spec):
    def check(r, sizes):
        fan, rays = r["fan"], spec["rays"]
        problems = []
        if tuple(fan.rays) != tuple(rays):
            problems.append("fan rays differ from the generated rays")
        if not r["valid"]:
            problems.append("generated fan reported invalid")
        if not (r["admissible"] and r["idempotent"]):
            problems.append("closure not admissible or not idempotent")
        if not r["cubical"]:
            problems.append("category is not cubical")
        if r["finest_euler"] != 1:
            problems.append("finest-partition CW has Euler characteristic != 1")
        for entry in r["posets"]:
            expected, intervals = oracles.expected_union_failures(rays, entry["covers"])
            report = entry["report"]
            actual = {(tuple(f["interval"][0]), tuple(f["interval"][1]),
                       tuple(f["chamber"])) for f in report.union_failures}
            if actual != expected:
                problems.append("union failures differ from the half-plane oracle")
            if report.facial_failures:
                problems.append("facial-interval failure on an allowed poset")
            if entry.get("functor") is False:
                problems.append("functor check fails")
            if "compare" in entry and not entry["compare"]["abelianizations_equal"]:
                problems.append("pi1 and picture group abelianizations differ")
            if "rank2" in entry:
                sizes["verdict.rank2_faithfulness.%s" % entry["rank2"]] += 1
            sizes["size.intervals"] += intervals
            sizes["size.union_failures"] += len(report.union_failures)
            if "picture" in entry:
                sizes["size.relators"] += len(entry["picture"].relators)
        for p, q, lo, hi, lo_ok, hi_ok in r["lattice"]:
            if not (lo_ok and hi_ok):
                problems.append("meet or join is not admissible")
            if not (_refines(lo, p) and _refines(lo, q)
                    and _refines(p, hi) and _refines(q, hi)):
                problems.append("meet/join do not bound their arguments")
        sizes["verdict.last_factors.%s" % r["last_factors"]] += 1
        sizes["size.cones"] += len(fan.cones)
        sizes["size.morphisms"] += len(r["category"].morphisms)
        sizes["size.compose_entries"] += len(r["category"].compose_table)
        return problems
    return check


# ---------------------------------------------------------------------------
# cli-pipelines: README pipelines through partfan.cli.main, in process

def cli_inputs(seed):
    return inputs.cli_pipelines(seed)


def cli_jobs(pf, data):
    import partfan.cli as cli
    lattices = {"brauer": oracles.Rank3Lattice(inputs.BRAUER_NORMALS),
                "A3": oracles.Rank3Lattice(inputs.A3_NORMALS)}
    return [(name, _cli_compute(cli, stdin, stages), _cli_check(name, lattices))
            for name, stdin, stages in data]


def _cli_compute(cli, stdin, stages):
    def compute():
        data, in_bytes, out_bytes = stdin or "", 0, 0
        saved = sys.stdin, sys.stdout
        for argv in stages:
            out = io.StringIO()
            sys.stdin, sys.stdout = io.StringIO(data), out
            try:
                code = cli.main(argv)
            finally:
                sys.stdin, sys.stdout = saved
            in_bytes += len(data.encode())
            data = out.getvalue()
            out_bytes += len(data.encode())
            if code != 0:
                break
        return {"code": code, "output": data, "in": in_bytes, "out": out_bytes}
    return compute


def _cli_check(name, lattices):
    def check(r, sizes):
        sizes["cli.json_in_bytes"] += r["in"]
        sizes["cli.json_out_bytes"] += r["out"]
        text = r["output"]
        if name.startswith("error-"):
            ok = r["code"] != 0 and "error" in json.loads(text)
            return [] if ok else ["%s: no nonzero exit with an error document" % name]
        if r["code"] != 0:
            return ["%s exited %d" % (name, r["code"])]
        if name == "brauer-render":
            return [] if oracles.well_formed_svg(text) else ["render: not one <svg>"]
        out = json.loads(text)
        if name == "shard-partition":
            fan = out["fan"]
            rays = [tuple(r) for r in fan["rays"]]
            cones = oracles.all_faces([tuple(c) for c in fan["max_cones"]])
            blocks = [[tuple(c) for c in b] for b in out["partition"]["blocks"]]
            normals = [tuple(n) for n in out["arrangement"]["normals"]]
            sizes["size.cones"] += len(cones)
            return oracles.check_arrangement_partition(normals, rays, cones, blocks,
                                                       "shard")
        expected = {
            "certify-brauer": lambda: out["faithful"] is True,
            "brauer-validate": lambda: out["valid"] and
            out["max_cones"] == lattices["brauer"].chambers,
            "A3-validate": lambda: out["valid"] and
            out["max_cones"] == lattices["A3"].chambers,
            "torus-euler": lambda: out == 0,
            "hirzebruch-potentials": lambda: out["partition"]["blocks"]
            == oracles.HIRZEBRUCH_E_CLASSES,
        }.get(name, lambda: out == {"cubical": True, "violations": {}})
        return [] if expected() else ["%s: unexpected output" % name]
    return check


def cli_digest(name, result, error):
    """Digest of one pipeline's output bytes, or of the error it raised."""
    body = result["output"] if error is None else "raised " + error
    return hashlib.sha256((name + "\0" + body).encode()).hexdigest()


WORKLOADS = {
    "coxeter-rank3": (coxeter_inputs, coxeter_jobs),
    "planar-batch": (planar_inputs, planar_jobs),
    "cli-pipelines": (cli_inputs, cli_jobs),
}
