"""The category of a partitioned fan and its cubical structure.

Objects are the blocks of an admissible partition.  A morphism class is an
equivalence class of inclusion pairs (sigma, tau), sigma a face of tau,
where two pairs are identified exactly when the projections of the targets
along their sources coincide.  That canonical projected cone, together
with the source and target blocks, is a complete identity for the class,
so composition and all five cubical axioms can be checked on fully
materialized tables.
"""

from functools import cache
from itertools import combinations

from .errors import NotAdmissible, NotAFace, NotComposable, RankZero
from .partition import is_admissible


class MorphClass:
    """One morphism of the category: a class of inclusion pairs."""

    __slots__ = ("index", "source", "target", "signature", "reps", "rank")

    def __init__(self, index, source, target, signature, reps, rank):
        self.index = index
        self.source = source          # block id
        self.target = target          # block id
        self.signature = signature    # canonical projected cone
        self.reps = reps              # sorted tuple of (sigma, tau) pairs
        self.rank = rank

    def __repr__(self):
        return "MorphClass(%d: %d->%d, sig=%s)" % (
            self.index, self.source, self.target, self.signature)


class Category:
    def __init__(self, fan, partition, morphisms, hom, compose_table, identities,
                 of_pair):
        self.fan = fan
        self.partition = partition
        self.objects = tuple(range(len(partition.blocks)))
        self.morphisms = morphisms
        self.hom = hom                    # (source, target) -> tuple of indices
        self.compose_table = compose_table  # (f, g) -> index of g o f
        self.identities = identities      # block id -> morphism index
        self.of_pair = of_pair            # (sigma, tau) -> morphism index

    def hom_set(self, source, target):
        return tuple(self.morphisms[i] for i in self.hom.get((source, target), ()))

    def morphism_of_pair(self, sigma, tau):
        sigma = self.fan.check_cone(sigma)
        tau = self.fan.check_cone(tau)
        if not set(sigma) <= set(tau):
            raise NotAFace("source is not a face of the target",
                           witness=[list(sigma), list(tau)])
        return self.morphisms[self.of_pair[sigma, tau]]

    def to_json(self):
        return {
            "objects": [[list(c) for c in b] for b in self.partition.blocks],
            "morphisms": [
                {
                    "index": m.index,
                    "source": m.source,
                    "target": m.target,
                    "rank": m.rank,
                    "signature": [list(r) for r in m.signature],
                    "representatives": [[list(s), list(t)] for s, t in m.reps],
                }
                for m in self.morphisms
            ],
            "composition": sorted(
                [f, g, h] for (f, g), h in self.compose_table.items()
            ),
        }


def build_category(fan, partition):
    """Materialize objects, morphism classes and the composition table.

    Raises NotAdmissible when the partition fails the admissibility check;
    well-definedness of composition (existence and uniqueness of the
    composite over all representative chains) is verified during the build.
    """
    ok, witness = is_admissible(fan, partition)
    if not ok:
        raise NotAdmissible("partition is not admissible",
                            witness=[list(c) for c in witness])
    groups = {}
    for tau in fan.cones:
        for k in range(len(tau) + 1):
            for sigma in combinations(tau, k):
                key = (partition.block_of[sigma], partition.block_of[tau],
                       fan._projected_cone(sigma, tau))
                groups.setdefault(key, set()).add((sigma, tau))
    morphisms = []
    of_pair = {}
    for idx, key in enumerate(sorted(groups)):
        source, target, signature = key
        reps = tuple(sorted(groups[key]))
        rank = len(reps[0][1]) - len(reps[0][0])
        morphisms.append(MorphClass(idx, source, target, signature, reps, rank))
        of_pair.update(dict.fromkeys(reps, idx))
    hom = {}
    for m in morphisms:
        hom.setdefault((m.source, m.target), []).append(m.index)
    hom = {k: tuple(v) for k, v in hom.items()}
    identities = {}
    for m in morphisms:
        if m.rank == 0:
            identities[m.source] = m.index

    # composition per representative matching; checked single-valued.  Each
    # f rep (sigma, kappa) looks up the reps (kappa, tau2) of every g by
    # their source.  By admissibility every target kappa of f starts reps
    # of the same morphisms g, so the table fills in g order for each f.
    reps_from = {}   # kappa -> g index -> targets tau2 of g's reps (kappa, tau2)
    for g in morphisms:
        for kappa, tau2 in g.reps:
            reps_from.setdefault(kappa, {}).setdefault(g.index, []).append(tau2)
    compose_table = {}
    for f in morphisms:
        results = {}
        for sigma, kappa in f.reps:
            for g_idx, ends in reps_from[kappa].items():
                results.setdefault(g_idx, set()).update(
                    of_pair[sigma, tau2] for tau2 in ends)
        for g_idx, composed in results.items():
            if len(composed) > 1:
                raise NotAdmissible("composition not single-valued",
                                    witness=[f.index, g_idx, sorted(composed)])
            compose_table[(f.index, g_idx)] = composed.pop()
    return Category(fan, partition, tuple(morphisms), hom, compose_table, identities,
                    of_pair)


def compose(category, f, g):
    """The composite g o f; f's target block must be g's source block."""
    if f.target != g.source:
        raise NotComposable("target/source blocks do not match",
                            witness=[f.index, g.index])
    result = category.compose_table.get((f.index, g.index))
    if result is None:
        raise NotComposable("no representative chain found",
                            witness=[f.index, g.index])
    return category.morphisms[result]


def first_factors(category, f):
    """The rank-1 first factors [f_{sigma, cone{sigma, v_i}}]."""
    if f.rank == 0:
        raise RankZero("identity morphisms have no factors", witness=f.index)
    sigma, tau = f.reps[0]
    out = {category.of_pair[sigma, tuple(sorted(sigma + (v,)))]
           for v in tau if v not in sigma}
    return tuple(category.morphisms[i] for i in sorted(out))


def last_factors(category, f):
    """The rank-1 last factors [f_{lambda_i, tau}] with lambda_i dropping v_i."""
    if f.rank == 0:
        raise RankZero("identity morphisms have no factors", witness=f.index)
    sigma, tau = f.reps[0]
    out = {category.of_pair[tuple(i for i in tau if i != v), tau]
           for v in tau if v not in sigma}
    return tuple(category.morphisms[i] for i in sorted(out))


class FactorizationCube:
    """The factorization category Faq(f), indexed by subsets of {1..k}."""

    def __init__(self, anchor, objects, subset_of):
        self.anchor = anchor
        self.objects = objects      # tuple of (g index, h index) pairs
        self.subset_of = subset_of  # object -> frozenset index subset

    def rank(self):
        return self.anchor.rank


def factorization_cube(category, f):
    """All two-step factorizations of f, with the subset-poset indexing.

    The subset map comes from one representative (sigma, tau): S maps to
    sigma -> cone{sigma, {v_i : i in S}} -> tau.  The objects are listed by
    subset size, and within a size in ``combinations`` order, so objects
    1..k are the singletons {i} and the k before the last are the
    co-singletons, {v_k} dropped first.  ``check_cubical`` verifies that
    this hits every factorization pair exactly once (Faq(f) ~ I^k).

    The reps are pairs of sorted cones and every middle is a sorted face of
    tau, so each pair is read straight off ``Category.of_pair``.
    """
    of_pair = category.of_pair
    sigma, tau = f.reps[0]
    extra = [i for i in tau if i not in sigma]
    objects = []
    subset_of = {}
    for S in _cube_subsets(len(extra)):
        middle = tuple(sorted(sigma + tuple(extra[i] for i in S)))
        obj = (of_pair[sigma, middle], of_pair[middle, tau])
        objects.append(obj)
        subset_of[obj] = frozenset(S)
    return FactorizationCube(f, tuple(objects), subset_of)


@cache
def _cube_subsets(k):
    """The subsets of range(k) in the order of the factorization-cube objects."""
    return tuple(S for size in range(k + 1) for S in combinations(range(k), size))


def _factorizations(category):
    """Map each composite f to its sorted (g, h) pairs, in one table pass.

    A pair counts only when g starts at f's source and h ends at f's
    target.  Built from the current table on every call, so an entry
    changed after the build is seen.
    """
    ms = category.morphisms
    out = {}
    for (gi, hi), res in sorted(category.compose_table.items()):
        if ms[gi].source == ms[res].source and ms[hi].target == ms[res].target:
            out.setdefault(res, []).append((gi, hi))
    return out


class AxiomReport:
    """Verdicts of the five cubical-category axioms with witnesses."""

    def __init__(self):
        self.failures = {k: [] for k in (1, 2, 3, 4, 5)}

    def record(self, axiom, witness):
        self.failures[axiom].append(witness)

    @property
    def ok(self):
        return all(not v for v in self.failures.values())

    def to_json(self):
        return {"cubical": self.ok,
                "violations": {str(k): v for k, v in self.failures.items() if v}}


def check_cubical(category):
    """Verify the five cubical axioms on the materialized category.

    1. rank additivity over the composition table;
    2. Faq(f) is isomorphic to the subset poset of {1..rank f};
    3. the middle-object functor Faq(f) -> C is injective on objects and
       faithful (at most one morphism between factorization objects);
    4. morphisms of equal rank >= 1 are determined by their first factors;
    5. likewise by their last factors.

    Everything is read from the current ``compose_table``, so an entry
    changed after the build is seen.  A Faq-morphism (g1, h1) -> (g2, h2)
    is a phi from g1's target to g2's target with phi o g1 = g2 and
    h2 o phi = h1.  One pass over the table indexes every phi by g and
    phi o g, so the counts out of (g1, h1) look only at the phi with
    phi o g1 one of the cube's g, not at whole hom-sets.  When the nonzero
    counts are exactly 1 on the pairs S < T of the cube, nothing fails;
    otherwise every ordered pair is compared in turn, so axioms 2 and 3
    record their witnesses in the order of a scan over all pairs.

    The factors of axioms 4 and 5 are read off f's factorization cube.  Its
    singleton objects {i} are (f_{sigma, cone{sigma, v_i}}, ...) and its
    co-singletons are (..., f_{lambda_i, tau}), with lambda_i dropping v_i:
    the pairs ``first_factors`` and ``last_factors`` look up, from the same
    representative.  They are read by position, since a cube that fails
    axiom 2 may list one object twice.  Each axiom records its witnesses in
    morphism order.
    """
    report = AxiomReport()
    ms = category.morphisms
    table = category.compose_table
    after = {}   # after[g][c]: the phi with phi o g = c
    for (fi, gi), hi in sorted(table.items()):
        if ms[fi].rank + ms[gi].rank != ms[hi].rank:
            report.record(1, {"f": fi, "g": gi, "composite": hi})
        after.setdefault(fi, {}).setdefault(hi, []).append(gi)

    factorizations = _factorizations(category)
    by_first = {}
    by_last = {}
    for f in ms:
        k = f.rank
        objects = factorization_cube(category, f).objects
        pairs = factorizations.get(f.index, [])
        if sorted(objects) != pairs or len(set(objects)) != 2 ** k:
            report.record(2, {"morphism": f.index, "expected": 2 ** k,
                              "pairs": pairs})
        else:
            middles = [ms[g].target for g, _ in objects]
            if len(set(middles)) != len(middles):
                report.record(3, {"morphism": f.index, "middles": middles})
            counts = _faq_counts(category, after, objects, middles)
            inclusions = _cube_inclusions(k)
            if counts.keys() != inclusions or any(c != 1 for c in counts.values()):
                for i, j in combinations(range(len(objects)), 2):
                    for a, b in ((i, j), (j, i)):
                        count = counts.get((a, b), 0)
                        expected = 1 if (a, b) in inclusions else 0
                        if count != expected:
                            report.record(3 if count > 1 else 2,
                                          {"morphism": f.index, "from": objects[a],
                                           "to": objects[b], "count": count,
                                           "expected": expected})
        if k == 0:
            continue
        fkey = tuple(sorted({g for g, _ in objects[1:k + 1]}))
        lkey = tuple(sorted({h for _, h in objects[-1 - k:-1]}))
        if fkey in by_first:
            report.record(4, {"a": by_first[fkey], "b": f.index, "first": fkey})
        else:
            by_first[fkey] = f.index
        if lkey in by_last:
            report.record(5, {"a": by_last[lkey], "b": f.index, "last": lkey})
        else:
            by_last[lkey] = f.index
    return report


def _faq_counts(category, after, objects, middles):
    """The nonzero Faq-morphism counts between cube objects, by position.

    The count from (g1, h1) to (g2, h2) is the number of phi from g1's
    target to g2's target with phi o g1 = g2 and h2 o phi = h1;
    ``after[g1][g2]`` lists the phi with phi o g1 = g2.
    """
    ms = category.morphisms
    table = category.compose_table
    gs = [g for g, _ in objects]
    counts = {}
    for a, (g1, h1) in enumerate(objects):
        composites = after.get(g1, {})
        for b in [b for b, g2 in enumerate(gs) if g2 in composites and b != a]:
            h2 = objects[b][1]
            for phi in composites[gs[b]]:
                if (ms[phi].source == middles[a] and ms[phi].target == middles[b]
                        and table.get((phi, h2)) == h1):
                    counts[a, b] = counts.get((a, b), 0) + 1
    return counts


@cache
def _cube_inclusions(k):
    """The position pairs (a, b), a != b, of factorization-cube objects whose
    subsets of {0..k-1} satisfy S_a <= S_b."""
    subsets = [frozenset(S) for S in _cube_subsets(k)]
    return frozenset((a, b) for a, sa in enumerate(subsets)
                     for b, sb in enumerate(subsets) if a != b and sa <= sb)


def check_last_factor_compatibility(category):
    """Pairwise compatibility of last factors.

    For each object, any set of k >= 3 rank-1 morphisms into it that are
    pairwise the last factors of a rank-2 morphism must jointly be the
    last-factor set of a rank-k morphism.  Returns (True, None) or
    (False, offending set of morphism indices).  In ambient dimension 2
    this amounts to detecting any 3 pairwise-compatible rank-1 morphisms.
    """
    incoming_of = {}
    for m in category.morphisms:
        incoming_of.setdefault(m.target, []).append(m)
    for obj in category.objects:
        incoming = incoming_of.get(obj, [])
        rank1 = sorted(m.index for m in incoming if m.rank == 1)
        if len(rank1) < 3:
            continue
        edges = set()
        realized = {}
        for m in incoming:
            if m.rank < 2:
                continue
            key = tuple(sorted(x.index for x in last_factors(category, m)))
            realized.setdefault(len(key), set()).add(key)
            if m.rank == 2:
                edges.add(key)
        neighbors = {v: set() for v in rank1}
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        for clique in _cliques_of_size_3_up(rank1, neighbors):
            if clique not in realized.get(len(clique), set()):
                return False, clique
    return True, None


def _cliques_of_size_3_up(vertices, neighbors):
    """All cliques with at least three vertices, each found once.

    Grows cliques in increasing vertex order, so only actual cliques are
    visited; the compatibility graphs here are sparse.
    """
    out = []

    def grow(clique, candidates):
        for v in sorted(candidates):
            extended = clique + (v,)
            if len(extended) >= 3:
                out.append(extended)
            grow(extended, {u for u in candidates if u > v} & neighbors[v])

    grow((), set(vertices))
    return out


def export_category_dot(category):
    """Deterministic DOT digraph of the non-identity rank-1 morphisms."""
    lines = ["digraph category {"]
    for obj in category.objects:
        lines.append('  n%d [label="%s"];' % (obj, _block_text(category, obj)))
    for m in category.morphisms:
        if m.rank != 1:
            continue
        lines.append('  n%d -> n%d [label="%s"];'
                     % (m.source, m.target, _signature_text(m.signature)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _block_text(category, obj):
    block = category.partition.blocks[obj]
    return "|".join("(%s)" % ",".join(str(i) for i in c) if c else "0"
                    for c in block)


def _signature_text(signature):
    return ";".join(",".join(str(x) for x in r) for r in signature)
