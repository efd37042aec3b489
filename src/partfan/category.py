"""The category of a partitioned fan and its cubical structure.

Objects are the blocks of an admissible partition.  A morphism class is an
equivalence class of inclusion pairs (sigma, tau), sigma a face of tau,
where two pairs are identified exactly when the projections of the targets
along their sources coincide.  That canonical projected cone, together
with the source and target blocks, is a complete identity for the class,
so composition and all five cubical axioms can be checked on fully
materialized tables.

``build_category`` hands out its composition table as a read-only view and
records that view on the category.  ``check_cubical`` decides axioms 1-3
by proof while a category's table is that view, and by reading every entry
once the table has been replaced or the category was built by hand.
Axioms 4 and 5 and the last-factor checks read one table of factor keys
per category, computed on first use.
"""

from functools import cache
from itertools import combinations
from types import MappingProxyType

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
        # the read-only table build_category made: while compose_table is
        # this view, check_cubical proves axioms 1-3 instead of reading it;
        # None on a hand-built category, which always takes the table path
        self._built_table = None
        # per morphism index, its (first-factor key, last-factor key),
        # filled by _factor_keys on first use
        self._factor_keys = None

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

    Raises NotAdmissible when the partition fails the admissibility check.
    On an admissible partition composition is well defined, and each
    composite is read off one representative chain.

    Each g has at most one rep (kappa, tau2) starting at a cone kappa:
    distinct cones of star(kappa) have distinct signatures (consequence 4
    of ``potential_identifications``, which ``is_admissible`` reaches
    first).  Each pair (kappa, tau2) with tau2 in star(kappa) is the rep
    of exactly one g, so star(kappa) lists, once each, the g that start
    at kappa's block.  For each f, the composites are read off its first
    representative (sigma0, kappa0): g o f = [sigma0, tau2] for each
    tau2 in star(kappa0), g = [kappa0, tau2], and the row is filled in g
    order.  Every other rep (sigma, kappa) of f gives the same row, so
    this is the class of every representative chain.  Proof: the matching
    m: star(sigma0) -> star(sigma) preserves faces and sends kappa0 to
    kappa, so it sends g's rep (kappa0, tau2) to (kappa, m(tau2)), with
    the same signature; by admissibility tau2 ~ m(tau2), so
    (kappa, m(tau2)) is g's rep at kappa, and [sigma0, tau2] =
    [sigma, m(tau2)] as both have one signature.  The g starting at
    kappa0 are distinct, so kappa0's out-row (g, tau2), sorted once, is in
    g order for every f whose first rep ends at kappa0.

    The table is handed out as a read-only view, recorded on the category;
    ``check_cubical`` proves axioms 1-3 for it instead of reading it.
    """
    ok, witness = is_admissible(fan, partition)
    if not ok:
        raise NotAdmissible("partition is not admissible",
                            witness=[list(c) for c in witness])
    groups = {}
    for sigma in fan.cones:
        for tau, signature in fan._project_star_map(sigma).items():
            key = (partition.block_of[sigma], partition.block_of[tau], signature)
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

    compose_table = {}
    out_rows = {}    # kappa -> sorted (g, tau2) of the g starting at kappa
    for f in morphisms:
        sigma, kappa = f.reps[0]
        row = out_rows.get(kappa)
        if row is None:
            row = out_rows[kappa] = sorted((of_pair[kappa, tau2], tau2)
                                           for tau2 in fan._stars[kappa])
        compose_table.update(((f.index, g), of_pair[sigma, tau2]) for g, tau2 in row)
    category = Category(fan, partition, tuple(morphisms), hom,
                        MappingProxyType(compose_table), identities, of_pair)
    category._built_table = category.compose_table
    return category


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


def last_factors(category, f):
    """The rank-1 last factors [f_{lambda_i, tau}] with lambda_i dropping v_i."""
    if f.rank == 0:
        raise RankZero("identity morphisms have no factors", witness=f.index)
    return tuple(category.morphisms[i] for i in _factor_keys(category)[f.index][1])


def _factor_keys(category):
    """Per morphism index, its first-factor and last-factor keys, computed
    on first use and kept on the category.

    Off f's first rep (sigma, tau), for each ray v of tau outside sigma:
    the first factors [sigma, sigma u {v}] and the last factors
    [tau - {v}, tau], each key sorted without repeats and empty at rank 0.
    These are the singleton and co-singleton objects of f's
    factorization cube (``_cube_objects``), read straight off ``of_pair``.
    """
    if category._factor_keys is None:
        of_pair = category.of_pair
        keys = []
        for f in category.morphisms:
            if f.rank < 2:    # a rank-1 f is its own first and last factor
                key = (f.index,) * f.rank
                keys.append((key, key))
                continue
            sigma, tau = f.reps[0]
            others = [v for v in tau if v not in sigma]
            first = {of_pair[sigma, tuple(sorted(sigma + (v,)))] for v in others}
            last = {of_pair[tuple(i for i in tau if i != v), tau] for v in others}
            keys.append((tuple(sorted(first)), tuple(sorted(last))))
        category._factor_keys = keys
    return category._factor_keys


def _cube_objects(of_pair, sigma, tau):
    """The factorization-cube objects of the rep (sigma, tau), in cube order.

    Object S is the pair sigma -> cone{sigma, {v_i : i in S}} -> tau, v_i
    tau's i-th ray outside sigma, and the subsets S come in
    ``_cube_subsets`` order: by size, and within a size in
    ``combinations`` order.  So objects 1..k are the singletons {i} and
    the k before the last are the co-singletons, {v_k} dropped first.
    The reps are pairs of sorted cones and every middle is a sorted face of
    tau, so each middle is read off tau at the positions
    ``_middle_positions`` lists, and each pair straight off ``of_pair``.
    """
    objects = []
    for positions in _middle_positions(len(tau), tuple(map(tau.index, sigma))):
        middle = tuple([tau[p] for p in positions])
        objects.append((of_pair[sigma, middle], of_pair[middle, tau]))
    return objects


@cache
def _middle_positions(size, inner):
    """The positions, in a sorted cone tau of ``size`` rays, of each cube
    middle cone{sigma, {v_i : i in S}}, S in cube order, where ``inner``
    holds the positions of sigma's rays and v_i is tau's i-th other ray."""
    extra = [p for p in range(size) if p not in inner]
    return tuple(tuple(sorted(inner + tuple(extra[i] for i in S)))
                 for S in _cube_subsets(len(extra)))


@cache
def _cube_subsets(k):
    """The subsets of range(k) in the order of the factorization-cube objects."""
    return tuple(S for size in range(k + 1) for S in combinations(range(k), size))


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

    Axioms 1-3 take one of two paths.  The proof path is taken exactly
    when ``category.compose_table`` is the read-only view that
    ``build_category`` made and recorded on this category: axioms 1-3
    then hold by the proof below, and no entry is read.  Any other table,
    one replaced after the build or that of a hand-built ``Category``,
    takes the table path, which reads every entry, so a changed entry is
    seen.

    The table path.  One sorted pass over the table checks axiom 1 and
    collects the factorization pairs (g, h) of each composite f, those
    with g starting at f's source and h ending at f's target, in sorted
    order.  The cube of f has 2^k objects, read off by ``_cube_objects``,
    in cube order.  Distinct table entries give distinct pairs, so a cube
    whose sorted objects are f's pairs has 2^k distinct objects; this
    equality is axiom 2's first test.

    Let (sigma, tau) be f's first rep, m_S the middle
    cone{sigma, {v_i : i in S}} and (g_S, h_S) = ([sigma, m_S], [m_S, tau]).

    - Middles never repeat, so the middle-object functor is injective on
      objects in every category and axiom 3 tests faithfulness only.
      Distinct subsets S pick distinct ray sets of the simplicial cone
      tau, so the faces m_S have distinct spans.  Cones of one E-class
      share a span (the proof in ``partition._ident_key``), and
      ``build_category`` refuses a block that crosses E-classes (through
      ``is_admissible`` and ``partition._check_possible``), so distinct S
      give distinct blocks.  The middles come from ``of_pair`` and the
      morphism targets, never from ``compose_table``, so no edit of the
      table makes them repeat.
    - The Faq counts come from the factorization pairs.  A Faq-morphism
      (g1, h1) -> (g2, h2) is a phi from g1's target to g2's target with
      phi o g1 = g2 and h2 o phi = h1.  g1 and g2 both start at sigma's
      block, so (g1, phi) is a factorization pair of g2 exactly when
      phi o g1 = g2 in the table and phi ends at g2's target.  So the
      count is the number of pairs (g1, phi) of g2 whose phi starts at
      g1's target and has (phi, h2) -> h1 in the table, and no second
      index of the table is needed.
    - When every morphism passes the first test, the counts of each cube
      are 1 on the pairs S < T and 0 elsewhere, so none is computed.
      Proof.  Cube objects do not depend on the rep: let (sigma', tau')
      be another rep of a morphism and m the star matching
      star(sigma) -> star(sigma').  It preserves faces and sends tau to
      tau' (one signature, and projection is injective on a star), so it
      sends each middle mu to a middle m(mu) between sigma' and tau', and
      onto them.  As in ``build_category``, [sigma, mu] = [sigma', m(mu)]
      and [mu, tau] = [m(mu), tau'], by admissibility and the restriction
      of m to star(mu).  So ``_cube_objects`` of any rep is the same set.
      At most one phi, and only for S < T: a counted phi from (g_S, h_S)
      to (g_T, h_T) makes (g_S, phi) a factorization pair of g_T, and
      (sigma, m_T) is a rep of g_T, so by the first test on g_T and the
      point above, (g_S, phi) = ([sigma, m_U], [m_U, m_T]) for some
      U <= T.  Then g_S = g_U, so S's and U's middles agree, and as
      middles never repeat, U = S and phi = [m_S, m_T].  At least one phi
      for S < T: phi = [m_S, m_T] runs between the two middles.  The
      first test on g_T, from its rep (sigma, m_T), puts (g_S, phi) -> g_T
      in the table; on h_S, from its rep (m_S, tau), it puts
      (phi, h_T) -> h_S there.
    - Otherwise (some morphism fails the first test) one witness pass,
      ``_record_faq_counts``, walks the ordered pairs of each cube that
      passes it and records each count that differs from the cube count.
      Its pairs come in the order a scan of every pair would give, so it
      records the same witnesses, in the same order, as counting them all
      and then comparing.  A rank-0 cube has one object and so no pair.

    The proof path.  ``build_category`` puts (f, g) -> h in its table
    exactly when, with (sigma0, kappa0) f's first rep, g = [kappa0, tau2]
    and h = [sigma0, tau2] for some tau2 in star(kappa0).  No one can
    change that table, since it is read-only and no other name holds it.

    - Axiom 1.  A morphism's rank is the number of rays its reps' targets
      have beyond their sources, the same for every rep, so
      rank f + rank g = (|kappa0| - |sigma0|) + (|tau2| - |kappa0|)
      = rank h.
    - The first test.  Every entry is a factorization pair of its h,
      which starts at sigma0's block and ends at tau2's, and it is the
      cube object of h's rep (sigma0, tau2) at the middle kappa0; cube
      objects do not depend on the rep, so it is one of
      ``_cube_objects`` of h's first rep.  Conversely, let
      ([sigma, mu], [mu, tau]) be a cube object of h's first rep
      (sigma, tau), f = [sigma, mu] with first rep (sigma0, kappa0), and
      m the star matching star(sigma) -> star(sigma0).  Then
      [sigma0, m(mu)] = [sigma, mu] = f, and f has one rep starting at
      sigma0, so m(mu) = kappa0; as above, [mu, tau] = [kappa0, m(tau)]
      and h = [sigma0, m(tau)], which is the entry of f's row at
      tau2 = m(tau).  Table keys are distinct and middles never repeat,
      so the sorted cube objects are h's factorization pairs.
    - So every morphism passes the first test, axiom 2 holds, and by the
      proof above every Faq count is the cube count: axiom 3 holds.

    Axioms 4 and 5, on both paths, compare the first-factor and
    last-factor keys of ``_factor_keys``: the factors of f's singleton
    and co-singleton cube objects, the latter what ``last_factors``
    returns.  Each axiom records its witnesses in morphism order.
    """
    report = AxiomReport()
    ms = category.morphisms
    if category.compose_table is not category._built_table:
        factorizations = {}   # composite f -> its factorization pairs (g, h)
        for (fi, gi), hi in sorted(category.compose_table.items()):
            f, g, h = ms[fi], ms[gi], ms[hi]
            if f.rank + g.rank != h.rank:
                report.record(1, {"f": fi, "g": gi, "composite": hi})
            if f.source == h.source and g.target == h.target:
                factorizations.setdefault(hi, []).append((fi, gi))
        cubes = [_cube_objects(category.of_pair, *f.reps[0]) for f in ms]
        is_cube = [sorted(objects) == factorizations.get(f.index, [])
                   for f, objects in zip(ms, cubes)]
        every_cube = all(is_cube)
        for f, objects in zip(ms, cubes):
            if not is_cube[f.index]:
                report.record(2, {"morphism": f.index, "expected": 2 ** f.rank,
                                  "pairs": factorizations.get(f.index, [])})
            elif not every_cube:
                _record_faq_counts(report, category, factorizations, f, objects)

    by_first = {}
    by_last = {}
    for f, (fkey, lkey) in zip(ms, _factor_keys(category)):
        if f.rank == 0:
            continue
        if fkey in by_first:
            report.record(4, {"a": by_first[fkey], "b": f.index, "first": fkey})
        else:
            by_first[fkey] = f.index
        if lkey in by_last:
            report.record(5, {"a": by_last[lkey], "b": f.index, "last": lkey})
        else:
            by_last[lkey] = f.index
    return report


def _record_faq_counts(report, category, factorizations, f, objects):
    """Record each ordered pair of f's cube objects whose Faq count is not
    1 on an inclusion S_a < S_b and 0 elsewhere: a count above 1 under
    axiom 3, any other under axiom 2.  The pairs are walked in
    ``combinations`` order, (a, b) before (b, a).  Each count is read off
    g2's factorization pairs, as ``check_cubical`` proves.
    """
    ms = category.morphisms
    table = category.compose_table
    subsets = [set(S) for S in _cube_subsets(f.rank)]
    for i, j in combinations(range(len(objects)), 2):
        for a, b in ((i, j), (j, i)):
            (g1, h1), (g2, h2) = objects[a], objects[b]
            count = sum(g == g1 and ms[phi].source == ms[g1].target
                        and table.get((phi, h2)) == h1
                        for g, phi in factorizations.get(g2, ()))
            expected = int(subsets[a] <= subsets[b])
            if count != expected:
                report.record(3 if count > 1 else 2,
                              {"morphism": f.index, "from": objects[a],
                               "to": objects[b], "count": count,
                               "expected": expected})


def check_last_factor_compatibility(category):
    """Pairwise compatibility of last factors.

    For each object, any set of k >= 3 rank-1 morphisms into it that are
    pairwise the last factors of a rank-2 morphism must jointly be the
    last-factor set of a rank-k morphism.  Returns (True, None) or
    (False, offending set of morphism indices).  In ambient dimension 2
    this amounts to detecting any 3 pairwise-compatible rank-1 morphisms.

    Each morphism's last factors are its last-factor key in
    ``_factor_keys``, computed once per category off ``of_pair`` and the
    first reps.  No path reads ``compose_table``, so a built category and
    one whose table was replaced or built by hand are checked alike.
    """
    keys = _factor_keys(category)
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
            key = keys[m.index][1]
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
