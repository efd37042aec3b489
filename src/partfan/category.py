"""The category of a partitioned fan and its cubical structure.

Objects are the blocks of an admissible partition.  A morphism class is an
equivalence class of inclusion pairs (sigma, tau), sigma a face of tau,
where two pairs are identified exactly when the projections of the targets
along their sources coincide.  That canonical projected cone, together
with the source and target blocks, is a complete identity for the class.
On an admissible partition the morphisms out of a block are read off the
star of its first member, one per cone, and their reps at the other
members off the fan's inverse star maps (``build_category``).

The composition table is read-only and derives each row on first read;
``check_cubical`` proves axioms 1-4 for it unread and refuses any other
table.  Axiom 5 and the last-factor checks read one last-factor key per
morphism, computed on first use off ``of_pair``.
"""

from collections.abc import ItemsView, Mapping
from types import MappingProxyType

from .errors import NotAdmissible, NotAFace, NotComposable, PreconditionUnmet, RankZero
from .partition import is_admissible


class MorphClass:
    """One morphism of the category: a class of inclusion pairs."""

    __slots__ = ("index", "source", "target", "signature", "reps", "rank")

    def __init__(self, index, source, target, signature, reps, rank):
        # source and target are block ids, signature the canonical projected
        # cone, reps the sorted tuple of (sigma, tau) pairs
        self.index, self.source, self.target = index, source, target
        self.signature, self.reps, self.rank = signature, reps, rank

    def __repr__(self):
        return "MorphClass(%d: %d->%d, sig=%s)" % (
            self.index, self.source, self.target, self.signature)


class Category:
    def __init__(self, fan, partition, morphisms, hom, compose_table, of_pair):
        self.fan = fan
        self.partition = partition
        self.objects = tuple(range(len(partition.blocks)))
        self.morphisms = morphisms
        self.hom = hom                    # (source, target) -> tuple of indices
        self.compose_table = compose_table  # (f, g) -> index of g o f
        self.of_pair = of_pair            # (sigma, tau) -> morphism index
        # the table build_category made; None if hand-built
        self._built_table = None
        # filled by _factor_keys on first use
        self._factor_keys = None

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
            # built tables walk f, then g, ascending
            "composition": [[f, g, h] for (f, g), h in self.compose_table.items()],
        }


class _ComposeTable(Mapping):
    """(f, g) -> of_pair[sigma0, row(kappa0)[g]], (sigma0, kappa0) f's first
    rep and row(kappa) = {g: tau2} in g order, kept once derived.  Walked
    in f, then g, order."""

    def __init__(self, of_pair, firsts, stars):
        self._of_pair, self._firsts, self._stars, self._rows = of_pair, firsts, stars, {}
        self._len = sum(len(stars[kappa]) for _, kappa in firsts)

    def _row(self, kappa):
        if kappa not in self._rows:
            self._rows[kappa] = dict(sorted(
                (self._of_pair[kappa, tau2], tau2) for tau2 in self._stars[kappa]))
        return self._rows[kappa]

    def __getitem__(self, key):
        hash(key)  # an unhashable key raises TypeError
        fs = range(len(self._firsts))
        if isinstance(key, tuple) and len(key) == 2 and key[0] in fs:
            sigma, kappa = self._firsts[fs.index(key[0])]
            row = self._row(kappa)
            if key[1] in row:
                return self._of_pair[sigma, row[key[1]]]
        raise KeyError(key)

    def __iter__(self):
        return (key for key, _ in self.items())

    def __len__(self):
        return self._len

    def items(self):
        return _ComposeItems(self)


class _ComposeItems(ItemsView):
    def __iter__(self):
        table = self._mapping
        for f, (sigma, kappa) in enumerate(table._firsts):
            for g, tau2 in table._row(kappa).items():
                yield (f, g), table._of_pair[sigma, tau2]


def build_category(fan, partition):
    """Build objects, morphism classes and the composition table.

    Raises NotAdmissible when the partition fails the admissibility check.
    On an admissible partition composition is well defined, and each
    composite is read off one representative chain.

    The morphisms out of a block B are read off the star of its first
    member s0: one morphism per tau in star(s0), listed by (block of tau,
    signature), whose rep at each other member s is
    (s, inverse_s[signature]), inverse_s the fan's
    ``_project_star_inverse(s)``.  These are the former grouping's
    morphisms (``tests/search_oracles.build_category``): every pair
    (sigma, tau) grouped by the key (block of sigma, block of tau,
    signature), the keys sorted and each group's reps sorted.  Proof.
    ``is_admissible`` has put B in one E-class, so each member s has the
    projected star of s0, and projection is injective on every star (the
    precondition of ``potential_identifications``, which it checks first).
    So the star matching m_s: star(s0) -> star(s) sends tau to
    inverse_s[signature of tau], and admissibility puts the two in one
    block.  A pair (s, t) out of B thus has t = m_s(tau) for the one tau
    in star(s0) with t's signature, and the key of tau: the keys out of B
    are those of the tau in star(s0), distinct as their signatures are,
    and each has exactly one rep at each member.  The blocks come in
    order, and B's morphisms in (target, signature) order, so the indices
    are the sorted keys' positions, and ``hom`` and ``of_pair``, the union
    of the reps, are the grouping's.  Members of a block have one span, so
    one length, and the blocks are sorted by (length, first member): the
    identity (tau = s0) comes first out of B, as every other tau in
    star(s0) has more rays and so lies in a later block, and each block is
    in tuple order, so the reps, listed in block order, are sorted, and
    ``reps[k]`` is the rep at member k.  So the identity of block b is
    ``hom[b, b][0]``: every other morphism from b to b has a target tau
    outside b.

    Each g has at most one rep (kappa, tau2) starting at a cone kappa:
    distinct cones of star(kappa) have distinct signatures (consequence 4
    of ``potential_identifications``, which ``is_admissible`` reaches
    first).  Each pair (kappa, tau2) with tau2 in star(kappa) is the rep
    of exactly one g, so star(kappa) lists, once each, the g that start
    at kappa's block.  For each f, the composites are read off its first
    representative (sigma0, kappa0): g o f = [sigma0, tau2] for each
    tau2 in star(kappa0), g = [kappa0, tau2].  Every other rep
    (sigma, kappa) of f gives the same row, so this is the class of every
    representative chain.  Proof: the matching
    m: star(sigma0) -> star(sigma) preserves faces and sends kappa0 to
    kappa, so it sends g's rep (kappa0, tau2) to (kappa, m(tau2)), with
    the same signature; by admissibility tau2 ~ m(tau2), so
    (kappa, m(tau2)) is g's rep at kappa, and [sigma0, tau2] =
    [sigma, m(tau2)] as both have one signature.  The g starting at
    kappa0 are distinct, so kappa0's out-row (g, tau2), sorted once, is in
    g order for every f whose first rep ends at kappa0.  So the table
    keeps only ``of_pair``, the first reps and the stars, and derives each
    out-row on first read.
    """
    ok, witness = is_admissible(fan, partition)
    if not ok:
        raise NotAdmissible("partition is not admissible",
                            witness=[list(c) for c in witness])
    block_of = partition.block_of
    morphisms, of_pair, hom = [], {}, {}
    for source, block in enumerate(partition.blocks):
        s0 = block[0]
        members = [(s, fan._project_star_inverse(s)) for s in block[1:]]
        for idx, (target, signature, tau) in enumerate(sorted(
                (block_of[tau], signature, tau)
                for tau, signature in fan._project_star_map(s0).items()), len(morphisms)):
            reps = ((s0, tau), *[(s, inverse[signature]) for s, inverse in members])
            morphisms.append(MorphClass(idx, source, target, signature, reps,
                                        len(tau) - len(s0)))
            for rep in reps:
                of_pair[rep] = idx
            hom.setdefault((source, target), []).append(idx)
    hom = {k: tuple(v) for k, v in hom.items()}
    table = _ComposeTable(of_pair, tuple(m.reps[0] for m in morphisms), fan._stars)
    category = Category(fan, partition, tuple(morphisms), hom, table,
                        MappingProxyType(of_pair))
    category._built_table = table
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
    return tuple(category.morphisms[i] for i in _factor_keys(category)[f.index])


def _factor_keys(category):
    """Per morphism index, its last-factor key, computed on first use and
    kept on the category.

    For f with first rep (sigma, tau): the last factors [tau - {v}, tau],
    one for each ray v of tau outside sigma, read off ``of_pair`` with
    tau - {v} the slice of tau without v, sorted without repeats.  These
    are the factors of f's cube objects at the co-singletons (see
    ``check_cubical``).  The key is () at rank 0, and (f,) at rank 1,
    where tau - {v} is sigma.
    """
    if category._factor_keys is None:
        of_pair = category.of_pair
        category._factor_keys = [
            tuple(sorted({of_pair[tau[:i] + tau[i + 1:], tau]
                          for i, v in enumerate(tau) if v not in sigma}))
            for sigma, tau in (f.reps[0] for f in category.morphisms)]
    return category._factor_keys


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
    """Verify the five cubical axioms on a category ``build_category`` made:
    axioms 1-4 by proof, axiom 5 by its last-factor keys.

    1. rank additivity over the composition table;
    2. Faq(f) is isomorphic to the subset poset of {1..rank f};
    3. the middle-object functor Faq(f) -> C is injective on objects and
       faithful (at most one morphism between factorization objects);
    4. morphisms of equal rank >= 1 are determined by their first factors;
    5. likewise by their last factors.

    Axioms 1-4 hold by the proofs below, which are about the category
    ``build_category`` made, so no entry is read.  Nothing changes that
    table: it has no setter and reads only its own first reps (so not an
    edited ``MorphClass``), the fan's fixed stars and ``of_pair``, which
    the category shows read-only.  Any other ``compose_table``, replaced
    or hand-built, is not proved, so it is refused with PreconditionUnmet.

    The table.  It holds (f, g) -> h exactly when, with (sigma0, kappa0)
    f's first rep, g = [kappa0, tau2] and h = [sigma0, tau2] for some
    tau2 in star(kappa0).  A factorization pair of h is an entry
    (f, g) -> h with f starting at h's source block and g ending at h's
    target block.

    The cube.  For a rep (sigma, tau) of a morphism of rank k, let
    v_1..v_k be tau's rays outside sigma and, for S a subset of {1..k},
    m_S the middle cone{sigma, {v_i : i in S}}.  The cube object at S is
    (g_S, h_S) = ([sigma, m_S], [m_S, tau]).

    - Axiom 1.  A morphism's rank is the number of rays its reps' targets
      have beyond their sources, the same for every rep, so
      rank f + rank g = (|kappa0| - |sigma0|) + (|tau2| - |kappa0|)
      = rank h.
    - Cube objects do not depend on the rep.  Let (sigma', tau') be
      another rep of the morphism and m the star matching
      star(sigma) -> star(sigma').  It preserves faces and sends tau to
      tau' (one signature, and projection is injective on a star), so it
      sends each middle mu to a middle m(mu) between sigma' and tau', and
      onto them.  As in ``build_category``, [sigma, mu] = [sigma', m(mu)]
      and [mu, tau] = [m(mu), tau'], by admissibility and the restriction
      of m to star(mu).  So every rep gives the same set of cube objects.
    - Middles never repeat: distinct S give middles in distinct blocks.
      Distinct subsets S pick distinct ray sets of the simplicial cone
      tau, so the faces m_S have distinct spans.  Cones of one E-class
      share a span (the proof in ``partition._ident_key``), and
      ``build_category`` refuses a block that crosses E-classes (through
      ``is_admissible`` and ``partition._check_possible``).  So the cube
      has 2^k distinct objects, and the middle-object functor is injective
      on objects.
    - The first test: the factorization pairs of h are its cube objects.
      Every entry (f, g) -> h is a factorization pair of h, which starts
      at sigma0's block and ends at tau2's, and it is the cube object of
      h's rep (sigma0, tau2) at the middle kappa0, so by the point above a
      cube object of every rep of h.  Conversely, let
      ([sigma, mu], [mu, tau]) be a cube object of a rep (sigma, tau) of
      h, f = [sigma, mu] with first rep (sigma0, kappa0), and m the star
      matching star(sigma) -> star(sigma0).  Then
      [sigma0, m(mu)] = [sigma, mu] = f, and f has one rep starting at
      sigma0, so m(mu) = kappa0; as above, [mu, tau] = [kappa0, m(tau)]
      and h = [sigma0, m(tau)], which is the entry of f's row at
      tau2 = m(tau).
    - Axioms 2 and 3.  So Faq(h) has the 2^k objects (g_S, h_S).  A
      Faq-morphism (g1, h1) -> (g2, h2) is a phi from g1's target to g2's
      target with phi o g1 = g2 and h2 o phi = h1.  At most one phi, and
      only for S <= T: a phi from (g_S, h_S) to (g_T, h_T) makes
      (g_S, phi) a factorization pair of g_T, and (sigma, m_T) is a rep of
      g_T, so by the first test (g_S, phi) = ([sigma, m_U], [m_U, m_T])
      for some U <= T.  Then g_S = g_U, so the middles at S and U share a
      block, and as middles never repeat, U = S and phi = [m_S, m_T].  At
      least one phi for S <= T: phi = [m_S, m_T] runs between the two
      middles.  The first test on g_T, from its rep (sigma, m_T), puts
      (g_S, phi) -> g_T in the table; on h_S, from its rep (m_S, tau), it
      puts (phi, h_T) -> h_S there.  So every Faq count is 1 on S <= T and
      0 elsewhere: Faq(h) is the subset poset, and the middle-object
      functor is faithful.

    - Axiom 4.  Let f != f' be morphisms of equal rank k >= 1 with equal
      first-factor sets.  A rank-1 morphism is its own first factor, so
      k >= 2.  Let B be f's source block and s0 its first member, so that
      (s0, tau) is f's first rep.  Each first factor [s0, s0 u {v}], v a
      ray of tau outside s0, starts at B and has the signature (r,), r the
      projection of v along s0 and so a ray of f's signature; the
      morphisms out of B are those of the cones of star(s0), one per
      signature (``build_category``), so (B, (r,)) names one rank-1
      morphism.  Every first factor starts at its morphism's source
      block, so equal first factors force f' out of B too, and then equal
      sets of rays r, which are the rays of the two signatures.  Both
      signatures are sorted, so they are equal, and B has one morphism
      per signature: f = f', a contradiction.  The former scan of the
      first-factor keys is kept in ``tests/search_oracles.check_cubical``.

    Axiom 5 compares the last-factor keys of ``_factor_keys``: the
    factors of f's cube objects at the co-singletons, what
    ``last_factors`` returns.  It records its witnesses in morphism
    order; ``AxiomReport`` keeps a slot per axiom, as the oracle reports
    all five.
    """
    if category.compose_table is not category._built_table:
        raise PreconditionUnmet("axioms 1-3 are proved only for the table "
                                "build_category made",
                                witness={"built": category._built_table is not None})
    report = AxiomReport()
    by_last = {}
    for f, key in zip(category.morphisms, _factor_keys(category)):
        if f.rank == 0:
            continue
        if key in by_last:
            report.record(5, {"a": by_last[key], "b": f.index, "last": key})
        else:
            by_last[key] = f.index
    return report


def check_last_factor_compatibility(category):
    """Pairwise compatibility of last factors.

    For each object, any set of k >= 3 rank-1 morphisms into it that are
    pairwise the last factors of a rank-2 morphism must jointly be the
    last-factor set of a rank-k morphism.  Returns (True, None) or
    (False, offending set of morphism indices).  In ambient dimension 2
    this amounts to detecting any 3 pairwise-compatible rank-1 morphisms.

    The last factors are read off ``_factor_keys``, not the table, so a
    table ``check_cubical`` refuses is checked here like a built one.
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
        realized = {keys[m.index] for m in incoming if m.rank >= 2}
        edges = {keys[m.index] for m in incoming if m.rank == 2}
        neighbors = {v: set() for v in rank1}
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        for clique in _cliques_of_size_3_up(rank1, neighbors):
            if clique not in realized:
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
        if m.rank == 1:
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
