"""Finitely presented picture groups of a partitioned fan poset.

Generators are named after the codimension-1 blocks.  Relations of the
first kind equate the label words of maximal chains of facial intervals;
relations of the second kind equate the words of identified morphisms and
are skipped when the poset is non-degenerate (they are then consequences).

Group-word equality is undecidable in general, so this module never
claims full word-problem answers.  ``words_equal`` tries three routes in
order: literal equality; the conjugate route, where the cyclically reduced
quotient of the two words is a rotation of a relator or of its inverse
(a rotation is a conjugate, so the quotient is u r^(+-1) u^-1 and trivial);
and a bounded relator-rewriting search.  Both the conjugate route and the
rewrite rules read the rotations of each relator and of its inverse from
one generator, ``_rotations``.  Inequality certificates use the
abelianization modulo the relator lattice.  Faithfulness claims are only
issued through the two certificate routes with an actual proof behind
them: the rank-2 bisector argument and the wall-algebra route for the
built-in rank-3 arrangement.
"""

from collections import deque
from itertools import combinations

from .category import build_category
from .errors import (
    Degenerate,
    MissingWallAlgebraCertificate,
    NotComparable,
    NotRank2,
    PosetInvalid,
)
from .fan import memo
from .partition import refines
from .poset import _facial_interval, check_nondegenerate


# ---------------------------------------------------------------------------
# words and presentations

def free_reduce(word):
    out = []
    for sym, exp in word:
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((sym, exp))
    return tuple(out)


def word_inverse(word):
    return tuple((sym, -exp) for sym, exp in reversed(word))


def word_concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return free_reduce(out)


def render_word(word):
    if not word:
        return "e"
    return " ".join(sym if exp == 1 else sym + "^-1" for sym, exp in word)


class Presentation:
    """Generators plus freely reduced relator words."""

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        genset = set(self.generators)
        reduced = []
        for w in relators:
            w = free_reduce(w)
            for sym, _ in w:
                if sym not in genset:
                    raise PosetInvalid("relator uses unknown generator", witness=sym)
            reduced.append(w)
        self.relators = tuple(reduced)

    def to_text(self):
        rels = "; ".join(render_word(w) for w in self.relators)
        return "gens: %s ; rels: %s" % (" ".join(self.generators), rels)

    def to_json(self):
        return {
            "generators": list(self.generators),
            "relators": [[[sym, exp] for sym, exp in w] for w in self.relators],
        }

    def to_gap(self):
        names = {g: "x%d" % (i + 1) for i, g in enumerate(self.generators)}
        lines = ["# generator key:"]
        for g in self.generators:
            lines.append("#   %s := %s" % (names[g], g))
        lines.append('F := FreeGroup(%s);;'
                     % ", ".join('"%s"' % names[g] for g in self.generators))
        lines.append("AssignGeneratorVariables(F);;")
        rel_terms = []
        for w in self.relators:
            if not w:
                continue
            rel_terms.append("*".join(
                names[sym] if exp == 1 else names[sym] + "^-1" for sym, exp in w))
        lines.append("rels := [%s];;" % ", ".join(rel_terms))
        lines.append("G := F / rels;")
        return "\n".join(lines) + "\n"


def presentation_from_json(data):
    """The presentation a ``to_json`` document describes.

    Each letter must be [generator, 1] or [generator, -1] with a string
    generator, ``generators`` a list of distinct strings, and every
    letter's generator one of them; anything else raises ValueError.  The
    checks run in that order.
    """
    relators = [tuple((sym, exp) for sym, exp in w) for w in data["relators"]]
    letters = [letter for w in relators for letter in w]
    for sym, exp in letters:
        if not isinstance(sym, str) or type(exp) is not int or exp not in (1, -1):
            raise ValueError("letter %r is not [generator, 1 or -1]" % [sym, exp])
    generators = data["generators"]
    if type(generators) is not list or not all(isinstance(g, str) for g in generators) \
            or len(set(generators)) != len(generators):
        raise ValueError("generators %r are not a list of distinct strings" % (generators,))
    for sym, exp in letters:
        if sym not in generators:
            raise ValueError("letter %r names no generator" % [sym, exp])
    return Presentation(generators, relators)


# ---------------------------------------------------------------------------
# generator naming

def cone_symbol_body(fan, cone):
    """The cone's sorted ray vectors as text, computed once per cone of the fan.

    partfan calls it with cones it took from the fan's own tables.
    """
    return memo(fan, (cone_symbol_body, cone), _symbol_body, fan, cone)


def _symbol_body(fan, cone):
    return ";".join(",".join(str(x) for x in r) for r in sorted(fan.ray_vectors(cone)))


def wall_generator(fan, partition, wall):
    """X-symbol of a codimension-1 block, named by its least member's rays."""
    block = partition.blocks[partition.block_of[wall]]
    return "X[%s]" % cone_symbol_body(fan, block[0])


def wall_generators(fan, partition):
    """The sorted X-symbols, one per codimension-1 block."""
    return sorted({wall_generator(fan, partition, wall) for wall in fan.walls()})


def chamber_generator(fan, chamber):
    return "g[%s]" % cone_symbol_body(fan, chamber)


# ---------------------------------------------------------------------------
# picture group

def chain_word(fan, partition, labels):
    return tuple((wall_generator(fan, partition, wall), 1) for wall in labels)


def picture_group(fan, partition, poset, mode="full"):
    """Presentation of G(fan, partition, poset).

    mode="full" emits chain relators for the facial interval of every cone;
    mode="codim2" only for codimension-2 cones, which suffices when the
    poset is a polygonal lattice (the caller asserts polygonality).
    Type-2 relators (identified-morphism words) are emitted only when the
    poset is degenerate.  The presentation is computed once per (fan,
    partition, mode) on the poset (``fan.memo``, key ``(picture_group,
    fan, partition, mode)``); a raise stores nothing.
    """
    if mode not in ("full", "codim2"):
        raise PosetInvalid("unknown picture-group mode", witness=mode)
    return memo(poset, (picture_group, fan, partition, mode),
                _picture_group, fan, partition, poset, mode)


def _picture_group(fan, partition, poset, mode):
    """The presentation ``picture_group`` keeps, computed afresh.

    A cone fails the facial-interval axiom exactly when ``poset.facial``
    gives it no lower end, which is when ``facial_interval`` would raise
    NotAnInterval with the witness list(cone).

    Every facial interval has a maximal chain, as its lower end is <= its
    upper end; a cone with one chain gives no relator, since ``chains[1:]``
    is empty.  Empty words, such as the type-2 words of a rank-0 morphism
    or of a morphism with one representative, are dropped here.
    """
    for cone in fan.cones:
        if poset.facial(cone) is None:
            raise PosetInvalid("facial-interval axiom fails", witness=list(cone))
    generators = wall_generators(fan, partition)
    relators = []
    if mode == "full":
        cones = fan.cones
    else:
        cones = fan.cones_of_dim(fan.dim - 2)
    for cone in cones:
        chains = poset.maximal_chains(*_facial_interval(poset, cone))
        reference = chain_word(fan, partition, chains[0])
        for other in chains[1:]:
            relators.append(word_concat(reference,
                                        word_inverse(chain_word(fan, partition, other))))
    nondeg, _ = check_nondegenerate(fan, partition, poset)
    if not nondeg:
        relators.extend(_type2_relators(fan, partition, poset))
    unique = sorted(set(w for w in relators if w))
    return Presentation(generators, unique)


def _type2_relators(fan, partition, poset):
    """The word of each morphism's first rep against each other rep's.

    A rank-0 morphism's reps (sigma, sigma) have the empty chain word, and
    a morphism with one rep gives no pair, so neither needs a guard; the
    empty words that come out are dropped by ``_picture_group``.
    """
    out = []
    for m in build_category(fan, partition).morphisms:
        words = [_minima_chain_word(fan, partition, poset, sigma, kappa)
                 for sigma, kappa in m.reps]
        out.extend(word_concat(words[0], word_inverse(w)) for w in words[1:])
    return out


def alt_presentation(fan, partition, poset):
    """Presentation with chamber generators g_tau and wall generators X.

    One relator g_lower * g_upper^-1 * X^-1 per labelled cover, plus the
    base relation setting g at the global minimum to the identity.
    Requires a non-degenerate poset.
    """
    nondeg, witness = check_nondegenerate(fan, partition, poset)
    if not nondeg:
        raise Degenerate("poset is degenerate on identified stars", witness=witness)
    bottom, _ = _facial_interval(poset, ())
    generators = wall_generators(fan, partition)
    chamber_syms = sorted(chamber_generator(fan, c) for c in fan.chambers())
    relators = []
    for lower, upper, wall in poset.covers:
        relators.append(free_reduce((
            (chamber_generator(fan, lower), 1),
            (chamber_generator(fan, upper), -1),
            (wall_generator(fan, partition, wall), -1),
        )))
    relators.append(((chamber_generator(fan, bottom), 1),))
    return Presentation(generators + chamber_syms, relators)


def psi(fan, partition, poset, morphism):
    """Psi([f_{sigma kappa}]) as the chain word from sigma^- up to kappa^-.

    (sigma, kappa) is the morphism's first representative, and the chain
    is the first maximal chain in sorted-cover order,
    ``poset.first_chain(sigma^-, kappa^-)``; any other chain gives a word
    equal to it up to the chain relators.  Identity morphisms map to the
    empty word.  No chain list is built, so no chain limit applies.  The
    image is computed once per (fan, partition) and first representative
    on the poset (``fan.memo``, key ``(psi, fan, partition, rep)``), where
    ``functor_check`` and ``rank2_faithfulness_certificate`` read it.
    """
    rep = morphism.reps[0]
    return memo(poset, (psi, fan, partition, rep),
                _minima_chain_word, fan, partition, poset, *rep)


def _minima_chain_word(fan, partition, poset, sigma, kappa):
    """The word of ``poset.first_chain(sigma^-, kappa^-)``, sigma^- the
    minimum of sigma's facial interval.

    The chain exists: sigma is a face of kappa, so star(kappa) lies in
    star(sigma), which ``_facial_interval`` has checked is the interval
    [sigma^-, sigma^+].  So kappa^- lies in it, and sigma^- <= kappa^-.
    """
    chain = poset.first_chain(_facial_interval(poset, sigma)[0],
                              _facial_interval(poset, kappa)[0])
    return chain_word(fan, partition, chain)


def words_equal(word_a, word_b, relators):
    """Bounded search for equality of two words modulo the relators.

    Three routes, in this order.  Literal: equal words are equal, and True
    is returned before any rewrite rule is built.  Conjugate: when the
    cyclic reduction of the target word_a word_b^-1 is a rotation of a
    relator r or of r^-1, the target is u r^(+-1) u^-1 (a rotation is a
    conjugate), so it is trivial; again no rewrite rule is built.
    Rewriting: a breadth-first search over free reduction plus replacing a
    subword s by t^-1 whenever s t is a cyclic rotation of a relator or its
    inverse.  Words stay within the target's length plus the longest
    relator's plus 2, and at most 20 000 words are expanded.  Returns True
    when a rewrite path to the empty word is found; False means no proof
    was found within these bounds, not a disproof.

    The conjugate route changes no verdict: the rules hold (rotation, ()),
    which deletes the core from u core u^-1, so the search would return
    True on its first expansion for every target that route settles.
    """
    if word_a == word_b:
        return True
    target = word_concat(word_a, word_inverse(word_b))
    if not target or _is_relator_conjugate(target, relators):
        return True
    rewrites = _rewrite_rules(relators)
    max_length = len(target) + max((len(r) for r in relators), default=0) + 2
    seen = {target}
    queue = deque([target])
    nodes = 0
    while queue and nodes < 20000:
        word = queue.popleft()
        nodes += 1
        for nxt in _neighbors(word, rewrites, max_length):
            if not nxt:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def _rotations(relators):
    """Every rotation of each relator and of its inverse, in relator order."""
    for rel in relators:
        for base in (rel, word_inverse(rel)):
            for rot in range(len(base)):
                yield base[rot:] + base[:rot]


def _is_relator_conjugate(word, relators):
    """Whether the cyclic reduction of a freely reduced word is a rotation
    of a relator or of its inverse."""
    i, j = 0, len(word) - 1
    while i < j and word[i][0] == word[j][0] and word[i][1] == -word[j][1]:
        i += 1
        j -= 1
    core = word[i:j + 1]
    return core in _rotations(r for r in relators if len(r) == len(core))


def _rewrite_rules(relators):
    """The rules (s, t^-1) for each cut s t of a rotation, sorted, s != t^-1.

    The cut at the end of each rotation gives the rule (rotation, ()),
    which the conjugate route of ``words_equal`` relies on.
    """
    rules = {(cyc[:cut], word_inverse(cyc[cut:]))
             for cyc in _rotations(relators) for cut in range(len(cyc) + 1)}
    return sorted((s, t) for s, t in rules if s != t)


def _neighbors(word, rewrites, max_length):
    """The words one rule application away from ``word``, within the bound.

    An empty s needs no case of its own: ``word[pos:pos]`` is empty at
    every position, so the loop inserts t at each of them.
    """
    for s, t in rewrites:
        k = len(s)
        for pos in range(len(word) - k + 1):
            if word[pos:pos + k] == s:
                out = free_reduce(word[:pos] + t + word[pos + k:])
                if len(out) <= max_length:
                    yield out


def functor_check(category, poset):
    """Verify Psi respects composition: Psi(g o f) ~ Psi(f) * Psi(g).

    Equality is witnessed by ``words_equal`` against the full picture
    presentation.  Psi images come from the poset's memo (see ``psi``).
    Entries are checked in table order (f, then g, ascending if built).
    Returns (True, []) or (False, failures).
    """
    fan = category.fan
    partition = category.partition
    pres = picture_group(fan, partition, poset, mode="full")
    images = [psi(fan, partition, poset, m) for m in category.morphisms]
    failures = []
    for (fi, gi), hi in category.compose_table.items():
        lhs = word_concat(images[fi], images[gi])
        rhs = images[hi]
        if not words_equal(lhs, rhs, pres.relators):
            failures.append({"f": fi, "g": gi, "composite": hi,
                             "lhs": render_word(lhs), "rhs": render_word(rhs)})
    return (not failures), failures


def quotient_presentation(base, fan, fine, coarse):
    """Extend a presentation of the fine group by coarsening relators.

    For each coarse block that merges several fine codimension-1 blocks,
    the generator of every non-least fine block is equated with the least
    one.  The base presentation's generators are kept, so quotient steps
    compose; composing along a chain of partitions yields the same relator
    multiset as the direct quotient.
    """
    if not refines(fine, coarse):
        raise NotComparable("fine partition does not refine the coarse one")
    new_relators = list(base.relators)
    for cblock in coarse.blocks:
        if len(cblock[0]) != fan.dim - 1:
            continue
        syms = sorted({wall_generator(fan, fine, c) for c in cblock})
        for other in syms[1:]:
            new_relators.append(free_reduce(((other, 1), (syms[0], -1))))
    return Presentation(base.generators, new_relators)


# ---------------------------------------------------------------------------
# abelianization / integer lattice tools

def smith_normal_form(matrix):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    return [abs(p) for _, p in _smith_reduce(matrix)[0]]


def _smith_reduce(matrix):
    """The Smith reduction of an integer matrix, with its column operations.

    Repeated rows are dropped first; they add nothing to the lattice.  Each
    step pivots on an entry p of least absolute value and reduces its row
    and column by p; a nonzero remainder is a smaller pivot, so the step
    repeats.  Once both are clear, a row with an entry that p does not
    divide is added to p's row, which again leaves a smaller remainder.
    Otherwise |p| is the next factor and p's row drops out, leaving p's
    column zero.  Every entry left is then a multiple of p, so the factors
    come out in divisibility order.

    Returns (pivots, column operations): each pivot as (column, p) in the
    order the factors come out, and each column operation as (k, j, q),
    column k minus q times column j, in the order applied.  Row operations
    keep the row lattice L; the column operations compose to a unimodular
    V with L V spanned by the pivot rows, each p times the unit vector of
    its column.  Later operations leave a finished pivot row unchanged,
    as its other entries are zero.
    """
    m = [list(row) for row in dict.fromkeys(map(tuple, matrix)) if any(row)]
    pivots = []
    column_ops = []
    while m:
        _, i, j = min((abs(a), i, j) for i, row in enumerate(m)
                      for j, a in enumerate(row) if a)
        pivot_row = m[i]
        p = pivot_row[j]
        for row in m:
            if row is not pivot_row and row[j]:
                q = row[j] // p
                row[:] = [a - q * b for a, b in zip(row, pivot_row)]
        for k, a in enumerate(pivot_row):
            if k != j and a:
                q = a // p
                column_ops.append((k, j, q))
                for row in m:
                    row[k] -= q * row[j]
        if any(pivot_row[:j] + pivot_row[j + 1:]) or \
                any(row[j] for row in m if row is not pivot_row):
            continue
        bad = next((row for row in m if any(a % p for a in row)), None)
        if bad is not None:
            pivot_row[:] = [a + b for a, b in zip(pivot_row, bad)]
            continue
        pivots.append((j, p))
        m = [row for row in m if row is not pivot_row and any(row)]
    return pivots, column_ops


def abelianization(presentation):
    """(free rank, nontrivial invariant factors) of the abelianized group."""
    gens = presentation.generators
    factors = smith_normal_form(_abelianized(w, gens) for w in presentation.relators)
    return len(gens) - len(factors), tuple(d for d in factors if d > 1)


def row_lattice_member(matrix):
    """The test whether an integer vector lies in the row lattice L of the matrix.

    L is reduced once, here, by ``_smith_reduce``; with V its column
    operations, v lies in L exactly when v V lies in L V, the lattice of
    the pivot rows: when each pivot's entry of v V is a multiple of p and
    every other entry is zero.  Each test applies the column operations
    to v in one pass.
    """
    pivots, column_ops = _smith_reduce(matrix)

    def member(vector):
        v = list(vector)
        for k, j, q in column_ops:
            v[k] -= q * v[j]
        for j, p in pivots:
            if v[j] % p:
                return False
            v[j] = 0
        return not any(v)

    return member


# ---------------------------------------------------------------------------
# faithfulness certificates

def _abelianized(word, generators):
    index = {g: i for i, g in enumerate(generators)}
    row = [0] * len(generators)
    for sym, exp in word:
        row[index[sym]] += exp
    return row


def rank2_faithfulness_certificate(category, poset):
    """Certify that Psi is injective on every hom-set of a rank-2 category.

    Follows the single-relator argument: two distinct parallel morphisms
    must already differ in the abelianization modulo the relator lattice.
    Returns (True, None) or (False, witness) when the separation fails.
    """
    fan = category.fan
    if fan.dim != 2:
        raise NotRank2("certificate applies to fans in the plane")
    partition = category.partition
    nondeg, witness = check_nondegenerate(fan, partition, poset)
    if not nondeg:
        raise Degenerate("certificate needs a non-degenerate poset", witness=witness)
    pres = picture_group(fan, partition, poset, mode="full")
    in_relator_lattice = row_lattice_member(
        _abelianized(w, pres.generators) for w in pres.relators)
    for (src, dst), indices in sorted(category.hom.items()):
        if len(indices) < 2:
            continue
        words = {i: psi(fan, partition, poset, category.morphisms[i])
                 for i in indices}
        for a, b in combinations(indices, 2):
            diff = [x - y for x, y in zip(_abelianized(words[a], pres.generators),
                                          _abelianized(words[b], pres.generators))]
            if in_relator_lattice(diff):
                return False, {"hom": [src, dst], "morphisms": [a, b],
                               "words": [render_word(words[a]),
                                         render_word(words[b])]}
    return True, None


def hom_distinctness_certificate(category, poset, wall_algebra_certified):
    """Faithfulness route for arrangement fans with distinct generators.

    Given the wall-algebra generator-distinctness certificate, it remains
    to check that distinct parallel morphisms from a common source
    representative have distinct interval minima kappa^-.  Returns
    (True, None) or (False, witness).

    Every morphism out of a block has a representative at each member
    sigma: ``build_category`` has checked admissibility, so the star
    matching of the block's first member onto sigma carries each
    representative there to one at sigma.  It lists exactly one rep per
    member, in block order, so the rep at member k is ``reps[k]``.
    """
    if not wall_algebra_certified:
        raise MissingWallAlgebraCertificate(
            "wall-algebra generator certificate must be supplied")
    fan = category.fan
    for (src, dst), indices in sorted(category.hom.items()):
        if len(indices) < 2:
            continue
        source_block = category.partition.blocks[src]
        for k, sigma in enumerate(source_block):
            minima = {}
            for i in indices:
                kappa = category.morphisms[i].reps[k][1]
                lo, _ = _facial_interval(poset, kappa)
                if lo in minima:
                    return False, {"hom": [src, dst],
                                   "morphisms": [minima[lo], i],
                                   "source": list(sigma)}
                minima[lo] = i
    return True, None
