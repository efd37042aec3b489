"""Finitely presented picture groups of a partitioned fan poset.

Generators are named after the codimension-1 blocks.  Relations of the
first kind equate the label words of maximal chains of facial intervals;
relations of the second kind equate the words of identified morphisms and
are skipped when the poset is non-degenerate (they are then consequences).

Group-word equality is undecidable in general, so this module never
claims full word-problem answers.  Equality uses free reduction plus a
bounded relator-rewriting search; inequality certificates use the
abelianization modulo the relator lattice.  Faithfulness claims are only
issued through the two certificate routes with an actual proof behind
them: the rank-2 bisector argument and the wall-algebra route for the
built-in rank-3 arrangement.
"""

from collections import deque
from itertools import combinations

from .errors import (
    Degenerate,
    IntervalBroken,
    MissingWallAlgebraCertificate,
    NotAnInterval,
    NotComparable,
    NotRank2,
    PosetInvalid,
)
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
    generator; any other letter raises ValueError.
    """
    relators = [tuple((sym, exp) for sym, exp in w) for w in data["relators"]]
    for sym, exp in (letter for w in relators for letter in w):
        if not isinstance(sym, str) or type(exp) is not int or exp not in (1, -1):
            raise ValueError("letter %r is not [generator, 1 or -1]" % [sym, exp])
    return Presentation(data["generators"], relators)


# ---------------------------------------------------------------------------
# generator naming

def cone_symbol_body(fan, cone):
    rays = sorted(fan.ray_vectors(cone))
    return ";".join(",".join(str(x) for x in r) for r in rays)


def wall_generator(fan, partition, wall):
    """X-symbol of a codimension-1 block, named by its least member's rays."""
    block = partition.block(wall)
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


def picture_group(fan, partition, poset, mode="full", chain_cap=10 ** 6):
    """Presentation of G(fan, partition, poset).

    mode="full" emits chain relators for the facial interval of every cone;
    mode="codim2" only for codimension-2 cones, which suffices when the
    poset is a polygonal lattice (the caller asserts polygonality).
    Type-2 relators (identified-morphism words) are emitted only when the
    poset is degenerate.  The presentation is computed once per (fan,
    partition, mode, chain_cap) and kept on the poset.
    """
    if mode not in ("full", "codim2"):
        raise PosetInvalid("unknown picture-group mode", witness=mode)
    key = (fan, partition, mode, chain_cap)
    if key not in poset._pictures:
        poset._pictures[key] = _picture_group(fan, partition, poset, mode, chain_cap)
    return poset._pictures[key]


def _picture_group(fan, partition, poset, mode, chain_cap):
    for cone in fan.cones:
        try:
            _facial_interval(poset, cone)
        except NotAnInterval as err:
            raise PosetInvalid("facial-interval axiom fails",
                               witness=err.witness) from err
    generators = wall_generators(fan, partition)
    relators = []
    if mode == "full":
        cones = fan.cones
    else:
        cones = fan.cones_of_dim(fan.dim - 2)
    for cone in cones:
        fi = _facial_interval(poset, cone)
        chains = poset.maximal_chains(fi.lower, fi.upper, cap=chain_cap)
        if len(chains) <= 1:
            continue
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
    from .category import build_category

    category = build_category(fan, partition)
    out = []
    for m in category.morphisms:
        if m.rank == 0 or len(m.reps) < 2:
            continue
        words = []
        for sigma, kappa in m.reps:
            lo_s = _facial_interval(poset, sigma).lower
            lo_k = _facial_interval(poset, kappa).lower
            chain = poset.first_chain(lo_s, lo_k)
            if chain is None:
                raise IntervalBroken("no chain between interval minima",
                                     witness=[list(sigma), list(kappa)])
            words.append(chain_word(fan, partition, chain))
        for w in words[1:]:
            rel = word_concat(words[0], word_inverse(w))
            if rel:
                out.append(rel)
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
    fi0 = _facial_interval(poset, ())
    generators = wall_generators(fan, partition)
    chamber_syms = sorted(chamber_generator(fan, c) for c in fan.chambers())
    relators = []
    for lower, upper, wall in poset.covers:
        relators.append(free_reduce((
            (chamber_generator(fan, lower), 1),
            (chamber_generator(fan, upper), -1),
            (wall_generator(fan, partition, wall), -1),
        )))
    relators.append(((chamber_generator(fan, fi0.lower), 1),))
    return Presentation(generators + chamber_syms, relators)


def psi(fan, partition, poset, morphism):
    """Psi([f_{sigma kappa}]) as the chain word from sigma^- up to kappa^-.

    (sigma, kappa) is the morphism's first representative, and the chain
    is the first maximal chain in sorted-cover order,
    ``poset.first_chain(sigma^-, kappa^-)``; any other chain gives a word
    equal to it up to the chain relators.  Identity morphisms map to the
    empty word.  No chain list is built, so no chain limit applies.
    """
    sigma, kappa = morphism.reps[0]
    lo_s = _facial_interval(poset, sigma).lower
    lo_k = _facial_interval(poset, kappa).lower
    chain = poset.first_chain(lo_s, lo_k)
    if chain is None:
        raise IntervalBroken("interval minima are not comparable",
                             witness=[list(sigma), list(kappa)])
    return chain_word(fan, partition, chain)


def words_equal(word_a, word_b, relators):
    """Bounded search for equality of two words modulo the relators.

    Breadth-first rewriting: free reduction plus replacing a subword s by
    t^-1 whenever s t is a cyclic rotation of a relator or its inverse.
    Words stay within the target's length plus the longest relator's plus
    2, and at most 20 000 words are expanded.  Returns True when a rewrite
    path to the empty word is found; False means no proof was found within
    these bounds, not a disproof.
    """
    target = word_concat(word_a, word_inverse(word_b))
    if not target:
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


def _rewrite_rules(relators):
    rules = []
    for rel in relators:
        for base in (rel, word_inverse(rel)):
            n = len(base)
            for rot in range(n):
                cyc = base[rot:] + base[:rot]
                for cut in range(n + 1):
                    s, t = cyc[:cut], cyc[cut:]
                    rules.append((s, word_inverse(t)))
    dedup = sorted(set((s, t) for s, t in rules if s != t))
    return dedup


def _neighbors(word, rewrites, max_length):
    for s, t in rewrites:
        k = len(s)
        if k == 0:
            for pos in range(len(word) + 1):
                out = free_reduce(word[:pos] + t + word[pos:])
                if len(out) <= max_length:
                    yield out
            continue
        for pos in range(len(word) - k + 1):
            if word[pos:pos + k] == s:
                out = free_reduce(word[:pos] + t + word[pos + k:])
                if len(out) <= max_length:
                    yield out


def functor_check(category, poset):
    """Verify Psi respects composition: Psi(g o f) ~ Psi(f) * Psi(g).

    Equality is witnessed by bounded relator rewriting against the full
    picture presentation.  Psi is computed once per morphism.  Returns
    (True, []) or (False, failures).
    """
    fan = category.fan
    partition = category.partition
    pres = picture_group(fan, partition, poset, mode="full")
    images = [psi(fan, partition, poset, m) for m in category.morphisms]
    failures = []
    for (fi, gi), hi in sorted(category.compose_table.items()):
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
    from .partition import refines

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
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Repeated rows are dropped first; they add nothing to the lattice.  Each
    step pivots on an entry p of least absolute value and reduces its row
    and column by p; a nonzero remainder is a smaller pivot, so the step
    repeats.  Once both are clear, a row with an entry that p does not
    divide is added to p's row, which again leaves a smaller remainder.
    Otherwise |p| is the next factor and p's row drops out, leaving p's
    column zero.  Every entry left is then a multiple of p, so the factors
    come out in divisibility order.
    """
    m = [list(row) for row in dict.fromkeys(map(tuple, matrix)) if any(row)]
    factors = []
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
                for row in m:
                    row[k] -= q * row[j]
        if any(pivot_row[:j] + pivot_row[j + 1:]) or \
                any(row[j] for row in m if row is not pivot_row):
            continue
        bad = next((row for row in m if any(a % p for a in row)), None)
        if bad is not None:
            pivot_row[:] = [a + b for a, b in zip(pivot_row, bad)]
            continue
        factors.append(abs(p))
        m = [row for row in m if row is not pivot_row and any(row)]
    return factors


def abelianization(presentation):
    """(free rank, nontrivial invariant factors) of the abelianized group."""
    gens = presentation.generators
    factors = smith_normal_form(_abelianized(w, gens) for w in presentation.relators)
    return len(gens) - len(factors), tuple(d for d in factors if d > 1)


def row_lattice_member(matrix):
    """The test whether an integer vector lies in the row lattice L of the matrix.

    Z^n/L maps onto Z^n/(L + Zv), and finitely generated abelian groups
    are Hopfian, so v lies in L exactly when the two quotients are
    isomorphic: when L and L + Zv have the same invariant factors.  L's
    factors are computed once, here; each test computes those of L + Zv.
    """
    rows = list(matrix)
    factors = smith_normal_form(rows)
    return lambda vector: smith_normal_form(rows + [vector]) == factors


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
    """
    if not wall_algebra_certified:
        raise MissingWallAlgebraCertificate(
            "wall-algebra generator certificate must be supplied")
    fan = category.fan
    for (src, dst), indices in sorted(category.hom.items()):
        if len(indices) < 2:
            continue
        source_block = category.partition.blocks[src]
        for sigma in source_block:
            minima = {}
            for i in indices:
                kappa = next((t for s, t in category.morphisms[i].reps
                              if s == sigma), None)
                if kappa is None:
                    # admissibility guarantees a representative per source
                    raise IntervalBroken("morphism lacks a representative at a "
                                         "source member", witness=list(sigma))
                lo = _facial_interval(poset, kappa).lower
                if lo in minima:
                    return False, {"hom": [src, dst],
                                   "morphisms": [minima[lo], i],
                                   "source": list(sigma)}
                minima[lo] = i
    return True, None
