import random

import pytest

import lattice_oracles
import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan import groups as G
from partfan import poset as poset_module
from partfan.category import build_category
from partfan.errors import (
    Degenerate,
    MissingWallAlgebraCertificate,
    NotAnInterval,
    NotComparable,
    NotRank2,
    PosetInvalid,
    PossibleIdentViolation,
)
from partfan.fan import build_fan
from partfan.partition import (
    Partition,
    admissible_closure,
    enumerate_admissible,
    from_blocks,
    potential_identifications,
)
from partfan.poset import (
    FanPoset,
    check_nondegenerate,
    poset_from_linear_functional,
    rank2_bisector_poset,
)
from strategies import A3_NORMALS, b_normals

TAU1, TAU2, TAU3, TAU4 = (0, 3), (0, 1), (1, 2), (2, 3)


# ---------------------------------------------------------------------------
# words

def test_free_reduce_and_render():
    w = G.free_reduce((("a", 1), ("b", 1), ("b", -1), ("a", 1)))
    assert w == (("a", 1), ("a", 1))
    assert G.render_word(w) == "a a"
    assert G.render_word(()) == "e"


def test_word_inverse():
    w = (("a", 1), ("b", -1))
    assert G.word_concat(w, G.word_inverse(w)) == ()


def test_equal_words_are_equal_before_any_rewrite_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("target or rewrite rules built for equal words")

    monkeypatch.setattr(G, "_rewrite_rules", refuse)
    monkeypatch.setattr(G, "word_concat", refuse)
    w = (("a", 1), ("b", -1), ("a", 1))
    assert G.words_equal(w, w, [(("a", 1), ("b", 1))])
    assert G.words_equal((), (), [])
    with pytest.raises(AssertionError):
        G.words_equal(w, (), [(("a", 1), ("b", 1))])


@pytest.fixture(scope="module")
def pictured():
    """name -> (fan, partition, poset) for the planar catalogue fans (their
    catalogue partitions, one poset each) and for A3 (flat partition, poset
    of regions from the all-positive chamber)."""
    square, hzb, lines = catalog.square(), catalog.hirzebruch(1), catalog.three_lines()
    arrangement = arrlib.Arrangement(3, A3_NORMALS)
    arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
    base = next(c for c in arrfan.fan.max_cones
                if arrfan.sign_of(c) == (1,) * len(A3_NORMALS))
    return {
        "square": (square, catalog.torus_partition(square),
                   poset_from_linear_functional(square, (1, 1))),
        "hirzebruch-a1": (hzb, catalog.hirzebruch_p1(hzb), rank2_bisector_poset(hzb, TAU1)),
        "three-lines": (lines, catalog.three_lines_partition(lines),
                        rank2_bisector_poset(lines, lines.chambers()[0])),
        "A3": (arrfan.fan, arrlib.flat_partition(arrangement, arrfan.fan),
               arrlib.poset_of_regions(arrfan, base)),
    }


PICTURED = ["A3", "hirzebruch-a1", "square", "three-lines"]


def random_word(rng, generators, length):
    return G.free_reduce(tuple((rng.choice(generators), rng.choice((1, -1)))
                               for _ in range(length)))


def conjugate_pairs(rng, presentation, count):
    """(u rot v, u v) for random words u, v and a random rotation rot of a
    relator or of its inverse: the quotient is u rot u^-1."""
    gens = presentation.generators
    for _ in range(count):
        rel = rng.choice(presentation.relators)
        base = rel if rng.random() < 0.5 else G.word_inverse(rel)
        k = rng.randrange(len(base))
        u, v = (random_word(rng, gens, rng.randrange(4)) for _ in range(2))
        yield G.word_concat(u, base[k:] + base[:k], v), G.word_concat(u, v)


def composition_pairs(fan, partition, poset):
    """(Psi(f) Psi(g), Psi(g o f)) for each entry of the composition table."""
    category = build_category(fan, partition)
    images = [G.psi(fan, partition, poset, m) for m in category.morphisms]
    return [(G.word_concat(images[f], images[g]), images[h])
            for (f, g), h in sorted(category.compose_table.items())]


@pytest.mark.parametrize("name", PICTURED)
def test_words_equal_matches_the_former_search(pictured, name):
    """Random conjugates on every full presentation.  On the planar ones
    also each composition pair of ``functor_check`` and random pairs of
    words of length at most 1; the former search expands up to 20 000
    words on each pair it cannot prove, too many for A3's 22 relators."""
    fan, partition, poset = pictured[name]
    pres = G.picture_group(fan, partition, poset)
    rng = random.Random(23)
    pairs = list(conjugate_pairs(rng, pres, 10))
    if name != "A3":
        pairs += composition_pairs(fan, partition, poset)
        pairs += [(random_word(rng, pres.generators, rng.randrange(2)),
                   random_word(rng, pres.generators, rng.randrange(2)))
                  for _ in range(4)]
    verdicts = [search_oracles.words_equal(a, b, pres.relators) for a, b in pairs]
    assert [G.words_equal(a, b, pres.relators) for a, b in pairs] == verdicts
    assert name == "A3" or not all(verdicts)


def cyclic_core(word):
    while len(word) > 1 and word[0] == (word[-1][0], -word[-1][1]):
        word = word[1:-1]
    return word


@pytest.mark.parametrize("name", PICTURED)
def test_conjugates_are_equal_before_any_rewrite_rule(pictured, name, monkeypatch):
    """Relator conjugates, and on the planar fans every composition pair,
    are proved equal with ``_rewrite_rules`` refusing to run.  A conjugate
    with one letter of its rotation inverted reaches the rules unless its
    cyclic core is still a rotation of a relator or of its inverse."""
    def refuse(*args):
        raise AssertionError("rewrite rules built for a relator conjugate")

    fan, partition, poset = pictured[name]
    pres = G.picture_group(fan, partition, poset)
    rotations = {base[k:] + base[:k] for rel in pres.relators
                 for base in (rel, G.word_inverse(rel)) for k in range(len(rel))}
    rng = random.Random(29)
    pairs = list(conjugate_pairs(rng, pres, 40))
    if name != "A3":
        pairs += composition_pairs(fan, partition, poset)
    monkeypatch.setattr(G, "_rewrite_rules", refuse)
    for a, b in pairs:
        assert G.words_equal(a, b, pres.relators)
        assert G.words_equal(b, a, pres.relators)
    settled = 0
    for _ in range(40):
        u = random_word(rng, pres.generators, rng.randrange(4))
        rot = list(rng.choice(sorted(rotations)))
        i = rng.randrange(len(rot))
        rot[i] = (rot[i][0], -rot[i][1])
        word = G.word_concat(u, tuple(rot), G.word_inverse(u))
        if word and cyclic_core(word) in rotations:
            settled += 1
            assert G.words_equal(word, (), pres.relators)
        else:
            with pytest.raises(AssertionError):
                G.words_equal(word, (), pres.relators)
    assert settled < 40


def test_generator_names_are_kept_per_fan():
    """The square and the Hirzebruch fan have the same cone tuples and
    different rays; each fan names its cones by its own rays."""
    from partfan import catalog

    square, hirzebruch = catalog.square(), catalog.hirzebruch(1)
    assert square.cones == hirzebruch.cones
    for fan in (square, hirzebruch, square):
        for cone in fan.cones[1:]:
            assert G.cone_symbol_body(fan, cone) == ";".join(
                ",".join(map(str, r)) for r in sorted(fan.ray_vectors(cone)))
    assert G.chamber_generator(square, TAU3) == "g[-1,0;0,-1]"
    assert G.chamber_generator(hirzebruch, TAU3) == "g[-1,1;0,-1]"


# ---------------------------------------------------------------------------
# picture groups

def test_picture_group_torus(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, torus_partition, poset, mode="full")
    assert len(pres.generators) == 2
    assert len(pres.relators) == 1
    (rel,) = pres.relators
    counts = {}
    for sym, exp in rel:
        counts[sym] = counts.get(sym, 0) + exp
    assert all(v == 0 for v in counts.values())  # commutator shape
    assert G.abelianization(pres) == (2, ())


def test_picture_group_finest(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, from_blocks(square_fan, []), poset)
    assert len(pres.generators) == 4
    assert len(pres.relators) == 1


def test_picture_group_bisector_single_relator(hzb_fan, p1_partition):
    poset = rank2_bisector_poset(hzb_fan, TAU1)
    pres = G.picture_group(hzb_fan, p1_partition, poset, mode="full")
    assert len(pres.relators) == 1


def test_chain_cap(square_fan, torus_partition, monkeypatch):
    from partfan.errors import ChainLimitExceeded

    monkeypatch.setattr(poset_module, "CHAIN_CAP", 1)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    with pytest.raises(ChainLimitExceeded):
        G.picture_group(square_fan, torus_partition, poset)


def test_picture_group_raise_stores_nothing(square_fan, torus_partition, monkeypatch):
    """A picture group that raises leaves no entry in the poset's memo, so
    the same poset computes it again once the chain cap allows."""
    from partfan.errors import ChainLimitExceeded

    poset = poset_from_linear_functional(square_fan, (1, 1))
    monkeypatch.setattr(poset_module, "CHAIN_CAP", 1)
    with pytest.raises(ChainLimitExceeded):
        G.picture_group(square_fan, torus_partition, poset)
    assert not any(key[0] is G.picture_group for key in poset._memo)
    monkeypatch.undo()
    fresh = G.picture_group(square_fan, torus_partition,
                            poset_from_linear_functional(square_fan, (1, 1)))
    assert G.picture_group(square_fan, torus_partition, poset).to_json() == fresh.to_json()


def test_picture_group_is_kept_on_the_poset(square_fan, torus_partition, monkeypatch):
    from partfan.errors import ChainLimitExceeded

    poset = poset_from_linear_functional(square_fan, (1, 1))
    full = G.picture_group(square_fan, torus_partition, poset)
    fresh = G.picture_group(square_fan, torus_partition,
                            poset_from_linear_functional(square_fan, (1, 1)))
    assert full.to_json() == fresh.to_json()
    codim2 = G.picture_group(square_fan, torus_partition, poset, mode="codim2")
    finest = G.picture_group(square_fan, from_blocks(square_fan, []), poset)
    assert G.picture_group(square_fan, torus_partition, poset) is full
    assert G.picture_group(square_fan, torus_partition, poset, mode="codim2") is codim2
    assert finest is not full
    # functor_check and the rank-2 certificate reuse it and list no chains
    cat = build_category(square_fan, torus_partition)
    monkeypatch.setattr(type(poset), "maximal_chains", None)
    assert G.functor_check(cat, poset)[0]
    assert G.rank2_faithfulness_certificate(cat, poset)[0]
    monkeypatch.undo()
    # the kept picture is not recomputed under a smaller chain cap; a
    # fresh poset lists its chains again and raises
    monkeypatch.setattr(poset_module, "CHAIN_CAP", 1)
    assert G.picture_group(square_fan, torus_partition, poset) is full
    with pytest.raises(ChainLimitExceeded):
        G.picture_group(square_fan, torus_partition,
                        poset_from_linear_functional(square_fan, (1, 1)))


def test_picture_group_invalid_poset(square_fan, torus_partition):
    covers = [(TAU1, TAU2, (0,)), (TAU3, TAU2, (1,)),
              (TAU3, TAU4, (2,)), (TAU4, TAU1, (3,))]
    poset = FanPoset(square_fan, covers)
    with pytest.raises(PosetInvalid):
        G.picture_group(square_fan, torus_partition, poset)


def test_codim2_equals_full_on_builtins(square_fan, torus_partition,
                                        hzb_fan, p1_partition):
    for fan, partition, b in ((square_fan, torus_partition, (1, 1)),
                              (hzb_fan, p1_partition, (1, 2))):
        poset = poset_from_linear_functional(fan, b)
        full = G.picture_group(fan, partition, poset, mode="full")
        codim2 = G.picture_group(fan, partition, poset, mode="codim2")
        assert full.generators == codim2.generators
        assert G.abelianization(full) == G.abelianization(codim2)


# ---------------------------------------------------------------------------
# alternate presentation

def test_alt_presentation_counts(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.alt_presentation(square_fan, torus_partition, poset)
    assert len(pres.generators) == 2 + 4
    assert len(pres.relators) == 4 + 1
    assert G.abelianization(pres) == (2, ())


def test_alt_presentation_single_cover():
    fan = build_fan(2, [(1, 0), (0, -1), (-1, 0), (0, 1)],
                    [(0, 3), (0, 1), (1, 2), (2, 3)])
    poset = poset_from_linear_functional(fan, (1, 1))
    pres = G.alt_presentation(fan, from_blocks(fan, []), poset)
    covers = [w for w in pres.relators if len(w) == 3]
    assert len(covers) == 4


def test_alt_presentation_degenerate_error(square_fan, torus_partition):
    covers = [(TAU2, TAU1, (0,)), (TAU3, TAU2, (1,)),
              (TAU4, TAU3, (2,)), (TAU4, TAU1, (3,))]
    poset = FanPoset(square_fan, covers)
    with pytest.raises(Degenerate):
        G.alt_presentation(square_fan, torus_partition, poset)


def test_alt_presentation_tietze_elimination(square_fan, torus_partition):
    """Eliminating the chamber generators recovers the direct presentation."""
    poset = poset_from_linear_functional(square_fan, (1, 1))
    alt = G.alt_presentation(square_fan, torus_partition, poset)
    direct = G.picture_group(square_fan, torus_partition, poset, mode="full")
    # solve g_lower = X g_upper from the base relator upward
    g_words = {}
    base = next(w for w in alt.relators if len(w) == 1)
    g_words[base[0][0]] = ()
    cover_rels = [w for w in alt.relators if len(w) == 3]
    changed = True
    while changed:
        changed = False
        for lower, upper, wall in [(w[0][0], w[1][0], w[2][0]) for w in cover_rels]:
            if upper in g_words and lower not in g_words:
                g_words[lower] = G.word_concat(((wall, 1),), g_words[upper])
                changed = True
            elif lower in g_words and upper not in g_words:
                g_words[upper] = G.word_concat(((wall, -1),), g_words[lower])
                changed = True
    derived = []
    for w in cover_rels:
        lower, upper, wall = w[0][0], w[1][0], w[2][0]
        rel = G.word_concat(g_words[lower], G.word_inverse(g_words[upper]),
                            ((wall, -1),))
        if rel:
            derived.append(rel)
    derived_pres = G.Presentation(direct.generators, derived)
    assert G.abelianization(derived_pres) == G.abelianization(direct)
    for rel in derived:
        assert G.words_equal(rel, (), direct.relators)
    for rel in direct.relators:
        assert G.words_equal(rel, (), derived_pres.relators)


# ---------------------------------------------------------------------------
# psi and functor checks

def test_psi_identity_empty(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    cat = build_category(square_fan, torus_partition)
    ident = cat.morphisms[cat.hom[0, 0][0]]
    assert G.psi(square_fan, torus_partition, poset, ident) == ()


def test_psi_wall_crossings(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    cat = build_category(square_fan, torus_partition)
    # sigma^- = kappa^-: empty word
    same = cat.morphism_of_pair((1,), (1, 2))
    assert G.psi(square_fan, torus_partition, poset, same) == ()
    # one wall between the two chambers
    step = cat.morphism_of_pair((1,), (0, 1))
    assert len(G.psi(square_fan, torus_partition, poset, step)) == 1
    # 0 -> maximum crosses one wall of each class
    top = cat.morphism_of_pair((), TAU1)
    word = G.psi(square_fan, torus_partition, poset, top)
    assert len(word) == 2
    assert len({sym for sym, _ in word}) == 2


def test_psi_word_length_is_chain_length(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    cat = build_category(square_fan, torus_partition)
    from partfan.poset import facial_interval

    for m in cat.morphisms:
        sigma, kappa = m.reps[0]
        lo_s, _ = facial_interval(square_fan, poset, sigma)
        lo_k, _ = facial_interval(square_fan, poset, kappa)
        word = G.psi(square_fan, torus_partition, poset, m)
        chains = poset.maximal_chains(lo_s, lo_k)
        assert len(word) == len(chains[0])
        assert word == G.chain_word(square_fan, torus_partition, chains[0])


def test_functor_check_builtins(square_fan, torus_partition, hzb_fan,
                                p1_partition):
    cat = build_category(square_fan, torus_partition)
    ok, failures = G.functor_check(cat, poset_from_linear_functional(
        square_fan, (1, 1)))
    assert ok, failures
    cat2 = build_category(hzb_fan, p1_partition)
    ok2, failures2 = G.functor_check(cat2, rank2_bisector_poset(hzb_fan, TAU1))
    assert ok2, failures2


def test_functor_check_reports_corruption(square_fan, torus_partition,
                                          monkeypatch):
    cat = build_category(square_fan, torus_partition)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    real_psi = G.psi
    target = cat.morphism_of_pair((), TAU1).index

    def corrupted(fan, partition, po, morphism):
        word = real_psi(fan, partition, po, morphism)
        if morphism.index == target:
            return word + word  # wrong image for one morphism
        return word

    monkeypatch.setattr(G, "psi", corrupted)
    ok, failures = G.functor_check(cat, poset)
    assert not ok
    assert any(f["composite"] == target for f in failures)


# ---------------------------------------------------------------------------
# quotients

def test_quotient_presentation_chain(hzb_fan, p1_partition):
    poset = rank2_bisector_poset(hzb_fan, TAU1)
    finest = from_blocks(hzb_fan, [])
    coarsest = potential_identifications(hzb_fan).partition
    base = G.picture_group(hzb_fan, finest, poset)
    direct = G.quotient_presentation(base, hzb_fan, finest, coarsest)
    added = set(direct.relators) - set(base.relators)
    assert added == {(("X[0,1]", 1), ("X[0,-1]", -1))}
    step1 = G.quotient_presentation(base, hzb_fan, finest, p1_partition)
    step2 = G.quotient_presentation(step1, hzb_fan, p1_partition, coarsest)
    assert sorted(step2.relators) == sorted(direct.relators)


def test_quotient_presentation_self_is_noop(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, torus_partition, poset)
    again = G.quotient_presentation(pres, square_fan, torus_partition,
                                    torus_partition)
    assert again.relators == pres.relators


def test_quotient_presentation_square(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    finest = from_blocks(square_fan, [])
    base = G.picture_group(square_fan, finest, poset)
    quot = G.quotient_presentation(base, square_fan, finest, torus_partition)
    added = sorted(set(quot.relators) - set(base.relators))
    assert len(added) == 2  # X_{sigma1}=X_{sigma3} and X_{sigma2}=X_{sigma4}


def test_quotient_not_comparable(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, torus_partition, poset)
    c = admissible_closure(square_fan, [((0,), (2,))])
    with pytest.raises(NotComparable):
        G.quotient_presentation(pres, square_fan, torus_partition, c)


# ---------------------------------------------------------------------------
# abelianization

def test_abelianization_examples():
    torus = G.Presentation(["a", "b"],
                           [(("a", 1), ("b", 1), ("a", -1), ("b", -1))])
    assert G.abelianization(torus) == (2, ())
    free3 = G.Presentation(["a", "b", "c"], [])
    assert G.abelianization(free3) == (3, ())
    z2 = G.Presentation(["x"], [(("x", 1), ("x", 1))])
    assert G.abelianization(z2) == (0, (2,))


def test_smith_normal_form_against_sympy(time_limit):
    """Small matrices first, then up to 8 x 8 with entries up to 40, where
    a corner-pivot elimination's coefficients grew past thousands of
    digits.  Each case must finish within 1 s."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(7)
    shapes = [(4, 6)] * 25 + [(9, bound) for bound in (3, 9, 40) for _ in range(70)]
    for size, bound in shapes:
        rows = rng.randrange(1, size)
        cols = rng.randrange(1, size)
        m = [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
             for _ in range(rows)]
        with time_limit(1):
            ours = [d for d in G.smith_normal_form(m) if d != 0]
        ref = smith_normal_form(Matrix(m))
        theirs = [abs(ref[i, i]) for i in range(min(rows, cols))
                  if ref[i, i] != 0]
        assert ours == theirs, (m, ours, theirs)


def test_lattice_routines_match_the_former_ones(time_limit):
    """The least-pivot Smith form, the abelianization over it and the
    Hopfian membership test agree with the corner-pivot Smith form and the
    Hermite reduction they replaced."""
    rng = random.Random(13)
    with time_limit(30):
        for _ in range(1000):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            diag = lattice_oracles.smith_normal_form(m)
            assert G.smith_normal_form(m) == diag, m
            gens = ["x%d" % j for j in range(cols)]
            pres = G.Presentation(gens, [[(g, 1 if e > 0 else -1)
                                          for g, e in zip(gens, row)
                                          for _ in range(abs(e))] for row in m])
            assert G.abelianization(pres) == \
                (cols - len(diag), tuple(d for d in diag if d > 1)), m
            if rng.random() < 0.5:
                coeffs = [rng.randrange(-3, 4) for _ in m]
                v = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)]
            else:
                v = [rng.randrange(-6, 7) for _ in range(cols)]
            assert G.row_lattice_member(m)(v) == lattice_oracles.in_row_lattice(v, m), (v, m)


def test_row_lattice_membership():
    rows = [[2, 0], [0, 3]]
    in_lattice = G.row_lattice_member(rows)
    assert in_lattice([2, 3])
    assert in_lattice([4, -3])
    assert not in_lattice([1, 0])
    assert in_lattice([0, 0])
    assert not G.row_lattice_member([])([1, 1])


def test_row_lattice_membership_fuzz():
    """Oracle: d is in the row lattice iff stacking d leaves the Smith
    diagonal unchanged (Hopfian argument for f.g. abelian quotients)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    def oracle(d, rows):
        if not any(d):
            return True
        base = smith_normal_form(Matrix(rows))
        stacked = smith_normal_form(Matrix(rows + [list(d)]))

        def diag(m):
            return sorted(abs(m[i, i]) for i in range(min(m.shape))
                          if m[i, i] != 0)

        return diag(base) == diag(stacked)

    rng = random.Random(11)
    for _ in range(40):
        cols = rng.randrange(1, 4)
        nrows = rng.randrange(1, 4)
        rows = [[rng.randrange(-5, 6) for _ in range(cols)]
                for _ in range(nrows)]
        if not any(any(r) for r in rows):
            continue
        if rng.random() < 0.5:
            coeffs = [rng.randrange(-3, 4) for _ in rows]
            d = [sum(c * r[j] for c, r in zip(coeffs, rows))
                 for j in range(cols)]
        else:
            d = [rng.randrange(-7, 8) for _ in range(cols)]
        assert G.row_lattice_member(rows)(d) == oracle(d, rows), (d, rows)


# ---------------------------------------------------------------------------
# certificates

def test_rank2_certificate_builtins(square_fan, torus_partition, hzb_fan,
                                    p1_partition, three_lines_fan,
                                    three_lines_partition):
    triples = [
        (square_fan, torus_partition, TAU1),
        (hzb_fan, p1_partition, TAU1),
        (three_lines_fan, three_lines_partition,
         three_lines_fan.chambers()[0]),
    ]
    for fan, partition, base in triples:
        cat = build_category(fan, partition)
        poset = rank2_bisector_poset(fan, base)
        ok, witness = G.rank2_faithfulness_certificate(cat, poset)
        assert ok, witness


def test_psi_is_computed_once_per_morphism(square_fan, torus_partition, monkeypatch):
    """``functor_check`` then ``rank2_faithfulness_certificate`` on one
    poset compute each Psi image once; the certificate reads the memo."""
    calls = []
    real = G._minima_chain_word

    def counted(*args):
        calls.append(args[3:])
        return real(*args)

    monkeypatch.setattr(G, "_minima_chain_word", counted)
    category = build_category(square_fan, torus_partition)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    assert G.functor_check(category, poset)[0]
    assert G.rank2_faithfulness_certificate(category, poset)[0]
    assert sorted(calls) == sorted(m.reps[0] for m in category.morphisms)
    assert G.functor_check(category, poset)[0]
    assert len(calls) == len(category.morphisms)
    assert all(G.psi(square_fan, torus_partition, poset, m)
               == real(square_fan, torus_partition, poset, *m.reps[0])
               for m in category.morphisms)


def test_nondegeneracy_is_decided_once_per_poset(square_fan, torus_partition,
                                                 monkeypatch):
    """``picture_group``, ``functor_check`` and the rank-2 certificate on one
    poset check the E-classes once and scan each member of each block once.
    A later call, with the partition or an equal one, reads the verdict: it
    checks no E-class, scans no member and matches no star.  A block across
    E-classes raises on every call and leaves no entry."""
    scans, checks = [], []
    real_scan = poset_module._cover_images
    real_check = poset_module._check_possible

    def scan(fan, poset, cone):
        scans.append(cone)
        return real_scan(fan, poset, cone)

    def check(fan, partition):
        checks.append(partition)
        return real_check(fan, partition)

    monkeypatch.setattr(poset_module, "_cover_images", scan)
    monkeypatch.setattr(poset_module, "_check_possible", check)
    category = build_category(square_fan, torus_partition)
    poset = rank2_bisector_poset(square_fan, TAU1)
    G.picture_group(square_fan, torus_partition, poset)
    assert G.functor_check(category, poset)[0]
    assert G.rank2_faithfulness_certificate(category, poset)[0]
    assert sorted(scans) == sorted(c for b in torus_partition.blocks for c in b)
    assert checks == [torus_partition]
    crossing = from_blocks(square_fan, [[(0,), (1,)]])
    for _ in range(2):
        with pytest.raises(PossibleIdentViolation):
            check_nondegenerate(square_fan, crossing, poset)
    assert checks == [torus_partition, crossing, crossing]
    assert [k for k in poset._memo if k[0] is check_nondegenerate] == \
        [(check_nondegenerate, square_fan, torus_partition)]

    def fail(*args):
        raise AssertionError("recomputed on a memo hit")

    for name in ("_check_possible", "_cover_images", "_star_matching"):
        monkeypatch.setattr(poset_module, name, fail)
    for partition in (torus_partition, Partition(square_fan, torus_partition.blocks)):
        assert check_nondegenerate(square_fan, partition, poset) == (True, None)


def test_rank2_certificate_requires_plane():
    fan = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    cat = build_category(fan, from_blocks(fan, []))
    with pytest.raises(NotRank2):
        G.rank2_faithfulness_certificate(cat, FanPoset(fan, []))


def test_hom_distinctness_requires_the_wall_algebra_certificate(square_fan,
                                                                torus_partition):
    cat = build_category(square_fan, torus_partition)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    for certificate in (G.hom_distinctness_certificate,
                        search_oracles.hom_distinctness_certificate):
        with pytest.raises(MissingWallAlgebraCertificate):
            certificate(cat, poset, False)


def hom_distinctness_outcome(certificate, category, poset):
    """The certificate's result, or ("NotAnInterval", witness) if it raises."""
    try:
        return certificate(category, poset, True)
    except NotAnInterval as err:
        return "NotAnInterval", err.witness


def hom_distinctness_corpus(square_fan, hzb_fan, three_lines_fan, brauer):
    """(category, poset) pairs: every admissible partition of the planar
    catalogue fans under the bisector poset of each chamber and two
    functional posets; the square's torus partition under the cover chain
    [0,1] < [1,2] < [2,3] < [0,3], where ray 0's star is no interval; and
    the A3, Brauer and B3 flat, shard and finest partitions under the
    poset of regions of each of four chambers."""
    cases = []
    for fan in (square_fan, hzb_fan, three_lines_fan):
        posets = [rank2_bisector_poset(fan, c) for c in fan.chambers()]
        posets += [poset_from_linear_functional(fan, b) for b in ((1, 2), (-3, 1))]
        cases += [(build_category(fan, p), poset)
                  for p in enumerate_admissible(fan) for poset in posets]
    chain = [((0, 1), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (0, 3))]
    cases.append((build_category(square_fan, catalog.torus_partition(square_fan)),
                  FanPoset(square_fan, [(lo, up, tuple(sorted(set(lo) & set(up))))
                                        for lo, up in chain])))
    for arrangement in (arrlib.Arrangement(3, A3_NORMALS), brauer.arrangement,
                        arrlib.Arrangement(3, b_normals(3))):
        arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
        fan = arrfan.fan
        base = next(c for c in fan.max_cones
                    if arrfan.sign_of(c) == (1,) * len(arrangement.normals))
        partitions = [arrlib.flat_partition(arrangement, fan),
                      arrlib.shard_partition(arrangement, arrfan, base),
                      from_blocks(fan, [])]
        posets = [arrlib.poset_of_regions(arrfan, c) for c in fan.chambers()[::7][:4]]
        cases += [(build_category(fan, p), poset) for p in partitions for poset in posets]
    return cases


def test_hom_distinctness_matches_the_minima_scan(square_fan, hzb_fan, three_lines_fan,
                                                  brauer):
    """The certificate, which proves that the interval minima never
    repeat, gives what the former scan of the minima gives: (True, None)
    on every pair, or the same NotAnInterval at the same cone."""
    outcomes = []
    for category, poset in hom_distinctness_corpus(square_fan, hzb_fan, three_lines_fan,
                                                   brauer):
        outcome = hom_distinctness_outcome(G.hom_distinctness_certificate, category, poset)
        assert outcome == hom_distinctness_outcome(
            search_oracles.hom_distinctness_certificate, category, poset)
        outcomes.append(outcome[0])
    assert outcomes.count(True) > 1000 and outcomes.count("NotAnInterval") > 0
    assert set(outcomes) == {True, "NotAnInterval"}


def test_type2_relators_are_consequences(square_fan, torus_partition):
    """Emit type-2 words explicitly; they add nothing to the abelianization."""
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, torus_partition, poset, mode="full")
    extra = G._type2_relators(square_fan, torus_partition, poset)
    enlarged = G.Presentation(pres.generators, list(pres.relators) + extra)
    assert G.abelianization(enlarged) == G.abelianization(pres)
    for rel in extra:
        assert G.words_equal(rel, (), pres.relators)


def test_type2_relators_on_a_degenerate_poset(three_lines_fan):
    """A facial but degenerate poset keeps its type-2 words, which here
    make X[1,0] trivial."""
    fan = three_lines_fan
    partition = from_blocks(fan, [[(0,), (3,)], [(0, 1), (3, 5)], [(0, 2), (3, 4)]])
    covers = [((0, 2), (0, 1)), ((1, 5), (0, 1)), ((2, 4), (0, 2)),
              ((3, 4), (2, 4)), ((3, 5), (1, 5)), ((3, 5), (3, 4))]
    poset = FanPoset(fan, [(lo, up, tuple(sorted(set(lo) & set(up))))
                           for lo, up in covers])
    assert not check_nondegenerate(fan, partition, poset)[0]
    assert G.picture_group(fan, partition, poset).to_text() == (
        "gens: X[-2,3] X[0,-1] X[0,1] X[1,0] X[2,-3] ; rels: "
        "X[-2,3] X[0,1] X[1,0]^-1 X[2,-3]^-1 X[0,-1]^-1 X[1,0]^-1; "
        "X[1,0]^-1; X[1,0]")


def test_presentation_formats(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pres = G.picture_group(square_fan, torus_partition, poset)
    text = pres.to_text()
    assert text.startswith("gens: ") and "; rels: " in text
    data = pres.to_json()
    again = G.presentation_from_json(data)
    assert again.generators == pres.generators
    assert again.relators == pres.relators
    gap = pres.to_gap()
    assert "FreeGroup" in gap and "rels :=" in gap


@pytest.mark.parametrize("letter", [["a", "1"], ["a", 2], ["a", 1.5], ["a", True],
                                    ["a", 0], [1, 1]])
def test_presentation_letters_are_a_generator_and_one_or_minus_one(letter):
    # ["a", 2] used to count as a^2 in the abelianization but print as a^-1
    with pytest.raises(ValueError, match="is not \\[generator, 1 or -1\\]"):
        G.presentation_from_json({"generators": ["a"], "relators": [[letter]]})


def test_an_unknown_picture_mode_is_refused(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    with pytest.raises(PosetInvalid) as err:
        G.picture_group(square_fan, torus_partition, poset, mode="x")
    assert err.value.witness == "x"
