import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from melonclass import families as fam
from melonclass import graphalg as ga
from melonclass import melonic as mel
from melonclass import poly as pl
from melonclass.poly import (ONE, S_PLUS_1, S_PLUS_2, ZERO, IntPoly,
                             eval_int, mul)

from canonical import normalize, to_tree
from conftest import construction
from stage_relation import P, class_by_stages, class_by_stages_mod_p


def test_validate_good():
    c = construction(((3,), 0, 1), ((2, 2, 2), 1, 1))
    assert mel.validate(c) == []


def violations(*stages) -> list[str]:
    """The violations the constructor reports for an invalid construction."""
    prefix = "invalid melonic construction: "
    with pytest.raises(ValueError, match=f"^{prefix}") as exc:
        construction(*stages)
    return str(exc.value).removeprefix(prefix).split("; ")


def test_validate_root_stage():
    assert violations(((3,), 1, 1)) == \
        ["stage 1: must replace the root edge (parent_stage 0)"]
    msgs = violations(((3,), 0, 2))
    assert msgs == ["stage 1: parent_banana must be 1"]


def test_validate_shapes():
    msgs = violations(((), 0, 1))
    assert "stage 1: banana tuple is empty" in msgs
    msgs = violations(((0, 2), 0, 1))
    assert "stage 1: banana sizes must be positive" in msgs
    assert violations() == ["construction has no stages"]


def test_validate_parent_references():
    msgs = violations(((2,), 0, 1), ((2, 2), 2, 1))
    assert msgs == ["stage 2: parent_stage 2 not in 1..1"]
    msgs = violations(((2,), 0, 1), ((2, 2), 1, 3))
    assert msgs == ["stage 2: parent_banana 3 out of range for stage 1"]
    msgs = violations(((2,), 0, 1), ((2, 2), 1, 9))
    assert msgs == ["stage 2: parent_banana 9 out of range for stage 1"]
    assert violations(((2,), 1, 1)) == \
        ["stage 1: must replace the root edge (parent_stage 0)"]


def test_validate_capacity():
    msgs = violations(((2,), 0, 1), ((2, 2), 1, 1), ((2, 2), 1, 1),
                      ((2, 2), 1, 1))
    assert msgs == ["banana 1 of stage 1 has 2 edges but is replaced by "
                    "3 later stages"]


def test_validate_integer_types():
    # a bool, float or string is rejected, never read as the integer it
    # equals; only the first stage that holds one is reported
    message = ("bananas must be a list of integers, parent_stage and "
               "parent_banana integers")
    for bad in (True, 2.0, "2"):
        assert violations(((bad, 2), 0, 1), ((2, 2), "1", 1)) == \
            [f"stage 1: {message}"]
        assert violations(((3,), 0, 1), ((2, 2), 1, 1), ((2, 2), bad, 1)) \
            == [f"stage 3: {message}"]
        assert violations(((3, 3), 0, 1), ((2, 2), 1, bad)) == \
            [f"stage 2: {message}"]
    # read as integers, this would be a valid 3-banana
    assert violations(((3,), False, True)) == [f"stage 1: {message}"]
    # nor is a list of sizes converted to a tuple
    with pytest.raises(ValueError, match=f"stage 1: {message}"):
        mel.MelonicConstruction((mel.Stage([2], 0, 1),))
    # nor a plain tuple to a Stage, nor a non-iterable to stages
    with pytest.raises(ValueError, match=f"stage 1: {message}"):
        mel.MelonicConstruction((((2,), 0, 1),))
    with pytest.raises(ValueError, match="stages must be a sequence of Stage"):
        mel.MelonicConstruction(5)


def test_is_reduced():
    assert mel.is_reduced(construction(((3,), 0, 1), ((2, 2), 1, 1)))
    assert not mel.is_reduced(construction(((1,), 0, 1), ((2, 2), 1, 1)))
    # replacing inside a size-1 entry of a later stage
    c = construction(((2,), 0, 1), ((1, 2), 1, 1), ((3, 3), 2, 1))
    assert not mel.is_reduced(c)


def test_normalize_splices_into_parent():
    c = construction(((1,), 0, 1), ((2, 3), 1, 1))
    n = normalize(c)
    assert n == construction(((2, 3), 0, 1))
    assert mel.is_reduced(n)
    assert normalize(n) == n


def test_normalize_repoints_children():
    # stage 3 targets the spliced stage 2; stage 4 targets a later slot
    # of stage 1 and must shift
    c = construction(((2, 1, 2), 0, 1), ((3, 4), 1, 2), ((2, 2), 2, 2),
                     ((5, 5), 1, 3))
    n = normalize(c)
    assert n == construction(((2, 3, 4, 2), 0, 1), ((2, 2), 1, 3),
                             ((5, 5), 1, 4))
    assert mel.validate(n) == []
    assert mel.is_reduced(n)


def test_normalize_preserves_class_and_size():
    cases = [
        construction(((1,), 0, 1), ((2, 3), 1, 1)),
        construction(((2, 1), 0, 1), ((2, 2), 1, 2), ((3, 3), 2, 1)),
        construction(((1,), 0, 1), ((1, 1, 2), 1, 1), ((2, 2), 2, 3)),
    ]
    for c in cases:
        n = normalize(c)
        assert mel.is_reduced(n)
        assert c.num_edges() == n.num_edges()
        assert mel.class_of(c) == mel.class_of(n)
        g0, g1 = mel.to_graph(c), mel.to_graph(n)
        assert len(g0.edges) == len(g1.edges)
        assert g0.num_vertices == g1.num_vertices


def test_normalize_merges_single_banana_stages():
    # a later single-banana stage only widens its parent slot
    widened = construction(((2,), 0, 1), ((3,), 1, 1))
    banana = construction(((4,), 0, 1))
    assert not mel.is_reduced(widened)
    assert normalize(widened) == normalize(banana) == banana
    assert mel.class_of(widened) == mel.class_of(banana)
    # its children move into the widened slot
    c = construction(((2, 2), 0, 1), ((3,), 1, 1), ((2, 2), 2, 1))
    n = normalize(c)
    assert n == construction(((4, 2), 0, 1), ((2, 2), 1, 1))
    assert mel.class_of(n) == mel.class_of(c)


def _random_construction(rng: random.Random, max_edges: int,
                         grow: float = 0.8) -> mel.MelonicConstruction:
    """A valid construction with at most max_edges edges whose stages
    target random free slots, size-1 bananas included.  Each further
    stage is drawn with probability grow; with grow = 1, stages are added
    until the next one would pass max_edges."""
    def bananas() -> tuple[int, ...]:
        return tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))

    first = bananas()
    while sum(first) > max_edges:
        first = bananas()
    stages = [mel.Stage(first, 0, 1)]
    used: dict[tuple[int, int], int] = {}
    edges = sum(first)
    while rng.random() < grow:
        tup = bananas()
        free = [(i, j) for i, st in enumerate(stages, start=1)
                for j, a in enumerate(st.bananas, start=1)
                if used.get((i, j), 0) < a]
        if edges + sum(tup) - 1 > max_edges:
            break
        slot = rng.choice(free)
        used[slot] = used.get(slot, 0) + 1
        stages.append(mel.Stage(tup, *slot))
        edges += sum(tup) - 1
    return mel.MelonicConstruction(tuple(stages))


def test_random_constructions_class_and_normal_form(rng):
    unreduced = 0
    for _ in range(300):
        c = _random_construction(rng, 8)
        assert mel.validate(c) == []
        unreduced += not mel.is_reduced(c)
        cls = mel.class_of(c)
        g = mel.to_graph(c)
        for q in (2, 3):
            assert ga.count_complement_points(g, q) == \
                cls.eval_at_field_size(q), (c, q)
        n = normalize(c)
        assert mel.is_reduced(n)
        assert mel.validate(n) == []
        assert n.num_edges() == c.num_edges()
        assert normalize(n) == n
        assert mel.class_of(n) == cls
    assert unreduced >= 60


def test_is_reduced_means_normalize_removes_no_stage(rng):
    # is_reduced checks the two rewrites of the canonical form directly;
    # both answers must be common, so that neither side passes alone
    draws, unreduced = 12000, 0
    for i in range(draws):
        c = _random_construction(rng, 30, grow=(0.5, 0.8, 0.95)[i % 3])
        reduced = mel.is_reduced(c)
        assert reduced == (len(normalize(c).stages) == len(c.stages)), c
        unreduced += not reduced
    assert draws // 4 <= unreduced <= draws * 3 // 4


def test_normalize_deep_chain():
    # deeper than the interpreter's recursion limit
    links = [((2, 2), i, 1) for i in range(1, 1500)]
    c = construction(((2,), 0, 1), *links)
    assert normalize(c) == c
    # on a lone root edge the first link is spliced into stage 1
    unreduced = construction(((1,), 0, 1), *links)
    assert normalize(unreduced) == \
        construction(((2, 2), 0, 1), *links[:-1])


def test_normalize_equal_deep_siblings():
    # two equal 400-stage chains on one banana: sorting them compares the
    # two subtrees, which must not recurse down both chains
    first = [((2, 2), 1 if i == 0 else i + 1, 1) for i in range(400)]
    second = [((2, 2), 1 if i == 0 else i + 401, 1) for i in range(400)]
    c = construction(((2,), 0, 1), *first, *second)
    normal = normalize(c)
    assert len(normal.stages) == 801
    assert normal == c


def test_normalize_unequal_deep_siblings():
    # two 400-stage chains on one banana that differ only in their last
    # stage: siblings are sorted by their ranks among the nodes of their
    # depth, so no comparison walks down both chains
    def chain(start, last):
        return [((2, 2) if i < 399 else last, 1 if i == 0 else start + i, 1)
                for i in range(400)]

    c = construction(((2,), 0, 1), *chain(1, (2, 2)), *chain(401, (2, 3)))
    swapped = construction(((2,), 0, 1), *chain(1, (2, 3)),
                           *chain(401, (2, 2)))
    assert normalize(c) == normalize(swapped) == c


def test_normalize_long_splice_chain():
    # each link sits on the lone edge of the one before, so all of them
    # splice into stage 1; copying the tuple at every level would make
    # this quadratic in the chain length
    n = 20000
    c = construction(*(((1, 2), i, 1) for i in range(n)))
    start = time.perf_counter()
    normal = normalize(c)
    assert time.perf_counter() - start < 3
    assert normal == construction(((1,) + (2,) * n, 0, 1))


def test_to_graph_banana():
    g = mel.to_graph(construction(((4,), 0, 1)))
    assert g.num_vertices == 2
    assert g.edges == ((0, 1),) * 4


def test_to_graph_triangle():
    g = mel.to_graph(construction(((2,), 0, 1), ((1, 1), 1, 1)))
    assert g.num_vertices == 3
    assert sorted(tuple(sorted(e)) for e in g.edges) == \
        [(0, 1), (0, 2), (1, 2)]


def test_to_graph_edge_count_matches():
    for t, _ in mel.enumerate_constructions(6):
        c = mel.linearize(t)
        g = mel.to_graph(c)
        assert len(g.edges) == c.num_edges()


def test_class_of_single_banana_rows():
    # both rings of class_of, ints up to poly.INT_FOLD_EDGES edges and
    # polynomials past it, against the paper's families
    for m in [*range(1, 13), 199, 200, 201, 260]:
        got = mel.class_of(construction(((m,), 0, 1)))
        assert got.poly == fam.b_poly(m), m


def test_class_of_string_of_bananas():
    got = mel.class_of(construction(((2, 3, 2), 0, 1)))
    expected = mul(mul(fam.b_poly(2), fam.b_poly(3)),
                   fam.b_poly(2))
    assert got.poly == expected


def test_class_of_matches_necklace_families():
    for m in range(1, 6):
        for n in range(2, 6):
            tup = (m,) * (n - 1)
            c = construction(((m + 1,), 0, 1), (tup, 1, 1))
            assert mel.class_of(c).poly == fam.necklace_class(m, n).poly
            tup = (1,) + (m,) * (n - 2)
            c = construction(((m + 1,), 0, 1), (tup, 1, 1))
            assert mel.class_of(c).poly == \
                fam.clasped_necklace_class(m, n).poly


def test_class_invariant_under_banana_order():
    # permuting the bananas inside one stage relabels the graph only
    base = None
    for perm in itertools.permutations((1, 2, 3)):
        c = construction(((2,), 0, 1), (perm, 1, 1))
        got = mel.class_of(c).poly
        if base is None:
            base = got
        assert got == base


def test_class_of_unreduced_input():
    c = construction(((1,), 0, 1), ((2, 2), 1, 1))
    n = normalize(c)
    assert mel.class_of(c) == mel.class_of(n)


def test_classes_match_the_stage_relation():
    # class_of and the enumerated classes against the paper's relation
    # applied stage by stage, on every construction with <= 8 edges
    checked = 0
    for t, cls in mel.enumerate_constructions(8):
        c = mel.linearize(t)
        assert cls == mel.class_of(c) == class_by_stages(c), mel.serialize(c)
        checked += 1
    assert checked == 3096


def test_class_of_unreduced_input_matches_the_stage_relation(rng):
    unreduced = 0
    for _ in range(300):
        c = _random_construction(rng, 12)
        unreduced += not mel.is_reduced(c)
        assert mel.class_of(c) == class_by_stages(c), c
    assert unreduced >= 60


def test_deep_classes_match_the_stage_relation_mod_p(rng):
    # the stage relation over ints mod P at a random s, past the 8 edges
    # that the polynomial reference covers: 20 draws of 96-100 edges and
    # 5 of 157-160; a wrong class passes with probability at most 160 / P
    # a draw.  The draws are normalized: unreduced ones splice long
    # strings into their parents, where the relation is exponential
    for max_edges, draws in ((100, 20), (160, 5)):
        for _ in range(draws):
            c = normalize(_random_construction(rng, max_edges, grow=1))
            assert max_edges - 8 <= c.num_edges() <= max_edges
            s = rng.randrange(P)
            assert class_by_stages_mod_p(c, s) == (
                eval_int(mel.class_of(c).poly, s) % P), mel.serialize(c)


def test_class_of_same_on_ints_and_on_polynomials(rng, monkeypatch):
    # up to poly.INT_FOLD_EDGES edges class_of folds on the values at s = 2^k,
    # past it on polynomials; both rings give every class
    cs = [_random_construction(rng, 30) for _ in range(100)]
    cs += [construction(((m + 1,), 0, 1), ((m,) * (n - 1), 1, 1))
           for m in (1, 4, 9) for n in (2, 5, 11)]
    cs += [construction(((2,), 0, 1), *(((2, 2), i, 1) for i in range(1, 33)))]
    # the hardest inputs near the threshold: the widest banana, long plain
    # and clasped necklaces, and the longest (2, 2) chain within it
    top = pl.INT_FOLD_EDGES
    cs += [construction(((top,), 0, 1)),
           construction(((3,), 0, 1), ((2,) * (top // 2 - 1), 1, 1)),
           construction(((11,), 0, 1), ((1,) + (10,) * 18, 1, 1)),
           construction(((2,), 0, 1),
                        *(((2, 2), i, 1) for i in range(1, (top - 2) // 3 + 1)))]
    assert [c.num_edges() for c in cs[-4:]] == [top, top, 191, top]
    assert max(c.num_edges() for c in cs) == top
    # shapes the fold reads as they are, each next to its normal form: a
    # chain of strings spliced into 1-bananas, a single-banana stage that
    # widens its slot and carries children, and a 2-banana replaced by
    # two strings, which leaves it no leaf
    raw = [construction(((1, 2), 0, 1),
                        *(((1, 2), i, 1) for i in range(1, 60))),
           construction(((3, 2), 0, 1), ((4,), 1, 1), ((2, 1), 2, 1),
                        ((1, 3), 2, 1), ((2, 2), 1, 1)),
           construction(((2,), 0, 1), ((1, 2), 1, 1), ((3, 1), 1, 1))]
    assert [len(c.stages) for c in raw] == [60, 5, 3]
    assert [mel.is_reduced(c) for c in raw] == [False, False, True]
    cs += raw + [normalize(c) for c in raw]
    on_ints = [mel.class_of(c) for c in cs]
    assert on_ints[-6:-3] == on_ints[-3:]
    monkeypatch.setattr(pl, "INT_FOLD_EDGES", 0)
    assert [mel.class_of(c) for c in cs] == on_ints


def test_classes_fit_the_int_ring():
    # the int fold reads a class back from its value at s = 2^k, which is
    # exact when every coefficient is in [0, 3^E]: nonnegative, summing
    # to the class at s = 1, the points of F_3^E off the hypersurface.  k
    # is the least whole number of bytes above that bound, and poly.ring
    # gives the ring of that k
    def check(cls, edges):
        k = pl.int_ring_bits(edges)
        assert pl.ring(edges)[1] == (1 << k) + 2
        assert k % 8 == 0 and k - 8 <= (3 ** edges).bit_length() < k
        assert min(cls.poly) >= 0
        assert sum(cls.poly) <= 3 ** edges < 1 << (k - 1)

    checked = 0
    for t, cls in mel.enumerate_constructions(8):
        check(cls, mel.linearize(t).num_edges())
        checked += 1
    assert checked == 3096
    for m in range(1, 13):
        for n in range(2, 13):
            check(fam.necklace_class(m, n), m * n)
            check(fam.clasped_necklace_class(m, n), m * (n - 1) + 1)


EDGE = (ONE, ZERO, ZERO)


def _power(p, k):
    return functools.reduce(mul, [p] * k, ONE)


def test_edges_in_parallel_give_the_banana_triples():
    # the parallel rule alone, from single edges: a edges are the a-banana,
    # one edge at a time or two halves at a time (the leaves of class_of)
    t = EDGE
    leaf = mel._bananas(ONE, S_PLUS_2)
    for a in range(2, 301):
        triple = (fam.f_poly(a), fam.g_poly(a), fam.h_poly(a))
        if a <= 200:
            t = mel.parallel(t, EDGE)
            assert t == triple, a
        assert leaf(a) == triple, a
    assert leaf(1) == EDGE and leaf(0) == (ZERO, ZERO, ONE)


def test_bananas_in_series():
    # in the coordinates (b, g, h), k a-bananas in series give
    # (b_a^k, g_a^k, k h_a b_a^(k-1))
    for a in range(1, 7):
        t = (fam.f_poly(a), fam.g_poly(a), fam.h_poly(a))
        chain = t
        for k in range(2, 7):
            chain = mel.series(chain, t)
            assert mel.class_b(chain) == _power(fam.b_poly(a), k), (a, k)
            assert chain[1] == _power(fam.g_poly(a), k), (a, k)
            assert chain[2] == k * mul(fam.h_poly(a),
                                       _power(fam.b_poly(a), k - 1)), (a, k)


def _phi(t):
    """The involution (f, g, h) -> (f, h - f, g + f) of triples."""
    f, g, h = t
    return f, h - f, g + f


def test_phi_carries_series_onto_parallel(rng):
    # phi is an involution that swaps the identity (0, 1, 0) of series
    # with the identity (0, 0, 1) of parallel and conjugates one rule into
    # the other; the class of phi(t) is the closing rule (s+1) f + h of t.
    # Checked on polynomials and on the int ring, where s + 2 is 2^k + 2
    def poly():
        return IntPoly(rng.randint(-9, 9) for _ in range(rng.randint(0, 6)))

    k, s2 = pl.int_ring_bits(9), pl.ring(9)[1]
    rings = [(poly, S_PLUS_2, S_PLUS_1, ZERO, ONE),
             (lambda: rng.randrange(-1 << 2 * k, 1 << 2 * k), s2, s2 - 1,
              0, 1)]
    for draw, s2, s1, zero, one in rings:
        assert _phi((zero, one, zero)) == (zero, zero, one)
        assert _phi((zero, zero, one)) == (zero, one, zero)
        for _ in range(500):
            t1 = draw(), draw(), draw()
            t2 = draw(), draw(), draw()
            assert _phi(_phi(t1)) == t1
            assert mel.parallel(t1, t2, s2) == \
                _phi(mel.series(_phi(t1), _phi(t2), s2)), (t1, t2)
            assert mel.class_b(_phi(t1), s2) == s1 * t1[0] + t1[2], t1


def test_enumerate_counts():
    counts = [len(list(mel.enumerate_constructions(n)))
              for n in range(1, 8)]
    assert counts == [1, 3, 8, 23, 71, 238, 840]


def test_enumerate_max_edges_two():
    got = {mel.serialize(mel.linearize(t))
           for t, _ in mel.enumerate_constructions(2)}
    assert got == {"[[[1],0,1]]", "[[[2],0,1]]", "[[[1,1],0,1]]"}


def test_enumerate_all_valid_reduced_canonical():
    # 7 edges is the first bound where a cheaper subtree sorts after a
    # dearer sibling, e.g. (1, 2) after (1, 1, 1, 1) on one banana
    seen = set()
    for t, _ in mel.enumerate_constructions(8):
        c = mel.linearize(t)
        assert mel.validate(c) == []
        assert mel.is_reduced(c)
        assert c.num_edges() <= 8
        assert normalize(c) == c
        key = mel.serialize(c)
        assert key not in seen
        seen.add(key)


def test_enumerate_order_is_pinned():
    # tests sample the enumeration with islice, so its order is part of
    # its contract, not only its set; at 10 edges the option lists
    # cleared after each root size are built again for the later ones
    for max_edges, count, digest in (
            (8, 3096, "45b50f11e6a82faf40fd2dcf241fa4c0"
                      "b2f5748172c30c71efa8563c9022f35f"),
            (9, 11756, "f052b6dd2e339e28922e23241ce7ca70"
                       "ab0ebfc1ea721dad9b6df06c7d5bf848"),
            (10, 45714, "46d8d3d676d6f299dbf6d852fa5e2d7a"
                        "d7b7af8d23dadec39d020a928bd11ae9")):
        text = "".join(mel.serialize(mel.linearize(t)) + "\n"
                       for t, _ in mel.enumerate_constructions(max_edges))
        assert text.count("\n") == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_enumerated_classes_at_eleven_edges():
    # a sample past the 8 edges the other tests cover, where slots take
    # their children from option lists cut to a smaller budget
    checked = 0
    for t, cls in itertools.islice(mel.enumerate_constructions(11),
                                   0, None, 1009):
        assert mel.class_of(mel.linearize(t)) == cls, t
        checked += 1
    assert checked == 180


def closure_classes(max_edges: int) -> set:
    """The class of every two-terminal series-parallel network with at
    most max_edges edges, from single edges by `series` and `parallel`
    alone, in the ring of `enumerate_constructions(max_edges)`."""
    lift, s2, read = pl.ring(max_edges)
    layers = [set(), {mel._bananas(lift(ONE), s2)(1)}]
    for n in range(2, max_edges + 1):
        layers.append({join(x, y, s2) for i in range(1, n // 2 + 1)
                       for x in layers[i] for y in layers[n - i]
                       for join in (mel.series, mel.parallel)})
    return {read(mel.class_b(t, s2))
            for layer in layers for t in layer}


def test_enumerated_classes_are_the_series_parallel_closure():
    # an independent route to the set of classes: every melonic graph is
    # a series-parallel network on the ends of its root edge, and back
    for max_edges in range(1, 11):
        assert closure_classes(max_edges) == {
            cls for _, cls in mel.enumerate_constructions(max_edges)}


def test_enumerated_trees_round_trip_and_share_their_classes():
    # each tree is the canonical tree of its construction with that
    # construction's class, and within one call equal classes are one
    # object: as many objects as distinct classes
    pairs = list(mel.enumerate_constructions(8))
    for t, cls in pairs:
        c = mel.linearize(t)
        assert to_tree(c) == t, t
        assert mel.class_of(c) == cls, t
    assert len(pairs) == 3096
    assert len({id(cls) for _, cls in pairs}) == len(
        {cls for _, cls in pairs})


def test_enumerations_are_independent():
    # each call keeps its own catalog, option lists and int ring, so two
    # enumerations advanced in turn yield what each yields alone
    alone = [list(mel.enumerate_constructions(n)) for n in (8, 9)]
    turns = itertools.zip_longest(mel.enumerate_constructions(8),
                                  mel.enumerate_constructions(9))
    together = [[p for p in seq if p is not None] for seq in zip(*turns)]
    assert together == alone


def test_enumeration_same_on_ints_and_on_polynomials(monkeypatch):
    # enumeration builds its triples in the ring of poly.ring: ints by
    # default, polynomials with the threshold at 0; both give the same
    # trees in the same order, and the same classes
    on_ints = list(mel.enumerate_constructions(8))
    assert all(isinstance(t[0], int) for t in mel._class_memo.values())
    monkeypatch.setattr(pl, "INT_FOLD_EDGES", 0)
    assert list(mel.enumerate_constructions(8)) == on_ints
    assert all(isinstance(t[0], IntPoly) for t in mel._class_memo.values())


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(mel.enumerate_constructions(0))


def test_canonical_sorts_siblings():
    a = construction(((3, 3), 0, 1), ((2, 2), 1, 1), ((1, 1), 1, 2))
    b = construction(((3, 3), 0, 1), ((1, 1), 1, 2), ((2, 2), 1, 1))
    assert normalize(a) == normalize(b)
    assert mel.class_of(a).poly == mel.class_of(b).poly


def test_serialize_round_trip():
    c = construction(((2, 1), 0, 1), ((4, 5), 1, 1))
    assert mel.deserialize(mel.serialize(c)) == c


def test_json_round_trip():
    c = construction(((3,), 0, 1), ((2, 2, 2), 1, 1))
    data = mel.to_json_dict(c)
    assert data == {"stages": [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1},
        {"bananas": [2, 2, 2], "parent_stage": 1, "parent_banana": 1}]}
    assert mel.from_json_dict(json.loads(json.dumps(data))) == c


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        mel.from_json_dict([1, 2, 3])
    with pytest.raises(ValueError):
        mel.from_json_dict({"stages": "nope"})
    with pytest.raises(ValueError):
        mel.from_json_dict({"stages": [{"bananas": [2]}]})
    # a key the shape does not have is named, not ignored
    stage = {"bananas": [2], "parent_stage": 0, "parent_banana": 1}
    with pytest.raises(ValueError, match="construction JSON: unknown key"):
        mel.from_json_dict({"stages": [stage], "stagez": 1})
    with pytest.raises(ValueError, match="stage 1: unknown key 'extra'"):
        mel.from_json_dict({"stages": [{**stage, "extra": 1}]})


def test_multigraph_validation():
    with pytest.raises(ValueError):
        mel.Multigraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        mel.Multigraph(0, ())
    # the vertex count is taken as given, never truncated or converted
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="vertices"):
            mel.Multigraph(bad, ((0, 1),))
    g = mel.Multigraph(2, [[1, 0], (0, 1)])
    assert g.edges == ((1, 0), (0, 1))
    # endpoints are taken as given, never truncated or converted
    for bad in ((0, 1.7), (True, 1), ("1", 0)):
        with pytest.raises(ValueError, match="edge"):
            mel.Multigraph(3, ((0, 1), bad))
    # a disconnected graph is refused when it is built
    with pytest.raises(ga.DisconnectedGraph):
        mel.Multigraph(3, ((0, 1),))
    with pytest.raises(ga.DisconnectedGraph):
        mel.Multigraph(2, ((0, 0), (1, 1)))
