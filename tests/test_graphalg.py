import ast
import gc
import itertools
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from melonclass import families as fam
from melonclass import graphalg as ga
from melonclass import melonic as mel
from melonclass.graphalg import Multigraph
from melonclass.poly import eval_int

from conftest import construction, src_env


def banana(n: int) -> Multigraph:
    return Multigraph(2, tuple((0, 1) for _ in range(n)))


def _laplacian_tree_count(g: Multigraph) -> int:
    """Matrix-tree count via the reduced Laplacian determinant, computed
    with exact fractions; loops contribute nothing."""
    n = g.num_vertices
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return abs(int(det))


def test_spanning_trees_banana():
    for n in (1, 2, 5):
        trees = ga.spanning_trees(banana(n))
        assert sorted(trees) == [frozenset({i}) for i in range(n)]


def test_spanning_trees_triangle():
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    trees = ga.spanning_trees(g)
    assert sorted(sorted(t) for t in trees) == [[0, 1], [0, 2], [1, 2]]


def test_spanning_trees_skip_loops():
    g = Multigraph(2, ((0, 1), (1, 1), (0, 0)))
    assert ga.spanning_trees(g) == [frozenset({0})]


def test_spanning_trees_match_matrix_tree():
    for t, _ in itertools.islice(mel.enumerate_constructions(7), 0, 840, 11):
        g = mel.to_graph(mel.linearize(t))
        assert len(ga.spanning_trees(g)) == _laplacian_tree_count(g)


def test_kirchhoff_banana():
    monomials = ga.kirchhoff_polynomial(banana(3))
    assert monomials == frozenset(
        {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})})


def test_kirchhoff_homogeneous_of_betti_degree():
    for t, _ in itertools.islice(mel.enumerate_constructions(6), 0, 238, 7):
        g = mel.to_graph(mel.linearize(t))
        monomials = ga.kirchhoff_polynomial(g)
        betti = len(g.edges) - g.num_vertices + 1
        assert {len(m) for m in monomials} <= {betti}
        assert len(monomials) == len(ga.spanning_trees(g))


def test_kirchhoff_loop_variable_in_every_monomial():
    g = Multigraph(2, ((0, 1), (0, 1), (1, 1)))
    assert all(2 in m for m in ga.kirchhoff_polynomial(g))


def _psi_eval(g: Multigraph, point: dict[int, int], q: int) -> int:
    total = 0
    for mono in ga.kirchhoff_polynomial(g):
        term = 1
        for i in mono:
            term = term * point[i] % q
        total += term
    return total % q


def test_kirchhoff_deletion_contraction():
    # Psi_G = t_e Psi_{G-e} + Psi_{G/e} for a non-bridge non-loop edge,
    # checked at random points modulo a prime
    rng = random.Random(7)
    q = 10007
    cases = [
        construction(((3,), 0, 1), ((2, 2), 1, 1)),
        construction(((2, 2), 0, 1)),
        construction(((4,), 0, 1), ((1, 2), 1, 1)),
    ]
    for c in cases:
        g = mel.to_graph(c)
        e = len(g.edges) - 1
        u, v = g.edges[e]
        assert u != v
        deleted = Multigraph(g.num_vertices, g.edges[:e])
        relabel = {old: new for new, old in
                   enumerate(w for w in range(g.num_vertices) if w != v)}
        relabel[v] = relabel[u]
        merged = tuple((relabel[x], relabel[y]) for x, y in g.edges[:e])
        contracted = Multigraph(g.num_vertices - 1, merged)
        for _ in range(25):
            point = {i: rng.randrange(q) for i in range(len(g.edges))}
            lhs = _psi_eval(g, point, q)
            rhs = (point[e] * _psi_eval(deleted, point, q)
                   + _psi_eval(contracted, point, q)) % q
            assert lhs == rhs


def test_count_examples():
    assert ga.count_complement_points(banana(2), 3) == 6
    assert ga.count_complement_points(banana(1), 5) == 5
    assert ga.count_complement_points(banana(3), 2) == \
        eval_int(fam.b_poly(3), 0)


def test_count_methods_agree():
    for t, _ in itertools.islice(mel.enumerate_constructions(6), 0, 238, 5):
        g = mel.to_graph(mel.linearize(t))
        for q in (2, 3, 5):
            assert (ga.count_complement_points(g, q, method="dp")
                    == ga.count_complement_points(g, q, method="direct"))


def _random_multigraph(rng: random.Random) -> Multigraph:
    """A connected multigraph with at most 8 edges, loops and parallel
    edges; about half contain K4, so they are not series-parallel."""
    if rng.random() < 0.5:
        n = rng.randint(4, 5)
        edges = list(itertools.combinations(range(4), 2))
        if n == 5:
            edges.append((rng.randrange(4), 4))
    else:
        n = rng.randint(2, 5)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(1, 8 - len(edges))):
        kind = rng.randrange(3)
        if kind == 0:
            w = rng.randrange(n)
            edges.append((w, w))
        elif kind == 1:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


def test_count_methods_agree_on_general_multigraphs(rng):
    shapes = {"loop": 0, "parallel": 0, "k4": 0}
    for _ in range(60):
        g = _random_multigraph(rng)
        simple = {tuple(sorted(e)) for e in g.edges if e[0] != e[1]}
        shapes["loop"] += any(u == v for u, v in g.edges)
        shapes["parallel"] += len(simple) < sum(u != v for u, v in g.edges)
        shapes["k4"] += set(itertools.combinations(range(4), 2)) <= simple
        for q in (2, 3, 5):
            assert (ga.count_complement_points(g, q, method="dp")
                    == ga.count_complement_points(g, q, method="direct")), \
                (g, q)
    assert min(shapes.values()) >= 10, shapes


# Graphs of at most 2 edges, where the tables the count reads are the
# one-edge charts themselves, rows t_1 = 0 and t_1 = 1: one edge, one
# loop, two loops, a loop and an edge in either order, the 2-banana both
# ways round and a path
CORNERS = [Multigraph(2, ((0, 1),)), Multigraph(1, ((0, 0),)),
           Multigraph(1, ((0, 0), (0, 0))), Multigraph(2, ((0, 0), (0, 1))),
           Multigraph(2, ((0, 1), (1, 1))), banana(2),
           Multigraph(2, ((0, 1), (1, 0))), Multigraph(3, ((0, 1), (1, 2)))]


def test_count_chart_corners():
    for g in CORNERS:
        for q in (2, 3, 5, 7, 131):
            assert (ga.count_complement_points(g, q, method="dp")
                    == ga.count_complement_points(g, q, method="direct")), \
                (g, q)


def test_count_methods_agree_at_dtype_boundaries():
    # a table's dtype holds 2q - 2, a row plus A before the row is reduced:
    # uint8 up to q = 127, uint16 from q = 131 and uint32 from q = 32,771.
    # The one-edge tables hold only 0 and 1, so a row sum passes 255 at
    # q = 131 only once a table holds every value 0..q-1: four loops
    # stream the rows of the three-loop minor from the two-loop table,
    # t_1 t_2, and add 0..q-1 to 0..q-1.  Three loops stream rows of
    # 0..q-1 plus 0 or 1, and graphs of at most 2 edges read the one-edge
    # tables only.  One loop builds no table and no row, so q = 65,537
    # checks only the one-edge count
    larger = [Multigraph(3, ((0, 1), (1, 2), (2, 0))),
              Multigraph(2, ((0, 1), (0, 1), (1, 0), (1, 1))),
              Multigraph(3, ((0, 1), (1, 2), (2, 0), (0, 1))),
              Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))]
    loops = Multigraph(1, ((0, 0),) * 3)
    for q, graphs in ((13, CORNERS + larger), (17, CORNERS + larger),
                      (127, CORNERS), (131, CORNERS), (257, CORNERS)):
        for g in graphs:
            assert (ga.count_complement_points(g, q, method="dp")
                    == ga.count_complement_points(g, q, method="direct")), \
                (g, q)
    four = Multigraph(1, ((0, 0),) * 4)
    for q in (127, 131, 257):
        assert ga.count_complement_points(loops, q) == (q - 1) ** 3, q
        assert (ga.count_complement_points(four, q, budget=q ** 4)
                == (q - 1) ** 4), q
    loop = Multigraph(1, ((0, 0),))
    assert (ga.count_complement_points(loop, 65537, method="dp")
            == ga.count_complement_points(loop, 65537, method="direct")
            == 65536)


def _cycle(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_count_dp_cases():
    # the count is read off A = Psi(G-e) and B = Psi(G/e) for the last
    # edge e: a loop has no B and a bridge no A, and a single edge is both
    # the whole graph and a loop or a bridge.  The rows of A and B come
    # from the next edge f of each minor: f a loop in G-e, a bridge in G-e,
    # a loop in G/e (e parallel to f), a bridge in G/e (so also in G-e, or
    # e is a bridge); graphs of two edges read the one-edge tables, the
    # chart t_1 in {0, 1} of one edge, as A and B.  Bananas, cycles and K4
    # have minors that coincide once renumbered, so they share tables.
    # The direct count of 7^7 points takes a second, so K4 stops at q = 5
    cases = [(Multigraph(3, ((0, 1), (1, 2), (2, 0), (1, 1))), 7),
             (Multigraph(4, ((0, 1), (1, 2), (2, 0), (2, 3))), 7),
             (Multigraph(3, ((0, 1), (1, 1), (1, 2), (2, 0))), 7),
             (Multigraph(1, ((0, 0),)), 7), (Multigraph(2, ((0, 1),)), 7),
             (Multigraph(3, ((0, 1), (1, 2), (2, 0), (1, 1), (0, 1))), 7),
             (_cycle(4), 7),
             (Multigraph(3, ((0, 1), (1, 2), (2, 0), (2, 0))), 7),
             (Multigraph(4, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 2))), 7),
             (Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))), 7),
             (Multigraph(3, ((0, 1), (1, 2), (2, 0), (1, 1), (0, 0))), 7),
             (Multigraph(1, ((0, 0), (0, 0))), 7),
             (Multigraph(2, ((0, 0), (0, 1))), 7),
             (Multigraph(2, ((0, 1), (1, 1))), 7),
             (Multigraph(3, ((0, 1), (1, 2))), 7), (banana(2), 7),
             (banana(5), 7), (_cycle(5), 7),
             (Multigraph(4, K4 + ((1, 2),)), 5),
             (Multigraph(4, ((0, 1),) + K4), 5)]
    for g, top in cases:
        for q in (2, 3, 5, 7):
            if q <= top:
                assert (ga.count_complement_points(g, q, method="dp")
                        == ga.count_complement_points(g, q,
                                                      method="direct")), \
                    (g, q)


def test_minors_are_relabelled():
    assert ga._relabel(((3, 1), (1, 3), (3, 3))) == ((0, 1), (1, 0), (0, 0))
    assert ga._minors(banana(3).edges) == (((0, 1),) * 2, ((0, 0),) * 2)
    assert ga._minors(_cycle(4).edges) == (
        ((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (2, 0)))
    assert ga._minors(((0, 1), (1, 2))) == (None, ((0, 1),))
    assert ga._minors(((0, 1), (1, 1))) == (((0, 1),), None)


def _traced_count(g: Multigraph, q: int) -> tuple[int, int]:
    """Bytes still held and the peak above the start, traced over one
    count with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ga.count_complement_points(g, q)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return after - before, peak - before


def test_count_dp_frees_its_tables():
    # every table is dropped when the count returns, without waiting for
    # the garbage collector: at q = 5 the chart tables and rows of this
    # 11-edge graph take about 6.7 MiB at their peak
    g = Multigraph(4, K4 + ((0, 1), (2, 3), (3, 3), (1, 2), (0, 3)))
    ga.count_complement_points(g, 5)
    residue, peak = _traced_count(g, 5)
    assert peak > 4 << 20
    assert residue < 1 << 20


def test_count_dp_stores_no_top_table():
    # the rows of Psi(G-e) and Psi(G/e) are counted as they are made, and
    # a table of n edges holds 2 q^(n-1) values, the chart t_1 in {0, 1}:
    # the largest table kept has 2 q^(|E|-3) values, so a 9-edge count at
    # q = 7 peaks at about 0.9 MiB, below 2 7^7 bytes
    g = Multigraph(4, K4 + ((0, 1), (2, 3), (3, 3)))
    ga.count_complement_points(g, 7)
    _, peak = _traced_count(g, 7)
    assert peak < 2 * 7 ** 7


def test_count_loop_graph():
    # one loop: Psi = t, so q - 1 points survive
    g = Multigraph(1, ((0, 0),))
    for q in (2, 3, 5):
        assert ga.count_complement_points(g, q) == q - 1


def test_count_polynomial_in_q():
    # counts of a melonic graph interpolate its class at every prime
    c = construction(((3,), 0, 1), ((1, 2), 1, 1))
    g = mel.to_graph(c)
    cls = fam.clasped_necklace_class(2, 3)
    for q in (2, 3, 5, 7, 11):
        assert ga.count_complement_points(g, q) == cls.eval_at_field_size(q)


def test_count_rejects_bad_modulus():
    with pytest.raises(ga.NonPrimeModulus):
        ga.count_complement_points(banana(2), 4)
    with pytest.raises(ga.NonPrimeModulus):
        ga.count_complement_points(banana(2), 1)


def test_count_budget():
    with pytest.raises(ga.BudgetExceeded):
        ga.count_complement_points(banana(4), 3, budget=80)
    # a modulus above the budget is refused before its primality is tested
    with pytest.raises(ga.BudgetExceeded, match="modulus"):
        ga.count_complement_points(banana(2), 10 ** 18 + 3)
    with pytest.raises(ga.BudgetExceeded, match="modulus"):
        ga.count_complement_points(banana(2), 12, budget=11)
    assert ga.count_complement_points(banana(4), 3, budget=81) > 0


def test_edge_list_round_trip():
    text = "0 1\n1 2\n2 0\n1 1\n"
    g = ga.from_edge_list(text)
    assert g.num_vertices == 3
    assert "".join(f"{u} {v}\n" for u, v in g.edges) == text


def test_edge_list_comments_and_errors():
    g = ga.from_edge_list("# triangle\n0 1\n\n1 2\n2 0\n")
    assert len(g.edges) == 3
    with pytest.raises(ValueError):
        ga.from_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        ga.from_edge_list("a b\n")
    with pytest.raises(ValueError):
        ga.from_edge_list("-1 0\n")
    with pytest.raises(ValueError):
        ga.from_edge_list("")


def test_edge_list_reads_ascii_digits_only():
    # int() would read each of these first tokens as a number; the
    # parser reads none of them, and a leading minus is a negative vertex
    for token in ("1_0", "+1", "\u0662", "\uff12", "\u0661\u0660",
                  "-\u0662"):
        int(token)
        with pytest.raises(ValueError,
                           match="^line 2: vertices must be integers$"):
            ga.from_edge_list(f"0 1\n{token} 0\n")
    for token in ("-1", "-0", "-12"):
        with pytest.raises(ValueError, match="^line 1: vertices must be >= 0$"):
            ga.from_edge_list(f"0 {token}\n")
    # the triangle with an Arabic-Indic 2 is not the ASCII triangle
    with pytest.raises(ValueError, match="integers"):
        ga.from_edge_list("0 1\n1 \u0662\n\u0662 0\n")
    assert ga.from_edge_list("0 1\n1 2\n2 0\n").edges == (
        (0, 1), (1, 2), (2, 0))
    assert ga.from_edge_list("00 01\n").edges == ((0, 1),)


def test_graphalg_imports_no_melonclass_module():
    # the oracle checks the package's classes, so it shares none of its code
    with open(ga.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    assert "numpy" in names
    assert not [n for n in names if n.startswith((".", "melonclass"))], names


def test_graphalg_does_not_import_melonic():
    # the oracle checks melonic's classes, so it must not depend on melonic
    code = ("import sys, melonclass.graphalg; "
            "print('melonclass.melonic' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert mel.Multigraph is Multigraph
