"""The whole triple (f, g, h) of a network, checked by point counts.

The class b = g + (s+2) f is checked by counting points elsewhere; f, g
and h on their own are not.  Three graphs give them.  Take the network's
graph G, whose terminals are vertices 0 and 1, G/t with the terminals
identified, and G + e with one more edge between them.  Let Psi be the
Kirchhoff polynomial of G and Phi that of G/t.  Over F_q, with
A = #{Psi != 0, Phi != 0}, B = #{Psi != 0, Phi = 0} and
C = #{Psi = 0, Phi != 0}, the triple at s = q - 2 is (q-1) f = A,
g = B - f and h = C.  Since Psi(G + e) = x_e Psi + Phi:

    [G] = A + B,   [G/t] = A + C,   [G + e] = (q-1)(A + B) + q C,

so h = ([G+e] - (q-1)[G]) / q, f = ([G/t] - h) / (q-1) and
g = [G] - [G/t] + h - f.  The counts use neither the series nor the
parallel rule, so a wrong term in either rule fails here even where it
cancels in b.
"""

from melonclass import graphalg as ga
from melonclass import melonic as mel
from melonclass import poly as pl
from melonclass.graphalg import Multigraph
from melonclass.poly import ONE, S_PLUS_2, eval_int


def _terminals_identified(g: Multigraph) -> Multigraph:
    """G/t: vertex 1 becomes vertex 0, the later vertices move down one,
    and the edges between the terminals become loops."""
    def label(v: int) -> int:
        return v - 1 if v > 1 else 0

    return Multigraph(g.num_vertices - 1,
                      tuple((label(u), label(v)) for u, v in g.edges))


def _counted_triple(g: Multigraph, q: int) -> tuple[int, int, int]:
    """(f, g, h) at s = q - 2 from the counts of G, G/t and G + e."""
    whole, closed, plus = (
        ga.count_complement_points(x, q)
        for x in (g, _terminals_identified(g),
                  Multigraph(g.num_vertices, g.edges + ((0, 1),))))
    h, rest = divmod(plus - (q - 1) * whole, q)
    assert rest == 0
    f, rest = divmod(closed - h, q - 1)
    assert rest == 0
    return f, whole - closed + h - f, h


def test_single_edge_triple_is_counted():
    assert [_counted_triple(Multigraph(2, ((0, 1),)), q)
            for q in (2, 3, 5)] == [(1, 0, 0)] * 3


def test_every_network_triple_matches_its_point_counts():
    # one construction for each distinct triple of a network with at
    # most 9 edges.  The constructions are told apart by their triples on
    # the int ring, the faster fold: equal polynomial triples have equal
    # values, and the kept constructions still give all 653 distinct
    # polynomial triples, so no two were merged
    lift, s2, _ = pl.ring(9)
    int_leaf, on_ints = mel._bananas(lift(ONE), s2), {}
    for tree, _ in mel.enumerate_constructions(9):
        c = mel.linearize(tree)
        on_ints.setdefault(mel._fold(c, int_leaf, s2), c)
    leaf = mel._bananas(ONE, S_PLUS_2)
    networks = {mel._fold(c, leaf): c for c in on_ints.values()}
    assert len(networks) == 653
    for triple, c in networks.items():
        g = mel.to_graph(c)
        for q in (2, 3, 5):
            assert _counted_triple(g, q) == tuple(
                eval_int(p, q - 2) for p in triple), (mel.serialize(c), q)
