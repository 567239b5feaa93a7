"""Ground-truth oracle: spanning trees, Kirchhoff polynomials, and
finite-field point counts of graph hypersurface complements.

The Kirchhoff polynomial of a connected multigraph is

    Psi(t) = sum over spanning trees T of prod_{e not in T} t_e,

homogeneous of degree |E| - |V| + 1.  The number of points of F_q^E
where Psi does not vanish is the value the Grothendieck class predicts
at S = q - 2, which makes exhaustive counting over small primes an
independent check on every class this package computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def _is_int(value: object) -> bool:
    """A Python integer that is not a bool; nothing is converted."""
    return isinstance(value, int) and not isinstance(value, bool)


class DisconnectedGraph(ValueError):
    pass


class NonPrimeModulus(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BUDGET = 10 ** 8


def _components(nodes, edges) -> int:
    """Number of connected components, by union-find with path halving."""
    parent = {x: x for x in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    count = len(parent)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            count -= 1
    return count


@dataclass(frozen=True)
class Multigraph:
    """A connected graph on vertices 0..num_vertices-1 with an ordered
    multiset of undirected edges; loops and parallel edges allowed.  Edge
    order fixes the variable order of the Kirchhoff polynomial."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"graph needs a positive integer number of "
                             f"vertices, got {n!r}")
        edges = tuple((u, v) for u, v in self.edges)
        for u, v in edges:
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) needs integer endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
        # a connected graph has at most one vertex more than it has edges;
        # checking that first keeps a huge vertex index from sizing the search
        if n > len(edges) + 1 or _components(range(n), edges) > 1:
            raise DisconnectedGraph(f"graph with {n} vertices and "
                                    f"{len(edges)} edges is not connected")
        object.__setattr__(self, "edges", edges)


def from_edge_list(text: str) -> Multigraph:
    """Parse one edge per line, "u v" with 0-based vertices, "u u" a loop.

    Blank lines and lines starting with '#' are skipped.  The vertex set
    is 0..max index seen.
    """
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: vertices must be integers") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertices must be >= 0")
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    num_vertices = 1 + max(max(u, v) for u, v in edges)
    return Multigraph(num_vertices, tuple(edges))


def spanning_trees(g: Multigraph) -> list[frozenset[int]]:
    """All spanning trees, each as a frozenset of edge indices: the sets
    of num_vertices - 1 edges that connect every vertex."""
    n = g.num_vertices
    return [frozenset(tree)
            for tree in itertools.combinations(range(len(g.edges)), n - 1)
            if _components(range(n), [g.edges[i] for i in tree]) == 1]


def kirchhoff_polynomial(g: Multigraph) -> frozenset[frozenset[int]]:
    """Monomial-set form of Psi: one edge-index subset per spanning tree,
    the complement of the tree."""
    all_edges = frozenset(range(len(g.edges)))
    return frozenset(all_edges - tree for tree in spanning_trees(g))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_modulus(q: int, budget: int) -> None:
    """Refuse q as a modulus: BudgetExceeded above the point budget, else
    NonPrimeModulus unless q is prime.

    A count over at least one edge enumerates q or more points; comparing
    q with the budget first bounds trial division by sqrt(budget) steps.
    """
    if q > budget:
        raise BudgetExceeded(f"modulus {q} exceeds budget {budget}")
    if not _is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")


def _relabel(edges) -> tuple[tuple[int, int], ...]:
    """The same edges, in the same order, with the vertices renumbered
    0, 1, ... in order of first appearance."""
    names: dict[int, int] = {}
    return tuple((names.setdefault(u, len(names)),
                  names.setdefault(v, len(names))) for u, v in edges)


def _minors(edges: tuple[tuple[int, int], ...]) -> tuple:
    """(G - e, G / e) for the last edge e, each relabelled.  G / e is None
    when e is a loop, where Psi = t_e Psi(G-e); G - e is None when e is a
    bridge, where Psi = Psi(G/e)."""
    (u, v), rest = edges[-1], edges[:-1]
    if u == v:
        return _relabel(rest), None
    contracted = _relabel((u if x == v else x, u if y == v else y)
                          for x, y in rest)
    if _components({w for e in edges for w in e}, rest) > 1:
        return None, contracted
    return _relabel(rest), contracted


def _nonzero(table: np.ndarray) -> int:
    return int(np.count_nonzero(table))


def _count_dp(edges: tuple[tuple[int, int], ...], q: int) -> int:
    """#{Psi != 0} over F_q^|E| by contraction-deletion on the last edge e,
    where Psi = t_e A + B with A = Psi(G-e) and B = Psi(G/e).

    Where A != 0, t_e A + B vanishes for exactly one t_e; where A = 0 it
    vanishes for every t_e or for none, as B does.  So the count is
    (q-1) #{A != 0} + q #{A = 0, B != 0}, summed over the rows of A and B
    as they are made; no table of q^{|E|-1} values is stored.

    Every table lists its values on the chart t_1 in {0, 1} of the first
    edge only: A and B are homogeneous, so for t != 0 the scaling
    y -> t y keeps both zero sets and maps the points with y_1 = 1 onto
    those with y_1 = t.  An entry at t_1 = 1 thus stands for q - 1
    points, and the count is exact from 2 of every q points.  The table
    of a minor with n edges has shape (2, q^{n-1}): entry [r, i] is Psi
    mod q at t_1 = r and t_n q^{n-2} + ... + t_2 = i (last edge most
    significant).  A one-edge minor is [[1], [1]] for a bridge, Psi = 1,
    and [[0], [1]] for a loop, Psi = t_1.

    Row t_f of a table with n >= 2 edges is its block of q^{n-2} columns
    where the last edge f is t_f.  For a bridge every row is Psi(G/f);
    otherwise row 0 is Psi(G/f) (0 for a loop) and row t_f is row
    t_f - 1 plus Psi(G-f), reduced mod q by one conditional subtraction:
    the dtype holds 2q - 2, and row - q wraps round past row when
    row < q.  A and B share their last edge, so their rows pair up; with
    2 edges in all, A and B are one-edge minors, each read whole.

    Minors recur, so levels[d] maps each distinct minor with |E| - d edges,
    its vertices renumbered by _relabel, to its own two minors.  The
    tables are built one level at a time from the one-edge minors up to
    level 2, and a level's tables are dropped once the level above is
    built.
    """
    if not edges:
        return 1
    if len(edges) == 1:
        (u, v), = edges
        return q - 1 if u == v else q
    levels = [{edges: _minors(edges)}]
    while len(levels) < len(edges):
        below = {m for pair in levels[-1].values() for m in pair
                 if m is not None}
        levels.append({es: _minors(es) for es in below})

    dtype = np.min_scalar_type(2 * q - 2)

    def rows(rest, contracted, tables: dict):
        """The q rows of the table of a minor with the given two minors."""
        if rest is None:
            yield from itertools.repeat(tables[contracted], q)
            return
        a = tables[rest]
        row = np.zeros_like(a) if contracted is None else tables[contracted]
        yield row
        for _ in range(1, q):
            row = row + a
            np.minimum(row, row - q, out=row)
            yield row

    def points(table: np.ndarray) -> int:
        """The points of F_q^n where a table is nonzero."""
        return _nonzero(table[0]) + (q - 1) * _nonzero(table[1])

    tables = {((0, 1),): np.array([[1], [1]], dtype),
              ((0, 0),): np.array([[0], [1]], dtype)}
    for level in reversed(levels[2:-1]):
        tables = {es: np.concatenate(list(rows(*pair, tables)), axis=1)
                  for es, pair in level.items()}
    a_rows, b_rows = (None if m is None else
                      [tables[m]] if len(m) == 1 else
                      rows(*levels[1][m], tables)
                      for m in levels[0][edges])
    if a_rows is None:
        return q * sum(map(points, b_rows))
    if b_rows is None:
        return (q - 1) * sum(map(points, a_rows))
    # #{A = 0, B != 0} = #{B != 0} - #{A != 0, B != 0}
    return sum((q - 1) * points(a) + q * (points(b)
                                          - points(np.minimum(a, b)))
               for a, b in zip(a_rows, b_rows))


def _count_direct(g: Multigraph, q: int) -> int:
    """Reference method: evaluate the monomial set at every point of
    F_q^|E| in fixed disjoint index ranges.  Each range splits its points
    into |E| digit arrays once, and a monomial is the product of its
    digits."""
    monos = sorted(sorted(m) for m in kirchhoff_polynomial(g))
    n = len(g.edges)
    total = q ** n
    # each monomial has |E| - |V| + 1 factors below q, so their sum stays
    # below `bound` unreduced: int32 where that fits, else int64, reduced
    # mod q only where even an int64 could overflow
    bound = len(monos) * (q - 1) ** (n - g.num_vertices + 1)
    dtype = np.int32 if bound < 1 << 31 else np.int64
    reduce = bound >= 1 << 63
    count = 0
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        rest = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = []
        for _ in range(n):
            rest, digit = np.divmod(rest, q)
            digits.append(digit.astype(dtype))
        acc = np.zeros(len(rest), dtype=dtype)
        for mono in monos:
            term = digits[mono[0]].copy() if mono else 1
            for i in mono[1:]:
                term *= digits[i]
                if reduce:
                    term %= q
            acc += term
        count += int(np.count_nonzero(acc % q))
    return count


def count_complement_points(g: Multigraph, q: int,
                            budget: int = DEFAULT_BUDGET,
                            method: str = "dp") -> int:
    """Exact #{t in F_q^|E| : Psi(t) != 0}.

    method "dp" counts by contraction-deletion (fast), "direct"
    evaluates the spanning-tree monomials point by point (simple); both
    are exact and are cross-checked in the test suite.  budget caps the
    q^|E| points enumerated.
    """
    check_modulus(q, budget)
    size = q ** len(g.edges)
    if size > budget:
        raise BudgetExceeded(
            f"{q}^{len(g.edges)} = {size} points exceeds budget {budget}")
    if method == "dp":
        return _count_dp(g.edges, q)
    if method == "direct":
        return _count_direct(g, q)
    raise ValueError(f"unknown counting method {method!r}")
