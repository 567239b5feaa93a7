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

from dataclasses import dataclass

import numpy as np

from .poly import ClassPoly


def _is_int(value: object) -> bool:
    """A Python integer that is not a bool; nothing is converted."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Multigraph:
    """Vertices 0..num_vertices-1 and an ordered multiset of undirected
    edges; loops and parallel edges allowed.  Edge order fixes the
    variable order of the Kirchhoff polynomial."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple((u, v) for u, v in self.edges)
        for u, v in edges:
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) needs integer endpoints")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
        object.__setattr__(self, "edges", edges)


class DisconnectedGraph(ValueError):
    pass


class NonPrimeModulus(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CountBudget:
    """Cap on the q^|E| point-space size enumerated by one count."""

    max_points: int = 10 ** 8

    def __post_init__(self) -> None:
        if self.max_points < 1:
            raise ValueError("budget must allow at least one point")


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


def _is_connected(num_vertices: int,
                  edges: tuple[tuple[int, int], ...]) -> bool:
    return _components(range(num_vertices), edges) == 1


def _require_connected(g: Multigraph) -> None:
    # a connected graph has at most one vertex more than it has edges;
    # checking that first keeps a huge vertex index from sizing the search
    if (g.num_vertices > len(g.edges) + 1
            or not _is_connected(g.num_vertices, g.edges)):
        raise DisconnectedGraph(
            f"graph with {g.num_vertices} vertices and "
            f"{len(g.edges)} edges is not connected")


def spanning_trees(g: Multigraph) -> list[frozenset[int]]:
    """All spanning trees, each as a frozenset of edge indices.

    Recursive contraction-deletion on the first non-loop edge: a tree
    either uses the edge (contract it) or not (delete it, allowed only
    when the rest still connects, i.e. the edge is not a bridge).
    """
    _require_connected(g)

    trees: list[frozenset[int]] = []

    def rec(items: list[tuple[int, int, int]], merged: dict[int, int],
            chosen: tuple[int, ...]) -> None:
        # items: (edge index, u, v) with endpoints under the current merge
        def root(x: int) -> int:
            while merged.get(x, x) != x:
                x = merged.get(x, x)
            return x

        live = []
        vertices = set()
        for eid, u, v in items:
            ru, rv = root(u), root(v)
            if ru != rv:
                live.append((eid, ru, rv))
                vertices.add(ru)
                vertices.add(rv)
        if not vertices:
            trees.append(frozenset(chosen))
            return
        eid, u, v = live[0]
        # include: contract the edge
        rec(live[1:], {**merged, v: u}, chosen + (eid,))
        # exclude: legal only if the remaining edges still connect
        rest = live[1:]
        if _components(vertices, [(ru, rv) for _, ru, rv in rest]) == 1:
            rec(rest, merged, chosen)

    items = [(i, u, v) for i, (u, v) in enumerate(g.edges)]
    rec(items, {}, ())
    return trees


def kirchhoff_polynomial(g: Multigraph) -> frozenset[frozenset[int]]:
    """Monomial-set form of Psi: one edge-index subset per spanning tree,
    the complement of the tree."""
    all_edges = frozenset(range(len(g.edges)))
    monomials = frozenset(all_edges - tree for tree in spanning_trees(g))
    if len({len(m) for m in monomials}) > 1:
        raise ValueError("Kirchhoff polynomial must be homogeneous")
    return monomials


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _dtype_for(q: int) -> type:
    # headroom for (q-1)*(q-1) + (q-1) before the reduction mod q
    if q <= 15:
        return np.uint8
    if q <= 255:
        return np.uint16
    return np.uint32


def _count_dp(edges: tuple[tuple[int, int], ...], q: int) -> int:
    """Value table of Psi mod q over all q^|E| points, by
    contraction-deletion on the last edge; returns the nonzero count.

    With index t_n q^{n-1} + ... + t_1 (last edge most significant):
      loop e:    Psi = t_e Psi(G-e)          -> blocks a * A
      bridge e:  Psi = Psi(G/e)              -> q copies of B
      else:      Psi = t_e Psi(G-e) + Psi(G/e) -> blocks a * A + B
    """
    dtype = _dtype_for(q)

    def rec(es: tuple[tuple[int, int], ...]) -> np.ndarray:
        if not es:
            return np.ones(1, dtype=dtype)
        (u, v), rest = es[-1], es[:-1]
        if u == v:
            deleted = rec(rest)
            return np.concatenate([a * deleted % q for a in range(q)])
        contracted_rest = tuple(
            (u if x == v else x, u if y == v else y) for x, y in rest)
        vertices = {w for e in es for w in e}
        if _components(vertices, rest) > 1:  # bridge: Psi has no t_e term
            return np.tile(rec(contracted_rest), q)
        deleted = rec(rest)
        contracted = rec(contracted_rest)
        return np.concatenate(
            [(a * deleted + contracted) % q for a in range(q)])

    values = rec(edges)
    return int(np.count_nonzero(values))


def _count_direct(g: Multigraph, q: int) -> int:
    """Reference method: evaluate the monomial set at every point of
    F_q^|E| in fixed disjoint index ranges."""
    monos = sorted(sorted(m) for m in kirchhoff_polynomial(g))
    n = len(g.edges)
    total = q ** n
    strides = [q ** i for i in range(n)]
    count = 0
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        acc = np.zeros(len(idx), dtype=np.int64)
        for mono in monos:
            term = np.ones(len(idx), dtype=np.int64)
            for i in mono:
                term = term * (idx // strides[i] % q) % q
            acc += term
        count += int(np.count_nonzero(acc % q))
    return count


def count_complement_points(g: Multigraph, q: int,
                            budget: CountBudget | None = None,
                            method: str = "dp") -> int:
    """Exact #{t in F_q^|E| : Psi(t) != 0}.

    method "dp" tabulates Psi by contraction-deletion (fast), "direct"
    evaluates the spanning-tree monomials point by point (simple); both
    are exact and are cross-checked in the test suite.
    """
    if not _is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")
    if budget is None:
        budget = CountBudget()
    size = q ** len(g.edges)
    if size > budget.max_points:
        raise BudgetExceeded(
            f"{q}^{len(g.edges)} = {size} points exceeds budget "
            f"{budget.max_points}")
    _require_connected(g)
    if method == "dp":
        return _count_dp(g.edges, q)
    if method == "direct":
        return _count_direct(g, q)
    raise ValueError(f"unknown counting method {method!r}")


def verify_class(g: Multigraph, c: ClassPoly, primes: list[int],
                 budget: CountBudget | None = None) -> list[dict]:
    """Count complement points at each prime and compare with the class
    evaluated at S = q - 2; one {q, counted, expected, match} row a prime."""
    rows = []
    for q in primes:
        counted = count_complement_points(g, q, budget=budget)
        expected = c.eval_at_field_size(q)
        rows.append({"q": q, "counted": counted, "expected": expected,
                     "match": counted == expected})
    return rows
