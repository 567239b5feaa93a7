"""Melonic constructions, their multigraphs, and their classes.

A melonic construction is an ordered list of stages (b_s, p_s, k_s): replace
one edge of the k_s-th banana created in stage p_s with a string of bananas
whose sizes are the tuple b_s.  Stage 0 is the initial single edge.  Indices
are 1-based to match that reading: parent_stage 0 means the root edge, and
parent_banana counts entries of the parent tuple from 1.

A construction is checked once, when it is built: the constructor raises
ValueError unless `validate` finds nothing wrong, and converts no value.

A later single-banana stage of size a only widens its parent slot by
a - 1, and a stage on a size-1 banana describes the same graph as its
string spliced into the parent tuple.  A construction is reduced when
it has neither (`is_reduced`).  The canonical form, both rewrites
applied, sibling subtrees sorted and stages numbered depth-first, is
kept with the tests that check the enumeration against it
(`tests/canonical.py`).

The graph of a construction is a two-terminal series-parallel network,
the ends of the root edge its terminals.  A network T has a triple
(f_T, g_T, h_T) of polynomials in S, and its class is
b_T = g_T + (S+2) f_T; a single edge has (1, 0, 0), and the a-banana is
a edges in parallel.  `series` and `parallel` compose triples
(Brown-Yeats, CMP 2011), so `class_of` is one fold over the stage list,
from the last stage back, and `enumerate_constructions` builds each
class from the triples of the subtrees it hangs on the root string.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

from .graphalg import Multigraph, _is_int
from . import poly
from .poly import ONE, S_PLUS_2, ClassPoly


class Stage(NamedTuple):
    """One stage of a construction."""

    bananas: tuple[int, ...]
    parent_stage: int
    parent_banana: int


@dataclass(frozen=True)
class MelonicConstruction:
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "stages", tuple(self.stages))
        except TypeError:
            raise ValueError("invalid melonic construction: stages must be "
                             "a sequence of Stage") from None
        violations = validate(self)
        if violations:
            raise ValueError("invalid melonic construction: "
                             + "; ".join(violations))

    def num_edges(self) -> int:
        """Edges of the resulting graph: each stage past the first trades
        one existing edge for its banana string."""
        total = 0
        for i, st in enumerate(self.stages):
            total += sum(st.bananas) - (0 if i == 0 else 1)
        return total


_TYPES_MESSAGE = ("bananas must be a list of integers, parent_stage and "
                  "parent_banana integers")


def validate(c: MelonicConstruction) -> list[str]:
    """One message per violation of the four defining conditions, or only
    the first type error: those checks compare and index the values."""
    stages = c.stages
    if not stages:
        return ["construction has no stages"]
    violations: list[str] = []
    for idx, st in enumerate(stages, start=1):
        if not (isinstance(st, Stage) and isinstance(st.bananas, tuple)
                and all(map(_is_int, st.bananas))
                and _is_int(st.parent_stage) and _is_int(st.parent_banana)):
            return [f"stage {idx}: {_TYPES_MESSAGE}"]
        if not st.bananas:
            violations.append(f"stage {idx}: banana tuple is empty")
        elif any(a < 1 for a in st.bananas):
            violations.append(f"stage {idx}: banana sizes must be positive")
        if idx == 1:
            if st.parent_stage != 0:
                violations.append(
                    "stage 1: must replace the root edge (parent_stage 0)")
            if st.parent_banana != 1:
                violations.append("stage 1: parent_banana must be 1")
        else:
            if not 0 < st.parent_stage < idx:
                violations.append(
                    f"stage {idx}: parent_stage {st.parent_stage} "
                    f"not in 1..{idx - 1}")
    targets: dict[tuple[int, int], int] = {}
    for idx, st in enumerate(stages, start=1):
        if idx == 1 or not 0 < st.parent_stage < idx:
            continue
        parent = stages[st.parent_stage - 1]
        if not 1 <= st.parent_banana <= len(parent.bananas):
            violations.append(
                f"stage {idx}: parent_banana {st.parent_banana} out of "
                f"range for stage {st.parent_stage}")
            continue
        slot = (st.parent_stage, st.parent_banana)
        targets[slot] = targets.get(slot, 0) + 1
    for (i, j), count in sorted(targets.items()):
        size = stages[i - 1].bananas[j - 1]
        if count > size:
            violations.append(
                f"banana {j} of stage {i} has {size} edges but is "
                f"replaced by {count} later stages")
    return violations


def is_reduced(c: MelonicConstruction) -> bool:
    """True when every stage after the first has at least two bananas
    and none replaces an edge of a 1-banana."""
    sizes = [st.bananas for st in c.stages]
    return all(len(st.bananas) >= 2
               and sizes[st.parent_stage - 1][st.parent_banana - 1] > 1
               for st in c.stages[1:])


def to_graph(c: MelonicConstruction) -> Multigraph:
    """Build the melonic multigraph stage by stage."""
    edges: list[tuple[int, int] | None] = [(0, 1)]
    pools: dict[tuple[int, int], list[int]] = {(0, 1): [0]}
    num_vertices = 2
    for s_idx, st in enumerate(c.stages, start=1):
        pool = pools[(st.parent_stage, st.parent_banana)]
        eid = pool.pop()
        u, v = edges[eid]
        edges[eid] = None
        r = len(st.bananas)
        chain = [u] + list(range(num_vertices, num_vertices + r - 1)) + [v]
        num_vertices += r - 1
        for j, size in enumerate(st.bananas, start=1):
            ids = []
            for _ in range(size):
                edges.append((chain[j - 1], chain[j]))
                ids.append(len(edges) - 1)
            pools[(s_idx, j)] = ids
    kept = tuple(e for e in edges if e is not None)
    return Multigraph(num_vertices, kept)


# The entries of a triple are polynomials in s, or their values at one
# integer s (see `poly.ring`).  The rules only add, subtract and
# multiply, so they hold in either ring, given that ring's s + 2.
Triple = tuple[Any, Any, Any]


def class_b(t: Triple, s2: Any = S_PLUS_2) -> Any:
    """The class b = g + (s+2) f of a network with triple t."""
    return t[1] + s2 * t[0]


def series(t1: Triple, t2: Triple, s2: Any = S_PLUS_2) -> Triple:
    """Two networks joined end to end: f = f1 b2 + g1 f2, g = g1 g2,
    h = h1 b2 + b1 h2."""
    (f1, g1, h1), (f2, g2, h2) = t1, t2
    b1, b2 = g1 + s2 * f1, g2 + s2 * f2
    return f1 * b2 + g1 * f2, g1 * g2, h1 * b2 + b1 * h2


def parallel(t1: Triple, t2: Triple, s2: Any = S_PLUS_2) -> Triple:
    """Two networks on the same terminals.  In the coordinates
    (P, D, N) = (h + (s+1) f, h - f, g + f) the rule is f = f1 P2 + D1 f2,
    D = D1 D2, N = N1 P2 + P1 N2; then g = N - f and h = D + f."""
    (f1, g1, h1), (f2, g2, h2) = t1, t2
    d1, d2 = h1 - f1, h2 - f2
    p1, p2 = d1 + s2 * f1, d2 + s2 * f2
    f = f1 * p2 + d1 * f2
    n = (g1 + f1) * p2 + p1 * (g2 + f2)
    return f, n - f, d1 * d2 + f


def _bananas(one: Any, s2: Any) -> Callable[[int], Triple]:
    """leaf(a), the a-banana's triple in the ring of `one`, whose s + 2 is
    s2: the edge (1, 0, 0), for a = 0 the identity (0, 0, 1) of
    `parallel`, else two halves in parallel, log2(a) deep; cached."""
    zero = one - one

    @functools.cache
    def leaf(a: int) -> Triple:
        if a < 2:
            return (one, zero, zero) if a else (zero, zero, one)
        return parallel(leaf(a // 2), leaf(a - a // 2), s2)

    return leaf


def _fold(c: MelonicConstruction, leaf: Callable[[int], Triple],
          s2: Any = S_PLUS_2) -> Triple:
    """The triple of c, folded from the last stage back, since a parent
    always comes first: a slot of size a with k child strings is
    leaf(a - k), the (a - k)-banana, in parallel with them, and a stage's
    string, the series of its slots, goes to its parent's slot.  Each
    stage's lists are dropped once it is folded."""
    kids: list[list[list[Triple]]] = [[[] for _ in st.bananas]
                                      for st in c.stages]
    for st in reversed(c.stages):
        string = None
        for a, ts in zip(st.bananas, kids.pop()):
            slot = leaf(a - len(ts)) if a > len(ts) else None
            for t in ts:
                slot = t if slot is None else parallel(slot, t, s2)
            string = slot if string is None else series(string, slot, s2)
        if kids:
            kids[st.parent_stage - 1][st.parent_banana - 1].append(string)
    return string


def class_of(c: MelonicConstruction) -> ClassPoly:
    """Grothendieck class of the construction's graph, a polynomial in S.

    Accepts any construction, reduced or not, and recurses nowhere.  The
    graph is a two-terminal series-parallel network, so its class is the
    b of one fold over its stages (`_fold`) from bananas (`_bananas`).  A
    string on a 1-banana and a later single-banana stage need no rewrite:
    x edges in parallel with a edges are x + a edges.  The fold runs in
    the ring `poly.ring` picks for the construction's edge count.
    """
    lift, s2, read = poly.ring(c.num_edges())
    return read(class_b(_fold(c, _bananas(lift(ONE), s2), s2), s2))


def serialize(c: MelonicConstruction) -> str:
    """Deterministic compact string form of the exact stage list."""
    return json.dumps(c.stages, separators=(",", ":"))


def deserialize(text: str) -> MelonicConstruction:
    payload = json.loads(text)
    return MelonicConstruction(tuple(Stage(tuple(b), p, k)
                                     for b, p, k in payload))


Node = tuple[tuple[int, ...], tuple[tuple["Node", ...], ...]]


def linearize(root: Node) -> MelonicConstruction:
    """The construction of a tree: its stages numbered depth-first,
    siblings in order.  On a tree that `enumerate_constructions` yields
    this is the canonical form."""
    stages: list[Stage] = []
    stack: list[tuple[Node, int, int]] = [(root, 0, 1)]
    while stack:
        (tup, forest), p, k = stack.pop()
        stages.append(Stage(tup, p, k))
        stack.extend((child, len(stages), j)
                     for j in range(len(forest), 0, -1)
                     for child in reversed(forest[j - 1]))
    return MelonicConstruction(tuple(stages))


# The memo of the latest enumeration: the triple of each catalog subtree,
# keyed by its tree, in its ring; filled once the catalog is built.
_class_memo: dict[Node, Triple] = {}


def enumerate_constructions(max_edges: int
                            ) -> Iterator[tuple[Node, ClassPoly]]:
    """The tree of every reduced valid construction with at most max_edges
    edges, with its class, root string by root string.

    Each construction is emitted exactly once, as its canonical tree
    (`tests/canonical.py`): sibling subtrees attached to the same banana
    appear sorted, and every stage after the first has at least two
    bananas.  `linearize` turns it into the construction, in canonical
    form.  The catalog is one list of every subtree a slot can take,
    sorted by (cost, subtree), built one cost at a time before the first
    root string.  A string is a loop over the cached option lists of its
    slots, each with its triple, the series-parallel fold of `class_of`
    in the ring of `poly.ring`; the cache is cleared after each root
    size.  A root string's class is the product of its slots' classes.
    Equal classes within one call are one `ClassPoly` object, read back
    from its value once.
    """
    global _class_memo
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    lift, s2, read = poly.ring(max_edges)
    leaf = _bananas(lift(ONE), s2)
    catalog: list[tuple[int, Node, Triple]] = []

    @functools.cache
    def options(a: int, budget: int
                ) -> list[tuple[int, tuple[Node, ...], Triple, int]]:
        """Each way to hang sorted catalog subtrees on a slot of size a
        within budget, as (cost, children, slot triple, slot class).  The
        slot is closed before it grows, and grows in catalog order: the
        order of the enumeration.  The catalog is sorted by cost and holds
        every subtree costing up to budget when this runs, so the walk
        stops at the first dearer one.  A banana of size a >= 2 takes at
        most a children, a 1-banana none.  The slot is leaf(a - n) in
        parallel with its n children, whose parallel grows with them."""
        cands = catalog if a >= 2 else ()
        out = []

        def grow(start: int, kids: tuple[Node, ...], cost: int,
                 kin: Triple | None) -> None:
            n = len(kids)
            t = (leaf(a) if kin is None else kin if n == a
                 else parallel(leaf(a - n), kin, s2))
            out.append((cost, tuple(sorted(kids)), t, class_b(t, s2)))
            if n < a:
                for i in range(start, len(cands)):
                    c, node, kid = cands[i]
                    if cost + c > budget:
                        break
                    grow(i, kids + (node,), cost + c,
                         kid if kin is None else parallel(kin, kid, s2))

        grow(0, (), 0, None)
        return out

    def strings(tup: tuple[int, ...], budget: int, root: bool
                ) -> Iterator[tuple[tuple[tuple[Node, ...], ...], int, Any]]:
        """Each way to hang catalog subtrees on the slots of tup within
        budget, with the budget it leaves and, for a root string, the
        product of its slots' classes, else the series of their triples."""
        last = len(tup) - 1

        def rec(j: int, left: int, forest: tuple[tuple[Node, ...], ...],
                acc: Any) -> Iterator[
                    tuple[tuple[tuple[Node, ...], ...], int, Any]]:
            for cost, kids, t, b in options(tup[j], left):
                joined = (acc * b if root else
                          t if acc is None else series(acc, t, s2))
                if j == last:
                    yield forest + (kids,), left - cost, joined
                else:
                    yield from rec(j + 1, left - cost, forest + (kids,),
                                   joined)

        return rec(0, budget, (), 1 if root else None)

    # a subtree hangs on a slot of 2 edges or more, so costs <= max_edges - 2
    for cost in range(1, max_edges - 1):
        catalog += sorted(
            (cost, (tup, forest), t)
            for w in range(2, cost + 2)
            for tup in _compositions(w) if len(tup) >= 2
            for forest, left, t in strings(tup, cost - (w - 1), False)
            if left == 0)
    _class_memo = {node: t for _, node, t in catalog}
    # the class of each value seen so far: far fewer classes than trees
    classes: dict[Any, ClassPoly] = {}
    for root_edges in range(1, max_edges + 1):
        for tup in _compositions(root_edges):
            for forest, _, value in strings(tup, max_edges - root_edges,
                                            True):
                cls = classes.get(value)
                if cls is None:
                    cls = classes[value] = read(value)
                yield (tup, forest), cls
        # the later root strings have less budget: drop the longer lists
        options.cache_clear()


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def to_json_dict(c: MelonicConstruction) -> dict[str, Any]:
    return {"stages": [{"bananas": list(st.bananas),
                        "parent_stage": st.parent_stage,
                        "parent_banana": st.parent_banana}
                       for st in c.stages]}


def _check_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """Raise ValueError unless obj has exactly these keys."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}")
    if len(obj) < len(keys):
        raise ValueError(f"{where}: needs {', '.join(keys)}")


def from_json_dict(data: Any) -> MelonicConstruction:
    """Parse the construction JSON shape; raises ValueError on bad shape."""
    if not isinstance(data, dict) or "stages" not in data:
        raise ValueError('construction JSON must be {"stages": [...]}')
    _check_keys(data, ("stages",), "construction JSON")
    if not isinstance(data["stages"], list):
        raise ValueError('"stages" must be a list')
    stages = []
    for i, entry in enumerate(data["stages"], start=1):
        if not isinstance(entry, dict):
            raise ValueError(f"stage {i}: must be an object")
        _check_keys(entry, Stage._fields, f"stage {i}")
        if not isinstance(entry["bananas"], list):
            raise ValueError(f"stage {i}: {_TYPES_MESSAGE}")
        stages.append(Stage(**{**entry, "bananas": tuple(entry["bananas"])}))
    return MelonicConstruction(tuple(stages))
