"""Melonic constructions, their multigraphs, and the recursive class algorithm.

A melonic construction is an ordered list of stages (b_s, p_s, k_s): replace
one edge of the k_s-th banana created in stage p_s with a string of bananas
whose sizes are the tuple b_s.  Stage 0 is the initial single edge.  Indices
are 1-based to match that reading: parent_stage 0 means the root edge, and
parent_banana counts entries of the parent tuple from 1.

A construction is checked once, when it is built: the constructor raises
ValueError unless `validate` finds nothing wrong, and converts no value.

A later single-banana stage of size a only widens its parent slot by
a - 1, and a stage on a size-1 banana describes the same graph as its
string spliced into the parent tuple.  The class algorithm accepts any
valid construction and applies both rewrites as it recurses.  `normalize`
gives the canonical form: rewritten, sibling subtrees sorted, stages
numbered depth-first.  A construction is reduced when `normalize` removes
none of its stages.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

from . import families as fam
from .graphalg import Multigraph, _is_int
from .poly import ClassPoly, IntPoly, ONE, mul


class Stage(NamedTuple):
    """One stage; a tuple of stages is also the class memo key."""

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
    """True when `normalize` splices and merges none of the stages of c."""
    return len(normalize(c).stages) == len(c.stages)


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


_class_memo: dict[tuple[Stage, ...], IntPoly] = {}


def _class_rec(key: tuple[Stage, ...]) -> IntPoly:
    hit = _class_memo.get(key)
    if hit is not None:
        return hit

    stages = key
    n = len(stages)
    if n == 1:
        result = ONE
        for a in stages[0][0]:
            result = mul(result, fam.b_poly(a))
    else:
        tup, p, k = stages[-1]
        ptup, pp, pk = stages[p - 1]
        if len(tup) == 1:
            # a single banana in the last stage only widens the parent slot
            a = tup[0]
            merged = Stage(ptup[:k - 1] + (ptup[k - 1] + a - 1,) + ptup[k:],
                           pp, pk)
            result = _class_rec(stages[:p - 1] + (merged,) + stages[p:n - 1])
        elif ptup[k - 1] == 1:
            # the string replaces a lone edge: splice it into the parent and
            # shift the later slots of the parent past it
            spliced = Stage(ptup[:k - 1] + tup + ptup[k:], pp, pk)
            later = tuple(
                Stage(st.bananas, p, st.parent_banana + len(tup) - 1)
                if st.parent_stage == p and st.parent_banana > k else st
                for st in stages[p:n - 1])
            result = _class_rec(stages[:p - 1] + (spliced,) + later)
        elif all(a == 1 for a in tup):
            # a string of r 1-bananas subdivides an edge r-1 times
            result = mul(fam._pow(fam.S_PLUS_2, len(tup) - 1),
                         _class_rec(stages[:-1]))
        else:
            m = max(range(len(tup)), key=lambda i: (tup[i], -i))
            a = tup[m]
            t_one = stages[:-1] + (Stage(tup[:m] + (1,) + tup[m + 1:], p, k),)
            t_del = stages[:-1] + (Stage(tup[:m] + tup[m + 1:], p, k),)
            # the splice branch leaves the parent slot at least two edges
            shrunk = Stage(ptup[:k - 1] + (ptup[k - 1] - 1,) + ptup[k:], pp, pk)
            t_cut = stages[:p - 1] + (shrunk,) + stages[p:n - 1]
            side = ONE
            for i, ai in enumerate(tup):
                if i != m:
                    side = mul(side, fam.b_poly(ai))
            result = (mul(fam.f_poly(a), _class_rec(t_one))
                      + mul(fam.g_poly(a), _class_rec(t_del))
                      + mul(mul(side, fam.h_poly(a)), _class_rec(t_cut)))

    _class_memo[key] = result
    return result


def class_of(c: MelonicConstruction) -> ClassPoly:
    """Grothendieck class of the construction's graph, a polynomial in S.

    Accepts any construction, reduced or not.  Dispatches on the
    last stage: a lone stage is a product of banana classes; a
    single-banana stage merges into its parent; a stage on a size-1
    banana is spliced into its parent; an all-ones stage is a repeated
    edge subdivision; otherwise contraction-deletion on the largest
    banana of the last stage (lowest index on ties).
    """
    return ClassPoly(_class_rec(c.stages))


def serialize(c: MelonicConstruction) -> str:
    """Deterministic compact string form of the exact stage list."""
    return json.dumps(c.stages, separators=(",", ":"))


def deserialize(text: str) -> MelonicConstruction:
    payload = json.loads(text)
    return MelonicConstruction(tuple(Stage(tuple(b), p, k)
                                     for b, p, k in payload))


Node = tuple[tuple[int, ...], tuple[tuple["Node", ...], ...]]


def _to_tree(c: MelonicConstruction) -> Node:
    """Tree of c with strings on size-1 bananas spliced into their parents,
    later single-banana stages merged into their parent slots, and
    siblings sorted.  Built from the last stage back, since a parent
    always comes before its children; each node's tuple is built once, by
    walking the strings spliced into it in order."""
    stages = c.stages
    sizes = [list(st.bananas) for st in stages]
    kids: list[list[list[Node]]] = [[[] for _ in st.bananas]
                                    for st in stages]
    # (stage, slot) of a size-1 banana -> the stage spliced in there
    splice: dict[tuple[int, int], int] = {}
    for idx in range(len(stages) - 1, -1, -1):
        p, k = stages[idx].parent_stage - 1, stages[idx].parent_banana - 1
        if idx and stages[p].bananas[k] == 1:
            splice[(p, k)] = idx
            continue
        tup: list[int] = []
        forest: list[tuple[Node, ...]] = []
        walk = [(idx, 0)]
        while walk:
            i, j = walk.pop()
            if j < len(stages[i].bananas):
                walk.append((i, j + 1))
                if (i, j) in splice:
                    walk.append((splice[(i, j)], 0))
                else:
                    tup.append(sizes[i][j])
                    forest.append(tuple(sorted(kids[i][j])))
        if idx and len(tup) == 1:
            # a single banana of size a widens the parent slot by a - 1
            sizes[p][k] += tup[0] - 1
            kids[p][k].extend(forest[0])
            continue
        node = (tuple(tup), tuple(forest))
        if idx:
            kids[p][k].append(node)
    return node


def _linearize(root: Node) -> MelonicConstruction:
    """Number the stages of a tree depth-first, siblings in order."""
    stages: list[Stage] = []
    stack: list[tuple[Node, int, int]] = [(root, 0, 1)]
    while stack:
        (tup, forest), p, k = stack.pop()
        stages.append(Stage(tup, p, k))
        stack.extend((child, len(stages), j)
                     for j in range(len(forest), 0, -1)
                     for child in reversed(forest[j - 1]))
    return MelonicConstruction(tuple(stages))


def normalize(c: MelonicConstruction) -> MelonicConstruction:
    """The canonical form of c: reduced, sibling subtrees sorted, stages
    numbered depth-first.  Equivalent constructions share it; idempotent."""
    return _linearize(_to_tree(c))


def enumerate_constructions(max_edges: int) -> Iterator[MelonicConstruction]:
    """Every reduced valid construction with at most max_edges edges.

    Each construction is emitted exactly once, already in canonical form:
    sibling subtrees attached to the same banana appear sorted, and stages
    are numbered in depth-first order.  Stages after the first always add
    at least two bananas; a later single-banana stage only widens its
    parent slot, so those spellings are redundant with a shorter one.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")

    @functools.cache
    def catalog(budget: int) -> list[tuple[int, Node]]:
        """Every subtree costing 1..budget edges, as sorted (cost, node)."""
        return sorted((budget - left, (tup, forest))
                      for w in range(2, budget + 2)
                      for tup in _compositions(w) if len(tup) >= 2
                      for forest, left in forests(tup, budget - (w - 1)))

    def forests(tup: tuple[int, ...], budget: int
                ) -> Iterator[tuple[tuple[tuple[Node, ...], ...], int]]:
        """Each way to hang sorted catalog subtrees on the slots of tup
        within budget, with the budget it leaves.  A banana of size a >= 2
        takes at most a children, a 1-banana none."""
        cands = catalog(budget)

        def rec(j: int, start: int, kids: tuple[Node, ...], left: int
                ) -> Iterator[tuple[tuple[tuple[Node, ...], ...], int]]:
            if j == len(tup):
                yield (), left
                return
            # close slot j before growing it: callers sample this order
            closed = tuple(sorted(kids))
            for rest, rest_left in rec(j + 1, 0, (), left):
                yield (closed,) + rest, rest_left
            if tup[j] >= 2 and len(kids) < tup[j]:
                for i in range(start, len(cands)):
                    cost, node = cands[i]
                    if cost > left:
                        break
                    yield from rec(j, i, kids + (node,), left - cost)

        return rec(0, 0, (), budget)

    for w1 in range(1, max_edges + 1):
        for tup in _compositions(w1):
            for forest, _ in forests(tup, max_edges - w1):
                yield _linearize((tup, forest))


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
