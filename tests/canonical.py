"""The canonical form of a melonic construction, kept as a reference for
the enumeration and for `melonic.is_reduced`.

A later single-banana stage of size a only widens its parent slot by
a - 1, and a stage on a size-1 banana describes the same graph as its
string spliced into the parent tuple.  `normalize` applies both
rewrites, sorts sibling subtrees and numbers the stages depth-first
(`melonic.linearize`).  `enumerate_constructions` yields exactly these
forms, as the trees `to_tree` gives.
"""

from __future__ import annotations

from melonclass.melonic import MelonicConstruction, Node, linearize


def to_tree(c: MelonicConstruction) -> Node:
    """Canonical tree of c: strings on size-1 bananas spliced into their
    parents, later single-banana stages merged into their parent slots,
    and siblings sorted.  Built from the last stage back, since a parent
    always comes before its children; each node's tuple is built once,
    by walking the strings spliced into it in order.  The siblings are
    sorted afterwards, by `_sort_siblings`."""
    stages = c.stages
    sizes = [list(st.bananas) for st in stages]
    kids: list[list[list[tuple]]] = [[[] for _ in st.bananas]
                                     for st in stages]
    # (stage, slot) of a size-1 banana -> the stage spliced in there
    splice: dict[tuple[int, int], int] = {}
    for idx in range(len(stages) - 1, -1, -1):
        p, k = stages[idx].parent_stage - 1, stages[idx].parent_banana - 1
        if idx and stages[p].bananas[k] == 1:
            splice[(p, k)] = idx
            continue
        tup: list[int] = []
        forest: list[list[tuple]] = []
        walk = [(idx, 0)]
        while walk:
            i, j = walk.pop()
            if j < len(stages[i].bananas):
                walk.append((i, j + 1))
                if (i, j) in splice:
                    walk.append((splice[(i, j)], 0))
                else:
                    tup.append(sizes[i][j])
                    forest.append(kids[i][j])
        if idx and len(tup) == 1:
            # a single banana of size a widens the parent slot by a - 1
            sizes[p][k] += tup[0] - 1
            kids[p][k].extend(forest[0])
            continue
        node = (tuple(tup), forest)
        if idx:
            kids[p][k].append(node)
    return _sort_siblings(node)


def _sort_siblings(root: tuple) -> Node:
    """The tree of root, whose forests are unsorted lists, with its
    siblings sorted.  The nodes are ranked one depth at a time from the
    deepest up: a node's key is its tuple and the sorted ranks of its
    children, which orders the nodes of one depth as their trees compare.
    So a sort compares ranks and never recurses into a subtree, and equal
    subtrees at one depth are one object."""
    depths = [[root]]
    while depths[-1]:
        depths.append([kid for _, forest in depths[-1]
                       for sibs in forest for kid in sibs])
    ranked: dict[int, tuple[int, Node]] = {}
    for level in reversed(depths[:-1]):
        nodes: dict[tuple, Node] = {}
        keys = []
        for tup, forest in level:
            # equal ranks are one object, so no sort compares two trees
            slots = [sorted(ranked[id(kid)] for kid in sibs)
                     for sibs in forest]
            key = (tup, tuple(tuple(r for r, _ in sibs) for sibs in slots))
            nodes.setdefault(key, (tup, tuple(tuple(node for _, node in sibs)
                                              for sibs in slots)))
            keys.append(key)
        rank = {key: r for r, key in enumerate(sorted(nodes))}
        ranked = {id(raw): (rank[key], nodes[key])
                  for raw, key in zip(level, keys)}
    return ranked[id(root)][1]


def normalize(c: MelonicConstruction) -> MelonicConstruction:
    """The canonical form of c: reduced, sibling subtrees sorted, stages
    numbered depth-first.  Equivalent constructions share it; idempotent."""
    return linearize(to_tree(c))
