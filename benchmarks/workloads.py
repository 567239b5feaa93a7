"""Seeded inputs and per-item work for the four benchmark workloads.

Every workload is a closed loop: one caller runs one item at a time and
waits for it.  Inputs come only from the seed; the program under test
receives the generated inputs and nothing else.  Each item returns an
output (hashed into the workload's digest) and a problem string, which is
None when the item's independent check passed.

Import this module only after `src/` is on `sys.path` (rep.py does that).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Any

from melonclass import cli, concavity, families, graphalg, melonic

PRIMES = (2, 3, 5)

# `melon search --max-edges 9` checks this many constructions.  At 10
# edges (45,714 constructions) one call takes 4-7 s, so too few calls fit
# in a run for their best time to be steady (see README.md, "Noise").
SEARCH_MAX_EDGES = 9
SEARCH_CONSTRUCTIONS = 11_756

# (edge count, items) per workload.  Two small items for each large one
# keeps the median inside the 9-edge group and the 90th percentile inside
# the 10-edge group, so neither percentile sits on the boundary between
# the groups, where it would jump from seed to seed.
VERIFY_MIX = ((9, 80), (10, 40))
# Each edge count is split evenly over these stage counts: a one-stage
# construction (a string of bananas) costs about half as much as a deeper
# one, so a seed-dependent share of them would move the totals.
VERIFY_STAGES = (1, 2, 3, 4)
ORACLE_MIX = ((9, 80), (10, 40))
ORACLE_VERTICES = (4, 5, 6, 7)  # split evenly, as VERIFY_STAGES
# Uniform draws are mostly free of a K4 minor (only 5-24% have one,
# depending on the edge and vertex counts), so each (edges, vertices)
# cell is drawn by rejection until half of its graphs have a K4 minor and
# half do not.  A fast path for series-parallel graphs then speeds up
# only half of the workload.

DEEP_ITEMS = 300
DEEP_EDGES = 40
DEEP_STAGES = (10, 15)
NECKLACE_M = range(1, 13)
NECKLACE_N = range(2, 13)

MAX_DRAWS = 10_000


def composition(rng: random.Random, total: int,
                min_parts: int = 1) -> tuple[int, ...]:
    """A uniformly random composition of `total` with at least
    `min_parts` parts (rejection sampling; each of the total - 1 gaps is
    a cut with probability 1/2)."""
    if total < min_parts:
        raise ValueError(f"{total} has no composition into {min_parts} parts")
    while True:
        parts = [1]
        for _ in range(total - 1):
            if rng.random() < 0.5:
                parts.append(1)
            else:
                parts[-1] += 1
        if len(parts) >= min_parts:
            return tuple(parts)


def random_construction(rng: random.Random, num_edges: int,
                        num_stages: int) -> melonic.MelonicConstruction:
    """A random reduced construction with exactly `num_edges` edges and
    `num_stages` stages.

    The edges are split among the stages first: stage 1 owns at least 2
    and every later stage adds at least 1.  A later stage replaces one
    edge of a banana of size >= 2 that still has an edge to spare with a
    string of at least two bananas, so the result is reduced.  A draw
    that runs out of such bananas is discarded and drawn again, up to
    MAX_DRAWS times.
    """
    if num_stages < 1 or num_edges < num_stages + (num_stages > 1):
        raise ValueError(f"no construction with {num_edges} edges "
                         f"in {num_stages} stages")
    for _ in range(MAX_DRAWS):
        if num_stages == 1:
            shares = [num_edges]
        else:
            cuts = sorted(rng.sample(range(1, num_edges - 1), num_stages - 1))
            shares = [b - a for a, b in zip([0] + cuts, cuts + [num_edges - 1])]
            shares[0] += 1
        stages = [melonic.Stage(composition(rng, shares[0]), 0, 1)]
        used: dict[tuple[int, int], int] = {}
        for added in shares[1:]:
            slots = [(s, j)
                     for s, st in enumerate(stages, start=1)
                     for j, size in enumerate(st.bananas, start=1)
                     if size >= 2 and used.get((s, j), 0) < size]
            if not slots:
                break
            slot = rng.choice(slots)
            used[slot] = used.get(slot, 0) + 1
            stages.append(melonic.Stage(composition(rng, added + 1, 2), *slot))
        else:
            return melonic.MelonicConstruction(tuple(stages))
    raise ValueError(f"no reduced construction with {num_edges} edges in "
                     f"{num_stages} stages after {MAX_DRAWS} draws")


def random_multigraph(rng: random.Random, num_edges: int,
                      num_vertices: int) -> list[tuple[int, int]]:
    """A random connected multigraph as an edge list on vertices
    0..num_vertices-1: a random spanning tree plus uniformly random extra
    edges, loops and parallel edges allowed, in shuffled order."""
    if num_edges < num_vertices - 1:
        raise ValueError("too few edges to connect the vertices")
    label = list(range(num_vertices))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)])
             for v in range(1, num_vertices)]
    while len(edges) < num_edges:
        edges.append((rng.randrange(num_vertices), rng.randrange(num_vertices)))
    rng.shuffle(edges)
    return edges


def has_k4_minor(edges: list[tuple[int, int]]) -> bool:
    """True if the multigraph has a K4 minor, that is, if one of its
    blocks is not series-parallel.

    Loops and parallel edges are dropped; then vertices of degree <= 1
    are deleted and vertices of degree 2 are replaced by an edge between
    their neighbours.  These steps keep a K4 minor and never make one.
    The graph has none if they delete every vertex; otherwise they stop
    at a simple graph of minimum degree >= 3, which has one (Dirac 1952).
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set())
        adj.setdefault(v, set())
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    while adj:
        v = next((w for w, nbrs in adj.items() if len(nbrs) <= 2), None)
        if v is None:
            return True
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
    return False


def split_multigraphs(rng: random.Random, num_edges: int, num_vertices: int,
                      count: int) -> list[list[tuple[int, int]]]:
    """`count` random connected multigraphs (as `random_multigraph`),
    count // 2 of them with a K4 minor and the rest without, in the order
    they were drawn.  Gives up after MAX_DRAWS draws."""
    wanted = {True: count // 2, False: count - count // 2}
    graphs: list[list[tuple[int, int]]] = []
    for _ in range(MAX_DRAWS):
        edges = random_multigraph(rng, num_edges, num_vertices)
        k4 = has_k4_minor(edges)
        if wanted[k4]:
            wanted[k4] -= 1
            graphs.append(edges)
            if len(graphs) == count:
                return graphs
    raise ValueError(f"no even split of {count} graphs with {num_edges} "
                     f"edges on {num_vertices} vertices after {MAX_DRAWS} "
                     "draws")


def necklace_construction(kind: str, m: int,
                          n: int) -> melonic.MelonicConstruction:
    """The construction whose graph is the plain or clasped necklace: an
    (m+1)-banana with one edge replaced by a string of bananas."""
    if kind == "clasped":
        string = (1,) + (m,) * (n - 2) if n > 2 else (1,)
    else:
        string = (m,) * (n - 1)
    return melonic.MelonicConstruction(
        (melonic.Stage((m + 1,), 0, 1), melonic.Stage(string, 1, 1)))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Search:
    """One `melon search --max-edges 9` call.  The input does not depend
    on the seed; the item is the whole call, and its output is the search
    JSON without the `elapsed` field."""

    name = "search"
    units_per_item = SEARCH_CONSTRUCTIONS

    def __init__(self, seed: int, workdir: str, workers: int = 1) -> None:
        self.items = [workers]

    def run_item(self, workers: int) -> tuple[Any, str | None]:
        code, text = _cli(["search", "--max-edges", str(SEARCH_MAX_EDGES),
                           "--workers", str(workers)])
        result = json.loads(text)
        result.pop("elapsed")
        if code != 0:
            return result, f"exit code {code}"
        if result["constructions_checked"] != SEARCH_CONSTRUCTIONS:
            return result, (f"checked {result['constructions_checked']} "
                            f"constructions, expected {SEARCH_CONSTRUCTIONS}")
        if result["counterexamples"]:
            return result, (f"{len(result['counterexamples'])} "
                            "counterexamples, expected none")
        return result, None

    def sizes(self) -> dict[str, Any]:
        return {"items": 1, "max_edges": SEARCH_MAX_EDGES,
                "constructions": SEARCH_CONSTRUCTIONS}


def count_problem(counts: dict[int, int], expected: dict[int, int]) -> str | None:
    """Mismatches between point counts and the values they should equal."""
    bad = [f"q={q}: counted {counts[q]}, expected {expected[q]}"
           for q in sorted(counts) if counts[q] != expected[q]]
    return "; ".join(bad) or None


class Verify:
    """Random reduced constructions with 9 and 10 edges: class, graph,
    and point counts at q = 2, 3, 5 against the class at S = q - 2."""

    name = "verify"
    units_per_item = 1

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"verify-{seed}")
        self.items = [random_construction(rng, e, k)
                      for e, count in VERIFY_MIX
                      for k in VERIFY_STAGES
                      for _ in range(count // len(VERIFY_STAGES))]

    def run_item(self, c: melonic.MelonicConstruction) -> tuple[Any, str | None]:
        cls = melonic.class_of(c)
        g = melonic.to_graph(c)
        counts = {q: graphalg.count_complement_points(g, q) for q in PRIMES}
        expected = {q: cls.eval_at_field_size(q) for q in PRIMES}
        return ([list(cls.poly.coeffs), [counts[q] for q in PRIMES]],
                count_problem(counts, expected))

    def sizes(self) -> dict[str, Any]:
        return {"items": len(self.items),
                "edges": {str(e): n for e, n in VERIFY_MIX},
                "stages": list(VERIFY_STAGES),
                "points": sum(q ** c.num_edges()
                              for c in self.items for q in PRIMES)}


class Classes:
    """Deep random constructions through `class_of`, then plain and
    clasped necklaces on a fixed (m, n) grid by closed form and by the
    construction recursion.  Every class is LC-checked; the verdict is
    part of the output, not a failure."""

    name = "classes"
    units_per_item = 1

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"classes-{seed}")
        deep = [("deep", random_construction(rng, DEEP_EDGES,
                                             rng.randint(*DEEP_STAGES)))
                for _ in range(DEEP_ITEMS)]
        necklaces = [(kind, m, n) for m in NECKLACE_M for n in NECKLACE_N
                     for kind in ("plain", "clasped")]
        self.items = deep + necklaces

    def run_item(self, item: tuple) -> tuple[Any, str | None]:
        if item[0] == "deep":
            c = item[1]
            coeffs = melonic.class_of(c).poly.coeffs
            lc, _ = concavity.check_lc(coeffs)
            problem = None
            if len(coeffs) - 1 != c.num_edges():
                problem = f"degree {len(coeffs) - 1} != {c.num_edges()} edges"
            elif not all(a > 0 for a in coeffs):
                problem = "a coefficient is not positive"
            return [list(coeffs), lc], problem
        kind, m, n = item
        closed = (families.clasped_necklace_class(m, n) if kind == "clasped"
                  else families.necklace_class(m, n))
        recursed = melonic.class_of(necklace_construction(kind, m, n))
        coeffs = closed.poly.coeffs
        lc, _ = concavity.check_lc(coeffs)
        problem = (None if recursed.poly == closed.poly else
                   f"{kind} necklace m={m} n={n}: closed form differs "
                   "from the construction recursion")
        return [list(coeffs), lc], problem

    def sizes(self) -> dict[str, Any]:
        return {"items": len(self.items), "deep": DEEP_ITEMS,
                "deep_edges": DEEP_EDGES, "deep_stages": list(DEEP_STAGES),
                "necklace_m": [NECKLACE_M.start, NECKLACE_M.stop - 1],
                "necklace_n": [NECKLACE_N.start, NECKLACE_N.stop - 1]}


class Oracle:
    """Random connected multigraphs with 9 and 10 edges on 4-7 vertices,
    half with a K4 minor and half series-parallel in each (edges,
    vertices) cell, written as edge-list files during set-up and counted
    by `melon oracle PATH --format json` at q = 2, 3, 5."""

    name = "oracle"
    units_per_item = 1

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"oracle-{seed}")
        self.graphs = [edges
                       for e, count in ORACLE_MIX
                       for v in ORACLE_VERTICES
                       for edges in split_multigraphs(
                           rng, e, v, count // len(ORACLE_VERTICES))]
        self.items = []
        for i, edges in enumerate(self.graphs):
            path = os.path.join(workdir, f"graph{i:03d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{u} {v}\n" for u, v in edges))
            self.items.append(path)

    def run_item(self, path: str) -> tuple[Any, str | None]:
        code, text = _cli(["oracle", path, "--format", "json"])
        if code != 0:
            return None, f"exit code {code}"
        result = json.loads(text)
        counts = {int(q): n for q, n in result["counts"].items()}
        bad = [q for q in PRIMES if counts[q] % (q - 1)]
        problem = (f"counts at q={bad} not divisible by q - 1" if bad
                   else None)
        return result, problem

    def direct_problems(self, outputs: list) -> dict[int, str]:
        """Untimed check: every q = 2 count equals the count of the
        spanning-tree reference method.  Keyed by item index."""
        problems = {}
        for i, (edges, out) in enumerate(zip(self.graphs, outputs)):
            if out is None:
                continue
            g = melonic.Multigraph(1 + max(max(e) for e in edges), tuple(edges))
            direct = graphalg.count_complement_points(g, 2, method="direct")
            if direct != out["counts"]["2"]:
                problems[i] = (f"q=2 count {out['counts']['2']} != "
                               f"{direct} by the direct method")
        return problems

    def sizes(self) -> dict[str, Any]:
        return {"items": len(self.items),
                "edges": {str(e): n for e, n in ORACLE_MIX},
                "vertices": list(ORACLE_VERTICES),
                "k4_minor": sum(map(has_k4_minor, self.graphs)),
                "points": sum(q ** len(edges)
                              for edges in self.graphs for q in PRIMES)}


WORKLOADS = {w.name: w for w in (Search, Verify, Classes, Oracle)}
