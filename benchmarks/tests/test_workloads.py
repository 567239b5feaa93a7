"""Tests of the benchmark's own input generators and failure accounting.

Run from the repository root: python -m pytest benchmarks/tests -q
"""

import random

import pytest

import rep
import workloads
from melonclass import melonic
from melonclass.poly import ClassPoly

SEEDS = (1, 2, 97)


def _connected(edges):
    vertices = {v for e in edges for v in e}
    seen, todo = set(), [min(vertices)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [b if a == v else a for a, b in edges if v in (a, b)]
    return seen == vertices == set(range(max(vertices) + 1))


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_constructions_are_valid_reduced_and_sized(seed, tmp_path):
    items = workloads.Verify(seed, str(tmp_path)).items
    shapes = [(e, k) for e, n in workloads.VERIFY_MIX
              for k in workloads.VERIFY_STAGES
              for _ in range(n // len(workloads.VERIFY_STAGES))]
    assert [(c.num_edges(), len(c.stages)) for c in items] == shapes
    for c in items:
        assert melonic.validate(c) == []
        assert melonic.is_reduced(c)


@pytest.mark.parametrize("seed", SEEDS)
def test_deep_constructions_are_valid_reduced_and_sized(seed, tmp_path):
    items = workloads.Classes(seed, str(tmp_path)).items
    deep = [c for kind, *rest in items if kind == "deep" for c in rest]
    assert len(deep) == workloads.DEEP_ITEMS
    lo, hi = workloads.DEEP_STAGES
    for c in deep:
        assert melonic.validate(c) == []
        assert melonic.is_reduced(c)
        assert c.num_edges() == workloads.DEEP_EDGES
        assert lo <= len(c.stages) <= hi


def test_random_construction_other_shapes():
    rng = random.Random(5)
    for edges in range(2, 25):
        for stages in range(1, edges // 3 + 2):
            c = workloads.random_construction(rng, edges, stages)
            assert melonic.validate(c) == []
            assert melonic.is_reduced(c)
            assert (c.num_edges(), len(c.stages)) == (edges, stages)


def test_random_construction_gives_up_on_impossible_shapes():
    with pytest.raises(ValueError):
        workloads.random_construction(random.Random(5), 24, 23)


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_graphs_are_connected_and_written(seed, tmp_path):
    wl = workloads.Oracle(seed, str(tmp_path))
    shapes = [(e, v) for e, n in workloads.ORACLE_MIX
              for v in workloads.ORACLE_VERTICES
              for _ in range(n // len(workloads.ORACLE_VERTICES))]
    assert [(len(g), 1 + max(max(e) for e in g)) for g in wl.graphs] == shapes
    for edges, path in zip(wl.graphs, wl.items):
        assert _connected(edges)
        with open(path, encoding="utf-8") as fh:
            assert fh.read().split() == [str(v) for e in edges for v in e]


def test_k4_minor_on_known_graphs():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    subdivided = [(0, 4), (4, 1), (0, 2), (0, 5), (5, 3), (1, 2), (1, 3),
                  (2, 6), (6, 3)]
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert workloads.has_k4_minor(k4)
    assert workloads.has_k4_minor(subdivided)
    assert workloads.has_k4_minor(k33)
    assert workloads.has_k4_minor(k4 + [(0, 0), (1, 2), (3, 4)])
    assert not workloads.has_k4_minor(k4[:5])
    assert not workloads.has_k4_minor([(0, 1), (1, 2), (2, 0), (0, 0),
                                       (1, 2), (2, 3)])
    assert not workloads.has_k4_minor([(0, 0)])


def test_melonic_graphs_have_no_k4_minor(tmp_path):
    for c in workloads.Verify(1, str(tmp_path)).items:
        assert not workloads.has_k4_minor(melonic.to_graph(c).edges)


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_graphs_split_evenly_by_k4_minor(seed, tmp_path):
    wl = workloads.Oracle(seed, str(tmp_path))
    cells: dict = {}
    for g in wl.graphs:
        cell = cells.setdefault((len(g), 1 + max(max(e) for e in g)), [0, 0])
        cell[workloads.has_k4_minor(g)] += 1
    assert all(without == with_ for without, with_ in cells.values())
    assert wl.sizes()["k4_minor"] == len(wl.graphs) // 2


@pytest.mark.parametrize("cls", [workloads.Verify, workloads.Classes,
                                 workloads.Oracle])
def test_same_seed_same_inputs(cls, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        wl = cls(seed, str(tmp_path / sub))
        return repr(getattr(wl, "graphs", wl.items))

    first = inputs(3, "a")
    assert inputs(3, "b") == first
    assert inputs(4, "c") != first


def test_wrong_expected_count_is_a_failure(tmp_path, monkeypatch):
    items = workloads.Verify(1, str(tmp_path)).items[:3]
    wl = workloads.Verify(1, str(tmp_path))
    assert rep.run_items(items, wl.run_item)["problems"] == {}

    right = ClassPoly.eval_at_field_size
    monkeypatch.setattr(ClassPoly, "eval_at_field_size",
                        lambda self, q: right(self, q) + (q == 3))
    done = rep.run_items(items, wl.run_item)
    assert sorted(done["problems"]) == [0, 1, 2]
    assert all("q=3" in p for p in done["problems"].values())


def test_exception_is_a_failure():
    def boom(item):
        if item == 1:
            raise ValueError("bad item")
        return item, None

    done = rep.run_items([0, 1, 2], boom)
    assert done["outputs"] == [0, None, 2]
    assert list(done["problems"]) == [1]
    assert "bad item" in done["problems"][1]


def test_oracle_direct_check_flags_a_wrong_count(tmp_path):
    wl = workloads.Oracle(1, str(tmp_path))
    wl.items, wl.graphs = wl.items[:2], wl.graphs[:2]
    outputs = [wl.run_item(path)[0] for path in wl.items]
    assert wl.direct_problems(outputs) == {}
    outputs[1]["counts"]["2"] += 1
    assert list(wl.direct_problems(outputs)) == [1]
