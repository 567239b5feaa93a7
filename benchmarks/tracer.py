"""Spans around calls into the library's public functions, recorded from
outside: `install` swaps each traced function for a timing wrapper on its
module (or class), `uninstall` puts the originals back.  Nothing under
`src/` changes.  Calls the library makes between its own public functions
go through the module attribute too, so they appear as nested spans.

A span is (name, start, end, parent index, item id).  Spans stay in
memory until the repetition ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from melonclass import cli, concavity, families, graphalg, melonic, poly

# The layers whose time counts as attributed in trace.coverage; `cli` is
# the caller of these and its self time is reported on its own.
LIBRARY_LAYERS = ("poly.", "families.", "melonic.", "graphalg.", "concavity")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.item: Any = None
        self.enumerated = 0
        self.points = 0
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _start(self, name: str) -> tuple[int, int, float]:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.item))
        self._open.append(idx)
        return idx, parent, time.perf_counter()

    def _end(self, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans[idx] = (self.spans[idx][0], start, end, parent,
                           self.spans[idx][4])

    def _wrap(self, owner: Any, attr: str,
              label: str | Callable[..., str]) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = label(*args, **kwargs) if callable(label) else label
            idx, parent, start = tracer._start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(idx, parent, start)

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _wrap_enumeration(self) -> None:
        """One span from the call until the generator is exhausted; the
        consumer (`cmd_search`'s `list(...)`) makes no calls in between."""
        fn = melonic.enumerate_constructions
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx, parent, start = tracer._start("melonic.enumerate")
            try:
                for c in fn(*args, **kwargs):
                    tracer.enumerated += 1
                    yield c
            finally:
                tracer._end(idx, parent, start)

        self._saved.append((melonic, "enumerate_constructions", fn))
        melonic.enumerate_constructions = traced

    def _count_label(self, g: melonic.Multigraph, q: int, *args: Any,
                     **kwargs: Any) -> str:
        self.points += q ** len(g.edges)
        return f"graphalg.count.q{q}"

    def install(self) -> None:
        self._wrap_enumeration()
        self._wrap(melonic, "serialize", "melonic.serde")
        self._wrap(melonic, "deserialize", "melonic.serde")
        self._wrap(melonic, "class_of", "melonic.class")
        self._wrap(melonic, "to_graph", "melonic.to_graph")
        self._wrap(graphalg, "count_complement_points", self._count_label)
        self._wrap(graphalg, "from_edge_list", "graphalg.parse")
        self._wrap(families, "necklace_class", "families.necklace")
        self._wrap(families, "clasped_necklace_class", "families.clasped")
        for fn in ("check_lc", "check_ulc", "check_ulc_order",
                   "check_unimodal_and_zeros", "analyze"):
            self._wrap(concavity, fn, "concavity")
        self._wrap(poly.ClassPoly, "eval_at_field_size", "poly.eval")
        self._wrap(cli, "main", lambda argv=None, *a, **k: f"cli.{argv[0]}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        """One JSON list per line: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced repetition.

        busy_s counts a span only when no enclosing span has the same
        name, so recursion within one layer is not counted twice.  A
        span's self time is its length minus that of its direct children.
        trace.coverage is the share of `wall_s` inside library spans.
        """
        spans = self.spans
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        child_s = [0.0] * len(spans)
        covered = 0.0
        for name, start, end, parent, _ in spans:
            length = end - start
            calls[name] += 1
            self_s[name] += length
            if parent >= 0:
                child_s[parent] += length
            names = set()
            p = parent
            while p >= 0:
                names.add(spans[p][0])
                p = spans[p][3]
            if name not in names:
                busy[name] += length
            if (name.startswith(LIBRARY_LAYERS)
                    and not any(n.startswith(LIBRARY_LAYERS) for n in names)):
                covered += length
        for (name, *_), sub in zip(spans, child_s):
            self_s[name] -= sub
        count_s = sum(v for k, v in busy.items()
                      if k.startswith("graphalg.count."))
        metrics = {
            "melonic.enumerate.busy_s": busy["melonic.enumerate"],
            "melonic.enumerate.items": self.enumerated,
            "melonic.serde.busy_s": busy["melonic.serde"],
            "melonic.class.busy_s": busy["melonic.class"],
            "melonic.class.calls": calls["melonic.class"],
            "melonic.to_graph.busy_s": busy["melonic.to_graph"],
            "graphalg.count.q2.busy_s": busy["graphalg.count.q2"],
            "graphalg.count.q3.busy_s": busy["graphalg.count.q3"],
            "graphalg.count.q5.busy_s": busy["graphalg.count.q5"],
            "graphalg.count.calls": sum(v for k, v in calls.items()
                                        if k.startswith("graphalg.count.")),
            "graphalg.count.points": self.points,
            "graphalg.count.points_per_s": (self.points / count_s
                                            if count_s else 0.0),
            "graphalg.parse.busy_s": busy["graphalg.parse"],
            "families.necklace.busy_s": busy["families.necklace"],
            "families.clasped.busy_s": busy["families.clasped"],
            "concavity.busy_s": busy["concavity"],
            "concavity.calls": calls["concavity"],
            "poly.eval.busy_s": busy["poly.eval"],
            "cli.search.self_s": self_s["cli.search"],
            "cli.oracle.self_s": self_s["cli.oracle"],
            "trace.coverage": covered / wall_s,
        }
        if hasattr(melonic, "_class_memo"):
            metrics["melonic.class.memo_entries"] = len(melonic._class_memo)
        return metrics
