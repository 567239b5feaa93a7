"""Command-line surface: family tables, class computation, necklace
closed forms, the log-concavity search harness, and direct point counting.

Exit codes: 0 success, 1 oracle or cross-check mismatch, 2 usage error,
3 invalid input (construction or graph file, or one too deep or too
large to process), 4 point budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import concavity, families, graphalg, melonic
from .poly import ClassPoly, IntPoly, shift_var

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4

FAMILY_ORDER = ("f", "g", "h", "b")

# offset of each output variable from S, the library's one variable
BASES = {"S": 0, "T": 1, "L": 2}


def _coeff_list(p: IntPoly, basis: str) -> list[int]:
    return list(shift_var(p, -BASES[basis]).coeffs)


@contextlib.contextmanager
def _any_digits():
    """Lift the int-to-str digit limit, which guards parsers, in a block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_any_digits()
def _fmt_coeffs(coeffs: list[int]) -> str:
    return "[" + ", ".join(str(a) for a in coeffs) + "]"


def _parse_primes(text: str) -> list[int]:
    """The integers of a comma-separated list; `main` checks each against
    the point budget and for primality once the budget is known."""
    try:
        primes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if len(set(primes)) < len(primes):
        raise argparse.ArgumentTypeError(
            f"primes must be distinct, got {text!r}")
    return primes


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    except ValueError:
        lo, hi = 1, 0
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(
            f"expected m or lo..hi with integers 0 <= lo <= hi, got {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


@_any_digits()
def _report(args: argparse.Namespace, payload: dict,
            lines: list[str]) -> tuple[int, str]:
    """A command's exit code, EXIT_MISMATCH if a check in payload failed,
    and its text: payload as JSON under --format json, else the lines."""
    matched = payload.get("construction_match", True) and all(
        row["match"] for row in payload.get("verify", ()))
    text = (json.dumps(payload, indent=2) if args.format == "json"
            else "\n".join(lines))
    return (EXIT_OK if matched else EXIT_MISMATCH), text


def cmd_family(args: argparse.Namespace) -> tuple[int, str]:
    p = families.family_poly(args.family, args.m, args.n)
    return EXIT_OK, _fmt_coeffs(_coeff_list(p, args.basis))


def _table_rows(family: str, lo: int, hi: int,
                which: str) -> list[dict]:
    rows = []
    for m in range(lo, hi + 1):
        coeffs = families.family_poly(family, m).coeffs
        if which == "ulc":
            ok, fails = concavity.check_ulc(coeffs)
        else:
            ok, fails = concavity.check_ulc_order(coeffs, max(m, 1))
        rows.append({"m": m, "coefficients": list(coeffs) or [0],
                     "verdict": ok, "failing_degrees": fails})
    return rows


def _render_tables_md(tables: dict[str, list[dict]], which: str) -> str:
    label = "ULC" if which == "ulc" else "ULC(m)"
    out = []
    for name, rows in tables.items():
        out.append(f"## {name} ({label})")
        out.append("")
        cells = [["m", "coefficients", label, "failing degrees"]]
        for r in rows:
            fail = ("{" + ",".join(str(d) for d in r["failing_degrees"]) + "}"
                    if r["failing_degrees"] else "-")
            cells.append([str(r["m"]), _fmt_coeffs(r["coefficients"]),
                          "yes" if r["verdict"] else "no", fail])
        widths = [max(len(row[i]) for row in cells) for i in range(4)]
        for i, row in enumerate(cells):
            out.append("| " + " | ".join(c.ljust(w)
                                         for c, w in zip(row, widths)) + " |")
            if i == 0:
                out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        out.append("")
    return "\n".join(out)


def cmd_tables(args: argparse.Namespace) -> tuple[int, str]:
    lo, hi = args.m
    tables = {family: _table_rows(family, lo, hi, args.which)
              for family in FAMILY_ORDER}
    payload = {"which": args.which, "m_lo": lo, "m_hi": hi,
               "families": tables}
    return _report(args, payload, [_render_tables_md(tables, args.which)])


def _count(g: graphalg.Multigraph, primes: list[int],
           budget: int) -> dict[int, int]:
    """The complement point counts of g at each prime, within the point
    budget: the one path by which a command counts."""
    return {q: graphalg.count_complement_points(g, q, budget=budget)
            for q in primes}


def _verify(counts: dict[int, int],
            cls: ClassPoly) -> tuple[list[dict], list[str]]:
    """Each count set against cls at its field size: one
    {q, counted, expected, match} row, and one line, a prime."""
    rows = []
    for q, counted in counts.items():
        expected = cls.eval_at_field_size(q)
        rows.append({"q": q, "counted": counted, "expected": expected,
                     "match": counted == expected})
    return rows, [f"q={r['q']}: counted {r['counted']}, expected "
                  f"{r['expected']} -> {'match' if r['match'] else 'MISMATCH'}"
                  for r in rows]


def cmd_class(args: argparse.Namespace) -> tuple[int, str]:
    with open(args.construction, "r", encoding="utf-8") as fh:
        c = melonic.from_json_dict(json.load(fh))
    # count first: a count over the budget stops before any class work
    counts = (_count(melonic.to_graph(c), args.verify, args.budget)
              if args.verify else {})
    cls = melonic.class_of(c)
    coeffs = _coeff_list(cls.poly, args.basis)
    payload: dict = {"coefficients": coeffs, "basis": args.basis}
    lines = [_fmt_coeffs(coeffs)]
    if args.verify:
        payload["verify"], checked = _verify(counts, cls)
        lines += checked
    return _report(args, payload, lines)


def _necklace_construction(kind: str, m: int,
                           n: int) -> melonic.MelonicConstruction:
    if kind == "clasped":
        tup = (1,) + (m,) * (n - 2) if n > 2 else (1,)
    else:
        tup = (m,) * (n - 1)
    return melonic.MelonicConstruction(
        (melonic.Stage((m + 1,), 0, 1), melonic.Stage(tup, 1, 1)))


def cmd_necklace(args: argparse.Namespace) -> tuple[int, str]:
    construction = _necklace_construction(args.kind, args.m, args.n)
    # count first: a count over the budget stops before any class work
    counts = (_count(melonic.to_graph(construction), args.verify, args.budget)
              if args.verify else {})
    if args.kind == "clasped":
        cls = families.clasped_necklace_class(args.m, args.n)
    else:
        cls = families.necklace_class(args.m, args.n)
    coeffs = _coeff_list(cls.poly, args.basis)
    payload: dict = {"kind": args.kind, "m": args.m, "n": args.n,
                     "coefficients": coeffs, "basis": args.basis}
    lines = [_fmt_coeffs(coeffs)]
    if args.verify is not None:
        match = melonic.class_of(construction).poly == cls.poly
        payload["construction_match"] = match
        lines.append("construction recursion: "
                     + ("match" if match else "MISMATCH"))
        if args.verify:
            payload["verify"], checked = _verify(counts, cls)
            lines += checked
    return _report(args, payload, lines)


def _search(max_edges: int) -> tuple[
        int, list[tuple[melonic.MelonicConstruction, list[int]]]]:
    """Check every construction with at most max_edges edges for LC as
    enumeration yields it: the number checked, and each construction that
    is not LC with its failing degrees.  `concavity.check_lc` runs once a
    distinct class, keyed by its coefficients; only a failing tree is
    turned into its construction (`melonic.linearize`)."""
    checked, bad = 0, []
    verdicts: dict[tuple[int, ...], tuple[bool, list[int]]] = {}
    for tree, cls in melonic.enumerate_constructions(max_edges):
        coeffs = cls.poly.coeffs
        verdict = verdicts.get(coeffs)
        if verdict is None:
            verdict = verdicts[coeffs] = concavity.check_lc(coeffs)
        ok, fails = verdict
        if not ok:
            bad.append((melonic.linearize(tree), fails))
        checked += 1
    return checked, bad


def cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    """The search JSON of `_search`, counterexamples in `serialize` order.
    One process does all the work; --workers is accepted and ignored."""
    start = time.monotonic()
    checked, bad = _search(args.max_edges)
    bad.sort(key=lambda item: melonic.serialize(item[0]))
    counterexamples = [
        {"construction": melonic.to_json_dict(c), "failing_degrees": fails}
        for c, fails in bad]
    return EXIT_OK, json.dumps(
        {"constructions_checked": checked,
         "edge_bound": args.max_edges, "counterexamples": counterexamples,
         "elapsed": round(time.monotonic() - start, 3)}, indent=2)


def cmd_oracle(args: argparse.Namespace) -> tuple[int, str]:
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = graphalg.from_edge_list(fh.read())
    counts = _count(g, args.verify or [2, 3, 5], args.budget)
    payload = {"vertices": g.num_vertices, "edges": len(g.edges),
               "counts": {str(q): n for q, n in counts.items()}}
    lines = [f"graph: {g.num_vertices} vertices, {len(g.edges)} edges"]
    lines += [f"q={q}: {n} complement points" for q, n in counts.items()]
    return _report(args, payload, lines)


def _basis_arg(text: str) -> str:
    basis = text.upper()
    if basis not in BASES:
        raise argparse.ArgumentTypeError(
            f"basis must be S, T or L, got {text!r}")
    return basis


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melon",
        description="Grothendieck classes of banana, melonic, and necklace "
                    "graphs: tables, closed forms, search, and point-count "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="print one family polynomial")
    p.add_argument("family", choices=FAMILY_ORDER)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_positive_int, default=None,
                   help="second parameter for g and b")
    p.add_argument("--basis", type=_basis_arg, default="S")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("tables", help="reproduce the concavity tables")
    p.add_argument("--m", type=_parse_range, default=(1, 10),
                   help="range lo..hi (default 1..10)")
    p.add_argument("--which", choices=["ulc", "ulcm"], default="ulc")
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("class", help="class of a construction JSON file")
    p.add_argument("construction", help="path to construction JSON")
    p.add_argument("--basis", type=_basis_arg, default="S")
    p.add_argument("--verify", type=_parse_primes, default=None,
                   help="comma-separated primes for point-count check")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("necklace", help="necklace closed-form class")
    p.add_argument("kind", choices=["plain", "clasped"])
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--basis", type=_basis_arg, default="S")
    p.add_argument("--verify", type=_parse_primes, nargs="?", const=[],
                   default=None,
                   help="cross-check against the construction recursion; "
                        "with primes, also against point counts")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_necklace)

    p = sub.add_parser("search",
                       help="check log-concavity of every class up to an "
                            "edge bound")
    p.add_argument("--max-edges", type=_positive_int, required=True)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="accepted and ignored: search runs in one process")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle",
                       help="count hypersurface complement points of an "
                            "edge-list graph")
    p.add_argument("graph", help="path to edge-list file, one 'u v' per line")
    p.add_argument("--verify", type=_parse_primes, default=None,
                   help="primes to count at (default 2,3,5)")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that maps exceptions to exit codes
    and that writes stdout, once the command has returned."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "family" and args.m < 0:
        parser.error("--m must be >= 0")
    if args.command == "family" and args.n is not None:
        if args.family not in ("g", "b"):
            parser.error("--n applies only to g and b")
        if args.m == 0:
            parser.error("--n needs --m >= 1")
    if args.command == "necklace" and args.n < 2:
        parser.error("--n must be >= 2")
    # the budget is resolved here once: --budget, else MELON_BUDGET, else
    # DEFAULT_BUDGET; commands without --budget ignore MELON_BUDGET
    if hasattr(args, "budget") and args.budget is None:
        env = os.environ.get("MELON_BUDGET")
        try:
            args.budget = (_positive_int(env) if env
                           else graphalg.DEFAULT_BUDGET)
        except argparse.ArgumentTypeError as exc:
            print(f"error: MELON_BUDGET: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        for q in getattr(args, "verify", None) or ():
            graphalg.check_modulus(q, args.budget)
        exit_code, text = args.func(args)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has closed stdout: the rest of the report goes
            # nowhere, and so does the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return exit_code
    except graphalg.NonPrimeModulus as exc:
        parser.error(f"argument --verify: {exc}")
    except graphalg.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        print("error: input is nested too deeply to process",
              file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, SystemError):
        # CPython raises SystemError ("error return without exception
        # set") when an allocation fails inside big-int arithmetic
        print("error: input is too large to process", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
