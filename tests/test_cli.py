import hashlib
import json
import multiprocessing.process
import subprocess
import sys
import time
from pathlib import Path

import pytest

from melonclass import cli, families, graphalg, melonic
from melonclass.poly import ClassPoly, IntPoly

from conftest import construction, src_env
from stage_relation import class_by_stages

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_examples(capsys):
    code, out = run_cli(capsys, "family", "b", "--m", "3")
    assert code == 0 and out == "[4, 8, 5, 1]\n"
    code, out = run_cli(capsys, "family", "f", "--m", "0")
    assert code == 0 and out == "[]\n"
    code, out = run_cli(capsys, "family", "h", "--m", "4", "--basis", "T")
    assert code == 0 and out == "[0, 1, -1, 1]\n"
    code, out = run_cli(capsys, "family", "g", "--m", "4", "--n", "2")
    assert code == 0 and out == "[2, 4, 4, 1]\n"


def test_family_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "z", "--m", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "f", "--m", "-2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "f", "--m", "3", "--basis", "Q"])
    assert exc.value.code == 2


def test_reports_print_coefficients_of_any_size(capsys):
    # b_2300 has coefficients of about 700 digits, past this int-to-str
    # digit limit: the report lifts it while it formats and restores it
    b = families.b_poly(2300)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(capsys, "family", "b", "--m", "2300")
        assert sys.get_int_max_str_digits() == 640
        tables = run_cli(capsys, "tables", "--m", "2300..2300",
                         "--format", "json")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out == "[" + ", ".join(map(str, b)) + "]\n"
    assert tables[0] == 0
    row, = json.loads(tables[1])["families"]["b"]
    assert row["coefficients"] == list(b)


def test_family_n_only_for_g_and_b(capsys):
    for fam_name in ("f", "h"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family", fam_name, "--m", "3", "--n", "7"])
        assert exc.value.code == 2
        assert "--n applies only to g and b" in capsys.readouterr().err
    code, out = run_cli(capsys, "family", "b", "--m", "3", "--n", "2")
    assert code == 0 and out == "[3, 6, 4, 1]\n"


def test_family_n_needs_positive_m_and_n(capsys):
    for argv in (["g", "--m", "3", "--n", "0"], ["g", "--m", "0", "--n", "3"],
                 ["b", "--m", "0", "--n", "3"], ["b", "--m", "2", "--n", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family", *argv])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse prints its usage line, then the one-line reason
        reasons = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(reasons) == 1, captured.err
        assert "Traceback" not in captured.err


def test_family_basis_l(capsys):
    # b_3 = s^3 + 5s^2 + 8s + 4 = L^2 (L - 1) with s = L - 2
    code, out = run_cli(capsys, "family", "b", "--m", "3", "--basis", "L")
    assert code == 0 and out == "[0, 0, -1, 1]\n"
    # f_2 = s = T - 1 = L - 2; the basis name is case-insensitive
    for basis, want in (("T", "[-1, 1]\n"), ("L", "[-2, 1]\n"),
                        ("l", "[-2, 1]\n")):
        code, out = run_cli(capsys, "family", "f", "--m", "2",
                            "--basis", basis)
        assert code == 0 and out == want, basis
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "b", "--m", "3", "--basis", "Q"])
    assert exc.value.code == 2
    assert "basis must be S, T or L" in capsys.readouterr().err


def test_tables_golden_bytes(capsys):
    for which, name in (("ulc", "tables_ulc.md"), ("ulcm", "tables_ulcm.md")):
        code, out = run_cli(capsys, "tables", "--m", "1..10",
                            "--which", which, "--format", "md")
        assert code == 0
        assert out == (GOLDEN / name).read_text()


def test_tables_json(capsys):
    code, out = run_cli(capsys, "tables", "--m", "3..4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["families"]["b"][0]["coefficients"] == [4, 8, 5, 1]
    assert data["families"]["f"][1]["failing_degrees"] == [2]
    assert data["families"]["f"][1]["verdict"] is False


def test_tables_conjectured_failing_range(capsys):
    # every degree 4..m-2 fails ULC for f and h up to m = 100
    code, out = run_cli(capsys, "tables", "--m", "4..100", "--format", "json")
    data = json.loads(out)
    for fam_name in ("f", "h"):
        for row in data["families"][fam_name]:
            m, fails = row["m"], set(row["failing_degrees"])
            assert set(range(4, m - 1)) <= fails, (fam_name, m)


def _write_construction(tmp_path, stages) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"stages": stages}))
    return str(path)


def test_class_command(tmp_path, capsys):
    path = _write_construction(tmp_path, [
        {"bananas": [5], "parent_stage": 0, "parent_banana": 1}])
    code, out = run_cli(capsys, "class", path)
    assert code == 0 and out == "[6, 23, 36, 27, 9, 1]\n"

    code, out = run_cli(capsys, "class", path, "--verify", "2,3")
    assert code == 0
    assert out.splitlines()[1:] == [
        "q=2: counted 6, expected 6 -> match",
        "q=3: counted 102, expected 102 -> match"]

    code, out = run_cli(capsys, "class", path, "--format", "json",
                        "--verify", "2")
    payload = json.loads(out)
    assert payload["coefficients"] == [6, 23, 36, 27, 9, 1]
    assert payload["verify"] == [
        {"q": 2, "counted": 6, "expected": 6, "match": True}]


def test_class_matches_necklace_closed_form(tmp_path, capsys):
    from melonclass import families as fam
    path = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1},
        {"bananas": [2] * 6, "parent_stage": 1, "parent_banana": 1}])
    code, out = run_cli(capsys, "class", path)
    assert code == 0
    expected = list(fam.necklace_class(2, 7).poly.coeffs)
    assert out.strip() == "[" + ", ".join(map(str, expected)) + "]"


def test_class_invalid_construction(tmp_path, capsys):
    path = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 1, "parent_banana": 1}])
    code = cli.main(["class", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "stage 1" in err
    # every violation is reported, on one line
    path = _write_construction(tmp_path, [
        {"bananas": [], "parent_stage": 1, "parent_banana": 2},
        {"bananas": [0], "parent_stage": 5, "parent_banana": 1}])
    code = cli.main(["class", path])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: invalid melonic construction: ")
    assert err.count("; ") == 4


def test_class_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["class", str(path)]) == 3
    path.write_text('{"stages": [{"bananas": [2]}]}')
    assert cli.main(["class", str(path)]) == 3
    capsys.readouterr()


def test_class_rejects_non_integer_fields(tmp_path, capsys):
    root = {"bananas": [3], "parent_stage": 0, "parent_banana": 1}
    for stages in (
            [{"bananas": "33", "parent_stage": 0, "parent_banana": 1}],
            [root, {"bananas": [2.9, True], "parent_stage": 1.5,
                    "parent_banana": 1}],
            [root, {"bananas": [2, True], "parent_stage": 1,
                    "parent_banana": 1}],
            [root, {"bananas": [2, 2], "parent_stage": 1.0,
                    "parent_banana": 1}],
            [root, {"bananas": [2, 2], "parent_stage": 1,
                    "parent_banana": "1"}]):
        path = _write_construction(tmp_path, stages)
        assert cli.main(["class", path]) == 3, stages
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "integers" in captured.err


def _frames() -> int:
    """The depth of the calling frame."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_class_of_chains_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the class is folded without recursion: under a recursion limit 200
    # frames above this test, two equal chains of 150 stages on one
    # banana print their class.  A recursion of one frame a stage could
    # not follow them, nor could a comparison of the two chains.
    chain = [((2, 2), 1, 1)] + [((2, 2), i, 1) for i in range(2, 151)]
    stages = [((2,), 0, 1)] + chain + [
        (b, 1 if p == 1 else p + 150, k) for b, p, k in chain]
    path = _write_construction(tmp_path, [
        {"bananas": list(b), "parent_stage": p, "parent_banana": k}
        for b, p, k in stages])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 200)
    try:
        code, out = run_cli(capsys, "class", path)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    # the stage relation recurses through every stage
    sys.setrecursionlimit(10_000)
    try:
        expected = class_by_stages(construction(*stages)).poly.coeffs
    finally:
        sys.setrecursionlimit(limit)
    assert out == cli._fmt_coeffs(list(expected)) + "\n"


def test_class_budget_exceeded(tmp_path, capsys, monkeypatch):
    # the count runs over budget before the class, the closed form or the
    # construction fold starts, and nothing reaches stdout
    def class_work(*args):
        raise AssertionError("class work before the count")
    monkeypatch.setattr(cli.melonic, "class_of", class_work)
    monkeypatch.setattr(cli.families, "necklace_class", class_work)
    monkeypatch.setattr(cli.families, "clasped_necklace_class", class_work)
    path = _write_construction(tmp_path, [
        {"bananas": [10], "parent_stage": 0, "parent_banana": 1}])
    necklace = tmp_path / "necklace.json"
    necklace.write_text(json.dumps({"stages": [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1},
        {"bananas": [2] * 119, "parent_stage": 1, "parent_banana": 1}]}))
    for argv in (["class", path, "--verify", "5", "--budget", "100"],
                 ["necklace", "plain", "--m", "3", "--n", "3",
                  "--verify", "5", "--budget", "1000"],
                 ["necklace", "clasped", "--m", "2", "--n", "3",
                  "--verify", "2,5", "--budget", "200"],
                 ["necklace", "plain", "--m", "2", "--n", "120",
                  "--verify", "2"],
                 ["class", str(necklace), "--verify", "2"]):
        start = time.monotonic()
        assert cli.main(argv) == 4, argv
        assert time.monotonic() - start < 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("error: ")


def test_necklace_verify_without_primes_is_quick(capsys):
    # the 240-edge necklace against its construction, with no count
    start = time.monotonic()
    code, out = run_cli(capsys, "necklace", "plain", "--m", "2", "--n", "120",
                        "--verify")
    assert time.monotonic() - start < 2
    assert code == 0
    lines = out.splitlines()
    assert len(json.loads(lines[0])) == 241
    assert lines[1] == "construction recursion: match"


def test_class_verify_banana(tmp_path, capsys):
    for a in range(1, 8):
        path = _write_construction(tmp_path, [
            {"bananas": [a], "parent_stage": 0, "parent_banana": 1}])
        code, out = run_cli(capsys, "class", path, "--verify", "2,3,5",
                            "--format", "json")
        rows = json.loads(out)["verify"]
        assert code == 0, a
        assert [row["q"] for row in rows] == [2, 3, 5]
        assert all(row["match"] for row in rows), rows
        assert all(row["counted"] == row["expected"] for row in rows), rows


def test_class_verify_detects_perturbation(tmp_path, capsys, monkeypatch):
    class_of = cli.melonic.class_of
    monkeypatch.setattr(cli.melonic, "class_of",
                        lambda c: ClassPoly(class_of(c).poly + IntPoly((1,))))
    path = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1}])
    code, out = run_cli(capsys, "class", path, "--verify", "2,3,5",
                        "--format", "json")
    rows = json.loads(out)["verify"]
    assert code == 1
    assert [row["q"] for row in rows] == [2, 3, 5]
    assert all(not row["match"] for row in rows), rows
    assert all(row["counted"] + 1 == row["expected"] for row in rows), rows


def test_memory_error_is_invalid_input(tmp_path, capsys, monkeypatch):
    def out_of_memory(c):
        raise MemoryError
    monkeypatch.setattr(cli.melonic, "class_of", out_of_memory)
    path = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1}])
    assert cli.main(["class", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is too large to process\n"


def test_bigint_system_error_is_invalid_input(tmp_path, capsys,
                                              monkeypatch):
    # what CPython raises when an allocation fails inside big-int
    # arithmetic, in place of MemoryError
    def out_of_memory(c):
        raise SystemError("error return without exception set")
    monkeypatch.setattr(cli.melonic, "class_of", out_of_memory)
    path = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1}])
    assert cli.main(["class", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is too large to process\n"


def test_necklace_command(capsys):
    code, out = run_cli(capsys, "necklace", "clasped", "--m", "2", "--n", "2")
    assert code == 0 and out == "[4, 8, 5, 1]\n"
    code, out = run_cli(capsys, "necklace", "plain", "--m", "1", "--n", "5")
    assert code == 0 and out == "[16, 48, 56, 32, 9, 1]\n"


def test_necklace_verify(capsys):
    code, out = run_cli(capsys, "necklace", "clasped", "--m", "3", "--n", "4",
                        "--verify", "2,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "construction recursion: match"
    assert lines[2].endswith("match") and lines[3].endswith("match")
    # degree-10 class: coefficients list has 11 entries
    assert len(json.loads(lines[0])) == 11


def test_necklace_verify_json(capsys):
    code, out = run_cli(capsys, "necklace", "plain", "--m", "2", "--n", "4",
                        "--verify", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["construction_match"] is True
    assert payload["verify"][0]["match"] is True


def test_repeated_prime_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n0 1\n")
    construction = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1}])
    for argv in (["class", construction, "--verify", "2,2"],
                 ["necklace", "plain", "--m", "2", "--n", "3",
                  "--verify", "3,2,3"],
                 ["oracle", str(graph), "--verify", "2,02"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "primes must be distinct" in captured.err


def test_necklace_usage(capsys):
    for argv in (["--m", "0", "--n", "3"], ["--m", "2", "--n", "1"],
                 ["--m", "abc", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["necklace", "plain", *argv])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse prints its usage line, then the one-line reason
        reasons = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(reasons) == 1, captured.err
        assert "Traceback" not in captured.err


def test_search_deterministic(capsys):
    code, out1 = run_cli(capsys, "search", "--max-edges", "4")
    assert code == 0
    code, out2 = run_cli(capsys, "search", "--max-edges", "4")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["constructions_checked"] == 23
    assert r1["edge_bound"] == 4
    assert r1["counterexamples"] == []
    r1.pop("elapsed"), r2.pop("elapsed")
    assert r1 == r2


def test_search_workers_match_single(capsys):
    code, single = run_cli(capsys, "search", "--max-edges", "5")
    assert code == 0
    code, multi = run_cli(capsys, "search", "--max-edges", "5",
                          "--workers", "3")
    assert code == 0
    a, b = json.loads(single), json.loads(multi)
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b


def search_json(capsys, *argv) -> dict:
    code, out = run_cli(capsys, "search", *argv)
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed")
    return payload


def test_search_starts_no_process(capsys, monkeypatch):
    # --workers 500 must not ask the OS for 500 processes: search asks
    # for none, whatever --workers and the CPU count say
    def refuse(self):
        raise AssertionError("search started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    single = search_json(capsys, "--max-edges", "6")
    assert search_json(capsys, "--max-edges", "6", "--workers", "4") == single


def fail_odd_degrees(coeffs):
    """A stand-in for `concavity.check_lc`: no class fails LC, so this
    fails every class of odd degree, at degrees 1 and its degree."""
    degree = len(coeffs) - 1
    return (False, [1, degree]) if degree % 2 else (True, [])


def test_search_reports_counterexamples_for_any_worker_count(capsys,
                                                             monkeypatch):
    monkeypatch.setattr(cli.concavity, "check_lc", fail_odd_degrees)
    single = search_json(capsys, "--max-edges", "6")
    for workers in ("3", "4"):
        assert search_json(capsys, "--max-edges", "6",
                           "--workers", workers) == single
    found = [(melonic.from_json_dict(row["construction"]),
              row["failing_degrees"]) for row in single["counterexamples"]]
    odd = sorted((melonic.linearize(t)
                  for t, cls in melonic.enumerate_constructions(6)
                  if cls.poly.degree % 2), key=melonic.serialize)
    assert [c for c, _ in found] == odd != []
    assert all(fails == [1, melonic.class_of(c).poly.degree]
               for c, fails in found)
    assert single["constructions_checked"] == 238


def test_search_output_is_pinned(capsys, monkeypatch):
    # the sha256 of the search JSON at 8 edges without "elapsed", taken
    # when enumeration still built every construction: as is, and with
    # 656 counterexamples under the stand-in check; one worker and two
    # give the same bytes
    def digest(workers):
        payload = search_json(capsys, "--max-edges", "8",
                              "--workers", workers)
        return hashlib.sha256(
            json.dumps(payload, indent=2).encode()).hexdigest()

    for workers in ("1", "2"):
        assert digest(workers) == (
            "0b6a4bdb7b6388729e925a009c4fd1304e1f93c855191e8fc7ed3ab98a752a41")
    monkeypatch.setattr(cli.concavity, "check_lc", fail_odd_degrees)
    for workers in ("1", "2"):
        assert digest(workers) == (
            "3e06deefbfc6b8cccdbe3946f114b5fe07915d61242f61127f2673a2ec164511")


def test_search_checks_each_distinct_class_once(capsys, monkeypatch):
    calls = []
    check_lc = cli.concavity.check_lc

    def counted(coeffs):
        calls.append(coeffs)
        return check_lc(coeffs)

    monkeypatch.setattr(cli.concavity, "check_lc", counted)
    payload = search_json(capsys, "--max-edges", "8")
    assert payload["constructions_checked"] == 3096
    classes = {cls for _, cls in melonic.enumerate_constructions(8)}
    assert len(calls) == len(classes) < 3096


def test_search_rejects_nonpositive_counts(capsys):
    for argv in (["--max-edges", "0"], ["--max-edges", "-3"],
                 ["--max-edges", "3", "--workers", "0"],
                 ["--max-edges", "3", "--workers", "-4"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", *argv])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive integer" in captured.err


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 1\n0 1\n")
    code, out = run_cli(capsys, "oracle", str(path), "--verify", "2,3")
    assert code == 0
    assert "q=2: 4 complement points" in out
    assert "q=3: 18 complement points" in out

    code, out = run_cli(capsys, "oracle", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload == {"vertices": 2, "edges": 3,
                       "counts": {"2": 4, "3": 18, "5": 100}}


def test_oracle_errors(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\nbogus\n")
    assert cli.main(["oracle", str(path)]) == 3
    path.write_text("0 1\n2 3\n")
    assert cli.main(["oracle", str(path)]) == 3  # disconnected
    path.write_text("0 1\n0 1\n")
    assert cli.main(["oracle", str(path), "--budget", "3"]) == 4
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", str(path), "--verify", "6"])
    assert exc.value.code == 2


def test_modulus_above_budget_exits_before_primality(tmp_path, capsys):
    # trial division would take about 10**9 steps on this prime; above
    # the point budget it is never tested
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 1\n")
    construction = _write_construction(tmp_path, [
        {"bananas": [3], "parent_stage": 0, "parent_banana": 1}])
    big = "1000000000000000003"
    start = time.monotonic()
    for argv in (["oracle", str(path), "--verify", big],
                 ["class", construction, "--verify", big],
                 ["necklace", "plain", "--m", "2", "--n", "3",
                  "--verify", "2," + big]):
        assert cli.main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: modulus {big} exceeds budget "
                                f"100000000\n"), argv
    assert time.monotonic() - start < 2
    # a non-prime within the budget is still a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", str(path), "--verify", "4", "--budget", "1000"])
    assert exc.value.code == 2
    assert "4 is not prime" in capsys.readouterr().err


# replacement values for one field of a construction file; only parent
# indices also get a huge one, so that a mutant that is still valid has
# bananas of at most 4 edges and stays cheap to compute
FUZZ_VALUES = (None, True, 2.5, "2", [], [[2]], {}, -1, 0)
FUZZ_PARENT_VALUES = FUZZ_VALUES + (10**6,)


def _stage_dicts(*stages) -> list[dict]:
    return [{"bananas": list(b), "parent_stage": p, "parent_banana": k}
            for b, p, k in stages]


def _mutate_construction(rng, stages: list[dict]) -> str:
    """The text of a construction file with one field dropped or
    replaced, the document wrapped in a list, or its text truncated."""
    doc = {"stages": json.loads(json.dumps(stages))}
    entries = doc["stages"]
    keyed = [(doc, "stages")] + [(e, key) for e in entries for key in e]
    indexed = ([(entries, i) for i in range(len(entries))]
               + [(e["bananas"], j) for e in entries
                  for j in range(len(e["bananas"]))])
    # most mutants replace a field: there are many more ways to do that
    kind = rng.choice(("drop", "replace", "replace", "replace", "wrap",
                       "truncate"))
    if kind == "drop":
        owner, key = rng.choice(keyed)
        del owner[key]
    elif kind == "replace":
        owner, key = rng.choice(keyed + indexed)
        parent = key in ("parent_stage", "parent_banana")
        owner[key] = rng.choice(FUZZ_PARENT_VALUES if parent else FUZZ_VALUES)
    elif kind == "wrap":
        return json.dumps([doc])
    else:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    return json.dumps(doc)


def _mutate_edge_list(rng, text: str) -> str:
    """An edge list with one bad token or line, or an empty or
    disconnected one."""
    lines = [ln.split() for ln in text.splitlines()]
    line = rng.choice(lines)
    kind = rng.choice(("token", "three", "negative", "huge", "empty",
                       "disconnected"))
    if kind == "token":
        line[rng.randrange(2)] = rng.choice(["x", "1.5", "2e3", "True"])
    elif kind == "three":
        line.append("1")
    elif kind == "negative":
        line[rng.randrange(2)] = "-1"
    elif kind == "huge":
        line[rng.randrange(2)] = str(10**12)
    elif kind == "empty":
        return rng.choice(["", "\n", "# no edges\n"])
    else:
        return "0 1\n2 3\n"
    return "".join(" ".join(ln) + "\n" for ln in lines)


def _assert_clean_exit(code: int, captured, codes=(0, 3)) -> None:
    """The run exits with one of codes and no traceback; a failed run
    leaves stdout empty and gives its reason on one `error:` line, after
    argparse's usage lines for exit 2."""
    assert code in codes, captured.err
    assert "Traceback" not in captured.err
    # argparse names a type function that raises ValueError; ours say why
    assert "_parse" not in captured.err
    if code == 0:
        assert captured.out and captured.err == ""
    else:
        assert captured.out == ""
        lines = captured.err.splitlines()
        reasons = [ln for ln in lines if "error:" in ln]
        assert len(reasons) == 1 and (code == 2 or len(lines) == 1), lines


def test_malformed_input_files_exit_cleanly(tmp_path, capsys, rng):
    # at most 4 stages, banana sizes at most 4 and at most 6 edges; the
    # third and fourth are unreduced
    constructions = [
        _stage_dicts(((4,), 0, 1)),
        _stage_dicts(((2, 2), 0, 1), ((1, 2), 1, 2)),
        _stage_dicts(((3,), 0, 1), ((1, 1), 1, 1), ((1, 2), 2, 1)),
        _stage_dicts(((2,), 0, 1), ((1, 1), 1, 1), ((1, 1), 1, 1),
                     ((1, 1), 2, 1)),
    ]
    path = tmp_path / "c.json"
    for _ in range(300):
        path.write_text(_mutate_construction(rng, rng.choice(constructions)))
        code = cli.main(["class", str(path)])
        _assert_clean_exit(code, capsys.readouterr())
    graphs = ["0 1\n1 2\n2 0\n0 1\n", "0 0\n0 1\n1 2\n1 2\n2 3\n3 0\n"]
    path = tmp_path / "g.txt"
    for _ in range(100):
        path.write_text(_mutate_edge_list(rng, rng.choice(graphs)))
        code = cli.main(["oracle", str(path)])
        _assert_clean_exit(code, capsys.readouterr())


def test_oracle_rejects_too_many_vertices_before_connecting(tmp_path, capsys,
                                                             monkeypatch):
    # two edges cannot connect 10^12 + 1 vertices; say so without
    # building per-vertex state
    monkeypatch.setattr(graphalg, "_components",
                        lambda *args: pytest.fail("built per-vertex state"))
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 1000000000000\n")
    assert cli.main(["oracle", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "not connected" in captured.err


def test_env_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 1\n")
    monkeypatch.setenv("MELON_BUDGET", "3")
    assert cli.main(["oracle", str(path)]) == 4
    # explicit flag wins over the environment
    assert cli.main(["oracle", str(path), "--budget", "1000"]) == 0
    capsys.readouterr()


def test_bad_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 1\n")
    for bad in ("0", "-5", "abc"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", str(path), "--budget", bad])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
    for bad in ("0", "-5", "abc"):
        monkeypatch.setenv("MELON_BUDGET", bad)
        assert cli.main(["oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "MELON_BUDGET" in captured.err
        # a valid flag still wins over the environment
        assert cli.main(["oracle", str(path), "--budget", "1000"]) == 0
        capsys.readouterr()


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "melonclass",
                           "family", "b", "--m", "2"],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[2, 3, 1]\n"


# Runs the command given in its arguments and prints its exit code and
# peak RSS in KiB: the RUSAGE_CHILDREN of this wrapper has no other child.
_PEAK_RSS = """\
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_wide_bananas_run_in_bounded_memory(tmp_path):
    # no table grows as the cube of the size: families builds f_m and
    # (s+1)^k from closed forms, and class_of builds the banana from the
    # single edge, two halves at a time
    path = tmp_path / "banana.json"
    path.write_text(json.dumps({"stages": [
        {"bananas": [2000], "parent_stage": 0, "parent_banana": 1}]}))
    runs = (["family", "b", "--m", "2000"], ["class", str(path)])
    wrappers = [subprocess.Popen([sys.executable, "-c", _PEAK_RSS,
                                  sys.executable, "-m", "melonclass", *argv],
                                 env=src_env(), stdout=subprocess.PIPE,
                                 text=True)
                for argv in runs]
    for argv, wrapper in zip(runs, wrappers):
        code, peak_kib = map(int, wrapper.communicate()[0].split())
        assert code == 0 and peak_kib < 150 * 1024, (argv, peak_kib)


def test_search_releases_its_option_lists():
    # the option lists of a budget no later root string can spend are
    # dropped after each root size; keeping them all peaks near 240 MB
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable,
                           "-m", "melonclass", "search", "--max-edges", "12"],
                          env=src_env(), capture_output=True, text=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0 and peak_kib < 210 * 1024, peak_kib


def test_closed_stdout_keeps_exit_code():
    # `melon tables --m 1..10 | head -1`: a reader that has gone before
    # the report is written leaves the command's exit code and no stderr
    for argv in (["tables", "--m", "1..10"], ["search", "--max-edges", "6"]):
        proc = subprocess.Popen([sys.executable, "-m", "melonclass", *argv],
                                env=src_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0, (argv, err)
        assert err == b"", argv


def _run(argv: list[str], capsys) -> tuple[int, object]:
    """Exit code and captured output of one run, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


def _sweep_files(tmp_path) -> dict[str, str]:
    stage = {"bananas": [3], "parent_stage": 0, "parent_banana": 1}
    files = {"c.json": json.dumps({"stages": [stage]}),
             "stagez.json": json.dumps({"stages": [stage], "stagez": 1}),
             "extra.json": json.dumps({"stages": [{**stage, "extra": 1}]}),
             "big.json": json.dumps({"stages": [
                 {"bananas": [10], "parent_stage": 0, "parent_banana": 1}]}),
             "bad.json": '{"stages": [{"bananas": [2]}]}',
             "g.txt": "0 1\n0 1\n1 2\n",
             "split.txt": "0 1\n2 3\n"}
    paths = {}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


def test_failed_runs_leave_stdout_empty(tmp_path, capsys, monkeypatch):
    # every exit code among 2, 3 and 4 that each subcommand can reach
    f = _sweep_files(tmp_path)
    runs = {
        2: [["family", "z", "--m", "3"],
            ["family", "f", "--m", "3", "--n", "2"],
            ["tables", "--m", "5..2"], ["tables", "--format", "xml"],
            ["tables", "--m", "1..x"], ["tables", "--m", "3.."],
            ["class", f["c.json"], "--verify", "4"],
            ["class", f["c.json"], "--verify", "2,2"],
            ["class", f["c.json"], "--verify", "x"],
            ["class", f["c.json"], "--verify", "2,,3"],
            ["oracle", f["g.txt"], "--verify", "2,3,"],
            ["class", f["c.json"], "--budget", "0"],
            ["necklace", "plain", "--m", "0", "--n", "3"],
            ["necklace", "clasped", "--m", "2", "--n", "3", "--verify", "6"],
            ["search", "--max-edges", "0"], ["search", "--workers", "2"],
            ["oracle", f["g.txt"], "--verify", "6"],
            ["oracle", f["g.txt"], "--format", "csv"]],
        3: [["class", f["missing"]], ["class", f["bad.json"]],
            ["class", f["stagez.json"]], ["class", f["extra.json"]],
            ["oracle", f["missing"]], ["oracle", f["split.txt"]],
            ["oracle", f["bad.json"]]],
        4: [["class", f["big.json"], "--verify", "5", "--budget", "100"],
            ["necklace", "plain", "--m", "3", "--n", "3", "--verify", "5",
             "--budget", "1000"],
            ["oracle", f["g.txt"], "--budget", "3"]],
    }
    for want, argvs in runs.items():
        for argv in argvs:
            _assert_clean_exit(*_run(argv, capsys), codes=(want,))
    # a bad MELON_BUDGET is a usage error of every command with --budget
    monkeypatch.setenv("MELON_BUDGET", "many")
    for argv in (["class", f["c.json"]], ["oracle", f["g.txt"]],
                 ["necklace", "plain", "--m", "2", "--n", "3"]):
        _assert_clean_exit(*_run(argv, capsys), codes=(2,))


# values a fuzzed flag or argument may take; every run that succeeds
# with them stays small
FUZZ_TOKENS = ("0", "-1", "1", "2", "3", "x", "1.5", "", "2,2", "2,3", "6",
               "1..3", "3..1", "json", "md", "T", "--verify", "--budget",
               "--m", "--n", "--format")


def _fuzz_bases(f: dict[str, str]) -> list[list[str]]:
    """One valid, small run of each subcommand."""
    return [["family", "g", "--m", "3", "--n", "2", "--basis", "T"],
            ["tables", "--m", "1..3", "--which", "ulcm", "--format", "json"],
            ["class", f["c.json"], "--verify", "2,3", "--budget", "200"],
            ["necklace", "clasped", "--m", "2", "--n", "3", "--verify",
             "2", "--budget", "200", "--format", "json"],
            ["necklace", "plain", "--m", "2", "--n", "3", "--verify", "2",
             "--budget", "200"],
            ["search", "--max-edges", "3", "--workers", "1"],
            ["oracle", f["g.txt"], "--verify", "3", "--format", "md"]]


def _mutate_argv(rng, argv: list[str], files: list[str]) -> None:
    """Replace, drop or insert one argument after the subcommand."""
    i = rng.randrange(1, len(argv))
    kind = rng.choice(("replace", "replace", "drop", "insert"))
    if kind == "drop":
        del argv[i]
    else:
        token = rng.choice(FUZZ_TOKENS + tuple(files))
        argv[i:i + (kind == "replace")] = [token]


def test_fuzzed_arguments_exit_cleanly(tmp_path, capsys, rng):
    f = _sweep_files(tmp_path)
    bases = _fuzz_bases(f)
    files = list(f.values())
    for _ in range(600):
        argv = list(rng.choice(bases))
        _mutate_argv(rng, argv, files)
        _assert_clean_exit(*_run(argv, capsys), codes=(0, 2, 3, 4))


def test_fuzzed_argument_combinations_exit_cleanly(tmp_path, capsys, rng):
    # two or three mutations of one run: a flag can lose its value, take
    # another flag's, or appear twice
    f = _sweep_files(tmp_path)
    bases = _fuzz_bases(f)
    files = list(f.values())
    for _ in range(600):
        argv = list(rng.choice(bases))
        for _ in range(rng.randint(2, 3)):
            _mutate_argv(rng, argv, files)
        _assert_clean_exit(*_run(argv, capsys), codes=(0, 2, 3, 4))
