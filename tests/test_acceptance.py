"""Acceptance gate: the thirteen headline guarantees, one test each.

Each test prints a single "criterion NN PASS/FAIL" line directly to the
terminal (outside pytest's capture) and enforces its runtime budget with
a hard assertion.  The checks themselves are exact big-integer
comparisons; no tolerances anywhere.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time

import pytest

import closed_forms
import reference_tables
import property_suites
from melonclass import cli, concavity, families, graphalg, melonic

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def run(number: int, budget_s: float, description: str):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {number:02d} FAIL  {description}",
                      flush=True)
            raise
        elapsed = time.monotonic() - start
        verdict = "PASS" if elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(f"\ncriterion {number:02d} {verdict}  {description}"
                  f"  [{elapsed:.2f}s, budget {budget_s:.0f}s]", flush=True)
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    return run


def _family_coeffs(name: str, m: int) -> tuple[int, ...]:
    return families.family_poly(name, m).coeffs


def _run_cli(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out


def test_criterion_01_ulc_tables(criterion, capsys):
    with criterion(1, 1.0, "published ULC tables for f, g, h, b, m = 1..10"):
        for name, rows in reference_tables.ULC_TABLES.items():
            for m, coeffs, verdict, fails in rows:
                got = list(_family_coeffs(name, m))
                assert (got if got else [0]) == coeffs, (name, m)
                ok, failing = concavity.check_ulc(tuple(got))
                assert ok == verdict, (name, m)
                assert failing == fails, (name, m)
        out = _run_cli(capsys, ["tables", "--m", "1..10",
                                "--which", "ulc", "--format", "md"])
        assert out.encode() == (GOLDEN / "tables_ulc.md").read_bytes()


def test_criterion_02_ulc_order_tables(criterion, capsys):
    with criterion(2, 1.0, "published ULC(m) tables for f, g, h, m = 1..10"):
        for name, rows in reference_tables.ULCM_TABLES.items():
            for m, coeffs, verdict, fails in rows:
                got = _family_coeffs(name, m)
                ok, failing = concavity.check_ulc_order(got, m)
                assert ok == verdict, (name, m)
                assert failing == fails, (name, m)
        out = _run_cli(capsys, ["tables", "--m", "1..10",
                                "--which", "ulcm", "--format", "md"])
        assert out.encode() == (GOLDEN / "tables_ulcm.md").read_bytes()


def test_criterion_03_lc_sweep(criterion):
    with criterion(3, 30.0, "f, g, h, b LC, nonnegative, no internal zeros, "
                            "m = 0..500"):
        for m in range(501):
            for name in ("f", "g", "h", "b"):
                coeffs = _family_coeffs(name, m)
                lc, _ = concavity.check_lc(coeffs)
                assert lc, (name, m)
                assert all(c >= 0 for c in coeffs), (name, m)
                _, internal, _ = concavity.check_unimodal_and_zeros(coeffs)
                assert not internal, (name, m)


def test_criterion_04_ulc_pattern(criterion):
    with criterion(4, 10.0, "ULC failure pattern at degrees 1..3, "
                            "m = 4..200"):
        low = {1, 2, 3}
        for m in range(4, 201):
            f_ok, f_fail = concavity.check_ulc(_family_coeffs("f", m))
            g_ok, g_fail = concavity.check_ulc(_family_coeffs("g", m))
            h_ok, h_fail = concavity.check_ulc(_family_coeffs("h", m))
            b_ok, b_fail = concavity.check_ulc(_family_coeffs("b", m))
            assert not (f_ok or g_ok or h_ok), m
            if m % 2 == 1:
                assert set(f_fail) & low == {1, 3}, m
                assert set(g_fail) == {2}, m
                assert set(h_fail) & low == {3}, m
                assert not b_ok and set(b_fail) == {1}, m
            else:
                assert set(f_fail) & low == {2}, m
                assert set(g_fail) == {1}, m
                assert set(h_fail) & low == {1, 2}, m
                assert b_ok and not b_fail, m


def test_criterion_05_ulc_order_pattern(criterion):
    with criterion(5, 10.0, "ULC(m) failure pattern, m = 6..200"):
        for m in range(6, 201):
            f_ok, f_fail = concavity.check_ulc_order(_family_coeffs("f", m), m)
            g_ok, g_fail = concavity.check_ulc_order(_family_coeffs("g", m), m)
            h_ok, h_fail = concavity.check_ulc_order(_family_coeffs("h", m), m)
            b_ok, b_fail = concavity.check_ulc_order(_family_coeffs("b", m), m)
            if m % 2 == 1:
                assert not f_ok and f_fail == [1], m
                assert g_ok and not g_fail, m
                assert h_ok and not h_fail, m
                assert not b_ok and b_fail == [1], m
            else:
                assert not f_ok and f_fail == [2], m
                assert not g_ok and g_fail == [1], m
                assert not h_ok and h_fail == [1, 2], m
                assert b_ok and not b_fail, m


def test_criterion_06_coefficient_closed_forms(criterion):
    with criterion(6, 10.0, "closed-form coefficients k <= 4 for f, g, b, "
                            "m <= 200, n <= 50"):
        def coeff(c, k: int) -> int:
            return c.coeffs[k] if k < len(c.coeffs) else 0

        for m in range(1, 201):
            f = families.f_poly(m)
            for k in range(5):
                assert (closed_forms.coeff_closed_form("f", m, None, k)
                        == coeff(f, k)), ("f", m, k)
        for m in range(1, 201):
            for n in range(1, 51):
                g = families.g_mn_poly(m, n)
                b = families.b_mn_poly(m, n)
                for k in range(5):
                    assert (closed_forms.coeff_closed_form("g", m, n, k)
                            == coeff(g, k)), ("g", m, n, k)
                    assert (closed_forms.coeff_closed_form("b", m, n, k)
                            == coeff(b, k)), ("b", m, n, k)


def test_criterion_07_f_closed_form(criterion):
    with criterion(7, 5.0, "binomial-sum closed form of f_m, m = 1..200"):
        for m in range(1, 201):
            assert closed_forms.f_closed_form(m) == families.f_poly(m), m


def test_criterion_08_clasped_necklace_identity(criterion):
    with criterion(8, 30.0, "clasped-necklace class equals the construction "
                            "recursion and collapses to b_{m+1} at n = 2"):
        for m in range(2, 9):
            for n in range(2, 9):
                c = cli._necklace_construction("clasped", m, n)
                assert (families.clasped_necklace_class(m, n).poly
                        == melonic.class_of(c).poly), (m, n)
        for m in range(2, 31):
            assert (families.clasped_necklace_class(m, 2).poly
                    == families.b_poly(m + 1)), m


def test_criterion_09_clasped_necklace_lc(criterion):
    with criterion(9, 60.0, "clasped-necklace classes LC, "
                            "m = 1..30, n = 2..30"):
        for m in range(1, 31):
            for n in range(2, 31):
                coeffs = families.clasped_necklace_class(m, n).poly.coeffs
                lc, fails = concavity.check_lc(coeffs)
                assert lc, (m, n, fails)


def test_criterion_10_point_count_oracle(criterion):
    with criterion(10, 300.0, "finite-field point counts match every class "
                              "with <= 9 edges at q = 2, 3, 5; 10-edge "
                              "banana at q = 2, 3"):
        checked = 0
        for t, enumerated in melonic.enumerate_constructions(9):
            c = melonic.linearize(t)
            cls = melonic.class_of(c)
            assert cls == enumerated, melonic.serialize(c)
            g = melonic.to_graph(c)
            for q in (2, 3, 5):
                counted = graphalg.count_complement_points(g, q)
                assert counted == cls.eval_at_field_size(q), (
                    melonic.serialize(c), q)
            checked += 1
        assert checked == 11756
        big = melonic.MelonicConstruction((melonic.Stage((10,), 0, 1),))
        cls = melonic.class_of(big)
        g = melonic.to_graph(big)
        for q in (2, 3):
            assert (graphalg.count_complement_points(g, q)
                    == cls.eval_at_field_size(q)), q


def test_criterion_11_degree_and_positivity(criterion):
    with criterion(11, 60.0, "every class with <= 9 edges has degree equal "
                             "to its edge count and strictly positive "
                             "coefficients"):
        checked = 0
        for t, cls in melonic.enumerate_constructions(9):
            c = melonic.linearize(t)
            coeffs = cls.poly.coeffs
            assert len(coeffs) - 1 == c.num_edges(), melonic.serialize(c)
            assert all(a > 0 for a in coeffs), melonic.serialize(c)
            checked += 1
        assert checked == 11756


def test_criterion_12_property_suites(criterion):
    with criterion(12, 60.0, "randomized property suites, >= 1000 seeded "
                             "instances each"):
        for suite in property_suites.ALL_SUITES:
            assert suite() >= 1000, suite.__name__


def test_criterion_13_search_determinism(criterion, capsys):
    with criterion(13, 300.0, "LC search over all constructions with <= 8 "
                              "edges finds no counterexamples, "
                              "independently of worker count"):
        runs = []
        for workers in (1, 3):
            out = _run_cli(capsys, ["search", "--max-edges", "8",
                                    "--workers", str(workers)])
            payload = json.loads(out)
            assert payload.pop("elapsed") >= 0.0
            runs.append(payload)
        assert runs[0] == runs[1]
        assert runs[0]["counterexamples"] == []
        assert runs[0]["constructions_checked"] == 3096
        assert runs[0]["edge_bound"] == 8
