from fractions import Fraction
from math import comb

import pytest

from melonclass import concavity as cv
from melonclass import families as fam


def test_lc_basics():
    assert cv.check_lc((1, 2, 5)) == (False, [1])
    assert cv.check_lc((1, 2, 4)) == (True, [])
    assert cv.check_lc((1, 3, 3, 1)) == (True, [])
    assert cv.check_lc(()) == (True, [])
    assert cv.check_lc((5,)) == (True, [])
    # zero products make the inequality vacuous
    assert cv.check_lc((1, 0, 0, 1)) == (True, [])


def test_ulc_against_normalized_definition():
    # ULC of order n: a_k / C(n, k) is log-concave; cross-check the
    # factored integer inequality against the Fraction form
    seqs = [
        (1, 3, 3, 1),
        (1, 2, 4, 3, 1),
        (0, 5, 20, 50, 80, 86, 62, 29, 8, 1),
        (2, 3, 1),
        (4, 10, 10, 3),
    ]
    for seq in seqs:
        n = len(seq) - 1
        normalized = [Fraction(a, comb(n, k)) for k, a in enumerate(seq)]
        expect_fails = [k for k in range(1, n)
                        if normalized[k] ** 2 < normalized[k - 1] * normalized[k + 1]]
        ok, fails = cv.check_ulc(seq)
        assert fails == expect_fails, seq
        assert ok == (not expect_fails)


def test_ulc_order_against_normalized_definition():
    seq = (1, 3, 9, 13, 11, 5, 1)  # degree 6
    for m in (7, 8, 12):
        normalized = [Fraction(seq[k] if k < len(seq) else 0, comb(m, k))
                      for k in range(m + 1)]
        expect_fails = [k for k in range(1, m)
                        if normalized[k] ** 2 < normalized[k - 1] * normalized[k + 1]]
        ok, fails = cv.check_ulc_order(seq, m)
        assert list(fails) == expect_fails, m
        assert ok == (not expect_fails)


def test_ulc_order_rejects_small_m():
    with pytest.raises(cv.OrderTooSmall):
        cv.check_ulc_order((1, 2, 3, 4), 2)
    with pytest.raises(ValueError):
        cv.check_ulc_order((1, 2), 0)


def test_ulc_order_infinity():
    # k a_k^2 >= (k+1) a_{k-1} a_{k+1}
    assert cv.check_ulc_order((1, 2, 2), None) == (True, [])
    assert cv.check_ulc_order((1, 2, 3), None) == (False, [1])


def test_ulc_order_monotone_in_m():
    # ULC(m) implies ULC(m+1) for nonnegative sequences
    seq = tuple(fam.b_poly(8).coeffs)
    for m in range(8, 20):
        ok, _ = cv.check_ulc_order(seq, m)
        assert ok


def test_unimodal_and_zeros():
    assert cv.check_unimodal_and_zeros((1, 0, 0, 1)) == (False, True, False)
    assert cv.check_unimodal_and_zeros((1, 2, 2, 1)) == (True, False, True)
    assert cv.check_unimodal_and_zeros((0, 1, 2, 1)) == (True, False, False)
    assert cv.check_unimodal_and_zeros((3, 2, 3)) == (False, False, True)
    assert cv.check_unimodal_and_zeros((5,)) == (True, False, True)


def test_published_examples():
    assert cv.check_ulc(tuple(fam.f_poly(7).coeffs)) == (False, [1, 3, 4, 5])
    assert cv.check_ulc(tuple(fam.h_poly(10).coeffs)) == \
        (False, [1, 2, 4, 5, 6, 7, 8])
    assert cv.check_ulc(tuple(fam.b_poly(8).coeffs)) == (True, [])
    assert cv.check_ulc_order(tuple(fam.g_poly(6).coeffs), 6) == (False, [1])
    assert cv.check_ulc_order(tuple(fam.h_poly(7).coeffs), 7) == (True, [])


def test_analyze_report():
    rep = cv.analyze(fam.f_poly(10).coeffs, ulc_order=10)
    assert rep.degree == 9
    assert rep.lc and not rep.lc_failures
    assert not rep.ulc and rep.ulc_failures == (2, 4, 5, 6, 7, 8)
    assert rep.ulc_order == (10, False, (2,))
    assert rep.unimodal and not rep.internal_zeros
    assert not rep.all_positive  # constant term of f_10 is 0

