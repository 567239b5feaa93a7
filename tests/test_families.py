import pytest

from melonclass import families as fam
from melonclass import poly
from melonclass.concavity import check_lc
from melonclass.poly import IntPoly, eval_int, mul

from closed_forms import coeff_closed_form, f_closed_form, p_mn_poly
from reference_tables import ULC_TABLES


def _coeffs(c) -> list[int]:
    return list(c.coeffs)


def test_f_first_values():
    assert _coeffs(fam.f_poly(0)) == []
    assert _coeffs(fam.f_poly(1)) == [1]
    assert _coeffs(fam.f_poly(2)) == [0, 1]
    assert _coeffs(fam.f_poly(3)) == [1, 1, 1]


@pytest.mark.parametrize("tag,table", sorted(ULC_TABLES.items()))
def test_published_rows(tag, table):
    for m, coeffs, _, _ in table:
        got = _coeffs(fam.family_poly(tag, m))
        assert (got if got else [0]) == coeffs, (tag, m)


def test_degrees():
    for m in range(2, 40):
        assert fam.f_poly(m).degree == m - 1
        assert fam.g_poly(m).degree == m - 1
        assert fam.h_poly(m).degree == m - 1
        assert fam.b_poly(m).degree == m


def test_h_is_f_plus_sign():
    # h_m = (s+1) f_{m-1} = f_m + (-1)^m is the f recursion, which f_poly
    # does not run: it computes the closed form
    for m in range(1, 501):
        sign = 1 if m % 2 == 0 else -1
        assert fam.h_poly(m) == fam.f_poly(m) + IntPoly((sign,))


def test_g_plus_f_is_n_powers():
    for m in range(1, 30):
        for n in (1, 2, 5, 9):
            lhs = fam.g_mn_poly(m, n) + fam.f_poly(m)
            assert lhs == n * fam._pow(fam.S_PLUS_1, m - 1)


def test_b_matches_banana_recursion():
    # replacing one edge of a 2-banana by m parallel edges gives an
    # (m+1)-banana; the deletion-contraction relation then reads
    # b_{m+1} = f_m b_2 + g_m (s+1) + h_m (s+2), since contracting the
    # other edge leaves a loop (class s+1) and deleting it a single
    # edge (class s+2)
    for m in range(1, 30):
        rhs = (mul(fam.f_poly(m), fam.b_poly(2))
               + mul(fam.g_poly(m), IntPoly((1, 1)))
               + mul(fam.h_poly(m), IntPoly((2, 1))))
        assert fam.b_poly(m + 1) == rhs


def test_closed_form_matches_recursion():
    for m in range(1, 80):
        assert f_closed_form(m) == fam.f_poly(m)


def test_two_parameter_specializations():
    for m in range(1, 25):
        assert fam.g_mn_poly(m, m) == fam.g_poly(m)
        assert fam.b_mn_poly(m, m) == fam.b_poly(m)


def test_coeff_closed_form_small_sweep():
    for tag in ("f", "g", "b"):
        for m in range(1, 41):
            for n in (1, 2, 7, 23):
                if tag == "f":
                    poly = fam.f_poly(m)
                    got = [coeff_closed_form(tag, m, None, k)
                           for k in range(5)]
                else:
                    poly = fam.family_poly(tag, m, n)
                    got = [coeff_closed_form(tag, m, n, k)
                           for k in range(5)]
                assert got == [poly[k] for k in range(5)], (tag, m, n)


def test_coeff_closed_form_rejects_h():
    with pytest.raises(ValueError):
        coeff_closed_form("h", 5, None, 1)
    with pytest.raises(ValueError):
        coeff_closed_form("f", 5, None, 5)
    with pytest.raises(ValueError):
        coeff_closed_form("g", 5, None, 1)


def test_p_mn_examples():
    assert _coeffs(p_mn_poly(1, 7)) == [1]
    assert _coeffs(p_mn_poly(2, 5)) == [5, 1]
    assert _coeffs(p_mn_poly(3, 5)) == [2, 7, 1]


def test_p_mn_recursion():
    # p_{m,n} = (s+1) p_{m-1,n+1} + (n-1)(-1)^m for m >= 2
    s_plus_1 = IntPoly((1, 1))
    for m in range(2, 25):
        for n in range(2, 12):
            sign = 1 if m % 2 == 0 else -1
            rhs = (mul(s_plus_1, p_mn_poly(m - 1, n + 1))
                   + IntPoly((sign * (n - 1),)))
            assert p_mn_poly(m, n) == rhs, (m, n)


def test_clasped_collapses_to_banana_at_n2():
    for m in range(1, 31):
        assert fam.clasped_necklace_class(m, 2).poly == fam.b_poly(m + 1)


def test_clasped_polygon_at_m1():
    # one-edge bananas make the clasped necklace an n-gon
    for n in range(2, 12):
        expected = mul(fam.b_poly(2), fam._pow(fam.S_PLUS_2, n - 2))
        assert fam.clasped_necklace_class(1, n).poly == expected


def test_deep_clasped_necklace_matches_construction():
    # powers are grown iteratively, so a 1100-bead necklace is no
    # deeper for the interpreter than a short one
    from melonclass import cli, melonic
    closed = fam.clasped_necklace_class(1, 1100).poly
    assert closed.degree == 1100
    construction = cli._necklace_construction("clasped", 1, 1100)
    assert melonic.class_of(construction).poly == closed


def test_plain_polygon_at_m1():
    # one-edge bananas make the plain necklace an n-gon too
    for n in range(2, 1101):
        expected = mul(fam.S_PLUS_1, fam._pow(fam.S_PLUS_2, n - 1))
        assert fam.necklace_class(1, n).poly == expected, n


def test_deep_necklace_matches_construction():
    from melonclass import cli, melonic
    closed = fam.necklace_class(1, 1100).poly
    assert closed.degree == 1100
    construction = cli._necklace_construction("plain", 1, 1100)
    assert melonic.class_of(construction).poly == closed


def test_necklace_closed_forms_match_recursion():
    # the series-rule formula against the paper's contraction-deletion
    # recursion on the necklace's construction
    from melonclass import cli, melonic
    for m in range(1, 13):
        for n in range(2, 16):
            construction = cli._necklace_construction("plain", m, n)
            assert (fam.necklace_class(m, n).poly
                    == melonic.class_of(construction).poly), (m, n)


def test_necklace_classes_same_on_ints_and_on_polynomials(monkeypatch):
    # up to poly.INT_FOLD_EDGES edges both necklace forms run on the int
    # ring, past it on polynomials; with the threshold at 0 every one runs
    # on polynomials.  660 pairs, m, n <= 40 and mn <= 260, across the
    # threshold: (10, 20) has 200 edges plain, (10, 21) 201 clasped
    pairs = [(m, n) for m in range(1, 41) for n in range(2, 41)
             if m * n <= 260]
    assert len(pairs) == 660
    assert {(10, 20), (10, 21)} <= set(pairs)
    forms = (fam.necklace_class, fam.clasped_necklace_class)
    on_ints = [form(m, n) for m, n in pairs for form in forms]
    monkeypatch.setattr(poly, "INT_FOLD_EDGES", 0)
    assert [form(m, n) for m, n in pairs for form in forms] == on_ints


def test_pow_cache_keeps_two_bases(monkeypatch):
    # on polynomials the necklace forms cache the powers of b_m and g_m,
    # and only those of the latest call
    monkeypatch.setattr(poly, "INT_FOLD_EDGES", 0)
    for m in range(1, 31):
        fam.necklace_class(m, 3)
        assert set(fam._pow_cache) == {fam.b_poly(m), fam.g_poly(m)}
    fam.clasped_necklace_class(31, 3)
    assert len(fam._pow_cache) == 2 and fam.b_poly(31) in fam._pow_cache


def test_necklace_is_log_concave():
    # beyond the paper, which proves LC only for clasped necklaces
    for m in range(1, 21):
        for n in range(2, 21):
            coeffs = fam.necklace_class(m, n).poly.coeffs
            assert check_lc(coeffs) == (True, []), (m, n)


def test_clasped_short_form():
    # the library's short form b_m^(n-2) ((s+1) b_m + (n-1)(s+2) h_m),
    # from the closing rule, against the paper's
    # (s+1)(s+2) b_m^(n-2) p_{m,n}
    s1s2 = mul(fam.S_PLUS_1, fam.S_PLUS_2)
    for m in range(1, 25):
        b_m = fam.b_poly(m)
        for n in range(2, 20):
            paper = mul(mul(s1s2, fam._pow(b_m, n - 2)), p_mn_poly(m, n))
            assert fam.clasped_necklace_class(m, n).poly == paper, (m, n)


def test_necklace_base_case():
    for m in range(1, 12):
        assert fam.necklace_class(m, 2).poly == fam.b_poly(2 * m)


def test_necklace_values_are_positive():
    for m in range(1, 7):
        for n in range(2, 7):
            coeffs = fam.necklace_class(m, n).poly.coeffs
            assert all(a > 0 for a in coeffs), (m, n)


def test_necklace_degree_is_edge_count():
    for m in range(1, 8):
        for n in range(2, 8):
            assert fam.necklace_class(m, n).poly.degree == m * n
            assert fam.clasped_necklace_class(m, n).poly.degree == m * (n - 1) + 1


def test_preconditions():
    with pytest.raises(ValueError):
        fam.f_poly(-1)
    with pytest.raises(ValueError):
        fam.g_mn_poly(0, 3)
    with pytest.raises(ValueError):
        p_mn_poly(2, 1)
    with pytest.raises(ValueError):
        fam.necklace_class(0, 3)
    with pytest.raises(ValueError):
        fam.clasped_necklace_class(2, 1)


def test_banana_counts_points():
    # U(B_m) evaluated at L = q counts nonvanishing points of
    # sum_i prod_{j != i} t_j, small cases by direct enumeration
    import itertools
    for m, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        count = 0
        for point in itertools.product(range(q), repeat=m):
            total = 0
            for i in range(m):
                term = 1
                for j in range(m):
                    if j != i:
                        term = term * point[j] % q
                total += term
            if total % q != 0:
                count += 1
        assert eval_int(fam.b_poly(m), q - 2) == count, (m, q)
