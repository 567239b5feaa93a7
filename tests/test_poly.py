import pytest

from melonclass.poly import (Basis, ClassPoly, IntPoly, ZERO, add, eval_int,
                             mul, shift_var, to_basis)


def test_canonical_form_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()) == ZERO


def test_degree_and_indexing():
    p = IntPoly((4, 8, 5, 1))
    assert p.degree == 3
    assert p[0] == 4 and p[3] == 1
    assert p[17] == 0
    assert ZERO.degree == -1
    assert ZERO.is_zero


def test_equality_and_hash():
    assert IntPoly((1, 2)) == IntPoly([1, 2, 0])
    assert hash(IntPoly((1, 2))) == hash(IntPoly((1, 2)))
    assert IntPoly((1, 2)) != IntPoly((2, 1))


def test_immutable():
    p = IntPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_add_sub_neg():
    p = IntPoly((1, 2, 3))
    q = IntPoly((5, -2, -3))
    assert add(p, q) == IntPoly((6,))
    assert p - q == IntPoly((-4, 4, 6))
    assert -p == IntPoly((-1, -2, -3))
    assert p + ZERO == p


def test_mul_convolution():
    assert mul(IntPoly((1, 1)), IntPoly((2, 1))) == IntPoly((2, 3, 1))
    assert mul(IntPoly((0, 1)), IntPoly((0, 1))) == IntPoly((0, 0, 1))
    assert mul(ZERO, IntPoly((5, 7))) == ZERO
    assert 3 * IntPoly((1, 2)) == IntPoly((3, 6))
    assert IntPoly((1, 2)) * 0 == ZERO


def test_eval_int_matches_horner():
    p = IntPoly((7, -3, 0, 2))
    for x in (-5, -1, 0, 1, 4, 100):
        assert eval_int(p, x) == 7 - 3 * x + 2 * x ** 3
    assert eval_int(ZERO, 12) == 0


def test_shift_var_examples():
    # b_2 in S is [2, 3, 1]; substituting s -> s - 1 gives s(s+1)
    assert shift_var(IntPoly((2, 3, 1)), -1) == IntPoly((0, 1, 1))
    assert shift_var(IntPoly((0, 1)), 5) == IntPoly((5, 1))
    assert shift_var(ZERO, 3) == ZERO


def test_shift_var_is_substitution():
    p = IntPoly((3, -1, 4, 1))
    for d in (-3, -1, 0, 2, 10):
        q = shift_var(p, d)
        for x in (-2, 0, 1, 7):
            assert eval_int(q, x) == eval_int(p, x + d)


def test_basis_offsets():
    assert Basis.S.offset == 0
    assert Basis.T.offset == 1
    assert Basis.L.offset == 2


def test_to_basis_round_trip():
    c = ClassPoly(IntPoly((0, 1)), Basis.S)  # f_2 = s
    t = to_basis(c, Basis.T)
    assert t.poly == IntPoly((-1, 1))  # s = T - 1
    assert to_basis(t, Basis.S) == c
    ell = to_basis(c, Basis.L)
    assert ell.poly == IntPoly((-2, 1))
    assert to_basis(ell, Basis.T).poly == IntPoly((-1, 1))


def test_class_poly_eval_at_field_size():
    # b_2 = (s+1)(s+2) counts (q-1)q points
    b2 = ClassPoly(IntPoly((2, 3, 1)), Basis.S)
    for q in (2, 3, 5, 7):
        assert b2.eval_at_field_size(q) == (q - 1) * q
    # the same class expressed in T must evaluate identically
    assert to_basis(b2, Basis.T).eval_at_field_size(5) == 20


def test_value_preserved_across_bases():
    p = ClassPoly(IntPoly((3, 1, 4, 1, 5)), Basis.S)
    for basis in (Basis.T, Basis.L):
        moved = to_basis(p, basis)
        for q in (2, 3, 11):
            assert moved.eval_at_field_size(q) == p.eval_at_field_size(q)
