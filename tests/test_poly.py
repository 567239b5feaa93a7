import copy
import pickle
import random

import pytest

from melonclass.poly import (ClassPoly, IntPoly, ZERO, add, eval_int,
                             from_value, mul, shift_var)


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
    assert ZERO.is_zero()
    assert not IntPoly((1,)).is_zero()


def test_equality_and_hash():
    assert IntPoly((1, 2)) == IntPoly([1, 2, 0])
    assert hash(IntPoly((1, 2))) == hash(IntPoly((1, 2)))
    assert IntPoly((1, 2)) != IntPoly((2, 1))


def test_immutable():
    p = IntPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_copies_and_pickles_are_equal():
    # a polynomial is an immutable value whose __setattr__ refuses an
    # attribute-by-attribute restore, so it pickles and copies whole,
    # through its constructor
    for p in (IntPoly((2, 1)), ZERO, IntPoly((-3, 0, 7))):
        for other in (pickle.loads(pickle.dumps(p)), copy.copy(p),
                      copy.deepcopy(p)):
            assert other == p and other.coeffs == p.coeffs
            assert type(other.coeffs) is tuple
        cls = ClassPoly(p)
        assert pickle.loads(pickle.dumps(cls)) == cls
        assert copy.deepcopy(cls) == cls


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


def test_from_value_inverts_eval_at_a_power_of_two():
    # from_value inverts p -> p(2^k) whenever every coefficient lies in
    # [-2^(k-1), 2^(k-1)); k is a whole number of bytes
    rng = random.Random(3)
    for k in (8, 16, 64, 480):
        bound = 1 << (k - 1)
        for _ in range(200):
            p = IntPoly(rng.randrange(-bound, bound)
                        for _ in range(rng.randrange(8)))
            assert from_value(eval_int(p, 1 << k), k).coeffs == p.coeffs
    assert from_value(eval_int(ZERO, 1 << 8), 8) == ZERO
    # the extremes of the balanced digits
    for p in (IntPoly((-128, 127, -128)), IntPoly((127, -128, 127)),
              IntPoly((-128,)), IntPoly((0, 0, 127))):
        assert from_value(eval_int(p, 1 << 8), 8) == p
    for k in (0, 7, 12, 65):
        with pytest.raises(ValueError):
            from_value(5, k)


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


def test_to_basis_round_trip():
    # s = T - 1 = L - 2, so a class in S moves to T or L by shifting -1, -2
    s = IntPoly((0, 1))
    t = shift_var(s, -1)
    assert t == IntPoly((-1, 1))
    assert shift_var(t, 1) == s
    ell = shift_var(s, -2)
    assert ell == IntPoly((-2, 1))
    assert shift_var(ell, 1) == IntPoly((-1, 1))


def test_value_preserved_across_bases():
    p = IntPoly((3, 1, 4, 1, 5))
    for offset in (1, 2):
        moved = shift_var(p, -offset)
        assert shift_var(moved, offset) == p
        for q in (2, 3, 11):
            assert eval_int(moved, q - 2 + offset) == eval_int(p, q - 2)


def test_class_poly_eval_at_field_size():
    # b_2 = (s+1)(s+2) counts (q-1)q points
    b2 = ClassPoly(IntPoly((2, 3, 1)))
    for q in (2, 3, 5, 7):
        assert b2.eval_at_field_size(q) == (q - 1) * q
