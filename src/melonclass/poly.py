"""Exact dense integer polynomial arithmetic and class polynomials in S.

Coefficients are stored ascending by degree: index k holds the coefficient
of x**k.  The zero polynomial is the empty tuple.  Everything here is exact
arbitrary-precision integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class IntPoly:
    """Immutable integer polynomial in one variable, canonical dense form.

    Canonical form: no trailing zero coefficients, so the last entry is
    nonzero unless the polynomial is zero (empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, not attribute by
        # attribute, which __setattr__ refuses
        return IntPoly, (self.coeffs,)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        """Coefficient of degree k (0 beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return add(self, other)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return add(self, other.__neg__())

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        return mul(self, other)

    def __rmul__(self, other: int) -> "IntPoly":
        return self.__mul__(other)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
S_PLUS_1 = IntPoly((1, 1))
S_PLUS_2 = IntPoly((2, 1))


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    """Coefficientwise sum, canonical."""
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    return IntPoly(cs)


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    """Convolution product, canonical."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return ZERO
    cs = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                cs[i + j] += ai * bj
    return IntPoly(cs)


def shift_var(p: IntPoly, d: int) -> IntPoly:
    """Substitute x -> x + d, by Horner-style synthetic substitution.

    Builds q(x) = p(x + d) as (((c_n)(x+d) + c_{n-1})(x+d) + ...), which
    keeps every step an exact shift-and-add on the coefficient list.
    """
    if d == 0 or p.is_zero():
        return p
    cs: list[int] = []
    for c in reversed(p.coeffs):
        # cs <- cs * (x + d) + c
        cs.append(0)
        for i in range(len(cs) - 1, 0, -1):
            cs[i] = cs[i - 1] + cs[i] * d
        cs[0] = cs[0] * d + c
    return IntPoly(cs)


def eval_int(p: IntPoly, x: int) -> int:
    """Exact integer value p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# The int ring: the values of the class polynomials at s = 2^k.  A class
# computed there is exact whatever its size, since evaluation is a ring
# homomorphism, and `from_value` reads it back.  The class of a graph with
# E edges has nonnegative integer coefficients in s (the paper's first
# sentence), and their sum b(1) is its number of points over F_3, where
# s = 1: the points of F_3^E where Psi is not 0.  So every coefficient
# lies in [0, 3^E], below 2^(k-1) whenever k > (3^E).bit_length().  Ints
# are the faster ring up to about INT_FOLD_EDGES edges; past it, k
# outgrows the coefficients of the small parts, and polynomials are
# faster.  `melonic.class_of` and the necklace forms in `families` both
# switch rings here.
INT_FOLD_EDGES = 200


def int_ring_bits(edges: int) -> int:
    """k for the classes of graphs with at most `edges` edges: the least
    multiple of 8 above (3^edges).bit_length(), about 1.6 bits an edge.
    Any k above the bound reads a class back exactly, so rounding up to
    whole bytes changes no class and lets `from_value` read bytes."""
    return ((3 ** edges).bit_length() // 8 + 1) * 8


def from_value(value: int, k: int) -> IntPoly:
    """The polynomial p with p(2^k) = value whose coefficients all lie in
    [-2^(k-1), 2^(k-1)): the balanced base-2^k digits of value.  The
    inverse of eval_int(p, 2^k) for such p.

    k is a positive multiple of 8, so each digit is k/8 bytes.  Adding
    2^(k-1) to every digit, as one int whose bytes repeat the pattern
    00..00 80, makes every digit nonnegative; the sum is written out once
    by `int.to_bytes` and each digit read from its own slice, in time
    linear in the size of value."""
    if k <= 0 or k % 8:
        raise ValueError(f"k must be a positive multiple of 8, not {k}")
    width = k // 8
    # kn >= bit_length + 2 digits hold value, whatever its sign
    n = (abs(value).bit_length() + 1) // k + 1
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (value + offset).to_bytes(n * width, "little")
    half, digit = 1 << (k - 1), int.from_bytes
    return IntPoly([digit(raw[i:i + width], "little") - half
                    for i in range(0, n * width, width)])


@dataclass(frozen=True)
class ClassPoly:
    """The class of a graph: an IntPoly in S, where L = S + 2."""

    poly: IntPoly

    def eval_at_field_size(self, q: int) -> int:
        """Value of the class when the affine-line class L is set to q."""
        return eval_int(self.poly, q - 2)
