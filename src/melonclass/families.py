"""The four recursive polynomial families and the necklace closed forms.

All four families are polynomials in S, generated exactly:

    f_0 = 0,  f_{m+1} = (s+1) f_m + (-1)^m
    g_{m,n} = n (s+1)^{m-1} - f_m,   g_m = g_{m,m},  g_0 = 0
    h_0 = 1,  h_m = (s+1) f_{m-1}
    b_{m,n} = n (s+1)^{m-1} + (s+1) f_m,   b_m = b_{m,m},  b_0 = 0

b_m is the class of the m-banana graph (two vertices joined by m parallel
edges).  f_m and (s+1)^k are built from their closed forms, with no
table of earlier ones.  Both necklaces are strings of bananas with their
two ends identified, and each has the class (s+1) f + h of its string's
triple (f, g, h), built in the ring that `poly.ring` picks for its edge
count, as `melonic.class_of` builds a class: on ints with Python int
powers, on polynomials with the powers of b_m and g_m in `_pow_cache`.
The paper's closed forms are kept with the tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Any

from . import poly
from .poly import ClassPoly, IntPoly, ONE, S_PLUS_1, S_PLUS_2, ZERO, mul

# the powers of b_m and g_m of the latest necklace built on polynomials:
# at most two bases, the oldest dropped first
_pow_cache: dict[IntPoly, list[IntPoly]] = {}
# f_m, g_m, h_m and b_m; typed, so 2.0 or True never gets the entry for 2
_cached = lru_cache(maxsize=None, typed=True)


def _pow(p: Any, k: int) -> Any:
    """p^k: of an int by `**`, of a polynomial from one cached list of
    powers per base."""
    if isinstance(p, int):
        return p ** k
    powers = _pow_cache.get(p)
    if powers is None:
        if len(_pow_cache) == 2:
            del _pow_cache[next(iter(_pow_cache))]
        powers = _pow_cache[p] = [ONE]
    while len(powers) <= k:
        powers.append(mul(powers[-1], p))
    return powers[k]


def _binomials(k: int) -> list[int]:
    """The coefficients of (s+1)^k, by c_(j+1) = c_j (k-j) / (j+1)."""
    return list(accumulate(range(k), lambda c, j: c * (k - j) // (j + 1),
                           initial=1))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _over_s_plus_2(p: Any, s2: Any) -> Any:
    """The quotient of p by s2 = s + 2: an int by `//`, a polynomial by
    synthetic division from the top coefficient down; the remainder is
    dropped."""
    if isinstance(p, int):
        return p // s2
    top_down = accumulate(p.coeffs[:0:-1], lambda q, c: c - 2 * q)
    return IntPoly(reversed(list(top_down)))


@_cached
def f_poly(m: int) -> IntPoly:
    """f_m = ((s+1)^m - (-1)^m) / (s+2), the quotient of (s+1)^m by s+2;
    f_0 = 0, degree m-1 for m >= 1."""
    _require(m >= 0, "f_poly requires m >= 0")
    return _over_s_plus_2(IntPoly(_binomials(m)), S_PLUS_2)


def g_mn_poly(m: int, n: int) -> IntPoly:
    """g_{m,n} = n (s+1)^{m-1} - f_m."""
    _require(m >= 1 and n >= 1, "g_mn_poly requires m, n >= 1")
    return n * IntPoly(_binomials(m - 1)) - f_poly(m)


@_cached
def g_poly(m: int) -> IntPoly:
    """g_m = g_{m,m}; g_0 = 0."""
    _require(m >= 0, "g_poly requires m >= 0")
    return g_mn_poly(m, m) if m else ZERO


@_cached
def h_poly(m: int) -> IntPoly:
    """h_m = (s+1) f_{m-1}; h_0 = 1."""
    _require(m >= 0, "h_poly requires m >= 0")
    return mul(S_PLUS_1, f_poly(m - 1)) if m else ONE


def b_mn_poly(m: int, n: int) -> IntPoly:
    """b_{m,n} = n (s+1)^{m-1} + (s+1) f_m."""
    _require(m >= 1 and n >= 1, "b_mn_poly requires m, n >= 1")
    return n * IntPoly(_binomials(m - 1)) + mul(S_PLUS_1, f_poly(m))


@_cached
def b_poly(m: int) -> IntPoly:
    """The m-banana class b_m = b_{m,m}; b_0 = 0."""
    _require(m >= 0, "b_poly requires m >= 0")
    return b_mn_poly(m, m) if m else ZERO


def family_poly(family: str, m: int, n: int | None = None) -> IntPoly:
    """Dispatch on the family name "f", "g", "h" or "b"; n selects the
    two-parameter form of g and b."""
    if family not in ("f", "g", "h", "b"):
        raise ValueError(f"unknown family {family!r}")
    if n is not None and family in ("g", "b"):
        return (g_mn_poly if family == "g" else b_mn_poly)(m, n)
    return {"f": f_poly, "g": g_poly, "h": h_poly, "b": b_poly}[family](m)


def _closed(f: Any, h: Any, s1: Any) -> Any:
    """A string of networks with its two ends identified: (q-1) f counts
    the string's points with Psi, Phi != 0 and h those with Psi = 0 and
    Phi != 0, and closing the string makes its Phi the cycle's Psi, so the
    cycle has class #{Phi != 0} = (s+1) f + h, with s1 the s + 1 of the
    ring."""
    return s1 * f + h


def clasped_necklace_class(m: int, n: int) -> ClassPoly:
    """Class of the necklace of n-1 m-bananas closed by a single edge: it
    closes the string of an edge (1, 0, 0) and n-1 m-bananas, whose f is
    b_m^{n-1} and h is (n-1)(s+2) h_m b_m^{n-2} by the series rule
    (Brown-Yeats, CMP 2011).  At n = 2 it collapses to b_{m+1}."""
    _require(m >= 1 and n >= 2, "clasped_necklace_class requires m >= 1, n >= 2")
    lift, s2, read = poly.ring(m * (n - 1) + 1)
    b = lift(b_poly(m))
    b_n2 = _pow(b, n - 2)
    b_n1 = b_n2 * b
    h = (n - 1) * (s2 * lift(h_poly(m)) * b_n2)
    return read(_closed(b_n1, h, lift(S_PLUS_1)))


def necklace_class(m: int, n: int) -> ClassPoly:
    """Class of the necklace of n m-bananas arranged in a cycle: it closes
    the string of n m-bananas, whose h is n h_m b_m^{n-1} and whose f,
    f_m sum_{j<n} b_m^j g_m^{n-1-j} by the series rule, is
    (b_m^n - g_m^n) / (s+2), since b_m - g_m = (s+2) f_m."""
    _require(m >= 1 and n >= 2, "necklace_class requires m >= 1, n >= 2")
    lift, s2, read = poly.ring(m * n)
    b = lift(b_poly(m))
    b_n1 = _pow(b, n - 1)
    b_n = b_n1 * b
    f = _over_s_plus_2(b_n - _pow(lift(g_poly(m)), n), s2)
    return read(_closed(f, n * (lift(h_poly(m)) * b_n1), lift(S_PLUS_1)))
