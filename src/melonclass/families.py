"""The four recursive polynomial families and the necklace closed forms.

All four families are polynomials in S, generated exactly:

    f_0 = 0,  f_{m+1} = (s+1) f_m + (-1)^m
    g_{m,n} = n (s+1)^{m-1} - f_m,   g_m = g_{m,m},  g_0 = 0
    h_0 = 1,  h_m = (s+1) f_{m-1}
    b_{m,n} = n (s+1)^{m-1} + (s+1) f_m,   b_m = b_{m,m},  b_0 = 0

b_m is the class of the m-banana graph (two vertices joined by m parallel
edges).  The necklace and clasped-necklace classes are closed forms in
these families.  The closed forms of f_m and of the low-degree
coefficients, independent routes to the same polynomials, are kept with
the tests that check the recursion against them (`tests/closed_forms.py`).
"""

from __future__ import annotations

from functools import lru_cache

from .poly import ClassPoly, IntPoly, ONE, ZERO, mul

S_PLUS_1 = IntPoly((1, 1))
S_PLUS_2 = IntPoly((2, 1))


_f_cache: list[IntPoly] = [ZERO]
_pow_cache: dict[IntPoly, list[IntPoly]] = {}
# g_m, h_m and b_m; typed, so that 2.0 or True never gets the entry for 2
_cached = lru_cache(maxsize=None, typed=True)


def _pow(p: IntPoly, k: int) -> IntPoly:
    """p^k, from one cached list of powers per base polynomial."""
    powers = _pow_cache.setdefault(p, [ONE])
    while len(powers) <= k:
        powers.append(mul(powers[-1], p))
    return powers[k]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def f_poly(m: int) -> IntPoly:
    """f_m, grown iteratively and cached; f_0 = 0, degree m-1 for m >= 2."""
    _require(m >= 0, "f_poly requires m >= 0")
    while len(_f_cache) <= m:
        k = len(_f_cache) - 1
        sign = 1 if k % 2 == 0 else -1
        _f_cache.append(mul(_f_cache[k], S_PLUS_1) + IntPoly((sign,)))
    return _f_cache[m]


def g_mn_poly(m: int, n: int) -> IntPoly:
    """g_{m,n} = n (s+1)^{m-1} - f_m."""
    _require(m >= 1 and n >= 1, "g_mn_poly requires m, n >= 1")
    return n * _pow(S_PLUS_1, m - 1) - f_poly(m)


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
    return n * _pow(S_PLUS_1, m - 1) + mul(S_PLUS_1, f_poly(m))


@_cached
def b_poly(m: int) -> IntPoly:
    """The m-banana class b_m = b_{m,m}; b_0 = 0."""
    _require(m >= 0, "b_poly requires m >= 0")
    return b_mn_poly(m, m) if m else ZERO


def family_poly(family: str, m: int, n: int | None = None) -> IntPoly:
    """Dispatch on the family name "f", "g", "h" or "b"; n selects the
    two-parameter form of g and b."""
    if family == "f":
        return f_poly(m)
    if family == "g":
        return g_poly(m) if n is None else g_mn_poly(m, n)
    if family == "h":
        return h_poly(m)
    if family == "b":
        return b_poly(m) if n is None else b_mn_poly(m, n)
    raise ValueError(f"unknown family {family!r}")


def p_mn_poly(m: int, n: int) -> IntPoly:
    """Cofactor polynomial of the clasped-necklace class.

    p_{m,n}(s) = (s+1)^{m-1} + sum_{k=0}^{m-2} (-1)^{m-2-k} (n+k-1) (s+1)^k.
    Satisfies p_{m,n} = (s+1) p_{m-1,n+1} + (n-1)(-1)^{m-2} and
    p_{2,n} = s + n.  m = 1 gives the empty sum, p_{1,n} = 1.
    """
    _require(m >= 1 and n >= 2, "p_mn_poly requires m >= 1, n >= 2")
    acc = _pow(S_PLUS_1, m - 1)
    for k in range(m - 1):
        sign = 1 if (m - 2 - k) % 2 == 0 else -1
        acc = acc + sign * (n + k - 1) * _pow(S_PLUS_1, k)
    return acc


def clasped_necklace_class(m: int, n: int) -> ClassPoly:
    """Class of the necklace of n-1 m-bananas closed by a single edge.

    In the T basis this is T(T+1) b_m^{n-2} (T^{m-1} +
    sum_{k=0}^{m-2} (-1)^{m-2-k} (n+k-1) T^k); here assembled in S as
    (s+1)(s+2) b_m^{n-2} p_{m,n}.  At n = 2 it collapses to b_{m+1}.
    """
    _require(m >= 1 and n >= 2, "clasped_necklace_class requires m >= 1, n >= 2")
    acc = mul(mul(S_PLUS_1, S_PLUS_2), _pow(b_poly(m), n - 2))
    return ClassPoly(mul(acc, p_mn_poly(m, n)))


def necklace_class(m: int, n: int) -> ClassPoly:
    """Class of the necklace of n m-bananas arranged in a cycle.

    One formula for every m, from the series rule for two-terminal
    networks (Brown-Yeats, CMP 2011), with the sum built by Horner in b_m:
        N_{m,n} = (s+1) f_m sum_{j<n} b_m^j g_m^{n-1-j} + n h_m b_m^{n-1}.
    """
    _require(m >= 1 and n >= 2, "necklace_class requires m >= 1, n >= 2")
    b_m, g_m = b_poly(m), g_poly(m)
    total = ZERO
    for j in range(n):
        total = mul(total, b_m) + _pow(g_m, j)
    return ClassPoly(mul(mul(S_PLUS_1, f_poly(m)), total)
                     + n * mul(h_poly(m), _pow(b_m, n - 1)))
