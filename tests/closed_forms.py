"""The paper's closed forms of the f family, of the low-degree
coefficients of f_m, g_{m,n} and b_{m,n}, and of the clasped-necklace
cofactor p_{m,n}, kept as references for `melonclass.families`: each is
an independent route to the same polynomial, and the tests check that
the two agree.
"""

from __future__ import annotations

from melonclass.poly import ONE, S_PLUS_1, IntPoly, mul


def f_closed_form(m: int) -> IntPoly:
    """f_m from the explicit binomial-sum formula.

    f_m(s) = sum_{j>=1} sum_{k=1}^{floor(m/2)} C(m-2k, j-1) s^j, plus a
    constant term of 1 exactly when m is odd.
    """
    if m < 1:
        raise ValueError("f_closed_form requires m >= 1")
    coeffs = [1 if m % 2 == 1 else 0] + [0] * max(m - 1, 1)
    for k in range(1, m // 2 + 1):
        top = m - 2 * k
        # row C(top, 0..top) added at degrees 1..top+1
        c = 1
        for j in range(top + 1):
            coeffs[j + 1] += c
            c = c * (top - j) // (j + 1)
    return IntPoly(coeffs)


def p_mn_poly(m: int, n: int) -> IntPoly:
    """The cofactor of the paper's clasped-necklace class
    (s+1)(s+2) b_m^(n-2) p_{m,n}, built by Horner:

    p_{m,n}(s) = (s+1)^{m-1} + sum_{k=0}^{m-2} (-1)^{m-2-k} (n+k-1) (s+1)^k.
    Satisfies p_{m,n} = (s+1) p_{m-1,n+1} + (n-1)(-1)^{m-2} and
    p_{2,n} = s + n, and m = 1 gives the empty sum, p_{1,n} = 1.
    """
    if m < 1 or n < 2:
        raise ValueError("p_mn_poly requires m >= 1, n >= 2")
    acc = ONE
    for k in range(m - 2, -1, -1):
        sign = 1 if (m - 2 - k) % 2 == 0 else -1
        acc = mul(acc, S_PLUS_1) + IntPoly((sign * (n + k - 1),))
    return acc


def coeff_closed_form(family: str, m: int, n: int | None, k: int) -> int:
    """Closed form for the degree-k coefficient, 0 <= k <= 4.

    Covers f_m (n ignored), g_{m,n}, and b_{m,n}, with separate formulas
    for odd and even m.  Returns 0 where k exceeds the degree.
    """
    if family not in ("f", "g", "b"):
        raise ValueError(
            "closed-form coefficients exist only for families f, g, b")
    if m < 1:
        raise ValueError("coeff_closed_form requires m >= 1")
    if not 0 <= k <= 4:
        raise ValueError("closed-form coefficients cover only degrees 0..4")
    odd = m % 2 == 1

    if family == "f":
        if odd:
            table = (
                1,
                (m - 1, 2),
                ((m - 1) ** 2, 4),
                ((m - 1) * (m - 3) * (2 * m - 1), 24),
                ((m - 1) * (m - 3) * (m * m - 4 * m + 1), 48),
            )
        else:
            table = (
                0,
                (m, 2),
                (m * (m - 2), 4),
                (m * (m - 2) * (2 * m - 5), 24),
                (m * (m - 2) ** 2 * (m - 4), 48),
            )
    else:
        if n is None or n < 1:
            raise ValueError(
                "families g and b need the second parameter n >= 1")
        if family == "g":
            if odd:
                table = (
                    n - 1,
                    ((m - 1) * (2 * n - 1), 2),
                    ((m - 1) * ((m - 1) * (2 * n - 1) - 2 * n), 4),
                    ((m - 1) * (m - 3) * (4 * n * (m - 2) - (2 * m - 1)), 24),
                    ((m - 1) * (m - 3)
                     * (2 * n * (m - 2) * (m - 4) - (m * m - 4 * m + 1)), 48),
                )
            else:
                table = (
                    n,
                    (2 * n * (m - 1) - m, 2),
                    ((m - 2) * (2 * n * (m - 1) - m), 4),
                    ((m - 2) * (4 * n * (m - 1) * (m - 3) - m * (2 * m - 5)), 24),
                    ((m - 2) * (m - 4)
                     * (2 * n * (m - 1) * (m - 3) - m * (m - 2)), 48),
                )
        else:
            if odd:
                table = (
                    n + 1,
                    ((m - 1) * (2 * n + 1) + 2, 2),
                    ((m - 1) * (2 * n * (m - 2) + m + 1), 4),
                    ((m - 1) * (4 * n * (m - 2) * (m - 3) + 2 * m * m - m - 3), 24),
                    ((m - 1) * (m - 3)
                     * (2 * n * (m - 2) * (m - 4) + m * m - 1), 48),
                )
            else:
                table = (
                    n,
                    (2 * n * (m - 1) + m, 2),
                    (2 * n * (m - 1) * (m - 2) + m * m, 4),
                    ((m - 2) * (4 * n * (m - 1) * (m - 3) + m * (2 * m + 1)), 24),
                    ((m - 2)
                     * (2 * n * (m - 1) * (m - 3) * (m - 4)
                        + m * (m * m - 2 * m - 2)), 48),
                )

    entry = table[k]
    if isinstance(entry, int):
        return entry
    q, r = divmod(*entry)
    if r:
        raise AssertionError(f"non-exact division {entry} in closed form")
    return q
