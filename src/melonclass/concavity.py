"""Exact checkers for log-concavity and its ultra variants.

All checks are literal integer inequalities on a coefficient sequence,
applied to interior indices only.  Negative entries are allowed; the
caller decides whether positivity matters (the report carries a separate
all_positive flag for that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class OrderTooSmall(ValueError):
    """A nonzero coefficient sits above the requested ULC order."""


def check_lc(coeffs: Sequence[int]) -> tuple[bool, list[int]]:
    """Log-concavity: a_k^2 >= a_{k-1} a_{k+1} at every interior degree."""
    failures = [k for k in range(1, len(coeffs) - 1)
                if coeffs[k] ** 2 < coeffs[k - 1] * coeffs[k + 1]]
    return not failures, failures


def check_ulc(coeffs: Sequence[int]) -> tuple[bool, list[int]]:
    """Ultra log-concavity with respect to the sequence's own degree n:
    ULC(n), with order 1 for a constant or empty sequence."""
    return check_ulc_order(coeffs, max(len(coeffs) - 1, 1))


def check_ulc_order(coeffs: Sequence[int],
                    m: int | None) -> tuple[bool, list[int]]:
    """ULC(m): k(m-k) a_k^2 >= (k+1)(m-k+1) a_{k-1} a_{k+1} for 0 < k < m.

    m = None selects the limiting ULC(infinity) inequality
    k a_k^2 >= (k+1) a_{k-1} a_{k+1}, checked over the whole sequence.
    Raises OrderTooSmall if some nonzero coefficient has degree > m.
    """
    if m is None:
        failures = [k for k in range(1, len(coeffs))
                    if k * coeffs[k] ** 2
                    < (k + 1) * coeffs[k - 1] * (coeffs[k + 1] if k + 1 < len(coeffs) else 0)]
        return not failures, failures
    if m < 1:
        raise ValueError("ULC order must be a positive integer")
    for k in range(m + 1, len(coeffs)):
        if coeffs[k] != 0:
            raise OrderTooSmall(
                f"nonzero coefficient at degree {k} exceeds ULC order {m}")

    def at(k: int) -> int:
        return coeffs[k] if 0 <= k < len(coeffs) else 0

    failures = [
        k for k in range(1, m)
        if k * (m - k) * at(k) ** 2
        < (k + 1) * (m - k + 1) * at(k - 1) * at(k + 1)
    ]
    return not failures, failures


def check_unimodal_and_zeros(coeffs: Sequence[int]) -> tuple[bool, bool, bool]:
    """Return (unimodal, has internal zeros, all strictly positive)."""
    n = len(coeffs)
    unimodal = True
    rising = True
    for i in range(1, n):
        if rising:
            if coeffs[i] < coeffs[i - 1]:
                rising = False
        elif coeffs[i] > coeffs[i - 1]:
            unimodal = False
            break
    nonzero = [i for i, c in enumerate(coeffs) if c != 0]
    internal_zeros = bool(nonzero) and any(
        coeffs[i] == 0 for i in range(nonzero[0], nonzero[-1]))
    all_positive = n > 0 and all(c > 0 for c in coeffs)
    return unimodal, internal_zeros, all_positive


@dataclass(frozen=True)
class ConcavityReport:
    """Verdicts for one coefficient sequence, degrees listed ascending."""

    degree: int
    lc: bool
    lc_failures: tuple[int, ...]
    ulc: bool
    ulc_failures: tuple[int, ...]
    ulc_order: tuple[int, bool, tuple[int, ...]] | None
    unimodal: bool
    internal_zeros: bool
    all_positive: bool


def analyze(coeffs: Sequence[int],
            ulc_order: int | None = None) -> ConcavityReport:
    """Run every check on one coefficient sequence."""
    lc, lc_fail = check_lc(coeffs)
    ulc, ulc_fail = check_ulc(coeffs)
    order_result = None
    if ulc_order is not None:
        ok, fail = check_ulc_order(coeffs, ulc_order)
        order_result = (ulc_order, ok, tuple(fail))
    unimodal, internal_zeros, all_positive = check_unimodal_and_zeros(coeffs)
    return ConcavityReport(
        degree=len(coeffs) - 1, lc=lc, lc_failures=tuple(lc_fail),
        ulc=ulc, ulc_failures=tuple(ulc_fail), ulc_order=order_result,
        unimodal=unimodal, internal_zeros=internal_zeros,
        all_positive=all_positive)
