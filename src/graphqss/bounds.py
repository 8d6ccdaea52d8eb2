"""Exact counting bounds on achievable thresholds.

Everything here is integer arithmetic: the double-counting inequality

    C(n, k) <= 2 * sum_{i=1..floor(2(n-k+1)/3)} C(n, i) * C(k-1, 2k-n-1)

is a necessary condition for a graph on n vertices to realize threshold k
(in the regime k > n/2 forced by no-cloning).  The sum's upper limit is
floored, the only consistent reading for a summation index, and binomials
with out-of-range lower index are 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import ResourceLimitError

# the exact scan takes about 1.2 s at n = 10^5 on a 2-core host, growing about
# as n^2
MIN_K_N_LIMIT = 100_000
# the exact pure-QSS scan takes 0.02 s at max_k = 400 and about 0.23 s at
# 1,000 on a 2-core host, growing faster than max_k^2
PURE_QSS_MAX_K_LIMIT = 1000


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class PureQssReport:
    """Exact scan of the self-complementary regime n = 2k - 1.

    ``rows`` lists (k, n, holds) for every scanned k.  The asymptotic chain
    derived from the k >= n/2 + n/157 bound gives k <= 159/4, so k <= 39 and
    n <= 77; the literature states the cutoff as n >= 79 (n = 78 is even and
    cannot equal 2k - 1), and the abstract's 79/156 constant differs slightly
    from 1/2 + 1/157.  The report carries both alongside the exact scan and
    flags disagreement rather than adjudicating.
    """

    rows: tuple[tuple[int, int, bool], ...]
    largest_holding_n: Optional[int]
    smallest_failing_n: Optional[int]
    chain_k_max: int
    chain_n_max: int
    stated_cutoff_n: int
    scan_matches_chain: bool


def _comb0(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _binomial_sum(n: int, upper: int) -> tuple[int, int]:
    """Return (sum of C(n, i) for i = 1..upper, C(n, upper)).

    Walks C(n, i) = C(n, i - 1) * (n - i + 1) / i; every division is exact.
    """
    total, c = 0, 1  # C(n, 0)
    for i in range(1, upper + 1):
        c = c * (n - i + 1) // i
        total += c
    return total, c


def counting_inequality(n: int, k: int) -> BoundReport:
    """Evaluate the double-counting inequality exactly."""
    if not n // 2 < k <= n:
        raise ValueError("need n/2 < k <= n (no-cloning regime)")
    lhs = comb(n, k)
    upper = (2 * (n - k + 1)) // 3
    small = _comb0(k - 1, 2 * k - n - 1)
    rhs = 2 * _binomial_sum(n, upper)[0] * small
    return BoundReport(n, k, lhs, rhs, lhs <= rhs)


def min_feasible_k(n: int) -> int:
    """Smallest k above n/2 passing the counting inequality; exact scan.

    The sum is built once, at the first k; as k grows, C(n, k) and the sum's
    shrinking upper limit are stepped by exact ratio recurrences rather than
    recomputed, so n = 100,000 takes about a second.  Refuses n above
    ``MIN_K_N_LIMIT`` before any binomial is built.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n > MIN_K_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds min-k scan limit {MIN_K_N_LIMIT}")
    k = n // 2 + 1
    upper = (2 * (n - k + 1)) // 3
    total, c_upper = _binomial_sum(n, upper)
    c_k = comb(n, k)
    while True:
        if c_k <= 2 * total * _comb0(k - 1, 2 * k - n - 1):
            return k
        if k == n:
            raise RuntimeError(f"counting inequality holds for no k on n={n}")
        c_k = c_k * (n - k) // (k + 1)
        k += 1
        while upper > (2 * (n - k + 1)) // 3:
            total -= c_upper
            c_upper = c_upper * upper // (n - upper + 1)
            upper -= 1


def pure_qss_feasibility(max_k: int = 100) -> PureQssReport:
    """Scan all n = 2k - 1 up to k = max_k against the counting inequality.

    Refuses max_k above ``PURE_QSS_MAX_K_LIMIT`` before scanning.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if max_k > PURE_QSS_MAX_K_LIMIT:
        raise ResourceLimitError(f"max_k={max_k} exceeds pure-QSS scan limit {PURE_QSS_MAX_K_LIMIT}")
    rows = []
    for k in range(1, max_k + 1):
        n = 2 * k - 1
        rows.append((k, n, counting_inequality(n, k).holds))
    holding = [n for _, n, ok in rows if ok]
    failing = [n for _, n, ok in rows if not ok]
    # exact version of the asymptotic chain: k >= (2k-1) * (1/2 + 1/157)
    ratio = Fraction(1, 2) + Fraction(1, 157)
    chain_k_max = 1
    while Fraction(chain_k_max + 1) >= (2 * (chain_k_max + 1) - 1) * ratio:
        chain_k_max += 1
    chain_n_max = 2 * chain_k_max - 1
    largest_holding = max(holding) if holding else None
    return PureQssReport(
        rows=tuple(rows),
        largest_holding_n=largest_holding,
        smallest_failing_n=min(failing) if failing else None,
        chain_k_max=chain_k_max,
        chain_n_max=chain_n_max,
        stated_cutoff_n=79,
        scan_matches_chain=largest_holding == chain_n_max,
    )
