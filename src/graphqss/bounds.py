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

# n = 10^5 already needs about 237 MB of prefix sums and a minute and a half
MIN_K_N_LIMIT = 100_000
# the exact pure-QSS scan takes 0.3 s at max_k = 400 and about 8 s at 1,000,
# growing faster than max_k^3
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


def counting_inequality(n: int, k: int) -> BoundReport:
    """Evaluate the double-counting inequality exactly."""
    if not n // 2 < k <= n:
        raise ValueError("need n/2 < k <= n (no-cloning regime)")
    lhs = comb(n, k)
    upper = (2 * (n - k + 1)) // 3
    small = _comb0(k - 1, 2 * k - n - 1)
    rhs = 2 * sum(comb(n, i) for i in range(1, upper + 1)) * small
    return BoundReport(n, k, lhs, rhs, lhs <= rhs)


def min_feasible_k(n: int) -> int:
    """Smallest k above n/2 passing the counting inequality; exact scan.

    Prefix sums of C(n, i) are built once (the sum's upper limit only
    shrinks as k grows), so the scan stays fast for n in the tens of
    thousands while remaining exact.  Refuses n above ``MIN_K_N_LIMIT``
    before the prefix sums are allocated.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n > MIN_K_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds min-k scan limit {MIN_K_N_LIMIT}")
    k0 = n // 2 + 1
    upper0 = (2 * (n - k0 + 1)) // 3
    prefix = [0] * (upper0 + 1)
    c = 1  # C(n, 0), updated incrementally
    for i in range(1, upper0 + 1):
        c = c * (n - i + 1) // i
        prefix[i] = prefix[i - 1] + c
    for k in range(k0, n + 1):
        upper = (2 * (n - k + 1)) // 3
        rhs = 2 * prefix[upper] * _comb0(k - 1, 2 * k - n - 1)
        if comb(n, k) <= rhs:
            return k
    raise RuntimeError(f"counting inequality holds for no k on n={n}")


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
