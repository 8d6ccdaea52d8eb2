"""Exact counting bounds on achievable thresholds.

Everything here is integer arithmetic: the double-counting inequality

    C(n, k) <= 2 * sum_{i=1..floor(2(n-k+1)/3)} C(n, i) * C(k-1, 2k-n-1)

is a necessary condition for a graph on n vertices to realize threshold k
(in the regime k > n/2 forced by no-cloning).  The sum's upper limit is
floored, the only consistent reading for a summation index, and binomials
with out-of-range lower index are 0.

The sweeps decide the inequality without building the whole sum.  In the
regime, u = floor(2(n-k+1)/3) satisfies 3u <= n + 1, so for i <= u each
term C(n, i - 1) = C(n, i) * i / (n - i + 1) is at most half of C(n, i).
The terms below any lo <= u therefore add up to less than C(n, lo), and
the partial sum over lo..u brackets the whole sum from both sides.  A
verdict that holds against both ends of the bracket is the exact verdict;
the bracket is widened only while it straddles the left-hand side, and it
is exact once it reaches i = 1.  The sum is also below 2 * C(n, u), so
where C(n, k) outweighs the right-hand side by bits alone, k fails without
any big-integer step; ``min_feasible_k`` steps exactly only near its answer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import isqrt, prod
from typing import Optional

from .errors import ResourceLimitError

# min_feasible_k builds two binomials, decides most sizes by bit lengths and
# brackets the sum near its answer: about 0.015 s at n = 10^5 on a 2-core
# host.  counting_inequality sums all of its terms, which is O(n^2), and
# shares the cap
MIN_K_N_LIMIT = 100_000
# the pure-QSS scan steps n = 2k - 1 by Pascal's rule: about 0.5 ms at
# max_k = 400 and 2 ms at 1,000 on a 2-core host
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


def _primes(n: int) -> list[int]:
    """Every prime up to n, by a bytearray sieve over the odd numbers."""
    if n < 2:
        return []
    sieve = bytearray([1]) * ((n + 1) // 2)  # entry i stands for 2i + 1
    sieve[0] = 0
    for p in range(3, isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *compress(range(1, n + 1, 2), sieve)]


def _binomial(n: int, k: int, primes: list[int]) -> int:
    """C(n, k), or 0 for k outside 0..n, from its prime factorisation.

    Legendre's formula gives each prime's exponent, and a balanced product
    tree multiplies the prime powers, so no big division is done.  ``primes``
    must list every prime up to n, so several binomials share one sieve.
    """
    if not 0 <= k <= n:
        return 0
    k = min(k, n - k)
    root, half = bisect_right(primes, isqrt(n)), bisect_right(primes, n // 2)
    factors = []
    for p in primes[:root]:
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        if e:
            factors.append(p**e)
    # above sqrt(n) only p itself divides, so each exponent is 0 or 1; above
    # n/2 it is 1 exactly for the primes above n - k
    factors += [p for p in primes[root:half] if n // p - k // p - (n - k) // p]
    factors += primes[bisect_right(primes, n - k) : bisect_right(primes, n)]
    return _product(factors)


def _product(factors: list[int]) -> int:
    """Product by a balanced tree, so each big multiplication meets operands
    of like size; short runs of small factors are multiplied in one call."""
    if len(factors) <= 16:
        return prod(factors)
    mid = len(factors) // 2
    return _product(factors[:mid]) * _product(factors[mid:])


def _binomial_sum(n: int, upper: int) -> int:
    """Sum of C(n, i) for i = 1..upper.

    Walks C(n, i) = C(n, i - 1) * (n - i + 1) / i; every division is exact.
    """
    total, c = 0, 1  # C(n, 0)
    for i in range(1, upper + 1):
        c = c * (n - i + 1) // i
        total += c
    return total


def _at_most(a: int, x: int, y: int) -> bool:
    """a <= x * y for non-negative ints, from bit lengths unless they tie."""
    if not x or not y:
        return a <= 0
    bits_a, bits_xy = a.bit_length(), x.bit_length() + y.bit_length()
    if bits_a < bits_xy - 1:  # x * y has bits_xy - 1 or bits_xy bits
        return True
    if bits_a > bits_xy:
        return False
    return a <= x * y


def counting_inequality(n: int, k: int) -> BoundReport:
    """Evaluate the double-counting inequality exactly.

    The right-hand side is the whole sum, O(n^2) to build, so n above
    ``MIN_K_N_LIMIT`` is refused before any binomial is built.
    """
    if not n // 2 < k <= n:
        raise ValueError("need n/2 < k <= n (no-cloning regime)")
    if n > MIN_K_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds counting-bound limit {MIN_K_N_LIMIT}")
    primes = _primes(n)
    lhs = _binomial(n, k, primes)
    upper = (2 * (n - k + 1)) // 3
    small = _binomial(k - 1, 2 * k - n - 1, primes)
    rhs = 2 * _binomial_sum(n, upper) * small
    return BoundReport(n, k, lhs, rhs, lhs <= rhs)


def min_feasible_k(n: int) -> int:
    """Smallest k above n/2 passing the counting inequality; exact scan.

    C(n, k) and the top term C(n, u) are built once, from one sieve, at the
    first k, and are then held as that anchor times pending ratio products
    p / q.  An exact quotient x * p / q has within 1 of bl(x) + bl(p) - bl(q)
    bits, so those sums give B_k and B_u with C(n, k) >= 2^(B_k - 2) and
    C(n, u) < 2^(B_u + 1).  The sum lies in [C(n, u), 2 C(n, u)) (see the
    module docstring), so the right-hand side is below
    4 * small * C(n, u) < 2^(bl(small) + B_u + 3), with small the exactly
    stepped C(k - 1, 2k - n - 1): k fails for certain when
    B_k >= bl(small) + B_u + 5.  Only where that test cannot decide are the
    pending products applied, one multiply and one exact division each, and
    the sum bracketed by the window lo..u of its top terms plus C(n, lo):
    k is decided against both ends, and the window doubles downward only
    while they disagree.  n = 100,000 takes about 0.015 s on a 2-core host.
    Refuses n above ``MIN_K_N_LIMIT`` before any binomial is built.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n > MIN_K_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds min-k scan limit {MIN_K_N_LIMIT}")
    k = n // 2 + 1
    upper = (2 * (n - k + 1)) // 3
    primes = _primes(n)
    # C(n, k) = c_k * p_k / q_k and C(n, upper) = c_upper * p_u / q_u
    c_k, p_k, q_k = _binomial(n, k, primes), 1, 1
    c_upper, p_u, q_u = _binomial(n, upper, primes), 1, 1
    # C(k - 1, 2k - n - 1): the lower index starts at 0 (n odd) or 1 (n even)
    small = k - 1 if n % 2 == 0 else 1
    # k = n has u = 0 and an empty sum, so it never passes
    for k in range(k, n):
        b_k = c_k.bit_length() + p_k.bit_length() - q_k.bit_length()
        b_u = c_upper.bit_length() + p_u.bit_length() - q_u.bit_length()
        if b_k < small.bit_length() + b_u + 5:
            c_k, p_k, q_k = c_k * p_k // q_k, 1, 1
            c_upper, p_u, q_u = c_upper * p_u // q_u, 1, 1
            lo, c_lo, known = upper, c_upper, c_upper  # known = sum of C(n, lo..upper)
            while True:
                if _at_most(c_k, known, 2 * small):
                    return k
                if lo == 1 or not _at_most(c_k, known + c_lo, 2 * small):
                    break
                new_lo = max(1, 2 * lo - upper - 1)
                for i in range(lo, new_lo, -1):
                    c_lo = c_lo * i // (n - i + 1)
                    known += c_lo
                lo = new_lo
        j = 2 * k - n - 1
        p_k, q_k = p_k * (n - k), q_k * (k + 1)
        small = small * k * (k - 1 - j) // ((j + 1) * (j + 2))
        while upper > (2 * (n - k)) // 3:  # the next k's upper limit
            p_u, q_u = p_u * upper, q_u * (n - upper + 1)
            upper -= 1
    raise RuntimeError(f"counting inequality holds for no k on n={n}")


def pure_qss_feasibility(max_k: int = 100) -> PureQssReport:
    """Scan all n = 2k - 1 up to k = max_k against the counting inequality.

    Here C(k - 1, 2k - n - 1) = 1, so the inequality reads
    C(n, k) <= 2 * (S(n, u) - 1) with S(n, u) = sum_{i=0..u} C(n, i) and
    u = floor(2k/3).  One walk steps n by 2 with Pascal's rule,
    S(m + 1, u) = 2 * S(m, u) - C(m, u), raises u when it grows, and steps
    C(2k - 1, k) by its ratio.  Refuses max_k above ``PURE_QSS_MAX_K_LIMIT``
    before scanning.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if max_k > PURE_QSS_MAX_K_LIMIT:
        raise ResourceLimitError(f"max_k={max_k} exceeds pure-QSS scan limit {PURE_QSS_MAX_K_LIMIT}")
    rows = []
    u = 0
    total, c_u, c_k = 1, 1, 1  # S(m, u), C(m, u), C(m, k) at m = 2k - 1
    for k in range(1, max_k + 1):
        m = 2 * k - 1
        rows.append((k, m, c_k <= 2 * total - 2))
        c_next = c_u * (m + 1) // (m + 1 - u)
        total = 4 * total - 2 * c_u - c_next  # two Pascal steps
        c_u = c_next * (m + 2) // (m + 2 - u)
        c_k = c_k * (4 * k + 2) // (k + 1)
        if (2 * k + 2) // 3 > u:
            u += 1
            c_u = c_u * (m + 3 - u) // u
            total += c_u
    holding = [n for _, n, ok in rows if ok]
    failing = [n for _, n, ok in rows if not ok]
    # the asymptotic chain k >= (2k - 1) * (1/2 + 1/157), times 314, is
    # 314k >= 159 * (2k - 1), that is 4k <= 159
    chain_k_max = 159 // 4
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
