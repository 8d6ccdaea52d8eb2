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
``min_feasible_k`` decides on C(n, k) / C(n, u) and builds neither
binomial: where the ratio outweighs the rest by bits alone, k fails without
any big-integer step, and only sizes near the answer are decided exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import isqrt, prod
from typing import Optional

from .errors import ResourceLimitError

# min_feasible_k factorises one binomial ratio, decides most sizes by bit
# lengths and brackets the sum near its answer: about 0.006 s at n = 10^5 on
# a 2-core host.  counting_inequality sums all of its terms, which is O(n^2),
# and shares the cap
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
    """C(n, k), or 0 for k outside 0..n; ``primes`` must reach n."""
    return _binomial_ratio(n, k, 0, primes)[0] if 0 <= k <= n else 0


def _binomial_ratio(n: int, k: int, u: int, primes: list[int]) -> tuple[int, int]:
    """C(n, k) / C(n, u) in lowest terms, as (num, den), for k and u in 0..n.

    By Legendre's formula a prime's exponent in the ratio sums
    u // q + (n - u) // q - k // q - (n - k) // q over its powers q (the
    n // q terms cancel).  Positive exponents make ``num`` and negative ones
    ``den``, each by a balanced product tree, so no big division is done.
    ``primes`` must list every prime up to max(k, n - k, u, n - u); above
    that every term is 0.
    """
    a, b = min(k, n - k), min(u, n - u)
    top = n - min(a, b)
    root, half = bisect_right(primes, isqrt(top)), bisect_right(primes, n // 2)
    num, den = [], []
    for p in primes[:root]:
        e, q = 0, p
        while q <= top:
            e += b // q + (n - b) // q - a // q - (n - a) // q
            q *= p
        if e:
            (num if e > 0 else den).append(p ** abs(e))
    # above sqrt(top) only q = p is left, where x // p + (n - x) // p is n // p
    # less the carry [x % p > n % p]: the exponent is a's carry less b's
    num += [p for p in primes[root:half] if a % p > n % p >= b % p]
    den += [p for p in primes[root:half] if b % p > n % p >= a % p]
    # above n/2 a's carry is 1 exactly for the primes above n - a, so
    # only those between n - max(a, b) and top are left, all on one side
    last = primes[bisect_right(primes, n - max(a, b)) : bisect_right(primes, top)]
    (num if a > b else den).extend(last)
    return _product(num), _product(den)


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

    With small = C(k - 1, 2k - n - 1) and S the sum, k holds when
    R = C(n, k) / C(n, u) <= 2 * small * S / C(n, u).  R is factorised once,
    at the first k, as num / den (sieving to n - u only), then carried as
    num * p / (den * q): a step of k multiplies it by (n - k) / (k + 1), a
    step of u down by (n - u + 1) / u.  As S / C(n, u) lies in [1, 2) (see
    the module docstring) and 2^(bl(x) - 1) <= x < 2^bl(x), k fails when
    bl(num) + bl(p) >= bl(den) + bl(q) + bl(small) + 4, for then
    num * p >= 2^(bl(den) + bl(q) + bl(small) + 2) > 4 * small * den * q.
    Otherwise p and q are folded into num and den, and S / C(n, u) is
    bracketed by its top terms T_i = C(n, i) / C(n, u): T_u = 1 and
    T_(i - 1) = T_i * i / (n - i + 1), so if the window lo..u sums to
    known / d and T_lo = c_lo / d, lowering lo from i makes d, known and
    c_lo d * (n - i + 1), known * (n - i + 1) + c_lo * i and c_lo * i.  The
    terms below lo add to less than T_lo, so k holds if
    num * d <= 2 * small * den * known and fails unless
    num * d <= 2 * small * den * (known + c_lo); no divisor is big.
    The window doubles downward only while the two disagree.  Refuses n
    above ``MIN_K_N_LIMIT`` before any prime is sieved.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n > MIN_K_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds min-k scan limit {MIN_K_N_LIMIT}")
    k = n // 2 + 1
    upper = (2 * (n - k + 1)) // 3
    # C(n, k) / C(n, upper) = num * p / (den * q)
    (num, den), p, q = _binomial_ratio(n, k, upper, _primes(n - upper)), 1, 1
    # C(k - 1, 2k - n - 1): the lower index starts at 0 (n odd) or 1 (n even)
    small = k - 1 if n % 2 == 0 else 1
    # k = n has u = 0 and an empty sum, so it never passes
    for k in range(k, n):
        if num.bit_length() + p.bit_length() < den.bit_length() + q.bit_length() + small.bit_length() + 4:
            num, den, p, q = num * p, den * q, 1, 1
            lo, c_lo, known, d = upper, 1, 1, 1
            while True:
                if _at_most(num * d, den * known, 2 * small):
                    return k
                if lo == 1 or not _at_most(num * d, den * (known + c_lo), 2 * small):
                    break
                new_lo = max(1, 2 * lo - upper - 1)
                for i in range(lo, new_lo, -1):
                    d, known, c_lo = d * (n - i + 1), known * (n - i + 1) + c_lo * i, c_lo * i
                lo = new_lo
        j = 2 * k - n - 1
        p, q = p * (n - k), q * (k + 1)
        small = small * k * (k - 1 - j) // ((j + 1) * (j + 2))
        while upper > (2 * (n - k)) // 3:  # the next k's upper limit
            p, q = p * (n - upper + 1), q * upper
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
