import random
from bisect import bisect_right
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest

from graphqss import bounds
from graphqss.bounds import (
    MIN_K_N_LIMIT,
    _binomial,
    _binomial_ratio,
    _binomial_sum,
    _primes,
    counting_inequality,
    min_feasible_k,
    pure_qss_feasibility,
)
from graphqss.errors import ResourceLimitError
from helpers import full_sum_min_feasible_k

# the cap, and n a power of 2, 3, 5 or 7
LARGE_AND_PRIME_POWER = [(100_000, 50_001), (2**16, 2**15), (2**16, 100), (3**10, 3**9), (5**7, 31_250), (7**5, 4_321)]


def pascal_table(limit):
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )
    return rows


class TestCountingInequality:
    def test_hand_checked_5_3(self):
        r = counting_inequality(5, 3)
        assert (r.lhs, r.rhs, r.holds) == (10, 30, True)

    def test_unanimity_violates(self):
        # upper limit floor(2/3) = 0 empties the sum
        r = counting_inequality(7, 7)
        assert r.lhs == 1 and r.rhs == 0 and not r.holds

    def test_just_above_half_violates(self):
        assert not counting_inequality(1000, 501).holds

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            counting_inequality(10, 5)
        with pytest.raises(ValueError):
            counting_inequality(10, 11)

    def test_everything_is_int(self):
        r = counting_inequality(123, 70)
        assert type(r.lhs) is int and type(r.rhs) is int

    def test_binomials_against_pascal(self):
        rows = pascal_table(60)
        for n in range(61):
            for k in range(n + 1):
                assert comb(n, k) == rows[n][k]

    def test_binomial_sum_against_pascal(self):
        rows = pascal_table(60)
        for n in range(61):
            for upper in range(n + 1):
                assert _binomial_sum(n, upper) == sum(rows[n][1 : upper + 1])

    def test_every_regime_pair_against_direct_sum(self):
        # covers k = n (upper = 0) and k = n//2 + 1 for both parities of n
        for n in range(1, 121):
            for k in range(n // 2 + 1, n + 1):
                upper = (2 * (n - k + 1)) // 3
                small = comb(k - 1, 2 * k - n - 1)
                r = counting_inequality(n, k)
                assert r.lhs == comb(n, k)
                assert r.rhs == 2 * sum(comb(n, i) for i in range(1, upper + 1)) * small

    def test_refused_above_the_cap_before_any_binomial(self, monkeypatch):
        monkeypatch.setattr("graphqss.bounds._primes", None)
        with pytest.raises(ResourceLimitError):
            counting_inequality(MIN_K_N_LIMIT + 1, MIN_K_N_LIMIT + 1)


class TestBinomial:
    def test_against_math_comb(self):
        for n in range(301):
            primes = _primes(n)
            for k in range(-1, n + 2):
                expected = comb(n, k) if 0 <= k <= n else 0
                assert _binomial(n, k, primes) == expected

    @pytest.mark.parametrize("n,k", LARGE_AND_PRIME_POWER)
    def test_large_and_prime_power_n(self, n, k):
        assert _binomial(n, k, _primes(n)) == comb(n, k)

    def test_ratio_against_math_comb(self):
        # num / den == Fraction(C(n, k), C(n, u)) and gcd(num, den) == 1, for
        # every 0 <= u <= k <= n up to n = 90, past 81 = 3^4; above it every
        # k against one seeded u, so the whole check stays near a second
        rng = random.Random(5)
        for n in range(301):
            primes, row = _primes(n), [comb(n, i) for i in range(n + 1)]
            for k in range(n + 1):
                for u in range(k + 1) if n <= 90 else (rng.randrange(k + 1),):
                    num, den = _binomial_ratio(n, k, u, primes)
                    assert num * row[u] == den * row[k] and gcd(num, den) == 1, (n, k, u)

    def test_ratio_with_the_sieve_cut_at_n_minus_u(self):
        # min_feasible_k's call: k in the regime, u its sum's upper limit,
        # and every prime above n - u dividing both binomials once
        for n in range(1, 301):
            for k in range(n // 2 + 1, n + 1):
                u = (2 * (n - k + 1)) // 3
                num, den = _binomial_ratio(n, k, u, _primes(n - u))
                assert Fraction(num, den) == Fraction(comb(n, k), comb(n, u)), (n, k)

    @pytest.mark.parametrize("n,k", LARGE_AND_PRIME_POWER)
    def test_ratio_at_large_and_prime_power_n(self, n, k):
        u = (2 * (n - k + 1)) // 3
        num, den = _binomial_ratio(n, k, u, _primes(max(k, n - k, u, n - u)))
        assert Fraction(num, den) == Fraction(comb(n, k), comb(n, u))
        assert (num, den) == Fraction(num, den).as_integer_ratio()

    def test_sieve(self):
        for n in range(60):
            assert _primes(n) == [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]

    def test_odd_only_sieve_against_trial_division(self):
        # every n <= 5,000, plus p^2 - 1, p^2 and p^2 + 1 for each odd prime
        # p up to 71, where the sieve's first crossing-out of p starts
        top = 71**2 + 1
        primes = [m for m in range(2, top + 1) if all(m % d for d in range(2, isqrt(m) + 1))]
        squares = [p * p + d for p in primes if 2 < p <= 71 for d in (-1, 0, 1)]
        for n in [*range(5001), *squares]:
            assert _primes(n) == primes[: bisect_right(primes, n)], n


class TestMinFeasibleK:
    def test_five(self):
        assert min_feasible_k(5) == 3

    def test_matches_naive_scan(self):
        for n in range(5, 601):
            naive = next(
                k for k in range(n // 2 + 1, n + 1) if counting_inequality(n, k).holds
            )
            assert min_feasible_k(n) == naive

    def test_matches_full_sum_reference(self):
        # most n from 13 on widen the bracket below its top term; a scan
        # that never widens, or decides failure without the C(n, lo)
        # slack, gives a wrong k on some n here
        for n in range(5, 3001):
            assert min_feasible_k(n) == full_sum_min_feasible_k(n)

    def test_matches_full_sum_reference_at_seeded_n(self):
        # log-uniform on 3,000..MIN_K_N_LIMIT: the reference is O(n^2)
        rng = random.Random(11)
        for _ in range(10):
            n = round(3_000 * (MIN_K_N_LIMIT / 3_000) ** rng.random())
            assert min_feasible_k(n) == full_sum_min_feasible_k(n)

    def test_feasible_k_form_an_interval(self):
        # a walk over n that carries k from one n to the next relies on
        # this: the inequality holds exactly for k in [min_feasible_k(n), n - 1]
        for n in range(5, 301):
            holding = [k for k in range(n // 2 + 1, n + 1) if counting_inequality(n, k).holds]
            assert holding == list(range(min_feasible_k(n), n))

    def test_always_above_half(self):
        for n in (100, 1000):
            k = min_feasible_k(n)
            assert 2 * k > n
            assert not counting_inequality(n, n // 2 + 1).holds or k == n // 2 + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            min_feasible_k(4)

    @pytest.mark.parametrize("n,k", [(30_000, 15_193), (100_000, 50_639)])
    def test_exact_steps_only_near_the_crossing(self, monkeypatch, n, k):
        # sizes far from the crossing are decided by bit lengths alone, so
        # the exact window bracket runs at one or two sizes
        calls = []
        at_most = bounds._at_most
        monkeypatch.setattr(bounds, "_at_most", lambda *args: calls.append(args) or at_most(*args))
        assert min_feasible_k(n) == k
        assert len(calls) <= 5

    @pytest.mark.parametrize("n,k", [(10_000, 5_065), (30_000, 15_193), (100_000, 50_639), (99_999, 50_639)])
    def test_builds_neither_binomial(self, monkeypatch, n, k):
        # the scan decides on C(n, k) / C(n, u) alone; n = 99,999 is odd, so
        # C(k - 1, 2k - n - 1) starts at 1
        def refuse(*args):
            raise AssertionError("min_feasible_k built a binomial")

        monkeypatch.setattr(bounds, "_binomial", refuse)
        assert min_feasible_k(n) == k

    def test_matches_full_sum_reference_at_the_benchmark_sizes(self):
        # four seeded n from each window that the min_k_bounds workload
        # draws from: n + randrange(100) for n = 10^4, 2 * 10^4, 3 * 10^4
        rng = random.Random(32)
        for base in (10_000, 20_000, 30_000):
            for n in sorted(base + rng.randrange(100) for _ in range(4)):
                assert min_feasible_k(n) == full_sum_min_feasible_k(n), n

    @pytest.mark.parametrize("n,k", [(29_500, 14_939), (100_000, 50_639)])
    def test_below_the_abstracts_79_over_156(self, n, k):
        # the exact inequality admits these k, below 79n/156 (14,939.10 and
        # 50,641.03); the test records the comparison, not a verdict on it
        assert min_feasible_k(n) == k
        assert 156 * k < 79 * n

    def test_at_the_cap(self):
        # checked with math.comb, independently of the recurrences in bounds.
        # The ~33,000-term sum is bracketed instead of summed: its top term
        # C(n, u) <= sum <= C(n, u) * (n - u + 1) / (n - 2u + 1), since each
        # term below C(n, u) is at most u / (n - u + 1) times the one above it
        n = MIN_K_N_LIMIT
        k = min_feasible_k(n)
        assert k == 50_639
        u = (2 * (n - k + 1)) // 3
        assert u == (2 * (n - k + 2)) // 3  # k - 1 has the same upper limit
        top = comb(n, u)
        # holds at k even with the sum's lower bracket ...
        assert comb(n, k) <= 2 * top * comb(k - 1, 2 * k - n - 1)
        # ... and fails at k - 1 even with its upper bracket
        rhs_max = 2 * top * (n - u + 1) * comb(k - 2, 2 * k - n - 3)
        assert comb(n, k - 1) * (n - 2 * u + 1) > rhs_max


class TestPureQssScan:
    def test_chain_numbers(self):
        rep = pure_qss_feasibility(100)
        assert rep.chain_k_max == 39
        assert rep.chain_n_max == 77
        assert rep.stated_cutoff_n == 79

    def test_rows_match_direct_evaluation(self):
        rep = pure_qss_feasibility(1000)
        assert len(rep.rows) == 1000
        for k, n, holds in rep.rows:
            assert n == 2 * k - 1
            assert holds == counting_inequality(n, k).holds

    def test_scan_extremes_reported(self):
        rep = pure_qss_feasibility(100)
        holding = [n for _, n, ok in rep.rows if ok]
        failing = [n for _, n, ok in rep.rows if not ok]
        assert rep.largest_holding_n == max(holding)
        assert rep.smallest_failing_n == min(failing)
        # the exact scan disagrees with the asymptotic chain; the report
        # must say so rather than silently pick a side
        assert rep.scan_matches_chain == (rep.largest_holding_n == rep.chain_n_max)
