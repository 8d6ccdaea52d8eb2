import itertools
import random
from collections import Counter

import pytest

from graphqss.errors import InsufficientSharesError
from graphqss.shamir import (
    ClassicalShare,
    gf_inv,
    gf_mul,
    pack_pad,
    reconstruct,
    share,
    unpack_pad,
)
from helpers import gf_mul_reference


class TestField:
    def test_mul_matches_shift_and_add(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == gf_mul_reference(a, b)

    def test_inverses(self):
        for a in range(1, 256):
            assert gf_mul_reference(a, gf_inv(a)) == 1

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_mul_commutes_and_distributes(self):
        rng = random.Random(0)
        for _ in range(200):
            a, b, c = (rng.randrange(256) for _ in range(3))
            assert gf_mul(a, b) == gf_mul(b, a)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestSharing:
    def test_threshold_one_broadcasts_secret(self):
        shares = share(2, 1, 5, random.Random(0))
        assert all(s.value == 2 for s in shares)

    def test_round_trip_any_k_subset(self):
        for trial in range(60):
            rng = random.Random(trial)
            k = rng.randint(1, 5)
            n = rng.randint(k, 8)
            secret = rng.randrange(4)
            shares = share(secret, k, n, random.Random(1000 + trial))
            for combo in itertools.combinations(shares, k):
                assert reconstruct(list(combo), k) == secret

    def test_deterministic_for_seed(self):
        a = share(3, 2, 3, random.Random(9))
        b = share(3, 2, 3, random.Random(9))
        assert a == b

    def test_too_few_shares(self):
        shares = share(1, 3, 5, random.Random(0))
        with pytest.raises(InsufficientSharesError):
            reconstruct(shares[:2], 3)

    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            reconstruct([ClassicalShare(1, 7), ClassicalShare(1, 9)], 2)

    @pytest.mark.parametrize(
        "bad",
        [
            ClassicalShare(-1, 5),
            ClassicalShare(1, -3),
            ClassicalShare(300, 5),
            ClassicalShare(1, 256),
        ],
        ids=["index_negative", "value_negative", "index_over_255", "value_over_255"],
    )
    def test_out_of_range_share_refused(self, bad):
        # refused before any GF(256) table lookup
        valid = share(3, 2, 4, random.Random(0))[1]
        assert valid == ClassicalShare(2, 146)
        with pytest.raises(ValueError, match="1..255"):
            reconstruct([valid, bad], 2)

    def test_parameter_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            share(4, 2, 3, rng)
        with pytest.raises(ValueError):
            share(1, 4, 3, rng)
        with pytest.raises(ValueError):
            share(1, 1, 300, rng)

    @pytest.mark.parametrize("k", [0, -3])
    def test_threshold_below_one_refused(self, k):
        # refused before any table lookup, as share refuses them
        shares = share(3, 2, 4, random.Random(0))
        with pytest.raises(ValueError, match="need k >= 1"):
            reconstruct(shares, k)

    def test_uses_first_k_by_index(self):
        shares = share(2, 2, 5, random.Random(5))
        shuffled = [shares[4], shares[0], shares[2], shares[1]]
        assert reconstruct(shuffled, 2) == 2


class TestPrivacy:
    def test_single_share_below_threshold_k2(self):
        # enumerate every degree-1 polynomial: each share value appears
        # equally often for every secret
        for point in range(1, 6):
            for secret in range(4):
                seen = Counter()
                for c1 in range(256):
                    seen[gf_mul(c1, point) ^ secret] += 1
                assert set(seen.values()) == {1}

    def test_pair_below_threshold_k3(self):
        # full enumeration over all degree-2 polynomials at points (1, 4):
        # the observed pair distribution is identical for all four secrets
        mul = [[gf_mul(a, b) for b in range(256)] for a in range(256)]
        dists = []
        for secret in range(4):
            seen = Counter()
            for c1 in range(256):
                t1_1, t1_4 = mul[c1][1], mul[c1][4]
                for c2 in range(256):
                    y1 = mul[mul[c2][1]][1] ^ t1_1 ^ secret
                    y4 = mul[mul[c2][4]][4] ^ t1_4 ^ secret
                    seen[(y1, y4)] += 1
            dists.append(seen)
        assert dists[0] == dists[1] == dists[2] == dists[3]


class TestPadAndWire:
    def test_pad_packing(self):
        assert pack_pad(1, 0) == 1 and pack_pad(0, 1) == 2
        assert unpack_pad(3) == (1, 1)
        with pytest.raises(ValueError):
            pack_pad(2, 0)
