"""Threshold secret sharing over GF(256) for the one-time-pad key bits.

The two pad bits travel together in one field element (bit 0 = X-pad bit,
bit 1 = Z-pad bit), so a dealing is one byte per player.  Field arithmetic
uses the reduction polynomial x^8 + x^4 + x^3 + x + 1; evaluation points are
the player indices 1..n, which caps n at 255.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .errors import InsufficientSharesError

_POLY = 0x11B


def gf_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return acc


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _INV[a]


def _build_inverses() -> list[int]:
    inv = [0] * 256
    for a in range(1, 256):
        # a^254 = a^-1 in GF(256)
        acc, base, e = 1, a, 254
        while e:
            if e & 1:
                acc = gf_mul(acc, base)
            base = gf_mul(base, base)
            e >>= 1
        inv[a] = acc
    return inv


_INV = _build_inverses()


class ClassicalShare(NamedTuple):
    index: int  # evaluation point, 1..255, unique per dealing
    value: int  # field element, 0..255


def pack_pad(b_x: int, b_z: int) -> int:
    if b_x not in (0, 1) or b_z not in (0, 1):
        raise ValueError("pad bits must be 0 or 1")
    return b_x | (b_z << 1)


def unpack_pad(value: int) -> tuple[int, int]:
    return value & 1, (value >> 1) & 1


def share(secret: int, k: int, n: int, rng: random.Random) -> list[ClassicalShare]:
    """Deal n shares of a 2-bit secret with reconstruction threshold k.

    The dealing polynomial has degree k - 1 and constant term ``secret``;
    share i is its value at point i.  Deterministic for a seeded rng.
    """
    if not 0 <= secret <= 3:
        raise ValueError("secret must pack two bits (0..3)")
    if not 1 <= k <= n <= 255:
        raise ValueError("need 1 <= k <= n <= 255")
    coeffs = [secret] + [rng.randrange(256) for _ in range(k - 1)]
    shares = []
    for i in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):  # Horner
            acc = gf_mul(acc, i) ^ c
        shares.append(ClassicalShare(i, acc))
    return shares


def reconstruct(shares: Sequence[ClassicalShare], k: int) -> int:
    """Lagrange interpolation at 0 using the first k shares by index."""
    if len(shares) < k:
        raise InsufficientSharesError(f"got {len(shares)} shares, need {k}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    chosen = sorted(shares)[:k]
    secret = 0
    for i, (xi, yi) in enumerate(chosen):
        num, den = 1, 1
        for j, (xj, _) in enumerate(chosen):
            if j == i:
                continue
            num = gf_mul(num, xj)  # 0 - xj == xj in characteristic 2
            den = gf_mul(den, xi ^ xj)
        secret ^= gf_mul(yi, gf_mul(num, gf_inv(den)))
    return secret
