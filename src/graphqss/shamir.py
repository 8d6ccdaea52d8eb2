"""Threshold secret sharing over GF(256) for the one-time-pad key bits.

The two pad bits travel together in one field element (bit 0 = X-pad bit,
bit 1 = Z-pad bit), so a dealing is one byte per player.  Field arithmetic
uses the reduction polynomial x^8 + x^4 + x^3 + x + 1 and log/antilog tables
of its generator 3 (x + 1); evaluation points are the player indices 1..n,
which caps n at 255.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .errors import InsufficientSharesError

_POLY = 0x11B


def _log_tables() -> tuple[list[int], list[int]]:
    """Powers of 3, twice round so a sum of two logarithms needs no mod 255,
    and their logarithms; x * 3 = x ^ xtime(x), reduced by ``_POLY``."""
    exp, log = [0] * 510, [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= (x << 1) ^ (_POLY if x & 0x80 else 0)
    return exp, log


_EXP, _LOG = _log_tables()


def gf_mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


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
    if k < 1:
        raise ValueError("need k >= 1")
    if len(shares) < k:
        raise InsufficientSharesError(f"got {len(shares)} shares, need {k}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    if not all(1 <= s.index <= 255 and 0 <= s.value <= 255 for s in shares):
        raise ValueError("share indices must be in 1..255 and values in 0..255")
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
