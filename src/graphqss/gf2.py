"""Exact GF(2) linear algebra on machine-word-packed bit rows.

Vectors and matrix rows are Python ints used as bitsets (bit i = coordinate
i), so a row operation is a single XOR regardless of width.  Empty matrices
(0 rows or 0 columns) are legal and have rank 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class BitVector:
    """GF(2) vector of fixed length; bit i of ``bits`` holds coordinate i."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("BitVector length must be >= 0")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("BitVector has bits set beyond its length")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> BitVector:
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"index {i} outside 0..{length - 1}")
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> BitVector:
        bits = 0
        length = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << length
            length += 1
        return cls(length, bits)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)


@dataclass(frozen=True)
class BitMatrix:
    """GF(2) matrix stored as one int bit-row per matrix row."""

    cols: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("BitMatrix cols must be >= 0")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("matrix row wider than cols")

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable[int]], cols: Optional[int] = None) -> BitMatrix:
        rows = []
        for dr in dense:
            v = BitVector.from_coords(dr)
            if cols is None:
                cols = v.length
            elif v.length != cols:
                raise ValueError("ragged rows")
            rows.append(v.bits)
        if cols is None:
            raise ValueError("cannot infer cols from an empty iterable; pass cols=")
        return cls(cols, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, cols: int) -> BitMatrix:
        return cls(cols, (0,) * nrows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        if not 0 <= c < self.cols:
            raise IndexError(c)
        return (self.rows[r] >> c) & 1

    def row(self, r: int) -> BitVector:
        return BitVector(self.cols, self.rows[r])

    def transpose(self) -> BitMatrix:
        cols = []
        for c in range(self.cols):
            v = 0
            for r, row in enumerate(self.rows):
                v |= ((row >> c) & 1) << r
            cols.append(v)
        return BitMatrix(self.nrows, tuple(cols))


# -- the elimination kernel on raw int rows ------------------------------------


def reduce_rows(rows: Iterable[tuple[int, int]], mask: int) -> tuple[dict[int, int], Optional[int]]:
    """Reduced row echelon form of a GF(2) system over the columns in ``mask``.

    Each row is a pair (coefficient bits, right-hand side bit).  Only the
    coefficient bits inside ``mask`` are unknowns, so callers keep their own
    coordinates and select the unknowns with the mask; the access module
    passes adjacency rows in vertex labels this way.

    Returns ``(pivots, x)``.  ``pivots`` maps the highest column of each
    row of the reduced echelon form to that row, whose right-hand side bit
    sits at ``mask.bit_length()``; no pivot column occurs in another row.
    ``x`` is the lexicographically smallest solution, lowest column most
    significant, or None when the system is inconsistent.  It sets every
    free column to 0: a reduced row ties its pivot only to free columns
    below it, which are more significant, so no smaller choice exists.
    """
    top = 1 << mask.bit_length()
    pivots: dict[int, int] = {}
    consistent = True
    for coeffs, bit in rows:
        r = coeffs & mask | (top if bit else 0)
        while r & mask:
            h = (r & mask).bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = r
                break
            r ^= p
        else:
            if r:  # the row reduced to 0 = 1
                consistent = False
    # back-substitute, lowest pivot first, so each pivot column stays in one row
    for h in sorted(pivots):
        row = pivots[h]
        for q, other in pivots.items():
            if q > h and (other >> h) & 1:
                pivots[q] = other ^ row
    if not consistent:
        return pivots, None
    x = 0
    for h, row in pivots.items():
        if row & top:
            x |= 1 << h
    return pivots, x


def null_basis(pivots: dict[int, int], mask: int) -> list[int]:
    """One kernel vector per free column of ``mask``, from ``reduce_rows`` pivots."""
    out = []
    for f in range(mask.bit_length()):
        if (mask >> f) & 1 and f not in pivots:
            v = 1 << f
            for h, row in pivots.items():
                if (row >> f) & 1:
                    v |= 1 << h
            out.append(v)
    return out


# -- public operations --------------------------------------------------------


def _homogeneous(m: BitMatrix) -> dict[int, int]:
    return reduce_rows(((r, 0) for r in m.rows), (1 << m.cols) - 1)[0]


def rank(m: BitMatrix) -> int:
    """Dimension of the row space over GF(2); 0 for empty matrices."""
    return len(_homogeneous(m))


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Canonical basis of {x : M x = 0}: the reduced echelon basis of the
    kernel, one vector per leading (highest) bit, in ascending order."""
    full = (1 << m.cols) - 1
    canonical, _ = reduce_rows(((v, 0) for v in null_basis(_homogeneous(m), full)), full)
    return [BitVector(m.cols, canonical[h]) for h in sorted(canonical)]


def solve(m: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Some x with M x = b, or None if b is outside the column space.

    Ties are broken deterministically: among all solutions the returned x is
    lexicographically smallest with coordinate 0 most significant.
    """
    if b.length != m.nrows:
        raise ValueError(f"rhs length {b.length} != rows {m.nrows}")
    rows = ((r, (b.bits >> i) & 1) for i, r in enumerate(m.rows))
    _, x = reduce_rows(rows, (1 << m.cols) - 1)
    return None if x is None else BitVector(m.cols, x)


def mat_vec(m: BitMatrix, x: BitVector) -> BitVector:
    """GF(2) matrix-vector product."""
    if x.length != m.cols:
        raise ValueError(f"vector length {x.length} != cols {m.cols}")
    out = 0
    for i, row in enumerate(m.rows):
        out |= ((row & x.bits).bit_count() & 1) << i
    return BitVector(m.nrows, out)
