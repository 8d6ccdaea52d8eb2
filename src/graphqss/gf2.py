"""Exact GF(2) elimination on machine-word-packed bit rows.

Rows and vectors are Python ints used as bitsets (bit i = coordinate i), so
a row operation is a single XOR regardless of width.  A system is a list of
rows over a column mask, whose columns are the unknowns.
"""

from __future__ import annotations

from typing import Iterable, Optional


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
