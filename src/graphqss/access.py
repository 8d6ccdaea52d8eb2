"""Coalition classification for graph-state secret sharing.

A coalition B is *accessing* when some D inside B has its odd neighborhood
inside B and odd overlap with the encoding set A, and *blind* when some C in
the complement of B reproduces A's pattern on B.  Exactly one of the two
always holds.  One span test, whether the A-pattern on B lies outside the row
space of the cut matrix, decides every verdict, and an elimination certifies
it with a witness.  Quantum accessibility combines the verdicts of B and its
complement.  Three public calls answer every coalition question:
``access_report`` (both verdicts and the one witness of B's side),
``q_accessing`` (the quantum predicate alone, which the threshold scan runs)
and ``reconstruction_witnesses`` (the pair the protocol runs).  Every
verdict is exact GF(2) arithmetic on bitmasks: a public call checks its
sets once (``_masks``), and from there coalitions, witness candidates and
supports stay ints, with ``graphs.odd_mask`` for Odd(.); a VertexSet is
built only for a value the call returns.  A threshold comes
from the smallest support of a stabilizer-group coset element, which one
NumPy level walk (``_min_support``) finds for one graph or for every
labelled graph at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Any, Optional

from . import gf2
from .errors import NoWitnessError, ResourceLimitError
from .graphs import Graph, VertexSet, _graph6_header, bits, odd_mask

# the level walk behind k* on C5^2 (n = 25, d = 9): 5.5 ms, 13.0 MB tracemalloc peak; on C5^2
# plus a vertex joined to a seeded half of it (n = 26, d = 8): 4.0 ms, 7.9 MB (2-core host)
ENUMERATION_LIMIT = 26
# small_witness walks all 2^dim kernel vectors: 0.18 s at dim 18, 9.2 s at 24 (2-core host)
KERNEL_DIM_LIMIT = 24
# n = 7 sweeps in about 0.1 s (2-core host), but has 125,670 labelled attainers to
# list; checked before the neighbour array is built
SEARCH_N_LIMIT = 6


class CVerdict(Enum):
    ACCESSING = "Accessing"
    BLIND = "Blind"


class QVerdict(Enum):
    Q_ACCESSING = "QAccessing"
    Q_BLIND = "QBlind"
    PARTIAL = "Partial"


@dataclass(frozen=True)
class AccessReport:
    """``witness`` certifies ``c_verdict``: D inside the coalition when it
    is accessing, C outside it when it is blind."""

    coalition: VertexSet
    c_verdict: CVerdict
    q_verdict: QVerdict
    witness: VertexSet


@dataclass(frozen=True)
class ThresholdReport:
    k_star: int
    certificate_fail: Optional[VertexSet]
    sets_checked: int


@dataclass(frozen=True)
class SearchReport:
    """``exhaustive_graph_search``'s result: ``k_stars[mask]`` is the k* of
    ``edge_mask_graph(n, mask)`` (a uint8 NumPy array), ``histogram`` maps
    each k* to its count in ascending k, and ``attainers_graph6`` are the
    graph6 strings, written from their edge masks, of the graphs of the
    smallest k* in ascending mask order."""

    k_stars: Any
    histogram: dict[int, int]
    attainers_graph6: tuple[str, ...]


# -- helpers -------------------------------------------------------------------


def _check_a(g: Graph, a: VertexSet) -> None:
    """The encoding set check; sweeps run it alone, as their coalitions come from g."""
    if a.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    if not a:
        raise ValueError("encoding set A must be non-empty")


def _masks(g: Graph, a: VertexSet, b: VertexSet) -> tuple[int, int, int]:
    """The one input check of a coalition call: (A, B, V) as bitmasks."""
    if b.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    _check_a(g, a)
    return a.mask, b.mask, (1 << g.n) - 1


def _accessing(adj: tuple[int, ...], mask_a: int, mask_b: int, full: int) -> bool:
    """Hot path: A&B outside the span of the cut rows, on raw bitmasks.

    The cut rows are the rows of B-bar restricted to B; zero columns outside
    B do not affect the span, so everything stays in vertex coordinates.
    """
    basis: dict[int, int] = {}
    m = full ^ mask_b
    while m:  # inline, not graphs.bits(): this loop runs once per coalition
        v = (m & -m).bit_length() - 1
        m &= m - 1
        r = adj[v] & mask_b
        while r:
            h = r.bit_length() - 1
            p = basis.get(h)
            if p is None:
                basis[h] = r
                break
            r ^= p
    t = mask_a & mask_b
    while t:
        p = basis.get(t.bit_length() - 1)
        if p is None:
            return True
        t ^= p
    return False


def _q_accessing_masks(adj: tuple[int, ...], mask_a: int, mask_b: int, full: int) -> bool:
    """B accessing and its complement blind, i.e. not accessing."""
    return _accessing(adj, mask_a, mask_b, full) and not _accessing(
        adj, mask_a, full ^ mask_b, full
    )


def _certify_accessing(g: Graph, a: int, b: int, x: Optional[int]) -> VertexSet:
    """x as D inside b with Odd(D) inside b and |D & a| odd; RuntimeError if not."""
    if x is None or (x | odd_mask(g, x)) & ~b or not (x & a).bit_count() & 1:
        raise RuntimeError("accessing witness missing or failed verification")
    return VertexSet(g.n, x)


def _certify_blind(g: Graph, a: int, b: int, x: Optional[int]) -> VertexSet:
    """x as C outside b with Odd(C) & b == a & b; RuntimeError if not."""
    if x is None or x & b or (odd_mask(g, x) ^ a) & b:
        raise RuntimeError("blind witness missing or failed verification")
    return VertexSet(g.n, x)


def _accessing_witness(g: Graph, a: int, b: int, full: int) -> VertexSet:
    """Lex-smallest D certifying a b that the span test found accessing."""
    rows = [(a, 1)] + [(g.adj[v], 0) for v in bits(full ^ b)]
    return _certify_accessing(g, a, b, gf2.reduce_rows(rows, b)[1])


def _blind_witness(g: Graph, a: int, b: int, full: int) -> VertexSet:
    """Lex-smallest C certifying a b that the span test found blind."""
    rows = ((g.adj[v], (a >> v) & 1) for v in bits(b))
    return _certify_blind(g, a, b, gf2.reduce_rows(rows, full ^ b)[1])


# -- classification ------------------------------------------------------------


def q_accessing(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """True iff b can reconstruct a quantum secret: b accessing, complement blind."""
    ma, mb, full = _masks(g, a, b)  # unpacked: on CPython 3.11 a *-call costs about 0.3 us more
    return _q_accessing_masks(g.adj, ma, mb, full)


def access_report(g: Graph, a: VertexSet, b: VertexSet) -> AccessReport:
    """Classify one coalition for the classical and the quantum secret.

    The span test decides b and its complement: Partial when they agree,
    else QAccessing or QBlind as b is accessing or not.  b's side is then
    certified by a witness, re-verified by direct neighborhood computation:
    accessing by D inside b (odd neighborhood inside b, odd overlap with a),
    blind by C outside b whose odd neighborhood reproduces a's pattern on b.
    RuntimeError reports a witness that is missing or fails; ties in the
    solver are broken lexicographically so runs are reproducible.
    """
    ma, mb, full = _masks(g, a, b)
    acc_b = _accessing(g.adj, ma, mb, full)
    if acc_b == _accessing(g.adj, ma, full ^ mb, full):
        q = QVerdict.PARTIAL
    else:
        q = QVerdict.Q_ACCESSING if acc_b else QVerdict.Q_BLIND
    if acc_b:
        return AccessReport(b, CVerdict.ACCESSING, q, _accessing_witness(g, ma, mb, full))
    return AccessReport(b, CVerdict.BLIND, q, _blind_witness(g, ma, mb, full))


def reconstruction_witnesses(g: Graph, a: VertexSet, b: VertexSet) -> tuple[VertexSet, VertexSet]:
    """The pair (D, C) inside b that drives quantum reconstruction.

    The span test decides; raises NoWitnessError unless b is accessing and
    its complement blind.  D, with odd overlap with a and odd neighborhood
    inside b, then certifies b; C, whose odd neighborhood matches a's
    pattern on the complement of b, certifies the complement.
    """
    ma, mb, full = _masks(g, a, b)
    if not _accessing(g.adj, ma, mb, full):
        raise NoWitnessError("coalition cannot access a classical secret")
    if _accessing(g.adj, ma, full ^ mb, full):
        raise NoWitnessError("coalition complement is accessing; no quantum reconstruction")
    return _accessing_witness(g, ma, mb, full), _blind_witness(g, ma, full ^ mb, full)


# -- coalition scans and thresholds ---------------------------------------------


def _min_support(rows, mask_a: int):
    """Smallest support d of an element of L = {K_D : |D & A| odd} u Z_A.S
    in each of G graphs, as a uint8 array; row v of ``rows``, an (n, G)
    array-like, holds vertex v's neighbour mask in each graph.

    K_D = X_D Z_Odd(D) has support D u Odd(D), and Z_A.K_D has support
    D u (Odd(D) ^ A).  d starts at |A| (Z_A itself, D empty), and the walk
    scores the nonempty sets D by size, one level of C(n, s) sets at a time
    in order of top vertex: the s-sets of top vertex v are the first
    C(v, s - 1) sets of the level before with v added, and their Odd(D)
    those sets' Odd XOR row v.  With A = V, |D u (Odd(D) ^ V)| is
    n + |D| - |D u Odd(D)|, so one popcount scores both supports: d falls to
    it when |D| is odd and to n + |D| minus it always, and a level is scored
    by its least and greatest count; otherwise each support takes its own
    popcount.  Every support contains its D, so level s runs only over the
    graphs whose d is still above s, and the walk stops when none is left.
    """
    import numpy as np

    n = len(rows)
    rows = np.asarray(rows, dtype=np.min_scalar_type((1 << n) - 1))
    best = np.full(rows.shape[1], mask_a.bit_count(), dtype=np.uint8)
    cols, sub = slice(None), best  # the graphs still open: columns of best, and their d
    sets, odd = (1 << np.arange(n)).astype(rows.dtype), rows  # level 1: the single vertices
    for s in range(1, n):
        if mask_a == (1 << n) - 1:
            weight = odd | sets[:, None]
            np.bitwise_count(weight, out=weight)
            if s % 2:
                np.minimum(sub, weight.min(axis=0), out=sub)
            np.minimum(sub, n + s - weight.max(axis=0), out=sub)
        else:
            weight = (odd ^ mask_a) | sets[:, None]
            np.bitwise_count(weight, out=weight)
            np.minimum(sub, weight.min(axis=0), out=sub)
            hit = np.bitwise_count(sets & mask_a) & 1 == 1  # the D with |D & A| odd
            if hit.any():
                weight = odd[hit] | sets[hit, None]
                np.bitwise_count(weight, out=weight)
                np.minimum(sub, weight.min(axis=0), out=sub)
        del weight  # as large as the level's Odd arrays; freed before the next level's
        best[cols] = sub
        keep = np.flatnonzero(sub > s + 1)  # the graphs level s + 1 can still improve; d <= |A|
        if not len(keep):
            break
        if len(keep) < len(sub):
            cols = np.flatnonzero(best > s + 1)  # the same graphs, as columns of best
            rows, sub, odd = rows[:, keep], sub[keep], odd[:, keep]
        parents, parent_odd = sets, odd
        sets, odd = np.empty(comb(n, s + 1), rows.dtype), np.empty((comb(n, s + 1), len(sub)), rows.dtype)
        for v in range(s, n):  # top vertex v: the first C(v, s) parents, after C(v, s + 1) children
            at, k = comb(v, s + 1), comb(v, s)
            np.bitwise_or(parents[:k], 1 << v, out=sets[at : at + k])
            np.bitwise_xor(parent_odd[:k], rows[v], out=odd[at : at + k])
        del parents, parent_odd
    return best


def _distance(adj: tuple[int, ...], mask_a: int) -> int:
    """d of one graph (see ``_min_support``): its neighbour masks as one column."""
    return int(_min_support([(row,) for row in adj], mask_a)[0])


def _k_star(g: Graph, a: VertexSet) -> int:
    """k* = n + 1 - d (see ``qstar_threshold``), refused over ``ENUMERATION_LIMIT`` vertices."""
    if g.n > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    return g.n + 1 - _distance(g.adj, a.mask)


def qstar_threshold(
    g: Graph,
    a: Optional[VertexSet] = None,
    *,
    jobs: Optional[int] = None,  # ignored: perfbench/workloads.py still passes jobs=1
) -> ThresholdReport:
    """Smallest k such that every size-k coalition is quantum-accessing.

    A coalition B fails exactly when its complement holds the support of an
    element of L (see ``_min_support``): B is accessing iff some K_D with
    |D & A| odd lies inside B, and blind iff some Z_A.K_C lies outside it.
    So every k-set passes iff n - k < d, the smallest support in L, and
    k* = n + 1 - d.  The level walk behind d visits only the sets D of
    fewer than d vertices, so it never reaches the C(n, k*) coalitions of
    the passing size.

    Sizes 1..k*-1 are scanned in lexicographic order up to their first
    failure; the one of size k* - 1 certifies minimality.  ``sets_checked``
    is the canonical tally of the upward scan: 1 for the empty coalition, the
    position of each first failure, and C(n, k*).  Refuses graphs over
    ``ENUMERATION_LIMIT`` vertices before any work.
    """
    if a is None:
        a = VertexSet.full(g.n)
    _check_a(g, a)
    k_star = _k_star(g, a)
    n, full = g.n, (1 << g.n) - 1
    fail, checked = 0, 1 + comb(n, k_star)  # the empty coalition is always blind
    for k in range(1, k_star):
        for position, team in enumerate(itertools.combinations(range(n), k), 1):
            fail = sum(1 << v for v in team)
            if not _q_accessing_masks(g.adj, a.mask, fail, full):
                checked += position
                break
        else:
            raise RuntimeError(f"every size-{k} coalition accesses, below k*={k_star}")
    return ThresholdReport(k_star, VertexSet(n, fail), checked)


def product_threshold_bound(n1: int, k1: int, n2: int, k2: int) -> tuple[int, int]:
    """Threshold parameters guaranteed for a lexicographic product of schemes."""
    if not (0 < k1 <= n1 and 0 < k2 <= n2):
        raise ValueError("need 0 < k_i <= n_i")
    n = n1 * n2
    return n, n - (n1 - k1 + 1) * (n2 - k2 + 1) + 1


# -- minimal parity witnesses ---------------------------------------------------


def small_witness(g: Graph, b: VertexSet) -> tuple[VertexSet, str]:
    """Minimum-size X in b that is odd-wise of odd size, or even-wise.

    Odd-wise means X and its odd neighborhood stay inside b (X is in the
    kernel of the cut map); even-wise means the odd neighborhood of X covers
    everything outside b.  Both families are enumerated through the kernel
    and its affine coset; refuses kernels wider than ``KERNEL_DIM_LIMIT``
    before building a basis.
    """
    if b.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    mb, full = b.mask, (1 << g.n) - 1
    # the coset solves "every cut row hit oddly"; its kernel is the cut map's
    rows = ((g.adj[v], 1) for v in bits(full ^ mb))
    pivots, coset = gf2.reduce_rows(rows, mb)
    kernel_dim = len(b) - len(pivots)  # one basis vector per free column
    if kernel_dim > KERNEL_DIM_LIMIT:
        raise ResourceLimitError(f"kernel dimension {kernel_dim} exceeds limit {KERNEL_DIM_LIMIT}")
    basis = gf2.null_basis(pivots, mb)

    best_odd: Optional[int] = None
    best_even: Optional[int] = None

    def better(cur: Optional[int], cand: int) -> bool:
        if cur is None:
            return True
        cw, nw = cur.bit_count(), cand.bit_count()
        if nw != cw:
            return nw < cw
        # lexicographic tie-break on ascending member lists
        return tuple(bits(cand)) < tuple(bits(cur))

    vec = 0
    for i in range(1 << len(basis)):
        if i:
            vec ^= basis[(i & -i).bit_length() - 1]
            if coset is not None:
                coset ^= basis[(i & -i).bit_length() - 1]
        if vec.bit_count() % 2 == 1 and better(best_odd, vec):
            best_odd = vec
        if coset is not None and coset != 0 and better(best_even, coset):
            best_even = coset

    if best_odd is None and best_even is None:
        raise NoWitnessError("coalition has no odd-size odd-wise and no even-wise set")
    # with a = V, odd-wise is accessing on b and even-wise is blind on its complement
    if best_even is None or (best_odd is not None and best_odd.bit_count() <= best_even.bit_count()):
        return _certify_accessing(g, full, mb, best_odd), "odd-wise-odd-size"
    return _certify_blind(g, full, full ^ mb, best_even), "even-wise"


# -- exhaustive search over labelled graphs --------------------------------------


def _edge_bit(n: int, i: int, j: int) -> int:
    """Bit of edge (i, j), i < j, in an edge mask: row i's pairs (i, i+1..n-1)
    are the n - 1 - i bits from i(2n - i - 1)/2 up."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def edge_mask_graph(n: int, mask: int) -> Graph:
    """The labelled graph on n vertices whose edges are the set bits of mask."""
    m = n * (n - 1) // 2
    if mask >> m:
        raise ValueError(f"edge mask outside 0..2^{m}-1")
    adj = [0] * n
    for i in range(n - 1):
        row = (mask >> _edge_bit(n, i, i + 1)) & ((1 << (n - 1 - i)) - 1)
        adj[i] |= row << (i + 1)
        for j in bits(row):
            adj[i + 1 + j] |= 1 << i
    return Graph(n, tuple(adj))


def _graph6_many(n: int, masks) -> tuple[str, ...]:
    """graph6 of the graphs on n >= 1 vertices with edge masks ``masks``.
    Its stream, the pairs (0, j) .. (j - 1, j) column by column, is a fixed
    reordering of the mask bits, padded to whole characters with bit m, which
    no edge uses: one shift writes every stream, and each 6 bits pack into a
    character.  Past 64 bits (n >= 12) the masks are an object array."""
    import numpy as np

    order = [_edge_bit(n, i, j) for j in range(1, n) for i in range(j)]
    order += [len(order)] * (-len(order) % 6)
    masks = np.asarray(masks, dtype=np.min_scalar_type(1 << len(order)))
    stream = masks[:, None] >> np.array(order, dtype=masks.dtype) & 1
    head = _graph6_header(n).encode("ascii")
    text = np.empty((len(masks), len(head) + len(order) // 6), dtype=np.uint8)
    text[:, : len(head)] = list(head)
    chars = stream.reshape(len(masks), -1, 6) @ (32 >> np.arange(6, dtype=masks.dtype))
    text[:, len(head) :] = chars + 63
    flat, width = text.tobytes().decode("ascii"), text.shape[1]
    return tuple(flat[k : k + width] for k in range(0, len(flat), width))


def exhaustive_graph_search(n: int) -> SearchReport:
    """Threshold k* (with A = V) of every labelled graph on n vertices.

    Entry ``mask`` belongs to ``edge_mask_graph(n, mask)``, whose edge bit
    order is (0,1), (0,2), ..., (0,n-1), (1,2), ..., so results are
    reproducible.  Each k* is n + 1 - d, with d the smallest support in L
    (see ``qstar_threshold``), found for every mask at once by
    ``_min_support`` with A = V on one (n, 2^m) array of neighbour masks,
    built from one column by doubling once per edge bit in ascending order,
    the upper half adding the edge's other endpoint.  The walk drops each
    graph once no larger D can lower its d: at n = 6 it scores the 6 single
    vertices over all 32,768 graphs and the 15 pairs over 1,760 of them.

    The report is read off the same arrays: ``k_stars`` is n + 1 - d as
    uint8, ``histogram`` the nonzero counts of each k* in 1..n, and
    ``attainers_graph6`` is written by ``_graph6_many`` straight from the edge
    masks of the smallest k*, in ascending mask order.

    Exponential in n(n-1)/2; refuses n beyond ``SEARCH_N_LIMIT`` before any
    array is built.
    """
    if n > SEARCH_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds exhaustive search limit {SEARCH_N_LIMIT}")
    if n < 1:
        raise ValueError("n must be >= 1")
    import numpy as np

    m = n * (n - 1) // 2
    adj = np.zeros((n, 1 << m), dtype=np.min_scalar_type((1 << n) - 1))
    for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):  # edge bits, ascending
        adj[:, 1 << e : 2 << e] = adj[:, : 1 << e]  # the upper half has edge (i, j)
        adj[i, 1 << e : 2 << e] |= 1 << j
        adj[j, 1 << e : 2 << e] |= 1 << i
    k_stars = n + 1 - _min_support(adj, (1 << n) - 1)
    # per-value counts read the uint8 array as it is; np.bincount casts it to intp
    histogram = {k: count for k in range(1, n + 1) if (count := int(np.count_nonzero(k_stars == k)))}
    return SearchReport(k_stars, histogram, _graph6_many(n, np.flatnonzero(k_stars == min(histogram))))
