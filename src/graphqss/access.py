"""Coalition classification for graph-state secret sharing.

A coalition B is *accessing* when some D inside B has its odd neighborhood
inside B and odd overlap with the encoding set A, and *blind* when some C in
the complement of B reproduces A's pattern on B.  Exactly one of the two
always holds, decided by whether the A-pattern on B lies in the row space of
the cut matrix.  Quantum accessibility combines the verdicts of B and its
complement.  Every verdict is exact GF(2) arithmetic on bitmasks; the
exhaustive search labels relabelling orbits with NumPy integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import gf2
from .errors import NoWitnessError, ResourceLimitError
from .graphs import Graph, VertexSet, bits, odd_neighborhood

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_LIMIT = 26
KERNEL_DIM_LIMIT = 24
# n = 7 sweeps in under a second, but it has 125,670 labelled attainers to
# print; checked before the 2^(n(n-1)/2)-entry label arrays are built
SEARCH_N_LIMIT = 6
_PARALLEL_MIN_WORK = 200_000


class CVerdict(Enum):
    ACCESSING = "Accessing"
    BLIND = "Blind"


class QVerdict(Enum):
    Q_ACCESSING = "QAccessing"
    Q_BLIND = "QBlind"
    PARTIAL = "Partial"


class CClassification(NamedTuple):
    verdict: CVerdict
    witness: VertexSet


@dataclass(frozen=True)
class WitnessPair:
    d: Optional[VertexSet] = None
    c: Optional[VertexSet] = None


@dataclass(frozen=True)
class AccessReport:
    coalition: VertexSet
    c_verdict: CVerdict
    q_verdict: QVerdict
    witnesses: WitnessPair
    rank_residual: int


@dataclass(frozen=True)
class ScanResult:
    """Outcome of checking every coalition of one size."""

    all_accessing: bool
    first_failure: Optional[VertexSet]
    checked: int


@dataclass(frozen=True)
class ThresholdReport:
    k_star: int
    certificate_fail: Optional[VertexSet]
    sets_checked: int


# -- helpers -------------------------------------------------------------------


def _check_b(g: Graph, b: VertexSet) -> None:
    if b.universe != g.n:
        raise ValueError("vertex set universe != graph order")


def _check_a(g: Graph, a: VertexSet) -> None:
    """The encoding set check; sweeps run it alone, as their coalitions come from g."""
    if a.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    if not a:
        raise ValueError("encoding set A must be non-empty")


def _check_inputs(g: Graph, a: VertexSet, b: VertexSet) -> None:
    _check_b(g, b)
    _check_a(g, a)


def _combination_rank(members: tuple[int, ...], n: int) -> int:
    """Position of a sorted k-subset in the lexicographic enumeration."""
    k = len(members)
    r = 0
    prev = -1
    for i, c in enumerate(members):
        for v in range(prev + 1, c):
            r += comb(n - 1 - v, k - 1 - i)
        prev = c
    return r


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


def _accessing_witness(g: Graph, a: VertexSet, b: VertexSet) -> Optional[VertexSet]:
    """Verified lex-smallest D inside b with Odd(D) inside b and |D & a| odd."""
    rows = [(a.mask, 1)] + [(g.adj[v], 0) for v in b.complement().members()]
    _, x = gf2.reduce_rows(rows, b.mask)
    if x is None:
        return None
    d = VertexSet(g.n, x)
    if not (d.is_subset_of(b) and odd_neighborhood(g, d).is_subset_of(b) and len(d & a) % 2 == 1):
        raise RuntimeError("accessing witness failed verification")
    return d


def _blind_witness(g: Graph, a: VertexSet, b: VertexSet) -> Optional[VertexSet]:
    """Verified lex-smallest C outside b with Odd(C) & b == a & b."""
    rows = ((g.adj[v], (a.mask >> v) & 1) for v in b.members())
    _, y = gf2.reduce_rows(rows, b.complement().mask)
    if y is None:
        return None
    c = VertexSet(g.n, y)
    if not (c.is_subset_of(b.complement()) and (odd_neighborhood(g, c) & b) == (a & b)):
        raise RuntimeError("blind witness failed verification")
    return c


# -- classification ------------------------------------------------------------


def rank_residual(g: Graph, a: VertexSet, b: VertexSet) -> int:
    """Rank of the cut matrix stacked with the A-pattern, minus the cut rank.

    1 means the coalition is accessing, 0 that it is blind.
    """
    _check_inputs(g, a, b)
    return 1 if _accessing(g.adj, a.mask, b.mask, (1 << g.n) - 1) else 0


def classify_c(g: Graph, a: VertexSet, b: VertexSet) -> CClassification:
    """Classify one coalition against a classical secret and certify it.

    Accessing comes with D inside b (odd neighborhood inside b, odd overlap
    with a); blind comes with C outside b whose odd neighborhood reproduces
    a's pattern on b.  The returned witness is re-verified by direct
    neighborhood computation; ties in the underlying solver are broken
    lexicographically so runs are reproducible.
    """
    _check_inputs(g, a, b)
    d = _accessing_witness(g, a, b)
    if d is not None:
        return CClassification(CVerdict.ACCESSING, d)
    c = _blind_witness(g, a, b)
    if c is None:
        raise RuntimeError("coalition is neither accessing nor blind; adjacency corrupt?")
    return CClassification(CVerdict.BLIND, c)


def q_accessing(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """True iff b can reconstruct a quantum secret: b accessing, complement blind."""
    _check_inputs(g, a, b)
    return _q_accessing_masks(g.adj, a.mask, b.mask, (1 << g.n) - 1)


def _q_verdict(acc_b: bool, acc_bbar: bool) -> QVerdict:
    if acc_b == acc_bbar:
        return QVerdict.PARTIAL
    return QVerdict.Q_ACCESSING if acc_b else QVerdict.Q_BLIND


def q_classify(g: Graph, a: VertexSet, b: VertexSet) -> QVerdict:
    _check_inputs(g, a, b)
    full = (1 << g.n) - 1
    acc_b = _accessing(g.adj, a.mask, b.mask, full)
    return _q_verdict(acc_b, _accessing(g.adj, a.mask, full ^ b.mask, full))


def access_report(g: Graph, a: VertexSet, b: VertexSet) -> AccessReport:
    """Full classification of one coalition with certifying sets; the span
    test decides each side once, and b's verdict must match the witness."""
    c = classify_c(g, a, b)
    full = (1 << g.n) - 1
    acc_b = _accessing(g.adj, a.mask, b.mask, full)
    if acc_b != (c.verdict is CVerdict.ACCESSING):
        raise RuntimeError("rank residual disagrees with witness classification")
    q = _q_verdict(acc_b, _accessing(g.adj, a.mask, full ^ b.mask, full))
    pair = WitnessPair(d=c.witness) if acc_b else WitnessPair(c=c.witness)
    return AccessReport(b, c.verdict, q, pair, int(acc_b))


def reconstruction_witnesses(g: Graph, a: VertexSet, b: VertexSet) -> tuple[VertexSet, VertexSet]:
    """The pair (D, C) inside b that drives quantum reconstruction.

    D has odd overlap with a and odd neighborhood inside b; C's odd
    neighborhood matches a's pattern on the complement of b.  Raises
    NoWitnessError unless b is quantum-accessing.
    """
    _check_inputs(g, a, b)
    d = _accessing_witness(g, a, b)
    if d is None:
        raise NoWitnessError("coalition cannot access a classical secret")
    # the complement is blind exactly when it is not accessing
    c = _blind_witness(g, a, b.complement())
    if c is None:
        raise NoWitnessError("coalition complement is accessing; no quantum reconstruction")
    return d, c


# -- coalition scans and thresholds ---------------------------------------------


def _first_failure(task: tuple[tuple[int, ...], int, int, tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """Lexicographically first non-accessing k-set starting with ``prefix``, or None.

    The task ``(adj, mask_a, k, prefix)`` carries the whole graph, so the
    serial scan and every pool worker run this same loop with no shared state.
    """
    adj, mask_a, k, prefix = task
    n = len(adj)
    full = (1 << n) - 1
    base = 0
    for v in prefix:
        base |= 1 << v
    lo = prefix[-1] + 1 if prefix else 0
    for tail in itertools.combinations(range(lo, n), k - len(prefix)):
        mask = base
        for v in tail:
            mask |= 1 << v
        if not _q_accessing_masks(adj, mask_a, mask, full):
            return prefix + tail
    return None


def scan_size_k(
    g: Graph,
    a: VertexSet,
    k: int,
    jobs: Optional[int] = None,
) -> ScanResult:
    """Check every size-k coalition for quantum accessibility.

    The scan runs in lexicographic coalition order (possibly split across
    worker processes); the reported failure is always the lexicographically
    smallest one and ``checked`` counts canonical serial work (position of
    the first failure, or C(n, k) when all pass), so the result is identical
    under any scheduling.
    """
    _check_a(g, a)
    if not 0 <= k <= g.n:
        raise ValueError(f"k={k} outside 0..{g.n}")
    n = g.n
    total = comb(n, k)
    if jobs != 1 and k > 2 and total >= _PARALLEL_MIN_WORK:
        # every 2-vertex prefix that leaves room for the other k - 2 vertices
        from multiprocessing import Pool

        tasks = [(g.adj, a.mask, k, p) for p in itertools.combinations(range(n - k + 2), 2)]
        with Pool(jobs) as pool:
            failure = next((f for f in pool.imap(_first_failure, tasks) if f is not None), None)
    else:
        failure = _first_failure((g.adj, a.mask, k, ()))

    if failure is None:
        return ScanResult(True, None, total)
    return ScanResult(
        False,
        VertexSet.from_iterable(n, failure),
        _combination_rank(failure, n) + 1,
    )


def qstar_threshold(
    g: Graph,
    a: Optional[VertexSet] = None,
    *,
    jobs: Optional[int] = None,
) -> ThresholdReport:
    """Smallest k such that every size-k coalition is quantum-accessing.

    Scans sizes upward (quantum accessibility is upward monotone, a property
    the test suite verifies exhaustively on small graphs), stopping at the
    first size with no failure.  The failing set recorded for size k_star - 1
    certifies minimality.  Refuses graphs over ``ENUMERATION_LIMIT`` vertices.
    """
    if a is None:
        a = VertexSet.full(g.n)
    _check_a(g, a)
    if g.n > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    prev_fail = VertexSet.empty(g.n)  # the empty coalition is always blind
    checked = 1
    for k in range(1, g.n + 1):
        scan = scan_size_k(g, a, k, jobs=jobs)
        checked += scan.checked
        if scan.all_accessing:
            return ThresholdReport(k, prev_fail, checked)
        prev_fail = scan.first_failure
    raise RuntimeError("the full vertex set must be quantum-accessing when A is non-empty")


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
    _check_b(g, b)
    # the coset solves "every cut row hit oddly"; its kernel is the cut map's
    rows = ((g.adj[v], 1) for v in b.complement().members())
    pivots, coset = gf2.reduce_rows(rows, b.mask)
    kernel_dim = len(b) - len(pivots)  # one basis vector per free column
    if kernel_dim > KERNEL_DIM_LIMIT:
        raise ResourceLimitError(f"kernel dimension {kernel_dim} exceeds limit {KERNEL_DIM_LIMIT}")
    basis = gf2.null_basis(pivots, b.mask)

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
    odd_w = best_odd.bit_count() if best_odd is not None else None
    even_w = best_even.bit_count() if best_even is not None else None
    if best_even is None or (best_odd is not None and odd_w <= even_w):
        return VertexSet(g.n, best_odd), "odd-wise-odd-size"
    return VertexSet(g.n, best_even), "even-wise"


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


def _delta_swap(x: np.ndarray, low: int, shift: int) -> np.ndarray:
    """x with every bit set in ``low`` traded with the bit ``shift`` places up."""
    y = ((x >> shift) ^ x) & low
    return x ^ y ^ (y << shift)


def _orbit_minima(n: int) -> np.ndarray:
    """Smallest mask of every edge mask's relabelling orbit, by the fixed
    point that ``exhaustive_graph_search`` describes.  Its image arrays are
    freed before any threshold is scanned."""
    import numpy as np

    size = 1 << (n * (n - 1) // 2)
    label = np.arange(size, dtype=np.min_scalar_type(size - 1))
    images = []
    for t in range(n - 1):
        img = _delta_swap(label, sum(1 << _edge_bit(n, j, t) for j in range(t)), 1)
        block = ((1 << (n - t - 2)) - 1) << _edge_bit(n, t, t + 2)
        images.append(_delta_swap(img, block, n - t - 2))
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def exhaustive_graph_search(n: int) -> list[int]:
    """Threshold k* (with A = V) of every labelled graph on n vertices.

    Entry ``mask`` belongs to ``edge_mask_graph(n, mask)``, whose edge bit
    order is (0,1), (0,2), ..., (0,n-1), (1,2), ..., so results are
    reproducible.  One threshold is computed per isomorphism class: each
    mask is labelled with the smallest mask of its orbit under relabelling,
    the graphs of those smallest masks are scanned in ascending order, and
    each k* then labels its whole orbit.  The orbit is closed under the
    adjacent transpositions (t t+1), which generate S_n.

    The labelling is whole-array NumPy work, in the narrowest unsigned type
    that holds every mask.  One image array per transposition holds the
    image of every mask, from two delta swaps on the label array: bit
    (j, t), for each j < t, trades with (j, t+1), one place up; the block
    (t, t+2..n-1) trades with the block (t+1, t+2..n-1), n - t - 2 places
    up.  Every other edge bit is fixed.  Starting from ``label[x] = x``, each round lowers
    ``label[x]`` to ``label[img[x]]`` for every image in turn, then
    pointer-jumps ``label = label[label]``; it stops at the first round that
    changes nothing.  This is exact:

    - every label is a mask in the same orbit, as both steps only copy the
      label of a mask in that orbit;
    - the transpositions are involutions, so at the fixed point
      ``label[x] <= label[img[x]]`` and ``label[img[x]] <= label[x]``: the
      label is constant along every generator edge, hence on the orbit;
    - labels never rise above their mask, so the orbit's minimum keeps its
      own label, and the constant is that minimum.

    The orbit minimum is the first mask of its orbit in ascending order, so
    the scanned graphs and their order do not depend on how labels spread.

    Relabelling keeps k*.  A relabelling pi maps every size-k coalition B of
    G to the size-k coalition pi(B) of pi(G), and B is quantum-accessing in G
    exactly when pi(B) is in pi(G) with the encoding set pi(A); A = V is
    fixed by every pi, so k*(pi(G)) = k*(G).  Local complementation is not
    used: at v it maps (G, V) to (G*v, V minus N(v)), so it does not keep
    A = V.

    Exponential in n(n-1)/2; refuses n beyond ``SEARCH_N_LIMIT`` before any
    array is built.
    """
    if n > SEARCH_N_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds exhaustive search limit {SEARCH_N_LIMIT}")
    if n < 1:
        raise ValueError("n must be >= 1")
    import numpy as np

    label = _orbit_minima(n)
    reps = np.flatnonzero(label == np.arange(label.size, dtype=label.dtype))
    a = VertexSet.full(n)
    k_of = np.zeros_like(label)
    for r in reps.tolist():
        k_of[r] = qstar_threshold(edge_mask_graph(n, r), a, jobs=1).k_star
    return k_of[label].tolist()
