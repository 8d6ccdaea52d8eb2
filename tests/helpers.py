"""Independent brute-force oracles shared by the test modules.

Everything here works by direct neighborhood enumeration over all subsets,
never through the rank-based solver paths it is used to check, or by dense
linear algebra on full reduced density matrices, never through the low-rank
trace-norm kernel.  The partial trace gathers each basis index's bits into
a row (the traced-out qubits) and a column (the kept ones), never through
the reshape and transpose of ``quantum._amplitude_matrix`` that the
trace-norm kernel runs.  The one exception is the threshold reference, which
decides each coalition with the span test ``access._q_accessing_masks``: it
checks the code distance, not the span test, which the witness oracles
check.  The exhaustive search reference scans every labelled graph, never
relying on relabelling symmetry, the array search reference scores all
2^n - 1 sets D in every graph, never dropping a settled graph, on neighbour
arrays read bit by bit off the mask table, never doubled over edges, the
threshold reference scans every size's coalitions in lexicographic order,
never through the code distance, the distance reference scores all 2^n sets
D, never pruning by size, the small-witness reference scores every
vector of the kernel and its coset by a Gray-code walk, never stopping at
a weight (it shares ``gf2``'s basis and the certifiers with
``small_witness``, so it checks the walk, not the basis), the min-k
reference builds the whole counting
sum, never bracketing it, the GF(256) reference multiplies by
shift-and-add, never through log tables, the graph-state reference flips
one parity bit per edge, never doubling over vertices, and the protocol
reference reconstructs on 2^(n+1) dense amplitudes, with U_D and V_C built
from the public ``stabilizer_for`` and ``apply_pauli``, never by Pauli
algebra on the branches.
"""

from __future__ import annotations

import itertools
import math
from math import comb
from typing import Optional

import numpy as np

from graphqss import gf2, shamir
from graphqss.access import (
    ThresholdReport,
    _certify_accessing,
    _certify_blind,
    _q_accessing_masks,
    reconstruction_witnesses,
)
from graphqss.errors import NoWitnessError, ProtocolStateError
from graphqss.graphs import Graph, VertexSet, bits, odd_mask, odd_neighborhood
from graphqss.protocol import RecoveredSecret, Transcript
from graphqss.quantum import (
    ATOL_ZERO_TEST,
    PauliOp,
    StateVector,
    apply_pauli,
    graph_state,
    stabilizer_for,
)


def submasks(mask: int):
    """All submasks of mask, ascending by value."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == mask:
            return sorted(out)
        sub = (sub - mask) & mask


def brute_accessing_witness(g: Graph, a: VertexSet, b: VertexSet) -> Optional[VertexSet]:
    """Smallest-value D in b with Odd(D) in b and odd overlap with a."""
    for sub in submasks(b.mask):
        d = VertexSet(g.n, sub)
        if len(d & a) % 2 == 1 and odd_neighborhood(g, d).is_subset_of(b):
            return d
    return None


def brute_blind_witness(g: Graph, a: VertexSet, b: VertexSet) -> Optional[VertexSet]:
    """Smallest-value C outside b whose odd neighborhood matches a on b."""
    for sub in submasks(b.complement().mask):
        c = VertexSet(g.n, sub)
        if (odd_neighborhood(g, c) & b) == (a & b):
            return c
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation search; fine for n <= 8."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    for perm in itertools.permutations(range(g1.n)):
        if all(
            g2.has_edge(perm[u], perm[v]) == g1.has_edge(u, v)
            for u in range(g1.n)
            for v in range(u + 1, g1.n)
        ):
            return True
    return False


def all_graphs(n: int):
    """Every labelled graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (mask >> idx) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(n, tuple(adj))


def lex_threshold(g: Graph, a: VertexSet) -> ThresholdReport:
    """The threshold report by the upward lexicographic scan: each size from
    1 up is scanned to its first failing coalition, until a size passes in
    full.  The tally counts the empty coalition, the position of each first
    failure, and every coalition of the passing size."""
    n, full = g.n, (1 << g.n) - 1
    fail, checked = VertexSet.empty(n), 1
    for k in range(1, n + 1):
        for position, team in enumerate(itertools.combinations(range(n), k), 1):
            mask = sum(1 << v for v in team)
            if not _q_accessing_masks(g.adj, a.mask, mask, full):
                fail, checked = VertexSet(n, mask), checked + position
                break
        else:
            return ThresholdReport(k, fail, checked + comb(n, k))
    raise AssertionError("the full vertex set must be quantum-accessing")


def brute_distance(g: Graph, a: VertexSet) -> int:
    """Smallest support over every D of K_D (when |D & a| is odd) and of
    Z_a.K_D, whose supports are D | Odd(D) and D | (Odd(D) ^ a)."""
    best = g.n
    for d in range(1 << g.n):
        odd = odd_mask(g, d)
        best = min(best, (d | (odd ^ a.mask)).bit_count())
        if (d & a.mask).bit_count() % 2 == 1:
            best = min(best, (d | odd).bit_count())
    return best


def gray_small_witness(g: Graph, b: VertexSet) -> tuple[VertexSet, str]:
    """``small_witness`` by a Gray-code walk over all 2^dim vectors of the
    kernel and its coset: each family keeps its least (weight, ascending
    members), and odd-wise wins a weight tie."""
    mb, full = b.mask, (1 << g.n) - 1
    rows = ((g.adj[v], 1) for v in bits(full ^ mb))
    pivots, coset = gf2.reduce_rows(rows, mb)
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
    if best_even is None or (best_odd is not None and best_odd.bit_count() <= best_even.bit_count()):
        return _certify_accessing(g, full, mb, best_odd), "odd-wise-odd-size"
    return _certify_blind(g, full, full ^ mb, best_even), "even-wise"


def labelled_graph_search(n: int) -> list[int]:
    """k* with A = V of every labelled graph on n vertices, one threshold
    per graph, in edge-mask order."""
    a = VertexSet.full(n)
    return [lex_threshold(g, a).k_star for g in all_graphs(n)]


def gray_walk_k_stars(n: int) -> np.ndarray:
    """k* with A = V of every labelled graph on n vertices as a uint8 array
    in edge-mask order, by a Gray-code walk over all 2^n - 1 nonempty sets D
    in every graph.  Vertex v's neighbour mask in each graph is read off the
    mask table by extracting the bits of v's edges; each step flips one
    vertex of D, carries Odd(D) by one XOR and scores both supports."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1 << len(pairs))
    adj = [np.zeros(len(masks), dtype=np.uint8) for _ in range(n)]
    for bit, (i, j) in enumerate(pairs):
        edge = ((masks >> bit) & 1).astype(np.uint8)
        adj[i] |= edge << j
        adj[j] |= edge << i
    best = np.full(len(masks), n, dtype=np.uint8)
    odd = np.zeros(len(masks), dtype=np.uint8)
    d = 0
    for step in range(1, 1 << n):
        v = (step & -step).bit_length() - 1
        d ^= 1 << v
        odd ^= adj[v]
        weight = np.bitwise_count(odd | d)
        if d.bit_count() % 2:
            best = np.minimum(best, weight)
        best = np.minimum(best, n + d.bit_count() - weight)
    return (n + 1 - best).astype(np.uint8)


def induced_edge_count(g: Graph, support: int) -> int:
    """Edges of g with both endpoints in the support bitmask."""
    return sum(
        1
        for u, v in g.edges()
        if (support >> u) & 1 and (support >> v) & 1
    )


def edge_parity_amplitudes(g: Graph) -> np.ndarray:
    """Graph-state amplitudes: the sign at x is the parity of bit i AND bit j
    summed over the edges (i, j), one whole-array XOR per edge."""
    n = g.n
    idx = np.arange(1 << n, dtype=np.uint64)
    parity = np.zeros(1 << n, dtype=np.uint64)
    for i, j in g.edges():
        parity ^= (idx >> np.uint64(i)) & (idx >> np.uint64(j)) & np.uint64(1)
    amps = (1.0 - 2.0 * parity.astype(np.float64)) / math.sqrt(1 << n)
    return amps.astype(np.complex128)


def apply_isometry_UD(s: StateVector, g: Graph, d: VertexSet) -> StateVector:
    """Extraction isometry: the register split into the +1/-1 eigenspaces of
    d's stabilizer, (s + K_D s)/2 and (s - K_D s)/2, tagged by a fresh
    ancilla on top.  The +1 branch of a protocol state is proportional to
    the bare graph state; anything else is rejected."""
    if s.n_qubits != g.n:
        raise ValueError("state size does not match graph order")
    base = graph_state(g).amplitudes
    flipped = apply_pauli(s, stabilizer_for(g, d)).amplitudes
    plus, minus = (s.amplitudes + flipped) / 2.0, (s.amplitudes - flipped) / 2.0
    residual = plus - (base.conj() @ plus) * base
    if not np.linalg.norm(residual) <= ATOL_ZERO_TEST:
        raise ProtocolStateError("register is not a superposition of encoded graph states")
    return StateVector(g.n + 1, np.concatenate([plus, minus]))


def apply_controlled_VC(s: StateVector, g: Graph, a: VertexSet, c: VertexSet) -> StateVector:
    """Ancilla-controlled correction X^C Z^(Odd(C) ^ A), signed as c's
    stabilizer: applied to the whole register, of which the lower half (the
    ancilla at 0) is then put back."""
    n = g.n
    if s.n_qubits != n + 1:
        raise ValueError("expected a register with one ancilla qubit on top")
    stab = stabilizer_for(g, c)
    op = PauliOp(VertexSet(n + 1, c.mask), VertexSet(n + 1, stab.z_support.mask ^ a.mask), stab.phase)
    flipped = apply_pauli(s, op).amplitudes
    return StateVector(n + 1, np.concatenate([s.amplitudes[: 1 << n], flipped[1 << n :]]))


def ancilla_readout(s: StateVector, base: np.ndarray) -> tuple[complex, complex]:
    """The ancilla amplitudes (amp0, amp1) of a corrected register, which
    must be base (g's graph state) times amp0|0> + amp1|1> on the ancilla."""
    half = len(base)
    amp0 = complex(np.vdot(base, s.amplitudes[:half]))
    amp1 = complex(np.vdot(base, s.amplitudes[half:]))
    residual = np.linalg.norm(s.amplitudes[:half] - amp0 * base) + np.linalg.norm(
        s.amplitudes[half:] - amp1 * base
    )
    if not residual <= ATOL_ZERO_TEST:
        raise ProtocolStateError("ancilla failed to disentangle from the graph register")
    return amp0, amp1


def dense_reconstruct(t: Transcript, coalition) -> tuple[RecoveredSecret, list[str]]:
    """``protocol.reconstruct`` for an authorized coalition on the dense
    register c0|G> + c1 Z_A|G>: the isometry U_D and the correction V_C on
    2^(n+1) amplitudes, then the readout with its residual check.  Returns
    the recovered secret and the four log lines of the steps."""
    cfg = t.config
    g, a = cfg.graph, cfg.access_set
    players = sorted(set(coalition))
    need = cfg.k + cfg.c
    b = VertexSet.from_iterable(g.n, (q for q in range(g.n) if t.qubit_holders[q] in players))
    d, c = reconstruction_witnesses(g, a, b)
    g0 = graph_state(g)
    g1 = apply_pauli(g0, PauliOp(VertexSet.empty(g.n), a))
    c0, c1 = t.register
    state = StateVector(g.n, c0 * g0.amplitudes + c1 * g1.amplitudes)
    state = apply_controlled_VC(apply_isometry_UD(state, g, d), g, a, c)
    amp0, amp1 = ancilla_readout(state, g0.amplitudes)
    b_x, b_z = shamir.unpack_pad(shamir.reconstruct([t.shares[p] for p in players], need))
    if b_x:
        amp0, amp1 = amp1, amp0
    if b_z:
        amp1 = -amp1
    alpha, beta = t.secret
    fidelity = float(abs(np.conj(alpha) * amp0 + np.conj(beta) * amp1) ** 2)
    log = [
        f"step a: extract with D={list(d.members())} on qubits {list(b.members())}",
        f"step b: correct with C={list(c.members())}",
        f"step c: pad bits ({b_x}, {b_z}) from {need} shares",
        f"ancilla at player {players[0]}: fidelity={fidelity:.12f}",
    ]
    return RecoveredSecret(amp0, amp1, fidelity), log


class DensityMatrix:
    """Hermitian, trace-one matrix over a subset of qubits."""

    def __init__(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(matrix - matrix.conj().T).max(initial=0.0) > 1e-12:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(matrix) - 1.0) > 1e-12:
            raise ValueError("density matrix trace != 1")
        self.matrix = matrix

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def reduced_density(s: StateVector, b: VertexSet) -> DensityMatrix:
    """Partial trace onto the qubits in b.  Basis index x puts its amplitude
    at row (x's bits outside b) and column (x's bits in b) of M, bit l of
    each the l-th smallest member of its set; then rho = M^T conj(M)."""
    if b.universe != s.n_qubits:
        raise ValueError("vertex set universe != qubit count")
    idx = np.arange(1 << s.n_qubits)
    keep, env = b.members(), b.complement().members()
    rows = sum(((idx >> q) & 1) << l for l, q in enumerate(env))
    cols = sum(((idx >> q) & 1) << l for l, q in enumerate(keep))
    m = np.zeros((1 << len(env), 1 << len(keep)), dtype=np.complex128)
    m[rows, cols] = s.amplitudes
    return DensityMatrix(m.T @ m.conj())


def overlap(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """tr(rho0 rho1) by a dense matrix product."""
    return float(np.real(np.trace(rho0.matrix @ rho1.matrix)))


def trace_distance(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Trace norm of rho0 - rho1 by a dense eigen-solve."""
    eig = np.linalg.eigvalsh(rho0.matrix - rho1.matrix)
    return float(np.abs(eig).sum())


def full_sum_min_feasible_k(n: int) -> int:
    """Smallest k above n/2 passing the counting inequality.  The whole sum
    is built at the first k; C(n, k) and the sum are then stepped by exact
    ratio recurrences, and C(k - 1, 2k - n - 1) comes from math.comb."""
    k = n // 2 + 1
    upper = (2 * (n - k + 1)) // 3
    total, c_upper = 0, 1  # sum of C(n, 1..upper), C(n, upper)
    for i in range(1, upper + 1):
        c_upper = c_upper * (n - i + 1) // i
        total += c_upper
    c_k = comb(n, k)
    while True:
        if c_k <= 2 * total * comb(k - 1, 2 * k - n - 1):
            return k
        if k == n:
            raise RuntimeError(f"counting inequality holds for no k on n={n}")
        c_k = c_k * (n - k) // (k + 1)
        k += 1
        while upper > (2 * (n - k + 1)) // 3:
            total -= c_upper
            c_upper = c_upper * upper // (n - upper + 1)
            upper -= 1


def gf_mul_reference(a: int, b: int) -> int:
    """GF(256) product modulo x^8 + x^4 + x^3 + x + 1, by shift-and-add."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return acc
