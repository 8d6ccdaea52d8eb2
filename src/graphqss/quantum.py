"""Dense statevector simulation of graph states and their coalition states.

States and operators only: the protocol's one-time pad, both ways, and the
fidelity against the dealt secret are ``protocol``'s.  Of ``protocol`` only
``privacy_probe`` comes here; the isometry and correction below are the
tests' dense oracle for ``reconstruct``, which runs by Pauli algebra.

Conventions used throughout (and by everything downstream):

* qubit i is bit i of the basis index, qubit 0 least significant;
* an ancilla added by the extraction isometry becomes qubit n (the new
  highest index, i.e. the top half of the amplitude array);
* reduced density matrices index their qubits by ascending vertex label.

This is the package's only module that imports NumPy when it loads; the
package runs it on first use, so integer-only work never loads NumPy.

Tolerances: 1e-12 for algebraic identities (norms, fixpoints), 1e-10 for
derived zero tests (overlap, trace distance, purity).  Registers are capped
at ``QUBIT_LIMIT`` qubits, checked before any amplitude is allocated: this
caps ``simulate`` and ``privacy_probe``, not ``protocol-run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ProtocolStateError, ResourceLimitError
from .graphs import Graph, VertexSet, edge_parity, odd_neighborhood

ATOL_ALGEBRA = 1e-12
ATOL_ZERO_TEST = 1e-10
QUBIT_LIMIT = 12


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n_qubits; amplitudes[x] belongs to basis x."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count != 2**n_qubits")
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    def inner(self, other: StateVector) -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one matrix over a subset of qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(m - m.conj().T).max(initial=0.0) > ATOL_ALGEBRA:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(m) - 1.0) > ATOL_ALGEBRA:
            raise ValueError("density matrix trace != 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True)
class PauliOp:
    """phase * X on x_support * Z on z_support, phase in {+1, -1}."""

    x_support: VertexSet
    z_support: VertexSet
    phase: int = 1

    def __post_init__(self) -> None:
        if self.phase not in (1, -1):
            raise ValueError("phase must be +1 or -1")
        if self.x_support.universe != self.z_support.universe:
            raise ValueError("supports over different universes")


def stabilizer_for(g: Graph, d: VertexSet) -> PauliOp:
    """Product of the vertex stabilizers over d: signed X on d, Z on Odd(d).

    Collecting the X factors to the left crosses one Z per edge inside d, so
    the sign is the parity of edges in the induced subgraph (which is also
    the graph-state sign at basis string d).
    """
    return PauliOp(d, odd_neighborhood(g, d), -1 if edge_parity(g, d.mask) else 1)


def graph_state(g: Graph) -> StateVector:
    """Uniform-magnitude state whose sign at x counts induced edges mod 2.

    Built by vertex doubling: once the amplitudes of every x below 2^v are
    known, those of 2^v + x are the same times (-1)^|x & N(v)|, since x has
    bits below v only and so meets only v's lower neighbours.  Each edge is
    counted once, at its higher end.
    """
    n = g.n
    if n > QUBIT_LIMIT:
        raise ResourceLimitError(f"{n} qubits exceeds limit {QUBIT_LIMIT}")
    sign = np.array([1.0, -1.0])
    idx = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    amps = np.empty(1 << n)
    amps[0] = 1.0 / math.sqrt(1 << n)
    for v in range(n):
        h = 1 << v
        amps[h : 2 * h] = amps[:h] * sign[np.bitwise_count(idx[:h] & g.adj[v]) & 1]
    return StateVector(n, amps.astype(np.complex128))


def _pauli_amplitudes(amps: np.ndarray, p: PauliOp) -> np.ndarray:
    """``apply_pauli`` on a bare amplitude array, such as one half of a
    register whose top qubit is an ancilla."""
    idx = np.arange(len(amps), dtype=np.uint64)
    src = idx ^ np.uint64(p.x_support.mask)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint64(p.z_support.mask)) & 1)
    return p.phase * signs * amps[src]


def apply_pauli(s: StateVector, p: PauliOp) -> StateVector:
    """Apply Z on the z-support, then X on the x-support, then the phase."""
    if p.x_support.universe != s.n_qubits:
        raise ValueError("operator support does not match qubit count")
    return StateVector(s.n_qubits, _pauli_amplitudes(s.amplitudes, p))


def _encoded_pair(g: Graph, a: VertexSet) -> tuple[StateVector, StateVector]:
    """The two classical encodings: the graph state, and it with Z on a."""
    if not a:
        raise ValueError("encoding set A must be non-empty")
    g0 = graph_state(g)
    return g0, apply_pauli(g0, PauliOp(VertexSet.empty(g.n), a))


def _superpose(pair: tuple[StateVector, StateVector], alpha: complex, beta: complex) -> StateVector:
    """alpha times the first encoding plus beta times the second."""
    # a product past the float range is inf and fails, where abs or ** 2 would raise
    if not abs(sum(x.real * x.real + x.imag * x.imag for x in (alpha, beta)) - 1.0) <= 1e-9:
        raise ValueError("secret amplitudes are not normalized")
    g0, g1 = pair
    return StateVector(g0.n_qubits, alpha * g0.amplitudes + beta * g1.amplitudes)


def encode_classical(g: Graph, a: VertexSet, s: int) -> StateVector:
    """Graph state carrying classical bit s: s = 1 flips phases on a."""
    if s not in (0, 1):
        raise ValueError("classical secret must be 0 or 1")
    return _encoded_pair(g, a)[s]


def embed_secret(g: Graph, a: VertexSet, alpha: complex, beta: complex) -> StateVector:
    """Embed alpha|0> + beta|1> into the two orthogonal encoded graph states."""
    return _superpose(_encoded_pair(g, a), alpha, beta)


def _amplitude_matrix(s: StateVector, b: VertexSet) -> np.ndarray:
    """s as a 2^|b̄| x 2^|b| matrix M: rows index the traced-out qubits and
    columns the kept ones, so tr_{b̄}|s><s| = M^T conj(M).

    Bit l of the column index is the l-th smallest member of b.
    """
    n = s.n_qubits
    if b.universe != n:
        raise ValueError("vertex set universe != qubit count")
    keep = b.members()
    env = b.complement().members()
    # axis of qubit q in the reshaped tensor is n-1-q (C order, qubit 0 = LSB)
    perm = [n - 1 - q for q in reversed(env)] + [n - 1 - q for q in reversed(keep)]
    tensor = s.amplitudes.reshape((2,) * n).transpose(perm)
    return tensor.reshape(1 << len(env), 1 << len(keep))


def reduced_density(s: StateVector, b: VertexSet) -> DensityMatrix:
    """Partial trace onto the qubits in b, without forming the full projector.

    Bit l of the reduced index is the l-th smallest member of b.
    """
    m = _amplitude_matrix(s, b)
    return DensityMatrix(m.T @ m.conj())


def trace_norm(views: Sequence[tuple[float, StateVector]], b: VertexSet) -> float:
    """Trace norm of sum_i w_i tr_{b̄}|psi_i><psi_i| over (w_i, psi_i) views.

    With the amplitude matrices M_i stacked into Y, the sum is
    Y^T diag(w) conj(Y).  For the thin QR Y^T = QR, its non-zero eigenvalues
    are those of R diag(w) R^dagger, whose side is min(2^|b|, rows of Y)
    rather than 2^|b|.  A Gram-matrix square root in place of the QR read
    2-5e-8 on views that should read 0.
    """
    y = np.vstack([_amplitude_matrix(s, b) for _, s in views])
    w = np.repeat([weight for weight, _ in views], len(y) // len(views))
    r = np.linalg.qr(y.T, mode="r")
    return float(np.abs(np.linalg.eigvalsh((r * w) @ r.conj().T)).sum())


def distinguishability(g: Graph, a: VertexSet, b: VertexSet) -> tuple[float, float]:
    """(tr(rho0 rho1), trace norm of rho0 - rho1) for the coalition b.

    Overlap 0 means b distinguishes the two classical encodings perfectly;
    distance 0 means b sees identical states.  This is the quantum oracle the
    combinatorial classifier is checked against.
    """
    g0, g1 = _encoded_pair(g, a)
    m0, m1 = _amplitude_matrix(g0, b), _amplitude_matrix(g1, b)
    # tr(rho0 rho1) = |conj(M0) M1^T|_F^2; when b keeps fewer qubits than it
    # traces out, the reduced states themselves are the smaller product
    if m0.shape[0] <= m0.shape[1]:
        ov = np.linalg.norm(m0.conj() @ m1.T) ** 2
    else:
        ov = np.vdot(m1.T @ m1.conj(), m0.T @ m0.conj()).real
    return float(ov), trace_norm([(1.0, g0), (-1.0, g1)], b)


def measure_access_observable(s: StateVector, g: Graph, a: VertexSet, d: VertexSet) -> int:
    """Deterministic readout of the encoded classical bit via d's stabilizer.

    Outcome sigma corresponds to eigenvalue (-1)**sigma; requires d to have
    odd overlap with a, which makes the two encodings opposite eigenstates.
    """
    if len(d & a) % 2 != 1:
        raise ValueError("witness must have odd overlap with the encoding set")
    op = stabilizer_for(g, d)
    flipped = apply_pauli(s, op)
    if np.allclose(flipped.amplitudes, s.amplitudes, atol=ATOL_ZERO_TEST):
        return 0
    if np.allclose(flipped.amplitudes, -s.amplitudes, atol=ATOL_ZERO_TEST):
        return 1
    raise ProtocolStateError("state is not an eigenstate of the access observable")


def apply_isometry_UD(s: StateVector, g: Graph, d: VertexSet) -> StateVector:
    """Extraction isometry: ancilla records which stabilizer eigenspace holds.

    Splits the register into the +1/-1 eigenspaces of d's stabilizer and
    tags them with a fresh ancilla (appended as the highest-index qubit).
    The +1 branch of a protocol state is proportional to the bare graph
    state; anything else is rejected.
    """
    if s.n_qubits != g.n:
        raise ValueError("state size does not match graph order")
    base = graph_state(g).amplitudes
    flipped = apply_pauli(s, stabilizer_for(g, d))
    plus = (s.amplitudes + flipped.amplitudes) / 2.0
    minus = (s.amplitudes - flipped.amplitudes) / 2.0
    residual = plus - (base.conj() @ plus) * base
    if not np.linalg.norm(residual) <= ATOL_ZERO_TEST:
        raise ProtocolStateError("register is not a superposition of encoded graph states")
    return StateVector(g.n + 1, np.concatenate([plus, minus]))


def apply_controlled_VC(s: StateVector, g: Graph, a: VertexSet, c: VertexSet) -> StateVector:
    """Ancilla-controlled correction that folds the flipped branch back.

    Applies phase * X on c * Z on Odd(c) xor a to the half of the register
    where the ancilla (highest qubit) is 1.
    """
    n = g.n
    if s.n_qubits != n + 1:
        raise ValueError("expected a register with one ancilla qubit on top")
    # c's stabilizer times Z on a: the Z supports merge by symmetric
    # difference and the phase stays the stabilizer's
    stab = stabilizer_for(g, c)
    op = PauliOp(c, stab.z_support ^ a, stab.phase)
    half = 1 << n
    upper = _pauli_amplitudes(s.amplitudes[half:], op)
    return StateVector(n + 1, np.concatenate([s.amplitudes[:half], upper]))


def dump_state(s: StateVector) -> str:
    """Text dump: one 'index re im' line per basis state, index ascending."""
    lines = [
        f"{i} {amp.real:.17g} {amp.imag:.17g}" for i, amp in enumerate(s.amplitudes)
    ]
    return "\n".join(lines) + "\n"
