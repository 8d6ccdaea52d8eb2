"""Dense statevector simulation of graph states and their coalition states.

States and operators only: the protocol's one-time pad, both ways, and the
fidelity against the dealt secret are ``protocol``'s.  Of ``protocol`` only
``privacy_probe`` comes here; ``reconstruct`` runs by Pauli algebra, and the
tests' dense oracle replays it on ``stabilizer_for`` and ``apply_pauli``.

Conventions used throughout (and by everything downstream):

* qubit i is bit i of the basis index, qubit 0 least significant;
* a coalition's kept qubits index their amplitude-matrix columns by
  ascending vertex label.

This is the package's only module that imports NumPy when it loads; the
package runs it on first use, so integer-only work never loads NumPy.

Tolerances: ``ATOL_NORM`` (1e-9) for the norm of a state and of a secret;
``ATOL_ZERO_TEST`` (1e-10) is the zero test that ``simulate`` applies to
the oracle's overlap and trace distance.  Registers are capped at
``QUBIT_LIMIT`` qubits, checked before any amplitude is allocated: this caps
``simulate`` and ``privacy_probe``, not ``protocol-run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .access import _check_a
from .errors import ResourceLimitError
from .graphs import Graph, VertexSet, edge_parity, odd_neighborhood

ATOL_NORM = 1e-9
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
        if not abs(norm - 1.0) <= ATOL_NORM:  # NaN fails too
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    def inner(self, other: StateVector) -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def apply_pauli(s: StateVector, p: PauliOp) -> StateVector:
    """Apply Z on the z-support, then X on the x-support, then the phase."""
    if p.x_support.universe != s.n_qubits:
        raise ValueError("operator support does not match qubit count")
    src = np.arange(1 << s.n_qubits, dtype=np.uint64) ^ np.uint64(p.x_support.mask)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint64(p.z_support.mask)) & 1)
    return StateVector(s.n_qubits, p.phase * signs * s.amplitudes[src])


def _encoded_pair(g: Graph, a: VertexSet) -> tuple[StateVector, StateVector]:
    """The two classical encodings: the graph state, and it with Z on a."""
    _check_a(g, a)
    g0 = graph_state(g)
    return g0, apply_pauli(g0, PauliOp(VertexSet.empty(g.n), a))


def _superpose(pair: tuple[StateVector, StateVector], alpha: complex, beta: complex) -> StateVector:
    """alpha times the first encoding plus beta times the second."""
    # a product past the float range is inf and fails, where abs or ** 2 would raise
    if not abs(sum(x.real * x.real + x.imag * x.imag for x in (alpha, beta)) - 1.0) <= ATOL_NORM:
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


def dump_state(s: StateVector) -> str:
    """Text dump: one 'index re im' line per basis state, index ascending;
    adding 0.0 prints a zero part as 0, never as -0."""
    lines = [
        f"{i} {amp.real + 0.0:.17g} {amp.imag + 0.0:.17g}" for i, amp in enumerate(s.amplitudes)
    ]
    return "\n".join(lines) + "\n"
