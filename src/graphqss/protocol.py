"""End-to-end threshold quantum secret sharing over a graph state.

One run: the dealer one-time-pads the secret qubit, embeds it into the
padded pair of encoded graph states, hands qubit i to a player, and deals
the two pad bits with a threshold-(k+c) classical scheme to all n+c players
(the c extras hold classical shares only).  An authorized coalition extracts
the padded qubit onto a fresh ancilla with its witness pair and undoes the
pad with the reconstructed classical bits.  The pad, both ways, and the
fidelity score live here.  After the embedding every step is a Pauli
operator, so ``deal`` keeps the register as its coefficients on |G> and
Z_A|G>, and ``reconstruct`` is exact bitmask algebra with no statevector and
no tolerance: witnesses, supports and Pauli branches stay ints, and its only
vertex sets are the coalition and its two witnesses.  Only ``privacy_probe``
runs the dense simulator ``quantum``.

All randomness flows through one seeded generator, drawn in a fixed order
(pad bits, then qubit holders when c > 0, then share coefficients), so a
transcript is reproducible from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from . import access, quantum, shamir
from .errors import InsufficientSharesError, LocalityError, ProtocolStateError
from .graphs import Graph, VertexSet, bits, edge_parity, odd_mask

FIDELITY_ATOL = 1e-9


@dataclass(frozen=True)
class ProtocolConfig:
    graph: Graph
    access_set: VertexSet
    k: int
    c: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        access._check_a(self.graph, self.access_set)
        if not 1 <= self.k <= self.graph.n:
            raise ValueError("need 1 <= k <= n")
        if self.c < 0:
            raise ValueError("extra classical players c must be >= 0")
        if self.graph.n + self.c > 255:
            raise ValueError("player count capped at 255 by the classical scheme")

    @property
    def players(self) -> int:
        return self.graph.n + self.c


@dataclass(frozen=True)
class RecoveredSecret:
    alpha: complex
    beta: complex
    fidelity: float


@dataclass
class Transcript:
    """One protocol run; the log grows as reconstruction steps execute."""

    config: ProtocolConfig
    secret: tuple[complex, complex]
    pad: tuple[int, int]
    register: tuple[complex, complex]  # (c0, c1): c0|G> + c1 Z_A|G>
    qubit_holders: tuple[int, ...]  # qubit i is held by player qubit_holders[i]
    shares: list[shamir.ClassicalShare]
    log: list[str] = field(default_factory=list)


@lru_cache(maxsize=256)
def _threshold_feasible(g: Graph, a: VertexSet) -> int:
    """k*, one level walk per (g, a): a deal is feasible iff its k is at least this."""
    return access._k_star(g, a)


def _pad(alpha: complex, beta: complex, b_x: int, b_z: int) -> tuple[complex, complex]:
    """(c0, c1) on |G> and Z_A|G> after the pad: Z signs beta, then X swaps
    the encodings.  ``reconstruct`` undoes both on the ancilla, in reverse."""
    if b_z:
        beta = -beta
    return (beta, alpha) if b_x else (alpha, beta)


def deal(cfg: ProtocolConfig, secret: tuple[complex, complex]) -> Transcript:
    """Encrypt, embed and distribute one secret qubit."""
    alpha, beta = secret
    # NaN fails too; a product past the float range is inf and fails, where abs or ** 2 would raise
    if not abs(sum(x.real * x.real + x.imag * x.imag for x in (alpha, beta)) - 1.0) <= FIDELITY_ATOL:
        raise ValueError("secret amplitudes are not normalized")
    g, a = cfg.graph, cfg.access_set
    # the level walk refuses graphs over access.ENUMERATION_LIMIT vertices
    if cfg.k < _threshold_feasible(g, a):
        raise ValueError(f"some size-{cfg.k} coalition cannot reconstruct on this graph")
    rng = random.Random(cfg.seed)
    b_x, b_z = rng.randrange(2), rng.randrange(2)
    if cfg.c > 0:
        holders = tuple(sorted(rng.sample(range(cfg.players), g.n)))
    else:
        holders = tuple(range(g.n))
    shares = shamir.share(shamir.pack_pad(b_x, b_z), cfg.k + cfg.c, cfg.players, rng)
    t = Transcript(cfg, (alpha, beta), (b_x, b_z), _pad(alpha, beta, b_x, b_z), holders, shares)
    t.log.append(f"deal: n={g.n} players={cfg.players} k={cfg.k} c={cfg.c}")
    return t


def _check_on_graph_state(g: Graph, branches: list[tuple[complex, int, int, int]], failure: str) -> None:
    """X^x Z^z|G> is K_x|G> = |G> up to sign when z = Odd(x), and orthogonal to |G> otherwise."""
    if any(z != odd_mask(g, x) for _, x, z, _ in branches):
        raise ProtocolStateError(failure)


def reconstruct(t: Transcript, coalition: Iterable[int]) -> RecoveredSecret:
    """Run the three reconstruction steps for a coalition of player ids, on
    branches (coef, x, z, ancilla): coef X^x Z^z|G>, with the ancilla in |ancilla>."""
    cfg = t.config
    g, a = cfg.graph, cfg.access_set
    players = sorted(set(coalition))
    if any(p not in range(cfg.players) for p in players):
        raise ValueError("coalition contains unknown player ids")
    need = cfg.k + cfg.c
    if len(players) < need:
        raise InsufficientSharesError(f"coalition of {len(players)} below threshold {need}")

    holder_set = set(players)
    b = VertexSet.from_iterable(g.n, (q for q in range(g.n) if t.qubit_holders[q] in holder_set))
    d, c_wit = (s.mask for s in access.reconstruction_witnesses(g, a, b))
    # both steps act on the coalition's qubits only: D u Odd(D), then C u (Odd(C) xor A)
    odd_d, w = odd_mask(g, d), odd_mask(g, c_wit) ^ a.mask
    for step, support in (("a (extraction)", d | odd_d), ("b (correction)", c_wit | w)):
        outside = list(bits(support & ~b.mask))
        if outside:
            raise LocalityError(f"step {step} would act on qubits {outside} outside the coalition")

    t.log.append(f"step a: extract with D={list(bits(d))} on qubits {list(bits(b.mask))}")
    # U_D puts X^x Z^z|G> on ancilla 1 when X^x Z^z anticommutes with K_D = X^D Z^Odd(D)
    c0, c1 = t.register
    branches = [
        (coef, x, z, ((x & odd_d).bit_count() + (z & d).bit_count()) & 1)
        for coef, x, z in ((c0, 0, 0), (c1, 0, a.mask))
    ]
    on_ancilla_0 = [br for br in branches if not br[3]]
    _check_on_graph_state(g, on_ancilla_0, "register is not a superposition of encoded graph states")

    t.log.append(f"step b: correct with C={list(bits(c_wit))}")
    # V_C = (-1)^e(C) X^C Z^w on ancilla 1; moving Z^w past X^x signs by (-1)^|w & x|
    flip = edge_parity(g, c_wit)
    for i, (coef, x, z, anc) in enumerate(branches):
        if anc:
            sign = (flip + (w & x).bit_count()) & 1
            branches[i] = (-coef if sign else coef, x ^ c_wit, z ^ w, 1)
    _check_on_graph_state(g, branches, "ancilla failed to disentangle from the graph register")

    b_x, b_z = shamir.unpack_pad(shamir.reconstruct([t.shares[p] for p in players], need))
    amps = [0, 0]  # <G|X^x Z^Odd(x)|G> = (-1)^e(x), the sign of K_x
    for coef, x, _, anc in branches:
        amps[anc] += -coef if edge_parity(g, x) else coef
    # undo _pad: swap back, then unsign beta
    amp0, amp1 = amps[::-1] if b_x else amps
    if b_z:
        amp1 = -amp1
    alpha, beta = t.secret
    fidelity = float(abs(alpha.conjugate() * amp0 + beta.conjugate() * amp1) ** 2)
    t.log.append(f"step c: pad bits ({b_x}, {b_z}) from {need} shares")
    t.log.append(f"ancilla at player {players[0]}: fidelity={fidelity:.12f}")
    return RecoveredSecret(amp0, amp1, fidelity)


def privacy_probe(
    cfg: ProtocolConfig,
    secrets: tuple[tuple[complex, complex], tuple[complex, complex]],
) -> float:
    """Largest trace distance any sub-threshold coalition sees between secrets.

    Each view is a set of min(n, k + c - 1) qubits: a team of k + c - 1
    players, the largest below threshold, can hold any such set whoever the
    holders are.  The view's quantum state is averaged over the four equally
    likely pad values; with a perfect pad the two averages coincide (the
    classical shares below threshold carry no information by themselves,
    which the share-level tests check).  Smaller views need no check: each
    lies inside a maximal one, and trace distance cannot grow under the
    partial trace that takes the larger view to the smaller.
    """
    g, a = cfg.graph, cfg.access_set
    pair = quantum._encoded_pair(g, a)
    views = [
        (sign / 4.0, quantum._superpose(pair, *_pad(alpha, beta, b_x, b_z)))
        for sign, (alpha, beta) in zip((1.0, -1.0), secrets)
        for b_x in (0, 1)
        for b_z in (0, 1)
    ]
    size = min(g.n, cfg.k + cfg.c - 1)
    return max(
        quantum.trace_norm(views, VertexSet.from_iterable(g.n, qubits))
        for qubits in combinations(range(g.n), size)
    )


def serialize_transcript(t: Transcript, recovered: Optional[RecoveredSecret] = None) -> dict:
    """JSON-shaped view: pad, assignment, shares, step log, final fidelity."""
    doc = {
        "n": t.config.graph.n,
        "players": t.config.players,
        "k": t.config.k,
        "c": t.config.c,
        "seed": t.config.seed,
        "access_set": list(t.config.access_set.members()),
        "pad": list(t.pad),
        "qubit_holders": list(t.qubit_holders),
        "shares": [[s.index, s.value] for s in t.shares],
        "log": list(t.log),
    }
    if recovered is not None:
        # adding 0.0 prints a zero part as 0.0, never as -0.0
        doc["recovered"] = [
            part + 0.0 for amp in (recovered.alpha, recovered.beta) for part in (amp.real, amp.imag)
        ]
        doc["fidelity"] = recovered.fidelity
    return doc
