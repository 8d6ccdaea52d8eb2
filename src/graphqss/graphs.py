"""Simple graphs over GF(2): bitmask adjacency, transforms, products, formats.

Vertices are labelled 0..n-1.  The adjacency matrix is stored as one int
bitmask per vertex (bit j of row i = edge i-j), which makes the odd
neighborhood a fold of XORs and keeps coalition scans allocation-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import GraphParseError, ResourceLimitError

DEFAULT_SEED = 0

_MAX_GRAPH6_N = 258047  # 3-byte graph6 size form; the cap for both text formats
FAMILY_VERTEX_LIMIT = 3125  # every generated graph: family() and c5_power()


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    if mask < 0:
        raise ValueError("mask must be >= 0")  # a negative int never runs out of bits
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """Subset of 0..universe-1 with bitmask semantics."""

    universe: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.universe < 0:
            raise ValueError("universe must be >= 0")
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError("member outside 0..universe-1")

    @classmethod
    def from_iterable(cls, universe: int, members: Iterable[int]) -> VertexSet:
        mask = 0
        for v in members:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: int) -> VertexSet:
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: int) -> VertexSet:
        return cls(universe, (1 << universe) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def complement(self) -> VertexSet:
        return VertexSet(self.universe, self.mask ^ ((1 << self.universe) - 1))

    def is_subset_of(self, other: VertexSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def _check(self, other: VertexSet) -> None:
        if self.universe != other.universe:
            raise ValueError("vertex sets over different universes")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.mask >> v) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.universe, self.mask & other.mask)

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.universe, self.mask | other.mask)

    def __xor__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.universe, self.mask ^ other.mask)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.universe, self.mask & ~other.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.universe}, {{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[i]`` is the neighbor bitmask of i."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count != n")
        lower = [0] * self.n  # lower[j]: the i < j whose row has j, from the upper triangle
        for i, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                self._refuse_asymmetry(i)
                raise ValueError(f"adjacency row {i} has out-of-range bits")
            m = row >> i
            if m & 1:
                self._refuse_asymmetry(i)
                raise ValueError(f"self-loop at vertex {i}")
            bit = 1 << i if m else 0  # no i-bit int for a row with no upper bits
            while m:  # inline, not bits(): this loop runs for every graph built
                low = m & -m
                m ^= low
                lower[i + low.bit_length() - 1] |= bit
        for j, row in enumerate(self.adj):
            if row ^ (row >> j << j) != lower[j]:  # no j-bit mask: O(1) on an empty row
                self._refuse_asymmetry(self.n)

    def _refuse_asymmetry(self, rows: int) -> None:
        """Raise for the first (i, j), i < rows, whose row i has j but row j lacks i."""
        for i in range(rows):
            for j in bits(self.adj[i]):
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, (0,) * n)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        return ((u, v) for u in range(self.n) for v in bits(self.adj[u] >> (u + 1) << (u + 1)))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def vertices(self) -> VertexSet:
        return VertexSet.full(self.n)


def odd_mask(g: Graph, mask: int) -> int:
    """Odd(mask): the vertices with an odd number of neighbors in mask, as a
    bitmask; one XOR of adjacency rows per member, GF(2)-linear in mask."""
    acc = 0
    for v in bits(mask):
        acc ^= g.adj[v]
    return acc


def odd_neighborhood(g: Graph, d: VertexSet) -> VertexSet:
    """``odd_mask`` on a vertex set of g."""
    if d.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    return VertexSet(g.n, odd_mask(g, d.mask))


def edge_parity(g: Graph, mask: int) -> int:
    """Parity of the edges inside mask: the sign bit of K_mask, and of |G> at basis string mask."""
    total = 0
    for v in bits(mask):
        total += (g.adj[v] & mask).bit_count()
    return (total // 2) & 1


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((row ^ full) & ~(1 << i) for i, row in enumerate(g.adj)))


def delta_complement(g: Graph, a: VertexSet) -> Graph:
    """Complement exactly the edges with both endpoints in ``a``."""
    if a.universe != g.n:
        raise ValueError("vertex set universe != graph order")
    adj = list(g.adj)
    for i in bits(a.mask):
        adj[i] ^= a.mask & ~(1 << i)
    return Graph(g.n, tuple(adj))


def lexicographic_product(g1: Graph, g2: Graph) -> Graph:
    """Substitute a copy of g2 for every vertex of g1.

    Vertex (u1, u2) maps to u1 * n2 + u2.  Edges: (u1,u2)-(v1,v2) iff u1-v1
    is an edge of g1, or u1 = v1 and u2-v2 is an edge of g2.
    """
    n1, n2 = g1.n, g2.n
    block = (1 << n2) - 1
    adj = []
    for u1 in range(n1):
        cross = 0
        for v1 in bits(g1.adj[u1]):
            cross |= block << (v1 * n2)
        for u2 in range(n2):
            adj.append(cross | (g2.adj[u2] << (u1 * n2)))
    return Graph(n1 * n2, tuple(adj))


def c5_power_order(i: int) -> int:
    """Vertex count 5**i of ``c5_power(i)``, after every check it makes
    before building anything."""
    if i < 1:
        raise ValueError("power must be >= 1")
    # 5**b > 2**b > the cap for b its bit length, so clipping the exponent
    # refuses a huge i without building 5**i
    if 5 ** min(i, FAMILY_VERTEX_LIMIT.bit_length()) > FAMILY_VERTEX_LIMIT:
        raise ResourceLimitError(f"5**{i} vertices exceeds cap {FAMILY_VERTEX_LIMIT}")
    return 5**i


def c5_power(i: int) -> Graph:
    """Iterated lexicographic power of the 5-cycle; 5**i vertices."""
    c5_power_order(i)
    g = family("cycle", 5)
    out = g
    for _ in range(i - 1):
        out = lexicographic_product(g, out)
    return out


_FAMILIES = ("cycle", "complete", "path", "random")


def family_order(kind: str, n: int, p: Optional[float] = None) -> int:
    """Vertex count n of ``family(kind, n, p)``, after every check it makes
    before building any edge list."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FAMILY_VERTEX_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds generated-graph cap {FAMILY_VERTEX_LIMIT}")
    if kind == "random" and (p is None or not 0.0 <= p <= 1.0):
        raise ValueError("random family needs edge probability p in [0, 1]")
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}")
    return n


def family(kind: str, n: int, p: Optional[float] = None, seed: Optional[int] = None) -> Graph:
    """Named graph families; deterministic for a fixed seed.

    cycle(1) is a single vertex and cycle(2) a single edge (simple graphs
    cannot carry a doubled 2-cycle).  Refuses n beyond ``FAMILY_VERTEX_LIMIT``
    before building any edge list.
    """
    family_order(kind, n, p)
    if kind == "cycle":
        if n <= 2:
            return family("path", n)
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    # family_order has refused every other kind
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- text formats --------------------------------------------------------------


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "graph6":
        return _parse_graph6(text.strip())
    raise ValueError(f"unknown format {fmt!r}")


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        lines = [str(g.n)]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return _to_graph6(g)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_edgelist(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("line 1: missing vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise GraphParseError(f"line 1: vertex count is not an integer: {lines[0]!r}") from None
    if not 0 <= n <= _MAX_GRAPH6_N:
        raise GraphParseError(f"line 1: vertex count must be in 0..{_MAX_GRAPH6_N}")
    adj = [0] * n
    for ln, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {ln}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {ln}: non-integer vertex in {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {ln}: vertex outside 0..{n - 1}")
        if u == v:
            raise GraphParseError(f"line {ln}: self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _graph6_header(n: int) -> str:
    if n > _MAX_GRAPH6_N:
        raise ValueError(f"graph6 emitter supports n <= {_MAX_GRAPH6_N}")
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def _to_graph6(g: Graph) -> str:
    head = _graph6_header(g.n)
    # column j is pairs (0, j) .. (j - 1, j): the low j bits of adj[j], reversed
    stream = "".join(f"{g.adj[j] & ((1 << j) - 1):0{j}b}"[::-1] for j in range(1, g.n))
    stream += "0" * (-len(stream) % 6)
    return head + "".join(chr(int(stream[k : k + 6], 2) + 63) for k in range(0, len(stream), 6))


def _parse_graph6(text: str) -> Graph:
    if not text:
        raise GraphParseError("empty graph6 string")
    data = [ord(ch) - 63 for ch in text]
    for pos, val in enumerate(data):
        if not 0 <= val <= 63:
            raise GraphParseError(f"position {pos + 1}: invalid graph6 byte {text[pos]!r}")
    if data[0] == 63:  # '~': multi-byte vertex count
        if len(data) < 4:
            raise GraphParseError("truncated graph6 vertex count")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        if n > _MAX_GRAPH6_N:  # every header whose second byte is also '~'
            raise GraphParseError(f"graph6 vertex count must be in 0..{_MAX_GRAPH6_N}")
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6} for n={n}"
        )
    stream = "".join(f"{val:06b}" for val in body)
    if "1" in stream[nbits:]:
        raise GraphParseError("graph6 padding bits are not zero")
    adj = [0] * n
    for j in range(1, n):
        start = j * (j - 1) // 2
        adj[j] = int(stream[start : start + j][::-1], 2)  # later columns set the high bits
        for i in bits(adj[j]):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj))
