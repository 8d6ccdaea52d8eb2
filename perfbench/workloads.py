"""The benchmark's workloads: seeded inputs, the operations of one pass,
and a check of every output that does not reuse the code path it checks.

Every operation is a closed-loop call from one client: a ``qss`` command
run in-process through ``cli.run`` (stdout captured, graphs that are not
named families fed on stdin as edge lists), or ``protocol.privacy_probe``,
which has no command.  Names are looked up on the modules at call time, so
a traced run sees the wrapped functions.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Optional

from graphqss import access, cli, graphs, protocol

FIDELITY_ATOL = 1e-9
PROBE_ZERO = 1e-10


@dataclass
class Op:
    """One request: a CLI argv (with optional stdin), or a privacy probe."""

    kind: str
    argv: Optional[list[str]] = None
    stdin: Optional[str] = None
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    op: Op
    seconds: float
    code: Optional[int] = None
    out: str = ""
    value: object = None
    error: Optional[str] = None


def call_cli(argv: list[str], stdin: Optional[str] = None) -> tuple[int, str]:
    buf = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(buf):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def run_op(op: Op, clock) -> Outcome:
    """Execute one operation; an exception becomes a failed outcome."""
    t0 = clock()
    try:
        if op.argv is not None:
            code, out = call_cli(op.argv, op.stdin)
            return Outcome(op, clock() - t0, code=code, out=out)
        value = protocol.privacy_probe(op.meta["config"], op.meta["secrets"])
        return Outcome(op, clock() - t0, value=value)
    except Exception as exc:  # counted as a failed operation, run continues
        return Outcome(op, clock() - t0, error=f"{type(exc).__name__}: {exc}")


# -- independent GF(2) facts, by brute force over adjacency bitmasks ----------


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _odd(adj: tuple[int, ...], mask: int) -> int:
    acc = 0
    for v in _members(mask):
        acc ^= adj[v]
    return acc


def _subsets_with_odd(adj: tuple[int, ...], mask: int):
    """Every non-empty subset X of mask with its odd neighbourhood (Gray code)."""
    bits = _members(mask)
    x = odd = 0
    for i in range(1, 1 << len(bits)):
        v = bits[(i & -i).bit_length() - 1]
        x ^= 1 << v
        odd ^= adj[v]
        yield x, odd


def _accessing(adj, a: int, b: int) -> bool:
    """Some D inside b has its odd neighbourhood inside b and |D & a| odd."""
    return any(odd & ~b == 0 and (d & a).bit_count() % 2 for d, odd in _subsets_with_odd(adj, b))


def _blind(adj, full: int, a: int, b: int) -> bool:
    """Some C outside b has Odd(C) & b == a & b (C empty when a & b is empty)."""
    if a & b == 0:
        return True
    return any(odd & b == a & b for _, odd in _subsets_with_odd(adj, full & ~b))


class Workload:
    name = ""
    # whether a pass runs on one thread only; such a run is pinned to one CPU
    one_thread = True
    ops: list[Op]
    run_op = staticmethod(run_op)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        pass

    def work(self, outcomes: list[Outcome]) -> int:
        return len(outcomes)

    def check(self, oc: Outcome) -> Optional[str]:
        """None when the outcome is correct, else the reason it is not."""
        raise NotImplementedError


def _load(oc: Outcome) -> dict:
    return json.loads(oc.out)


# -- search_n6 -----------------------------------------------------------------


class SearchN6(Workload):
    """``search --n 6``: every labelled 6-vertex graph; no randomness."""

    name = "search_n6"
    GRAPHS = 1 << 15
    # recorded at the commit that introduced this benchmark
    HISTOGRAM = {"4": 360, "5": 21770, "6": 10638}
    MIN_K_STAR = 4
    ATTAINERS = 360

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ops = [Op("search", ["--json", "search", "--n", "6"])]

    def warm_up(self) -> None:
        call_cli(["--json", "search", "--n", "4"])

    def work(self, outcomes: list[Outcome]) -> int:
        return sum(_load(oc)["graphs"] for oc in outcomes if oc.code == 0)

    def check(self, oc: Outcome) -> Optional[str]:
        if oc.code != 0:
            return f"exit code {oc.code}"
        doc = _load(oc)
        hist = doc["k_star_histogram"]
        if doc["graphs"] != self.GRAPHS or sum(hist.values()) != self.GRAPHS:
            return f"graphs {doc['graphs']}, histogram total {sum(hist.values())}"
        if hist != self.HISTOGRAM or doc["min_k_star"] != self.MIN_K_STAR:
            return f"histogram {hist}, min_k_star {doc['min_k_star']}"
        attainers = doc["attainers_graph6"]
        if doc["attainer_count"] != self.ATTAINERS or len(set(attainers)) != self.ATTAINERS:
            return f"attainer_count {doc['attainer_count']}, distinct {len(set(attainers))}"
        return None


# -- coalition_requests --------------------------------------------------------


@dataclass(frozen=True)
class _Instance:
    label: str
    n: int
    adj: tuple[int, ...]
    k_star: int
    source: tuple[str, ...]
    stdin: Optional[str]


class CoalitionRequests(Workload):
    """A shuffled stream of ``classify``, ``witness``, ``simulate`` and
    ``protocol-run`` requests in equal shares, then three privacy probes."""

    name = "coalition_requests"
    one_thread = False  # OpenBLAS threads
    KINDS = ("classify", "witness", "simulate", "protocol-run")
    CYCLES = (5, 7, 9)
    # G(n, 1/2) graphs are redrawn until k* is the most common value for n,
    # so every seed has the same coalition sizes and comparable work
    RANDOM_K_STAR = {8: 7, 9: 8, 10: 8}
    PER_SIZE = 4  # requests per (graph, kind, coalition size)
    PROBES = ((5, 3, 2), (7, 5, 1), (9, 7, 0))  # (cycle n, k, c)
    PROBE_SECRETS = ((1.0, 0.0), (0.0, 1.0))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.instances: list[_Instance] = []
        for n in self.CYCLES:
            g = graphs.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            k = access.qstar_threshold(g, jobs=1).k_star
            self.instances.append(_Instance(f"C{n}", n, g.adj, k, ("--family", "cycle", "--n", str(n)), None))
        for n, target in self.RANDOM_K_STAR.items():
            while True:
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
                g = graphs.Graph.from_edges(n, edges)
                if access.qstar_threshold(g, jobs=1).k_star == target:
                    break
            text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            self.instances.append(_Instance(f"G{n}", n, g.adj, target, ("--graph", "-"), text))

        ops = []
        for inst in self.instances:
            for kind in self.KINDS:
                for size in range(inst.k_star - 1, inst.n + 1):
                    for _ in range(self.PER_SIZE):
                        b = sorted(rng.sample(range(inst.n), size))
                        ops.append(self._request(inst, kind, b, rng.randrange(1 << 30)))
        rng.shuffle(ops)
        for n, k, c in self.PROBES:
            g = graphs.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            cfg = protocol.ProtocolConfig(g, graphs.VertexSet.full(n), k, c=c, seed=rng.randrange(1 << 30))
            ops.append(Op("probe", meta={"config": cfg, "secrets": self.PROBE_SECRETS, "label": f"C{n}/k{k}/c{c}"}))
        self.ops = ops
        self._facts: dict[tuple[str, int], tuple[bool, bool]] = {}

    def _request(self, inst: _Instance, kind: str, b: list[int], proto_seed: int) -> Op:
        members = ",".join(map(str, b))
        argv = ["--json", kind, *inst.source]
        if kind == "protocol-run":
            argv += ["--k", str(inst.k_star), "--coalition", members, "--seed", str(proto_seed)]
        else:
            argv += ["--B", members]
        return Op(kind, argv, inst.stdin, {"instance": inst, "B": _mask(b)})

    def warm_up(self) -> None:
        """One request of each kind per graph at a k*-sized coalition.

        This fills the deal-validation cache, starts the BLAS thread pool
        (simulate on 8 kept qubits) and runs one small privacy probe.
        """
        for inst in self.instances:
            b = list(range(inst.k_star))
            for kind in self.KINDS:
                op = self._request(inst, kind, b, 0)
                call_cli(op.argv, op.stdin)
        probe = next(op for op in self.ops if op.kind == "probe")
        protocol.privacy_probe(probe.meta["config"], probe.meta["secrets"])

    def _verdicts(self, inst: _Instance, b: int) -> tuple[bool, bool]:
        """(classical accessing, quantum accessing) for coalition b, A = V."""
        key = (inst.label, b)
        if key not in self._facts:
            full = (1 << inst.n) - 1
            a = full
            acc = _accessing(inst.adj, a, b)
            if acc == _blind(inst.adj, full, a, b):
                raise RuntimeError(f"{inst.label} B={_members(b)}: accessing == blind")
            bbar = full & ~b
            q_acc = acc and _blind(inst.adj, full, a, bbar)
            self._facts[key] = (acc, q_acc)
        return self._facts[key]

    def _q_verdict(self, inst: _Instance, b: int) -> str:
        full = (1 << inst.n) - 1
        if self._verdicts(inst, b)[1]:
            return "QAccessing"
        if self._verdicts(inst, full & ~b)[1]:
            return "QBlind"
        return "Partial"

    def check(self, oc: Outcome) -> Optional[str]:
        op = oc.op
        if op.kind == "probe":
            if oc.value is None or not oc.value < PROBE_ZERO:
                return f"probe {op.meta['label']}: {oc.value}"
            return None
        if oc.code not in (0, 1):
            return f"exit code {oc.code}"
        doc = _load(oc)
        inst, b = op.meta["instance"], op.meta["B"]
        a = full = (1 << inst.n) - 1
        if op.kind == "protocol-run":
            authorized = b.bit_count() >= inst.k_star
            if authorized:
                if oc.code != 0 or not doc.get("fidelity", 0.0) >= 1.0 - FIDELITY_ATOL:
                    return f"{inst.label} {_members(b)}: fidelity {doc.get('fidelity')}, exit {oc.code}"
            elif oc.code != 1 or "error" not in doc:
                return f"{inst.label} {_members(b)}: sub-threshold coalition not refused"
            return None
        acc, q_acc = self._verdicts(inst, b)
        if op.kind == "simulate":
            expected = "Accessing" if acc else "Blind"
            if doc["oracle_verdict"] != expected or (oc.code == 0) != acc:
                return f"{inst.label} {_members(b)}: oracle {doc['oracle_verdict']}, classical {expected}"
            return None
        if op.kind == "witness":
            if (oc.code == 0) != q_acc or doc["q_accessing"] != q_acc:
                return f"{inst.label} {_members(b)}: witness exit {oc.code}, QAccessing {q_acc}"
            if q_acc:
                d, c = _mask(doc["D"]), _mask(doc["C"])
                bbar = full & ~b
                if d & ~b or _odd(inst.adj, d) & ~b or not (d & a).bit_count() % 2:
                    return f"{inst.label} {_members(b)}: invalid D {doc['D']}"
                if c & ~b or _odd(inst.adj, c) & bbar != a & bbar:
                    return f"{inst.label} {_members(b)}: invalid C {doc['C']}"
            return None
        # classify
        q = self._q_verdict(inst, b)
        want = ("Accessing" if acc else "Blind", q, 1 if acc else 0)
        got = (doc["c_verdict"], doc["q_verdict"], doc["rank_residual"])
        if got != want or (oc.code == 0) != (q == "QAccessing"):
            return f"{inst.label} {_members(b)}: classify {got}, expected {want}"
        if acc:
            d = _mask(doc["witness_D"] or [])
            if not d or d & ~b or _odd(inst.adj, d) & ~b or not (d & a).bit_count() % 2:
                return f"{inst.label} {_members(b)}: invalid witness_D {doc['witness_D']}"
        else:
            c = _mask(doc["witness_C"] or [])
            if c & b or _odd(inst.adj, c) & b != a & b:
                return f"{inst.label} {_members(b)}: invalid witness_C {doc['witness_C']}"
        return None


# -- min_k_bounds --------------------------------------------------------------


def _counting_holds(n: int, ks: tuple[int, ...]) -> dict[int, bool]:
    """The counting inequality at each k, with binomials built by recurrence
    (a separate route from ``bounds``, which calls ``math.comb`` per term)."""
    uppers = {k: (2 * (n - k + 1)) // 3 for k in ks}
    prefix_at = {}
    c, total = 1, 0
    for i in range(1, max(uppers.values()) + 1):
        c = c * (n - i + 1) // i
        total += c
        prefix_at[i] = total
    out = {}
    for k in ks:
        j = 2 * k - n - 1
        small = math.comb(k - 1, j) if 0 <= j <= k - 1 else 0
        out[k] = math.comb(n, k) <= 2 * prefix_at.get(uppers[k], 0) * small
    return out


class MinKBounds(Workload):
    """``bound --min-k`` near n = 10^4, 2*10^4, 3*10^4, then
    ``bound --pure-qss --max-k 400``; the seed offsets each n by < 100."""

    name = "min_k_bounds"
    BASE_N = (10_000, 20_000, 30_000)
    PURE_MAX_K = 400
    LARGEST_HOLDING_N = 23

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.ns = tuple(n + (rng.randrange(100) if seed else 0) for n in self.BASE_N)
        self.ops = [Op("bound-min-k", ["--json", "bound", "--min-k", "--n", str(n)]) for n in self.ns]
        self.ops.append(Op("bound-pure-qss", ["--json", "bound", "--pure-qss", "--max-k", str(self.PURE_MAX_K)]))
        self._holds: dict[tuple[int, int], bool] = {}

    def warm_up(self) -> None:
        call_cli(["--json", "bound", "--min-k", "--n", "101"])
        call_cli(["--json", "bound", "--n", "10", "--k", "6"])
        call_cli(["--json", "bound", "--pure-qss", "--max-k", "10"])

    def work(self, outcomes: list[Outcome]) -> int:
        """Values of k at which the inequality was evaluated."""
        total = 0
        for oc in outcomes:
            if oc.code != 0:
                continue
            doc = _load(oc)
            total += len(doc["rows"]) if "rows" in doc else doc["min_feasible_k"] - doc["n"] // 2
        return total

    def _holds_at(self, n: int, *ks: int) -> list[bool]:
        missing = tuple(k for k in ks if (n, k) not in self._holds)
        if missing:
            for k, ok in _counting_holds(n, missing).items():
                self._holds[(n, k)] = ok
        return [self._holds[(n, k)] for k in ks]

    def check(self, oc: Outcome) -> Optional[str]:
        if oc.code != 0:
            return f"exit code {oc.code}"
        doc = _load(oc)
        if "rows" in doc:
            rows = doc["rows"]
            if len(rows) != self.PURE_MAX_K or doc["largest_holding_n"] != self.LARGEST_HOLDING_N:
                return f"{len(rows)} rows, largest_holding_n {doc['largest_holding_n']}"
            for k, n, ok in rows:
                if n != 2 * k - 1 or [ok] != self._holds_at(n, k):
                    return f"pure-qss row {[k, n, ok]}"
            return None
        n, k = doc["n"], doc["min_feasible_k"]
        if k <= n // 2 or doc["ratio"] != k / n:
            return f"n={n}: k={k}, ratio {doc['ratio']}"
        if n == 10_000 and k != 5065:
            return f"n=10000: k={k} != 5065"
        if k - 1 > n // 2:
            at_k, below = self._holds_at(n, k, k - 1)
        else:
            at_k, below = self._holds_at(n, k)[0], False
        if not at_k or below:
            return f"n={n}: inequality at k={k} {at_k}, at k-1 {below}"
        return None


WORKLOADS = {w.name: w for w in (SearchN6, CoalitionRequests, MinKBounds)}
