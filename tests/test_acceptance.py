"""Acceptance suite: one test per criterion, one pass line per criterion.

Each test pins the tolerances and runtime budgets it must meet; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import random
import time
from math import comb

import pytest

from graphqss import access, bounds, quantum
from graphqss.access import (
    CVerdict,
    QVerdict,
    access_report,
    edge_mask_graph,
    exhaustive_graph_search,
    q_accessing,
    qstar_threshold,
    small_witness,
)
from graphqss.graphs import (
    VertexSet,
    c5_power,
    complement,
    delta_complement,
    family,
    odd_neighborhood,
    parse_graph,
    serialize_graph,
)
from graphqss.protocol import ProtocolConfig, deal, privacy_probe, reconstruct
from graphqss.quantum import encode_classical
from helpers import (
    all_graphs,
    brute_accessing_witness,
    brute_blind_witness,
    is_isomorphic,
    overlap,
    reduced_density,
    trace_distance,
)

C5 = family("cycle", 5)
A5 = VertexSet.full(5)

ZERO_TOL = 1e-10
FIDELITY_TOL = 1e-9


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_c5_threshold():
    t0 = time.perf_counter()
    rep = qstar_threshold(C5, A5)
    assert rep.k_star == 3
    for team in itertools.combinations(range(5), 3):
        assert access_report(C5, A5, VertexSet.from_iterable(5, team)).q_verdict is QVerdict.Q_ACCESSING
    for team in itertools.combinations(range(5), 2):
        assert access_report(C5, A5, VertexSet.from_iterable(5, team)).q_verdict is QVerdict.Q_BLIND
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"C5 realizes ((3,5)); 3-sets accessing, 2-sets blind ({elapsed:.3f}s)")


def test_criterion_02_complete_graph_structure():
    t0 = time.perf_counter()
    for n in range(3, 7):
        kn = family("complete", n)
        a = VertexSet.full(n)
        for mask in range(1 << n):
            b = VertexSet(n, mask)
            verdict = access_report(kn, a, b).q_verdict
            if mask == (1 << n) - 1:
                assert verdict is QVerdict.Q_ACCESSING
            elif mask == 0:
                assert verdict is QVerdict.Q_BLIND
            else:
                assert verdict is QVerdict.PARTIAL
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"K_3..K_6: only the full set accesses, proper sets partial ({elapsed:.3f}s)")


def test_criterion_03_product_threshold():
    t0 = time.perf_counter()
    g = c5_power(2)
    rep = qstar_threshold(g)
    elapsed = time.perf_counter() - t0
    assert rep.k_star == 17
    # C(25, 17) is the canonical tally of the passing size: the distance walk
    # proves every size-17 coalition accessing without scanning them
    assert rep.sets_checked >= comb(25, 17)
    cert = rep.certificate_fail
    assert len(cert) == 16
    assert not q_accessing(g, VertexSet.full(25), cert)
    assert cert.members() == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 20, 21)
    assert elapsed < 20.0
    report(
        3,
        f"C5*C5: all {comb(25, 17):,} 17-sets access, 16-set certificate "
        f"{list(cert.members())} fails ({elapsed:.1f}s)",
    )


def test_criterion_04_oracle_equivalence():
    checked = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for amask in range(1, 1 << n):
                a = VertexSet(n, amask)
                g0 = encode_classical(g, a, 0)
                g1 = encode_classical(g, a, 1)
                for bmask in range(1 << n):
                    b = VertexSet(n, bmask)
                    verdict = access_report(g, a, b).c_verdict
                    r0 = reduced_density(g0, b)
                    r1 = reduced_density(g1, b)
                    ov = overlap(r0, r1)
                    dist = trace_distance(r0, r1)
                    assert (ov < ZERO_TOL) == (verdict is CVerdict.ACCESSING)
                    assert (dist < ZERO_TOL) == (verdict is CVerdict.BLIND)
                    checked += 1
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = family("random", n, p=rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6))
        a = VertexSet(n, rng.randrange(1, 1 << n))
        b = VertexSet(n, rng.randrange(1 << n))
        verdict = access_report(g, a, b).c_verdict
        ov, dist = quantum.distinguishability(g, a, b)
        assert (ov < ZERO_TOL) == (verdict is CVerdict.ACCESSING)
        assert (dist < ZERO_TOL) == (verdict is CVerdict.BLIND)
        checked += 1
    report(4, f"combinatorial verdicts match the density-matrix oracle on {checked:,} cases")


def test_criterion_05_partition_property():
    rng = random.Random(505)
    brute_checked = 0
    for i in range(10_000):
        n = rng.randint(2, 12)
        g = family("random", n, p=rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(10**6))
        a = VertexSet(n, rng.randrange(1, 1 << n))
        b = VertexSet(n, rng.randrange(1 << n))
        # the span test alone: the rank residual, 1 exactly when accessing
        residual = int(access._accessing(g.adj, a.mask, b.mask, (1 << n) - 1))
        rep = access_report(g, a, b)
        verdict, witness = rep.c_verdict, rep.witness
        assert (verdict is CVerdict.ACCESSING) == (residual == 1)
        if verdict is CVerdict.ACCESSING:
            assert odd_neighborhood(g, witness).is_subset_of(b)
            assert len(witness & a) % 2 == 1
        else:
            assert (odd_neighborhood(g, witness) & b) == (a & b)
        if n <= 8 and brute_checked < 1500:
            d = brute_accessing_witness(g, a, b)
            c = brute_blind_witness(g, a, b)
            assert (d is None) != (c is None)
            assert (d is not None) == (residual == 1)
            brute_checked += 1
    report(
        5,
        "10,000 random coalitions: exactly one witness type, rank residual "
        f"predicts it (brute-force cross-check on {brute_checked})",
    )


def _battery_n5_to_n7():
    graphs = [family(kind, n) for kind in ("cycle", "complete", "path") for n in (5, 6, 7)]
    graphs.append(complement(family("cycle", 5)))
    rng = random.Random(606)
    for _ in range(30):
        n = rng.randint(5, 7)
        graphs.append(family("random", n, p=rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6)))
    return graphs, rng


def test_criterion_06_equivalences():
    def c_accessing(g, a, b):
        return access_report(g, a, b).c_verdict is CVerdict.ACCESSING

    cases = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for amask in range(1, 1 << n):
                a = VertexSet(n, amask)
                ga = delta_complement(g, a)
                for bmask in range(1 << n):
                    b = VertexSet(n, bmask)
                    lhs = q_accessing(g, a, b)
                    assert lhs == (c_accessing(g, a, b) and c_accessing(ga, a, b))
                    assert lhs == q_accessing(ga, a, b)
                    cases += 1

    graphs, rng = _battery_n5_to_n7()
    for g in graphs:
        n = g.n
        a_sets = [VertexSet.full(n)] + [VertexSet(n, rng.randrange(1, 1 << n)) for _ in range(3)]
        for a in a_sets:
            ga = delta_complement(g, a)
            for bmask in range(1 << n):
                b = VertexSet(n, bmask)
                lhs = q_accessing(g, a, b)
                assert lhs == (c_accessing(g, a, b) and c_accessing(ga, a, b))
                assert lhs == q_accessing(ga, a, b)
                cases += 1
        # complement law at A = V
        full = VertexSet.full(n)
        cg = complement(g)
        for bmask in range(1 << n):
            b = VertexSet(n, bmask)
            assert q_accessing(g, full, b) == q_accessing(cg, full, b)
            cases += 1
    report(6, f"quantum access = classical access in both framings on {cases:,} cases")


def test_criterion_07_end_to_end_protocol():
    t0 = time.perf_counter()
    rng = random.Random(707)
    secrets = []
    for _ in range(20):
        alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
        secrets.append((alpha / norm, beta / norm))

    for c, coalition_size in ((0, 3), (2, 5)):
        players = 5 + c
        pad_seeds = {}
        for seed in range(64):
            cfg = ProtocolConfig(C5, A5, 3, c=c, seed=seed)
            t = deal(cfg, (1, 0))
            pad_seeds.setdefault(t.pad, seed)
            if len(pad_seeds) == 4:
                break
        assert len(pad_seeds) == 4
        for secret in secrets:
            for pad, seed in sorted(pad_seeds.items()):
                cfg = ProtocolConfig(C5, A5, 3, c=c, seed=seed)
                t = deal(cfg, secret)
                assert t.pad == pad
                for team in itertools.combinations(range(players), coalition_size):
                    rec = reconstruct(t, team)
                    assert rec.fidelity >= 1.0 - FIDELITY_TOL
        cfg = ProtocolConfig(C5, A5, 3, c=c, seed=pad_seeds[(0, 0)])
        assert privacy_probe(cfg, ((1, 0), (0, 1))) < ZERO_TOL
        assert privacy_probe(cfg, (secrets[0], secrets[1])) < ZERO_TOL
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        7,
        "((3,5)) and ((5,7)) runs: fidelity 1 for every authorized coalition, "
        f"pads and secrets; sub-threshold probes silent ({elapsed:.1f}s)",
    )


def test_criterion_08_small_witness_bound():
    for team in itertools.combinations(range(5), 3):
        x, kind = small_witness(C5, VertexSet.from_iterable(5, team))
        assert len(x) <= (2 * (5 - 3 + 1)) // 3
        assert kind in ("odd-wise-odd-size", "even-wise")
    g = c5_power(2)
    bound = (2 * (25 - 17 + 1)) // 3
    rng = random.Random(808)
    for _ in range(50):
        team = rng.sample(range(25), 17)
        b = VertexSet.from_iterable(25, team)
        x, kind = small_witness(g, b)
        assert len(x) <= bound
        odd = odd_neighborhood(g, x)
        if kind == "odd-wise-odd-size":
            assert len(x) % 2 == 1 and odd.is_subset_of(b)
        else:
            assert (odd & b.complement()) == b.complement()
    report(8, f"minimum parity witnesses within the 2/3(n-k+1) bound (<= {bound} on C5*C5)")


def test_criterion_09_bounds_module():
    r = bounds.counting_inequality(5, 3)
    assert (r.lhs, r.rhs, r.holds) == (10, 30, True)
    assert type(r.lhs) is int and type(r.rhs) is int

    k = bounds.min_feasible_k(10_000)
    assert 0.504 <= k / 10_000 <= 0.512

    rep = bounds.pure_qss_feasibility(100)
    assert rep.chain_k_max == 39 and rep.chain_n_max == 77
    assert rep.stated_cutoff_n == 79
    assert isinstance(rep.largest_holding_n, int)
    report(
        9,
        f"counting bound exact: (5,3)->(10,30); min k(10^4)={k}; "
        f"chain k<=39 => n<=77 vs stated 79 (exact scan tops at n={rep.largest_holding_n})",
    )


def test_criterion_10_exhaustive_five_vertex_search():
    t0 = time.perf_counter()
    search = exhaustive_graph_search(5)
    elapsed = time.perf_counter() - t0
    k_stars = search.k_stars.tolist()
    assert len(k_stars) == 1024
    best = min(k_stars)
    assert best == 3 == min(search.histogram)
    attainers = [edge_mask_graph(5, m) for m, k in enumerate(k_stars) if k == best]
    assert len(attainers) == 12
    assert search.attainers_graph6 == tuple(serialize_graph(g, "graph6") for g in attainers)
    assert all(is_isomorphic(parse_graph(text, "graph6"), C5) for text in search.attainers_graph6)
    assert elapsed < 10.0
    report(
        10,
        f"all 1024 labelled 5-vertex graphs: min threshold 3, attained by the "
        f"{len(attainers)} C5 labellings ({elapsed:.2f}s)",
    )
