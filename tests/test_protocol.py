import cmath
import itertools
import math
import random
import time

import numpy as np
import pytest

from graphqss import access, protocol, quantum
from graphqss.errors import InsufficientSharesError, LocalityError, ProtocolStateError, ResourceLimitError
from graphqss.graphs import VertexSet, family
from graphqss.protocol import (
    ProtocolConfig,
    deal,
    privacy_probe,
    reconstruct,
    serialize_transcript,
)
from graphqss.quantum import embed_secret, encode_classical, trace_norm
from helpers import DensityMatrix, dense_reconstruct, reduced_density, trace_distance

C5 = family("cycle", 5)
A5 = VertexSet.full(5)


def dense_register(t):
    """The dealt register c0|G> + c1 Z_A|G> as 2^n amplitudes."""
    g, a = t.config.graph, t.config.access_set
    c0, c1 = t.register
    return c0 * encode_classical(g, a, 0).amplitudes + c1 * encode_classical(g, a, 1).amplitudes


def seeds_for_all_pads(cfg_maker, want=4):
    """First seed producing each pad value; pads come from the seeded rng."""
    found = {}
    for seed in range(64):
        t = deal(cfg_maker(seed), (1, 0))
        found.setdefault(t.pad, seed)
        if len(found) == want:
            return found
    raise AssertionError("could not realize every pad value")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(C5, VertexSet.empty(5), 3)
        with pytest.raises(ValueError):
            ProtocolConfig(C5, A5, 0)
        with pytest.raises(ValueError):
            ProtocolConfig(C5, A5, 6)
        with pytest.raises(ValueError):
            ProtocolConfig(C5, A5, 3, c=-1)

    def test_infeasible_threshold_rejected_at_deal(self):
        cfg = ProtocolConfig(C5, A5, 2)  # some pair cannot reconstruct
        with pytest.raises(ValueError):
            deal(cfg, (1, 0))

    def test_unnormalized_secret_rejected(self):
        with pytest.raises(ValueError):
            deal(ProtocolConfig(C5, A5, 3), (0.9, 0.9))

    @pytest.mark.parametrize(
        "secret",
        # NaN, and squares past the float range, which must not raise OverflowError
        [
            (float("nan"), 1.0),
            (1.0, float("nan")),
            (1e155, 0.0),
            (0.0, 1e200),
            (1e308, 1e308),
            (complex(1.7e308, 1.7e308), 0.0),
        ],
    )
    def test_nan_secret_rejected(self, secret):
        with pytest.raises(ValueError, match="^secret amplitudes are not normalized$"):
            deal(ProtocolConfig(C5, A5, 3), secret)


class TestDeal:
    def test_identity_pad_matches_embedding(self):
        pads = seeds_for_all_pads(lambda s: ProtocolConfig(C5, A5, 3, seed=s))
        t = deal(ProtocolConfig(C5, A5, 3, seed=pads[(0, 0)]), (0.6, 0.8))
        assert np.allclose(dense_register(t), embed_secret(C5, A5, 0.6, 0.8).amplitudes, atol=1e-12)

    def test_x_pad_swaps_encodings(self):
        pads = seeds_for_all_pads(lambda s: ProtocolConfig(C5, A5, 3, seed=s))
        t = deal(ProtocolConfig(C5, A5, 3, seed=pads[(1, 0)]), (0.6, 0.8))
        g0 = encode_classical(C5, A5, 0).amplitudes
        g1 = encode_classical(C5, A5, 1).amplitudes
        assert np.allclose(dense_register(t), 0.6 * g1 + 0.8 * g0, atol=1e-12)

    def test_pad_average_hides_secret(self):
        # averaged over the four pads the register is (P_G0 + P_G1)/2
        g0 = encode_classical(C5, A5, 0).amplitudes
        g1 = encode_classical(C5, A5, 1).amplitudes
        expected = (np.outer(g0, g0.conj()) + np.outer(g1, g1.conj())) / 2
        for secret in [(1, 0), (0.6, 0.8), (0.6, 0.8j)]:
            pads = seeds_for_all_pads(lambda s: ProtocolConfig(C5, A5, 3, seed=s))
            acc = np.zeros((32, 32), dtype=complex)
            for seed in pads.values():
                t = deal(ProtocolConfig(C5, A5, 3, seed=seed), secret)
                register = dense_register(t)
                acc += np.outer(register, register.conj())
            assert np.abs(acc / 4 - expected).max() < 1e-10

    def test_transcript_is_reproducible(self):
        cfg = ProtocolConfig(C5, A5, 3, c=2, seed=21)
        t1, t2 = deal(cfg, (0.6, 0.8)), deal(cfg, (0.6, 0.8))
        assert t1.pad == t2.pad
        assert t1.qubit_holders == t2.qubit_holders
        assert t1.shares == t2.shares
        assert t1.register == t2.register

    def test_identity_assignment_without_extension(self):
        t = deal(ProtocolConfig(C5, A5, 3, seed=0), (1, 0))
        assert t.qubit_holders == (0, 1, 2, 3, 4)

    def test_enumeration_cap_replaces_qubit_cap(self, monkeypatch):
        # no register is built, so the 13-cycle is decided by its threshold
        # (k* = 11), and only the distance walk's cap refuses a graph
        g = family("cycle", 13)
        with pytest.raises(ValueError, match="some size-3 coalition cannot reconstruct"):
            deal(ProtocolConfig(g, VertexSet.full(13), 3), (0.6, 0.8))
        monkeypatch.setattr(access, "_distance", None)
        g = family("cycle", 27)
        with pytest.raises(ResourceLimitError, match="n=27 exceeds enumeration limit 26"):
            deal(ProtocolConfig(g, VertexSet.full(27), 3), (0.6, 0.8))

    def test_feasibility_scans_no_coalition(self, monkeypatch):
        # a deal on an uncached graph decides k >= k* from the distance walk
        # alone; the lexicographic scans only certify qstar_threshold's report
        def no_scan(*args):
            raise AssertionError("deal scanned coalitions")

        monkeypatch.setattr(access, "_q_accessing_masks", no_scan)
        protocol._threshold_feasible.cache_clear()
        deal(ProtocolConfig(C5, A5, 3), (0.6, 0.8))
        with pytest.raises(ValueError, match="some size-2 coalition cannot reconstruct"):
            deal(ProtocolConfig(C5, A5, 2), (0.6, 0.8))
        assert protocol._threshold_feasible.cache_info().misses == 1

    def test_one_distance_walk_per_graph_and_access_set(self, monkeypatch):
        # k* is cached per (G, A), so deals at k*, k* + 1 and k* + 2 share a walk
        walks = []
        distance = access._distance
        monkeypatch.setattr(access, "_distance", lambda *args: walks.append(args) or distance(*args))
        protocol._threshold_feasible.cache_clear()
        for k in (3, 4, 5):
            deal(ProtocolConfig(C5, A5, k), (0.6, 0.8))
        assert len(walks) == 1
        info = protocol._threshold_feasible.cache_info()
        assert (info.hits, info.misses) == (2, 1)


class TestReconstruct:
    def test_c5_all_minimal_coalitions(self):
        for seed in range(4):
            cfg = ProtocolConfig(C5, A5, 3, seed=seed)
            t = deal(cfg, (0.6, 0.8))
            for team in itertools.combinations(range(5), 3):
                rec = reconstruct(t, team)
                assert rec.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_complex_secret(self):
        # the amplitudes come back under every pad, not just the fidelity:
        # signing before swapping would return -(alpha, beta) for pad (1, 1)
        alpha = 0.6 * cmath.exp(0.3j)
        beta = 0.8 * cmath.exp(-1.1j)
        pads = seeds_for_all_pads(lambda s: ProtocolConfig(C5, A5, 3, seed=s))
        for pad, seed in pads.items():
            t = deal(ProtocolConfig(C5, A5, 3, seed=seed), (alpha, beta))
            rec = reconstruct(t, [1, 3, 4])
            assert rec.fidelity == pytest.approx(1.0, abs=1e-9)
            assert abs(rec.alpha - alpha) < 1e-9 and abs(rec.beta - beta) < 1e-9, pad

    def test_small_coalition_rejected(self):
        t = deal(ProtocolConfig(C5, A5, 3, seed=1), (1, 0))
        with pytest.raises(InsufficientSharesError):
            reconstruct(t, [0, 1])

    def test_unknown_player_rejected(self):
        t = deal(ProtocolConfig(C5, A5, 3, seed=1), (1, 0))
        with pytest.raises(ValueError):
            reconstruct(t, [0, 1, 9])

    def test_classical_extension(self):
        # ((5,7)): two classical-only players; any 5 players reconstruct
        cfg = ProtocolConfig(C5, A5, 3, c=2, seed=3)
        t = deal(cfg, (0.6, 0.8))
        for team in itertools.combinations(range(7), 5):
            rec = reconstruct(deal(cfg, (0.6, 0.8)), team)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_extension_coalition_below_threshold(self):
        cfg = ProtocolConfig(C5, A5, 3, c=2, seed=3)
        t = deal(cfg, (0.6, 0.8))
        with pytest.raises(InsufficientSharesError):
            reconstruct(t, [0, 1, 2, 3])

    def test_no_graph_state_built(self, monkeypatch):
        built = []
        build = quantum.graph_state

        def counting(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(quantum, "graph_state", counting)
        t = deal(ProtocolConfig(C5, A5, 3, seed=2), (0.6, 0.8))
        rec = reconstruct(t, [0, 2, 4])
        assert built == []
        # nor do the deal and the steps touch the simulator at all
        monkeypatch.setattr(protocol, "quantum", None)
        rec = reconstruct(deal(ProtocolConfig(C5, A5, 3, seed=2), (0.6, 0.8)), [0, 2, 4])
        assert (rec.alpha, rec.beta, rec.fidelity) == (0.6, 0.8, 1.0)

    @pytest.mark.parametrize(
        "d, c, message",
        [
            # D u Odd(D) = {0, 1, 4}
            ([0], [0, 2], r"step a \(extraction\) would act on qubits \[4\] outside"),
            # C u (Odd(C) xor A) = {0} u ({1, 4} xor V) = {0, 2, 3}
            ([1], [0], r"step b \(correction\) would act on qubits \[3\] outside"),
        ],
        ids=["step_a", "step_b"],
    )
    def test_locality_checked_before_amplitude_work(self, monkeypatch, d, c, message):
        # the branch checks never run: the locality check refuses first
        t = deal(ProtocolConfig(C5, A5, 3, seed=1), (0.6, 0.8))
        monkeypatch.setattr(
            access,
            "reconstruction_witnesses",
            lambda g, a, b: (VertexSet.from_iterable(5, d), VertexSet.from_iterable(5, c)),
        )
        monkeypatch.setattr(protocol, "_check_on_graph_state", None)
        with pytest.raises(LocalityError, match=message):
            reconstruct(t, [0, 1, 2])

    def test_even_overlap_witness_fails_isometry_check(self, monkeypatch):
        # K_D for D = {} commutes with Z_A, so U_D leaves Z_A|G> on ancilla 0
        t = deal(ProtocolConfig(C5, A5, 3, seed=1), (0.6, 0.8))
        d, c = VertexSet.empty(5), VertexSet.from_iterable(5, [0, 2])
        monkeypatch.setattr(access, "reconstruction_witnesses", lambda g, a, b: (d, c))
        with pytest.raises(ProtocolStateError, match="not a superposition of encoded graph states"):
            reconstruct(t, [0, 1, 2])

    def test_log_records_steps(self):
        t = deal(ProtocolConfig(C5, A5, 3, seed=1), (1, 0))
        reconstruct(t, [0, 1, 2])
        joined = "\n".join(t.log)
        assert "step a" in joined and "step b" in joined and "step c" in joined

    def test_random_graphs_every_accessing_coalition(self):
        import random as _random

        from graphqss.access import q_accessing, qstar_threshold

        rng = _random.Random(14)
        done = 0
        while done < 3:
            n = rng.randint(4, 8)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet.full(n)
            k = qstar_threshold(g).k_star
            cfg = ProtocolConfig(g, a, k, seed=rng.randrange(1000))
            secret = (0.48, complex(0, (1 - 0.48**2) ** 0.5))
            t = deal(cfg, secret)
            teams = [m for m in range(1 << n) if bin(m).count("1") >= k]
            for mask in rng.sample(teams, min(12, len(teams))):
                b = VertexSet(n, mask)
                assert q_accessing(g, a, b)
                rec = reconstruct(t, b.members())
                assert rec.fidelity == pytest.approx(1.0, abs=1e-9)
            done += 1


    def test_matches_dense_oracle(self):
        # seeded runs on G(n, 1/2) with n <= 11, a random A, a random complex
        # secret and c in {0, 1, 2}, each under every pad: the Pauli branches
        # give the dense reconstruction's log and amplitudes, and give back
        # exactly the dealt secret
        rng = random.Random(22)
        runs = 0
        for n, c, _ in itertools.product(range(3, 12), (0, 1, 2), range(2)):
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            k = access.qstar_threshold(g, a).k_star
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            secret = (math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))
            pads = seeds_for_all_pads(lambda s: ProtocolConfig(g, a, k, c=c, seed=s))
            for seed in pads.values():
                t = deal(ProtocolConfig(g, a, k, c=c, seed=seed), secret)
                team = rng.sample(range(n + c), rng.randint(k + c, n + c))
                rec = reconstruct(t, team)
                oracle, log = dense_reconstruct(t, team)
                assert t.log[1:] == log
                assert abs(rec.alpha - oracle.alpha) <= 1e-12 and abs(rec.beta - oracle.beta) <= 1e-12
                assert (rec.alpha, rec.beta) == secret
                runs += 1
        assert runs == 9 * 3 * 2 * 4


class TestVertexSetConstructions:
    """Inside access and protocol a coalition stays a bitmask: a VertexSet is
    built only for a value a public call returns, plus protocol's coalition."""

    C9 = family("cycle", 9)
    A9 = VertexSet.full(9)
    B = VertexSet.from_iterable(9, range(7))

    @pytest.mark.parametrize(
        "call, built",
        [
            (lambda g, a, b, t: access.access_report(g, a, b), 1),
            (lambda g, a, b, t: access.reconstruction_witnesses(g, a, b), 2),
            (lambda g, a, b, t: reconstruct(t, range(7)), 3),
        ],
        ids=["access_report", "reconstruction_witnesses", "reconstruct"],
    )
    def test_counts_on_c9(self, monkeypatch, call, built):
        t = deal(ProtocolConfig(self.C9, self.A9, 7), (0.6, 0.8))
        real, made = VertexSet.__post_init__, []

        def counting(vertex_set):
            made.append(vertex_set)
            real(vertex_set)

        monkeypatch.setattr(VertexSet, "__post_init__", counting)
        call(self.C9, self.A9, self.B, t)
        assert len(made) == built


class TestPrivacyProbe:
    def test_c5_subthreshold_blind(self):
        cfg = ProtocolConfig(C5, A5, 3, seed=0)
        assert privacy_probe(cfg, ((1, 0), (0, 1))) < 1e-10

    def test_complex_secret_pair(self):
        cfg = ProtocolConfig(C5, A5, 3, seed=0)
        s2 = 2**-0.5
        assert privacy_probe(cfg, ((s2, 1j * s2), (0.6, -0.8))) < 1e-10

    def test_extension_probe(self):
        cfg = ProtocolConfig(C5, A5, 3, c=2, seed=3)
        assert privacy_probe(cfg, ((1, 0), (0, 1))) < 1e-10

    @staticmethod
    def team_views(cfg, secrets, pads, sizes):
        """Trace distance of the pad-averaged views for every team of the given sizes."""
        g, a = cfg.graph, cfg.access_set
        holders = deal(cfg, (1, 0)).qubit_holders
        registers = []  # per secret, its register under each pad: X swaps, Z signs beta
        for alpha, beta in secrets:
            regs = []
            for b_x, b_z in pads:
                amps = (alpha, -beta if b_z else beta)
                regs.append(embed_secret(g, a, *(amps[::-1] if b_x else amps)))
            registers.append(regs)
        views = {}
        for size in sizes:
            for team in itertools.combinations(range(cfg.players), size):
                b = VertexSet.from_iterable(g.n, [q for q in range(g.n) if holders[q] in team])
                avg = [
                    DensityMatrix(sum(reduced_density(reg, b).matrix for reg in regs) / len(regs))
                    for regs in registers
                ]
                views[team] = trace_distance(*avg)
        return views

    @pytest.mark.parametrize("c", [0, 1, 2])
    @pytest.mark.parametrize("n", [5, 7])
    def test_maximal_teams_match_all_sizes(self, n, c):
        cfg = ProtocolConfig(family("cycle", n), VertexSet.full(n), n - 2, c=c, seed=c)
        secrets = ((1, 0), (0.6, 0.8j))
        below = range(cfg.k + cfg.c)
        views = self.team_views(cfg, secrets, [(0, 0), (0, 1), (1, 0), (1, 1)], below)
        assert privacy_probe(cfg, secrets) == pytest.approx(max(views.values()), abs=1e-12)
        # the reduction itself, on views that do differ: without the pad a
        # maximal team always sees at least as much as any team inside it
        raw = self.team_views(cfg, secrets, [(0, 0)], below)
        top = cfg.k + cfg.c - 1
        for team, dist in raw.items():
            outer = [t for t in raw if len(t) == top and set(team) <= set(t)]
            assert all(dist <= raw[t] + 1e-12 for t in outer)
        # C5 is a perfect ((3,5)) scheme: no pair of its players sees anything
        assert max(raw.values()) > 0.1 or (n, c) == (5, 0)

    def test_unpadded_register_would_leak(self):
        # sanity for the probe itself: without the pad, an accessing
        # coalition sees the secret, so the probe's machinery must detect
        # nonzero distance on raw embeddings
        b = VertexSet.from_iterable(5, [0, 1, 2])
        s0, s1 = embed_secret(C5, A5, 1, 0), embed_secret(C5, A5, 0, 1)
        r0, r1 = reduced_density(s0, b), reduced_density(s1, b)
        assert trace_distance(r0, r1) > 1.0
        assert trace_norm([(1, s0), (-1, s1)], b) == pytest.approx(trace_distance(r0, r1), abs=1e-12)

    def test_many_classical_players(self):
        # 208 players: every team below threshold is one of C(208, 203)
        # ~ 3.1e9, while the qubit sets it can hold are the 8 sets of 7
        cfg = ProtocolConfig(family("cycle", 8), VertexSet.full(8), 4, c=200)
        t0 = time.perf_counter()
        assert privacy_probe(cfg, ((1, 0), (0, 1))) < 1e-10
        assert time.perf_counter() - t0 < 1.0


class TestSerialization:
    def test_transcript_document(self):
        cfg = ProtocolConfig(C5, A5, 3, c=2, seed=21)
        t = deal(cfg, (0.6, 0.8))
        rec = reconstruct(t, [0, 1, 2, 3, 4])
        doc = serialize_transcript(t, rec)
        assert doc["n"] == 5 and doc["players"] == 7 and doc["k"] == 3 and doc["c"] == 2
        assert doc["pad"] in ([0, 0], [0, 1], [1, 0], [1, 1])
        assert len(doc["qubit_holders"]) == 5
        assert len(doc["shares"]) == 7
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert any("step c" in line for line in doc["log"])

    def test_document_without_reconstruction(self):
        t = deal(ProtocolConfig(C5, A5, 3), (1, 0))
        doc = serialize_transcript(t)
        assert "fidelity" not in doc
