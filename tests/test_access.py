import itertools
import random
from collections import Counter

import numpy as np
import pytest

from graphqss import access
from graphqss.access import (
    CVerdict,
    QVerdict,
    ThresholdReport,
    access_report,
    edge_mask_graph,
    exhaustive_graph_search,
    product_threshold_bound,
    q_accessing,
    qstar_threshold,
    reconstruction_witnesses,
    small_witness,
)
from graphqss.errors import NoWitnessError, ResourceLimitError
from graphqss.gf2 import null_basis, reduce_rows
from graphqss.graphs import (
    Graph,
    VertexSet,
    c5_power,
    delta_complement,
    family,
    lexicographic_product,
    odd_neighborhood,
    serialize_graph,
)
from helpers import (
    all_graphs,
    brute_accessing_witness,
    brute_blind_witness,
    brute_distance,
    gray_walk_k_stars,
    labelled_graph_search,
    lex_threshold,
)

C5 = family("cycle", 5)
A5 = VertexSet.full(5)
K3 = family("complete", 3)
A3 = VertexSet.full(3)


def vs(n, members):
    return VertexSet.from_iterable(n, members)


def random_case(rng, max_n=8):
    n = rng.randint(2, max_n)
    g = family("random", n, p=rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6))
    a = VertexSet(n, rng.randrange(1, 1 << n))
    b = VertexSet(n, rng.randrange(1 << n))
    return g, a, b


def _cut_rows(g, b):
    """The cut system of b as the access module builds it: rows of the
    vertices outside b, over the columns of b, in vertex coordinates."""
    return [(g.adj[v], 0) for v in b.complement().members()], b.mask


class TestCutMatrix:
    def test_c5_example(self):
        rows, mask = _cut_rows(C5, vs(5, [0, 1, 2]))
        assert len(rows) == 2 and mask.bit_count() == 3
        assert [c & mask for c, _ in rows] == [0b100, 0b001]
        pivots, _ = reduce_rows(rows, mask)
        assert len(pivots) == 2

    def test_full_coalition(self):
        rows, mask = _cut_rows(C5, A5)
        assert rows == [] and mask.bit_count() == 5
        assert reduce_rows(rows, mask) == ({}, 0)

    def test_empty_coalition(self):
        rows, mask = _cut_rows(C5, VertexSet.empty(5))
        assert len(rows) == 5 and mask == 0
        pivots, _ = reduce_rows(rows, mask)
        assert pivots == {} and null_basis(pivots, mask) == []


class TestClassifyClassical:
    def test_c5_accessing_with_witness(self):
        rep = access_report(C5, A5, vs(5, [0, 1, 2]))
        assert rep.c_verdict is CVerdict.ACCESSING
        assert rep.witness.members() == (1,)

    def test_c5_blind_with_witness(self):
        rep = access_report(C5, A5, vs(5, [0, 1]))
        assert rep.c_verdict is CVerdict.BLIND
        assert rep.witness.members() == (2, 4)

    def test_empty_coalition_blind(self):
        rep = access_report(C5, A5, VertexSet.empty(5))
        assert rep.c_verdict is CVerdict.BLIND and rep.witness.members() == ()

    def test_rejects_empty_encoding_set(self):
        with pytest.raises(ValueError):
            access_report(C5, VertexSet.empty(5), vs(5, [0]))

    @staticmethod
    def _check_against_brute_force(g, a, b):
        rep = access_report(g, a, b)
        d = brute_accessing_witness(g, a, b)
        c = brute_blind_witness(g, a, b)
        assert (d is None) != (c is None), "exactly one witness family must exist"
        assert rep.coalition == b
        assert (rep.c_verdict is CVerdict.ACCESSING) == (d is not None)
        witness = rep.witness
        if rep.c_verdict is CVerdict.ACCESSING:
            assert witness.is_subset_of(b)
            assert odd_neighborhood(g, witness).is_subset_of(b)
            assert len(witness & a) % 2 == 1
        else:
            assert witness.is_subset_of(b.complement())
            assert (odd_neighborhood(g, witness) & b) == (a & b)
        acc_bbar = brute_accessing_witness(g, a, b.complement()) is not None
        q = QVerdict.PARTIAL
        if (d is not None) != acc_bbar:
            q = QVerdict.Q_ACCESSING if d is not None else QVerdict.Q_BLIND
        assert rep.q_verdict is q
        assert q_accessing(g, a, b) == (q is QVerdict.Q_ACCESSING)
        # the pair routine against the same oracle
        if q is QVerdict.Q_ACCESSING:
            d_pair, c_pair = reconstruction_witnesses(g, a, b)
            bbar = b.complement()
            assert d_pair == witness and c_pair.is_subset_of(b)
            assert (odd_neighborhood(g, c_pair) & bbar) == (a & bbar)
        else:
            with pytest.raises(NoWitnessError):
                reconstruction_witnesses(g, a, b)

    def test_partition_against_brute_force(self):
        rng = random.Random(42)
        for _ in range(300):
            self._check_against_brute_force(*random_case(rng))
        # every graph on at most 4 vertices, every non-empty A, every B
        for n in range(1, 5):
            for g in all_graphs(n):
                for amask in range(1, 1 << n):
                    for bmask in range(1 << n):
                        self._check_against_brute_force(g, VertexSet(n, amask), VertexSet(n, bmask))

class TestSpanTestDecides:
    """The span test decides and the elimination only certifies: with the
    span test's answer flipped, the witness routine it calls raises."""

    @pytest.fixture
    def flipped(self, monkeypatch):
        real = access._accessing
        monkeypatch.setattr(access, "_accessing", lambda *masks: not real(*masks))

    @pytest.mark.parametrize(
        "b,kind", [([0, 1, 2], "blind"), ([0, 1], "accessing")], ids=["accessing", "blind"]
    )
    def test_access_report(self, flipped, b, kind):
        with pytest.raises(RuntimeError, match=f"^{kind} witness missing") as err:
            access_report(C5, A5, vs(5, b))
        assert not isinstance(err.value, NoWitnessError)

    def test_reconstruction_witnesses(self, flipped):
        # {0, 1} is Q-blind, so the flipped test calls it Q-accessing
        with pytest.raises(RuntimeError, match="^accessing witness missing") as err:
            reconstruction_witnesses(C5, A5, vs(5, [0, 1]))
        assert not isinstance(err.value, NoWitnessError)


class TestCertifiers:
    """The two certificates on bitmasks raise exactly when their condition,
    written on vertex sets with ``odd_neighborhood``, fails."""

    @staticmethod
    def _accessing_clauses(g, a, b, x):
        # D inside b, Odd(D) inside b, |D & a| odd
        d = VertexSet(g.n, x)
        return d.is_subset_of(b), odd_neighborhood(g, d).is_subset_of(b), len(d & a) % 2 == 1

    @staticmethod
    def _blind_clauses(g, a, b, x):
        # C outside b, Odd(C) & b == a & b
        c = VertexSet(g.n, x)
        return c.is_subset_of(b.complement()), (odd_neighborhood(g, c) & b) == (a & b)

    @staticmethod
    def _raises(certify, g, a, b, x):
        try:
            got = certify(g, a.mask, b.mask, x)
        except RuntimeError:
            return True
        assert got == VertexSet(g.n, x)
        return False

    @pytest.mark.parametrize(
        "certify, clauses",
        [(access._certify_accessing, "_accessing_clauses"), (access._certify_blind, "_blind_clauses")],
        ids=["accessing", "blind"],
    )
    def test_raise_exactly_when_a_clause_fails(self, certify, clauses):
        # every x on small random graphs, so each clause is seen failing alone
        rng = random.Random(23)
        patterns = Counter()
        for _ in range(300):
            g, a, b = random_case(rng, max_n=6)
            assert self._raises(certify, g, a, b, None)
            for x in range(1 << g.n):
                holds = getattr(self, clauses)(g, a, b, x)
                assert self._raises(certify, g, a, b, x) == (not all(holds)), (g.adj, a, b, x)
                patterns[holds] += 1
        for i in range(len(holds)):
            alone = tuple(j != i for j in range(len(holds)))
            assert patterns[alone] > 0, (i, patterns)
        assert patterns[(True,) * len(holds)] > 0


class TestQuantumVerdicts:
    def test_c5_three_set_accessing(self):
        assert q_accessing(C5, A5, vs(5, [0, 1, 2]))

    def test_k3_pair_not_accessing(self):
        assert not q_accessing(K3, A3, vs(3, [0, 1]))

    def test_full_set_always_accessing(self):
        rng = random.Random(7)
        for _ in range(20):
            g, a, _ = random_case(rng)
            assert q_accessing(g, a, g.vertices())

    def test_c5_pair_is_qblind(self):
        assert access_report(C5, A5, vs(5, [0, 1])).q_verdict is QVerdict.Q_BLIND

    def test_k3_pair_is_partial(self):
        assert access_report(K3, A3, vs(3, [0, 1])).q_verdict is QVerdict.PARTIAL

    def test_k3_full_is_qaccessing(self):
        assert access_report(K3, A3, VertexSet.full(3)).q_verdict is QVerdict.Q_ACCESSING

    def test_delta_complement_formulation_agrees(self):
        rng = random.Random(13)
        for _ in range(200):
            g, a, b = random_case(rng)
            via_pair = all(
                access_report(h, a, b).c_verdict is CVerdict.ACCESSING for h in (g, delta_complement(g, a))
            )
            assert q_accessing(g, a, b) == via_pair

    def test_monotone_in_coalition(self):
        # justifies checking a single size inside the threshold scan
        cases = list(all_graphs(4)) + [family("random", 6, p=0.5, seed=s) for s in range(8)]
        for g in cases:
            a = VertexSet.full(g.n)
            acc = [q_accessing(g, a, VertexSet(g.n, m)) for m in range(1 << g.n)]
            for m in range(1 << g.n):
                if not acc[m]:
                    continue
                for v in range(g.n):
                    assert acc[m | (1 << v)]

    def test_report_invariants(self):
        rng = random.Random(5)
        for _ in range(100):
            g, a, b = random_case(rng)
            rep = access_report(g, a, b)
            # the span test alone, as the CLI's rank_residual reports it
            accessing = access._accessing(g.adj, a.mask, b.mask, (1 << g.n) - 1)
            assert (rep.c_verdict is CVerdict.ACCESSING) == accessing
            if rep.q_verdict is QVerdict.Q_ACCESSING:
                assert accessing
            if rep.q_verdict is QVerdict.Q_BLIND:
                assert not accessing
            # the one witness lies on the side the verdict names
            assert rep.witness.is_subset_of(b if accessing else b.complement())


class TestReconstructionWitnesses:
    def test_c5_three_set(self):
        d, c = reconstruction_witnesses(C5, A5, vs(5, [0, 1, 2]))
        assert d.members() == (1,)
        assert c.is_subset_of(vs(5, [0, 1, 2]))
        assert (odd_neighborhood(C5, c) & vs(5, [3, 4])) == vs(5, [3, 4])

    def test_invalid_candidate_rejected_by_condition(self):
        # {1} alone cannot serve as the disentangling set for {0,1,2}
        bad = vs(5, [1])
        assert (odd_neighborhood(C5, bad) & vs(5, [3, 4])) != vs(5, [3, 4])

    def test_full_coalition(self):
        d, c = reconstruction_witnesses(C5, A5, A5)
        assert len(d & A5) % 2 == 1
        assert c.members() == ()

    def test_not_accessing_raises(self):
        with pytest.raises(NoWitnessError):
            reconstruction_witnesses(K3, A3, vs(3, [0, 1]))


class TestThreshold:
    def test_c5(self):
        rep = qstar_threshold(C5)
        assert rep.k_star == 3
        assert rep.certificate_fail.members() == (0, 1)
        assert not q_accessing(C5, A5, rep.certificate_fail)
        assert rep.sets_checked == 13  # 1 + 1 + 1 + C(5,3)

    def test_complete_graphs(self):
        for n in range(2, 7):
            assert qstar_threshold(family("complete", n)).k_star == n

    def test_single_vertex(self):
        rep = qstar_threshold(family("path", 1))
        assert rep.k_star == 1 and rep.certificate_fail.members() == ()

    def test_enumeration_cap(self, monkeypatch):
        # refused before the distance walk or any coalition check
        monkeypatch.setattr(access, "_q_accessing_masks", None)
        monkeypatch.setattr(access, "_distance", None)
        with pytest.raises(ResourceLimitError, match="n=27 exceeds enumeration limit 26"):
            qstar_threshold(family("cycle", 27))

    def test_sweeps_reject_bad_encoding_set(self):
        with pytest.raises(ValueError, match="encoding set A must be non-empty"):
            qstar_threshold(C5, VertexSet.empty(5))
        with pytest.raises(ValueError, match="vertex set universe != graph order"):
            qstar_threshold(C5, VertexSet.full(4))

    def test_restricted_encoding_set(self):
        # A = {0}: {0} alone accesses (D = {0}, Odd inside? no) -- just
        # check consistency of the report against direct scanning
        a = vs(5, [0, 2])
        rep = qstar_threshold(C5, a)
        for size in range(1, 6):
            ok = all(
                q_accessing(C5, a, vs(5, team))
                for team in itertools.combinations(range(5), size)
            )
            assert ok == (size >= rep.k_star)

    @staticmethod
    def _scan_oracle(g, a):
        # the report from q_accessing on every coalition of each size: the
        # first failure in lex order and its position, until a size passes
        fail, checked = VertexSet.empty(g.n), 1
        for k in range(1, g.n + 1):
            teams = [vs(g.n, team) for team in itertools.combinations(range(g.n), k)]
            failures = [i for i, b in enumerate(teams) if not q_accessing(g, a, b)]
            if not failures:
                return ThresholdReport(k, fail, checked + len(teams))
            fail, checked = teams[failures[0]], checked + failures[0] + 1

    @pytest.mark.parametrize(
        "a, k_star",
        [
            (VertexSet.full(10), 7),  # every 7-set accesses
            (VertexSet.from_iterable(10, range(1, 10)), 9),  # size 8 fails late in lex order
        ],
        ids=["a_all", "a_without_0"],
    )
    def test_scan_and_threshold_match_oracles_on_c5_p2(self, a, k_star):
        # one process, no worker pool: jobs=2 is ignored and gives the serial report
        g = lexicographic_product(C5, family("path", 2))
        serial = qstar_threshold(g, a, jobs=1)
        assert qstar_threshold(g, a, jobs=2) == serial == lex_threshold(g, a) == self._scan_oracle(g, a)
        assert serial.k_star == k_star

    def test_matches_lex_oracle_on_every_small_pair(self):
        # every field of the report, for every (G, A) with n <= 5
        pairs = 0
        for n in range(1, 6):
            for g in all_graphs(n):
                for amask in range(1, 1 << n):
                    a = VertexSet(n, amask)
                    assert qstar_threshold(g, a) == lex_threshold(g, a), (g.adj, amask)
                    pairs += 1
        assert pairs == 1 + 2 * 3 + 8 * 7 + 64 * 15 + 1024 * 31

    def test_matches_lex_oracle_on_random_pairs(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = family("random", n, p=rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            assert qstar_threshold(g, a) == lex_threshold(g, a), (g.adj, a.mask)

    def test_distance_matches_brute_force(self):
        # every (G, A) up to n = 5, then seeded graphs up to n = 14, each with
        # A = V and a proper A, so that both scoring rules run over several levels
        cases = [(g, VertexSet(g.n, m)) for n in range(1, 6) for g in all_graphs(n) for m in range(1, 1 << n)]
        rng = random.Random(8)
        for n in range(6, 15):
            for _ in range(10):
                g = family("random", n, p=rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6))
                cases += [(g, VertexSet.full(n)), (g, VertexSet(n, rng.randrange(1, (1 << n) - 1)))]
        for g, a in cases:
            assert access._distance(g.adj, a.mask) == brute_distance(g, a), (g.adj, a.mask)
        g = c5_power(2)  # eight levels with A = V, three with A = {0, 5, 10, 15, 20}
        assert access._distance(g.adj, (1 << 25) - 1) == 9
        assert access._distance(g.adj, sum(1 << v for v in range(0, 25, 5))) == 4

    def test_size_below_k_star_passing_is_internal_error(self, monkeypatch):
        # d = 1 would put k* at 5 on C5, but every 3-set accesses
        monkeypatch.setattr(access, "_distance", lambda adj, mask_a: 1)
        with pytest.raises(RuntimeError, match="every size-3 coalition accesses, below k\\*=5"):
            qstar_threshold(C5)

    def test_scan_counts_are_canonical(self):
        # 1 (empty) + 1 ({0} fails first) + 1 ({0, 1} fails first) + C(5, 3)
        rep = qstar_threshold(C5, A5)
        assert rep.k_star == 3 and rep.certificate_fail.members() == (0, 1) and rep.sets_checked == 13


class TestProductBound:
    def test_five_cycle_squared(self):
        assert product_threshold_bound(5, 3, 5, 3) == (25, 17)

    def test_unanimity_composes(self):
        assert product_threshold_bound(4, 4, 7, 7) == (28, 28)

    def test_iterated_c5(self):
        n, k = product_threshold_bound(5, 3, 5, 3)
        n, k = product_threshold_bound(5, 3, n, k)
        assert (n, k) == (125, 99)  # 5**3 - 3**3 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            product_threshold_bound(5, 0, 5, 3)
        with pytest.raises(ValueError):
            product_threshold_bound(5, 6, 5, 3)

    def test_sound_for_small_products(self):
        # product threshold never exceeds the composed bound
        known = [(family("cycle", 5), 3), (family("complete", 2), 2), (family("complete", 3), 3)]
        for (g1, k1), (g2, k2) in itertools.product(known, repeat=2):
            if g1.n * g2.n > 15:
                continue
            _, k = product_threshold_bound(g1.n, k1, g2.n, k2)
            got = qstar_threshold(lexicographic_product(g1, g2))
            assert got.k_star <= k


class TestSmallWitness:
    def test_c5_three_set(self):
        x, kind = small_witness(C5, vs(5, [0, 1, 2]))
        assert x.members() == (1,) and kind == "odd-wise-odd-size"
        assert len(x) <= (2 * (5 - 3 + 1)) // 3

    def test_full_coalition_single_vertex(self):
        x, kind = small_witness(C5, A5)
        assert len(x) == 1 and kind == "odd-wise-odd-size"

    def test_witness_properties_random(self):
        rng = random.Random(99)
        g = family("random", 10, p=0.5, seed=4)
        for _ in range(30):
            b = VertexSet(10, rng.randrange(1, 1 << 10))
            try:
                x, kind = small_witness(g, b)
            except NoWitnessError:
                continue
            assert x.is_subset_of(b) and len(x) >= 1
            odd = odd_neighborhood(g, x)
            if kind == "odd-wise-odd-size":
                assert len(x) % 2 == 1 and odd.is_subset_of(b)
            else:
                assert (odd & b.complement()) == b.complement()

    @pytest.mark.parametrize(
        "n,seed,b,expected,kind",
        [
            (9, 889, [0, 1, 2, 3, 4, 5, 6], [2], "odd-wise-odd-size"),
            (8, 321, [0, 1, 2, 4, 5, 6, 7], [0], "odd-wise-odd-size"),
            (6, 443, [0, 2, 3, 4, 5], [0], "odd-wise-odd-size"),
            (8, 416, [1, 2, 3, 7], [1, 3], "even-wise"),
            (7, 191, [0, 1, 4, 5], [1, 4], "even-wise"),
        ],
    )
    def test_tie_break_golden(self, n, seed, b, expected, kind):
        # recorded before the solver moved to vertex coordinates; each
        # coalition has 2 to 7 minimum witnesses to choose among
        x, got_kind = small_witness(family("random", n, p=0.5, seed=seed), vs(n, b))
        assert (list(x.members()), got_kind) == (expected, kind)

    def test_no_witness(self):
        with pytest.raises(NoWitnessError):
            small_witness(C5, VertexSet.empty(5))

    def test_corrupted_witness_raises(self, monkeypatch):
        # {3} is outside {0, 1, 2}: as the only kernel vector it wins odd-wise
        b = vs(5, [0, 1, 2])
        monkeypatch.setattr(access.gf2, "null_basis", lambda pivots, mask: [1 << 3])
        with pytest.raises(RuntimeError, match="^accessing witness missing"):
            small_witness(C5, b)
        # with no kernel the coset {0, 2} alone is even-wise; add 3 to it
        real = access.gf2.reduce_rows
        monkeypatch.setattr(access.gf2, "null_basis", lambda pivots, mask: [])
        monkeypatch.setattr(
            access.gf2, "reduce_rows", lambda rows, mask: (real(rows, mask)[0], 0b01101)
        )
        with pytest.raises(RuntimeError, match="^blind witness missing"):
            small_witness(C5, b)

    def test_kernel_cap(self, monkeypatch):
        # every vertex of the empty graph is free: kernel dimension 25,
        # refused before a basis is built, let alone enumerated
        monkeypatch.setattr(access.gf2, "null_basis", None)
        with pytest.raises(ResourceLimitError, match="kernel dimension 25 exceeds limit 24"):
            small_witness(Graph.empty(25), VertexSet.full(25))

    def test_minimality_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            b = VertexSet(n, rng.randrange(1, 1 << n))
            bbar = b.complement()
            best = None
            for m in range(1, 1 << n):
                x = VertexSet(n, m)
                if not x.is_subset_of(b):
                    continue
                odd = odd_neighborhood(g, x)
                odd_wise = len(x) % 2 == 1 and odd.is_subset_of(b)
                even_wise = (odd & bbar) == bbar
                if odd_wise or even_wise:
                    if best is None or len(x) < best:
                        best = len(x)
            if best is None:
                with pytest.raises(NoWitnessError):
                    small_witness(g, b)
            else:
                x, _ = small_witness(g, b)
                assert len(x) == best


class TestExhaustiveSearch:
    def test_tiny(self):
        assert exhaustive_graph_search(1).k_stars.tolist() == [1]
        assert exhaustive_graph_search(2).k_stars.min() == 2

    def test_resource_cap(self, monkeypatch):
        # refused before any array is built: at n = 12 the neighbour array
        # would have 2^66 columns
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the cap was checked")

        for allocator in ("zeros", "full", "empty"):
            monkeypatch.setattr(f"numpy.{allocator}", fail)
        for n in (7, 8, 12):
            with pytest.raises(ResourceLimitError, match=f"n={n} exceeds exhaustive search limit 6"):
                exhaustive_graph_search(n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            exhaustive_graph_search(0)

    def test_deterministic_order(self):
        a = exhaustive_graph_search(3)
        b = exhaustive_graph_search(3)
        assert a.k_stars.tolist() == b.k_stars.tolist()
        assert (a.histogram, a.attainers_graph6) == (b.histogram, b.attainers_graph6)
        # bit i of the mask is the i-th pair of (0,1), (0,2), (1,2)
        assert [list(edge_mask_graph(3, 1 << i).edges()) for i in range(3)] == [
            [(0, 1)],
            [(0, 2)],
            [(1, 2)],
        ]

    def test_edge_mask_graph_matches_every_labelled_graph(self):
        # row blocks read by shifts against the reference's walk over each pair
        for n in range(7):
            masks = range(1 << (n * (n - 1) // 2))
            assert [edge_mask_graph(n, m) for m in masks] == list(all_graphs(n))

    def test_edge_bit_is_the_row_major_pair_index(self):
        for n in range(13):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert [access._edge_bit(n, i, j) for i, j in pairs] == list(range(len(pairs)))

    @pytest.mark.parametrize("n, mask", [(3, -1), (3, 8), (4, 1 << 6), (1, 1), (0, -1)])
    def test_edge_mask_out_of_range_refused(self, n, mask):
        # 0..2^(n(n-1)/2)-1; a negative mask once gave the complete graph
        with pytest.raises(ValueError):
            edge_mask_graph(n, mask)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_graph6_many_matches_networkx(self, n):
        # bodies of 4..11 characters; those at n = 9 (36 bits) and n = 12 (66
        # bits) have no partial last character, and n = 12's masks pass 64 bits
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        gs = [family("random", n, p=rng.random(), seed=rng.randrange(1 << 30)) for _ in range(50)]
        masks = [sum(1 << access._edge_bit(n, i, j) for i, j in g.edges()) for g in gs]
        masks = np.array(masks, dtype=np.min_scalar_type((1 << (n * (n - 1) // 2)) - 1))
        assert (masks.dtype == object) == (n == 12)
        theirs = []
        for g in gs:
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            theirs.append(nx.to_graph6_bytes(nxg, header=False).strip().decode())
        assert access._graph6_many(n, masks) == tuple(theirs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_labelled_reference(self, n):
        # the whole report against the lex oracle, one k* per edge mask:
        # histogram by Counter, attainers by the single-graph graph6 writer on
        # edge_mask_graph, which is injective for a fixed n
        report = exhaustive_graph_search(n)
        expected = labelled_graph_search(n)
        assert report.k_stars.dtype == "uint8"
        assert report.k_stars.tolist() == expected
        assert list(report.histogram.items()) == sorted(Counter(expected).items())
        assert sum(report.histogram.values()) == 1 << (n * (n - 1) // 2)
        best = min(expected)
        assert report.attainers_graph6 == tuple(
            serialize_graph(edge_mask_graph(n, m), "graph6") for m, k in enumerate(expected) if k == best
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_gray_walk(self, monkeypatch, n):
        # the level walk drops each graph once no larger D can lower its d;
        # the oracle scores all 2^n - 1 sets D in every graph, n = 7 past the cap
        monkeypatch.setattr(access, "SEARCH_N_LIMIT", 7)
        k_stars = exhaustive_graph_search(n).k_stars
        assert k_stars.dtype == "uint8"
        assert np.array_equal(k_stars, gray_walk_k_stars(n))

    def test_n7_sweep_past_the_cap(self, monkeypatch):
        # the 2^21 graphs past the cap: test_matches_gray_walk checks every
        # k*; the histogram and the attainers' ends are pinned as CI pins them
        monkeypatch.setattr(access, "SEARCH_N_LIMIT", 7)
        report = exhaustive_graph_search(7)
        assert report.k_stars.dtype == "uint8" and len(report.k_stars) == 1 << 21
        assert report.histogram == {5: 125670, 6: 1551746, 7: 419736}
        attainers = report.attainers_graph6
        assert len(attainers) == len(set(attainers)) == 125670
        assert (attainers[0], attainers[-1]) == ("FLrE?", "FqKxw")

    def test_n6_histogram_and_attainers(self):
        report = exhaustive_graph_search(6)
        k_stars = report.k_stars.tolist()
        assert len(k_stars) == 1 << 15
        histogram = {k: k_stars.count(k) for k in set(k_stars)}
        assert histogram == report.histogram == {4: 360, 5: 21770, 6: 10638}
        attainers = [m for m, k in enumerate(k_stars) if k == 4]
        assert len(attainers) == len(report.attainers_graph6) == 360
        assert all(qstar_threshold(edge_mask_graph(6, m)).k_star == 4 for m in attainers)
