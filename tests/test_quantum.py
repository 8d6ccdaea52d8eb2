import math
import random

import numpy as np
import pytest

from graphqss import quantum
from graphqss.access import CVerdict, QVerdict, access_report
from graphqss.errors import ProtocolStateError, ResourceLimitError
from graphqss.graphs import VertexSet, family
from graphqss.quantum import (
    PauliOp,
    StateVector,
    apply_pauli,
    distinguishability,
    dump_state,
    embed_secret,
    encode_classical,
    graph_state,
    stabilizer_for,
    trace_norm,
)
from helpers import (
    DensityMatrix,
    all_graphs,
    apply_controlled_VC,
    apply_isometry_UD,
    edge_parity_amplitudes,
    induced_edge_count,
    overlap,
    reduced_density,
    trace_distance,
)

C5 = family("cycle", 5)
A5 = VertexSet.full(5)


def vs(n, members):
    return VertexSet.from_iterable(n, members)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestGraphState:
    def test_single_vertex(self):
        s = graph_state(family("path", 1))
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_single_edge(self):
        s = graph_state(family("path", 2))
        assert np.allclose(s.amplitudes, np.array([1, 1, 1, -1]) / 2, atol=1e-12)

    def test_c5_signs_match_induced_edge_parity(self):
        s = graph_state(C5)
        scale = 1 / math.sqrt(32)
        for x in range(32):
            expect = scale * (-1) ** (induced_edge_count(C5, x) % 2)
            assert s.amplitudes[x] == pytest.approx(expect, abs=1e-12)
        assert s.amplitudes[0b00011] == pytest.approx(-scale, abs=1e-12)

    def test_qubit_limit(self):
        with pytest.raises(ResourceLimitError):
            graph_state(family("cycle", 13))

    def test_vertex_doubling_bit_identical_to_edge_parity(self):
        rng = random.Random(12)
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [family("random", n, p=0.5, seed=rng.randrange(10**6)) for n in range(6, 13) for _ in range(6)]
        assert len(graphs) == 1100 + 42
        for g in graphs:
            assert graph_state(g).amplitudes.tobytes() == edge_parity_amplitudes(g).tobytes(), g


class TestApplyPauli:
    def test_x_flips(self):
        zero = StateVector(1, np.array([1, 0], dtype=complex))
        one = apply_pauli(zero, PauliOp(vs(1, [0]), VertexSet.empty(1)))
        assert np.allclose(one.amplitudes, [0, 1])

    def test_fixpoint_property(self):
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 10)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            d = VertexSet(n, rng.randrange(1 << n))
            s = graph_state(g)
            assert np.allclose(
                apply_pauli(s, stabilizer_for(g, d)).amplitudes,
                s.amplitudes,
                atol=1e-12,
            )

    def test_stabilizer_sign_is_induced_edge_parity(self):
        k3 = family("complete", 3)
        assert stabilizer_for(k3, vs(3, [0, 1])).phase == -1
        assert stabilizer_for(C5, vs(5, [0, 1, 2])).phase == 1
        assert stabilizer_for(C5, vs(5, [0, 1])).phase == -1

    def test_involution_sign(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 6)
            p = PauliOp(VertexSet(n, rng.randrange(1 << n)), VertexSet(n, rng.randrange(1 << n)))
            s = random_state(n, rng.randrange(10**6))
            twice = apply_pauli(apply_pauli(s, p), p)
            sign = (-1) ** len(p.x_support & p.z_support)
            assert np.allclose(twice.amplitudes, sign * s.amplitudes, atol=1e-12)

    def test_z_on_encoding_set_orthogonalizes(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            g0, g1 = encode_classical(g, a, 0), encode_classical(g, a, 1)
            assert abs(g0.inner(g1)) < 1e-12

    def test_odd_overlap_encodings_are_opposite_eigenstates(self):
        # K_D Z_A = (-1)^|D & A| Z_A K_D: with |D & A| = 1, K_D reads the bit
        k_d = stabilizer_for(C5, vs(5, [1]))
        g0, g1 = encode_classical(C5, A5, 0), encode_classical(C5, A5, 1)
        assert np.allclose(apply_pauli(g0, k_d).amplitudes, g0.amplitudes, atol=1e-12)
        assert np.allclose(apply_pauli(g1, k_d).amplitudes, -g1.amplitudes, atol=1e-12)

    def test_even_overlap_fixes_both_encodings(self):
        k_d = stabilizer_for(C5, vs(5, [1, 2]))
        for s in (encode_classical(C5, A5, 0), encode_classical(C5, A5, 1)):
            assert np.allclose(apply_pauli(s, k_d).amplitudes, s.amplitudes, atol=1e-12)

    def test_superposition_is_not_an_eigenstate(self):
        s = embed_secret(C5, A5, 0.6, 0.8)
        flipped = apply_pauli(s, stabilizer_for(C5, vs(5, [1]))).amplitudes
        assert not np.allclose(flipped, s.amplitudes, atol=1e-10)
        assert not np.allclose(flipped, -s.amplitudes, atol=1e-10)
        expect = embed_secret(C5, A5, 0.6, -0.8).amplitudes
        assert np.allclose(flipped, expect, atol=1e-12)


class TestEncodeEmbed:
    def test_zero_bit_is_plain_graph_state(self):
        assert np.array_equal(
            encode_classical(C5, A5, 0).amplitudes, graph_state(C5).amplitudes
        )

    def test_full_z_flips_odd_weight(self):
        g0 = graph_state(C5)
        g1 = encode_classical(C5, A5, 1)
        for x in range(32):
            sign = -1 if bin(x).count("1") % 2 else 1
            assert g1.amplitudes[x] == pytest.approx(sign * g0.amplitudes[x], abs=1e-12)

    def test_embed_endpoints(self):
        assert np.allclose(
            embed_secret(C5, A5, 1, 0).amplitudes, encode_classical(C5, A5, 0).amplitudes
        )
        assert np.allclose(
            embed_secret(C5, A5, 0, 1).amplitudes, encode_classical(C5, A5, 1).amplitudes
        )

    def test_embed_normalized(self):
        s = embed_secret(C5, A5, 0.6, 0.8)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12

    def test_rejects_empty_encoding_set(self):
        with pytest.raises(ValueError):
            encode_classical(C5, VertexSet.empty(5), 1)
        with pytest.raises(ValueError):
            embed_secret(C5, VertexSet.empty(5), 1, 0)

    def test_wrong_universe_encoding_set_refused_as_in_access(self):
        # the same check and message as access and ProtocolConfig
        for a in (VertexSet.full(4), VertexSet.full(6)):
            for call in (
                lambda: encode_classical(C5, a, 0),
                lambda: embed_secret(C5, a, 1, 0),
                lambda: distinguishability(C5, a, vs(5, [0, 1])),
            ):
                with pytest.raises(ValueError, match="^vertex set universe != graph order$"):
                    call()

    def test_rejects_unnormalized_secret(self):
        with pytest.raises(ValueError):
            embed_secret(C5, A5, 0.9, 0.9)
        # NaN fails every "> tol" test, so it must be refused as not "<= tol"
        with pytest.raises(ValueError, match="not normalized"):
            embed_secret(C5, A5, float("nan"), 1.0)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([np.nan, 1.0], dtype=complex))
        # a square past the float range is inf and fails too, with no OverflowError
        for secret in [(1e155, 0.0), (0.0, 1e200), (1e308, 1e308), (complex(1.7e308, 1.7e308), 0.0)]:
            with pytest.raises(ValueError, match="^secret amplitudes are not normalized$"):
                embed_secret(C5, A5, *secret)


class TestReducedDensity:
    def test_all_qubits_pure(self):
        s = embed_secret(C5, A5, 0.6, 0.8)
        rho = reduced_density(s, VertexSet.full(5))
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(rho.matrix, np.outer(s.amplitudes, s.amplitudes.conj()), atol=1e-12)

    def test_empty_subset(self):
        rho = reduced_density(graph_state(C5), VertexSet.empty(5))
        assert rho.matrix.shape == (1, 1)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_blind_pair_sees_identical_states(self):
        b = vs(5, [0, 1])
        rho0 = reduced_density(encode_classical(C5, A5, 0), b)
        rho1 = reduced_density(encode_classical(C5, A5, 1), b)
        assert trace_distance(rho0, rho1) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))  # trace 2

    def test_column_bit_l_is_lth_smallest_member(self):
        # |x> with x = 0b0011 kept on {0, 2, 3}: of the kept qubits only 0,
        # the smallest member, is set
        s = StateVector(4, np.eye(16, dtype=complex)[0b0011])
        rho = reduced_density(s, vs(4, [0, 2, 3]))
        assert rho.matrix[0b001, 0b001] == 1 and np.count_nonzero(rho.matrix) == 1

    def test_positive_semidefinite(self):
        rho = reduced_density(graph_state(C5), vs(5, [0, 2, 3]))
        assert rho.min_eigenvalue() >= -1e-10


class TestDistinguishability:
    def test_c5_examples(self):
        ov, dist = distinguishability(C5, A5, vs(5, [0, 1, 2]))
        assert ov < 1e-10 and dist > 1.0
        ov, dist = distinguishability(C5, A5, vs(5, [0, 1]))
        assert dist < 1e-10 and ov > 0.1

    def test_k3_pair_is_classically_blind_but_quantum_partial(self):
        # the pair cannot tell the two basis encodings apart (it is blind for
        # a classical bit), yet it perfectly separates the (1, i) / (1, -i)
        # superposition secrets: exactly the partial-information regime
        k3 = family("complete", 3)
        a3 = VertexSet.full(3)
        b = vs(3, [0, 1])
        ov, dist = distinguishability(k3, a3, b)
        assert ov > 0.1 and dist < 1e-10
        assert access_report(k3, a3, b).q_verdict is QVerdict.PARTIAL
        s2 = 2**-0.5
        r_plus_i = reduced_density(embed_secret(k3, a3, s2, 1j * s2), b)
        r_minus_i = reduced_density(embed_secret(k3, a3, s2, -1j * s2), b)
        assert trace_distance(r_plus_i, r_minus_i) > 1.0

    def test_oracle_partition(self):
        # for any coalition exactly one of overlap/distance vanishes
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            b = VertexSet(n, rng.randrange(1 << n))
            ov, dist = distinguishability(g, a, b)
            assert (ov < 1e-10) != (dist < 1e-10)

    def test_matches_classifier_exhaustively_n3(self):
        for g in all_graphs(3):
            for amask in range(1, 8):
                a = VertexSet(3, amask)
                for bmask in range(8):
                    b = VertexSet(3, bmask)
                    verdict = access_report(g, a, b).c_verdict
                    ov, dist = distinguishability(g, a, b)
                    assert (ov < 1e-10) == (verdict is CVerdict.ACCESSING)
                    assert (dist < 1e-10) == (verdict is CVerdict.BLIND)

    def test_matches_classifier_random(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 6)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            b = VertexSet(n, rng.randrange(1 << n))
            verdict = access_report(g, a, b).c_verdict
            ov, dist = distinguishability(g, a, b)
            assert (ov < 1e-10) == (verdict is CVerdict.ACCESSING)
            assert (dist < 1e-10) == (verdict is CVerdict.BLIND)

    def test_matches_classifier_random_wide(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(40):
            n = rng.randint(7, 10)
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            b = VertexSet(n, rng.randrange(1 << n))
            verdict = access_report(g, a, b).c_verdict
            ov, dist = distinguishability(g, a, b)
            assert (ov < 1e-10) == (verdict is CVerdict.ACCESSING)
            assert (dist < 1e-10) == (verdict is CVerdict.BLIND)
            seen.add(verdict)
        assert seen == set(CVerdict)

    def test_matches_classifier_at_qubit_cap(self):
        # 11 and 12 qubits, every coalition size from B = {} to B = V
        rng = random.Random(37)
        for n in (11, 12):
            for _ in range(2):
                g = family("random", n, p=0.5, seed=rng.randrange(10**6))
                a = VertexSet(n, rng.randrange(1, 1 << n))
                for size in range(n + 1):
                    b = vs(n, rng.sample(range(n), size))
                    verdict = access_report(g, a, b).c_verdict
                    ov, dist = distinguishability(g, a, b)
                    assert (ov < 1e-10) == (verdict is CVerdict.ACCESSING)
                    assert (dist < 1e-10) == (verdict is CVerdict.BLIND)


class TestTraceNorm:
    """The low-rank kernel against dense reduced density matrices."""

    @staticmethod
    def dense(views, b):
        """Trace norm of the weighted sum of reduced states, by full eigen-solve."""
        total = sum(w * reduced_density(s, b).matrix for w, s in views)
        return float(np.abs(np.linalg.eigvalsh(total)).sum())

    @staticmethod
    def random_case(rng):
        n = rng.randint(1, 10)
        g = family("random", n, p=rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6))
        a = VertexSet(n, rng.randrange(1, 1 << n))
        # at most 7 kept qubits keeps each dense reference solve under 128 x 128
        b = vs(n, rng.sample(range(n), rng.randint(0, min(n, 7))))
        return g, a, b

    def test_encoded_pairs(self):
        rng = random.Random(41)
        for _ in range(300):
            g, a, b = self.random_case(rng)
            g0, g1 = encode_classical(g, a, 0), encode_classical(g, a, 1)
            r0, r1 = reduced_density(g0, b), reduced_density(g1, b)
            assert trace_norm([(1, g0), (-1, g1)], b) == pytest.approx(trace_distance(r0, r1), abs=1e-12)
            ov, dist = distinguishability(g, a, b)
            assert ov == pytest.approx(overlap(r0, r1), abs=1e-12)
            assert dist == pytest.approx(trace_distance(r0, r1), abs=1e-12)

    def test_padded_mixtures(self):
        # the privacy probe's view: four pads per secret, weights +-1/4
        rng = random.Random(43)
        for _ in range(300):
            g, a, b = self.random_case(rng)
            views = []
            for sign in (1, -1):
                alpha, beta = random_state(1, rng.randrange(10**6)).amplitudes
                for b_x in (0, 1):
                    for b_z in (0, 1):
                        amps = (alpha, -beta if b_z else beta)
                        views.append((sign / 4, embed_secret(g, a, *(amps[::-1] if b_x else amps))))
            assert trace_norm(views, b) == pytest.approx(self.dense(views, b), abs=1e-12)

    def test_no_qubits_and_all_qubits(self):
        rng = random.Random(47)
        for n in range(1, 9):
            g = family("random", n, p=0.5, seed=rng.randrange(10**6))
            a = VertexSet(n, rng.randrange(1, 1 << n))
            pair = [(1, encode_classical(g, a, 0)), (-1, encode_classical(g, a, 1))]
            mixed = [(0.7, random_state(n, 2 * n)), (-0.2, random_state(n, 2 * n + 1))]
            for b in (VertexSet.empty(n), VertexSet.full(n)):
                for views in (pair, mixed):
                    assert trace_norm(views, b) == pytest.approx(self.dense(views, b), abs=1e-12)
            # nothing kept: only the weights' sum survives; everything kept:
            # two orthogonal pure states
            assert trace_norm(mixed, VertexSet.empty(n)) == pytest.approx(0.5, abs=1e-12)
            assert trace_norm(pair, VertexSet.full(n)) == pytest.approx(2.0, abs=1e-12)


class TestIsometryAndCorrection:
    def test_tags_plain_encoding(self):
        d = vs(5, [1])
        out = apply_isometry_UD(encode_classical(C5, A5, 0), C5, d)
        assert np.allclose(out.amplitudes[:32], graph_state(C5).amplitudes, atol=1e-12)
        assert np.allclose(out.amplitudes[32:], 0, atol=1e-12)
        out = apply_isometry_UD(encode_classical(C5, A5, 1), C5, d)
        assert np.allclose(out.amplitudes[:32], 0, atol=1e-12)

    def test_superposition_keeps_norm(self):
        out = apply_isometry_UD(embed_secret(C5, A5, 0.6, 0.8), C5, vs(5, [1]))
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
        anc = reduced_density(out, vs(6, [5]))
        assert anc.matrix[0, 0] == pytest.approx(0.36, abs=1e-10)
        assert anc.matrix[1, 1] == pytest.approx(0.64, abs=1e-10)
        assert abs(anc.matrix[0, 1]) < 1e-10  # branches entangle with the register

    def test_rejects_garbage_register(self):
        with pytest.raises(ProtocolStateError):
            apply_isometry_UD(random_state(5, 0), C5, vs(5, [1]))

    def test_correction_disentangles(self):
        d, c = vs(5, [1]), vs(5, [0, 2])
        state = apply_isometry_UD(embed_secret(C5, A5, 0.6, 0.8), C5, d)
        state = apply_controlled_VC(state, C5, A5, c)
        anc = reduced_density(state, vs(6, [5]))
        assert anc.purity() == pytest.approx(1.0, abs=1e-10)
        base = graph_state(C5).amplitudes
        assert abs(np.vdot(base, state.amplitudes[:32])) == pytest.approx(0.6, abs=1e-10)
        assert abs(np.vdot(base, state.amplitudes[32:])) == pytest.approx(0.8, abs=1e-10)

    def test_control_off_branch_untouched(self):
        state = apply_isometry_UD(encode_classical(C5, A5, 0), C5, vs(5, [1]))
        lower = state.amplitudes[:32].copy()
        out = apply_controlled_VC(state, C5, A5, vs(5, [0, 2]))
        assert np.array_equal(out.amplitudes[:32], lower)


class TestDump:
    def test_format(self):
        lines = dump_state(graph_state(family("path", 1))).splitlines()
        assert len(lines) == 2
        idx, re, im = lines[0].split()
        assert idx == "0" and float(re) == pytest.approx(1 / math.sqrt(2)) and float(im) == 0.0

    def test_zero_parts_print_unsigned(self):
        # a negative amplitude times Z_A's sign has imag -0.0, which prints as 0
        state = encode_classical(family("cycle", 3), VertexSet.full(3), 1)
        assert np.signbit(state.amplitudes.imag).any()
        tokens = [line.split() for line in dump_state(state).splitlines()]
        assert tokens[7] == ["7", "0.35355339059327373", "0"]
        assert all(part != "-0" for _, re, im in tokens for part in (re, im))
