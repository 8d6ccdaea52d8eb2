import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqss import access, graphs
from graphqss.access import edge_mask_graph
from graphqss.errors import GraphParseError, ResourceLimitError
from graphqss.graphs import (
    _MAX_GRAPH6_N,
    Graph,
    VertexSet,
    bits,
    c5_power,
    complement,
    delta_complement,
    edge_parity,
    family,
    lexicographic_product,
    odd_mask,
    odd_neighborhood,
    parse_graph,
    serialize_graph,
)
from helpers import induced_edge_count, is_isomorphic


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [p for idx, p in enumerate(pairs) if (mask >> idx) & 1]
    return Graph.from_edges(n, edges)


def vs(n, members):
    return VertexSet.from_iterable(n, members)


class TestBits:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        masks = [0, 1, 1 << 3124] + [rng.getrandbits(rng.randint(1, 3125)) for _ in range(200)]
        for mask in masks:
            assert list(bits(mask)) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]

    def test_negative_mask_refused(self):
        with pytest.raises(ValueError):
            next(bits(-1))


class TestVertexSet:
    def test_basics(self):
        s = vs(5, [0, 3])
        assert len(s) == 2 and 3 in s and 1 not in s
        assert s.complement().members() == (1, 2, 4)
        assert (s | vs(5, [1])).members() == (0, 1, 3)
        assert (s ^ vs(5, [3, 4])).members() == (0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            vs(3, [3])
        with pytest.raises(ValueError):
            VertexSet(2, 0b100)
        with pytest.raises(ValueError):
            vs(3, [0]) & vs(4, [0])


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_every_missing_mirror_bit(self):
        # each edge's bit dropped from one row, in both directions (i < j and i > j)
        g = family("random", 12, p=0.5, seed=3)
        for i, j in g.edges():
            for keep, lose in ((i, j), (j, i)):
                adj = list(g.adj)
                adj[lose] &= ~(1 << keep)
                with pytest.raises(ValueError, match=rf"^adjacency not symmetric at \({keep}, {lose}\)$"):
                    Graph(12, tuple(adj))

    def test_first_defect_in_row_order(self):
        # rows 0 and 1 disagree before row 2's self-loop is reached
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
            Graph(3, (0b010, 0b000, 0b100))
        with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
            Graph(3, (0b011, 0b000, 0b000))
        with pytest.raises(ValueError, match="^adjacency row 1 has out-of-range bits$"):
            Graph(3, (0b000, 0b1000, 0b001))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_edges_and_degrees(self):
        g = family("cycle", 5)
        assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in range(5))


class TestOddNeighborhood:
    def test_c5_singleton(self):
        g = family("cycle", 5)
        assert odd_neighborhood(g, vs(5, [2])).members() == (1, 3)

    def test_empty(self):
        g = family("random", 6, p=0.5, seed=1)
        assert odd_neighborhood(g, VertexSet.empty(6)).members() == ()

    def test_c5_pair_cancels(self):
        # vertex 3 neighbors both of {2, 4}, so it drops out
        g = family("cycle", 5)
        assert odd_neighborhood(g, vs(5, [2, 4])).members() == (0, 1)

    @given(small_graphs(), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_gf2_linearity(self, g, xm, ym):
        full = (1 << g.n) - 1
        x, y = VertexSet(g.n, xm & full), VertexSet(g.n, ym & full)
        assert odd_neighborhood(g, x ^ y) == odd_neighborhood(g, x) ^ odd_neighborhood(g, y)

    @given(small_graphs(), st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_odd_mask_counts_neighbors(self, g, mask):
        # v is in Odd(mask) exactly when an odd number of its neighbors are in mask
        mask &= (1 << g.n) - 1
        odd = sum(1 << v for v in range(g.n) if sum(g.has_edge(v, u) for u in bits(mask)) % 2)
        assert odd_mask(g, mask) == odd == odd_neighborhood(g, VertexSet(g.n, mask)).mask


class TestEdgeParity:
    @given(small_graphs(), st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_matches_induced_edge_count(self, g, mask):
        mask &= (1 << g.n) - 1
        assert edge_parity(g, mask) == induced_edge_count(g, mask) % 2


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(family("complete", 4)).edge_count() == 0

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_c5_self_complementary(self):
        c5 = family("cycle", 5)
        assert is_isomorphic(complement(c5), c5)


class TestDeltaComplement:
    def test_empty_set_identity(self):
        g = family("random", 6, p=0.4, seed=3)
        assert delta_complement(g, VertexSet.empty(6)) == g

    def test_full_set_is_complement(self):
        c5 = family("cycle", 5)
        assert delta_complement(c5, VertexSet.full(5)) == complement(c5)

    def test_k3_pair(self):
        got = delta_complement(family("complete", 3), vs(3, [1, 2]))
        assert sorted(got.edges()) == [(0, 1), (0, 2)]

    @given(small_graphs(), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g, am):
        a = VertexSet(g.n, am & ((1 << g.n) - 1))
        assert delta_complement(delta_complement(g, a), a) == g


class TestLexicographicProduct:
    def test_p2_times_k3_is_k6(self):
        got = lexicographic_product(family("path", 2), family("complete", 3))
        assert got == family("complete", 6)
        assert got.edge_count() == 15

    def test_star_tree_times_k3(self):
        tree = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        got = lexicographic_product(tree, family("complete", 3))
        assert got.n == 12 and got.edge_count() == 39

    def test_c5_squared_size(self):
        got = lexicographic_product(family("cycle", 5), family("cycle", 5))
        assert got.n == 25 and got.edge_count() == 150

    def test_vertex_ordering(self):
        # (u1, u2) -> u1*n2 + u2: the copy of g2 at u1=1 occupies 3..5
        got = lexicographic_product(family("path", 2), family("path", 3))
        assert got.has_edge(3, 4) and got.has_edge(4, 5) and not got.has_edge(3, 5)
        assert all(got.has_edge(u, v) for u in (0, 1, 2) for v in (3, 4, 5))

    @given(small_graphs(max_n=5), small_graphs(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_edge_count_formula(self, g1, g2):
        got = lexicographic_product(g1, g2)
        assert got.edge_count() == g1.n * g2.edge_count() + g2.n**2 * g1.edge_count()

    @given(small_graphs(max_n=4), small_graphs(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_complement_distributes(self, g1, g2):
        lhs = complement(lexicographic_product(g1, g2))
        rhs = lexicographic_product(complement(g1), complement(g2))
        assert lhs == rhs


class TestC5Power:
    def test_first_power(self):
        assert c5_power(1) == family("cycle", 5)

    def test_second_power(self):
        g = c5_power(2)
        assert g.n == 25 and g.edge_count() == 150
        assert all(g.degree(v) == 12 for v in range(25))

    def test_complement_law(self):
        c5 = family("cycle", 5)
        assert complement(c5_power(2)) == lexicographic_product(complement(c5), complement(c5))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            c5_power(0)

    def test_vertex_cap(self, monkeypatch):
        # refused before any product is built, and a huge power without
        # computing 5**i
        monkeypatch.setattr(graphs, "lexicographic_product", None)
        for i in (6, 10**7):
            with pytest.raises(ResourceLimitError, match=f"5\\*\\*{i} vertices exceeds cap 3125"):
                c5_power(i)


class TestEdgeListFormat:
    def test_parse_c5(self):
        text = "5\n0 1\n1 2\n2 3\n3 4\n4 0"
        assert parse_graph(text) == family("cycle", 5)

    def test_round_trip(self):
        g = family("random", 9, p=0.4, seed=11)
        assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("2\n0 0", "self-loop"),
            ("2\n0 5", "outside"),
            ("2\n0", "expected"),
            ("2\na b", "non-integer"),
            ("", "vertex count"),
            ("x", "not an integer"),
            ("-1", "vertex count"),
        ],
    )
    def test_parse_errors_carry_location(self, text, fragment):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)
        assert "line" in str(err.value)

    def test_vertex_count_capped_like_graph6(self):
        # one parse-time cap for both formats, checked before allocating
        assert parse_graph(f"{_MAX_GRAPH6_N}\n").n == _MAX_GRAPH6_N
        for n in (_MAX_GRAPH6_N + 1, 3_000_000):
            with pytest.raises(GraphParseError, match="vertex count"):
                parse_graph(f"{n}\n")


class TestGraph6Format:
    def test_c5_encoding(self):
        assert serialize_graph(family("cycle", 5), "graph6") == "Dhc"

    def test_known_decode(self):
        g = parse_graph("DQc", "graph6")
        assert sorted(g.edges()) == [(0, 2), (0, 4), (1, 3), (3, 4)]
        assert serialize_graph(g, "graph6") == "DQc"

    def test_round_trip_random(self):
        for seed in range(10):
            g = family("random", 7, p=0.5, seed=seed)
            assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g

    def test_matches_networkx(self):
        # n = 0..70 crosses the one-byte / four-byte size boundary at 62 / 63
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for n in range(71):
            g = Graph.empty(0) if n == 0 else family("random", n, p=rng.random(), seed=n)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(nxg, header=False).strip().decode()
            assert serialize_graph(g, "graph6") == theirs
            back = nx.from_graph6_bytes(theirs.encode())
            assert parse_graph(theirs, "graph6") == Graph.from_edges(n, back.edges())
            assert back.number_of_nodes() == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_many_matches_single_writer_on_every_labelled_graph(self, n):
        # access._graph6_many, the search's writer for its attainers: n = 1 is
        # the header alone; the masks are every edge mask in order
        masks = range(1 << (n * (n - 1) // 2))
        ours = access._graph6_many(n, np.array(masks))
        assert ours == tuple(serialize_graph(edge_mask_graph(n, m), "graph6") for m in masks)
        assert n > 1 or ours == ("@",)

    def test_multibyte_vertex_count(self):
        g = family("cycle", 125)
        enc = serialize_graph(g, "graph6")
        assert enc.startswith("~")
        assert parse_graph(enc, "graph6") == g

    def test_rejects_bad_padding(self):
        with pytest.raises(GraphParseError):
            parse_graph("D" + chr(63 + 63) + chr(63 + 63), "graph6")

    @pytest.mark.parametrize("text", ["~~??", "~~??????", "~~~~~~~~"])
    def test_vertex_count_capped_like_edgelist(self, text):
        # a second '~' means n >= 258,048: refused before the body is sized
        with pytest.raises(GraphParseError, match=f"^graph6 vertex count must be in 0..{_MAX_GRAPH6_N}$"):
            parse_graph(text, "graph6")

    def test_rejects_truncation(self):
        with pytest.raises(GraphParseError):
            parse_graph("D", "graph6")


class TestFamilies:
    def test_named(self):
        assert family("cycle", 5).edge_count() == 5
        assert family("complete", 3) == Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert family("path", 4).edge_count() == 3
        assert family("cycle", 2).edge_count() == 1  # simple graph, no double edge
        assert family("cycle", 1).edge_count() == 0

    def test_random_deterministic(self):
        a = family("random", 8, p=0.5, seed=7)
        b = family("random", 8, p=0.5, seed=7)
        assert a == b
        assert a != family("random", 8, p=0.5, seed=8)

    def test_random_needs_probability(self):
        with pytest.raises(ValueError):
            family("random", 5)
        with pytest.raises(ValueError):
            family("random", 5, p=1.5)

    def test_vertex_cap(self, monkeypatch):
        assert family("path", graphs.FAMILY_VERTEX_LIMIT).n == 3125
        # refused before any edge list is built
        monkeypatch.setattr(Graph, "from_edges", None)
        n = graphs.FAMILY_VERTEX_LIMIT + 1
        for kind, p in (("cycle", None), ("path", None), ("complete", None), ("random", 0.5)):
            with pytest.raises(ResourceLimitError, match="n=3126 exceeds generated-graph cap 3125"):
                family(kind, n, p=p)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family("torus", 5)
