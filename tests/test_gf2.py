import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqss.gf2 import (
    BitMatrix,
    BitVector,
    kernel_basis,
    mat_vec,
    null_basis,
    rank,
    reduce_rows,
    solve,
)

# cut matrix of the 5-cycle for the coalition {0, 1, 2}: rows are the
# B-neighborhoods of vertices 3 and 4
C5_CUT = BitMatrix.from_dense([[0, 0, 1], [1, 0, 0]])


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(cols, tuple(data))


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_duplicate_rows(self):
        assert rank(BitMatrix.from_dense([[1, 1], [1, 1]])) == 1

    def test_c5_cut(self):
        assert rank(C5_CUT) == 2

    def test_empty(self):
        assert rank(BitMatrix(0, ())) == 0
        assert rank(BitMatrix.zero(3, 0)) == 0
        assert rank(BitMatrix.zero(0, 3)) == 0

    @given(bit_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(m.transpose())

    @given(bit_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_plus_kernel_dim(self, m):
        assert rank(m) == m.cols - len(kernel_basis(m))

    def test_rank_nullity_large_random(self):
        import random

        rng = random.Random(64)
        for _ in range(1000):
            rows = rng.randint(0, 64)
            cols = rng.randint(0, 64)
            m = BitMatrix(cols, tuple(rng.randrange(1 << cols) if cols else 0 for _ in range(rows)))
            r = rank(m)
            assert r == m.cols - len(kernel_basis(m))
            assert r == rank(m.transpose())
            assert r <= min(m.nrows, m.cols)


class TestSolve:
    def test_identity(self):
        x = solve(BitMatrix.identity(3), BitVector.from_coords([1, 0, 1]))
        assert x.coords() == (1, 0, 1)

    def test_lex_smallest_tie_break(self):
        # both (1,0) and (0,1) solve; index 0 is most significant
        x = solve(BitMatrix.from_dense([[1, 1]]), BitVector.from_coords([1]))
        assert x.coords() == (0, 1)

    def test_inconsistent(self):
        m = BitMatrix.from_dense([[1, 0], [1, 0]])
        assert solve(m, BitVector.from_coords([1, 0])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(BitMatrix.identity(2), BitVector.from_coords([1, 0, 0]))

    def test_zero_rows(self):
        x = solve(BitMatrix.zero(0, 4), BitVector(0))
        assert x.coords() == (0, 0, 0, 0)

    @given(bit_matrices(max_rows=6, max_cols=6), st.integers(0, 63))
    @settings(max_examples=150, deadline=None)
    def test_solution_is_lex_minimal_among_all(self, m, bbits):
        b = BitVector(m.nrows, bbits & ((1 << m.nrows) - 1))
        self._check_against_enumeration(m, b)

    def test_solve_against_enumeration_wider(self):
        import random

        rng = random.Random(10)
        for _ in range(200):
            rows = rng.randint(0, 10)
            cols = rng.randint(0, 10)
            m = BitMatrix(cols, tuple(rng.randrange(1 << cols) if cols else 0 for _ in range(rows)))
            b = BitVector(rows, rng.randrange(1 << rows) if rows else 0)
            self._check_against_enumeration(m, b)

    @staticmethod
    def _check_against_enumeration(m, b):
        got = solve(m, b)
        brute = [
            x
            for x in range(1 << m.cols)
            if mat_vec(m, BitVector(m.cols, x)).bits == b.bits
        ]
        if got is None:
            assert brute == []
        else:
            assert mat_vec(m, got).bits == b.bits
            best = min(brute, key=lambda x: BitVector(m.cols, x).coords())
            assert got.bits == best


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(BitMatrix.identity(2)) == []

    def test_c5_cut_kernel(self):
        assert [v.coords() for v in kernel_basis(C5_CUT)] == [(0, 1, 0)]

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis(BitMatrix.zero(1, 3))) == 3

    @given(bit_matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert mat_vec(m, v).bits == 0

    @given(bit_matrices(max_rows=6, max_cols=6))
    @settings(max_examples=80, deadline=None)
    def test_kernel_spans_whole_nullspace(self, m):
        # x lies in the span of the basis iff appending it keeps the rank
        rows = tuple(v.bits for v in kernel_basis(m))
        null = [x for x in range(1 << m.cols) if mat_vec(m, BitMatrix(m.cols, (x,)).row(0)).bits == 0]
        assert len(null) == 1 << len(rows) == 1 << rank(BitMatrix(m.cols, rows))
        assert all(rank(BitMatrix(m.cols, rows + (x,))) == len(rows) for x in null)


def _has_gap(mask):
    low = mask >> ((mask & -mask).bit_length() - 1)  # trailing zeros dropped
    return low & (low + 1) != 0


@st.composite
def masked_systems(draw, width=10, max_rows=7):
    """Rows in full coordinates over a column mask with at least one gap."""
    mask = draw(st.integers(1, (1 << width) - 1).filter(_has_gap))
    row = st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1))
    return width, mask, draw(st.lists(row, max_size=max_rows))


class TestReduceRows:
    """The raw kernel against enumeration over every subset of the mask."""

    @given(masked_systems())
    @settings(max_examples=200, deadline=None)
    def test_against_enumeration_in_vertex_coordinates(self, system):
        width, mask, rows = system

        def solutions(rhs):
            return [
                x
                for x in range(1 << width)
                if x & ~mask == 0
                and all((c & x).bit_count() % 2 == (b if rhs else 0) for c, b in rows)
            ]

        pivots, x = reduce_rows(rows, mask)
        kernel = solutions(False)
        assert len(kernel) == 1 << (mask.bit_count() - len(pivots))
        basis = null_basis(pivots, mask)
        assert len(basis) == mask.bit_count() - len(pivots)
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        assert span == set(kernel)
        brute = solutions(True)
        if x is None:
            assert brute == []
        else:
            lex = [tuple((y >> i) & 1 for i in range(width)) for y in brute]
            assert x == brute[lex.index(min(lex))]


class TestMatVec:
    def test_identity(self):
        v = BitVector.from_coords([1, 1, 0])
        assert mat_vec(BitMatrix.identity(3), v) == v

    def test_c5_kernel_member_maps_to_zero(self):
        assert mat_vec(C5_CUT, BitVector.from_coords([0, 1, 0])).bits == 0

    def test_c5_vertex_zero_hits_row_one(self):
        # column 0 is vertex 0 of the cycle; only vertex 4's row sees it
        assert mat_vec(C5_CUT, BitVector.from_coords([1, 0, 0])).coords() == (0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec(C5_CUT, BitVector.from_coords([1, 0]))


class TestBitTypes:
    def test_vector_validation(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)
        with pytest.raises(ValueError):
            BitVector.from_indices(3, [3])

    def test_vector_round_trips(self):
        v = BitVector.from_indices(5, [0, 3])
        assert v.indices() == (0, 3)
        assert v.weight() == 2
        assert BitVector.from_coords(v.coords()) == v

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(2, (0b100,))
        with pytest.raises(ValueError):
            BitMatrix.from_dense([[1, 0], [1]])

    def test_transpose_entries(self):
        m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        t = m.transpose()
        for r, c in itertools.product(range(2), range(3)):
            assert m.entry(r, c) == t.entry(c, r)
