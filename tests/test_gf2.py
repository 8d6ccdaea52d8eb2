import random

from hypothesis import given, settings
from hypothesis import strategies as st

from graphqss.gf2 import null_basis, reduce_rows
from graphqss.graphs import family

# the paper's cut system of the 5-cycle for the coalition B = {0, 1, 2}: the
# rows of vertices 3 and 4 over the columns of B, in vertex coordinates
C5 = family("cycle", 5)
C5_B = 0b00111
C5_CUT_ROWS = [(C5.adj[3], 0), (C5.adj[4], 0)]


def _parity(row, x):
    return (row & x).bit_count() & 1


def _subsets(mask):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _lex_key(x, width):
    # coordinate 0 most significant
    return tuple((x >> i) & 1 for i in range(width))


def _rank(rows, mask):
    return len(reduce_rows(rows, mask)[0])


def _transpose(rows, mask):
    """Columns of ``mask`` as rows over the row indices."""
    cols = [c for c in range(mask.bit_length()) if (mask >> c) & 1]
    return [(sum(((r >> c) & 1) << i for i, (r, _) in enumerate(rows)), 0) for c in cols]


def _has_gap(mask):
    low = mask >> ((mask & -mask).bit_length() - 1)  # trailing zeros dropped
    return low & (low + 1) != 0


@st.composite
def systems(draw, width=10, max_rows=7, gapped=None):
    """Rows in full coordinates over a column mask.

    The mask is either a full contiguous range 0..w-1 (possibly empty) or a
    mask with at least one gap; rows carry bits outside the mask too.
    """
    if gapped is None:
        gapped = draw(st.booleans())
    if gapped:
        mask = draw(st.integers(1, (1 << width) - 1).filter(_has_gap))
    else:
        mask = (1 << draw(st.integers(0, width))) - 1
    row = st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1))
    return width, mask, draw(st.lists(row, max_size=max_rows))


def _check_against_enumeration(width, mask, rows):
    """Lex-min solution and kernel span against every subset of the mask."""
    pivots, x = reduce_rows(rows, mask)
    brute = [y for y in _subsets(mask) if all(_parity(c, y) == b for c, b in rows)]
    if x is None:
        assert brute == []
    else:
        assert x == min(brute, key=lambda y: _lex_key(y, width))
    kernel = {y for y in _subsets(mask) if all(_parity(c, y) == 0 for c, _ in rows)}
    basis = null_basis(pivots, mask)
    assert len(kernel) == 1 << len(basis) == 1 << (mask.bit_count() - len(pivots))
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    assert span == kernel


class TestRank:
    def test_identity(self):
        assert _rank([(1 << i, 0) for i in range(3)], 0b111) == 3

    def test_duplicate_rows(self):
        assert _rank([(0b11, 0), (0b11, 0)], 0b11) == 1

    def test_c5_cut(self):
        # vertex 3 sees only vertex 2 of B, vertex 4 only vertex 0
        pivots, _ = reduce_rows(C5_CUT_ROWS, C5_B)
        assert pivots == {2: 0b100, 0: 0b001}

    def test_empty(self):
        assert reduce_rows([], 0) == ({}, 0)
        assert reduce_rows([(0b111, 0)] * 3, 0) == ({}, 0)
        assert reduce_rows([], 0b111) == ({}, 0)

    @given(systems())
    @settings(max_examples=100, deadline=None)
    def test_rank_equals_transpose_rank(self, system):
        _, mask, rows = system
        assert _rank(rows, mask) == _rank(_transpose(rows, mask), (1 << len(rows)) - 1)

    @given(systems())
    @settings(max_examples=100, deadline=None)
    def test_rank_plus_kernel_dim(self, system):
        _, mask, rows = system
        pivots, _ = reduce_rows(rows, mask)
        assert len(pivots) + len(null_basis(pivots, mask)) == mask.bit_count()

    def test_rank_nullity_large_random(self):
        rng = random.Random(64)
        for i in range(1000):
            width = rng.randint(0, 64)
            mask = (1 << width) - 1 if i % 2 else rng.randrange(1 << width)
            rows = [(rng.randrange(1 << 64), rng.randint(0, 1)) for _ in range(rng.randint(0, 64))]
            pivots, _ = reduce_rows(rows, mask)
            r = len(pivots)
            assert r + len(null_basis(pivots, mask)) == mask.bit_count()
            assert r == _rank(_transpose(rows, mask), (1 << len(rows)) - 1)
            assert r <= min(len(rows), mask.bit_count())


class TestSolve:
    def test_identity(self):
        _, x = reduce_rows([(0b001, 1), (0b010, 0), (0b100, 1)], 0b111)
        assert x == 0b101

    def test_lex_smallest_tie_break(self):
        # both x = {0} and x = {1} solve; coordinate 0 is most significant
        _, x = reduce_rows([(0b11, 1)], 0b11)
        assert x == 0b10

    def test_inconsistent(self):
        _, x = reduce_rows([(0b01, 1), (0b01, 0)], 0b11)
        assert x is None

    def test_zero_rows(self):
        assert reduce_rows([], 0b1111) == ({}, 0)
        # over an empty mask a row with right-hand side 1 reads 0 = 1
        assert reduce_rows([(0b1111, 1)], 0) == ({}, None)

    @given(systems(max_rows=6, gapped=False))
    @settings(max_examples=150, deadline=None)
    def test_solution_is_lex_minimal_among_all(self, system):
        _check_against_enumeration(*system)

    def test_solve_against_enumeration_wider(self):
        rng = random.Random(10)
        for i in range(200):
            width = rng.randint(0, 10)
            mask = (1 << width) - 1 if i % 2 else rng.randrange(1 << width)
            rows = [(rng.randrange(1 << 10), rng.randint(0, 1)) for _ in range(rng.randint(0, 10))]
            _check_against_enumeration(width, mask, rows)


class TestMatVec:
    """Matrix-vector products as parities of rows against a vertex mask."""

    def test_identity(self):
        x = 0b011
        assert sum(_parity(1 << i, x) << i for i in range(3)) == x

    def test_c5_kernel_member_maps_to_zero(self):
        assert [_parity(c, 0b010) for c, _ in C5_CUT_ROWS] == [0, 0]

    def test_c5_vertex_zero_hits_row_one(self):
        # column 0 is vertex 0 of the cycle; only vertex 4's row sees it
        assert [_parity(c, 0b001) for c, _ in C5_CUT_ROWS] == [0, 1]


class TestKernel:
    def test_identity_trivial_kernel(self):
        pivots, _ = reduce_rows([(0b01, 0), (0b10, 0)], 0b11)
        assert null_basis(pivots, 0b11) == []

    def test_c5_cut_kernel(self):
        # D = {1}: vertex 1 and its neighbors 0, 2 stay inside B
        pivots, _ = reduce_rows(C5_CUT_ROWS, C5_B)
        assert null_basis(pivots, C5_B) == [0b010]
        assert all(_parity(c, 0b010) == 0 for c, _ in C5_CUT_ROWS)

    def test_zero_matrix_full_kernel(self):
        pivots, _ = reduce_rows([(0, 0)], 0b111)
        assert null_basis(pivots, 0b111) == [0b001, 0b010, 0b100]

    @given(systems())
    @settings(max_examples=100, deadline=None)
    def test_kernel_vectors_annihilate(self, system):
        _, mask, rows = system
        pivots, _ = reduce_rows(rows, mask)
        for v in null_basis(pivots, mask):
            assert v & ~mask == 0
            assert all(_parity(c, v) == 0 for c, _ in rows)

    def test_each_vector_owns_its_free_column(self):
        # access.small_witness stops its level walk on this: an XOR of j basis
        # vectors, with or without the solution, sets exactly j free columns
        rng = random.Random(31)
        solved = 0
        for i in range(500):
            width = rng.randint(0, 40)
            mask = (1 << width) - 1 if i % 2 else rng.randrange(1 << width)
            rows = [(rng.randrange(1 << 40), rng.randint(0, 1))
                    for _ in range(rng.randint(0, width))]
            pivots, x = reduce_rows(rows, mask)
            free = [f for f in range(width) if (mask >> f) & 1 and f not in pivots]
            free_mask = sum(1 << f for f in free)
            assert [v & free_mask for v in null_basis(pivots, mask)] == [1 << f for f in free]
            if x is not None:
                assert x & free_mask == 0
                solved += 1
        assert solved > 100

    @given(systems(max_rows=6, gapped=False))
    @settings(max_examples=80, deadline=None)
    def test_kernel_spans_whole_nullspace(self, system):
        width, mask, rows = system
        _check_against_enumeration(width, mask, [(c, 0) for c, _ in rows])


class TestReduceRows:
    """The kernel in vertex coordinates: masks with gaps, as the access module passes."""

    @given(systems(gapped=True))
    @settings(max_examples=200, deadline=None)
    def test_against_enumeration_in_vertex_coordinates(self, system):
        _check_against_enumeration(*system)
