"""GF(2)/GF(3) linear algebra tests against a schoolbook eliminator."""

import re
import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforge.gf2 import (
    MatrixGFp,
    ShapeError,
    dump_matrix,
    parse_matrix,
    solve,
    _PACK_ENTRIES,
)
from geomforge.build import _subspaces
from oracles import (
    accumulate_entries,
    naive_rank,
    naive_span,
    naive_subspaces,
    nullspace_by_two_eliminations,
    rref2_by_column,
    subspace_count,
)


def petersen_incidence_rows():
    vertices = [tuple(sorted(c)) for c in combinations(range(5), 2)]
    edges = [
        (a, b)
        for a, b in combinations(vertices, 2)
        if not set(a) & set(b)
    ]
    return [[1 if v in e else 0 for e in edges] for v in vertices]


class TestRankNullspace:
    def test_identity(self):
        m = MatrixGFp.identity(2, 3)
        rank, basis = m.rank(), m.nullspace()
        assert rank == 3 and basis.rows == 0

    def test_petersen_incidence(self):
        m = MatrixGFp.from_rows(2, petersen_incidence_rows())
        rank, basis = m.rank(), m.nullspace()
        assert (rank, basis.rows) == (9, 6)
        for i in range(basis.rows):
            assert all(v == 0 for v in m.apply(basis.row(i)))

    def test_zero_matrix(self):
        m = MatrixGFp.zeros(2, 4, 7)
        rank, basis = m.rank(), m.nullspace()
        assert rank == 0 and basis.rows == 7

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            p = int(rng.choice([2, 3]))
            rows, cols = (int(x) for x in rng.integers(1, 40, size=2))
            m = MatrixGFp.from_rows(p, rng.integers(0, p, size=(rows, cols)).tolist())
            rank, basis = m.rank(), m.nullspace()
            assert rank + basis.rows == cols

    def test_nullspace_basis_is_canonical_echelon(self):
        m = MatrixGFp.from_rows(2, [[1, 1, 0, 1], [0, 1, 1, 0]])
        basis = m.nullspace()
        rows = basis.to_rows()
        # leading columns strictly increase and pivots are cleared above
        leads = [row.index(1) for row in rows]
        assert leads == sorted(leads) and len(set(leads)) == len(leads)
        for i, lead in enumerate(leads):
            for j in range(basis.rows):
                if j != i:
                    assert rows[j][lead] == 0

    def test_nullspace_eliminates_once(self, monkeypatch):
        calls = []
        eliminate = MatrixGFp._eliminate

        def counting(self, *args, **kwargs):
            calls.append(self)
            return eliminate(self, *args, **kwargs)

        monkeypatch.setattr(MatrixGFp, "_eliminate", counting)
        for p in (2, 3):
            calls.clear()
            MatrixGFp.from_rows(p, [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]]).nullspace()
            assert len(calls) == 1

    def test_nullspace_matches_two_elimination_oracle_across_words(self):
        # widths that leave a partial last word, so the reversed columns
        # are packed at other bit offsets than the original ones
        rng = np.random.default_rng(24)
        for p, rows, cols in [(2, 40, 130), (2, 70, 65), (2, 130, 190), (3, 50, 97), (3, 9, 140)]:
            dense = rng.integers(0, p, size=(rows, cols))
            dense[:, rng.integers(0, cols, size=cols // 4)] = 0  # free columns among the pivots
            m = MatrixGFp.from_rows(p, dense)
            assert m.nullspace() == nullspace_by_two_eliminations(m)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 12), st.integers(0, 12), st.data())
    def test_nullspace_matches_two_elimination_oracle(self, p, rows, cols, data):
        # zero-row and zero-column shapes included; a GF(3) payload stays
        # C-contiguous like every other one
        row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
        m = MatrixGFp.from_rows(p, data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)
        basis = m.nullspace()
        assert basis == nullspace_by_two_eliminations(m)
        assert basis._payload.flags.c_contiguous



class TestOracleComparison:
    def test_200_random_matrices_both_primes(self):
        rng = np.random.default_rng(20240809)
        for trial in range(200):
            p = 2 if trial % 2 == 0 else 3
            rows, cols = (int(x) for x in rng.integers(1, 101, size=2))
            dense = rng.integers(0, p, size=(rows, cols)).tolist()
            assert MatrixGFp.from_rows(p, dense).rank() == naive_rank(dense, p)

    def test_rank_of_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.choice([2, 3]))
            dense = rng.integers(0, p, size=(13, 29)).tolist()
            m = MatrixGFp.from_rows(p, dense)
            assert m.rank() == m.transpose().rank()

    def test_rank_invariant_under_permutation(self):
        rng = np.random.default_rng(6)
        dense = rng.integers(0, 2, size=(15, 20))
        m = MatrixGFp.from_rows(2, dense.tolist())
        shuffled = dense[rng.permutation(15)][:, rng.permutation(20)]
        assert m.rank() == MatrixGFp.from_rows(2, shuffled.tolist()).rank()

    def test_product_rank_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            da = rng.integers(0, 2, size=(12, 9))
            db = rng.integers(0, 2, size=(9, 14))
            a, b = MatrixGFp.from_rows(2, da.tolist()), MatrixGFp.from_rows(2, db.tolist())
            assert MatrixGFp.from_rows(2, da @ db).rank() <= min(a.rank(), b.rank())


class TestSolve:
    def test_identity(self):
        m = MatrixGFp.identity(2, 4)
        assert solve(m, [1, 0, 1, 1]) == [1, 0, 1, 1]

    def test_free_variables_zeroed(self):
        m = MatrixGFp.from_rows(2, [[1, 1]])
        assert solve(m, [1]) == [1, 0]

    def test_inconsistent(self):
        m = MatrixGFp.from_rows(2, [[1], [1]])
        assert solve(m, [1, 0]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            solve(MatrixGFp.identity(2, 3), [1, 0])

    @pytest.mark.parametrize("b", [[1.5, 2.2], [1.0, 0], [2**64, 0], [-(2**63) - 1, 0]])
    def test_non_integer_or_oversized_entries_rejected(self, b):
        # a cast to int64 used to truncate 1.5 to 1 and 2.2 to 2
        with pytest.raises(ValueError):
            solve(MatrixGFp.identity(3, 2), b)

    def test_bool_and_integer_entries_accepted(self):
        assert solve(MatrixGFp.identity(3, 2), [True, -1]) == [1, 2]
        assert solve(MatrixGFp.identity(3, 2), np.array([4, 5], dtype=np.uint8)) == [1, 2]

    def test_solution_verifies(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = int(rng.choice([2, 3]))
            m = MatrixGFp.from_rows(p, rng.integers(0, p, size=(8, 11)).tolist())
            x0 = rng.integers(0, p, size=11).tolist()
            b = m.apply(x0)
            x = solve(m, b)
            assert x is not None and m.apply(x) == b


class TestImageKernel:
    """The kernel of a map is ``nullspace()``, its image (column space)
    ``transpose().row_space()``."""

    def test_zero_map(self):
        z = MatrixGFp.zeros(2, 3, 3)
        assert z.nullspace().rows == 3 and z.transpose().row_space().rows == 0

    def test_identity_map(self):
        i = MatrixGFp.identity(2, 4)
        assert i.nullspace().rows == 0 and i.transpose().row_space().rows == 4

    def test_companion_plus_identity(self):
        # g the companion matrix of x^2 + x + 1 (order 3 on GF(2)^2): g + I
        a = MatrixGFp.from_rows(2, [[1, 1], [1, 0]])
        assert a.nullspace().rows == 0 and a.transpose().row_space().rows == 2

    def test_order3_coprime_split(self):
        # kernel(g+I) and image(g+I) meet trivially for order-3 permutation g
        from geomforge.perm import Permutation

        g = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5)])
        assert g.order() == 3
        n = 9
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] ^= 1
            rows[i][g.images[i]] ^= 1
        a = MatrixGFp.from_rows(2, rows)
        kernel, image = a.nullspace(), a.transpose().row_space()
        assert kernel.rows + image.rows == n
        stacked = MatrixGFp.from_rows(2, kernel.to_rows() + image.to_rows())
        assert stacked.rank() == kernel.rows + image.rows


class TestExchangeFormat:
    def test_roundtrip(self):
        m = MatrixGFp.from_rows(3, [[1, 2, 0], [0, 0, 1]])
        assert parse_matrix(dump_matrix(m)) == m

    def test_header_validation(self):
        with pytest.raises(ShapeError):
            parse_matrix("3 4\n")

    def test_entry_bounds(self):
        with pytest.raises(ShapeError):
            parse_matrix("2 2 2\n5 0 1\n")


class TestInputReduction:
    def test_from_entries_rejects_prime_5(self):
        with pytest.raises(ValueError):
            MatrixGFp.from_entries(5, 2, 2, [(0, 0, 1)])

    def test_parse_matrix_rejects_prime_5(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2 5\n0 0 1\n")

    @pytest.mark.parametrize("text", ["2 2 0\n0 0 1\n", "2 2 -2\n0 0 1\n", "0 0 1\n"])
    def test_parse_matrix_refuses_prime_before_arithmetic(self, text):
        # a zero prime reached numpy's remainder, which warned of a division
        # by zero before the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prime must be 2 or 3"):
                parse_matrix(text)

    @pytest.mark.parametrize("text", ["-1 -1 2\n", "-2 3 2\n", "3 -1 3\n0 0 1\n"])
    def test_parse_matrix_names_a_negative_header(self, text):
        # numpy's reshape or zeros used to answer with its own message
        header = text.splitlines()[0]
        with pytest.raises(ShapeError, match=f"header '{header}' gives a negative dimension"):
            parse_matrix(text)

    @pytest.mark.parametrize("prime, rows, cols, error, message", [
        (0, 2, 2, ValueError, "prime must be 2 or 3"),
        (2, -1, -1, ShapeError, "shape -1x-1 has a negative dimension"),
        (3, 2, -2, ShapeError, "shape 2x-2 has a negative dimension"),
        (2, -1, 2, ShapeError, "shape -1x2 has a negative dimension"),
    ])
    def test_from_entries_checks_prime_and_shape_first(self, prime, rows, cols, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                MatrixGFp.from_entries(prime, rows, cols, [(0, 0, 1)])

    @pytest.mark.parametrize("build, message", [
        (lambda: MatrixGFp.zeros(2, -1, 3), "shape -1x3 has a negative dimension"),
        (lambda: MatrixGFp.identity(3, -2), "shape -2x-2 has a negative dimension"),
    ], ids=["zeros", "identity"])
    def test_zeros_and_identity_name_a_negative_shape(self, build, message):
        # numpy answered with its own "negative dimensions are not allowed"
        with pytest.raises(ShapeError, match=message):
            build()

    @pytest.mark.parametrize("text, line", [
        ("2 2 2\n0 0 1.5", "0 0 1.5"),
        ("2 2.0 2\n", "2 2.0 2"),
        ("2 2 2\n0 x 1\n", "0 x 1"),
    ])
    def test_parse_matrix_quotes_a_non_integer_line(self, text, line):
        # int() answered with its bare "invalid literal" message
        with pytest.raises(ShapeError, match=re.escape(f"non-integer field in line {line!r}")):
            parse_matrix(text)

    def test_negative_gf3_entries_reduce(self):
        m = MatrixGFp.from_entries(3, 1, 2, [(0, 0, -1), (0, 1, -4)])
        assert m.to_rows() == [[2, 2]]

    @pytest.mark.parametrize("build", [
        lambda: MatrixGFp.from_rows(2, [[2**63]]),
        lambda: MatrixGFp.from_rows(3, [[0, -(2**63) - 1]]),
        lambda: MatrixGFp.from_entries(2, 1, 1, [(0, 0, 2**64)]),
        lambda: MatrixGFp.from_entries(3, 1, 1, [(2**64, 0, 1)]),
    ], ids=["rows-gf2", "rows-gf3", "entries-value", "entries-coordinate"])
    def test_entries_beyond_64_bits_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: MatrixGFp.from_rows(2, [[1.5, 2.7]]),
        lambda: MatrixGFp.from_rows(2, [[np.float32(1), 0]]),
        lambda: MatrixGFp.from_rows(3, np.array([[1.5, 2.7]])),
        lambda: MatrixGFp.from_entries(2, 1, 1, [(0, 0, 1.5)]),
        lambda: MatrixGFp.from_entries(3, 2, 2, [(0.9, 1.2, 2)]),
    ], ids=["rows-list", "rows-float32", "rows-array", "entries-value", "entries-coordinates"])
    def test_floats_rejected(self, build):
        # an int64 cast used to truncate them: [[1.5, 2.7]] became [[1, 0]] over
        # GF(2), and the coordinates (0.9, 1.2) named cell (0, 1)
        with pytest.raises(ValueError):
            build()

    def test_uint64_array_keeps_its_residues(self):
        # an int64 cast used to wrap 2**64 - 1 to -1, giving [[2, 2]]
        dense = np.array([[2**64 - 1, 2**63 + 1]], dtype=np.uint64)
        assert MatrixGFp.from_rows(3, dense).to_rows() == [[0, 0]]

    @pytest.mark.parametrize(
        "vector", [[0.5, 1.9], [1.0, 0], [np.float32(1), 0], [2**64, 0], [0, -(2**63) - 1]]
    )
    def test_apply_rejects_non_integer_or_oversized_entries(self, vector):
        # a cast to int64 used to truncate [0.5, 1.9] to [0, 1]
        with pytest.raises(ValueError):
            MatrixGFp.identity(2, 2).apply(vector)

    def test_apply_accepts_bools_and_integers(self):
        m = MatrixGFp.identity(3, 3)
        assert m.apply([True, -1, 2**62]) == [1, 2, 2**62 % 3]
        assert m.apply(np.array([3, 4, 5], dtype=np.uint64)) == [0, 1, 2]


class TestElementAccess:
    @pytest.mark.parametrize("prime", [2, 3])
    def test_get_reads_every_entry(self, prime):
        rows = [[1, 0, prime - 1], [0, 1, 1]]
        m = MatrixGFp.from_rows(prime, rows)
        assert [[m.get(r, c) for c in range(3)] for r in range(2)] == rows

    @pytest.mark.parametrize("prime", [2, 3])
    @pytest.mark.parametrize("r, c", [(0, 3), (0, 63), (0, 64), (0, -1), (-1, 0), (1, 0)])
    def test_get_outside_the_matrix_raises(self, prime, r, c):
        m = MatrixGFp.from_rows(prime, [[1, 1, 1]])
        with pytest.raises(IndexError, match=rf"\({r},{c}\) outside 1x3"):
            m.get(r, c)


class TestFromRows:
    @pytest.mark.parametrize("dtype, low, high", [(np.uint8, 0, 256), (np.int64, -300, 301)])
    @pytest.mark.parametrize("prime", [2, 3])
    def test_ndarray_input(self, prime, dtype, low, high):
        dense = np.random.default_rng(4).integers(low, high, size=(9, 70)).astype(dtype)
        assert MatrixGFp.from_rows(prime, dense).to_rows() == (dense.astype(np.int64) % prime).tolist()

    def test_empty_ndarray_keeps_its_width(self):
        m = MatrixGFp.from_rows(2, np.zeros((0, 5), dtype=np.uint8), cols=5)
        assert (m.rows, m.cols, m.rank()) == (0, 5, 0)

    @pytest.mark.parametrize("rows", [
        [[1, 0], [1]],
        [[[1], [0]]],
        [[1, [0, 1]]],
        np.zeros((2, 2, 2), dtype=np.int64),
    ], ids=["ragged", "nested", "nested-ragged", "3-d-array"])
    def test_rows_that_are_not_a_matrix_rejected(self, rows):
        with pytest.raises(ShapeError):
            MatrixGFp.from_rows(2, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([
        (np.bool_, 0, 1), (np.uint8, 0, 255), (np.int64, -(2**63), 2**63 - 1), (np.uint64, 0, 2**64 - 1),
    ]), st.integers(0, 6), st.integers(1, 70), st.data())
    def test_arrays_reduce_exactly(self, p, kind, rows, cols, data):
        dtype, low, high = kind
        row = st.lists(st.integers(low, high), min_size=cols, max_size=cols)
        values = data.draw(st.lists(row, min_size=rows, max_size=rows))
        got = MatrixGFp.from_rows(p, np.array(values, dtype=dtype).reshape(rows, cols), cols=cols)
        assert (got.rows, got.cols) == (rows, cols)
        assert got.to_rows() == [[v % p for v in row] for row in values]

    def test_rows_converted_across_blocks(self):
        # two rows per int64 block: five rows take three blocks
        dense = np.random.default_rng(3).integers(-4, 5, size=(5, _PACK_ENTRIES // 2))
        assert np.array_equal(MatrixGFp.from_rows(3, dense)._dense(), dense % 3)
        rows = dense.tolist()
        rows[4][7] = [1, 2]
        with pytest.raises(ShapeError):
            MatrixGFp.from_rows(3, rows)


class TestFromEntries:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 9), st.integers(1, 9), st.data())
    def test_matches_dict_accumulation(self, p, rows, cols, data):
        # few cells and many triples, so coordinates repeat; some fall outside
        triple = st.tuples(st.integers(-1, rows), st.integers(-1, cols), st.integers(-(2**62), 2**62))
        entries = data.draw(st.lists(triple, max_size=40))
        want = accumulate_entries(p, rows, cols, entries)
        if want is None:
            with pytest.raises(ShapeError):
                MatrixGFp.from_entries(p, rows, cols, entries)
        else:
            assert MatrixGFp.from_entries(p, rows, cols, entries).to_rows() == want

    def test_peak_memory_is_about_one_byte_per_entry(self):
        import tracemalloc

        rng = np.random.default_rng(12)
        entries = list(zip(rng.integers(0, 3000, 9000).tolist(), rng.integers(0, 3000, 9000).tolist(),
                           rng.integers(-5, 5, 9000).tolist()))
        tracemalloc.start()
        try:
            m = MatrixGFp.from_entries(3, 3000, 3000, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.rows == m.cols == 3000
        # a dense int64 copy of 3000 x 3000 alone takes 72 MB
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


@st.composite
def matrices(draw, max_rows=24):
    """(prime, rows) with widths 1..130, crossing the 64-bit word boundaries."""
    p = draw(st.sampled_from([2, 3]))
    cols = draw(st.integers(1, 130))
    nrows = draw(st.integers(0, max_rows))
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    return p, cols, draw(st.lists(row, min_size=nrows, max_size=nrows))


def is_rref(rows):
    leads = []
    for row in rows:
        nz = [c for c, v in enumerate(row) if v]
        if not nz or row[nz[0]] != 1:
            return False
        leads.append(nz[0])
    return leads == sorted(set(leads)) and all(
        rows[j][lead] == 0 for i, lead in enumerate(leads) for j in range(len(rows)) if j != i
    )


@st.composite
def gf2_eliminations(draw):
    """Dense 0/1 arrays of up to 200 x 300, so that several 8-column blocks
    and 64-bit words are crossed: random of some density or drawn from the
    span of a few rows, with some rows and columns zeroed."""
    rows = draw(st.one_of(st.integers(0, 7), st.integers(8, 200)))
    cols = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.5, 0.1, 0.01]))
    span = draw(st.one_of(st.none(), st.integers(0, 12)))
    if span is None:
        dense = rng.random((rows, cols)) < density
    else:
        dense = rng.integers(0, 2, size=(rows, span)) @ (rng.random((span, cols)) < density) % 2
    zeroed = draw(st.sampled_from([0.0, 0.2]))
    dense[rng.random(rows) < zeroed] = 0
    dense[:, rng.random(cols) < zeroed] = 0
    return dense.astype(np.uint8)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(gf2_eliminations())
    def test_rref_matches_per_column_oracle(self, dense):
        m = MatrixGFp.from_rows(2, dense, cols=dense.shape[1])
        red, pivots = m.rref()
        work = m._payload.copy()
        assert pivots == rref2_by_column(work, *dense.shape)
        assert np.array_equal(red._payload, work)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_matches_oracle(self, case):
        p, cols, rows = case
        m = MatrixGFp.from_rows(p, rows, cols=cols)
        assert m.rank() == len(m.rref()[1]) == naive_rank(rows, p)

    @settings(max_examples=60, deadline=None)
    @given(gf2_eliminations(), st.sampled_from([2, 3]))
    def test_echelon_rank_counts_the_rref_pivots(self, dense, p):
        # 0/1 entries are a matrix over GF(3) as well
        m = MatrixGFp.from_rows(p, dense, cols=dense.shape[1])
        rank = m.rank()
        assert rank == len(m.rref()[1])
        if p == 2:
            assert rank == len(rref2_by_column(m._payload.copy(), *dense.shape))
        elif dense.size <= 4000:
            assert rank == naive_rank(dense.tolist(), 3)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 130), st.data())
    def test_from_rows_to_rows_reduces(self, p, cols, data):
        # entries in 0..255 are read as bytes; any other row takes the int64 blocks
        entry = st.one_of(st.integers(-300, 300), st.sampled_from([-1, 256, 2**62]),
                          st.integers(-(2**63), 2**63 - 1))
        rows = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=8))
        got = MatrixGFp.from_rows(p, rows, cols=cols).to_rows()
        assert got == [[v % p for v in row] for row in rows]

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_double_transpose(self, case):
        p, cols, rows = case
        m = MatrixGFp.from_rows(p, rows, cols=cols)
        assert m.transpose().transpose() == m

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_dump_parse_roundtrip(self, case):
        p, cols, rows = case
        m = MatrixGFp.from_rows(p, rows, cols=cols)
        assert parse_matrix(dump_matrix(m)) == m

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_nullspace_is_canonical_kernel(self, case):
        p, cols, rows = case
        m = MatrixGFp.from_rows(p, rows, cols=cols)
        basis = m.nullspace()
        kernel = basis.to_rows()
        assert basis.rows == cols - naive_rank(rows, p)
        assert is_rref(kernel)
        assert all(not any(m.apply(x)) for x in kernel)


class TestSubspaces:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=8))
    def test_matches_naive_enumeration(self, vectors):
        span = naive_span(vectors)
        d = len(span).bit_length() - 1
        for k in range(d + 2):
            subs = _subspaces(vectors, k)
            assert subs == sorted(set(subs))
            for sub in subs:
                assert len(sub) == 2**k - 1 and set(sub) <= span
                assert all(a ^ b in sub for a in sub for b in sub if a != b)
            assert len(subs) == subspace_count(d, k)
            # the oracle closes every k-subset of the span: keep it small
            if comb(len(span) - 1, k) <= 20_000:
                assert {frozenset(s) for s in subs} == naive_subspaces(vectors, k)


class TestPerformance:
    def test_rank_2000_under_one_second(self):
        import time

        rng = np.random.default_rng(99)
        dense = rng.integers(0, 2, size=(2000, 2000), dtype=np.uint8)
        m = MatrixGFp.from_rows(2, dense.tolist())
        start = time.monotonic()
        rank = m.rank()
        elapsed = time.monotonic() - start
        assert rank >= 1990
        assert elapsed < 1.0, f"rank took {elapsed:.2f}s"

    def test_rank_4000_under_two_seconds(self):
        import time

        rng = np.random.default_rng(99)
        m = MatrixGFp.from_rows(2, rng.integers(0, 2, size=(4000, 4000), dtype=np.uint8))
        start = time.monotonic()
        rank = m.rank()
        elapsed = time.monotonic() - start
        assert rank >= 3990
        assert elapsed < 2.0, f"rank took {elapsed:.2f}s"
