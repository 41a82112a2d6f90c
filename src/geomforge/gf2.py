"""Dense linear algebra over GF(2) and GF(3).

Payload layout.  A GF(2) matrix is bit-packed: an ndarray of uint64 of shape
(rows, ceil(cols/64)), bit j of word w holding column 64*w + j, padding bits
zero.  A GF(3) matrix is an ndarray of uint8 with one byte per entry.

Every operation except elimination goes through one bridge between the
payload and a dense (rows, cols) uint8 array of entries: ``_from_dense``
packs with ``np.packbits(..., bitorder="little")`` for GF(2) and keeps the
bytes for GF(3); ``_dense`` undoes it.  Construction, transposition, products,
nullspaces, solving and the text format are then written once for both
primes on dense arrays.  Only the bridge, ``get`` and ``_eliminate`` are per
prime: the two elimination kernels work on the payload itself.  GF(3) clears
one pivot column at a time.  GF(2) works in blocks of 8 columns, each inside
one 64-bit word, and clears a block's pivot columns in every row with one
gather from a Four-Russians table.  Which rows it picks to build a table
does not change the result: the reduced row echelon form is unique, so the
payload and the pivot columns, in natural order, depend on the matrix alone.
``rank`` runs the same kernels in echelon mode: each pivot column is cleared
only below its pivot row, and the pivots are the same.

``nullspace`` eliminates once, on the matrix with its columns reversed.  In
those coordinates the basis vector of a free column f is 1 at f, 0 at every
other free column, and nonzero only at pivots left of f, so f is its last
nonzero entry.  Reversing the basis's columns makes f its leading 1, in a
column where every other basis vector is 0; reversing its rows puts the
leads in increasing order.  That is the reduced echelon basis of the
nullspace, which is unique, so no second elimination is needed.

Entries reach the uint8 array without a dense int64 copy where they can.
``from_rows`` reduces an array of bools or integers as it is and reads
nested rows of ints in 0..255 in one pass as bytes; other rows are converted
in int64 blocks that refuse floats.  ``from_entries`` sums the residues per
distinct cell, so its only full-size array is the uint8 result.

This is the only module that imports numpy at module level; the others
import it, with this module, only where they build a matrix.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "MatrixGFp",
    "ShapeError",
    "solve",
    "parse_matrix",
    "dump_matrix",
]


class ShapeError(ValueError):
    """Matrix dimensions do not match the requested operation."""


_ONE = np.uint64(1)
_PACK_ENTRIES = 1 << 18  # entries per int64 block in ``from_rows``
_INT64_MAX = np.iinfo(np.int64).max
_BLOCK = 8  # GF(2) columns cleared per table gather; divides 64, so a block sits in one word
_LOW = (1 << _BLOCK) - 1
# [q, v]: bit q of the block value v
_BIT_ROWS = np.array([[v >> q & 1 for v in range(1 << _BLOCK)] for q in range(_BLOCK)])


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ShapeError(f"shape {rows}x{cols} has a negative dimension")


def _residues(vector: Sequence[int], prime: int) -> np.ndarray:
    """A vector of bools or integers reduced mod prime.  Floats, which an
    integer cast would truncate, and Python ints outside the signed 64-bit
    range (numpy infers a float or object array for those) raise ValueError."""
    values = np.asarray(vector)
    if values.dtype.kind not in "biu":
        raise ValueError(
            f"vector entries must be bools or integers in the 64-bit range, not {values.dtype}"
        )
    return (values % prime).astype(np.int64)


def _reduce_in_blocks(rows: Sequence[Sequence[int]], cols: int, prime: int) -> np.ndarray:
    """Equal-length rows of integers reduced mod prime into a uint8 array,
    converted in blocks of about ``_PACK_ENTRIES`` entries, which bounds the
    int64 copy.  A block that numpy reads as floats or objects, or as
    integers outside the signed 64-bit range, raises ValueError: a cast to
    int64 would truncate floats."""
    dense = np.empty((len(rows), cols), dtype=np.uint8)
    step = max(1, _PACK_ENTRIES // max(cols, 1))
    for start in range(0, len(rows), step):
        try:
            block = np.array(rows[start : start + step])
        except ValueError as exc:  # entries that are sequences of unequal lengths
            raise ShapeError(f"rows do not form a {len(rows)}x{cols} matrix: {exc}") from exc
        if block.ndim != 2:
            raise ShapeError(f"rows do not form a {len(rows)}x{cols} matrix: entries are sequences")
        if block.size and (block.dtype.kind not in "biu" or block.dtype == np.uint64 and block.max() > _INT64_MAX):
            raise ValueError(f"entries must be bools or integers in the 64-bit range, not {block.dtype}")
        dense[start : start + step] = block % prime
    return dense


class MatrixGFp:
    """Immutable dense matrix over GF(2) or GF(3); see the module docstring
    for the payload layout."""

    def __init__(self, prime: int, rows: int, cols: int, payload: np.ndarray):
        if prime not in (2, 3):
            raise ValueError("prime must be 2 or 3")
        self.prime = prime
        self.rows = rows
        self.cols = cols
        self._payload = payload
        self._payload.flags.writeable = False

    # -- the payload bridge ---------------------------------------------------

    @classmethod
    def _from_dense(cls, prime: int, array: np.ndarray) -> "MatrixGFp":
        """Matrix from a (rows, cols) uint8 array of entries reduced mod prime."""
        rows, cols = array.shape
        if prime != 2:
            return cls(prime, rows, cols, array)
        packed = np.zeros((rows, 8 * ((cols + 63) // 64)), dtype=np.uint8)
        packed[:, : (cols + 7) // 8] = np.packbits(array, axis=1, bitorder="little")
        return cls(2, rows, cols, packed.view("<u8").astype(np.uint64, copy=False))

    def _dense(self) -> np.ndarray:
        """The entries as a (rows, cols) uint8 array (read-only for GF(3))."""
        if self.prime != 2:
            return self._payload
        octets = self._payload.astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(octets, axis=1, count=self.cols, bitorder="little")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, prime: int, rows: int, cols: int) -> "MatrixGFp":
        _check_shape(rows, cols)
        return cls._from_dense(prime, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, prime: int, n: int) -> "MatrixGFp":
        _check_shape(n, n)
        return cls._from_dense(prime, np.eye(n, dtype=np.uint8))

    @classmethod
    def from_rows(cls, prime: int, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "MatrixGFp":
        """Matrix from equal-length rows of integers (nested sequences or a
        2-D array), reduced mod prime.  An array of bools or integers is
        reduced straight into bytes.  Nested rows of ints in 0..255 are read
        in one pass as bytes; any other rows (entries outside 0..255, floats,
        nested entries) go through ``_reduce_in_blocks``, which refuses
        floats and integers outside the signed 64-bit range."""
        if cols is None:
            cols = len(rows[0]) if len(rows) else 0
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "biu":
            if rows.ndim != 2 or (len(rows) and rows.shape[1] != cols):
                raise ShapeError(f"a {rows.shape} array is not a matrix with {cols} columns")
            dense = np.remainder(rows, prime, out=np.empty(rows.shape, np.uint8), casting="unsafe")
        else:
            if any(len(row) != cols for row in rows):
                raise ShapeError("ragged row lengths")
            try:
                dense = np.frombuffer(bytearray(chain.from_iterable(rows)), dtype=np.uint8)
            except (TypeError, ValueError):  # an entry is not an int in 0..255
                dense = _reduce_in_blocks(rows, cols, prime)
            else:
                dense %= prime
        return cls._from_dense(prime, dense.reshape(len(rows), cols))

    @classmethod
    def from_entries(cls, prime: int, rows: int, cols: int, entries: Iterable[tuple[int, int, int]]) -> "MatrixGFp":
        """Build from (row, col, value) coordinate triples of integers;
        repeated coordinates add up.  Floats raise ValueError.  The residues
        are summed per distinct cell, so the only rows x cols array is the
        uint8 result.  The prime and the shape are checked before any
        arithmetic."""
        if prime not in (2, 3):
            raise ValueError("prime must be 2 or 3")
        _check_shape(rows, cols)
        listed = [(r, c, v) for r, c, v in entries]
        triples = np.array(listed, dtype=None if listed else np.int64).reshape(-1, 3)
        if triples.dtype.kind not in "biu":
            raise ValueError(f"entries must be integers in the 64-bit range, not {triples.dtype}")
        r, c, v = triples.T
        outside = np.flatnonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
        if outside.size:
            i = outside[0]
            raise ShapeError(f"entry ({r[i]},{c[i]}) outside {rows}x{cols}")
        # one sum per run of equal cells in sorted order; np.unique with
        # return_inverse does the same but raises peak RSS by about 0.6 MB
        # on its first call
        cells = r.astype(np.int64) * cols + c.astype(np.int64)
        order = np.argsort(cells)
        cells = cells[order]
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        dense = np.zeros(rows * cols, dtype=np.uint8)
        dense[cells[starts]] = np.add.reduceat((v % prime)[order], starts, dtype=np.int64) % prime
        return cls._from_dense(prime, dense.reshape(rows, cols))

    # -- element access -------------------------------------------------------

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if self.prime == 2:
            return int((self._payload[r, c >> 6] >> np.uint64(c & 63)) & _ONE)
        return int(self._payload[r, c])

    def row(self, r: int) -> list[int]:
        return self._dense()[r].tolist()

    def to_rows(self) -> list[list[int]]:
        return self._dense().tolist()

    def transpose(self) -> "MatrixGFp":
        return MatrixGFp._from_dense(self.prime, self._dense().T)

    def apply(self, vector: Sequence[int]) -> list[int]:
        """Matrix-vector product M @ v."""
        if len(vector) != self.cols:
            raise ShapeError("vector length does not match column count")
        v = _residues(vector, self.prime)
        return (self._dense().astype(np.int64) @ v % self.prime).tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGFp)
            and self.prime == other.prime
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self._payload, other._payload))
        )

    def __repr__(self) -> str:
        return f"MatrixGFp(p={self.prime}, {self.rows}x{self.cols})"

    # -- elimination ----------------------------------------------------------

    def _eliminate(self, echelon: bool = False) -> tuple[np.ndarray, list[int]]:
        """A copy of the payload eliminated by the prime's kernel, and its
        pivot columns."""
        work = self._payload.copy()
        kernel = _rref2_inplace if self.prime == 2 else _rref3_inplace
        return work, kernel(work, self.rows, self.cols, echelon)

    def rref(self) -> tuple["MatrixGFp", list[int]]:
        """Reduced row echelon form and its pivot columns (deterministic)."""
        work, pivots = self._eliminate()
        return MatrixGFp(self.prime, self.rows, self.cols, work), pivots

    def rank(self) -> int:
        """Number of pivot columns, read off a row echelon form: the kernel
        clears each pivot column only below its pivot row and stops there,
        with no reduced form made."""
        return len(self._eliminate(echelon=True)[1])

    def nullspace(self) -> "MatrixGFp":
        """Canonical basis of the right nullspace, one vector per row, in
        reduced echelon form, from one elimination of the column-reversed
        matrix; see the module docstring."""
        red, pivots = MatrixGFp._from_dense(self.prime, self._dense()[:, ::-1]).rref()
        free = np.setdiff1d(np.arange(self.cols), pivots)
        basis = np.zeros((free.size, self.cols), dtype=np.uint8)
        basis[np.arange(free.size), free] = 1
        # row f solves the pivot rows with x_f = 1: x_p = -red[r, f]
        basis[:, pivots] = (self.prime - red._dense()[: len(pivots), free].T) % self.prime
        return MatrixGFp._from_dense(self.prime, np.ascontiguousarray(basis[::-1, ::-1]))

    def row_space(self) -> "MatrixGFp":
        """Canonical echelon basis of the row space."""
        red, pivots = self.rref()
        return MatrixGFp(self.prime, len(pivots), self.cols, red._payload[: len(pivots)])


def _rref2_inplace(work: np.ndarray, rows: int, cols: int, echelon: bool = False) -> list[int]:
    """Four-Russians Gauss-Jordan elimination (Albrecht, Bard and Hart, ACM
    TOMS 36(3), 2010), one block of ``_BLOCK`` columns at a time.

    Rows r.. are zero left of the block.  ``_block_basis`` picks k of them
    whose block values span those of all rows r..; the leading bits of the
    span's reduced echelon basis are the block's pivot columns.  One gather
    from the table of all XOR combinations of the picked rows then clears
    the pivot columns in every row, which zeroes rows r.. inside the block,
    and the reduced pivot rows take places r..r+k-1.  Only rows with a bit
    set in a pivot column are touched, so sparse matrices stay cheap.  With
    ``echelon`` set, the gather clears only rows r.. and the result is a row
    echelon form with the same pivot columns."""
    pivots: list[int] = []
    r = 0
    for start in range(0, cols, _BLOCK):
        if r >= rows:
            break
        w = start >> 6
        bits = (work[:, w] >> np.uint64(start & 63)).astype(np.uint8)
        picked, basis = _block_basis(bits, r, min(_BLOCK, cols - start, rows - r))
        if not picked:
            continue
        k = len(picked)
        table = np.zeros((1 << k, work.shape[1] - w), dtype=np.uint64)
        for j, row in enumerate(picked):
            np.bitwise_xor(table[: 1 << j], work[row, w:], out=table[1 << j : 2 << j])
        leads = sorted(basis)
        masks = np.array([basis[lead] >> _BLOCK for lead in leads])
        # block value -> the combination that agrees with it on every lead
        lookup = np.bitwise_xor.reduce(_BIT_ROWS[leads] * masks[:, None], axis=0)
        reduced = table[masks]
        low = r if echelon else 0
        index = lookup[bits[low:]]
        hit = low + np.flatnonzero(index)  # rows with a bit set in a pivot column
        work[hit, w:] ^= table[index[hit - low]]
        # picked rows are zero now; rows displaced from r..r+k-1 fill them
        holes = [row for row in picked if row >= r + k]
        if holes:
            work[holes] = work[[row for row in range(r, r + k) if row not in picked]]
        work[r : r + k, w:] = reduced
        pivots.extend(start + lead for lead in leads)
        r += k
    return pivots


def _block_basis(bits: np.ndarray, r: int, full: int) -> tuple[list[int], dict[int, int]]:
    """Rows r.. whose block values span those of all rows r.., and the span's
    reduced echelon basis: leading bit -> basis value, with the mask over the
    picked rows that sum to it in the bits above ``_BLOCK``.  The search
    stops once the span has dimension ``full``, the most it can have."""
    basis: dict[int, int] = {}
    picked: list[int] = []
    for i, x in _candidates(bits, r):
        for lead, b in basis.items():
            if x >> lead & 1:
                x ^= b
        if not x & _LOW:
            continue
        x ^= 1 << (_BLOCK + len(picked))
        picked.append(i)
        lead = (x & -x).bit_length() - 1
        for other, b in basis.items():
            if b >> lead & 1:
                basis[other] = b ^ x
        basis[lead] = x
        if len(picked) == full:
            break
    return picked, basis


def _candidates(bits: np.ndarray, r: int):
    """(row, block value) for rows r.., in row order: the next ``2 * _BLOCK``
    rows, which span a dense block, then the first row of each distinct
    value, computed only if the span is still short of full."""
    yield from enumerate(bits[r : r + 2 * _BLOCK].tolist(), r)
    first = np.sort(np.unique(bits[r:], return_index=True)[1]) + r
    yield from zip(first.tolist(), bits[first].tolist())


def _rref3_inplace(work: np.ndarray, rows: int, cols: int, echelon: bool = False) -> list[int]:
    """Gauss-Jordan elimination over GF(3), one pivot column at a time; with
    ``echelon`` set, each pivot column is cleared only below its pivot row.
    The pivot row is zero left of its pivot, so only columns c.. change."""
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        if work[r, c] == 2:  # inverse of 2 mod 3 is 2
            work[r, c:] = work[r, c:] * 2 % 3
        low = r + 1 if echelon else 0
        hits = low + np.flatnonzero(work[low:, c])
        hits = hits[hits != r]
        if hits.size:
            # x - f y = x + (3 - f) y mod 3, and 2 + 2 * 2 fits in a byte
            work[hits, c:] = (work[hits, c:] + (3 - work[hits, c])[:, None] * work[r, c:]) % 3
        pivots.append(c)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# spec-level operations


def solve(matrix: MatrixGFp, b: Sequence[int]) -> Optional[list[int]]:
    """Solve M x = b; canonical solution has all free variables zero.
    Returns None when b is outside the column space."""
    if len(b) != matrix.rows:
        raise ShapeError("right-hand side length does not match row count")
    rhs = _residues(b, matrix.prime).astype(np.uint8)
    augmented = MatrixGFp._from_dense(matrix.prime, np.hstack([matrix._dense(), rhs[:, None]]))
    red, pivots = augmented.rref()
    if matrix.cols in pivots:
        return None
    x = np.zeros(matrix.cols, dtype=np.uint8)
    x[pivots] = red._dense()[: len(pivots), matrix.cols]
    return x.tolist()


# ---------------------------------------------------------------------------
# coordinate text exchange format: "rows cols prime" then "r c v" per entry


def parse_matrix(text: str) -> MatrixGFp:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ShapeError("empty matrix file")
    head = _integer_fields(lines[0])
    if len(head) != 3:
        raise ShapeError("header must be 'rows cols prime'")
    rows, cols, prime = head
    if rows < 0 or cols < 0:
        raise ShapeError(f"header {lines[0]!r} gives a negative dimension")
    entries = []
    for ln in lines[1:]:
        parts = _integer_fields(ln)
        if len(parts) != 3:
            raise ShapeError(f"bad coordinate line: {ln!r}")
        entries.append(parts)
    return MatrixGFp.from_entries(prime, rows, cols, entries)


def _integer_fields(line: str) -> list[int]:
    try:
        return [int(x) for x in line.split()]
    except ValueError:
        raise ShapeError(f"non-integer field in line {line!r}") from None


def dump_matrix(matrix: MatrixGFp) -> str:
    dense = matrix._dense()
    r, c = np.nonzero(dense)
    out = [f"{matrix.rows} {matrix.cols} {matrix.prime}"]
    out.extend(f"{i} {j} {v}" for i, j, v in zip(r.tolist(), c.tolist(), dense[r, c].tolist()))
    return "\n".join(out) + "\n"
