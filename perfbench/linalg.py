"""The linalg workload: library calls into ``geomforge.gf2`` and their checks.

Each operation times only the gf2 calls.  Turning arrays into lists before,
and checking the results after, stay outside the timed region.  The checks
use numpy arithmetic alone: M x = 0 for each kernel row, M x = b for each
solution, and ranks against the numpy elimination in ``reference``.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

def load(directory) -> dict[str, np.ndarray]:
    return {p.stem: np.load(p) for p in Path(directory).glob("*.npy")}


# -- numpy references -------------------------------------------------------------


def rank_mod(matrix: np.ndarray, prime: int) -> int:
    """Rank over GF(prime) by row reduction: GF(2) on rows packed into
    64-bit words, GF(3) on an int16 copy."""
    if prime == 2:
        return _rank_gf2(matrix)
    work = np.array(matrix, dtype=np.int16) % prime
    rows, cols = work.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(work[rank:, c])
        if nz.size == 0:
            continue
        p = rank + nz[0]
        work[[rank, p]] = work[[p, rank]]
        inv = 1 if work[rank, c] == 1 else prime - 1  # 2 * 2 = 1 mod 3
        work[rank] = work[rank] * inv % prime
        hits = np.flatnonzero(work[:, c])
        hits = hits[hits != rank]
        if hits.size:
            work[hits] = (work[hits] - np.outer(work[hits, c], work[rank])) % prime
        rank += 1
    return rank


def _rank_gf2(matrix: np.ndarray) -> int:
    rows, cols = matrix.shape
    padded = np.zeros((rows, -(-cols // 64) * 64), dtype=np.uint8)
    padded[:, :cols] = np.asarray(matrix) % 2
    work = np.packbits(padded, axis=1, bitorder="little").view("<u8").copy()
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        bit = np.uint64(1 << (c & 63))
        column = work[:, c >> 6] & bit
        nz = np.flatnonzero(column[rank:])
        if nz.size == 0:
            continue
        p = rank + nz[0]
        work[[rank, p]] = work[[p, rank]]
        column[[rank, p]] = column[[p, rank]]
        hits = np.flatnonzero(column)
        hits = hits[hits != rank]
        if hits.size:
            work[hits] ^= work[rank]
        rank += 1
    return rank


def dense_from_entries(triples: np.ndarray, rows: int, cols: int, prime: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(out, (triples[:, 0], triples[:, 1]), triples[:, 2])
    return out % prime


def reference(arrays: dict) -> dict:
    """Reference ranks of one seed's matrices, computed once per run."""
    return {
        "dense": rank_mod(arrays["dense"], 2),
        "wide": rank_mod(arrays["wide"], 2),
        "gf3": rank_mod(dense_from_entries(arrays["gf3"], 3000, 1000, 3), 3),
        "small": [rank_mod(m, 2) for m in arrays["small"]],
    }


# -- reading results -----------------------------------------------------------------


def as_array(matrix) -> np.ndarray:
    """Entries of a MatrixGFp.  GF(2) payloads are unpacked with numpy in the
    layout the class documents (bit j of word w is column 64w + j); any
    other payload is read through the public ``to_rows``."""
    payload = matrix._payload
    if matrix.prime == 2 and payload.dtype == np.uint64 and payload.shape == (matrix.rows, (matrix.cols + 63) // 64):
        bits = np.unpackbits(payload.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        return bits[:, : matrix.cols].astype(np.int64)
    if matrix.prime == 3 and payload.shape == (matrix.rows, matrix.cols):
        return payload.astype(np.int64)
    return np.array(matrix.to_rows(), dtype=np.int64).reshape(matrix.rows, matrix.cols)


def _kernel_ok(m: np.ndarray, kernel: np.ndarray, rank: int, prime: int) -> bool:
    """Kernel rows solve M x = 0, are as many as cols - rank and are
    independent (checked by numpy rank)."""
    if kernel.shape != (m.shape[1] - rank, m.shape[1]):
        return False
    if kernel.shape[0] and rank_mod(kernel, prime) != kernel.shape[0]:
        return False
    return not np.any(m.astype(np.int64) @ kernel.T % prime)


# -- operations: run(gf2, arrays) -> (seconds, outputs); check(arrays, ref, outputs) -> errors


def run(op: str, gf2, arrays: dict):
    return OPERATIONS[op][0](gf2, arrays)


def check(op: str, arrays: dict, ref: dict, outputs) -> list[str]:
    return OPERATIONS[op][1](arrays, ref, outputs)


def _run_dense(gf2, a):
    rows = a["dense"].tolist()
    t = perf_counter()
    rank = gf2.MatrixGFp.from_rows(2, rows).rank()
    return perf_counter() - t, rank


def _check_dense(a, ref, rank):
    return [] if rank == ref["dense"] else [f"dense rank {rank} != {ref['dense']}"]


def _run_wide(gf2, a):
    rows, rhs = a["wide"].tolist(), a["wide_rhs"].tolist()
    t = perf_counter()
    m = gf2.MatrixGFp.from_rows(2, rows)
    kernel = m.nullspace()
    x = gf2.solve(m, rhs)
    transposed = m.transpose()
    return perf_counter() - t, (kernel, x, transposed)


def _check_wide(a, ref, out):
    kernel, x, transposed = out
    m, errors = a["wide"], []
    if not _kernel_ok(m, as_array(kernel), ref["wide"], 2):
        errors.append("wide nullspace is not a kernel basis")
    if x is None or np.any((m.astype(np.int64) @ np.array(x)) % 2 != a["wide_rhs"]):
        errors.append("wide solve does not satisfy M x = b")
    if not np.array_equal(as_array(transposed), m.T):
        errors.append("wide transpose differs")
    return errors


def _run_gf3(gf2, a):
    entries = [tuple(t) for t in a["gf3"].tolist()]
    t = perf_counter()
    rank = gf2.MatrixGFp.from_entries(3, 3000, 1000, entries).rank()
    return perf_counter() - t, rank


def _check_gf3(a, ref, rank):
    return [] if rank == ref["gf3"] else [f"GF(3) rank {rank} != {ref['gf3']}"]


def _run_small(gf2, a):
    mats = [m.tolist() for m in a["small"]]
    t = perf_counter()
    out = []
    for rows in mats:
        m = gf2.MatrixGFp.from_rows(2, rows)
        out.append((m.rank(), m.nullspace()))
    return perf_counter() - t, out


def _check_small(a, ref, out):
    errors = []
    for i, (m, want, (rank, kernel)) in enumerate(zip(a["small"], ref["small"], out)):
        if rank != want or not _kernel_ok(m, as_array(kernel), want, 2):
            errors.append(f"small matrix {i}: rank {rank} (want {want}) or kernel wrong")
    return errors


def _run_roundtrip(gf2, a):
    m = gf2.MatrixGFp.from_entries(2, 1000, 1000, [tuple(t) for t in a["roundtrip"].tolist()])
    t = perf_counter()
    text = gf2.dump_matrix(m)
    back = gf2.parse_matrix(text)
    return perf_counter() - t, (text, back)


def _check_roundtrip(a, ref, out):
    text, back = out
    lines = text.splitlines()
    want = dense_from_entries(a["roundtrip"], 1000, 1000, 2)
    got = np.zeros_like(want)
    for line in lines[1:]:
        r, c, v = (int(x) for x in line.split())
        got[r, c] = v
    errors = []
    if lines[0] != "1000 1000 2" or not np.array_equal(got, want):
        errors.append("dump_matrix text differs from the matrix")
    if not np.array_equal(as_array(back), want):
        errors.append("parse_matrix(dump_matrix(M)) differs from M")
    return errors


OPERATIONS = {
    "dense": (_run_dense, _check_dense),
    "wide": (_run_wide, _check_wide),
    "gf3": (_run_gf3, _check_gf3),
    "small": (_run_small, _check_small),
    "roundtrip": (_run_roundtrip, _check_roundtrip),
}
