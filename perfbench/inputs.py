"""Seeded benchmark inputs, made without importing geomforge.

The geometry files are built by this module's own subspace enumeration, so
a defect in geomforge's constructions cannot leak into the inputs it is
checked against.  The same seed always gives byte-identical files and
arrays; different seeds relabel, reorder and redraw them while every
reference result stays the same.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

import numpy as np


# -- GF(2) subspaces ----------------------------------------------------------


def _span(vectors) -> frozenset:
    """Nonzero vectors of the GF(2) span of some bit-mask vectors."""
    span = {0}
    for v in vectors:
        if v not in span:
            span |= {s ^ v for s in span}
    return frozenset(span - {0})


def _subspaces(dim: int, max_k: int, admissible=lambda sub, v: True) -> list[list[frozenset]]:
    """Subspaces of GF(2)^dim of dimension 1..max_k, grown one vector at a
    time; ``admissible(sub, v)`` restricts which vectors may extend ``sub``."""
    levels = [[frozenset({v}) for v in range(1, 1 << dim)]]
    for _ in range(max_k - 1):
        grown = set()
        for sub in levels[-1]:
            for v in range(1, 1 << dim):
                if v not in sub and admissible(sub, v):
                    grown.add(_span(sub | {v}))
        levels.append(sorted(grown, key=sorted))
    return levels


def _symplectic_orthogonal(sub: frozenset, v: int) -> bool:
    # alternating form pairing coordinates (0,1), (2,3), (4,5)
    swapped = ((v & 0x15) << 1) | ((v >> 1) & 0x15)
    return all(bin(s & swapped).count("1") % 2 == 0 for s in sub)


def polar_w52() -> list[list[frozenset]]:
    """Totally isotropic subspaces of the symplectic space W(5,2):
    63 points, 315 lines, 135 planes."""
    return _subspaces(6, 3, _symplectic_orthogonal)


def projective_pg42() -> list[list[frozenset]]:
    """Subspaces of PG(4,2): 31 points, 155 lines, 155 planes, 31 solids."""
    return _subspaces(5, 4)


def geometry_payload(levels: list[list[frozenset]], rng: random.Random) -> dict:
    """Containment geometry with seeded string ids and shuffled element
    and incidence order; each pair is listed once, in a random orientation."""
    elements = [(sub, t) for t, subs in enumerate(levels, start=1) for sub in subs]
    ids: list[str] = []
    taken: set = set()
    while len(ids) < len(elements):
        eid = "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(8))
        if eid not in taken:
            taken.add(eid)
            ids.append(eid)
    incidences = []
    for i, (a, ta) in enumerate(elements):
        for j, (b, tb) in enumerate(elements):
            if ta < tb and a <= b:
                pair = [ids[i], ids[j]]
                rng.shuffle(pair)
                incidences.append(pair)
    records = [{"id": eid, "type": t} for eid, (_, t) in zip(ids, elements)]
    rng.shuffle(records)
    rng.shuffle(incidences)
    return {"rank": len(levels), "elements": records, "incidences": incidences}


# -- presentations --------------------------------------------------------------
# words over generator indices 1..n; a negative index is an inverse letter


def coxeter_s8() -> tuple[int, list, list]:
    """S8 as the Coxeter group A7, with the subgroup <s1> of order 2."""
    n = 7
    rels = [[i, i] for i in range(1, n + 1)]
    rels += [[i, i + 1] * 3 for i in range(1, n)]
    rels += [[i, j] * 2 for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    return n, rels, [[1]]


def fibonacci_f27() -> tuple[int, list, list]:
    """The Fibonacci group F(2,7), cyclic of order 29, over the trivial subgroup."""
    n = 7
    rels = [[i + 1, (i + 1) % n + 1, -((i + 2) % n + 1)] for i in range(n)]
    return n, rels, []


def triangle_237() -> tuple[int, list, list]:
    """<a, b | a^2, b^3, (ab)^7>: infinite, so enumeration must overflow."""
    return 2, [[1, 1], [2, 2, 2], [1, 2] * 7], []


def presentation_payload(pres: tuple[int, list, list], names_rng: random.Random,
                         scramble_rng: random.Random) -> dict:
    """Rename the generators, then rotate every relator and shuffle their
    order (the scramble)."""
    n, rels, subgroup = pres
    names = names_rng.sample(string.ascii_lowercase, n)

    def spell(word) -> str:
        return "".join(names[abs(x) - 1] if x > 0 else names[abs(x) - 1].upper() for x in word)

    rotated = []
    for word in rels:
        k = scramble_rng.randrange(len(word))
        rotated.append(spell(word[k:] + word[:k]))
    scramble_rng.shuffle(rotated)
    return {"generators": names, "relators": rotated, "subgroup": [spell(w) for w in subgroup]}


# -- matrices -------------------------------------------------------------------


def sparse_columns(rng: np.random.Generator, rows: int, cols: int, prime: int) -> np.ndarray:
    """Coordinate triples (row, col, value) with three nonzeros per column,
    like a triangle boundary matrix; GF(3) values are signs taken mod 3."""
    out = np.empty((cols * 3, 3), dtype=np.int64)
    for c in range(cols):
        out[3 * c: 3 * c + 3, 0] = rng.choice(rows, size=3, replace=False)
        out[3 * c: 3 * c + 3, 1] = c
    out[:, 2] = 1 if prime == 2 else rng.choice([1, prime - 1], size=cols * 3)
    return out


def matrices(seed: int) -> dict[str, np.ndarray]:
    """Every array of the linalg workload, drawn from one generator."""
    rng = np.random.default_rng(seed)
    wide = rng.integers(0, 2, size=(600, 1200), dtype=np.uint8)
    x0 = rng.integers(0, 2, size=1200, dtype=np.uint8)
    return {
        "dense": rng.integers(0, 2, size=(2000, 2000), dtype=np.uint8),
        "wide": wide,
        "wide_rhs": (wide.astype(np.int64) @ x0 % 2).astype(np.uint8),
        "gf3": sparse_columns(rng, 3000, 1000, 3),
        "small": rng.integers(0, 2, size=(100, 48, 64), dtype=np.uint8),
        "roundtrip": sparse_columns(rng, 1000, 1000, 2),
    }


# -- writing one seed's files ----------------------------------------------------


GEOMETRIES = {"w52": polar_w52, "pg42": projective_pg42}
PRESENTATIONS = {"s8": coxeter_s8, "f27": fibonacci_f27, "t237": triangle_237}


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_inputs(seed: int, names: list[str], out: Path, scrambles: dict | None = None) -> dict[str, Path]:
    """Write the named inputs for one seed into ``out`` and return their
    paths.  Geometry and presentation names give JSON files; "matrices"
    gives a directory of .npy arrays.  A presentation is scrambled by
    ``scrambles[name]``, by default by the seed itself."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        rng = random.Random(f"{seed}/{name}")
        if name in GEOMETRIES:
            data = _dump(geometry_payload(GEOMETRIES[name](), rng))
            path = out / f"{name}.json"
        elif name in PRESENTATIONS:
            scramble = (scrambles or {}).get(name, seed)
            data = _dump(presentation_payload(PRESENTATIONS[name](), rng, random.Random(f"{scramble}/{name}/scramble")))
            path = out / f"{name}.json"
        elif name == "matrices":
            path = out / "matrices"
            path.mkdir(exist_ok=True)
            for key, array in matrices(seed).items():
                np.save(path / f"{key}.npy", array)
            paths[name] = path
            continue
        else:
            raise KeyError(f"unknown input {name!r}")
        path.write_bytes(data)
        paths[name] = path
    return paths
