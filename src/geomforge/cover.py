"""Coset enumeration (Todd-Coxeter), fundamental groups of triangle
complexes, triangulability verdicts, homology ranks and explicit finite
covers.

Words are tuples of signed 1-based generator indices (+i for generator i,
-i for its inverse).  The JSON file format writes words as strings over
single-letter generator names, uppercase meaning inverse.

The enumeration strategy is relator-driven row filling with a deduction
stack and immediate coincidence processing; cosets are processed in order
and rows are completed left to right, so outcomes are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .gf2 import MatrixGFp
from .graphs import Graph
from .perm import label_key

__all__ = [
    "Presentation",
    "EnumerationOutcome",
    "TriangleComplex",
    "PresentationError",
    "todd_coxeter",
    "pi1_presentation",
    "is_triangulable",
    "TriangulabilityVerdict",
    "homology_rank",
    "build_cover",
    "DEFAULT_COSET_LIMIT",
]

DEFAULT_COSET_LIMIT = 10**6


class PresentationError(ValueError):
    """A word uses an undeclared generator or the input is malformed."""


Word = tuple[int, ...]


@dataclass
class Presentation:
    """Generators, relators and subgroup generator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()
    subgroup: tuple[Word, ...] = ()

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        n = len(self.generators)
        for word in list(self.relators) + list(self.subgroup):
            for letter in word:
                if letter == 0 or abs(letter) > n:
                    raise PresentationError(f"letter {letter} outside 1..{n}")

    @classmethod
    def from_strings(
        cls,
        generators: Sequence[str],
        relators: Sequence[str] = (),
        subgroup: Sequence[str] = (),
    ) -> "Presentation":
        """Parse words over single-letter generator names; uppercase means
        inverse."""
        for name in generators:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise PresentationError(
                    f"string parsing needs single lowercase letters, got {name!r}"
                )
        index = {name: i + 1 for i, name in enumerate(generators)}

        def parse(word: str) -> Word:
            out = []
            for ch in word:
                low = ch.lower()
                if low not in index:
                    raise PresentationError(f"unknown generator {ch!r} in {word!r}")
                out.append(index[low] if ch.islower() else -index[low])
            return tuple(out)

        return cls(
            tuple(generators),
            tuple(parse(w) for w in relators),
            tuple(parse(w) for w in subgroup),
        )

    @classmethod
    def from_json(cls, payload: dict) -> "Presentation":
        try:
            return cls.from_strings(
                payload["generators"],
                payload.get("relators", ()),
                payload.get("subgroup", ()),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise PresentationError(f"malformed presentation payload: {exc}") from exc

    def word_to_string(self, word: Word) -> str:
        out = []
        for letter in word:
            name = self.generators[abs(letter) - 1]
            if len(name) != 1:
                raise PresentationError("string form needs single-letter names")
            out.append(name if letter > 0 else name.upper())
        return "".join(out)


@dataclass
class EnumerationOutcome:
    """Either completed(index) with a closed standardized coset table, or
    overflow(limit)."""

    status: str  # "completed" | "overflow"
    index: Optional[int] = None
    limit: Optional[int] = None
    table: Optional[list[list[int]]] = None  # rows: cosets, cols: 2*gens
    generators: tuple[str, ...] = ()

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def to_json(self) -> dict:
        if self.completed:
            return {"status": "completed", "index": self.index}
        return {"status": "overflow", "limit": self.limit}

    def coset_permutations(self) -> list[list[int]]:
        """One permutation of the cosets per generator."""
        if not self.completed:
            raise ValueError("no table: enumeration overflowed")
        return [
            [self.table[c][2 * g] for c in range(self.index)]
            for g in range(len(self.generators))
        ]


class _CosetTable:
    """HLT-style coset table with immediate coincidence processing."""

    def __init__(self, ngens: int, limit: int):
        self.ngens = ngens
        self.limit = limit
        self.table: list[list[Optional[int]]] = [[None] * (2 * ngens)]
        self.rep: list[int] = [0]  # union-find for coincidences
        self.alive = 1

    # columns: generator g -> 2g, inverse of g -> 2g+1
    @staticmethod
    def column(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    @staticmethod
    def inverse_column(letter: int) -> int:
        return _CosetTable.column(-letter)

    def find(self, c: int) -> int:
        while self.rep[c] != c:
            self.rep[c] = self.rep[self.rep[c]]
            c = self.rep[c]
        return c

    def define(self, c: int, col: int) -> int:
        if len(self.table) >= self.limit:
            raise _Overflow()
        d = len(self.table)
        self.table.append([None] * (2 * self.ngens))
        self.rep.append(d)
        self.alive += 1
        self.table[c][col] = d
        self.table[d][col ^ 1] = c
        return d

    def scan_and_fill(self, c: int, word: Word) -> None:
        """Scan a relator from coset c, defining cosets to close the cycle."""
        while True:
            c = self.find(c)
            f = c  # forward end
            i = 0
            n = len(word)
            while i < n:
                col = self.column(word[i])
                nxt = self.table[f][col]
                if nxt is None:
                    break
                f = self.find(nxt)
                i += 1
            if i == n:
                if f != c:
                    self.coincide(f, c)
                    continue
                return
            b = c  # backward end
            j = n - 1
            while j > i:
                col = self.inverse_column(word[j])
                nxt = self.table[b][col]
                if nxt is None:
                    break
                b = self.find(nxt)
                j -= 1
            if j == i:
                # gap of one: deduction
                col = self.column(word[i])
                self.set_entry(f, col, b)
                return
            # fill the first gap and rescan
            self.define(f, self.column(word[i]))

    def set_entry(self, c: int, col: int, d: int) -> None:
        c, d = self.find(c), self.find(d)
        existing = self.table[c][col]
        if existing is not None:
            if self.find(existing) != d:
                self.coincide(self.find(existing), d)
            return
        self.table[c][col] = d
        back = self.table[d][col ^ 1]
        if back is None:
            self.table[d][col ^ 1] = c
        elif self.find(back) != c:
            self.coincide(self.find(back), c)

    def coincide(self, a: int, b: int) -> None:
        """Merge coset classes, propagating through table entries."""
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.rep[y] = x
            self.alive -= 1
            for col in range(2 * self.ngens):
                t = self.table[y][col]
                if t is None:
                    continue
                t = self.find(t)
                # remove y from t's reverse entry, re-add under x
                existing = self.table[x][col]
                if existing is None:
                    self.table[x][col] = t
                    back = self.table[t][col ^ 1]
                    if back is None:
                        self.table[t][col ^ 1] = x
                    elif self.find(back) != x:
                        queue.append((self.find(back), x))
                elif self.find(existing) != t:
                    queue.append((self.find(existing), t))

    def live_cosets(self) -> list[int]:
        return [c for c in range(len(self.table)) if self.find(c) == c]


class _Overflow(Exception):
    pass


def todd_coxeter(
    presentation: Presentation, limit: int = DEFAULT_COSET_LIMIT
) -> EnumerationOutcome:
    """Enumerate cosets of the subgroup in the presented group.

    Returns completed(index) with a closed, standardized table, or
    overflow(limit) when the table would exceed ``limit`` rows."""
    if limit < 1:
        raise ValueError("limit must be positive")
    ngens = len(presentation.generators)
    table = _CosetTable(ngens, limit)
    try:
        for word in presentation.subgroup:
            table.scan_and_fill(0, word)
        c = 0
        while c < len(table.table):
            if table.find(c) != c:
                c += 1
                continue
            for word in presentation.relators:
                table.scan_and_fill(c, word)
                if table.find(c) != c:
                    break
            if table.find(c) == c:
                for col in range(2 * ngens):
                    if table.find(c) != c:
                        break
                    if table.table[c][col] is None:
                        table.define(c, col)
            c += 1
    except _Overflow:
        return EnumerationOutcome(
            "overflow", limit=limit, generators=presentation.generators
        )
    live = table.live_cosets()
    renumber = _standardize(table, live, ngens)
    final = [[renumber[table.find(table.table[c][col])] for col in range(2 * ngens)]
             for c in sorted(renumber, key=renumber.get)]
    outcome = EnumerationOutcome(
        "completed",
        index=len(live),
        table=final,
        generators=presentation.generators,
    )
    _validate_table(outcome, presentation)
    return outcome


def _standardize(table: _CosetTable, live: list[int], ngens: int) -> dict[int, int]:
    """BFS renumbering from coset 0 scanning columns in order."""
    start = table.find(0)
    renumber = {start: 0}
    queue = [start]
    while queue:
        nxt = []
        for c in queue:
            for col in range(2 * ngens):
                d = table.find(table.table[c][col])
                if d not in renumber:
                    renumber[d] = len(renumber)
                    nxt.append(d)
        queue = nxt
    if len(renumber) != len(live):
        raise AssertionError("coset table is not connected")
    return renumber


def _validate_table(outcome: EnumerationOutcome, presentation: Presentation) -> None:
    """Every relator must trace to its start from every coset, and subgroup
    words must fix coset 0."""
    table = outcome.table

    def trace(c: int, word: Word) -> int:
        for letter in word:
            c = table[c][_CosetTable.column(letter)]
        return c

    for c in range(outcome.index):
        for word in presentation.relators:
            if trace(c, word) != c:
                raise AssertionError("relator does not trace to identity")
    for word in presentation.subgroup:
        if trace(0, word) != 0:
            raise AssertionError("subgroup word moves coset 0")


# ---------------------------------------------------------------------------
# triangle complexes


@dataclass
class TriangleComplex:
    """A simple graph with a set of 3-cliques designated as 2-cells."""

    graph: Graph
    triangles: tuple[tuple, ...] = ()

    def __post_init__(self):
        canon = []
        for tri in self.triangles:
            tri = tuple(sorted(tri, key=label_key))
            if len(tri) != 3:
                raise ValueError(f"triangle {tri!r} does not have 3 vertices")
            a, b, c = tri
            if not (
                self.graph.has_edge(a, b)
                and self.graph.has_edge(b, c)
                and self.graph.has_edge(a, c)
            ):
                raise ValueError(f"designated triangle {tri!r} is not a 3-clique")
            canon.append(tri)
        self.triangles = tuple(sorted(set(canon), key=label_key))

    @classmethod
    def from_json(cls, payload: dict) -> "TriangleComplex":
        try:
            for v in payload["vertices"]:
                if type(v) not in (str, int):
                    raise ValueError(f"vertex {v!r} is not a string or an integer")
            graph = Graph(payload["vertices"], [tuple(e) for e in payload["edges"]])
            return cls(graph, tuple(tuple(t) for t in payload.get("triangles", ())))
        except TypeError as exc:
            raise ValueError(f"malformed complex payload: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "edges": [list(e) for e in self.graph.edges()],
            "triangles": [list(t) for t in self.triangles],
        }


_GENERATOR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def pi1_presentation(complex_: TriangleComplex, basepoint=None) -> Presentation:
    """Presentation of the fundamental group: generators are the non-tree
    edges of a BFS spanning tree, relators are the designated triangles
    rewritten through the tree (words of length at most 3)."""
    return _pi1_with_labels(complex_, basepoint)[0]


def _pi1_with_labels(complex_: TriangleComplex, basepoint=None) -> tuple[Presentation, dict]:
    """pi1_presentation plus the map from directed non-tree edges (u, v) to
    signed generator indices, needed to build explicit covers."""
    graph = complex_.graph
    if not graph.is_connected():
        raise ValueError("fundamental group requires a connected graph")
    if basepoint is None:
        basepoint = graph.vertices[0]
    parent: dict = {basepoint: None}
    order = [basepoint]
    queue = [basepoint]
    while queue:
        nxt = []
        for v in queue:
            for w in graph.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    nxt.append(w)
        queue = nxt
    tree_edges = {
        frozenset((v, parent[v])) for v in order if parent[v] is not None
    }
    non_tree = [
        (a, b) for a, b in graph.edges() if frozenset((a, b)) not in tree_edges
    ]
    if len(non_tree) <= len(_GENERATOR_LETTERS):
        names = tuple(_GENERATOR_LETTERS[i] for i in range(len(non_tree)))
    else:
        names = tuple(f"g{i}" for i in range(len(non_tree)))
    edge_labels: dict = {}
    for i, (a, b) in enumerate(non_tree):
        edge_labels[(a, b)] = i + 1
        edge_labels[(b, a)] = -(i + 1)

    def edge_letter(a, b) -> Optional[int]:
        return edge_labels.get((a, b))

    relators = []
    for tri in complex_.triangles:
        a, b, c = tri
        word = []
        for u, v in ((a, b), (b, c), (c, a)):
            letter = edge_letter(u, v)
            if letter is not None:
                word.append(letter)
        relators.append(tuple(word))
    presentation = Presentation(names, tuple(relators), ())
    return presentation, edge_labels


@dataclass
class TriangulabilityVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    reason: str

    def __eq__(self, other):
        if isinstance(other, str):
            return self.verdict == other
        return (
            isinstance(other, TriangulabilityVerdict)
            and self.verdict == other.verdict
            and self.reason == other.reason
        )


def is_triangulable(
    complex_: TriangleComplex, limit: int = DEFAULT_COSET_LIMIT
) -> TriangulabilityVerdict:
    """"yes" when the fundamental group enumerates to index 1; "no" with a
    homology certificate (or a completed index above 1); "unknown" when the
    enumeration overflows without a certificate.  Overflow alone is never
    reported as "no"."""
    if not complex_.graph.is_connected():
        raise ValueError("triangulability requires a connected graph")
    h2 = homology_rank(complex_, 2)
    if h2 > 0:
        return TriangulabilityVerdict("no", f"H1 over GF(2) has rank {h2}")
    presentation = pi1_presentation(complex_)
    outcome = todd_coxeter(presentation, limit=limit)
    if outcome.completed:
        if outcome.index == 1:
            return TriangulabilityVerdict("yes", "fundamental group is trivial")
        return TriangulabilityVerdict(
            "no", f"fundamental group has finite order {outcome.index}"
        )
    h3 = homology_rank(complex_, 3)
    if h3 > 0:
        return TriangulabilityVerdict("no", f"H1 over GF(3) has rank {h3}")
    return TriangulabilityVerdict(
        "unknown", f"coset enumeration overflowed at {limit}"
    )


def homology_rank(complex_: TriangleComplex, prime: int) -> int:
    """dim H1(K; GF(prime)) = (E - V + 1) - rank of the triangle boundary
    matrix, for a connected complex."""
    graph = complex_.graph
    if not graph.is_connected():
        raise ValueError("homology rank requires a connected graph")
    edges = graph.edges()
    edge_index = {frozenset(e): i for i, e in enumerate(edges)}
    orientation = {frozenset(e): e for e in edges}
    cycle_dim = len(edges) - graph.n + 1
    if not complex_.triangles:
        return cycle_dim
    entries = []
    for col, tri in enumerate(complex_.triangles):
        a, b, c = tri
        for u, v in ((a, b), (b, c), (c, a)):
            key = frozenset((u, v))
            row = edge_index[key]
            if prime == 2:
                entries.append((row, col, 1))
            else:
                sign = 1 if orientation[key] == (u, v) else -1
                entries.append((row, col, sign % prime))
    boundary = MatrixGFp.from_entries(
        prime, len(edges), len(complex_.triangles), entries
    )
    return cycle_dim - boundary.rank()


def build_cover(
    complex_: TriangleComplex,
    subgroup_words: Sequence,
    limit: int = DEFAULT_COSET_LIMIT,
) -> tuple[TriangleComplex, dict]:
    """The finite cover corresponding to a subgroup of the fundamental
    group: vertices are (coset, vertex) pairs, tree edges stay within a
    sheet, non-tree edges cross sheets by the coset table.

    ``subgroup_words`` may be strings over the pi1 generator letters or
    signed-index tuples.  Returns (cover, projection map)."""
    presentation, edge_labels = _pi1_with_labels(complex_)
    words = []
    for w in subgroup_words:
        if isinstance(w, str):
            words.append(Presentation.from_strings(presentation.generators, [w]).relators[0])
        else:
            words.append(tuple(w))
    enriched = Presentation(
        presentation.generators, presentation.relators, tuple(words)
    )
    outcome = todd_coxeter(enriched, limit=limit)
    if not outcome.completed:
        raise CoverCapacityError(
            f"coset enumeration overflowed at {limit}; cover not constructible"
        )
    index = outcome.index
    table = outcome.table

    def cross(coset: int, a, b) -> int:
        letter = edge_labels.get((a, b))
        if letter is None:
            return coset
        return table[coset][_CosetTable.column(letter)]

    vertices = [(c, v) for c in range(index) for v in complex_.graph.vertices]
    edges = []
    for a, b in complex_.graph.edges():
        for c in range(index):
            edges.append(((c, a), (cross(c, a, b), b)))
    cover_graph = Graph(vertices, edges)
    triangles = []
    for tri in complex_.triangles:
        a, b, c = tri
        for coset in range(index):
            ca = coset
            cb = cross(ca, a, b)
            cc = cross(cb, b, c)
            triangles.append(((ca, a), (cb, b), (cc, c)))
    cover = TriangleComplex(cover_graph, tuple(triangles))
    projection = {(c, v): v for c, v in vertices}
    _verify_covering(cover, complex_, projection)
    return cover, projection


class CoverCapacityError(RuntimeError):
    pass


def _verify_covering(cover: TriangleComplex, base: TriangleComplex, projection: dict) -> None:
    """The projection restricted to each vertex neighborhood must be a
    bijection onto the base neighborhood."""
    for v in cover.graph.vertices:
        down = [projection[w] for w in cover.graph.neighbors(v)]
        base_neigh = sorted(base.graph.neighbors(projection[v]), key=label_key)
        if sorted(down, key=label_key) != base_neigh:
            raise AssertionError(f"covering property fails at {v!r}")


# ---------------------------------------------------------------------------
# JSON presentation file support


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return Presentation.from_json(json.load(fh))
