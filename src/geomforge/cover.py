"""Coset enumeration (Todd-Coxeter), fundamental groups of triangle
complexes, triangulability verdicts, homology ranks and explicit finite
covers.

Words are tuples of signed 1-based generator indices (+i for generator i,
-i for its inverse).  As strings (:meth:`Presentation.word_to_string` and
its inverse :meth:`Presentation.parse_word`) they are single-letter
generator names with uppercase meaning inverse, when every name and its
``upper()`` are distinct single letters; otherwise they are names joined
by ``*`` with inverses as ``name^-1``.  The JSON file format uses single
letters.

One presentation of pi1 serves everything built on a triangle complex:
H1 over GF(p) is pi1 made abelian, read off the exponent sums of its
relators, and covers cross its non-tree edges by the coset table.

The enumeration is HLT (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, section 5.1): each live coset in order is scanned under
every relator, defining cosets to close the cycles, and its row is then
completed left to right, so outcomes are reproducible.  The table is one
list per column, entry (c, col) at ``cols[col][c]`` and -1 while
undefined; each relator and subgroup word is compiled once to the column
lists of its letters and of their inverses, so a scan step is
``f = column[f]``.  The columns grow together by a fixed block of rows, and
the last slot of every column stays -1: ``column[-1] == -1``, so a scan
that meets an undefined entry follows -1 to the end of the word without a
test per letter.  Coincidences are processed at once by the Handbook's
routine, which leaves entries of live cosets pointing only at live
cosets, so scans follow entries without a union-find lookup.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .graphs import Graph
from .perm import CapacityError, label_key

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
        inverse, so each name's ``upper()`` must be one letter unlike every
        name and every other inverse.  Each of the three fields is a sequence
        of strings; a bare string is refused rather than read one character
        at a time."""
        fields = {"generators": generators, "relators": relators, "subgroup": subgroup}
        for label, value in fields.items():
            if isinstance(value, str):
                raise PresentationError(f"{label} must be a list of strings, not {value!r}")
        for name in generators:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise PresentationError(
                    f"string parsing needs single lowercase letters, got {name!r}"
                )
        bare = cls(tuple(generators))
        if bare._letters() is None:
            raise PresentationError(
                f"string parsing needs each name's upper() to be one letter unlike every "
                f"other name and inverse, got {list(bare.generators)}"
            )
        return cls(
            bare.generators,
            tuple(map(bare.parse_word, relators)),
            tuple(map(bare.parse_word, subgroup)),
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
        """The word over single-letter names with uppercase inverses, as in
        the JSON format; when a name is longer or an inverse is not a letter
        of its own (:meth:`_letters`), the names joined by ``*`` with
        inverses as ``name^-1``."""
        single = self._letters() is not None
        out = []
        for letter in word:
            name = self.generators[abs(letter) - 1]
            if letter < 0:
                name = name.upper() if single else f"{name}^-1"
            out.append(name)
        return ("" if single else "*").join(out)

    def parse_word(self, text: str) -> Word:
        """The word that :meth:`word_to_string` writes as ``text``."""
        letters = self._letters()
        if letters is not None:
            for ch in text:
                if ch not in letters:
                    raise PresentationError(f"unknown generator {ch!r} in {text!r}")
            return tuple(letters[ch] for ch in text)
        index = {name: i + 1 for i, name in enumerate(self.generators)}
        out = []
        for name in text.split("*") if text else ():
            if name in index:
                out.append(index[name])
            elif name.endswith("^-1") and name[:-3] in index:
                out.append(-index[name[:-3]])
            else:
                raise PresentationError(f"unknown generator {name!r} in {text!r}")
        return tuple(out)

    def _letters(self) -> dict | None:
        """Each name to its index and its ``upper()`` to minus that index,
        when these 2n strings are distinct single letters; else None, and
        words are written in the ``*`` syntax."""
        if any(len(name) != 1 for name in self.generators):
            return None
        letters = {}
        for i, name in enumerate(self.generators, start=1):
            letters[name], letters[name.upper()] = i, -i
        exact = len(letters) == 2 * len(self.generators) and all(len(k) == 1 for k in letters)
        return letters if exact else None


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


class _Overflow(Exception):
    pass


def _column(letter: int) -> int:
    """Table column of a letter: generator g at 2g - 2, its inverse at 2g - 1."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


# entries added over all columns of a coset table when it outgrows them
_BLOCK = 1 << 16


def todd_coxeter(
    presentation: Presentation, limit: int = DEFAULT_COSET_LIMIT
) -> EnumerationOutcome:
    """Enumerate cosets of the subgroup in the presented group.

    Returns completed(index) with a closed, standardized table, or
    overflow(limit) when the table would exceed ``limit`` rows."""
    if limit < 1:
        raise ValueError("limit must be positive")
    w = 2 * len(presentation.generators)
    # column col holds every coset's entry under _column's letter col, -1
    # while undefined; the last slot stays -1, so column[-1] == -1.  The
    # columns grow together by a block of rows, about _BLOCK entries in all
    block = [-1] * max(64, _BLOCK // max(w, 1))
    cols = [list(block) for _ in range(w)]
    pairs = [(cols[col], cols[col ^ 1]) for col in range(w)]
    rep = [0]  # rep[c] == c exactly when coset c is live

    def compiled(word: Word) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """The columns of a word's letters and of their inverses."""
        return (
            tuple(cols[_column(letter)] for letter in word),
            tuple(cols[_column(-letter)] for letter in word),
        )

    relators = list(map(compiled, presentation.relators))

    def find(c: int) -> int:
        r = c
        while rep[r] != r:
            r = rep[r]
        while rep[c] != r:
            rep[c], c = r, rep[c]
        return r

    def define(c: int, column: list[int], inverse: list[int]) -> None:
        d = len(rep)
        if d >= limit:
            raise _Overflow()
        rep.append(d)
        if d == len(column) - 1:  # keep the last slot free
            for col in cols:
                col += block
        column[c] = d
        inverse[d] = c

    def coincide(a: int, b: int) -> None:
        """Merge the live cosets a != b and every pair this forces (Handbook
        COINCIDENCE): the larger coset of each merged pair dies and is
        queued; each entry of a dead row loses its back-reference and is
        re-pointed between live representatives, or queues the merge that
        the representative's own entry forces."""
        if a > b:
            a, b = b, a
        rep[b] = a
        queue = [b]
        for dead in queue:  # grows while it is processed
            for column, back in pairs:
                d = column[dead]
                if d < 0:
                    continue
                back[d] = -1
                mu = rep[dead]
                mu = mu if rep[mu] == mu else find(mu)
                nu = d if rep[d] == d else find(d)
                x = column[mu]
                if x >= 0:
                    y = nu
                else:
                    x = back[nu]
                    if x < 0:
                        column[mu] = nu
                        back[nu] = mu
                        continue
                    y = mu
                x = x if rep[x] == x else find(x)
                if x != y:
                    if x > y:
                        x, y = y, x
                    rep[y] = x
                    queue.append(y)

    def scan_and_fill(c: int, fwd: tuple[list[int], ...], inv: tuple[list[int], ...]) -> None:
        """Scan a word from live coset c, defining cosets to close the cycle."""
        n = len(fwd)
        f, i, b, j = c, 0, c, n - 1
        while True:
            while i < n:
                nxt = fwd[i][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i == n:
                if f == c:
                    return
                coincide(f, c)
                c = find(c)
                f, i, b, j = c, 0, c, n - 1
                continue
            if j < i:  # the forward scan overtook the backward one
                b, j = c, n - 1
            while j > i:
                nxt = inv[j][b]
                if nxt < 0:
                    break
                b = nxt
                j -= 1
            if j == i:
                # gap of one: deduce the entry, unless b's inverse entry
                # already names a coset, which then coincides with f
                e = inv[i][b]
                if e < 0:
                    fwd[i][f] = b
                    inv[i][b] = f
                else:
                    coincide(f, e)
                return
            define(f, fwd[i], inv[i])

    try:
        for fwd, inv in map(compiled, presentation.subgroup):
            scan_and_fill(0, fwd, inv)
        c = 0
        while c < len(rep):
            if rep[c] == c:
                for fwd, inv in relators:
                    # most scans close at once: skip the call; an undefined
                    # entry gives -1, which every column maps to -1
                    f = c
                    for column in fwd:
                        f = column[f]
                    if f != c:
                        scan_and_fill(c, fwd, inv)
                        if rep[c] != c:
                            break
                else:
                    for column, back in pairs:
                        if column[c] < 0:
                            define(c, column, back)
            c += 1
    except _Overflow:
        return EnumerationOutcome(
            "overflow", limit=limit, generators=presentation.generators
        )
    # BFS renumbering from coset 0, scanning columns in order
    number = [-1] * len(rep)
    number[0] = 0
    order = [0]
    for c in order:  # grows while it is scanned
        for column in cols:
            d = column[c]
            if number[d] < 0:
                number[d] = len(order)
                order.append(d)
    if len(order) != sum(1 for c, r in enumerate(rep) if c == r):
        raise AssertionError("coset table is not connected")
    outcome = EnumerationOutcome(
        "completed",
        index=len(order),
        table=[[number[column[c]] for column in cols] for c in order],
        generators=presentation.generators,
    )
    _validate_table(outcome, presentation)
    return outcome


def _validate_table(outcome: EnumerationOutcome, presentation: Presentation) -> None:
    """Every relator must trace to its start from every coset, subgroup
    words must fix coset 0, and each inverse column must undo its
    generator column, which no relator need read; each letter is one
    ``itemgetter`` gather from a table column over all cosets.  Coset 0 is
    traced once more at the end, so that a gather always takes two or more
    items, for which ``itemgetter`` returns a tuple."""
    columns = list(zip(*outcome.table))
    cosets = (*range(outcome.index), 0)

    def trace(start: tuple, word: Word) -> tuple:
        for letter in word:
            start = itemgetter(*start)(columns[_column(letter)])
        return start

    for word in presentation.relators:
        if trace(cosets, word) != cosets:
            raise AssertionError("relator does not trace to identity")
    for word in presentation.subgroup:
        if trace((0, 0), word) != (0, 0):
            raise AssertionError("subgroup word moves coset 0")
    for g in range(1, len(presentation.generators) + 1):
        if trace(cosets, (g, -g)) != cosets:
            raise AssertionError("inverse column does not undo its generator column")


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


def _is_connected(graph: Graph) -> bool:
    """Connected and not empty: the empty complex has no basepoint."""
    return bool(graph.vertices) and graph.is_connected()


def pi1_presentation(complex_: TriangleComplex) -> Presentation:
    """Presentation of the fundamental group: generators are the non-tree
    edges of a BFS spanning tree, relators are the designated triangles
    rewritten through the tree (words of length at most 3)."""
    return _pi1_with_labels(complex_)[0]


def _pi1_with_labels(complex_: TriangleComplex) -> tuple[Presentation, dict]:
    """pi1_presentation plus the map from directed non-tree edges (u, v) to
    signed generator indices, needed to build explicit covers."""
    graph = complex_.graph
    if not _is_connected(graph):
        raise ValueError("fundamental group requires a connected graph")
    order = [graph.vertices[0]]  # breadth first from the basepoint
    parent = {order[0]: order[0]}  # the root is its own parent; tree edges are {v, parent[v]}
    for v in order:  # grows while it is scanned
        for w in graph.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
    non_tree = [(a, b) for a, b in graph.edges() if b != parent[a] and a != parent[b]]
    names = tuple(_GENERATOR_LETTERS[: len(non_tree)])
    if len(non_tree) > len(_GENERATOR_LETTERS):
        names = tuple(f"g{i}" for i in range(len(non_tree)))
    edge_labels: dict = {}
    for i, (a, b) in enumerate(non_tree):
        edge_labels[(a, b)] = i + 1
        edge_labels[(b, a)] = -(i + 1)
    get = edge_labels.get
    relators = tuple(
        tuple(x for x in (get((a, b)), get((b, c)), get((c, a))) if x is not None)
        for a, b, c in complex_.triangles
    )
    return Presentation(names, relators), edge_labels


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
    reported as "no".  One pi1 presentation gives both H1 ranks (its
    abelianization) and the enumeration's input."""
    return _triangulability(complex_, limit)[0]


def _triangulability(
    complex_: TriangleComplex, limit: int
) -> tuple[TriangulabilityVerdict, Callable[[int], int]]:
    """is_triangulable's verdict, and H1's rank over GF(p) as a function of
    p on the same presentation, which eliminates each prime at most once.
    ``limit`` is checked first, as a verdict read off H1 never reaches
    ``todd_coxeter``, which checks it too."""
    if limit < 1:
        raise ValueError("limit must be positive")
    if not _is_connected(complex_.graph):
        raise ValueError("triangulability requires a connected graph")
    presentation = pi1_presentation(complex_)
    h1 = cache(partial(_abelian_rank, presentation))
    if h1(2) > 0:
        return TriangulabilityVerdict("no", f"H1 over GF(2) has rank {h1(2)}"), h1
    outcome = todd_coxeter(presentation, limit=limit)
    if outcome.completed and outcome.index == 1:
        return TriangulabilityVerdict("yes", "fundamental group is trivial"), h1
    if outcome.completed:
        reason = f"fundamental group has finite order {outcome.index}"
        return TriangulabilityVerdict("no", reason), h1
    if h1(3) > 0:
        return TriangulabilityVerdict("no", f"H1 over GF(3) has rank {h1(3)}"), h1
    reason = f"coset enumeration overflowed at {limit}"
    return TriangulabilityVerdict("unknown", reason), h1


def homology_rank(complex_: TriangleComplex, prime: int) -> int:
    """dim H1(K; GF(prime)) for a connected complex, read off pi1 made
    abelian: the number of pi1 generators minus the rank mod prime of the
    relators' exponent-sum matrix.  This is (E - V + 1) - rank of the
    triangle boundary matrix, since a cycle is fixed by its coordinates on
    the non-tree edges, which are the pi1 generators."""
    if not _is_connected(complex_.graph):
        raise ValueError("homology rank requires a connected graph")
    return _abelian_rank(pi1_presentation(complex_), prime)


def _abelian_rank(presentation: Presentation, prime: int) -> int:
    """Dimension over GF(prime) of the presented group made abelian, with
    GF(prime) coefficients: the generators minus the rank of the exponent
    sums.  These have one row per generator and one column per relator,
    the boundary matrix's orientation, which eliminates faster than its
    transpose on flag complexes."""
    from .gf2 import MatrixGFp

    n = len(presentation.generators)
    if not presentation.relators:
        return n
    entries = [
        (abs(letter) - 1, col, 1 if letter > 0 else -1)
        for col, word in enumerate(presentation.relators)
        for letter in word
    ]
    sums = MatrixGFp.from_entries(prime, n, len(presentation.relators), entries)
    return n - sums.rank()


def build_cover(
    complex_: TriangleComplex,
    subgroup_words: Sequence,
    limit: int = DEFAULT_COSET_LIMIT,
) -> tuple[TriangleComplex, dict]:
    """The finite cover corresponding to a subgroup of the fundamental
    group: vertices are (coset, vertex) pairs, tree edges stay within a
    sheet, non-tree edges cross sheets by the coset table.

    ``subgroup_words`` may be strings in the syntax that ``pi1`` prints
    (:meth:`Presentation.parse_word`) or signed-index tuples.  Returns
    (cover, projection map)."""
    presentation, edge_labels = _pi1_with_labels(complex_)
    words = tuple(
        presentation.parse_word(w) if isinstance(w, str) else tuple(w)
        for w in subgroup_words
    )
    enriched = Presentation(presentation.generators, presentation.relators, words)
    outcome = todd_coxeter(enriched, limit=limit)
    if not outcome.completed:
        raise CapacityError(
            f"coset enumeration overflowed at {limit}; cover not constructible"
        )
    index = outcome.index
    table = outcome.table

    def cross(coset: int, a, b) -> int:
        letter = edge_labels.get((a, b))
        if letter is None:
            return coset
        return table[coset][_column(letter)]

    vertices = [(c, v) for c in range(index) for v in complex_.graph.vertices]
    edges = [
        ((c, a), (cross(c, a, b), b)) for a, b in complex_.graph.edges() for c in range(index)
    ]
    triangles = []
    for a, b, c in complex_.triangles:
        for ca in range(index):
            cb = cross(ca, a, b)
            triangles.append(((ca, a), (cb, b), (cross(cb, b, c), c)))
    cover = TriangleComplex(Graph(vertices, edges), tuple(triangles))
    projection = {(c, v): v for c, v in vertices}
    _verify_covering(cover, complex_, projection)
    return cover, projection


def _verify_covering(cover: TriangleComplex, base: TriangleComplex, projection: dict) -> None:
    """The projection restricted to each vertex neighborhood must be a
    bijection onto the base neighborhood."""
    for v in cover.graph.vertices:
        down = Counter(projection[w] for w in cover.graph.neighbors(v))
        if down != Counter(base.graph.neighbors(projection[v])):
            raise AssertionError(f"covering property fails at {v!r}")


# ---------------------------------------------------------------------------
# JSON presentation file support


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return Presentation.from_json(json.load(fh))
