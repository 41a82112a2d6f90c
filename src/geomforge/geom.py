"""Incidence geometries: axiom verification, residues, diagrams with rank-2
residue classification, flag transitivity, collinearity and derived graphs,
quotients, s-covering checks, small-scale isomorphism and amalgam reports.

Elements carry a type in 1..rank; two incident elements never share a type.
Ids may be ints, strings or nested tuples.  The constructor orders the
elements once, by type and then by ``label_key``; everything derived from a
geometry keeps that order.

Flag walks run on canonical indices: bit i of a mask stands for
``elements[i]``.  A geometry builds its pencil and type masks on its first
walk and keeps them (about N^2/8 bytes; an unwalked geometry holds none).
Children are visited in increasing index, which is canonical order, so the
walk order and the first failure reported are those of the labels.  Labels
appear only in failure strings, returned flags, ``walk_flags`` and the
geometries that ``residue`` builds; ``diagram`` names every rank-2 residue
by counting on the masks, with no residue built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, Optional, Sequence

from .graphs import Graph, graph_isomorphism
from .perm import (
    CapacityError,
    GroupAction,
    PermutationGroup,
    StabilizerChain,
    _closure,
    _tuple_step,
    label_key,
)

__all__ = [
    "Geometry",
    "GeometryError",
    "StructureError",
    "FlagError",
    "ActionError",
    "MorphismError",
    "CapacityError",
    "GeometryVerdict",
    "DiagramReport",
    "GeometryMorphism",
    "AmalgamReport",
    "is_geometry",
    "residue",
    "diagram",
    "is_flag_transitive",
    "collinearity_graph",
    "derived_graph",
    "quotient_by_action",
    "is_s_covering",
    "isomorphic",
    "amalgam_report",
    "element_action",
]

ISOMORPHISM_ELEMENT_BOUND = 500


class GeometryError(ValueError):
    """Base class for geometry-level errors."""


class StructureError(GeometryError):
    """The element/incidence data violates incidence-system structure
    (bad types, asymmetry, or a same-type incidence)."""


class FlagError(GeometryError):
    """The provided element set is not a flag."""


class ActionError(GeometryError):
    """A group action does not preserve types or incidence."""


class MorphismError(GeometryError):
    """A map between geometries is not a valid morphism."""


class Geometry:
    """An incidence system with typed elements and symmetric incidence.

    Structural validity (types in range, no same-type incidence) is enforced
    at construction; the geometry axioms themselves are checked separately by
    :func:`is_geometry`.
    """

    def __init__(
        self,
        rank: int,
        elements: Iterable[tuple],
        incidences: Iterable[tuple],
        type_map: Optional[dict] = None,
    ):
        if type(rank) is not int or rank < 0:
            raise StructureError(f"rank must be a nonnegative integer, got {rank!r}")
        self.rank = rank
        type_of: dict = {}
        for eid, etype in elements:
            if type(etype) is not int or not 1 <= etype <= rank:
                raise StructureError(
                    f"element {eid!r} has type {etype!r}, not an integer in 1..{rank}"
                )
            if eid in type_of:
                raise StructureError(f"duplicate element id {eid!r}")
            type_of[eid] = etype
        self.type_of = type_of
        self.elements = tuple(sorted(type_of, key=lambda e: (type_of[e], label_key(e))))
        self._of_type = {t: tuple(es) for t, es in groupby(self.elements, key=type_of.get)}
        adj: dict = {e: set() for e in self.elements}
        for a, b in incidences:
            if a not in type_of or b not in type_of:
                raise StructureError(f"incidence ({a!r},{b!r}) uses unknown element")
            if a == b:
                raise StructureError(f"reflexive incidence at {a!r}")
            if type_of[a] == type_of[b]:
                raise StructureError(
                    f"same-type incidence between {a!r} and {b!r} (type {type_of[a]})"
                )
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {e: frozenset(s) for e, s in adj.items()}
        self._order = {e: i for i, e in enumerate(self.elements)}
        self._pairs: Optional[list[tuple]] = None
        # renumbering provenance for residues (original -> new)
        self.type_map = dict(type_map) if type_map else None

    # -- basic queries -------------------------------------------------------

    def elements_of_type(self, etype: int) -> tuple:
        return self._of_type.get(etype, ())

    def incident(self, a, b) -> bool:
        return b in self._adj[a]

    def pencil(self, element) -> frozenset:
        """All elements incident to the given one."""
        return self._adj[element]

    def incidence_pairs(self) -> list[tuple]:
        if self._pairs is None:
            order = self._order
            out = []
            for i, a in enumerate(self.elements):
                later = sorted(order[b] for b in self._adj[a] if order[b] > i)
                out.extend((a, self.elements[j]) for j in later)
            self._pairs = out
        return self._pairs

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_flag(self, flag: Iterable) -> bool:
        flag = list(flag)
        types = [self.type_of.get(e) for e in flag]
        if None in types or len(set(types)) != len(types):
            return False
        return all(
            self.incident(a, b) for i, a in enumerate(flag) for b in flag[i + 1 :]
        )

    @cached_property
    def _masks(self) -> tuple[list[int], dict]:
        """The pencil mask of each element, by canonical index, and the mask
        of each type: built on the first walk."""
        order = self._order
        pencils = [sum(1 << order[b] for b in self._adj[e]) for e in self.elements]
        by_type, start = {}, 0
        for t in range(1, self.rank + 1):
            end = start + len(self.elements_of_type(t))
            by_type[t], start = (1 << end) - (1 << start), end
        return pencils, by_type

    def _walk(self, visit, limit: int) -> bool:
        """Depth-first walk over the flags of at most ``limit`` elements as
        tuples of increasing indices.  ``visit(flag, candidates)`` gets the
        mask of the elements incident to all of the flag; a truthy return
        aborts the walk, which then returns True.  Same-type elements are
        never incident, so the pencil masks keep the types apart."""
        pencils = self._masks[0]

        def rec(flag: tuple, cands: int) -> bool:
            if visit(flag, cands):
                return True
            if len(flag) < limit:
                floor = flag[-1] + 1 if flag else 0
                for i in _bits(cands >> floor << floor):
                    if rec(flag + (i,), cands & pencils[i]):
                        return True
            return False

        return rec((), (1 << len(self.elements)) - 1)

    def walk_flags(self, visit, max_size: Optional[int] = None) -> bool:
        """Depth-first walk over all flags, each visited exactly once.

        ``visit(flag_tuple, candidates)`` receives the flag (in canonical
        order) and the full set of elements incident to all of it; a flag is
        non-extensible exactly when candidates is empty.  Any truthy return
        value aborts the walk, and the walk then returns True.  The label
        view of :meth:`_walk`."""
        els = self.elements

        def labelled(flag, cands):
            return visit(tuple(els[i] for i in flag), frozenset(els[i] for i in _bits(cands)))

        return self._walk(labelled, self.rank if max_size is None else max_size)

    def maximal_flags(self) -> list[tuple]:
        """All flags meeting every type, as canonically ordered tuples."""
        els = self.elements
        out: list[tuple] = []

        def visit(flag, cands):
            if len(flag) == self.rank:
                out.append(tuple(els[i] for i in flag))

        self._walk(visit, self.rank)
        return out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        # one id string per element, not one per end of each incidence
        ids = {e: _id_to_str(e) for e in self.elements}
        return {
            "rank": self.rank,
            "elements": [{"id": ids[e], "type": self.type_of[e]} for e in self.elements],
            "incidences": [[ids[a], ids[b]] for a, b in self.incidence_pairs()],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Geometry":
        try:
            rank = payload["rank"]
            elements = [(e["id"], e["type"]) for e in payload["elements"]]
            incidences = [tuple(p) for p in payload["incidences"]]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed geometry payload: {exc}") from exc
        for eid in [e for e, _ in elements] + [x for pair in incidences for x in pair]:
            if type(eid) not in (str, int):
                raise StructureError(f"element id {eid!r} is not a string or an integer")
        return cls(rank, elements, incidences)

    def save(self, path) -> None:
        """Write ``to_json()`` in the layout of ``json.dump(..., indent=1,
        sort_keys=True)`` plus a newline, line by line: that encoder runs in
        pure Python whenever an indent is set.  Only the ids need escaping,
        each by ``json.dumps``; the types and the rank are ints."""
        ids = {e: json.dumps(_id_to_str(e)) for e in self.elements}

        def block(items: list[str]) -> str:
            return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"

        elements = [f'  {{\n   "id": {ids[e]},\n   "type": {self.type_of[e]}\n  }}' for e in self.elements]
        pairs = [f"  [\n   {ids[a]},\n   {ids[b]}\n  ]" for a, b in self.incidence_pairs()]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{\n "elements": ' + block(elements))
            fh.write(',\n "incidences": ' + block(pairs))
            fh.write(f',\n "rank": {self.rank}\n}}\n')

    @classmethod
    def load(cls, path) -> "Geometry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self) -> str:
        counts = "/".join(str(len(self.elements_of_type(t))) for t in range(1, self.rank + 1))
        return f"Geometry(rank={self.rank}, {counts})"


def _id_to_str(eid) -> str:
    return eid if isinstance(eid, str) else repr(eid)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# geometry axioms


@dataclass
class GeometryVerdict:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_geometry(candidate: Geometry) -> GeometryVerdict:
    """Check the two geometry axioms: every maximal flag meets all types, and
    every residue of rank at least 2 (including the whole system) is
    connected.  One walk over the flags that miss a type, shared with
    :func:`diagram` through :func:`_axiom_walk`, checks both; a flag that
    misses a type ends it and is reported alone, otherwise the first
    disconnected residue is."""
    failures = _axiom_walk(candidate)
    return GeometryVerdict(not failures, failures)


def _axiom_walk(g: Geometry, also=None) -> list[str]:
    """The failures :func:`is_geometry` reports, from one walk over the
    flags of size at most rank - 1.  ``also(flag, candidates)``, when
    given, sees every flag the walk visits (as indices and a mask) up to
    the first one that misses a type, which ends the walk; a true return
    says that the flag's residue is connected, which spares its search."""
    rank, els = g.rank, g.elements
    pencils = g._masks[0]
    missing: list[str] = []
    disconnected: list[str] = []

    def visit(flag, cands):
        if len(flag) < rank and not cands:
            missing.append(f"maximal flag {[_id_to_str(els[i]) for i in flag]} misses some type")
            return True
        shown = also is not None and also(flag, cands)
        if not (disconnected or shown) and len(flag) <= rank - 2 and not _connected(pencils, cands):
            disconnected.append(f"residue of flag {[_id_to_str(els[i]) for i in flag]} is disconnected")
        return None

    g._walk(visit, rank - 1)
    return missing or disconnected


def _connected(pencils: list[int], subset: int) -> bool:
    """Connectivity of the incidence graph induced on a mask, by a search
    that takes one reached element at a time."""
    todo = subset & -subset
    left = subset ^ todo
    while todo and left:
        low = todo & -todo
        todo ^= low
        reached = pencils[low.bit_length() - 1] & left
        left ^= reached
        todo |= reached
    return not left


# ---------------------------------------------------------------------------
# residues


def residue(g: Geometry, flag: Iterable) -> Geometry:
    """Elements incident to the whole flag, types renumbered preserving
    order; the renumbering map is recorded on the result."""
    flag = list(flag)
    if not g.is_flag(flag):
        raise FlagError(f"{[_id_to_str(e) for e in flag]} is not a flag")
    order = g._order
    if flag:
        members = sorted(frozenset.intersection(*(g._adj[f] for f in flag)), key=order.get)
    else:
        members = g.elements
    remaining_types = sorted(set(range(1, g.rank + 1)) - {g.type_of[f] for f in flag})
    type_map = {t: i + 1 for i, t in enumerate(remaining_types)}
    new_rank = g.rank - len(flag)
    member_set = set(members)
    incidences = [
        (a, b)
        for a in members
        for b in g._adj[a] & member_set
        if order[a] < order[b]
    ]
    return Geometry(
        new_rank,
        [(e, type_map[g.type_of[e]]) for e in members],
        incidences,
        type_map=type_map,
    )


# ---------------------------------------------------------------------------
# graphs attached to a geometry


def collinearity_graph(g: Geometry) -> Graph:
    """Type-1 elements adjacent when incident to a common type-2 element."""
    return _common_neighbor_graph(g, point_type=1, line_type=2)


def derived_graph(g: Geometry) -> Graph:
    """Type-n elements adjacent when incident to a common type-(n-1) element."""
    return _common_neighbor_graph(g, point_type=g.rank, line_type=g.rank - 1)


def _common_neighbor_graph(g: Geometry, point_type: int, line_type: int) -> Graph:
    if g.rank < 2:
        raise GeometryError("graph construction requires rank at least 2")
    # Graph orders the vertices and drops repeated edges itself
    type_of = g.type_of
    edges = (
        pair
        for line in g.elements_of_type(line_type)
        for pair in combinations([e for e in g.pencil(line) if type_of[e] == point_type], 2)
    )
    return Graph(g.elements_of_type(point_type), edges)


# ---------------------------------------------------------------------------
# group actions on elements


def element_action(g: Geometry, group: PermutationGroup, apply) -> GroupAction:
    """Action of a group on geometry elements given ``apply(perm, id) -> id``;
    verified to preserve types and incidence."""
    from .perm import induced_action

    action = induced_action(group, g.elements, apply)
    _check_action(g, action)
    return action


def _check_action(g: Geometry, action: GroupAction) -> None:
    if set(action.domain) != set(g.elements):
        raise ActionError("action domain differs from the element set")
    index = action.index
    types = [g.type_of[e] for e in action.domain]
    for gi, img in enumerate(action.images):
        for e in g.elements:
            if types[img[index[e]]] != g.type_of[e]:
                raise ActionError(f"generator {gi} does not preserve the type of {e!r}")
    gi = action.first_generator_moving(g.incidence_pairs())
    if gi is not None:
        raise ActionError(f"generator {gi} does not preserve incidence")


def is_flag_transitive(g: Geometry, action: GroupAction) -> bool:
    """True when one maximal-flag orbit covers all maximal flags; the action
    is checked to preserve types and incidence first."""
    _check_action(g, action)
    return _one_flag_orbit(g, action) is not None


def _one_flag_orbit(g: Geometry, action: GroupAction) -> Optional[StabilizerChain]:
    """For an action already checked, as ``element_action`` checks the
    action it builds: a chain of its image whose base starts with a chamber
    C = (c_1, ..., c_r), the first in index order, when the action is
    transitive on the chambers (the flags meeting every type); else None.

    The chain is bounded by the acting group's certified order.  Its
    level-k group fixes c_1..c_k, and its orbit of c_(k+1) lies among the
    type-(k+1) elements that extend c_1..c_k to a chamber.  The action is
    chamber-transitive exactly when each orbit is all of them, for then
    every chamber is an image of C, one type at a time (Tits, *A local
    approach to buildings*, 1981).  In a geometry every flag lies in a
    chamber, so any element outside the orbit fails the test; in other
    incidence systems only one that extends to a chamber does."""
    pencils, by_type = g._masks
    everything = (1 << g.size) - 1
    chamber = _first_chamber(pencils, by_type, everything, range(1, g.rank + 1))
    if chamber is None:
        return None
    els, order = g.elements, g._order
    chain = action.image_group().base_chain([action.index[els[i]] for i in chamber])
    at = [order[e] for e in action.domain]  # the geometry index of each point
    cands = everything
    for k, c in enumerate(chamber):
        orbit = 0
        for p in chain.basic_orbit(k):
            orbit |= 1 << at[p]
        later = range(k + 2, g.rank + 1)
        for x in _bits(cands & by_type[k + 1] & ~orbit):
            if _first_chamber(pencils, by_type, cands & pencils[x], later) is not None:
                return None
        cands &= pencils[c]
    return chain


def _first_chamber(
    pencils: list[int], by_type: dict, cands: int, types: Sequence[int]
) -> Optional[list[int]]:
    """The first flag, in index order, of elements in the mask ``cands``
    with one of each type in ``types`` (as indices), or None."""
    if not types:
        return []
    for x in _bits(cands & by_type[types[0]]):
        rest = _first_chamber(pencils, by_type, cands & pencils[x], types[1:])
        if rest is not None:
            return [x, *rest]
    return None


# ---------------------------------------------------------------------------
# diagrams


@dataclass
class DiagramReport:
    """Classification of every rank-2 residue by type pair, plus node
    orders q_i (rank-1 residue size minus one; None when not constant)."""

    rank: int
    edges: dict  # (i, j) -> classification string
    orders: dict  # i -> Optional[int]

    def edge(self, i: int, j: int) -> str:
        return self.edges[(min(i, j), max(i, j))]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "edges": {f"{i},{j}": c for (i, j), c in sorted(self.edges.items())},
            "orders": {str(i): self.orders[i] for i in sorted(self.orders)},
        }


DIGON = "digon"
PROJECTIVE_PLANE_2 = "projective-plane-2"
GQ_2_2 = "gq-2-2"
PETERSEN_EDGE = "petersen-edge"
TILDE_EDGE = "tilde-edge"
UNKNOWN = "unknown"


def diagram(g: Geometry) -> DiagramReport:
    """Classify all rank-2 residues per type pair and report node orders.
    The walk over the flags that miss two types or one is the one that
    checks the axioms (:func:`_axiom_walk`), and a residue that gets a
    named class needs no connectivity search; a candidate that fails the
    axioms raises GeometryError with the failures :func:`is_geometry`
    reports."""
    types = range(1, g.rank + 1)
    classes: dict = {(i, j): set() for i in types for j in types if i < j}
    sizes: dict = {i: set() for i in types}
    type_at = [g.type_of[e] for e in g.elements]
    by_type = g._masks[1]
    # a flag's types are distinct, so one missing type is this less their sum
    all_types = sum(types)

    def classify(flag, cands):
        if len(flag) == g.rank - 1:
            sizes[all_types - sum(type_at[i] for i in flag)].add(cands.bit_count())
        elif len(flag) == g.rank - 2:
            flag_types = {type_at[i] for i in flag}
            missing = tuple(t for t in types if t not in flag_types)
            # two classes already make the edge unknown
            if len(classes[missing]) < 2:
                points = cands & by_type[missing[0]]
                found = _classify_rank2(g, points, cands ^ points)
                classes[missing].add(found)
                # each named class is a connected rank-2 geometry
                return found != UNKNOWN
        return False

    failures = _axiom_walk(g, classify)
    if failures:
        raise GeometryError(f"diagram requires a geometry: {failures}")
    edges = {pair: found.pop() if len(found) == 1 else UNKNOWN for pair, found in classes.items()}
    orders = {i: found.pop() - 1 if len(found) == 1 else None for i, found in sizes.items()}
    return DiagramReport(g.rank, edges, orders)


def _classify_rank2(g: Geometry, points: int, lines: int) -> str:
    """Class of a rank-2 residue whose elements of the lower missing type
    are the mask ``points`` and the others the mask ``lines``, read off the
    pencil masks of ``g``: every class is named by counting.  The (15, 10)
    and (45, 45) classes rest on two uniqueness theorems.  The Petersen
    graph is the unique Moore graph of degree 3 and diameter 2 (Hoffman
    and Singleton, 1960); the lower type is its edges, as in
    ``build.petersen_geometry``.  The Foster graph, the incidence graph of
    the rank-2 tilde geometry, is the only cubic distance-regular graph
    with its intersection array (Biggs, Boshier and Shawe-Taylor, 1986;
    Brouwer, Cohen and Neumaier, 1989, section 7.5)."""
    if not points or not lines:
        return UNKNOWN
    pencils = g._masks[0]
    on_point = [pencils[p] & lines for p in _bits(points)]
    if all(through == lines for through in on_point):
        return DIGON
    counts = (len(on_point), lines.bit_count())
    on_line = {l: pencils[l] & points for l in _bits(lines)}
    if counts in ((7, 7), (15, 15)):
        if all(m.bit_count() == 3 for m in (*on_point, *on_line.values())):
            # Fano: two distinct points lie on exactly one common line
            if counts == (7, 7) and all(
                (a & b).bit_count() == 1 for a, b in combinations(on_point, 2)
            ):
                return PROJECTIVE_PLANE_2
            if counts == (15, 15) and _is_quadrangle(on_point, on_line):
                return GQ_2_2
    if counts == (15, 10) and _is_petersen(pencils, on_point, on_line, lines):
        return PETERSEN_EDGE
    if counts == (45, 45) and _is_foster(pencils, points | lines):
        return TILDE_EDGE
    return UNKNOWN


def _is_quadrangle(on_point: list[int], on_line: dict) -> bool:
    """Generalized-quadrangle axiom: a point off a line is collinear with
    exactly one of its points.  ``on_point`` holds the line mask of each
    point, ``on_line`` the point mask of each line index."""
    for through in on_point:
        near = 0
        for l in _bits(through):
            near |= on_line[l]
        if any((on_line[l] & near).bit_count() != 1 for l in on_line if not through >> l & 1):
            return False
    return True


def _is_petersen(pencils: list[int], on_point: list[int], on_line: dict, lines: int) -> bool:
    """The points are the edges of a cubic simple graph on the lines, of
    girth at least 5: each point lies on exactly 2 lines, no two on the
    same 2, and each line carries 3 points; adjacent lines have no common
    neighbour and others at most one.  With 10 = 1 + 3 + 3*2 lines that
    graph meets the Moore bound, so it is the Petersen graph."""
    if (
        any(m.bit_count() != 2 for m in on_point)
        or len(set(on_point)) != len(on_point)
        or any(m.bit_count() != 3 for m in on_line.values())
    ):
        return False
    near = {}
    for l, edges in on_line.items():
        ends = 0
        for p in _bits(edges):
            ends |= pencils[p]
        near[l] = ends & lines & ~(1 << l)
    return all(
        (near[u] & near[v]).bit_count() <= 1 - (near[u] >> v & 1)
        for u, v in combinations(near, 2)
    )


# the Foster graph's intersection array {3,2,2,2,2,1,1,1; 1,1,1,1,2,2,2,3}
# as (b_i, c_i) for each distance i from 0 to its diameter 8
_FOSTER_ARRAY = tuple(zip((3, 2, 2, 2, 2, 1, 1, 1, 0), (0, 1, 1, 1, 1, 2, 2, 2, 3)))


def _is_foster(pencils: list[int], members: int) -> bool:
    """The incidence graph on the mask ``members`` is distance-regular with
    the Foster graph's intersection array: a breadth-first search from each
    element finds, at distance i, c_i neighbours one layer back and b_i one
    layer on for every element.  The graph is bipartite, so these are all
    its neighbours; each b_i before the last is positive, so no layer
    empties while the counts hold."""
    for source in _bits(members):
        back, layer, seen = 0, 1 << source, 1 << source
        for b, c in _FOSTER_ARRAY:
            ahead = 0
            for x in _bits(layer):
                near = pencils[x] & members
                on = near & ~seen
                if (near & back).bit_count() != c or on.bit_count() != b:
                    return False
                ahead |= on
            back, layer = layer, ahead
            seen |= ahead
    return True


# ---------------------------------------------------------------------------
# morphisms, quotients, coverings


class GeometryMorphism:
    """A type-preserving, incidence-preserving element map."""

    def __init__(self, source: Geometry, target: Geometry, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for e in source.elements:
            if e not in self.mapping:
                raise MorphismError(f"element {e!r} has no image")
            img = self.mapping[e]
            if img not in target.type_of:
                raise MorphismError(f"image {img!r} not in target")
            if target.type_of[img] != source.type_of[e]:
                raise MorphismError(f"map does not preserve the type of {e!r}")
        for a, b in source.incidence_pairs():
            fa, fb = self.mapping[a], self.mapping[b]
            if fa != fb and not target.incident(fa, fb):
                raise MorphismError(
                    f"incident pair ({a!r},{b!r}) maps to a non-incident pair"
                )

    def __call__(self, element):
        return self.mapping[element]

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.elements)


def quotient_by_action(g: Geometry, action: GroupAction) -> tuple[Geometry, GeometryMorphism]:
    """Quotient by the orbits of an action; incidence holds between orbits
    containing incident representatives.  The caller must run is_geometry on
    the result (quotients can degenerate)."""
    _check_action(g, action)
    orbits = [tuple(orb) for orb in action.orbits()]
    orbit_of = {x: orb for orb in orbits for x in orb}
    elements = [(orb, g.type_of[orb[0]]) for orb in orbits]
    incidences = {(orbit_of[a], orbit_of[b]) for a, b in g.incidence_pairs()}
    quotient = Geometry(g.rank, elements, [(oa, ob) for oa, ob in incidences if oa != ob])
    morphism = GeometryMorphism(g, quotient, {e: orbit_of[e] for e in g.elements})
    return quotient, morphism


def is_s_covering(f: GeometryMorphism, s: int) -> bool:
    """True when f is surjective and restricts to an isomorphism on every
    residue of rank at most s.  With s = rank-1 this is the covering test
    (isomorphism on every proper residue).

    f preserves types and incidence, so it maps the candidates of a flag F
    (the elements incident to all of F) into the pencil intersection of
    f(F).  The restriction of f to res(F) is an isomorphism exactly when
    that map is a bijection for F and for every flag F + {c} with c a
    candidate: the latter make f reflect incidence inside res(F).  The walk
    visits all those flags, so no residue is built."""
    if not 1 <= s < f.source.rank:
        raise MorphismError(f"s must satisfy 1 <= s < rank, got {s}")
    if not f.is_surjective():
        return False
    src, tgt = f.source, f.target
    image = [tgt._order[f.mapping[e]] for e in src.elements]
    pencils = tgt._masks[0]

    def visit(flag, cands):
        if len(flag) < src.rank - s:
            return None
        over = pencils[image[flag[0]]]
        for x in flag[1:]:
            over &= pencils[image[x]]
        count = cands.bit_count()
        return count != over.bit_count() or len({image[i] for i in _bits(cands)}) != count

    return not src._walk(visit, src.rank - 1)


# ---------------------------------------------------------------------------
# isomorphism


def isomorphic(g1: Geometry, g2: Geometry) -> Optional[dict]:
    """A type- and incidence-preserving bijection, or None.

    Tries the trivial id-based bijections first (so exported/imported copies
    of large geometries still verify), then degree/type refinement plus
    backtracking, capacity-limited to 500 elements."""
    if g1.rank != g2.rank or g1.size != g2.size:
        return None
    for t in range(1, g1.rank + 1):
        if len(g1.elements_of_type(t)) != len(g2.elements_of_type(t)):
            return None
    shortcut = _trivial_bijection(g1, g2)
    if shortcut is not None:
        return shortcut
    if g1.size > ISOMORPHISM_ELEMENT_BOUND:
        raise CapacityError(
            f"isomorphism search limited to {ISOMORPHISM_ELEMENT_BOUND} elements"
        )
    graph1 = Graph(g1.elements, g1.incidence_pairs())
    graph2 = Graph(g2.elements, g2.incidence_pairs())
    mapping = graph_isomorphism(
        graph1,
        graph2,
        colors1={e: g1.type_of[e] for e in g1.elements},
        colors2={e: g2.type_of[e] for e in g2.elements},
    )
    return mapping


def _trivial_bijection(g1: Geometry, g2: Geometry) -> Optional[dict]:
    for convert in (lambda e: e, _id_to_str):
        mapping = {e: convert(e) for e in g1.elements}
        if set(mapping.values()) != set(g2.elements):
            continue
        if any(g1.type_of[e] != g2.type_of[mapping[e]] for e in g1.elements):
            continue
        pairs1 = {frozenset((mapping[a], mapping[b])) for a, b in g1.incidence_pairs()}
        pairs2 = {frozenset(p) for p in g2.incidence_pairs()}
        if pairs1 == pairs2:
            return mapping
    return None


# ---------------------------------------------------------------------------
# amalgam reports


@dataclass
class AmalgamReport:
    flag: tuple
    parabolic_orders: dict  # type -> |M_i|
    intersection_orders: dict  # (i, j) -> |M_i meet M_j|
    borel_order: int
    image_order: int

    def to_json(self) -> dict:
        return {
            "flag": [_id_to_str(e) for e in self.flag],
            "parabolic_orders": {str(i): v for i, v in sorted(self.parabolic_orders.items())},
            "intersection_orders": {
                f"{i},{j}": v for (i, j), v in sorted(self.intersection_orders.items())
            },
            "borel_order": self.borel_order,
            "image_order": self.image_order,
        }


def amalgam_report(g: Geometry, action: GroupAction, flag: Sequence) -> AmalgamReport:
    """Orders of the maximal parabolics (flag-element stabilizers in the
    action image), their pairwise intersections and the Borel subgroup, by
    orbit-stabilizer: the pointwise stabilizer of a tuple of elements has
    order |image| / |orbit of the tuple|, so the image's chain that
    certifies flag-transitivity is the only one built."""
    _check_action(g, action)
    chain = _one_flag_orbit(g, action)
    if chain is None:
        raise ActionError("amalgam report requires a flag-transitive action")
    flag = tuple(sorted(flag, key=label_key))
    if len(flag) != g.rank or not g.is_flag(flag):
        raise FlagError("amalgam report requires a maximal flag")
    image_order = chain.order()
    step = _tuple_step(action.images)
    by_type = {g.type_of[e]: action.index[e] for e in flag}
    types = sorted(by_type)

    def order(*ts):
        return image_order // len(_closure([tuple(by_type[t] for t in ts)], step))

    parabolic = {t: order(t) for t in types}
    intersections = {(i, j): order(i, j) for i, j in combinations(types, 2)}
    return AmalgamReport(flag, parabolic, intersections, order(*types), image_order)
