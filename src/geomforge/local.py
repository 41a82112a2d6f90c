"""Local analysis of geometries through their derived graphs: the
projective-space structure of the subgraphs through a vertex, kernel series
of vertex stabilizers, the order-at-most-2 kernel condition, graph girth and
the girth-5 hypothesis checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .build import ConstructionMetadata, projective_geometry_2
from .geom import Geometry, GeometryError, derived_graph, is_geometry, isomorphic
from .graphs import Graph, girth
from .perm import (
    GroupAction,
    PermutationGroup,
    _closure,
    _tuple_step,
    induced_action,
)

__all__ = [
    "LocalSpaceVerdict",
    "local_space_check",
    "KernelSeriesReport",
    "kernel_series",
    "condition_star",
    "Hypothesis61Report",
    "hypothesis_61_check",
]


@dataclass
class LocalSpaceVerdict:
    ok: bool
    failures: list[str]
    subgraph_count: int

    def __bool__(self) -> bool:
        return self.ok


def local_space_check(g: Geometry, a) -> LocalSpaceVerdict:
    """The subgraphs through a top-type vertex a, ordered by containment,
    must form the projective space of proper subspaces of GF(2)^rank: a
    type-i element contributes a subgraph playing the role of a
    (rank - i)-dimensional subspace."""
    verdict = is_geometry(g)
    if not verdict.ok:
        raise GeometryError(f"local space check requires a geometry: {verdict.failures}")
    if g.type_of.get(a) != g.rank:
        raise ValueError(f"element {a!r} is not of top type {g.rank}")
    failures: list[str] = []
    members = [y for y in g.pencil(a) if g.type_of[y] < g.rank]
    vertex_sets: dict = {}
    for y in members:
        vs = frozenset(
            e for e in g.pencil(y) if g.type_of[e] == g.rank
        )
        vertex_sets[y] = vs
    if len(set(vertex_sets.values())) != len(members):
        failures.append("distinct elements share a subgraph")
    elements = [(y, g.rank - g.type_of[y]) for y in members]
    incidences = []
    for i, y in enumerate(members):
        for z in members[i + 1 :]:
            if g.type_of[y] == g.type_of[z]:
                continue
            sy, sz = vertex_sets[y], vertex_sets[z]
            if sy < sz or sz < sy:
                incidences.append((y, z))
    space = Geometry(max(g.rank - 1, 1), elements, incidences)
    reference = projective_geometry_2(g.rank).geometry
    if isomorphic(space, reference) is None:
        failures.append(
            "containment order of the subgraphs does not match the "
            f"projective space of GF(2)^{g.rank}"
        )
    return LocalSpaceVerdict(not failures, failures, len(members))


@dataclass
class KernelSeriesReport:
    """Orders |K_0|, ..., |K_s| of the pointwise stabilizers of balls of
    growing radius around a derived-graph vertex; K_0 is the plain vertex
    stabilizer (the series the analysis indexes from 1 is shifted by one)."""

    vertex: object
    orders: list[int]

    def to_json(self) -> dict:
        return {"vertex": str(self.vertex), "orders": list(self.orders)}


def _derived_action(meta: ConstructionMetadata) -> tuple[Graph, GroupAction]:
    g = meta.geometry
    delta = derived_graph(g)
    top = g.elements_of_type(g.rank)
    return delta, meta.action.restricted(top)


def kernel_series(meta: ConstructionMetadata, a, s_max: int) -> KernelSeriesReport:
    """Pointwise stabilizer orders of balls around a, read off one stabilizer
    chain of the action image on derived-graph vertices.

    The chain's base starts with the ball of radius s_max, nearer vertices
    first, and level k of a verified chain is the stabilizer of the first k
    base points, so K_s is the chain's stabilizer at level |ball(a, s)|."""
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    delta, action = _derived_action(meta)
    if a not in action.index:
        raise GeometryError(f"{a!r} is not a derived-graph vertex")
    distance = {v: d for v, d in delta.distances(a).items() if d <= s_max}
    ball = sorted(distance, key=lambda v: (distance[v], action.index[v]))
    chain = action.image_group().base_chain([action.index[v] for v in ball])
    orders = [
        chain.stabilizer(sum(1 for d in distance.values() if d <= s)).order()
        for s in range(s_max + 1)
    ]
    return KernelSeriesReport(a, orders)


def condition_star(
    meta: ConstructionMetadata, series: Optional[KernelSeriesReport] = None
) -> bool:
    """The kernel on the radius-(rank - 1) ball has order at most 2; by
    flag-transitivity one vertex decides for all.  So a ``series`` already
    computed up to that radius is read instead of recomputed, whatever its
    vertex; without one, the first derived-graph vertex is used."""
    g = meta.geometry
    if g.rank < 2:
        raise GeometryError("condition (*) requires rank at least 2")
    if series is None or len(series.orders) < g.rank:
        series = kernel_series(meta, derived_graph(g).vertices[0], g.rank - 1)
    return series.orders[g.rank - 1] <= 2


@dataclass
class Hypothesis61Report:
    girth: object
    vertex_transitive: bool
    edge_transitive: bool
    local_degree: int
    local_order: int
    doubly_transitive: bool
    has_regular_normal_subgroup: bool
    kernel_order: int
    verdict: bool
    first_failure: Optional[str]

    def to_json(self) -> dict:
        return {
            "girth": "infinite" if self.girth == float("inf") else self.girth,
            "vertex_transitive": self.vertex_transitive,
            "edge_transitive": self.edge_transitive,
            "local_action": {
                "degree": self.local_degree,
                "order": self.local_order,
                "doubly_transitive": self.doubly_transitive,
                "regular_normal_subgroup": self.has_regular_normal_subgroup,
            },
            "kernel_nontrivial": self.kernel_order > 1,
            "verdict": "pass" if self.verdict else "fail",
            "first_failure": self.first_failure,
        }


def hypothesis_61_check(graph: Graph, action: GroupAction) -> Hypothesis61Report:
    """Check the girth-5 hypothesis: girth 5, vertex- and edge-transitivity,
    doubly transitive local action without regular normal subgroups, and a
    nontrivial kernel of the local action.

    Known behaviour at larger scale (not asserted by tests, out of desk
    scope): the rank-4 Petersen-type geometry of M23 yields a derived graph
    whose local-action kernel is trivial, so the check fails exactly on the
    nontrivial-kernel clause there."""
    edges = graph.edges()
    _check_graph_action(graph, action, edges)
    g_value = girth(graph)
    image = action.image_group()
    vertex_transitive = len(action.orbit(graph.vertices[0])) == graph.n

    edge_transitive = False
    if edges:
        # _check_graph_action has checked that the generators preserve edges
        images = action.images
        start = frozenset(action.index[v] for v in edges[0])
        orbit = _closure([start], lambda e: [frozenset([img[i] for i in e]) for img in images])
        edge_transitive = len(orbit) == len(edges)

    x = graph.vertices[0]
    # one chain with base point x gives G_x and its order
    stabilizer = image.stabilizer([action.index[x]])
    stabilizer_order = stabilizer.order()
    neighbors = [action.index[v] for v in graph.neighbors(x)]
    local = induced_action(stabilizer, neighbors, lambda p, v: p.images[v])
    local_image = local.image_group()
    local_order = local_image.order()
    degree = len(neighbors)
    doubly = _is_doubly_transitive(local_image, degree)
    regular_normal = _has_regular_normal_subgroup(local_image, degree)
    kernel_order = stabilizer_order // local_order

    checks = [
        ("girth", g_value == 5),
        ("vertex-transitivity", vertex_transitive),
        ("edge-transitivity", edge_transitive),
        ("double-transitivity of the local action", doubly),
        ("absence of regular normal subgroups", not regular_normal),
        ("nontrivial kernel", kernel_order > 1),
    ]
    first_failure = next((name for name, ok in checks if not ok), None)
    return Hypothesis61Report(
        girth=g_value,
        vertex_transitive=vertex_transitive,
        edge_transitive=edge_transitive,
        local_degree=degree,
        local_order=local_order,
        doubly_transitive=doubly,
        has_regular_normal_subgroup=regular_normal,
        kernel_order=kernel_order,
        verdict=all(ok for _, ok in checks),
        first_failure=first_failure,
    )


def _check_graph_action(graph: Graph, action: GroupAction, edges: list) -> None:
    if set(action.domain) != set(graph.vertices):
        raise GeometryError("action domain differs from the vertex set")
    gi = action.first_generator_moving(edges)
    if gi is not None:
        raise GeometryError(f"generator {gi} is not a graph automorphism")


def _is_doubly_transitive(group: PermutationGroup, degree: int) -> bool:
    """The ordered pairs of distinct points form one orbit."""
    if degree < 2:
        return False
    orbit = _closure([(0, 1)], _tuple_step([g.images for g in group.generators]))
    return len(orbit) == degree * (degree - 1)


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, k) with n = p^k for a prime p, or None; n >= 2."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _has_regular_normal_subgroup(group: PermutationGroup, degree: int) -> bool:
    """Whether some minimal normal subgroup of a group on 0..degree-1 is
    regular (transitive of order ``degree``), decided without listing the
    group.  Three facts decide it:

    - a minimal normal subgroup N is T^m for a simple group T (Dixon and
      Mortimer, *Permutation Groups*, 1996, Thm 4.3A);
    - a nonabelian simple group has order at least 60 (A5) and, by
      Burnside's p^a q^b theorem, not a prime power; so a regular N of
      prime-power degree p^k is elementary abelian, and the group lies in
      its holomorph AGL(k, p) (ibid., section 4.5), while one of any other
      degree has order at least 60;
    - a regular N holds exactly one element x sending 0 to 1, and by
      minimality N is the normal closure of x.

    So after the arithmetic filters one coset of the stabilizer of 0 is
    scanned for that x."""
    if degree < 2 or group.order() % degree or not group.is_transitive(degree):
        return False
    power = _prime_power(degree)
    if power is None:
        if degree < 60:
            return False
    else:
        p, k = power
        if degree * math.prod(degree - p**i for i in range(k)) % group.order():
            return False
    chain = group.base_chain([0])
    u = chain.representative(1)  # sends 0 to 1
    for h in chain.stabilizer(1).elements():
        x = h * u
        if any(x.images[i] == i for i in range(degree)):
            continue
        closure = group.normal_closure([x])
        if (
            closure.order() == degree
            and closure.is_transitive(degree)
            and all(
                group.normal_closure([y]).order() == degree
                for y in closure.elements()
                if not y.is_identity()
            )
        ):
            return True
    return False
