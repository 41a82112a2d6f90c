"""Small deterministic simple-graph utilities shared by the geometry,
covering and local-analysis modules."""

from __future__ import annotations

from typing import Iterable, Optional

from .perm import _closure, label_key

__all__ = [
    "Graph",
    "graph_isomorphism",
]


class Graph:
    """Undirected simple graph over hashable labels, with vertices kept in a
    canonical sorted order so every traversal is reproducible."""

    def __init__(self, vertices: Iterable, edges: Iterable[tuple]):
        self.vertices = tuple(sorted(set(vertices), key=label_key))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj: dict = {v: set() for v in self.vertices}
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at {a!r} not allowed")
            if a not in adj or b not in adj:
                raise ValueError("edge endpoint outside vertex set")
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: tuple(sorted(ns, key=self._index.__getitem__)) for v, ns in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, v) -> tuple:
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def has_edge(self, a, b) -> bool:
        return b in self._adj[a]

    def edges(self) -> list[tuple]:
        index = self._index
        return [(v, w) for v in self.vertices for w in self._adj[v] if index[v] < index[w]]

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.component(self.vertices[0])) == self.n

    def component(self, start) -> list:
        return sorted(_closure([start], self._adj.__getitem__), key=self._index.__getitem__)

    def distances(self, start) -> dict:
        dist = {start: 0}
        queue = [start]
        d = 0
        while queue:
            d += 1
            nxt = []
            for v in queue:
                for w in self._adj[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            queue = nxt
        return dist

    def ball(self, center, radius: int) -> list:
        return sorted(
            (v for v, d in self.distances(center).items() if d <= radius),
            key=self._index.__getitem__,
        )

    def triangles(self) -> list[tuple]:
        """All 3-cliques, each as a canonically sorted triple."""
        index = self._index
        out = []
        for a in self.vertices:
            for b in self._adj[a]:
                if index[b] <= index[a]:
                    continue
                for c in self._adj[b]:
                    if index[c] <= index[b]:
                        continue
                    if c in self._adj[a]:
                        out.append((a, b, c))
        return out

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.num_edges} edges)"


def girth(graph: Graph):
    """Length of a shortest cycle via BFS from every vertex; float('inf')
    for forests.  A cycle closed from depth d has length at least 2d + 1, so
    a BFS stops at the first depth where that reaches the best cycle found."""
    best = float("inf")
    for root in graph.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        depth = 0
        while queue and 2 * depth + 1 < best:
            nxt = []
            for v in queue:
                for w in graph.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif parent[v] != w and dist[w] >= dist[v]:
                        # non-tree edge closing a cycle through the root side
                        best = min(best, dist[v] + dist[w] + 1)
            queue = nxt
            depth += 1
    return best


# ---------------------------------------------------------------------------
# colored-graph isomorphism: refinement plus backtracking, desk scale


def _refine(graph: Graph, colors: dict) -> dict:
    while True:
        signatures = {}
        for v in graph.vertices:
            neigh = tuple(sorted(colors[w] for w in graph.neighbors(v)))
            signatures[v] = (colors[v], neigh)
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
        new_colors = {v: palette[signatures[v]] for v in graph.vertices}
        if new_colors == colors:
            return colors
        colors = new_colors


def _color_histogram(colors: dict) -> dict:
    hist: dict = {}
    for c in colors.values():
        hist[c] = hist.get(c, 0) + 1
    return hist


def graph_isomorphism(
    g1: Graph,
    g2: Graph,
    colors1: Optional[dict] = None,
    colors2: Optional[dict] = None,
) -> Optional[dict]:
    """A color- and adjacency-preserving bijection g1 -> g2, or None.

    Initial colors default to vertex degree classes; refinement runs before
    the backtracking search.
    """
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    colors1 = dict(colors1) if colors1 else {v: 0 for v in g1.vertices}
    colors2 = dict(colors2) if colors2 else {v: 0 for v in g2.vertices}
    colors1 = _refine(g1, colors1)
    colors2 = _refine(g2, colors2)
    if _color_histogram(colors1) != _color_histogram(colors2):
        return None

    order = _search_order(g1, colors1)
    candidates_by_color: dict = {}
    for w in g2.vertices:
        candidates_by_color.setdefault(colors2[w], []).append(w)

    mapping: dict = {}
    used: set = set()

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates_by_color.get(colors1[v], []):
            if w in used:
                continue
            ok = True
            for u in g1.neighbors(v):
                if u in mapping and not g2.has_edge(mapping[u], w):
                    ok = False
                    break
            if not ok:
                continue
            # non-adjacency must be preserved too (same degree classes make
            # checking mapped neighbors sufficient)
            deg_mapped = sum(1 for u in g1.neighbors(v) if u in mapping)
            deg_target = sum(1 for u in g2.neighbors(w) if u in used)
            if deg_mapped != deg_target:
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def _search_order(graph: Graph, colors: dict) -> list:
    """Connectivity-guided vertex order: next vertex maximizes the number of
    already-ordered neighbors, ties broken by color class size then label."""
    class_size = _color_histogram(colors)
    remaining = set(graph.vertices)
    order: list = []
    placed: set = set()
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -sum(1 for u in graph.neighbors(v) if u in placed),
                class_size[colors[v]],
                graph._index[v],
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)
    return order
