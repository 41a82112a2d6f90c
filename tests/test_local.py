"""Local analysis tests: the projective-space structure of vertex stars,
kernel series, condition (*), girth and the girth-5 check."""

import time
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforge import build, local
from geomforge.geom import GeometryError, derived_graph
from geomforge.graphs import Graph, girth
from geomforge.perm import Permutation, PermutationGroup, induced_action, label_key
from oracles import bfs_girth, minimal_normal_by_enumeration


class TestLocalSpace:
    def test_p0_vertex(self, p0):
        vertex = p0.geometry.elements_of_type(2)[0]
        verdict = local.local_space_check(p0.geometry, vertex)
        assert verdict.ok and verdict.subgraph_count == 3

    def test_t0_line(self, t0):
        line = t0.geometry.elements_of_type(2)[0]
        verdict = local.local_space_check(t0.geometry, line)
        assert verdict.ok and verdict.subgraph_count == 3

    def test_c3_plane_gives_fano_star(self, sp3):
        plane = sp3.geometry.elements_of_type(3)[0]
        verdict = local.local_space_check(sp3.geometry, plane)
        assert verdict.ok and verdict.subgraph_count == 14

    def test_non_top_element_rejected(self, p0):
        edge = p0.geometry.elements_of_type(1)[0]
        with pytest.raises(ValueError):
            local.local_space_check(p0.geometry, edge)


class TestKernelSeries:
    def test_p0_orders(self, p0):
        vertex = p0.geometry.elements_of_type(2)[0]
        report = local.kernel_series(p0, vertex, 2)
        assert report.orders == [12, 2, 1]

    def test_t0_k1_at_most_2(self, t0):
        vertex = t0.geometry.elements_of_type(2)[0]
        report = local.kernel_series(t0, vertex, 1)
        assert report.orders[0] == 48
        assert report.orders[1] <= 2

    def test_orders_divide_down_the_series(self, p0):
        vertex = p0.geometry.elements_of_type(2)[0]
        report = local.kernel_series(p0, vertex, 2)
        for earlier, later in zip(report.orders, report.orders[1:]):
            assert earlier % later == 0

    def test_constant_across_an_orbit(self, p0):
        vertices = p0.geometry.elements_of_type(2)
        reports = [local.kernel_series(p0, v, 2).orders for v in vertices[:4]]
        assert all(r == reports[0] for r in reports)

    def test_trivial_action_all_ones(self, p0):
        from dataclasses import replace
        from geomforge.geom import element_action

        trivial = PermutationGroup.trivial(1)
        action = element_action(p0.geometry, trivial, lambda g, e: e)
        meta = replace(p0, group=trivial, action=action)
        vertex = p0.geometry.elements_of_type(2)[0]
        report = local.kernel_series(meta, vertex, 2)
        assert report.orders == [1, 1, 1]

    def test_negative_radius_rejected(self, p0):
        vertex = p0.geometry.elements_of_type(2)[0]
        with pytest.raises(ValueError):
            local.kernel_series(p0, vertex, -1)

    def test_orbit_stabilizer_identity(self, p0):
        # |K_0| x vertex count = action image order under transitivity
        vertex = p0.geometry.elements_of_type(2)[0]
        report = local.kernel_series(p0, vertex, 0)
        delta = derived_graph(p0.geometry)
        action = p0.action.restricted(delta.vertices)
        assert report.orders[0] * delta.n == action.image_group().order()


    @pytest.mark.parametrize("name", ["petersen", "pg3", "tilde9"])
    def test_matches_pointwise_stabilizer_of_each_ball(self, name):
        meta = _kernel_builds()[name]
        delta = derived_graph(meta.geometry)
        action = meta.action.restricted(delta.vertices)
        image = action.image_group()
        for vertex in delta.vertices:
            expected = [
                image.stabilizer(
                    [action.index[v] for v in delta.ball(vertex, s)], mode="pointwise"
                ).order()
                for s in range(4)
            ]
            assert local.kernel_series(meta, vertex, 3).orders == expected

    def test_sifting_skips_levels_that_fix_their_base(self, monkeypatch):
        # most levels of a chain based on the ball fix their base point;
        # multiplying by the identity u_q at each of them makes 5,858 products
        meta = _kernel_builds()["tilde9"]
        vertex = meta.geometry.elements_of_type(2)[0]
        products = []
        mul = Permutation.__mul__

        def counting(p, q):
            products.append(1)
            return mul(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counting)
        assert local.kernel_series(meta, vertex, 2).orders == [48, 2, 1]
        assert len(products) <= 3000


@lru_cache(maxsize=None)
def _kernel_builds():
    return {
        "petersen": build.petersen_geometry(),
        "pg3": build.projective_geometry_2(3),
        "tilde9": build.tilde_geometry(9),
    }


class TestConditionStar:
    def test_p0_true(self, p0):
        assert local.condition_star(p0) is True

    def test_t0_true(self, t0):
        assert local.condition_star(t0) is True

    def test_trivial_action_true(self, p0):
        from dataclasses import replace
        from geomforge.geom import element_action

        trivial = PermutationGroup.trivial(1)
        action = element_action(p0.geometry, trivial, lambda g, e: e)
        meta = replace(p0, group=trivial, action=action)
        assert local.condition_star(meta) is True


class TestGirth:
    def test_petersen_5(self, p0):
        assert girth(derived_graph(p0.geometry)) == 5

    def test_triangle_3(self):
        assert girth(Graph(range(3), [(0, 1), (1, 2), (0, 2)])) == 3

    def test_tree_infinite(self):
        tree = Graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert girth(tree) == float("inf")

    def test_against_bfs_oracle_on_random_graphs(self):
        from random import Random

        rng = Random(31337)
        for _ in range(30):
            n = rng.randrange(4, 14)
            edges = [
                (i, j)
                for i, j in combinations(range(n), 2)
                if rng.random() < 0.3
            ]
            graph = Graph(range(n), edges)
            adjacency = {v: graph.neighbors(v) for v in graph.vertices}
            assert girth(graph) == bfs_girth(adjacency)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))),
    )))
    def test_matches_oracle(self, graph_data):
        n, pairs = graph_data
        graph = Graph(range(n), {tuple(sorted(p)) for p in pairs if p[0] != p[1]})
        adjacency = {v: graph.neighbors(v) for v in graph.vertices}
        assert girth(graph) == bfs_girth(adjacency)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(
        st.one_of(st.none(), st.integers(0, max(n - 1, 0))), min_size=n, max_size=n
    )))
    def test_forests_are_infinite(self, parents):
        # vertex i hangs below an earlier vertex or starts a new tree
        edges = [(p % i, i) for i, p in enumerate(parents) if i and p is not None]
        graph = Graph(range(len(parents)), edges)
        adjacency = {v: graph.neighbors(v) for v in graph.vertices}
        assert girth(graph) == bfs_girth(adjacency) == float("inf")


def _cycle(n):
    return Permutation([(i + 1) % n for i in range(n)])


def _reflection(n):
    return Permutation([-i % n for i in range(n)])


_PAIR_GROUPS = {
    "S2": lambda: PermutationGroup.symmetric(2),
    "trivial-2": lambda: PermutationGroup.trivial(2),
    "S4": lambda: PermutationGroup.symmetric(4),
    "S5": lambda: PermutationGroup.symmetric(5),
    "A4": lambda: PermutationGroup.alternating(4),
    "A5": lambda: PermutationGroup.alternating(5),
    "D5": lambda: PermutationGroup([_cycle(5), _reflection(5)]),
    "D6": lambda: PermutationGroup([_cycle(6), _reflection(6)]),
    "C7": lambda: PermutationGroup([_cycle(7)]),
    "intransitive": lambda: PermutationGroup(
        [Permutation.from_cycles(5, [(0, 1)]), Permutation.from_cycles(5, [(2, 3, 4)])]
    ),
}


def _old_is_doubly_transitive(group, degree):
    """Reference: one orbit of the induced action on all ordered pairs."""
    if degree < 2:
        return False
    pairs = [(i, j) for i in range(degree) for j in range(degree) if i != j]
    action = induced_action(group, pairs, lambda p, pair: (p.images[pair[0]], p.images[pair[1]]))
    return len(action.orbit(pairs[0])) == len(pairs)


def _old_edge_transitive(graph, action):
    """Reference: one orbit of the induced action on all edges."""
    edges = [tuple(sorted(e, key=label_key)) for e in graph.edges()]

    def move(p, e):
        ends = (action.domain[p.images[action.index[v]]] for v in e)
        return tuple(sorted(ends, key=label_key))

    edge_action = induced_action(action.image_group(), edges, move)
    return bool(edges) and len(edge_action.orbit(edges[0])) == len(edges)


def _natural(group):
    return induced_action(group, range(group.degree), lambda g, v: g.images[v])


_EDGE_CASES = {
    "K2-S2": (Graph(range(2), [(0, 1)]), "S2"),
    "K4-S4": (Graph(range(4), list(combinations(range(4), 2))), "S4"),
    "K4-A4": (Graph(range(4), list(combinations(range(4), 2))), "A4"),
    "K5-A5": (Graph(range(5), list(combinations(range(5), 2))), "A5"),
    "C5-D5": (Graph(range(5), [(i, (i + 1) % 5) for i in range(5)]), "D5"),
    "C6-D6": (Graph(range(6), [(i, (i + 1) % 6) for i in range(6)]), "D6"),
    "C7-C7": (Graph(range(7), [(i, (i + 1) % 7) for i in range(7)]), "C7"),
    "K2+K3-intransitive": (Graph(range(5), [(0, 1), (2, 3), (3, 4), (2, 4)]), "intransitive"),
    "edgeless-S4": (Graph(range(4), []), "S4"),
}


class TestOrbitVerdicts:
    @pytest.mark.parametrize("name", sorted(_PAIR_GROUPS))
    def test_doubly_transitive_matches_pair_action(self, name):
        group = _PAIR_GROUPS[name]()
        expected = _old_is_doubly_transitive(group, group.degree)
        assert local._is_doubly_transitive(group, group.degree) == expected

    def test_doubly_transitive_verdicts(self):
        verdicts = {
            name: local._is_doubly_transitive(make(), make().degree)
            for name, make in _PAIR_GROUPS.items()
        }
        assert sorted(name for name, ok in verdicts.items() if ok) == [
            "A4", "A5", "S2", "S4", "S5",
        ]

    @pytest.mark.parametrize("name", sorted(_EDGE_CASES))
    def test_edge_transitive_matches_edge_action(self, name):
        graph, group_name = _EDGE_CASES[name]
        action = _natural(_PAIR_GROUPS[group_name]())
        report = local.hypothesis_61_check(graph, action)
        assert report.edge_transitive == _old_edge_transitive(graph, action)
        assert report.edge_transitive == (
            name not in ("K2+K3-intransitive", "edgeless-S4")
        )

    def test_petersen_edges_match_edge_action(self, p0):
        graph = derived_graph(p0.geometry)
        action = induced_action(
            PermutationGroup.symmetric(5),
            graph.vertices,
            lambda g, v: tuple(sorted(g.images[x] for x in v)),
        )
        assert local.hypothesis_61_check(graph, action).edge_transitive
        assert _old_edge_transitive(graph, action)


class TestHypothesis61:
    def test_petersen_s5_fails_only_on_regular_normal_subgroup(self, p0):
        graph = derived_graph(p0.geometry)
        s5 = PermutationGroup.symmetric(5)
        action = induced_action(
            s5, graph.vertices, lambda g, v: tuple(sorted(g.images[x] for x in v))
        )
        report = local.hypothesis_61_check(graph, action)
        assert report.girth == 5
        assert report.vertex_transitive and report.edge_transitive
        assert report.doubly_transitive
        assert report.has_regular_normal_subgroup  # S3 locally, A3 regular
        assert report.kernel_order == 2
        assert not report.verdict
        assert report.first_failure == "absence of regular normal subgroups"

    def test_k4_s4_fails_on_girth(self):
        graph = Graph(range(4), list(combinations(range(4), 2)))
        s4 = PermutationGroup.symmetric(4)
        action = induced_action(s4, range(4), lambda g, v: g.images[v])
        report = local.hypothesis_61_check(graph, action)
        assert report.girth == 3
        assert not report.verdict and report.first_failure == "girth"

    def test_non_automorphism_action_rejected(self):
        graph = Graph(range(4), [(0, 1), (1, 2), (2, 3)])  # path
        s4 = PermutationGroup.symmetric(4)
        action = induced_action(s4, range(4), lambda g, v: g.images[v])
        with pytest.raises(Exception):
            local.hypothesis_61_check(graph, action)

    def test_error_names_first_non_automorphism(self):
        square = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        s4 = PermutationGroup.symmetric(4)  # generators (0 1 2 3), (0 1)
        action = induced_action(s4, range(4), lambda g, v: g.images[v])
        with pytest.raises(GeometryError) as excinfo:
            local.hypothesis_61_check(square, action)
        assert str(excinfo.value) == "generator 1 is not a graph automorphism"


def _hyp61(meta):
    g = meta.geometry
    action = meta.action.restricted(g.elements_of_type(g.rank))
    return local.hypothesis_61_check(derived_graph(g), action)


class TestHyp61Builtins:
    @pytest.mark.parametrize("name", ["tilde9", "sp3", "pg4"])
    def test_lists_no_group(self, monkeypatch, name):
        # local degrees 6 and 14: the arithmetic filter decides without
        # listing the local action or taking a normal closure
        meta = {
            "tilde9": lambda: _kernel_builds()["tilde9"],
            "sp3": lambda: build.symplectic_polar_space(3),
            "pg4": lambda: build.projective_geometry_2(4),
        }[name]()
        calls = []

        def counted(method):
            original = getattr(PermutationGroup, method)

            def wrapper(*args, **kwargs):
                calls.append(method)
                return original(*args, **kwargs)

            return wrapper

        for method in ("elements", "normal_closure"):
            monkeypatch.setattr(PermutationGroup, method, counted(method))
        assert not _hyp61(meta).has_regular_normal_subgroup
        assert calls == []

    def test_pg5_report_within_two_seconds(self):
        meta = build.projective_geometry_2(5)
        started = time.monotonic()
        report = _hyp61(meta)
        assert time.monotonic() - started <= 2.0  # 34 s with the enumerating check
        assert report.to_json() == {
            "girth": 3,
            "vertex_transitive": True,
            "edge_transitive": True,
            "local_action": {
                "degree": 30,
                "order": 322560,
                "doubly_transitive": False,
                "regular_normal_subgroup": False,
            },
            "kernel_nontrivial": False,
            "verdict": "fail",
            "first_failure": "girth",
        }


def _affine(p, k, linear=()):
    """The unit translations of GF(p)^k and the given k x k matrices, acting
    on the vectors in lexicographic order."""
    vectors = list(product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(vectors)}
    maps = [
        lambda v, j=j: tuple((x + (i == j)) % p for i, x in enumerate(v)) for j in range(k)
    ] + [
        lambda v, m=m: tuple(sum(a * x for a, x in zip(row, v)) % p for row in m) for m in linear
    ]
    return PermutationGroup([Permutation([index[f(v)] for v in vectors]) for f in maps])


def _on_triples(group):
    """The action on ordered triples of distinct points: regular for A5,
    and on the cosets of a transposition for S5."""
    return induced_action(
        group, permutations(range(group.degree), 3), lambda g, t: tuple(g.images[x] for x in t)
    ).image_group()


def _a5_by_both_sides():
    """A5 x A5 on the 60 elements of A5, by right and left multiplication."""
    a5 = PermutationGroup.alternating(5)
    elements = a5.elements()
    index = {e: i for i, e in enumerate(elements)}
    right = [Permutation([index[e * s] for e in elements]) for s in a5.generators]
    left = [Permutation([index[s.inverse() * e] for e in elements]) for s in a5.generators]
    return PermutationGroup(right + left)



def _a5_times_c12():
    """A5 x C12 on the 60 pairs (b, a), point 5b + a: C12 moves b and A5
    moves a.  Its minimal normal A5 has order 60 and sends 0 to 1, but it is
    intransitive."""
    a5 = PermutationGroup.alternating(5)
    gens = [Permutation([5 * b + s.images[a] for b in range(12) for a in range(5)]) for s in a5.generators]
    shift = Permutation([5 * ((b + 1) % 12) + a for b in range(12) for a in range(5)])
    return PermutationGroup(gens + [shift])

# whether some minimal normal subgroup is regular, as the enumerating check gave
_REGULAR_VERDICTS = {
    "S2": (lambda: PermutationGroup.symmetric(2), True),
    "C3": (lambda: _affine(3, 1), True),
    "S3": (lambda: PermutationGroup.symmetric(3), True),
    "C5": (lambda: _affine(5, 1), True),
    "D10": (lambda: _affine(5, 1, [[[4]]]), True),
    "AGL(1,5)": (lambda: _affine(5, 1, [[[2]]]), True),
    "A4": (lambda: PermutationGroup.alternating(4), True),
    "S4": (lambda: PermutationGroup.symmetric(4), True),
    "AGL(1,7)": (lambda: _affine(7, 1, [[[3]]]), True),
    "AGL(2,2)": (lambda: _affine(2, 2, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]), True),
    "AGL(3,2)": (
        lambda: _affine(2, 3, [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]),
        True,
    ),
    "AGL(2,3)": (lambda: _affine(3, 2, [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]]), True),
    "A5 on 60": (lambda: _on_triples(PermutationGroup.alternating(5)), True),
    "A5xA5 on 60": (_a5_by_both_sides, True),
    "S5 on 60": (lambda: _on_triples(PermutationGroup.symmetric(5)), True),
    "V4": (lambda: _affine(2, 2), False),
    "C4": (lambda: PermutationGroup([_cycle(4)]), False),
    "D8": (lambda: PermutationGroup([_cycle(4), _reflection(4)]), False),
    "A5": (lambda: PermutationGroup.alternating(5), False),
    "S5": (lambda: PermutationGroup.symmetric(5), False),
    "S6": (lambda: PermutationGroup.symmetric(6), False),
    "S8": (lambda: PermutationGroup.symmetric(8), False),
    "C60 on 60": (lambda: PermutationGroup([_cycle(60)]), False),
    "A5xC12 on 60": (_a5_times_c12, False),
}


@st.composite
def _small_groups(draw):
    """Groups of degree 1-7 generated by up to three powers of random
    permutations; the powers make small and intransitive groups common."""
    degree = draw(st.integers(1, 7))
    gens = draw(
        st.lists(st.tuples(st.permutations(range(degree)), st.integers(1, 6)), min_size=1, max_size=3)
    )
    return PermutationGroup([Permutation(p) ** k for p, k in gens], degree=degree)


class TestRegularNormalSubgroup:
    @pytest.mark.parametrize("name", list(_REGULAR_VERDICTS))
    def test_verdict(self, name):
        make, expected = _REGULAR_VERDICTS[name]
        group = make()
        assert local._has_regular_normal_subgroup(group, group.degree) == expected

    @given(_small_groups())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, group):
        degree = group.degree
        minimal = minimal_normal_by_enumeration([g.images for g in group.generators])
        expected = any(n.order() == degree and n.is_transitive(degree) for n in minimal)
        assert local._has_regular_normal_subgroup(group, degree) == expected
