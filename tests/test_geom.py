"""Incidence geometry core tests: axioms, residues, diagrams, flags,
graphs, quotients, coverings, isomorphism and amalgams."""

import json
import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, find, given, settings
from hypothesis import strategies as st

from geomforge import build
from geomforge.geom import (
    ActionError,
    CapacityError,
    FlagError,
    Geometry,
    GeometryError,
    GeometryMorphism,
    MorphismError,
    StructureError,
    amalgam_report,
    collinearity_graph,
    derived_graph,
    diagram,
    element_action,
    is_flag_transitive,
    is_geometry,
    is_s_covering,
    isomorphic,
    quotient_by_action,
    residue,
)
from geomforge.graphs import girth, graph_isomorphism
from geomforge.perm import Permutation, PermutationGroup, StabilizerChain, induced_action, label_key
from oracles import (
    amalgam_orders_by_stabilizers,
    axiom_failures_by_frozensets,
    common_neighbor_edges,
    diagram_by_frozensets,
    maximal_flags_by_frozensets,
    naive_rank2_class,
    s_covering_by_residues,
    walk_flags_by_frozensets,
)


def hexagon():
    """Rank-2 hexagon: 6 points, 6 edges in a cycle."""
    points = [("p", i) for i in range(6)]
    edges = [("e", i) for i in range(6)]
    incidences = []
    for i in range(6):
        incidences.append((("e", i), ("p", i)))
        incidences.append((("e", i), ("p", (i + 1) % 6)))
    return Geometry(2, [(p, 1) for p in points] + [(e, 2) for e in edges], incidences)


def path_geometry():
    """Points a, b, c on the lines ab and bc."""
    return Geometry(
        2,
        [("a", 1), ("b", 1), ("c", 1), ("ab", 2), ("bc", 2)],
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc")],
    )


def hexagon_action(broken: dict):
    """S3 acting on the hexagon: generator 0 turns it half way round,
    generator 1 swaps the elements paired in ``broken``."""
    s3 = PermutationGroup([Permutation([1, 0, 2]), Permutation([0, 2, 1])])

    def apply(g, eid):
        kind, i = eid
        if g.images == (1, 0, 2):
            return (kind, (i + 3) % 6)
        return broken.get(eid, eid) if g.images == (0, 2, 1) else eid

    return s3, apply


class TestStructure:
    def test_same_type_incidence_rejected(self):
        with pytest.raises(StructureError):
            Geometry(2, [("a", 1), ("b", 1)], [("a", "b")])

    def test_type_out_of_range(self):
        with pytest.raises(StructureError):
            Geometry(2, [("a", 3)], [])

    def test_reflexive_incidence_rejected(self):
        with pytest.raises(StructureError):
            Geometry(2, [("a", 1)], [("a", "a")])

    def test_json_roundtrip(self, tmp_path, p0):
        path = tmp_path / "p0.json"
        p0.geometry.save(path)
        again = Geometry.load(path)
        assert isomorphic(p0.geometry, again) is not None


def _json_name(eid):
    """The id an element gets back from a JSON file."""
    return eid if isinstance(eid, str) else repr(eid)


_IDS = st.one_of(st.integers(-99, 99), st.text(max_size=4))


@st.composite
def _incidence_systems(draw):
    rank = draw(st.integers(1, 3))
    ids = draw(st.lists(_IDS, unique_by=_json_name, max_size=10))
    types = {e: draw(st.integers(1, rank)) for e in ids}
    incidences = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if types[a] != types[b] and draw(st.booleans())
    ]
    return Geometry(rank, list(types.items()), incidences)


@lru_cache(maxsize=None)
def _round_trip_builtins():
    return tuple(
        meta.geometry
        for meta in (
            build.petersen_geometry(),
            build.symplectic_polar_space(2),
            build.projective_geometry_2(3),
        )
    )


@st.composite
def _relabelled_builtins(draw):
    g = draw(st.sampled_from(_round_trip_builtins()))
    names = draw(st.lists(
        _IDS, unique_by=_json_name, min_size=len(g.elements), max_size=len(g.elements)
    ))
    rename = dict(zip(g.elements, names))
    return Geometry(
        g.rank,
        [(rename[e], g.type_of[e]) for e in g.elements],
        [(rename[a], rename[b]) for a, b in g.incidence_pairs()],
    )


class TestFileRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_incidence_systems(), _relabelled_builtins()))
    def test_geometry_json_keeps_structure(self, g):
        again = Geometry.from_json(json.loads(json.dumps(g.to_json())))
        assert again.rank == g.rank
        assert again.type_of == {_json_name(e): t for e, t in g.type_of.items()}
        assert {frozenset(p) for p in again.incidence_pairs()} == {
            frozenset(map(_json_name, p)) for p in g.incidence_pairs()
        }
        assert is_geometry(again).ok == is_geometry(g).ok
        # ids read back from a file are already strings, so a second round
        # trip gives the same file
        assert Geometry.from_json(again.to_json()).to_json() == again.to_json()


class TestIsGeometry:
    def test_petersen_passes(self, p0):
        assert is_geometry(p0.geometry).ok

    def test_isolated_element_fails_maximal_flag(self):
        # the whole system is disconnected too, but the first flag that
        # misses a type is reported alone
        g = Geometry(2, [("a", 1), ("b", 2), ("c", 1), ("d", 2)], [("a", "b")])
        verdict = is_geometry(g)
        assert not verdict.ok
        assert verdict.failures == ["maximal flag ['c'] misses some type"]

    def test_disjoint_union_fails_connectedness(self, p0):
        base = p0.geometry
        elements = [(e, base.type_of[e]) for e in base.elements]
        elements += [(("copy", e), base.type_of[e]) for e in base.elements]
        incidences = list(base.incidence_pairs())
        incidences += [(("copy", a), ("copy", b)) for a, b in base.incidence_pairs()]
        doubled = Geometry(2, elements, incidences)
        verdict = is_geometry(doubled)
        assert not verdict.ok
        assert verdict.failures == ["residue of flag [] is disconnected"]


class TestResidue:
    def test_gq_point_residue(self, gq22):
        point = gq22.geometry.elements_of_type(1)[0]
        res = residue(gq22.geometry, [point])
        assert res.rank == 1 and res.size == 3

    def test_maximal_flag_residue_empty(self, p0):
        flag = p0.geometry.maximal_flags()[0]
        res = residue(p0.geometry, flag)
        assert res.rank == 0 and res.size == 0

    def test_pg32_point_residue_is_fano(self, fano):
        pg4 = build.projective_geometry_2(4)
        point = pg4.geometry.elements_of_type(1)[0]
        res = residue(pg4.geometry, [point])
        assert isomorphic(res, fano.geometry) is not None

    def test_not_a_flag(self, p0):
        points = p0.geometry.elements_of_type(1)[:2]
        with pytest.raises(FlagError):
            residue(p0.geometry, points)

    def test_residue_composition(self, sp3):
        g = sp3.geometry
        flag = g.maximal_flags()[0]
        a, b = flag[0], flag[1]
        once = residue(g, [a, b])
        stepped = residue(residue(g, [a]), [b])
        assert isomorphic(once, stepped) is not None

    def test_type_map_recorded(self, sp3):
        plane = sp3.geometry.elements_of_type(3)[0]
        res = residue(sp3.geometry, [plane])
        assert res.type_map == {1: 1, 2: 2}


class TestDiagram:
    def test_c3_polar_space(self, sp3):
        report = diagram(sp3.geometry)
        assert report.edge(1, 2) == "projective-plane-2"
        assert report.edge(2, 3) == "gq-2-2"
        assert report.edge(1, 3) == "digon"
        assert report.orders == {1: 2, 2: 2, 3: 2}

    def test_petersen_edge(self, p0):
        report = diagram(p0.geometry)
        assert report.edge(1, 2) == "petersen-edge"
        assert report.orders == {1: 2, 2: 1}

    def test_tilde_edge(self, t0):
        report = diagram(t0.geometry)
        assert report.edge(1, 2) == "tilde-edge"
        assert report.orders == {1: 2, 2: 2}

    def test_unknown_edge_and_varying_order(self):
        report = diagram(path_geometry())
        assert report.edges == {(1, 2): "unknown"}
        assert report.orders == {1: 1, 2: None}

    def test_residues_of_one_cotype_disagree(self):
        # X carries a digon, Y a Fano plane: the 1,2 residues differ
        lines = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        elements = [(p, 1) for p in range(7)] + [(l, 2) for l in lines] + [("X", 3), ("Y", 3)]
        incidences = [(p, l) for l in lines for p in l] + [("X", 0), ("X", lines[0])]
        incidences += [("Y", e) for e, t in elements if t < 3]
        g = Geometry(3, elements, incidences)
        assert diagram(residue(g, ["X"])).edge(1, 2) == "digon"
        assert diagram(residue(g, ["Y"])).edge(1, 2) == "projective-plane-2"
        report = diagram(g)
        assert report.edge(1, 2) == "unknown"
        assert report.orders[3] is None

    def test_isomorphic_geometries_share_diagram(self, gq22):
        base = gq22.geometry
        relabeled = Geometry(
            2,
            [(("x", e), base.type_of[e]) for e in base.elements],
            [(("x", a), ("x", b)) for a, b in base.incidence_pairs()],
        )
        assert isomorphic(base, relabeled) is not None
        assert diagram(relabeled).edges == diagram(base).edges


def rank2_residues(g):
    """The flag and the residue of every flag of size rank - 2."""
    out = []

    def visit(flag, cands):
        if len(flag) == g.rank - 2:
            out.append((flag, residue(g, flag)))

    g.walk_flags(visit, max_size=g.rank - 2)
    return out


def plain_rank2(res):
    """A rank-2 geometry as point and line lists and (point, line) pairs."""
    pairs = [(a, b) if res.type_of[a] == 1 else (b, a) for a, b in res.incidence_pairs()]
    return list(res.elements_of_type(1)), list(res.elements_of_type(2)), pairs


def rank2_geometry(points, lines, pairs):
    return Geometry(2, [(p, 1) for p in points] + [(l, 2) for l in lines], pairs)


class TestDiagramOracle:
    @pytest.mark.parametrize("name", ["pg3", "pg4", "sp3", "gq22"])
    def test_residues_match_oracle(self, name, gq22, sp3):
        metas = {"gq22": gq22, "sp3": sp3}
        meta = metas.get(name) or build.projective_geometry_2(int(name[-1]))
        g = meta.geometry
        found: dict = {}
        for flag, res in rank2_residues(g):
            expected = naive_rank2_class(*plain_rank2(res))
            assert diagram(res).edge(1, 2) == expected
            flag_types = {g.type_of[e] for e in flag}
            cotype = tuple(t for t in range(1, g.rank + 1) if t not in flag_types)
            found.setdefault(cotype, set()).add(expected)
        assert found and all(len(classes) == 1 for classes in found.values())
        assert diagram(g).edges == {pair: classes.pop() for pair, classes in found.items()}

    @pytest.mark.parametrize("name, expected", [
        ("digon", "digon"),
        ("fano", "projective-plane-2"),
        ("gq22", "gq-2-2"),
    ])
    def test_one_incidence_off_is_unknown(self, name, expected, gq22, sp3, fano):
        if name == "digon":
            line = sp3.geometry.elements_of_type(2)[0]
            res = residue(sp3.geometry, [line])
        else:
            res = {"fano": fano, "gq22": gq22}[name].geometry
        points, lines, pairs = plain_rank2(res)
        assert naive_rank2_class(points, lines, pairs) == expected
        present = set(pairs)
        absent = [(p, l) for p in points for l in lines if (p, l) not in present]
        copies = [pairs[:i] + pairs[i + 1 :] for i in range(len(pairs))]
        copies += [pairs + [extra] for extra in absent]
        for copy in copies:
            assert naive_rank2_class(points, lines, copy) == "unknown"
            perturbed = rank2_geometry(points, lines, copy)
            if is_geometry(perturbed).ok:
                assert diagram(perturbed).edge(1, 2) == "unknown"
            else:
                with pytest.raises(GeometryError) as info:
                    diagram(perturbed)
                failures = is_geometry(perturbed).failures
                assert str(info.value) == f"diagram requires a geometry: {failures}"

    @pytest.mark.parametrize("n", [3, 4])
    def test_disconnected_residue_alone_is_reported(self, n):
        # two disjoint copies of PG(n-1,2): every maximal flag meets all
        # types, and only the whole system is disconnected
        pg = build.projective_geometry_2(n).geometry
        copies = Geometry(
            n - 1,
            [((c, e), pg.type_of[e]) for c in "ab" for e in pg.elements],
            [((c, x), (c, y)) for c in "ab" for x, y in pg.incidence_pairs()],
        )
        failures = is_geometry(copies).failures
        assert failures == ["residue of flag [] is disconnected"]
        with pytest.raises(GeometryError) as info:
            diagram(copies)
        assert str(info.value) == f"diagram requires a geometry: {failures}"

    @pytest.mark.parametrize("n, base, expected", [
        (7, (0, 1, 3), "projective-plane-2"),
        (7, (0, 1, 2), "unknown"),
        (15, (0, 1, 3), "unknown"),
        (15, (0, 1, 2), "unknown"),
    ])
    def test_circulants_match_oracle(self, n, base, expected):
        # point i on line j when i - j is in base: every point and line has
        # three neighbours, so only the plane and quadrangle axioms decide
        points = [("p", i) for i in range(n)]
        lines = [("l", j) for j in range(n)]
        pairs = [(("p", (j + d) % n), ("l", j)) for j in range(n) for d in base]
        assert naive_rank2_class(points, lines, pairs) == expected
        assert diagram(rank2_geometry(points, lines, pairs)).edge(1, 2) == expected

    @pytest.mark.parametrize("name", ["w52", "pg32"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabelled_copies_share_diagram(self, name, sp3, seed):
        rnd = random.Random(seed)
        base = sp3.geometry if name == "w52" else build.projective_geometry_2(4).geometry
        labels = list(range(base.size))
        rnd.shuffle(labels)
        new_id = {e: f"e{label}" for e, label in zip(base.elements, labels)}
        elements = [(new_id[e], base.type_of[e]) for e in base.elements]
        incidences = [
            (new_id[a], new_id[b]) if rnd.random() < 0.5 else (new_id[b], new_id[a])
            for a, b in base.incidence_pairs()
        ]
        rnd.shuffle(elements)
        rnd.shuffle(incidences)
        copy = Geometry(base.rank, elements, incidences)
        assert diagram(copy) == diagram(base)


class TestFlagTransitivity:
    def test_p0_s5(self, p0):
        assert len(p0.geometry.maximal_flags()) == 30
        assert is_flag_transitive(p0.geometry, p0.action)

    def test_trivial_group_not_transitive(self, p0):
        trivial = PermutationGroup.trivial(1)
        action = element_action(p0.geometry, trivial, lambda g, e: e)
        assert not is_flag_transitive(p0.geometry, action)

    def test_gq22_sp4(self, gq22):
        assert len(gq22.geometry.maximal_flags()) == 45
        assert is_flag_transitive(gq22.geometry, gq22.action)

    def test_type_breaking_action_rejected(self):
        hexa = hexagon()
        flip = PermutationGroup([Permutation([1, 0])])

        def swap_types(g, eid):
            if g.is_identity():
                return eid
            kind, i = eid
            return ("e" if kind == "p" else "p", i)

        with pytest.raises(ActionError):
            element_action(hexa, flip, swap_types)

    def test_incidence_breaking_action_rejected(self):
        hexa = hexagon()
        flip = PermutationGroup([Permutation([1, 0])])

        def shift_points_only(g, eid):
            kind, i = eid
            if g.is_identity() or kind == "e":
                return eid
            return (kind, (i + 1) % 6)

        with pytest.raises(ActionError):
            element_action(hexa, flip, shift_points_only)

    def test_type_error_names_generator_and_element(self):
        group, apply = hexagon_action({("p", 2): ("e", 2), ("e", 2): ("p", 2)})
        with pytest.raises(ActionError) as excinfo:
            element_action(hexagon(), group, apply)
        assert str(excinfo.value) == "generator 1 does not preserve the type of ('p', 2)"

    def test_incidence_error_names_generator(self):
        group, apply = hexagon_action({("p", 0): ("p", 2), ("p", 2): ("p", 0)})
        with pytest.raises(ActionError) as excinfo:
            element_action(hexagon(), group, apply)
        assert str(excinfo.value) == "generator 1 does not preserve incidence"


class TestGraphs:
    def test_p0_collinearity(self, p0):
        graph = collinearity_graph(p0.geometry)
        assert graph.n == 15 and {graph.degree(v) for v in graph.vertices} == {4}

    def test_gq_collinearity(self, gq22):
        graph = collinearity_graph(gq22.geometry)
        assert graph.n == 15 and {graph.degree(v) for v in graph.vertices} == {6}

    def test_single_line_triangle(self):
        g = Geometry(
            2,
            [(("p", i), 1) for i in range(3)] + [("l", 2)],
            [(("p", i), "l") for i in range(3)],
        )
        graph = collinearity_graph(g)
        assert graph.n == 3 and graph.num_edges == 3

    def test_p0_derived_is_petersen(self, p0):
        # a cubic graph of girth 5 on 1 + 3 + 3 * 2 = 10 vertices meets the
        # Moore bound: it is the unique Moore graph of degree 3, the Petersen graph
        graph = derived_graph(p0.geometry)
        assert graph.n == 10 and {graph.degree(v) for v in graph.vertices} == {3}
        assert girth(graph) == 5

    def test_t0_derived_regular(self, t0):
        graph = derived_graph(t0.geometry)
        assert graph.n == 45 and {graph.degree(v) for v in graph.vertices} == {6}

    def test_single_line_derived_graph(self):
        g = Geometry(
            2,
            [(("p", i), 1) for i in range(3)] + [("l", 2)],
            [(("p", i), "l") for i in range(3)],
        )
        graph = derived_graph(g)
        assert graph.n == 1 and graph.num_edges == 0

    @pytest.mark.parametrize("name", ["petersen", "tilde9", "sp3", "pg4"])
    def test_edge_and_neighbour_order_match_oracle(self, name, p0, sp3):
        if name == "tilde9":
            meta = build.tilde_geometry(9)
        elif name == "pg4":
            meta = build.projective_geometry_2(4)
        else:
            meta = {"petersen": p0, "sp3": sp3}[name]
        g = meta.geometry
        for graph, types in (
            (collinearity_graph(g), (1, 2)),
            (derived_graph(g), (g.rank, g.rank - 1)),
        ):
            expected = common_neighbor_edges(g, *types)
            assert graph.edges() == expected
            neighbours = {v: [] for v in graph.vertices}
            for a, b in expected:
                neighbours[a].append(b)
                neighbours[b].append(a)
            for v in graph.vertices:
                assert list(graph.neighbors(v)) == sorted(neighbours[v], key=label_key)

    def test_functoriality_on_generators(self, p0):
        g = p0.geometry
        graph = derived_graph(g)
        edge_set = {frozenset(e) for e in graph.edges()}
        for gi in range(len(p0.action.group.generators)):
            for a, b in edge_set:
                img = frozenset(
                    (p0.action.apply(gi, a), p0.action.apply(gi, b))
                )
                assert img in edge_set


@lru_cache(maxsize=None)
def _covering_builtins():
    return {
        "petersen": build.petersen_geometry(),
        "gq22": build.symplectic_polar_space(2),
        "pg3": build.projective_geometry_2(3),
        "pg4": build.projective_geometry_2(4),
        "tilde": build.tilde_geometry(seed=42),
    }


def _quotient_by_elements(meta, gens):
    """The quotient map of ``meta.geometry`` by the subgroup generated by
    permutations of the element positions of ``meta.action``."""
    action = meta.action
    group = PermutationGroup(gens or [Permutation.identity(len(action.domain))])

    def apply(p, e):
        return action.domain[p.images[action.index[e]]]

    return quotient_by_action(meta.geometry, element_action(meta.geometry, group, apply))[1]


class TestElementAction:
    @pytest.mark.parametrize("name", ["petersen", "pg4", "tilde"])
    def test_domain_is_the_element_order(self, name):
        meta = _covering_builtins()[name]
        assert meta.action.domain == meta.geometry.elements


class TestQuotient:
    def test_t0_by_scalar_is_gq(self, t0, gq22):
        from geomforge.build import _apply_points

        o3_group = PermutationGroup([t0.o3_generator])
        o3_action = induced_action(o3_group, t0.geometry.elements, _apply_points)
        quotient, morphism = quotient_by_action(t0.geometry, o3_action)
        assert is_geometry(quotient).ok
        assert isomorphic(quotient, gq22.geometry) is not None
        assert is_s_covering(morphism, 1)

    def test_trivial_group_quotient(self, p0):
        trivial = PermutationGroup.trivial(1)
        action = element_action(p0.geometry, trivial, lambda g, e: e)
        quotient, morphism = quotient_by_action(p0.geometry, action)
        assert isomorphic(quotient, p0.geometry) is not None
        assert morphism.is_surjective()

    def test_hexagon_by_half_turn(self):
        hexa = hexagon()
        rot = PermutationGroup([Permutation([1, 0])])

        def half_turn(g, eid):
            kind, i = eid
            if g.is_identity():
                return eid
            return (kind, (i + 3) % 6)

        action = element_action(hexa, rot, half_turn)
        quotient, _ = quotient_by_action(hexa, action)
        assert len(quotient.elements_of_type(1)) == 3
        assert len(quotient.elements_of_type(2)) == 3
        assert is_geometry(quotient).ok


class TestSCovering:
    def test_identity_morphism(self, p0):
        morphism = GeometryMorphism(
            p0.geometry, p0.geometry, {e: e for e in p0.geometry.elements}
        )
        assert is_s_covering(morphism, 1)

    def test_collapsing_map_fails(self, p0):
        g = p0.geometry
        # collapse two lines through a common point in the target
        vertex = g.elements_of_type(2)[0]
        lines = [e for e in g.pencil(vertex) if g.type_of[e] == 1][:2]
        merged = {lines[1]: lines[0]}
        elements = [
            (e, g.type_of[e]) for e in g.elements if e not in merged
        ]
        incidences = set()
        for a, b in g.incidence_pairs():
            a2, b2 = merged.get(a, a), merged.get(b, b)
            incidences.add((a2, b2))
        target = Geometry(2, elements, sorted(incidences, key=repr))
        mapping = {e: merged.get(e, e) for e in g.elements}
        morphism = GeometryMorphism(g, target, mapping)
        assert not is_s_covering(morphism, 1)

    def test_s_monotone(self, sp3, fano):
        # covering of C3(2) by itself: identity passes s = 1 and s = 2
        morphism = GeometryMorphism(
            sp3.geometry, sp3.geometry, {e: e for e in sp3.geometry.elements}
        )
        assert is_s_covering(morphism, 2)
        assert is_s_covering(morphism, 1)

    def test_invalid_s(self, p0):
        morphism = GeometryMorphism(
            p0.geometry, p0.geometry, {e: e for e in p0.geometry.elements}
        )
        with pytest.raises(MorphismError):
            is_s_covering(morphism, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["petersen", "gq22", "pg3", "pg4", "tilde"]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 2),
    )
    def test_pencils_agree_with_residues(self, name, seed, count):
        # quotient maps by random subgroups: coverings for the trivial one,
        # mostly not otherwise
        meta = _covering_builtins()[name]
        chain = meta.action.image_group().chain()
        rng = random.Random(seed)
        f = _quotient_by_elements(meta, [chain.sample(rng) for _ in range(count)])
        for s in range(1, meta.geometry.rank):
            assert is_s_covering(f, s) == s_covering_by_residues(f, s)

    def test_oracle_agrees_on_a_covering_and_a_non_covering(self):
        from geomforge.build import _apply_points

        t0 = _covering_builtins()["tilde"]
        o3_action = induced_action(
            PermutationGroup([t0.o3_generator]), t0.geometry.elements, _apply_points
        )
        _, f = quotient_by_action(t0.geometry, o3_action)
        assert is_s_covering(f, 1) and s_covering_by_residues(f, 1)
        p0 = _covering_builtins()["petersen"]
        f = _quotient_by_elements(p0, [p0.action.image_group().generators[0]])
        assert not is_s_covering(f, 1) and not s_covering_by_residues(f, 1)

    def test_each_pencil_condition_is_needed(self):
        # two lines through each source point fold onto one target line:
        # every pencil keeps its size, but f is not injective on them
        folded = GeometryMorphism(
            Geometry(
                2,
                [("p", 1), ("q", 1), ("L1", 2), ("L2", 2), ("L3", 2), ("L4", 2)],
                [("p", "L1"), ("p", "L2"), ("q", "L3"), ("q", "L4")],
            ),
            Geometry(2, [("P", 1), ("M1", 2), ("M2", 2)], [("P", "M1"), ("P", "M2")]),
            {"p": "P", "q": "P", "L1": "M1", "L2": "M1", "L3": "M2", "L4": "M2"},
        )
        # the identity into a target with one more incidence: injective,
        # but a target pencil grows
        elements = [("p", 1), ("q", 1), ("L1", 2), ("L2", 2)]
        grown = GeometryMorphism(
            Geometry(2, elements, [("p", "L1"), ("q", "L2")]),
            Geometry(2, elements, [("p", "L1"), ("q", "L2"), ("p", "L2")]),
            {e: e for e, _ in elements},
        )
        for f in (folded, grown):
            assert not is_s_covering(f, 1) and not s_covering_by_residues(f, 1)

    def test_composition_of_coverings_is_covering(self):
        # 12-gon -> hexagon -> triangle, each step a quotient by a rotation

        def polygon(n):
            elements = [(("p", i), 1) for i in range(n)] + [
                (("e", i), 2) for i in range(n)
            ]
            incidences = []
            for i in range(n):
                incidences.append((("e", i), ("p", i)))
                incidences.append((("e", i), ("p", (i + 1) % n)))
            return Geometry(2, elements, incidences)

        def rotation_quotient(g, n, shift):
            rot = PermutationGroup([Permutation([1, 0])])

            def rule(p, eid):
                kind, i = eid
                if p.is_identity():
                    return eid
                return (kind, (i + shift) % n)

            action = element_action(g, rot, rule)
            return quotient_by_action(g, action)

        twelve = polygon(12)
        six, down1 = rotation_quotient(twelve, 12, 6)
        assert is_geometry(six).ok and is_s_covering(down1, 1)
        # quotient the 6-element quotient again by its induced half turn
        rot = PermutationGroup([Permutation([1, 0])])

        def rule(p, orbit_id):
            if p.is_identity():
                return orbit_id
            kind, i = orbit_id[0]
            target_rep = (kind, (i + 3) % 12)
            for orbit in six.elements:
                if target_rep in orbit:
                    return orbit
            raise AssertionError("rotation does not permute orbits")

        action = element_action(six, rot, rule)
        three, down2 = quotient_by_action(six, action)
        assert is_geometry(three).ok and is_s_covering(down2, 1)
        composite = GeometryMorphism(twelve, three, {e: down2(down1(e)) for e in twelve.elements})
        assert is_s_covering(composite, 1)
        assert len(three.elements_of_type(1)) == 3


class TestIsomorphic:
    def test_gq_self_dual(self, gq22):
        base = gq22.geometry
        dual = Geometry(
            2,
            [(e, 3 - base.type_of[e]) for e in base.elements],
            base.incidence_pairs(),
        )
        assert isomorphic(base, dual) is not None

    def test_p0_t0_not_isomorphic(self, p0, t0):
        assert isomorphic(p0.geometry, t0.geometry) is None

    def test_self_isomorphism(self, gq22):
        mapping = isomorphic(gq22.geometry, gq22.geometry)
        assert mapping is not None
        g = gq22.geometry
        for a, b in g.incidence_pairs():
            assert g.incident(mapping[a], mapping[b])

    def test_capacity_error(self):
        big1 = Geometry(1, [((i,), 1) for i in range(501)], [])
        big2 = Geometry(1, [((i, 0), 1) for i in range(501)], [])
        with pytest.raises(CapacityError):
            isomorphic(big1, big2)

    def test_fano_vs_non_plane_circulant(self, fano):
        # same 7/7 counts and 3/3 degrees but {0,1,2} is not a planar
        # difference set, so this is not a projective plane
        elements = [(("p", i), 1) for i in range(7)] + [(("l", i), 2) for i in range(7)]
        incidences = [(("p", i), ("l", j)) for i in range(7) for j in range(7)
                      if (i + j) % 7 < 3]
        other = Geometry(2, elements, incidences)
        assert isomorphic(fano.geometry, other) is None


class TestAmalgam:
    def test_p0_s5(self, p0):
        flag = p0.geometry.maximal_flags()[0]
        report = amalgam_report(p0.geometry, p0.action, flag)
        assert report.parabolic_orders == {1: 8, 2: 12}
        assert report.borel_order == 4
        assert report.image_order == 120
        assert report.intersection_orders[(1, 2)] == 4

    def test_gq22_sp42(self, gq22):
        flag = gq22.geometry.maximal_flags()[0]
        report = amalgam_report(gq22.geometry, gq22.action, flag)
        assert report.parabolic_orders == {1: 48, 2: 48}
        assert report.borel_order == 16

    def test_flag_independence(self, p0):
        flags = p0.geometry.maximal_flags()
        reports = [
            amalgam_report(p0.geometry, p0.action, f) for f in flags[:3]
        ]
        for rep in reports[1:]:
            assert rep.parabolic_orders == reports[0].parabolic_orders
            assert rep.borel_order == reports[0].borel_order

    def test_counting_identity(self, gq22):
        flag = gq22.geometry.maximal_flags()[0]
        report = amalgam_report(gq22.geometry, gq22.action, flag)
        for t, order in report.parabolic_orders.items():
            count = len(gq22.geometry.elements_of_type(t))
            assert report.image_order == order * count

    def test_rank1_single_parabolic(self):
        g = Geometry(1, [((i,), 1) for i in range(4)], [])
        s4 = PermutationGroup.symmetric(4)
        action = element_action(g, s4, lambda p, e: (p.images[e[0]],))
        flag = g.maximal_flags()[0]
        report = amalgam_report(g, action, flag)
        assert report.parabolic_orders == {1: 6}
        assert report.image_order == 24

    # sp 3 has 2,835 maximal flags and PG(3,2) 315; a report and its oracle
    # take about 0.2 s per flag on sp 3, so those two are compared on every
    # stride-th flag, and the others on every flag
    @pytest.mark.parametrize("name, stride", [
        ("p0", 1), ("gq22", 1), ("fano", 1), ("pg4", 5), ("sp3", 189), ("t0", 1), ("s4", 1),
    ])
    def test_matches_stabilizer_oracle(self, request, name, stride):
        if name == "pg4":
            meta = build.projective_geometry_2(4)
            g, action = meta.geometry, meta.action
        elif name == "s4":
            # four points of type 1 with S4 permuting them
            g = Geometry(1, [((i,), 1) for i in range(4)], [])
            action = element_action(g, PermutationGroup.symmetric(4), lambda p, e: (p.images[e[0]],))
        else:
            meta = request.getfixturevalue(name)
            g, action = meta.geometry, meta.action
        for flag in g.maximal_flags()[::stride]:
            report = amalgam_report(g, action, flag)
            got = (report.parabolic_orders, report.intersection_orders,
                   report.borel_order, report.image_order)
            assert got == amalgam_orders_by_stabilizers(g, action, flag)

    def test_builds_only_the_image_chain(self, monkeypatch, sp3):
        # one stabilizer chain per parabolic, intersection and the Borel
        # subgroup would make 7 more on sp 3
        built = []
        init = StabilizerChain.__init__
        monkeypatch.setattr(
            StabilizerChain, "__init__", lambda chain, *a, **k: built.append(1) or init(chain, *a, **k)
        )
        amalgam_report(sp3.geometry, sp3.action, sp3.geometry.maximal_flags()[0])
        assert len(built) == 1

    def test_rejects_action_that_is_not_flag_transitive(self, fano):
        action = element_action(fano.geometry, PermutationGroup.trivial(7), lambda p, e: e)
        with pytest.raises(ActionError):
            amalgam_report(fano.geometry, action, fano.geometry.maximal_flags()[0])


def _switched(g):
    """``g`` with its first pair of flags (p, l), (q, m) replaced by (p, m)
    and (q, l): every point and line keeps its degree, and the Fano plane
    and GQ(2,2) lose their axioms."""
    pairs = [(a, b) if g.type_of[a] == 1 else (b, a) for a, b in g.incidence_pairs()]
    present = set(pairs)
    (p, l), (q, m) = next(
        (x, y) for x, y in combinations(pairs, 2)
        if (x[0], y[1]) not in present and (y[0], x[1]) not in present
    )
    pairs = [pair for pair in pairs if pair not in ((p, l), (q, m))] + [(p, m), (q, l)]
    return Geometry(2, [(e, g.type_of[e]) for e in g.elements], pairs)


@lru_cache(maxsize=None)
def _rank2_pieces():
    """Rank-2 geometries whose residues the diagram names, a digon, and
    the Fano plane and GQ(2,2) with one pair of flags switched."""
    digon = Geometry(2, [("p", 1), ("q", 1), ("L", 2), ("M", 2), ("N", 2)],
                     [(p, l) for p in "pq" for l in "LMN"])
    named = (
        build.projective_geometry_2(3).geometry,
        build.symplectic_polar_space(2).geometry,
        build.petersen_geometry().geometry,
        digon,
    )
    return named + (_switched(named[0]), _switched(named[1]))


@st.composite
def _typed_systems(draw):
    """Random incidence systems of rank 1-4.  Types 1 and 2 may carry a
    named rank-2 geometry; each higher-type element is incident to all of
    it (its residue is that geometry) or to a random part, which mixes
    rank-2 classes.  Other pairs of types meet at a drawn density, so
    many systems miss a type in a maximal flag, and a doubled system has
    a disconnected whole."""
    rank = draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    piece = draw(st.sampled_from((None,) + _rank2_pieces())) if rank >= 2 else None
    elements, incidences = [], []
    if piece is not None:
        elements += [(("b", e), piece.type_of[e]) for e in piece.elements]
        incidences += [(("b", a), ("b", b)) for a, b in piece.incidence_pairs()]
    ids = draw(st.lists(_IDS, unique_by=_json_name, max_size=10))
    first = 1 if piece is None else 3
    if first <= rank:
        elements += [(e, rnd.randint(first, rank)) for e in ids]
    free = [(e, t) for e, t in elements if piece is None or t >= 3]
    for i, (a, ta) in enumerate(free):
        if piece is not None:
            whole = rnd.random() < 0.5
            incidences += [(a, e) for e, t in elements[: piece.size]
                           if whole or rnd.random() < density]
        incidences += [(a, b) for b, tb in free[i + 1 :] if ta != tb and rnd.random() < density]
    if draw(st.integers(0, 3)) == 0:
        elements = [((c, e), t) for c in "xy" for e, t in elements]
        incidences = [((c, a), (c, b)) for c in "xy" for a, b in incidences]
    return Geometry(rank, elements, incidences)


def _merged(g, rnd):
    """A surjective morphism from ``g`` that sends the elements of each
    type onto a random number of classes; the target's incidences are the
    images of ``g``'s, often with one more."""
    image = {}
    for t in range(1, g.rank + 1):
        members = g.elements_of_type(t)
        k = rnd.choice([len(members), rnd.randint(1, len(members))]) if members else 0
        image.update((e, ("c", t, rnd.randrange(k))) for e in members)
    targets = sorted(set(image.values()), key=label_key)
    pairs = {(image[a], image[b]) for a, b in g.incidence_pairs()}
    if targets and rnd.random() < 0.5:
        a, b = rnd.choice(targets), rnd.choice(targets)
        if a[1] != b[1]:
            pairs.add((a, b))
    target = Geometry(g.rank, [(e, e[1]) for e in targets], pairs)
    return GeometryMorphism(g, target, image)


class TestFlagWalkOracle:
    @settings(max_examples=150, deadline=None)
    @given(g=_typed_systems(), limit=st.integers(0, 4))
    def test_walk_matches_frozenset_walk(self, g, limit):
        def record(walk):
            seen = []
            walk(lambda flag, cands: seen.append((flag, cands)))
            return seen

        assert record(lambda v: g.walk_flags(v, max_size=limit)) == record(
            lambda v: walk_flags_by_frozensets(g, v, limit)
        )
        assert g.maximal_flags() == maximal_flags_by_frozensets(g)
        assert is_geometry(g).failures == axiom_failures_by_frozensets(g)

    @settings(max_examples=150, deadline=None)
    @given(g=_typed_systems())
    def test_diagram_matches_frozenset_diagram(self, g):
        def report(classify):
            try:
                return classify(g)
            except GeometryError as exc:
                return str(exc)

        assert report(diagram) == report(diagram_by_frozensets)

    @settings(max_examples=100, deadline=None)
    @given(g=_typed_systems(), rnd=st.randoms(use_true_random=False))
    def test_s_covering_matches_residues(self, g, rnd):
        assume(g.rank >= 2)
        f = _merged(g, rnd)
        for s in range(1, g.rank):
            assert is_s_covering(f, s) == s_covering_by_residues(f, s)

    def test_systems_cover_every_outcome(self):
        # the strategy reaches both axiom failures and several named classes
        def outcome(g):
            failures = is_geometry(g).failures
            # the first word of the failure, or the classes of the diagram
            return {failures[0].split()[0]} if failures else set(diagram(g).edges.values())

        for wanted in ({"maximal"}, {"residue"}, {"projective-plane-2", "digon"}, {"gq-2-2"}, {"petersen-edge"}):
            find(
                _typed_systems(),
                lambda g: wanted <= outcome(g),
                settings=settings(max_examples=2000, database=None, suppress_health_check=list(HealthCheck)),
            )

    def test_masks_are_built_on_the_first_walk(self):
        # sp with n = 1 runs element_action, as the unwalked n = 4 build does
        g = build.symplectic_polar_space(1).geometry
        g.incidence_pairs()
        g.to_json()
        residue(g, [g.elements[0]])
        assert "_masks" not in vars(g)
        assert is_geometry(g).ok
        assert "_masks" in vars(g)
