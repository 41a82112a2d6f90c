"""Construction tests: Petersen geometry, projective and symplectic spaces,
the subgroup-pattern machinery, the tilde geometry and the counting utility."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforge import build
from geomforge.build import _span
from geomforge.geom import (
    derived_graph,
    diagram,
    is_flag_transitive,
    is_geometry,
    isomorphic,
    residue,
)
from geomforge.graphs import girth
from geomforge.natrep import um_dimension
from geomforge.perm import GroupAction, Permutation, PermutationGroup, StabilizerChain
from oracles import (
    bfs_girth,
    isotropic_subspaces_by_growth,
    normalizer_induces_gl_by_setwise,
    subspace_count,
    symplectic_transvections_by_form,
)


class TestPetersen:
    def test_counts(self, p0):
        g = p0.geometry
        assert len(g.elements_of_type(1)) == 15
        assert len(g.elements_of_type(2)) == 10
        assert len(g.incidence_pairs()) == 30

    def test_diagram(self, p0):
        report = diagram(p0.geometry)
        assert report.edge(1, 2) == "petersen-edge"
        assert report.orders == {1: 2, 2: 1}

    def test_derived_graph_girth(self, p0):
        graph = derived_graph(p0.geometry)
        adjacency = {v: graph.neighbors(v) for v in graph.vertices}
        assert girth(graph) == bfs_girth(adjacency) == 5

    def test_vertex_and_edge_transitive(self, p0):
        graph = derived_graph(p0.geometry)
        action = p0.action.restricted(graph.vertices)
        assert len(action.orbit(graph.vertices[0])) == graph.n
        image = action.image_group()
        edges = [tuple(e) for e in graph.edges()]
        from geomforge.perm import induced_action

        edge_action = induced_action(
            image,
            edges,
            lambda p, e: tuple(
                sorted(
                    (
                        action.domain[p.images[action.index[e[0]]]],
                        action.domain[p.images[action.index[e[1]]]],
                    ),
                    key=repr,
                )
            ),
        )
        assert len(edge_action.orbit(edges[0])) == len(edges)


class TestProjective:
    def test_fano(self, fano):
        g = fano.geometry
        assert len(g.elements_of_type(1)) == 7
        assert len(g.elements_of_type(2)) == 7
        assert is_geometry(g).ok

    def test_rank1(self):
        meta = build.projective_geometry_2(1)
        assert meta.geometry.rank == 1 and meta.geometry.size == 1

    def test_pg4_counts(self):
        meta = build.projective_geometry_2(4)
        counts = [len(meta.geometry.elements_of_type(t)) for t in (1, 2, 3)]
        assert counts == [15, 35, 15]
        assert counts == [subspace_count(4, k) for k in (1, 2, 3)]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build.projective_geometry_2(0)

    def test_flag_transitive(self, fano):
        assert is_flag_transitive(fano.geometry, fano.action)


def _build_m22_afresh():
    from geomforge import m22

    # build_m22_geometry caches by seed; its unwrapped body builds afresh
    return m22.build_m22_geometry.__wrapped__(11)


@pytest.mark.parametrize("construct", [
    lambda: build.symplectic_polar_space(2),
    lambda: build.symplectic_polar_space(3),
    lambda: build.tilde_geometry(42),
    pytest.param(_build_m22_afresh, marks=pytest.mark.stretch),
    pytest.param(lambda: build.symplectic_polar_space(4), marks=pytest.mark.stretch),
], ids=["sp2", "sp3", "tilde", "m22", "sp4"])
def test_one_certification_step(monkeypatch, construct):
    # each verified build checks the axioms, then builds the element action,
    # which checks it, and tests flag-transitivity on it without a second
    # check: one incidence scan of the action in all
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append(name)
            result = fn(*args)
            calls.append(f"/{name}")
            return result
        return wrapper

    for name in ("is_geometry", "element_action", "_one_flag_orbit"):
        monkeypatch.setattr(build, name, recording(name, getattr(build, name)))
    scan = GroupAction.first_generator_moving
    monkeypatch.setattr(GroupAction, "first_generator_moving",
                        lambda self, pairs: calls.append("scan") or scan(self, pairs))
    construct()
    assert calls[:7] == [
        "is_geometry", "/is_geometry",
        "element_action", "scan", "/element_action",
        "_one_flag_orbit", "/_one_flag_orbit",
    ]


class TestSymplectic:
    def test_n1_three_points(self):
        meta = build.symplectic_polar_space(1)
        assert meta.geometry.rank == 1 and meta.geometry.size == 3

    def test_n2_counts_and_order(self, gq22):
        g = gq22.geometry
        assert len(g.elements_of_type(1)) == 15
        assert len(g.elements_of_type(2)) == 15
        assert gq22.group.order() == 720

    def test_n3_counts_and_order(self, sp3):
        g = sp3.geometry
        counts = [len(g.elements_of_type(t)) for t in (1, 2, 3)]
        assert counts == [63, 315, 135]
        assert sp3.group.order() == 1451520

    def test_capacity_bound(self):
        with pytest.raises(Exception):
            build.symplectic_polar_space(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_few_transvections_generate(self, n):
        gens = build.symplectic_generators(n)
        assert set(gens) <= set(build.symplectic_transvections(n))
        assert len(gens) <= 3 * n - 1
        order = 2 ** (n * n)
        for i in range(1, n + 1):
            order *= 4**i - 1
        assert PermutationGroup(gens).order() == order

    @pytest.mark.parametrize("n", [2, 3])
    def test_transvections_match_checked_construction(self, n):
        built = build.symplectic_transvections(n)
        expected = symplectic_transvections_by_form(n)
        assert len(built) == len(expected) == 4**n - 1
        for t, e in zip(built, expected):
            assert t.images == e.images
            assert all(type(x) is int for x in t.images)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generators_match_rebuilt_pick(self, n):
        # the greedy pick as it ran before it extended one chain: a fresh
        # group of the kept transvections decides each membership
        kept = []
        for t in build.symplectic_transvections(n):
            if not kept or not PermutationGroup(kept).contains(t):
                kept.append(t)
        assert build.symplectic_generators(n) == kept

    def test_group_on_picked_generators(self, gq22, sp3):
        assert list(gq22.group.generators) == build.symplectic_generators(2)
        assert list(sp3.group.generators) == build.symplectic_generators(3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_isotropic_subspaces_match_growth_oracle(self, n):
        assert build._isotropic_subspaces(n) == isotropic_subspaces_by_growth(n)

    def test_isotropic_subspaces_n4_counts(self):
        # each subspace is made once: about 0.3 s, against 12 s for growth
        start = time.monotonic()
        by_dim = build._isotropic_subspaces(4)
        elapsed = time.monotonic() - start
        assert [len(subs) for subs in by_dim] == [255, 5355, 11475, 2295]
        assert all(len(set(subs)) == len(subs) for subs in by_dim)
        assert elapsed < 3.0

    def test_top_residue_isomorphic_to_projective(self, sp3, fano):
        plane = sp3.geometry.elements_of_type(3)[0]
        res = residue(sp3.geometry, [plane])
        assert isomorphic(res, fano.geometry) is not None

    def test_gq_top_residue(self, gq22):
        line = gq22.geometry.elements_of_type(2)[0]
        res = residue(gq22.geometry, [line])
        pg2 = build.projective_geometry_2(2)
        assert isomorphic(res, pg2.geometry) is not None


class TestSubgroupPattern:
    def test_full_subspace_lattice(self):
        from geomforge.build import SubgroupPatternInput, subgroup_pattern_geometry
        from geomforge.build import _general_linear_group

        gl3 = _general_linear_group(3)
        pattern = SubgroupPatternInput(
            group=gl3, dim_h=3, subspace_points=tuple(range(7))
        )
        g = subgroup_pattern_geometry(pattern)
        counts = [len(g.elements_of_type(t)) for t in (1, 2, 3)]
        assert counts == [7, 7, 1]
        assert is_geometry(g).ok

    def test_trivial_group_single_point(self):
        from geomforge.build import SubgroupPatternInput, subgroup_pattern_geometry

        trivial = PermutationGroup.trivial(1)
        pattern = SubgroupPatternInput(group=trivial, dim_h=1, subspace_points=(0,))
        g = subgroup_pattern_geometry(pattern)
        assert g.rank == 1 and g.size == 1

    def test_normalizer_precondition_enforced(self, t0):
        from geomforge.build import SubgroupPatternInput, subgroup_pattern_geometry

        # a 2-subspace from the 135-orbit fails the normalizer condition
        two_subspaces = sorted(
            {
                tuple(sorted({v1 - 1, v2 - 1, (v1 ^ v2) - 1}))
                for v1 in range(1, 64)
                for v2 in range(v1 + 1, 64)
            }
        )
        group = t0.group
        good = tuple(t0.provenance["subspace"])
        for sub in two_subspaces:
            if sub == good:
                continue
            orb_len = len(
                __import__("geomforge.perm", fromlist=["induced_action"])
                .induced_action(group, two_subspaces, lambda g, s: tuple(sorted(g.images[x] for x in s)))
                .orbit(sub)
            )
            if orb_len == 135:
                pattern = SubgroupPatternInput(
                    group=group, dim_h=6, subspace_points=sub
                )
                with pytest.raises(build.ConstructionError):
                    subgroup_pattern_geometry(pattern)
                break


def _linear_perm(rows, m):
    """The invertible matrix with the given row masks as a permutation of
    the 2^m - 1 nonzero vectors (vector v is point v - 1)."""
    def image(v):
        out = 0
        for i in range(m):
            if v >> i & 1:
                out ^= rows[i]
        return out

    return Permutation([image(v) - 1 for v in range(1, 1 << m)])


@st.composite
def _linear_groups_with_subspace(draw):
    """A subgroup of GL_m(2), m <= 4, on 0 to 3 random invertible generators
    (no generator gives the trivial group), and a random nonzero subspace E
    as the sorted points of its nonzero vectors."""
    m = draw(st.integers(1, 4))
    full = (1 << m) - 1
    matrices = draw(st.lists(
        st.lists(st.integers(1, full), min_size=m, max_size=m).filter(lambda rows: len(_span(rows)) == full),
        max_size=3,
    ))
    group = PermutationGroup([_linear_perm(rows, m) for rows in matrices], degree=full)
    spanning = draw(st.lists(st.integers(1, full), min_size=1, max_size=m))
    return group, tuple(v - 1 for v in _span(spanning))


class TestNormalizerCondition:
    """|G| == |GL(E)| * |E^G| * |G_(E)| decides whether the setwise
    stabilizer of E induces GL(E) on E, as building that stabilizer does."""

    @settings(max_examples=120, deadline=None)
    @given(_linear_groups_with_subspace())
    def test_matches_setwise_oracle(self, case):
        group, points = case
        assert build.normalizer_induces_full_linear_group(group, points) == (
            normalizer_induces_gl_by_setwise(group, points)
        )

    @pytest.mark.parametrize("m, points, expected", [
        (3, tuple(range(7)), True),  # GL3(2) on the whole space
        (3, (0, 1, 2), True),  # a line: its stabilizer induces GL2(2)
        (1, (0,), True),  # GL1(2) is trivial
    ])
    def test_general_linear_group(self, m, points, expected):
        group = build._general_linear_group(m)
        assert build.normalizer_induces_full_linear_group(group, points) is expected

    @pytest.mark.parametrize("points, expected", [((0,), True), ((0, 1, 2), False)])
    def test_trivial_group(self, points, expected):
        group = PermutationGroup.trivial(7)
        assert build.normalizer_induces_full_linear_group(group, points) is expected

    def test_builds_no_subgroup(self, monkeypatch, t0):
        def forbidden(*args, **kwargs):
            raise AssertionError("the check built a subgroup")

        monkeypatch.setattr(PermutationGroup, "stabilizer", forbidden)
        monkeypatch.setattr(GroupAction, "image_group", forbidden)
        monkeypatch.setattr(build, "induced_action", forbidden)
        group = PermutationGroup(t0.group.generators)
        assert build.normalizer_induces_full_linear_group(group, t0.provenance["subspace"])

    @pytest.mark.parametrize("points", [(3,), (6,), (-2,), (1.0,), ("1",)])
    def test_pattern_rejects_point_outside_domain(self, points):
        # GL2(2) acts on points 0..2; -2 would index image tuples from the end
        with pytest.raises(ValueError):
            build.SubgroupPatternInput(
                group=build._general_linear_group(2), dim_h=2, subspace_points=points
            )


def _tampered_maps(which):
    """The GammaL3(4) generator maps with the last one replaced: by a map
    that commutes with the scalar w but is not additive (it swaps the
    scalar multiples of e1 with those of e2 and fixes the rest), or by an
    additive map that does not normalize <w> (it swaps the 1-parts of the
    first two coordinates)."""
    if which == "not-additive":
        swap = {1: 4, 2: 8, 3: 12, 4: 1, 8: 2, 12: 3}

        def tampered(v):
            return swap.get(v, v)
    else:

        def tampered(v):
            a0, a1 = v & 1, v >> 2 & 1
            return v & ~0b101 | a1 | a0 << 2

    return (*build._GAMMA_L3_4_MAPS[:-1], tampered)


class TestGammaL34:
    def test_generators_are_semilinear(self):
        group, scalar = build.gamma_l3_4()
        assert all(build._is_semilinear(g, scalar) for g in group.generators)

    def test_chain_reaches_the_bound_without_verification(self, monkeypatch):
        runs = []
        verify = StabilizerChain._verify
        monkeypatch.setattr(StabilizerChain, "_verify", lambda chain: runs.append(1) or verify(chain))
        group, _ = build.gamma_l3_4()
        assert group.order() == build.GAMMA_L3_4_ORDER and runs == []

    @pytest.mark.parametrize("which", ["not-additive", "not-normalizing"])
    def test_tampered_generator_is_refused_before_any_chain(self, monkeypatch, which):
        maps = _tampered_maps(which)
        scalar = build._vector_perm(lambda v: build._gf4_scale(2, v))
        tampered = build._vector_perm(maps[-1])
        assert not build._is_semilinear(tampered, scalar)
        if which == "not-additive":
            assert scalar * tampered == tampered * scalar
        built = []
        init = StabilizerChain.__init__
        monkeypatch.setattr(StabilizerChain, "__init__", lambda chain, *a, **k: built.append(1) or init(chain, *a, **k))
        monkeypatch.setattr(build, "_GAMMA_L3_4_MAPS", maps)
        with pytest.raises(build.ConstructionError, match="not semilinear"):
            build.gamma_l3_4()
        assert built == []


class TestTilde:
    def test_counts_and_valencies(self, t0):
        g = t0.geometry
        points = g.elements_of_type(1)
        lines = g.elements_of_type(2)
        assert len(points) == 45 and len(lines) == 45
        for line in lines:
            assert sum(1 for e in g.pencil(line) if g.type_of[e] == 1) == 3
        for point in points:
            assert sum(1 for e in g.pencil(point) if g.type_of[e] == 2) == 3

    def test_flag_transitive(self, t0):
        assert is_flag_transitive(t0.geometry, t0.action)

    def test_group_order(self, t0):
        assert t0.group.order() == 2160
        assert t0.o3_generator.order() == 3

    def test_quotient_isomorphic_to_gq(self, t0, gq22):
        from geomforge.build import _apply_points
        from geomforge.geom import is_s_covering, quotient_by_action
        from geomforge.perm import induced_action

        o3 = PermutationGroup([t0.o3_generator])
        action = induced_action(o3, t0.geometry.elements, _apply_points)
        quotient, morphism = quotient_by_action(t0.geometry, action)
        assert isomorphic(quotient, gq22.geometry) is not None
        assert is_s_covering(morphism, 1)

    def test_seed_independence_up_to_isomorphism(self, t0):
        other = build.tilde_geometry(seed=7)
        assert isomorphic(t0.geometry, other.geometry) is not None

    def test_um_dimension_is_11(self, t0):
        assert um_dimension(t0.geometry).total_dim == 11

    def test_unique_passing_orbit_recorded(self, t0):
        assert t0.provenance["passing_orbits"] == 1

    def test_points_are_the_45_vector_orbit(self, t0):
        from geomforge.perm import induced_action

        group = t0.group
        orbits = induced_action(group, range(group.degree), lambda g, x: g.images[x]).orbits()
        assert sorted(len(o) for o in orbits) == [18, 45]
        point_vectors = {p[0] for p in t0.geometry.elements_of_type(1)}
        big = next(o for o in orbits if len(o) == 45)
        assert point_vectors == set(big)


class TestContainmentIncidences:
    @pytest.mark.parametrize(
        "construct,arg",
        [
            (build.projective_geometry_2, 3),
            (build.projective_geometry_2, 4),
            (build.symplectic_polar_space, 2),
            (build.symplectic_polar_space, 3),
            (build.tilde_geometry, 9),
        ],
    )
    def test_matches_pairwise_scan(self, construct, arg):
        elements = list(construct(arg).geometry.elements)
        pairs = build._containment_incidences(elements)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (a, b) for a in elements for b in elements if set(a) < set(b)
        }


class TestGaussianBinomial:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 7), (4, 35), (5, 155)])
    def test_values(self, n, expected):
        assert build.gaussian_binomial_n2(n) == expected
        assert expected == subspace_count(n, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build.gaussian_binomial_n2(1)
