"""Universal natural representation tests: relation systems, module
dimensions and the O3 split."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforge.build import ConstructionMetadata, projective_geometry_2
from geomforge.geom import Geometry, element_action
from geomforge.natrep import (
    NotGF2TypeError,
    o3_split_dims,
    relation_matrix,
    um_dimension,
)
from geomforge.perm import Permutation, PermutationGroup
from oracles import dense, naive_rank, o3_split_by_matrices


def _rotated_system(n, lines, generator):
    """Rank-2 geometry on points ("pt", i) and lines ("ln", (i, j, k)), with
    the metadata of the checked action of <generator> on it."""
    g = Geometry(
        2,
        [(("pt", i), 1) for i in range(n)] + [(("ln", line), 2) for line in lines],
        [(("pt", x), ("ln", line)) for line in lines for x in line],
    )
    group = PermutationGroup([generator])

    def rule(p, eid):
        kind, payload = eid
        if kind == "pt":
            return (kind, p.images[payload])
        return (kind, tuple(sorted(p.images[x] for x in payload)))

    return g, ConstructionMetadata(g, group, element_action(g, group, rule), o3_generator=generator)


class TestRelationMatrix:
    def test_p0_shape(self, p0):
        m = relation_matrix(p0.geometry)
        assert (m.rows, m.cols) == (10, 15)
        for r in range(m.rows):
            assert sum(m.row(r)) == 3

    def test_gq_shape(self, gq22):
        m = relation_matrix(gq22.geometry)
        assert (m.rows, m.cols) == (15, 15)
        for r in range(m.rows):
            assert sum(m.row(r)) == 3

    def test_t0_shape(self, t0):
        m = relation_matrix(t0.geometry)
        assert (m.rows, m.cols) == (45, 45)

    def test_non_gf2_type_rejected(self):
        g = Geometry(
            2,
            [(("p", i), 1) for i in range(4)] + [("l", 2)],
            [(("p", i), "l") for i in range(4)],
        )
        with pytest.raises(NotGF2TypeError):
            relation_matrix(g)


class TestUmDimension:
    def test_p0_is_6(self, p0):
        result = um_dimension(p0.geometry)
        assert result.total_dim == 6
        assert result.points - result.relation_rank == 6

    def test_t0_is_11(self, t0):
        assert um_dimension(t0.geometry).total_dim == 11

    def test_fano_truncation_is_3(self, fano):
        # the Fano plane has rank 2: its truncation to types 1 and 2 is itself
        result = um_dimension(fano.geometry)
        assert result.total_dim == 3
        assert result.relation_rank == 4

    def test_gq_is_5_against_oracle(self, gq22):
        m = relation_matrix(gq22.geometry)
        oracle = naive_rank(m.to_rows(), 2)
        result = um_dimension(gq22.geometry)
        assert result.relation_rank == oracle
        assert result.total_dim == 15 - oracle == 5

    def test_invariant_under_relabeling(self, p0):
        base = p0.geometry
        relabeled = Geometry(
            2,
            [(("z", e), base.type_of[e]) for e in base.elements],
            [(("z", a), ("z", b)) for a, b in base.incidence_pairs()],
        )
        assert um_dimension(relabeled).total_dim == 6

    def test_rank_reverified_by_transpose(self, gq22):
        m = relation_matrix(gq22.geometry)
        assert m.rank() == m.transpose().rank()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=20, unique=True),
    )))
    def test_rank_matches_matrix_on_random_lines(self, points_and_lines):
        # points 0..n-1 and any set of 3-point lines: the echelon basis of
        # the line masks has the relation matrix's rank over GF(2)
        n, lines = points_and_lines
        g = Geometry(
            2,
            [(p, 1) for p in range(n)] + [(("l", i), 2) for i in range(len(lines))],
            [(p, ("l", i)) for i, line in enumerate(lines) for p in line],
        )
        result = um_dimension(g)
        assert result.relation_rank == relation_matrix(g).rank()
        assert (result.points, result.total_dim) == (n, n - result.relation_rank)

    @pytest.mark.parametrize("source", ["sp3", "pg32", "t0"], ids=["w52", "pg32", "tilde"])
    def test_rank_matches_matrix_on_builds(self, request, source):
        meta = projective_geometry_2(4) if source == "pg32" else request.getfixturevalue(source)
        g = meta.geometry
        assert um_dimension(g).relation_rank == relation_matrix(g).rank()


class TestO3Split:
    def test_t0_split_6_5(self, t0):
        result = o3_split_dims(t0.geometry, t0)
        assert result.total_dim == 11
        assert result.split == (6, 5)

    def test_split_sums_to_total(self, t0):
        result = o3_split_dims(t0.geometry, t0)
        assert sum(result.split) == result.total_dim

    def test_t0_split_matches_matrix_oracle(self, t0):
        assert o3_split_dims(t0.geometry, t0).split == o3_split_by_matrices(t0.geometry, t0)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_split_matches_matrix_oracle_on_random_systems(self, data):
        # up to 12 points, an order-3 permutation of them (1-3 three-cycles
        # on random points) and lines closed under it; rank-nullity on bit
        # masks must give the split that the matrix pipeline computes
        cycles, fixed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        n = 3 * cycles + fixed
        moved = data.draw(st.permutations(range(n)))[: 3 * cycles]
        images = list(range(n))
        for a, b, c in zip(moved[0::3], moved[1::3], moved[2::3]):
            images[a], images[b], images[c] = b, c, a
        seeds = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=8))
        lines = set()
        for line in seeds:
            for _ in range(3):
                lines.add(tuple(sorted(line)))
                line = tuple(images[x] for x in line)
        g, meta = _rotated_system(n, sorted(lines), Permutation(images))
        result = o3_split_dims(g, meta)
        assert result.split == o3_split_by_matrices(g, meta)
        assert (result.points, result.total_dim) == (n, n - result.relation_rank)

    def test_fixed_points_are_in_the_centralizer(self):
        # no lines, so UM = GF(2)^4; (0 1 2) fixes e_3 and e_0 + e_1 + e_2,
        # and g + 1 has image <e_0 + e_1, e_1 + e_2>.  Row p of T = P + I is
        # e_p + e_g(p), zero at a fixed point p, not e_p
        g, meta = _rotated_system(4, [], Permutation.from_cycles(4, [(0, 1, 2)]))
        assert o3_split_dims(g, meta).split == (2, 2)

    def test_o3_moving_a_line_off_the_lines_rejected(self):
        # a bare action, never checked against incidence: its points turn
        # by the rotation while the lines stay put, so the image {1, 4, 7}
        # of the line {0, 3, 6} is no line
        from geomforge.perm import induced_action

        rot = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        lines = [(0, 3, 6), (1, 4, 8)]
        g, _ = _rotated_system(9, lines, Permutation.identity(9))
        group = PermutationGroup([rot])

        def rule(p, eid):
            kind, payload = eid
            return (kind, p.images[payload]) if kind == "pt" else eid

        meta = ConstructionMetadata(g, group, induced_action(group, g.elements, rule), o3_generator=rot)
        with pytest.raises(ValueError, match="does not map lines to lines"):
            o3_split_dims(g, meta)

    def test_requires_o3(self, p0):
        with pytest.raises(ValueError):
            o3_split_dims(p0.geometry, p0)

    def test_rejects_wrong_order(self, t0):
        from dataclasses import replace

        bad = replace(t0, o3_generator=t0.o3_generator * t0.o3_generator * t0.o3_generator)
        with pytest.raises(ValueError):
            o3_split_dims(t0.geometry, bad)

    def test_o3_outside_the_action_generators_rejected(self, t0):
        # the inverse scalar has order 3 but is not one of the generators
        # whose images the action holds
        from dataclasses import replace

        inverse = t0.o3_generator.inverse()
        assert inverse not in t0.action.group.generators
        with pytest.raises(ValueError, match="not a generator of the construction's action"):
            o3_split_dims(t0.geometry, replace(t0, o3_generator=inverse))

    def test_trivial_action_on_um_gives_zero_commutant(self):
        # complete tripartite point-line system: all a_i collapse in UM, so
        # the fiber rotation acts trivially there and the split is (0, dim)
        from geomforge.build import ConstructionMetadata
        from geomforge.geom import element_action
        from geomforge.perm import Permutation, PermutationGroup

        groups = {"a": [0, 1, 2], "b": [3, 4, 5], "c": [6, 7, 8]}
        points = [("pt", i) for i in range(9)]
        lines = [
            ("ln", (i, j, k))
            for i in groups["a"]
            for j in groups["b"]
            for k in groups["c"]
        ]
        incidences = [
            (("pt", x), line) for line in lines for x in line[1]
        ]
        g = Geometry(2, [(p, 1) for p in points] + [(l, 2) for l in lines], incidences)
        rot = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        group = PermutationGroup([rot])

        def rule(p, eid):
            kind, payload = eid
            if kind == "pt":
                return (kind, p.images[payload])
            return (kind, tuple(sorted(p.images[x] for x in payload)))

        action = element_action(g, group, rule)
        meta = ConstructionMetadata(g, group, action, o3_generator=rot)
        result = o3_split_dims(g, meta)
        assert result.total_dim == 2
        assert result.split == (0, 2)

    def test_t0_hexacode_span_sits_in_commutant(self, t0):
        # the order-3 scalar has no nonzero fixed vectors on the 6-dim span,
        # so the concrete representation lies inside the commutant summand
        from geomforge.gf2 import MatrixGFp

        z = t0.o3_generator
        rows = []
        for i in range(6):
            basis_point = (1 << i) - 1  # point index of the basis vector
            image_mask = z.images[basis_point] + 1
            row = [(image_mask >> j) & 1 for j in range(6)]
            row[i] ^= 1  # build M_z + I
            rows.append(row)
        kernel = MatrixGFp.from_rows(2, rows).nullspace()
        assert kernel.rows == 0  # trivial fixed subspace

    def test_commutant_meets_centralizer_trivially(self, t0):
        # over GF(2), x^3 - 1 = (x+1)(x^2+x+1) with coprime factors, so the
        # image and kernel of (g - 1) on UM intersect trivially
        from geomforge.gf2 import MatrixGFp
        from geomforge.natrep import _point_permutation

        g = t0.geometry
        points = g.elements_of_type(1)
        index = {p: i for i, p in enumerate(points)}
        perm = _point_permutation(t0, index)
        n = len(points)
        entries = []
        for p in range(n):
            entries.append((p, p, 1))
            entries.append((p, perm[p], 1))
        t_matrix = MatrixGFp.from_entries(2, n, n, entries)
        relations = relation_matrix(g)
        row_basis = relations.row_space()
        rank = row_basis.rows
        annihilator = row_basis.nullspace()
        # preimage of kernel: N T x = 0; preimage of image: T V + R
        kernel_pre = MatrixGFp.from_rows(2, dense(annihilator) @ dense(t_matrix).T).nullspace()
        image_pre = MatrixGFp.from_rows(2, np.vstack([dense(t_matrix), dense(row_basis)])).row_space()
        # intersection dimension via rank formula
        stacked = MatrixGFp.from_rows(2, np.vstack([dense(kernel_pre), dense(image_pre)]))
        inter_dim = kernel_pre.rows + image_pre.rows - stacked.rank()
        assert inter_dim == rank  # they meet exactly in the relation space

