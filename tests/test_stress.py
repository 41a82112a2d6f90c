"""Randomized stress tests pinning the core primitives against independent
oracles: naive closure enumeration for group orders and stabilizers, known
presentation families for coset enumeration, and networkx for graph
isomorphism.  Everything is seeded."""

from itertools import combinations
from random import Random

import pytest

from geomforge.cover import Presentation, todd_coxeter
from geomforge.graphs import Graph, graph_isomorphism
from geomforge.perm import Permutation, PermutationGroup
from oracles import naive_group_elements


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


class TestChainAgainstClosure:
    def test_orders_on_random_small_groups(self):
        rng = Random(515)
        for _ in range(40):
            degree = rng.randrange(3, 8)
            gens = [random_permutation(rng, degree) for _ in range(rng.randrange(1, 4))]
            group = PermutationGroup(gens)
            elements = naive_group_elements([g.images for g in gens])
            assert group.order() == len(elements)

    def test_membership_on_random_small_groups(self):
        rng = Random(616)
        for _ in range(15):
            degree = rng.randrange(3, 7)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            group = PermutationGroup(gens)
            elements = naive_group_elements([g.images for g in gens])
            for images in elements:
                assert group.contains(Permutation(images))
            # non-members must be rejected
            from itertools import permutations

            for images in permutations(range(degree)):
                if images not in elements:
                    assert not group.contains(Permutation(images))
                    break

    def test_pointwise_stabilizers_vs_bruteforce(self):
        rng = Random(717)
        for _ in range(20):
            degree = rng.randrange(4, 8)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            group = PermutationGroup(gens)
            if group.order() > 5000:
                continue
            elements = naive_group_elements([g.images for g in gens])
            points = sorted(rng.sample(range(degree), rng.randrange(1, 3)))
            expected = sum(
                1 for images in elements if all(images[p] == p for p in points)
            )
            assert group.stabilizer(points, mode="pointwise").order() == expected

    def test_setwise_stabilizers_vs_bruteforce(self):
        rng = Random(818)
        for _ in range(20):
            degree = rng.randrange(4, 8)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            group = PermutationGroup(gens)
            if group.order() > 5000:
                continue
            elements = naive_group_elements([g.images for g in gens])
            points = sorted(rng.sample(range(degree), rng.randrange(2, 4)))
            point_set = set(points)
            expected = sum(
                1
                for images in elements
                if {images[p] for p in points} == point_set
            )
            assert group.stabilizer(points, mode="setwise").order() == expected

    def test_normal_closure_vs_bruteforce(self):
        rng = Random(919)
        for _ in range(10):
            degree = rng.randrange(3, 6)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            group = PermutationGroup(gens)
            elements = sorted(naive_group_elements([g.images for g in gens]))
            seed = Permutation(elements[rng.randrange(len(elements))])
            closure = group.normal_closure([seed])
            # oracle: close the conjugacy orbit of the seed under multiplication
            def mul(p, q):
                return tuple(q[i] for i in p)

            def inv(p):
                out = [0] * len(p)
                for i, j in enumerate(p):
                    out[j] = i
                return tuple(out)

            conjugates = {
                mul(mul(inv(g), seed.images), g) for g in elements
            }
            expected = naive_group_elements(sorted(conjugates))
            assert closure.order() == len(expected)


class TestCosetEnumerationFamilies:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10])
    def test_dihedral_orders(self, n):
        pres = Presentation.from_strings(
            ["a", "b"], ["aa", "b" * n, "abab"]
        )
        assert todd_coxeter(pres).index == 2 * n

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_cyclic_orders(self, n):
        pres = Presentation.from_strings(["a"], ["a" * n])
        assert todd_coxeter(pres).index == n

    def test_s4_triangle_presentation(self):
        pres = Presentation.from_strings(["a", "b"], ["aa", "bbb", "abababab"])
        assert todd_coxeter(pres).index == 24

    def test_s5_coxeter_presentation(self):
        pres = Presentation.from_strings(
            ["a", "b", "c", "d"],
            ["aa", "bb", "cc", "dd",
             "ababab", "bcbcbc", "cdcdcd",
             "acac", "adad", "bdbd"],
        )
        assert todd_coxeter(pres).index == 120

    def test_coset_action_satisfies_relators(self):
        pres = Presentation.from_strings(["a", "b"], ["aa", "bbb", "ababababab"])
        outcome = todd_coxeter(pres)
        perms = [Permutation(p) for p in list(zip(*outcome.table))[::2]]
        group = PermutationGroup(perms)
        assert group.order() == 60  # image of A5 acting on itself
        a, b = perms
        assert (a * a).is_identity()
        assert (b * b * b).is_identity()
        ab = a * b
        assert (ab ** 5).is_identity()

    def test_index_times_subgroup_order_constant(self):
        # in A4 (order 12): indices over <a>, <b>, <ab>
        base = ["aa", "bbb", "ababab"]
        for word, sub_order in (("a", 2), ("b", 3), ("ab", 3)):
            pres = Presentation.from_strings(["a", "b"], base, [word])
            assert todd_coxeter(pres).index * sub_order == 12


class TestGraphIsomorphismOracle:
    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = Random(2024)
        for trial in range(40):
            n = rng.randrange(4, 12)
            edges1 = [
                (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.4
            ]
            if trial % 2 == 0:
                # relabelled copy: always isomorphic
                relabel = list(range(n))
                rng.shuffle(relabel)
                edges2 = [(relabel[i], relabel[j]) for i, j in edges1]
            else:
                edges2 = [
                    (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.4
                ]
            g1 = Graph(range(n), edges1)
            g2 = Graph(range(n), edges2)

            def to_nx(g):
                out = nx.Graph()
                out.add_nodes_from(g.vertices)
                out.add_edges_from(g.edges())
                return out

            expected = nx.is_isomorphic(to_nx(g1), to_nx(g2))
            assert (graph_isomorphism(g1, g2) is not None) == expected, (edges1, edges2)

    def test_found_mappings_are_isomorphisms(self):
        rng = Random(77)
        for _ in range(20):
            n = rng.randrange(4, 10)
            edges = [
                (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5
            ]
            relabel = list(range(n))
            rng.shuffle(relabel)
            g1 = Graph(range(n), edges)
            g2 = Graph(range(n), [(relabel[i], relabel[j]) for i, j in edges])
            mapping = graph_isomorphism(g1, g2)
            assert mapping is not None
            for a, b in g1.edges():
                assert g2.has_edge(mapping[a], mapping[b])
            assert len(set(mapping.values())) == n


class TestTildeAmalgam:
    def test_t0_parabolic_orders(self, t0):
        from geomforge.geom import amalgam_report

        flag = t0.geometry.maximal_flags()[0]
        report = amalgam_report(t0.geometry, t0.action, flag)
        assert report.image_order == 2160
        assert report.parabolic_orders == {1: 48, 2: 48}
        assert report.borel_order == 16
