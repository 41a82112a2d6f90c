"""Permutation engine tests: orbits, orders, stabilizers, normal subgroup
machinery, subgroup search and induced actions."""

import json
from functools import lru_cache
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomforge.perm as perm_module
from geomforge import local
from geomforge.build import gamma_l3_4, symplectic_generators, symplectic_transvections
from geomforge.perm import (
    CapacityError,
    ClosureError,
    DomainError,
    GroupAction,
    Permutation,
    PermutationGroup,
    StabilizerChain,
    SubgroupPredicate,
    _closure,
    group_from_json,
    induced_action,
    load_group,
    subgroup_search,
)
from oracles import (
    exhaustive_orbit,
    first_generator_moving_by_scan,
    minimal_normal_by_enumeration,
    naive_group_elements,
    naive_minimal_normal_orders,
    normal_closure_by_rebuild,
    sample_by_level_inverses,
    setwise_stabilizer_by_rebuild,
)


def pair_rule(g, pair):
    return tuple(sorted(g.images[x] for x in pair))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_compose_inverse_is_identity(self):
        rng = Random(7)
        for _ in range(25):
            images = list(range(8))
            rng.shuffle(images)
            p = Permutation(images)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_composition_order(self):
        # apply p first, then q
        p = Permutation.from_cycles(3, [(0, 1)])
        q = Permutation.from_cycles(3, [(1, 2)])
        assert (p * q)(0) == q(p(0)) == 2
        # degrees 0 and 1 take the identity branch of the product
        for images in ([], [0]):
            product = Permutation(images) * Permutation(images)
            assert type(product) is Permutation and product.images == tuple(images)

    def test_order_and_power(self):
        p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
        assert p.order() == 6
        assert (p ** 6).is_identity()
        assert p ** -1 == p.inverse()

    def test_cycles_roundtrip(self):
        p = Permutation.from_cycles(5, [(0, 3, 1)])
        assert p.cycles() == [(0, 3, 1)]

    @pytest.mark.parametrize("point", [5, 3, -1])
    def test_from_cycles_rejects_points_outside_degree(self, point):
        with pytest.raises(ValueError, match=f"cycle point {point} outside 0..2"):
            Permutation.from_cycles(3, [(0, point)])

    @pytest.mark.parametrize("images", [
        [1.0, 0],
        [True, 0],
        [1, False],
        ["1", 0],
        [None, 0],
    ], ids=["float", "bool", "bool-zero", "str", "none"])
    def test_rejects_non_integer_images(self, images):
        with pytest.raises(ValueError):
            Permutation(images)

    def test_integer_like_images_become_ints(self):
        p = Permutation(np.array([2, 0, 1]))
        assert p.images == (2, 0, 1)
        assert all(type(x) is int for x in p.images)

    def test_product_of_different_degrees_rejected(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]) * Permutation([1, 2, 0])


class TestGroupOrder:
    def test_s5(self):
        assert PermutationGroup.symmetric(5).order() == 120

    def test_identity_only(self):
        assert PermutationGroup.trivial(4).order() == 1

    def test_sp6_transvections(self):
        group = PermutationGroup(symplectic_transvections(3))
        assert group.order() == 2**9 * 3 * 15 * 63 == 1451520

    def test_order_invariant_under_generator_shuffle(self):
        rng = Random(3)
        base = PermutationGroup.symmetric(6)
        gens = list(base.generators)
        for _ in range(5):
            rng.shuffle(gens)
            assert PermutationGroup(gens).order() == 720

    def test_order_invariant_under_random_words(self):
        rng = Random(11)
        base = PermutationGroup.alternating(5)
        for _ in range(3):
            words = [base.chain().sample(rng) for _ in range(3)]
            regenerated = PermutationGroup(words)
            if regenerated.order() == 60:
                assert all(base.contains(g) for g in regenerated.generators)
                assert all(regenerated.contains(g) for g in base.generators)

    def test_membership_agrees_with_closure(self):
        group = PermutationGroup.symmetric(4)
        elements = naive_group_elements([g.images for g in group.generators])
        assert group.order() == len(elements)
        for images in sorted(elements):
            assert group.contains(Permutation(images))
        outside = Permutation([1, 0, 2, 3, 4])
        assert not PermutationGroup.alternating(5).contains(
            Permutation([1, 0, 2, 3, 4])
        )


class TestOrbit:
    def test_s5_on_pairs(self):
        s5 = PermutationGroup.symmetric(5)
        pairs = [tuple(sorted(c)) for c in combinations(range(5), 2)]
        action = induced_action(s5, pairs, pair_rule)
        assert len(action.orbit((0, 1))) == 10

    def test_transvections_on_vectors(self):
        group = PermutationGroup(symplectic_transvections(2))
        action = _on_points(group)
        got = action.orbit(0)
        maps = [lambda x, g=g: g.images[x] for g in group.generators]
        assert set(got) == exhaustive_orbit(0, maps)
        assert len(got) == 15

    def test_trivial_group(self):
        group = PermutationGroup.trivial(6)
        action = _on_points(group)
        assert action.orbit(4) == [4]

    def test_seed_outside_domain(self):
        action = _on_points(PermutationGroup.symmetric(3))
        with pytest.raises(DomainError):
            action.orbit(9)


class TestStabilizer:
    def test_point_stabilizer_s5(self):
        s5 = PermutationGroup.symmetric(5)
        assert s5.stabilizer([0], "pointwise").order() == 24

    def test_petersen_vertex_stabilizer(self, p0):
        vertices = p0.geometry.elements_of_type(2)
        action = p0.action
        image = action.image_group()
        idx = action.index[vertices[0]]
        sub = image.stabilizer([idx], mode="pointwise")
        assert sub.order() == 12  # 120 / 10 by orbit-stabilizer

    def test_full_pointwise_stabilizer_trivial(self):
        s4 = PermutationGroup.symmetric(4)
        assert s4.stabilizer(list(range(4)), "pointwise").order() == 1

    def test_empty_points_returns_group(self):
        s4 = PermutationGroup.symmetric(4)
        assert s4.stabilizer([], "pointwise") is s4

    def test_orbit_stabilizer_identity(self):
        group = PermutationGroup.alternating(6)
        for x in (0, 3):
            orb = group.point_orbit(x)
            stab = group.stabilizer([x], mode="pointwise")
            assert len(orb) * stab.order() == group.order()

    def test_setwise_stabilizer(self):
        s5 = PermutationGroup.symmetric(5)
        sw = s5.stabilizer([0, 1], mode="setwise")
        assert sw.order() == 12
        for g in sw.generators:
            assert {g.images[0], g.images[1]} == {0, 1}


class TestMinimalNormalSubgroups:
    """The regular-minimal-normal-subgroup verdict of ``local`` and the
    enumerating reference in ``oracles`` that it replaced."""

    @pytest.mark.parametrize(
        "group,expected",
        [
            (PermutationGroup.symmetric(4), [4]),
            (PermutationGroup.symmetric(3), [3]),
            (PermutationGroup.alternating(5), [60]),
        ],
    )
    def test_against_bruteforce(self, group, expected):
        images = [g.images for g in group.generators]
        assert naive_minimal_normal_orders(images) == expected
        assert [n.order() for n in minimal_normal_by_enumeration(images)] == expected
        # S4 and S3 have a regular V4 and A3; A5 is simple of order 60, not 5
        assert local._has_regular_normal_subgroup(group, group.degree) == (
            group.degree in expected
        )

    def test_members_are_normal_and_incomparable(self):
        group = PermutationGroup.symmetric(4)
        subs = minimal_normal_by_enumeration([g.images for g in group.generators])
        for sub in subs:
            assert sub.is_normal_in(group)
        for a in subs:
            for b in subs:
                if a is not b:
                    assert not all(b.contains(g) for g in a.generators)

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            PermutationGroup.symmetric(5).elements(bound=100)

    @pytest.mark.parametrize("degree,classes,minimal", [(4, 3, 4), (5, 4, 60)])
    def test_one_normal_closure_per_conjugacy_class(self, monkeypatch, degree, classes, minimal):
        # S4 and S5 have 3 and 4 classes of subgroups of prime order; the
        # reference takes one normal closure per class
        calls = []
        normal_closure = PermutationGroup.normal_closure

        def counted(group, seeds):
            calls.append(seeds)
            return normal_closure(group, seeds)

        monkeypatch.setattr(PermutationGroup, "normal_closure", counted)
        group = PermutationGroup.symmetric(degree)
        subs = minimal_normal_by_enumeration([g.images for g in group.generators])
        assert [g.order() for g in subs] == [minimal]
        assert len(calls) == classes


class TestSubgroupSearch:
    def test_a4_inside_s4(self):
        s4 = PermutationGroup.symmetric(4)
        found = subgroup_search(s4, SubgroupPredicate(order=12), seed=1)
        assert found is not None and found.order() == 12
        a4 = PermutationGroup.alternating(4)
        assert all(s4.contains(g) and a4.contains(g) for g in found.generators)

    def test_whole_group_target(self):
        s4 = PermutationGroup.symmetric(4)
        assert subgroup_search(s4, SubgroupPredicate(order=24), seed=1) is s4

    def test_non_dividing_order_rejected(self):
        with pytest.raises(ValueError):
            subgroup_search(
                PermutationGroup.symmetric(4), SubgroupPredicate(order=7), seed=1
            )

    def test_predicate_has_no_quotient_order(self):
        # an order and a contained subgroup are the whole search target
        with pytest.raises(TypeError):
            SubgroupPredicate(order=12, contains=PermutationGroup.alternating(4), quotient_order=1)

    def test_deterministic_given_seed(self):
        s4 = PermutationGroup.symmetric(4)
        a = subgroup_search(s4, SubgroupPredicate(order=8), seed=5)
        b = subgroup_search(s4, SubgroupPredicate(order=8), seed=5)
        assert [g.images for g in a.generators] == [g.images for g in b.generators]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_search_without_orbit_filter(self, data):
        group, scalar = data.draw(st.sampled_from(_SEARCH_AMBIENTS))()
        order = group.order()
        target = data.draw(st.sampled_from(
            [d for d in range(1, order) if order % d == 0]
        ))
        if data.draw(st.booleans()):
            # the order of a random two-generated subgroup, which a search
            # can reach, unless that subgroup is the whole group
            rng = Random(data.draw(st.integers(0, 2**32 - 1)))
            pair = PermutationGroup([group.chain().sample(rng) for _ in range(2)])
            if pair.order() < order:
                target = pair.order()
        contains = None
        if scalar is not None and target % 3 == 0 and data.draw(st.booleans()):
            contains = PermutationGroup([scalar])
        predicate = SubgroupPredicate(order=target, contains=contains)
        seed = data.draw(st.integers(0, 2**32 - 1))
        max_trials = data.draw(st.integers(1, 40))
        found = subgroup_search(group, predicate, seed=seed, max_trials=max_trials)
        expected = _unfiltered_search(group, predicate, seed, max_trials)
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert [g.images for g in found.generators] == [g.images for g in expected]
            assert found.order() == target

    def test_orbit_lengths_skip_most_tilde_candidates(self, monkeypatch):
        # seed 9 of the tilde build: 124 chains before candidates were
        # rejected by orbit lengths, 18 after
        group, scalar = _gamma_l3_4()
        predicate = SubgroupPredicate(order=2160, contains=PermutationGroup([scalar]))
        built = []

        class Counting(StabilizerChain):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(perm_module, "StabilizerChain", Counting)
        found = subgroup_search(group, predicate, seed=9)
        assert found is not None and found.order() == 2160
        assert len(built) <= 30


_gamma_l3_4 = lru_cache(maxsize=None)(gamma_l3_4)


def _named_generators(name):
    if name == "gamma":
        return list(_gamma_l3_4()[0].generators)
    if name == "sp6":
        return symplectic_generators(3)
    return list(PermutationGroup.symmetric(8).generators)


_SEARCH_AMBIENTS = [
    lambda: (PermutationGroup.symmetric(5), None),
    lambda: (PermutationGroup.symmetric(6), None),
    _gamma_l3_4,
]


def _unfiltered_search(group, predicate, seed, max_trials):
    """Generators of the first pair subgroup_search would accept if it built
    a chain for every pair of admissible element orders, or None."""
    required = list(predicate.contains.generators) if predicate.contains else []
    allowed = predicate.admissible_element_orders()
    rng = Random(seed)
    chain = group.chain()
    for _ in range(max_trials):
        a = chain.sample(rng)
        if a.order() not in allowed:
            continue
        b = chain.sample(rng)
        if b.order() not in allowed:
            continue
        gens = required + [a, b]
        sub_chain = StabilizerChain(group.degree, gens, order_limit=predicate.order)
        if not sub_chain.aborted and sub_chain.order() == predicate.order:
            return gens
    return None


class TestRandomElements:
    def test_sampling_covers_group_uniformly(self):
        # every element reachable with near-uniform frequency
        group = PermutationGroup.symmetric(4)
        chain = group.chain()
        rng = Random(123)
        counts = {}
        for _ in range(12000):
            g = chain.sample(rng)
            counts[g.images] = counts.get(g.images, 0) + 1
        assert len(counts) == 24
        assert min(counts.values()) > 350 and max(counts.values()) < 650

    def test_samples_are_members(self):
        group = PermutationGroup.alternating(5)
        rng = Random(5)
        for _ in range(50):
            assert group.contains(group.chain().sample(rng))


class TestInducedAction:
    def test_identity_rule_is_natural_action(self):
        group = PermutationGroup.symmetric(4)
        action = induced_action(group, range(4), lambda g, x: g.images[x])
        assert action.domain == (0, 1, 2, 3)
        assert action.orbit(0) == [0, 1, 2, 3]

    def test_subspace_domain_count(self):
        from geomforge.build import _general_linear_group

        gl4 = _general_linear_group(4)
        # 2-dimensional subspaces of GF(2)^4 as sorted triples of vectors
        subs = set()
        for v1 in range(1, 16):
            for v2 in range(v1 + 1, 16):
                subs.add(tuple(sorted((v1, v2, v1 ^ v2))))
        assert len(subs) == 35

        def rule(g, sub):
            return tuple(sorted(g.images[v - 1] + 1 for v in sub))

        action = induced_action(gl4, sorted(subs), rule)
        assert len(action.orbit(sorted(subs)[0])) == 35

    def test_domain_keeps_the_given_order(self):
        group = PermutationGroup.symmetric(4)
        action = induced_action(group, [3, 2, 3, 1, 0, 2], lambda g, x: g.images[x])
        assert action.domain == (3, 2, 1, 0)
        assert action.orbit(0) == [3, 2, 1, 0]
        assert action.restricted([0, 2, 0, 1, 3]).domain == (0, 2, 1, 3)

    def test_orbits_follow_domain_positions(self):
        swaps = PermutationGroup([Permutation([1, 0, 3, 2])])
        action = induced_action(swaps, [3, 0, 2, 1], lambda g, x: g.images[x])
        assert action.orbits() == [[3, 2], [0, 1]]

    def test_closure_error(self):
        group = PermutationGroup.symmetric(4)
        with pytest.raises(ClosureError):
            induced_action(group, [0, 1], lambda g, x: g.images[x])

    @pytest.mark.parametrize("images", [[1.0, 0], [True, 0]], ids=["float", "bool"])
    def test_non_integer_images_rejected(self, images):
        group = PermutationGroup([Permutation([1, 0])])
        with pytest.raises(ValueError):
            GroupAction(group, ["a", "b"], [images])


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    ), st.data())
    def test_first_generator_moving_matches_scan(self, gens, data):
        n = len(gens[0])
        action = GroupAction(PermutationGroup([Permutation(g) for g in gens]), range(n), gens)
        all_pairs = list(combinations(range(n), 2))
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), max_size=12)) if all_pairs else []
        if data.draw(st.booleans()):
            # close the pairs under the generators: an invariant set
            maps = [lambda p, g=g: tuple(sorted((g[p[0]], g[p[1]]))) for g in gens]
            pairs = sorted(set().union(*(exhaustive_orbit(p, maps) for p in pairs)))
        pairs = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in pairs]
        expected = first_generator_moving_by_scan(action, pairs)
        assert action.first_generator_moving(pairs) == expected

    @pytest.mark.parametrize("pairs", [[], [("a", "b")], [("c", "a")], [("a", "b"), ("b", "a")]],
                             ids=["empty", "one-pair", "one-pair-reversed", "repeated-pair"])
    @pytest.mark.parametrize("gens", [[[1, 0, 2]], [[0, 1, 2], [1, 2, 0]], [[1, 0, 2], [0, 2, 1]]],
                             ids=["swap-ab", "identity-then-cycle", "swap-ab-then-swap-bc"])
    def test_first_generator_moving_on_small_sets(self, gens, pairs):
        action = GroupAction(PermutationGroup([Permutation(g) for g in gens]), "abc", gens)
        expected = first_generator_moving_by_scan(action, pairs)
        assert action.first_generator_moving(pairs) == expected


class TestGroupFiles:
    def test_roundtrip(self, tmp_path):
        group = PermutationGroup.symmetric(4)
        payload = {"degree": 4, "generators": [list(g.images) for g in group.generators]}
        again = group_from_json(payload)
        assert again.order() == 24

    def test_expected_order_mismatch(self, tmp_path):
        payload = {
            "degree": 3,
            "generators": [[1, 2, 0]],
            "expected_order": 7,
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_group(path)

    @pytest.mark.parametrize("images", [[1.0, 0], [True, 0]], ids=["float", "bool"])
    def test_non_integer_generator_rejected(self, images):
        with pytest.raises(ValueError):
            group_from_json({"degree": 2, "generators": [images]})

    @pytest.mark.parametrize("degree", [2.5, "3", True, -1])
    def test_malformed_degree_rejected(self, degree):
        with pytest.raises(ValueError):
            group_from_json({"degree": degree, "generators": []})

    @pytest.mark.parametrize("payload, message", [
        ([[1, 0]], "must be an object, not list"),
        ({"generators": [[1, 0]]}, "no 'degree'"),
        ({"degree": 2}, "no 'generators'"),
        ({"degree": 2, "generators": 5}, "list of image lists"),
        ({"degree": 2, "generators": [5]}, "list of image lists"),
    ], ids=["list-payload", "no-degree", "no-generators", "int-generators", "int-generator"])
    def test_malformed_file_raises_value_error(self, tmp_path, payload, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_group(path)


class TestTrustedCore:
    """Products, inverses and chains never go back through the validating
    constructor: only the generators a caller builds are checked."""

    @pytest.mark.parametrize("make, order", [
        (lambda: [Permutation(t.images) for t in symplectic_transvections(3)], 1451520),
        (lambda: PermutationGroup.symmetric(8).generators, 40320),
    ], ids=["sp6-2", "s8"])
    def test_chain_validates_only_its_generators(self, monkeypatch, make, order):
        built = []
        validating = Permutation.__init__

        def counting(self, images):
            built.append(1)
            validating(self, images)

        monkeypatch.setattr(Permutation, "__init__", counting)
        gens = list(make())
        assert len(built) == len(gens)
        group = PermutationGroup(gens)
        assert group.order() == order
        rng = Random(4)
        for _ in range(5):
            assert group.contains(group.chain().sample(rng))
        assert len(built) == len(gens)


def _permutations(max_degree=40):
    return st.integers(0, max_degree).flatmap(lambda n: st.permutations(range(n)))


def _generating_sets(max_degree=7):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            _generating_sets(max_degree=9).map(lambda gens: [Permutation(g) for g in gens]),
            st.sampled_from(["gamma", "sp6", "s8"]).map(_named_generators),
        ),
        st.lists(st.integers(0, 12), max_size=3),
        st.integers(0, 2**32),
    )
    def test_sample_equals_per_level_inverses(self, gens, prefix, seed):
        # the same points are drawn in the same order, so both rngs end in
        # the same state and every seeded search sees the same elements
        prefix = [p for p in dict.fromkeys(prefix) if p < gens[0].degree]
        chain = StabilizerChain(gens[0].degree, gens, base_prefix=prefix)
        ours, theirs = Random(seed), Random(seed)
        for _ in range(4):
            assert chain.sample(ours) == sample_by_level_inverses(chain, theirs)
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    ))
    def test_product_is_composition(self, pair):
        a, b = pair
        assert (Permutation(a) * Permutation(b)).images == tuple(b[x] for x in a)

    @settings(max_examples=100, deadline=None)
    @given(_permutations())
    def test_inverse_round_trips(self, images):
        p = Permutation(images)
        inv = p.inverse()
        assert all(inv.images[p.images[x]] == x for x in range(p.degree))
        assert inv.inverse() == p
        assert (p * inv).is_identity() and (inv * p).is_identity()

    @settings(max_examples=100, deadline=None)
    @given(_permutations(), st.booleans())
    def test_is_identity_matches_scan(self, images, identity):
        if identity:
            images = sorted(images)
        p = Permutation(images)
        assert p.is_identity() == all(x == y for x, y in enumerate(p.images))

    @settings(max_examples=100, deadline=None)
    @given(_permutations(), st.integers(-12, 12))
    def test_power_is_repeated_product(self, images, k):
        p = Permutation(images)
        step = p if k >= 0 else p.inverse()
        expected = Permutation.identity(p.degree)
        for _ in range(abs(k)):
            expected = expected * step
        assert p ** k == expected

    @settings(max_examples=60, deadline=None)
    @given(
        _generating_sets(),
        st.one_of(st.none(), st.text(max_size=8)),
        st.sampled_from([-1, 1]),
    )
    def test_group_file_round_trip(self, gens, name, off):
        group = PermutationGroup([Permutation(g) for g in gens], name=name)
        payload = json.loads(json.dumps({
            "degree": group.degree,
            "generators": [list(g.images) for g in group.generators],
            "name": name,
            "expected_order": group.order(),
        }))
        again = group_from_json(payload)
        assert again.generators == group.generators
        assert (again.degree, again.name, again.order()) == (
            group.degree, group.name, group.order()
        )
        payload["expected_order"] += off
        with pytest.raises(ValueError):
            group_from_json(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(n)), max_size=3),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
    )))
    def test_closure_matches_exhaustive_orbit(self, case):
        gens, seeds = case
        seeds = seeds + seeds[::-1]  # every seed repeats
        found = _closure(seeds, lambda x: [g[x] for g in gens])
        maps = [lambda x, g=g: g[x] for g in gens]
        assert set(found) == set().union(*(exhaustive_orbit(s, maps) for s in seeds))
        firsts = [s for i, s in enumerate(seeds) if s not in seeds[:i]]
        assert found[:len(firsts)] == firsts
        assert len(found) == len(set(found))

    @settings(max_examples=60, deadline=None)
    @given(_generating_sets(), st.data())
    def test_chain_against_closure(self, gens, data):
        elements = naive_group_elements(gens)
        degree = len(gens[0])
        chain = StabilizerChain(degree, [Permutation(g) for g in gens])
        assert chain.order() == len(elements)
        for _ in range(5):
            other = data.draw(st.permutations(range(degree)))
            assert chain.contains(Permutation(other)) == (tuple(other) in elements)
        rng = Random(data.draw(st.integers(0, 2**32)))
        for _ in range(5):
            assert chain.sample(rng).images in elements


class TestChainGrowth:
    """``StabilizerChain.extend`` and the reads that replace the chain
    layout outside perm.py, against enumeration and against the loops that
    rebuilt a chain for every kept generator."""

    @settings(max_examples=80, deadline=None)
    @given(
        _generating_sets(max_degree=8),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3),
    )
    def test_extend_matches_group_of_generators(self, gens, products):
        perms = [Permutation(g) for g in gens]
        perms += [perms[i % len(perms)] * perms[j % len(perms)] for i, j in products]
        degree = len(gens[0])
        chain = StabilizerChain(degree, [])
        new = []
        for i, g in enumerate(perms):
            held = naive_group_elements([p.images for p in perms[:i]] or [range(degree)])
            is_new = g.images not in held
            assert chain.extend(g) == is_new
            if is_new:
                new.append(g)
        assert chain.generators == new
        elements = naive_group_elements([p.images for p in perms])
        assert chain.order() == len(elements) == PermutationGroup(perms).order()
        assert all(chain.contains(Permutation(x)) for x in elements)

    @settings(max_examples=60, deadline=None)
    @given(_generating_sets(max_degree=7), st.data())
    def test_setwise_stabilizer_matches_rebuild(self, gens, data):
        group = PermutationGroup([Permutation(g) for g in gens])
        points = data.draw(st.lists(st.integers(0, group.degree - 1), min_size=1, max_size=4))
        stab = group.stabilizer(points, mode="setwise")
        expected = setwise_stabilizer_by_rebuild(group, points)
        assert list(stab.generators) == (expected or [Permutation.identity(group.degree)])
        fixing = [x for x in naive_group_elements(gens) if {x[p] for p in points} == set(points)]
        assert stab.order() == len(fixing)

    @settings(max_examples=60, deadline=None)
    @given(_generating_sets(max_degree=7), st.data())
    def test_normal_closure_matches_rebuild(self, gens, data):
        group = PermutationGroup([Permutation(g) for g in gens])
        seeds = [
            Permutation(x)
            for x in data.draw(st.lists(st.permutations(range(group.degree)), max_size=2))
        ]
        closure = group.normal_closure(seeds)
        expected = normal_closure_by_rebuild(group, seeds)
        assert list(closure.generators) == (expected or [Permutation.identity(group.degree)])
        assert closure.order() == StabilizerChain(group.degree, closure.generators).order()

    @settings(max_examples=60, deadline=None)
    @given(_generating_sets(max_degree=8), st.data())
    def test_level_stabilizer_order_is_certified(self, gens, data):
        degree = len(gens[0])
        prefix = data.draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=degree))
        chain = StabilizerChain(degree, [Permutation(g) for g in gens], base_prefix=prefix)
        elements = naive_group_elements(gens)
        for k in range(len(prefix) + 2):
            stab = chain.stabilizer(k)
            assert stab.order() == StabilizerChain(degree, stab.generators).order()
            if k <= len(prefix):
                fixed = prefix[:k]
                assert stab.order() == sum(all(x[p] == p for p in fixed) for x in elements)

    def test_basic_orbits_follow_the_prefix(self):
        group = PermutationGroup.alternating(6)
        chain = group.base_chain([2, 4])
        assert chain.basic_orbit(0) == group.point_orbit(2)
        assert chain.basic_orbit(1) == sorted({0, 1, 3, 4, 5})
        # past the last level the group is trivial: the orbit is the point
        trivial = PermutationGroup.trivial(5).base_chain([3, 1])
        assert trivial.basic_orbit(0) == [3] and trivial.basic_orbit(1) == [1]

    def test_first_chain_certifies_the_order(self, monkeypatch):
        # a prefix chain gives the order, so order() builds no second chain
        group = PermutationGroup.symmetric(6)
        group.base_chain([3])
        built = []
        init = StabilizerChain.__init__
        monkeypatch.setattr(StabilizerChain, "__init__", lambda chain, *a, **k: built.append(1) or init(chain, *a, **k))
        assert group.order() == 720 and built == []
        # and bounds the next one, which then runs no verification pass
        verify = StabilizerChain._verify
        monkeypatch.setattr(StabilizerChain, "_verify", lambda chain: built.append(2) or verify(chain))
        group.base_chain([1, 0])
        assert built == [1]

    def test_representative_sends_first_base_point(self):
        group = PermutationGroup.alternating(6)
        chain = group.base_chain([2])
        for q in group.point_orbit(2):
            assert chain.representative(q).images[2] == q
            assert group.contains(chain.representative(q))


def _pair_partitions_of_4() -> GroupAction:
    """S4 on its 3 partitions into two pairs: the kernel is V4, so the
    image has order 6 while the acting group's order is 24."""
    parts = [
        frozenset([frozenset(a), frozenset(b)])
        for a, b in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    ]
    return induced_action(
        PermutationGroup.symmetric(4),
        parts,
        lambda g, part: frozenset(frozenset(g.images[x] for x in pair) for pair in part),
    )


def _on_points(group: PermutationGroup) -> GroupAction:
    return induced_action(group, range(group.degree), lambda g, x: g.images[x])


def _on_pairs(group: PermutationGroup) -> GroupAction:
    return induced_action(group, combinations(range(group.degree), 2), pair_rule)


def _assert_same_chain(chain, reference):
    assert [lv.base for lv in chain.levels] == [lv.base for lv in reference.levels]
    assert [lv.inverses for lv in chain.levels] == [lv.inverses for lv in reference.levels]
    assert [lv.gens for lv in chain.levels] == [lv.gens for lv in reference.levels]
    assert chain.order() == reference.order()
    for k in range(len(reference.levels) + 1):
        assert chain.stabilizer(k).order() == reference.stabilizer(k).order()


class TestOrderBound:
    """A chain given a certified upper bound on the group order stops once
    its order reaches the bound.  It must come out level for level as the
    chain that the verification pass certifies, and the bound must never
    come from input."""

    @staticmethod
    def _check_against_unbounded(action, prefix):
        image = action.image_group()
        reference = StabilizerChain(image.degree, image.generators, base_prefix=prefix)
        _assert_same_chain(image.base_chain(prefix), reference)
        exact = PermutationGroup._certified(image.generators, image.degree, reference.order())
        _assert_same_chain(exact.base_chain(prefix), reference)
        assert image.order() == reference.order() <= action.group.order()

    @settings(max_examples=80, deadline=None)
    @given(
        _generating_sets(max_degree=8),
        st.sampled_from(["points", "orbit", "pairs"]),
        st.data(),
    )
    def test_bounded_chain_equals_verified_chain(self, gens, domain, data):
        # the image on one orbit, or on the pairs of a degree-2 group, is
        # often unfaithful, so its bound is never reached
        group = PermutationGroup([Permutation(g) for g in gens])
        action = _on_points(group)
        if domain == "orbit":
            point = data.draw(st.integers(0, group.degree - 1))
            action = action.restricted(group.point_orbit(point))
        elif domain == "pairs" and group.degree >= 2:
            action = _on_pairs(group)
        size = len(action.domain)
        prefix = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
        self._check_against_unbounded(action, prefix)

    @pytest.mark.parametrize("prefix", [[], [0], [2, 1], [0, 1, 2]])
    def test_unfaithful_image_matches_verified_chain(self, prefix):
        action = _pair_partitions_of_4()
        assert action.image_group().order() == 6
        self._check_against_unbounded(action, prefix)

    @pytest.mark.parametrize("make, order, outcomes", [
        (lambda: _on_pairs(PermutationGroup.symmetric(5)), 120, []),
        (_pair_partitions_of_4, 6, [True]),
        (lambda: _on_points(PermutationGroup(symplectic_generators(3))), 1451520, [False] * 3),
    ], ids=["s5-on-pairs-faithful", "s4-on-partitions-unfaithful", "sp6-2-bound-met-in-verify"])
    def test_reached_bound_skips_verification(self, monkeypatch, make, order, outcomes):
        # an unfaithful image never reaches its bound and runs the one
        # passing verification it ran before the bound existed.  The
        # Sp6(2) sampler stays in a subgroup, so _verify finds witnesses
        # until the bound is met, and the final pass that would confirm the
        # chain (the fourth, before the bound existed) is skipped
        image = make().image_group()  # the acting group's own chain is built here
        passed = []
        verify = StabilizerChain._verify
        monkeypatch.setattr(StabilizerChain, "_verify", lambda chain: passed.append(verify(chain)) or passed[-1])
        assert image.order() == order
        assert passed == outcomes

    @pytest.mark.parametrize("n, false_order", [(5, 40), (6, 360)])
    def test_expected_order_is_never_a_bound(self, tmp_path, n, false_order):
        gens = PermutationGroup.symmetric(n).generators
        # a chain trusts its bound: given this false one, it stops short
        assert StabilizerChain(n, gens, order_bound=false_order).order() == false_order
        with pytest.raises(ValueError):
            PermutationGroup(gens, expected_order=false_order)
        path = tmp_path / "g.json"
        payload = {
            "degree": n,
            "generators": [list(g.images) for g in gens],
            "expected_order": false_order,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_group(path)
