"""Optional stretch tier: Golay code parameters, Mathieu group orders and
the rank-3 Petersen-type geometry of Aut(M22)."""

import pytest

from geomforge import build, geom, local, m22
from geomforge.geom import Geometry, derived_graph, diagram, is_flag_transitive, is_geometry
from geomforge.graphs import girth
from geomforge.natrep import um_dimension
from geomforge.perm import PermutationGroup, StabilizerChain
from oracles import cocode_action_by_vectors, coset_representatives_by_syndrome
pytestmark = pytest.mark.stretch


@pytest.fixture(scope="module")
def p1():
    return m22.build_m22_geometry(seed=11)


class TestGolay:
    def test_weight_distribution(self):
        code = m22.golay_code()
        assert len(code.octads) == 759
        weights = {}
        for w in code.words:
            k = bin(w).count("1")
            weights[k] = weights.get(k, 0) + 1
        assert weights == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

    def test_dimension(self):
        assert len(m22.golay_code().basis) == 12

    def test_coset_representatives_match_the_mask_loop(self):
        code = m22.golay_code()
        rep = code._coset_representatives()
        want = coset_representatives_by_syndrome(code)
        assert list(rep.items()) == list(want.items())
        assert all(code.syndrome(m) == s for s, m in rep.items())

    def test_contains_on_any_basis(self):
        # b[0] added to every other basis vector: the same code, but leading
        # bits repeat, which a sift by sorted basis vectors cannot handle
        code = m22.golay_code()
        b = code.basis
        same = m22.GolayCode([b[0]] + [v ^ b[0] for v in b[1:]])
        assert all(same.contains(w) for w in code.words)
        assert not any(same.contains(w ^ 1) for w in code.words)
        assert same.words == code.words

    def test_manifest_tampering_detected(self, tmp_path, monkeypatch):
        import shutil

        src = m22.data_dir()
        work = tmp_path / "data"
        shutil.copytree(src, work)
        target = work / "golay_generator.json"
        target.write_text(target.read_text().replace("1", "0", 1))
        monkeypatch.setenv("GEOMFORGE_DATA", str(work))
        with pytest.raises(build.ConstructionError):
            m22._load_verified("golay_generator.json")


class TestMathieu:
    def test_m24_order(self):
        assert m22.mathieu_group_24().order() == 244823040

    def test_m24_generators_preserve_code(self):
        code = m22.golay_code()
        group = m22.mathieu_group_24()
        for g in group.generators:
            for b in code.basis:
                assert code.contains(m22._apply_perm_to_mask(g, b))

    def test_m24_is_5_transitive_on_orbits(self):
        group = m22.mathieu_group_24()
        assert len(group.point_orbit(0)) == 24

    def test_m24_chain_reaches_the_bound_without_verification(self, monkeypatch):
        runs = []
        verify = StabilizerChain._verify
        monkeypatch.setattr(StabilizerChain, "_verify", lambda chain: runs.append(1) or verify(chain))
        assert m22.mathieu_group_24.__wrapped__().order() == m22.M24_ORDER
        assert runs == []

    def test_code_breaking_generator_is_refused_before_any_chain(self, monkeypatch):
        # a transposition moves some codeword out of the code, so it is not
        # in M24 and |M24| is no bound for the group it would generate
        load = m22._load_verified

        def tampered(name):
            payload = load(name)
            if name == "m24_generators.json":
                payload["generators"][-1] = [1, 0, *range(2, 24)]
            return payload

        built = []
        init = StabilizerChain.__init__
        monkeypatch.setattr(StabilizerChain, "__init__", lambda chain, *a, **k: built.append(1) or init(chain, *a, **k))
        monkeypatch.setattr(m22, "_load_verified", tampered)
        with pytest.raises(build.ConstructionError, match="does not preserve the code"):
            m22.mathieu_group_24.__wrapped__()
        assert built == []

    def test_aut_m22_order(self):
        assert m22.aut_m22(seed=11).order() == 887040

    def test_aut_m22_fixes_duad(self):
        group = m22.aut_m22(seed=11)
        for g in group.generators:
            assert {g.images[22], g.images[23]} == {22, 23}


class TestP1Geometry:
    def test_counts(self, p1):
        counts = [len(p1.geometry.elements_of_type(t)) for t in (1, 2, 3)]
        assert counts == [231, 1155, 330]

    def test_axioms_and_transitivity(self, p1):
        assert is_geometry(p1.geometry).ok
        assert is_flag_transitive(p1.geometry, p1.action)

    def test_diagram_is_petersen_type(self, p1):
        report = diagram(p1.geometry)
        assert report.edge(1, 2) == "projective-plane-2"
        assert report.edge(2, 3) == "petersen-edge"
        assert report.edge(1, 3) == "digon"
        assert report.orders == {1: 2, 2: 2, 3: 1}

    def test_um_dimension_is_11(self, p1):
        result = um_dimension(p1.geometry)
        assert result.total_dim == 11

    def test_derived_graph_girth_5(self, p1):
        graph = derived_graph(p1.geometry)
        assert graph.n == 330 and {graph.degree(v) for v in graph.vertices} == {7}
        assert girth(graph) == 5

    def test_hypothesis_61_passes(self, p1):
        graph = derived_graph(p1.geometry)
        action = p1.action.restricted(p1.geometry.elements_of_type(3))
        report = local.hypothesis_61_check(graph, action)
        assert report.verdict, report.first_failure
        assert report.local_order == 168  # L3(2) on the 7 neighbors
        assert report.kernel_order == 16


def test_build_takes_each_setwise_stabilizer_once(monkeypatch):
    # only the M24 duad stabilizer: the heptad normalizer condition that
    # subgroup_pattern_geometry checks is counted by orbit-stabilizer, with
    # no setwise stabilizer; lru_cache is bypassed
    calls = []
    setwise = PermutationGroup._setwise_stabilizer

    def counting(self, points):
        calls.append(len(points))
        return setwise(self, points)

    monkeypatch.setattr(PermutationGroup, "_setwise_stabilizer", counting)
    m22.build_m22_geometry.__wrapped__(6)
    assert calls == [2]


@pytest.mark.parametrize("seed", [6, 11])
def test_aut_m22_pair_chain_stops_at_certified_order(monkeypatch, seed):
    # <a, b> lies in the duad stabilizer, whose order is certified, so the
    # accepted pair's chain reaches that bound and runs no _verify pass
    runs = []
    verify = StabilizerChain._verify
    monkeypatch.setattr(StabilizerChain, "_verify", lambda chain: runs.append(chain) or verify(chain))
    group = m22.aut_m22(seed)
    assert group.name == "AutM22" and group.order() == m22.AUT_M22_ORDER
    assert not [chain for chain in runs if chain is group.chain()]


def test_cocode_action_matches_per_vector_evaluation():
    code, aut = m22.golay_code(), m22.aut_m22(seed=11)
    module_group, _ = m22._cocode_quotient_action(code, aut)
    assert [g.images for g in module_group.generators] == cocode_action_by_vectors(code, aut)


def test_build_certifies_with_one_chain_of_degree_2047(monkeypatch):
    # the heptad normalizer test's chain certifies the module group's
    # order, and flag-transitivity is read off one chain based at a
    # chamber, with no list of maximal flags and no orbit closure of them
    degrees, spied = [], []
    init = StabilizerChain.__init__
    monkeypatch.setattr(
        StabilizerChain, "__init__", lambda chain, degree, *a, **k: degrees.append(degree) or init(chain, degree, *a, **k)
    )
    monkeypatch.setattr(Geometry, "maximal_flags", lambda g: spied.append("maximal_flags"))
    monkeypatch.setattr(geom, "_closure", lambda *a: spied.append("_closure"))
    meta = m22.build_m22_geometry.__wrapped__(6)
    assert degrees.count(2047) == 1 and degrees.count(len(meta.geometry.elements)) == 1
    assert spied == []
