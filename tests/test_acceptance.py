"""Acceptance criteria, one test per criterion, each printing a PASS line
and enforcing its stated time bound.  Criterion 10 is the optional stretch
tier and may be deselected with ``-m "not stretch"`` without failing the
build."""

import json
import time
from contextlib import contextmanager
from itertools import combinations
from random import Random

import numpy as np
import pytest

from geomforge import build, cover, local, natrep
from geomforge.cover import Presentation, TriangleComplex, todd_coxeter
from geomforge.geom import (
    collinearity_graph,
    derived_graph,
    diagram,
    is_flag_transitive,
    is_geometry,
    is_s_covering,
    isomorphic,
    quotient_by_action,
    residue,
)
from geomforge.gf2 import MatrixGFp
from geomforge.graphs import Graph
from geomforge.perm import PermutationGroup, induced_action
from oracles import naive_rank


@contextmanager
def deadline(criterion: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{criterion} took {elapsed:.2f}s (budget {seconds}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_01_golden_module_dimensions(p0, t0):
    with deadline("1 (golden module dimensions)", 2.0):
        start = time.monotonic()
        assert natrep.um_dimension(p0.geometry).total_dim == 6
        assert time.monotonic() - start < 1.0
        start = time.monotonic()
        result = natrep.o3_split_dims(t0.geometry, t0)
        assert result.total_dim == 11
        assert result.split == (6, 5)
        assert time.monotonic() - start < 1.0


def test_criterion_02_t0_end_to_end():
    with deadline("2 (T0 end-to-end)", 60.0):
        metas = [build.tilde_geometry(seed=101), build.tilde_geometry(seed=202)]
        gq = build.symplectic_polar_space(2)
        for meta in metas:
            g = meta.geometry
            assert is_geometry(g).ok
            assert len(g.elements_of_type(1)) == 45
            assert len(g.elements_of_type(2)) == 45
            assert is_flag_transitive(g, meta.action)
            assert diagram(g).edge(1, 2) == "tilde-edge"
            o3 = PermutationGroup([meta.o3_generator])
            o3_action = induced_action(o3, g.elements, build._apply_points)
            quotient, morphism = quotient_by_action(g, o3_action)
            assert isomorphic(quotient, gq.geometry) is not None
            assert is_s_covering(morphism, 1)
        assert isomorphic(metas[0].geometry, metas[1].geometry) is not None


def test_criterion_03_classical_geometries(fano):
    with deadline("3 (classical geometries)", 10.0):
        sp2 = build.symplectic_polar_space(2)
        sp3 = build.symplectic_polar_space(3)
        assert [len(sp2.geometry.elements_of_type(t)) for t in (1, 2)] == [15, 15]
        assert [len(sp3.geometry.elements_of_type(t)) for t in (1, 2, 3)] == [
            63,
            315,
            135,
        ]
        assert sp2.group.order() == 720
        assert sp3.group.order() == 1451520
        report = diagram(sp3.geometry)
        assert report.edge(1, 2) == "projective-plane-2"
        assert report.edge(2, 3) == "gq-2-2"
        assert report.edge(1, 3) == "digon"
        plane = sp3.geometry.elements_of_type(3)[0]
        assert isomorphic(residue(sp3.geometry, [plane]), fano.geometry) is not None
        line = sp2.geometry.elements_of_type(2)[0]
        pg2 = build.projective_geometry_2(2)
        assert isomorphic(residue(sp2.geometry, [line]), pg2.geometry) is not None

        gq_matrix = natrep.relation_matrix(sp2.geometry)
        assert natrep.um_dimension(sp2.geometry).total_dim == 5
        assert gq_matrix.rank() == naive_rank(gq_matrix.to_rows(), 2)
        fano_matrix = natrep.relation_matrix(fano.geometry)
        assert natrep.um_dimension(fano.geometry).total_dim == 3
        assert fano_matrix.rank() == naive_rank(fano_matrix.to_rows(), 2)


def test_criterion_04_local_analysis(p0, t0):
    with deadline("4 (local analysis)", 10.0):
        vertex = p0.geometry.elements_of_type(2)[0]
        assert local.kernel_series(p0, vertex, 2).orders == [12, 2, 1]
        assert local.condition_star(p0) is True
        assert local.condition_star(t0) is True


def test_criterion_05_girth5_hypothesis(p0):
    with deadline("5 (girth-5 hypothesis)", 5.0):
        graph = derived_graph(p0.geometry)
        s5 = PermutationGroup.symmetric(5)
        action = induced_action(
            s5, graph.vertices, lambda g, v: tuple(sorted(g.images[x] for x in v))
        )
        report = local.hypothesis_61_check(graph, action)
        assert report.girth == 5
        assert report.vertex_transitive and report.edge_transitive
        assert report.doubly_transitive
        assert report.kernel_order > 1
        assert report.has_regular_normal_subgroup
        assert not report.verdict
        assert report.first_failure == "absence of regular normal subgroups"


def test_criterion_06_coset_enumeration():
    with deadline("6 (coset enumeration)", 5.0):
        a5 = Presentation.from_strings(["a", "b"], ["aa", "bbb", "ababababab"])
        assert todd_coxeter(a5).index == 60
        dihedral = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"], ["a"])
        assert todd_coxeter(dihedral).index == 3
        free = Presentation.from_strings(["a"], [])
        outcome = todd_coxeter(free, limit=100)
        assert outcome.status == "overflow" and outcome.limit == 100
        rng = Random(20260809)
        relators = ["aa", "bbb", "ababababab"]
        for _ in range(20):
            rng.shuffle(relators)
            assert todd_coxeter(Presentation.from_strings(["a", "b"], relators)).index == 60


def test_criterion_07_triangulability(p0, gq22):
    with deadline("7 (triangulability)", 5.0):
        k4 = Graph(range(4), list(combinations(range(4), 2)))
        k4_complex = TriangleComplex(k4, tuple(k4.triangles()))
        assert cover.is_triangulable(k4_complex) == "yes"

        c5 = TriangleComplex(Graph(range(5), [(i, (i + 1) % 5) for i in range(5)]))
        verdict = cover.is_triangulable(c5)
        assert verdict == "no" and "rank 1" in verdict.reason

        pet = TriangleComplex(derived_graph(p0.geometry))
        verdict = cover.is_triangulable(pet)
        assert verdict == "no" and "rank 6" in verdict.reason

        g = gq22.geometry
        graph = collinearity_graph(g)
        triangles = tuple(
            tuple(sorted((p for p in g.pencil(line) if g.type_of[p] == 1), key=repr))
            for line in g.elements_of_type(2)
        )
        complex_ = TriangleComplex(graph, triangles)
        rank3 = cover.homology_rank(complex_, 3)
        edges = graph.edges()
        edge_index = {frozenset(e): i for i, e in enumerate(edges)}
        dense = [[0] * 15 for _ in range(45)]
        for col, (a, b, c) in enumerate(complex_.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                dense[edge_index[frozenset((u, v))]][col] = (
                    1 if tuple(sorted((u, v), key=repr)) == (u, v) else 2
                )
        assert rank3 == (45 - 15 + 1) - naive_rank(dense, 3)
        assert rank3 >= 16


def test_criterion_08_gf2_kernel():
    rng = np.random.default_rng(8881)
    for trial in range(200):
        p = 2 if trial % 2 == 0 else 3
        rows, cols = (int(x) for x in rng.integers(1, 101, size=2))
        dense = rng.integers(0, p, size=(rows, cols)).tolist()
        assert MatrixGFp.from_rows(p, dense).rank() == naive_rank(dense, p)
    dense = rng.integers(0, 2, size=(2000, 2000), dtype=np.uint8)
    matrix = MatrixGFp.from_rows(2, dense.tolist())
    start = time.monotonic()
    rank = matrix.rank()
    elapsed = time.monotonic() - start
    assert rank >= 1990
    assert elapsed < 1.0, f"2000x2000 rank took {elapsed:.2f}s"
    print(f"ACCEPTANCE 8 (GF(2) kernel): PASS (2000x2000 in {elapsed:.3f}s)")


def test_criterion_09_determinism(capsys, tmp_path):
    from geomforge.cli import main

    def run(argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        report = json.loads(out)
        report.pop("elapsed_ms")
        return code, json.dumps(report, sort_keys=True)

    commands = [
        ("natrep", "dim", "--builtin", "petersen"),
        ("build", "--builtin", "tilde", "--seed", "42"),
        ("diagram", "--builtin", "gq22"),
        ("bench", "--sizes", "128", "--seed", "7"),
        ("hyp61", "--builtin", "petersen"),
        ("local", "kernels", "--builtin", "petersen", "--vertex", "0"),
    ]
    for argv in commands:
        code1, rep1 = run(argv)
        code2, rep2 = run(argv)
        assert code1 == code2 == 0
        assert rep1 == rep2, f"non-deterministic output for {argv}"
    for threads in ("1", "3"):
        code, rep = run(("--threads", threads, "natrep", "dim", "--builtin", "gq22"))
        assert code == 0
        if threads == "1":
            baseline = rep
        else:
            assert rep == baseline

    # byte identity across separate processes (hash randomization differs)
    import subprocess
    import sys

    def run_subprocess(argv):
        result = subprocess.run(
            [sys.executable, "-m", "geomforge.cli", *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(result.stdout)
        report.pop("elapsed_ms")
        return json.dumps(report, sort_keys=True)

    for argv in (
        ("build", "--builtin", "tilde", "--seed", "42"),
        ("natrep", "dim", "--builtin", "petersen"),
        ("bench", "--sizes", "64", "--seed", "7"),
    ):
        assert run_subprocess(argv) == run_subprocess(argv), argv
    print("ACCEPTANCE 9 (determinism): PASS")


@pytest.mark.stretch
def test_criterion_10_stretch_tier():
    from geomforge import m22

    code = m22.golay_code()
    assert len(code.octads) == 759
    assert m22.mathieu_group_24().order() == 244823040
    meta = m22.build_m22_geometry(seed=11)
    assert natrep.um_dimension(meta.geometry).total_dim == 11
    graph = derived_graph(meta.geometry)
    action = meta.action.restricted(meta.geometry.elements_of_type(3))
    report = local.hypothesis_61_check(graph, action)
    assert report.verdict, report.first_failure
    print("ACCEPTANCE 10 (stretch tier): PASS")
