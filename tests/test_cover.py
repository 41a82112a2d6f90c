"""Coset enumeration, fundamental groups, triangulability, homology and
finite covers."""

import dataclasses
import json
import string
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomforge import build
from geomforge.cover import (
    Presentation,
    PresentationError,
    TriangleComplex,
    TriangulabilityVerdict,
    _column,
    _pi1_with_labels,
    _validate_table,
    build_cover,
    homology_rank,
    is_triangulable,
    pi1_presentation,
    todd_coxeter,
)
from geomforge.geom import collinearity_graph, derived_graph
from geomforge.perm import CapacityError
from geomforge.graphs import Graph
from oracles import (
    homology_rank_by_boundary,
    naive_group_elements,
    naive_rank,
    todd_coxeter_flat,
)


def cycle_graph(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(range(n), list(combinations(range(n), 2)))


def pseudo_projective_plane_3():
    """A disc whose boundary 9-gon wraps three times around the triangle
    0, 1, 2, through a ring v0..v8 and a centre: pi1 is cyclic of order 3,
    so H1 is 0 over GF(2) and of rank 1 over GF(3)."""
    ring = [("v", i) for i in range(9)]
    triangles = []
    for i, v in enumerate(ring):
        w, b = ring[(i + 1) % 9], (i + 1) % 3
        triangles += [(v, i % 3, b), (v, w, b), ("c", v, w)]
    edges = {frozenset(e) for t in triangles for e in combinations(t, 2)}
    graph = Graph([0, 1, 2, "c"] + ring, [tuple(e) for e in edges])
    return TriangleComplex(graph, tuple(triangles))


def flag_complex(g):
    """The 2-skeleton of the flag complex of a geometry of rank 3: its
    elements, its incident pairs and its chambers."""
    graph = Graph(g.elements, g.incidence_pairs())
    return TriangleComplex(graph, tuple(g.maximal_flags()))


A5_RELATORS = ["aa", "bbb", "ababababab"]
S4_RELATORS = ["aa", "bbb", "abababab"]
# S8 as the Coxeter group A7 on a..g: perfbench/inputs.py's coxeter_s8, unscrambled
COXETER_S8_RELATORS = [
    "aa", "bb", "cc", "dd", "ee", "ff", "gg",
    "ababab", "bcbcbc", "cdcdcd", "dedede", "efefef", "fgfgfg",
    "acac", "adad", "aeae", "afaf", "agag", "bdbd", "bebe", "bfbf", "bgbg",
    "cece", "cfcf", "cgcg", "dfdf", "dgdg", "egeg",
]

# name -> (generators, relators, subgroup)
SMALL_PRESENTATIONS = {
    "a5": (["a", "b"], A5_RELATORS, []),
    "s4": (["a", "b"], S4_RELATORS, []),
    "d8": (["a", "b"], ["aa", "bb", "abababab"], []),
    "q8": (["a", "b"], ["aaaa", "bbAA", "Baba"], []),
    "s4-over-a": (["a", "b"], S4_RELATORS, ["a"]),
}


def rewritten(word, shift, invert):
    """A rotation of ``word``, inverted when ``invert`` is set."""
    word = word[shift:] + word[:shift]
    return word[::-1].swapcase() if invert else word


class TestToddCoxeter:
    def test_a5_has_index_60(self):
        pres = Presentation.from_strings(["a", "b"], A5_RELATORS)
        outcome = todd_coxeter(pres)
        assert outcome.completed and outcome.index == 60

    def test_s3_over_a_has_index_3(self):
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"], ["a"])
        outcome = todd_coxeter(pres)
        assert outcome.completed and outcome.index == 3

    def test_free_group_overflows(self):
        pres = Presentation.from_strings(["a"], [])
        outcome = todd_coxeter(pres, limit=100)
        assert outcome.status == "overflow" and outcome.limit == 100

    def test_index_invariant_under_relator_shuffles(self):
        rng = Random(424242)
        relators = list(A5_RELATORS)
        for _ in range(20):
            rng.shuffle(relators)
            pres = Presentation.from_strings(["a", "b"], relators)
            assert todd_coxeter(pres).index == 60

    def test_index_invariant_under_generator_renaming(self):
        pres = Presentation.from_strings(["x", "y"], ["xx", "yyy", "xyxyxyxyxy"])
        assert todd_coxeter(pres).index == 60

    def test_completed_table_traces_relators(self):
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "abababab"])
        outcome = todd_coxeter(pres)
        assert outcome.index == 8  # dihedral of order 8
        table = outcome.table
        for c in range(outcome.index):
            for word in pres.relators:
                cur = c
                for letter in word:
                    cur = table[cur][_column(letter)]
                assert cur == c

    def test_quaternion_group(self):
        # <a, b | a^4 = 1, b^2 = a^2, b^-1 a b = a^-1>
        pres = Presentation.from_strings(["a", "b"], ["aaaa", "bbAA", "Baba"])
        assert todd_coxeter(pres).index == 8

    def test_subgroup_words_fix_origin(self):
        # S3 = <a, b | a^2, b^2, (ab)^3> over the rotation subgroup <ab>
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"], ["ab"])
        outcome = todd_coxeter(pres)
        assert outcome.index == 2

    def test_triangle_group_233_is_a4(self):
        pres = Presentation.from_strings(["a", "b"], ["aa", "bbb", "ababab"])
        assert todd_coxeter(pres).index == 12

    def test_limit_validation(self):
        pres = Presentation.from_strings(["a"], ["aa"])
        with pytest.raises(ValueError):
            todd_coxeter(pres, limit=0)

    @pytest.mark.parametrize("generators, relators, subgroup, rows, index", [
        (["a", "b"], A5_RELATORS, [], 82, 60),
        (["a", "b"], S4_RELATORS, [], 31, 24),
        (["a", "b", "c"], ["aa", "bb", "cc", "ababab", "bcbcbc", "acac"], ["a"], 18, 12),
        (["a"], ["aa"], [], 2, 2),
        (list("abcdefg"), COXETER_S8_RELATORS, ["a"], 52083, 20160),
    ], ids=["a5", "triangle-234", "coxeter-a3-over-a", "order-2", "coxeter-s8-over-a"])
    def test_limit_boundary_pins_cosets_defined(self, generators, relators, subgroup, rows, index):
        # the strategy defines exactly ``rows`` cosets, counting coset 0
        pres = Presentation.from_strings(generators, relators, subgroup)
        assert todd_coxeter(pres, limit=rows - 1).status == "overflow"
        outcome = todd_coxeter(pres, limit=rows)
        assert outcome.completed and outcome.index == index

    def test_no_generators_has_index_one(self):
        outcome = todd_coxeter(Presentation(()))
        assert outcome.completed and outcome.index == 1 and outcome.table == [[]]

    def test_subgroup_scan_collapses_origin(self):
        # <a | a^6> over <a^2, a^3> = the whole group
        pres = Presentation.from_strings(["a"], ["aaaaaa"], ["aa", "aaa"])
        outcome = todd_coxeter(pres)
        assert outcome.index == 1 and outcome.table == [[0, 0]]

    def test_coset_permutations(self):
        # the generator columns of the table are the even ones
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"])
        outcome = todd_coxeter(pres)
        perms = list(zip(*outcome.table))[::2]
        assert len(perms) == 2
        for p in perms:
            assert sorted(p) == list(range(outcome.index))

    def test_validation_refuses_one_wrong_entry(self):
        # S3 = <a, b | a^2, b^2, (ab)^3> on 6 cosets: relators read the
        # generator columns, and a changed entry in one breaks a relator
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"])
        outcome = todd_coxeter(pres)
        _validate_table(outcome, pres)
        for c in range(outcome.index):
            for col in (_column(1), _column(2)):
                table = [list(row) for row in outcome.table]
                table[c][col] = (table[c][col] + 1) % outcome.index
                with pytest.raises(AssertionError, match="relator"):
                    _validate_table(dataclasses.replace(outcome, table=table), pres)

    def test_validation_refuses_wrong_inverse_entry(self):
        # no relator reads an inverse column, so only the inverse check
        # sees row 0's a^-1 entry turned from 1 to 2
        pres = Presentation.from_strings(["a", "b"], ["aa", "bb", "ababab"])
        outcome = todd_coxeter(pres)
        table = [list(row) for row in outcome.table]
        assert table[0][_column(-1)] == 1
        table[0][_column(-1)] = 2
        with pytest.raises(AssertionError, match="inverse column"):
            _validate_table(dataclasses.replace(outcome, table=table), pres)

    def test_validation_refuses_subgroup_word_moving_origin(self):
        # the table of S3 over <ab> has index 2, and a is outside <ab>
        relators = ["aa", "bb", "ababab"]
        outcome = todd_coxeter(Presentation.from_strings(["a", "b"], relators, ["ab"]))
        _validate_table(outcome, Presentation.from_strings(["a", "b"], relators, ["ab", "ba"]))
        with pytest.raises(AssertionError, match="subgroup word moves coset 0"):
            _validate_table(outcome, Presentation.from_strings(["a", "b"], relators, ["a"]))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SMALL_PRESENTATIONS)), st.data())
    def test_relator_rewriting_keeps_table(self, name, data):
        generators, relators, subgroup = SMALL_PRESENTATIONS[name]
        expected = todd_coxeter(Presentation.from_strings(generators, relators, subgroup))
        words = [
            rewritten(w, data.draw(st.integers(0, len(w) - 1)), data.draw(st.booleans()))
            for w in relators
        ]
        words = data.draw(st.permutations(words))
        pres = Presentation.from_strings(generators, words, subgroup)
        outcome = todd_coxeter(pres)
        assert outcome.table == expected.table
        if subgroup:
            return
        # over the trivial subgroup the cosets carry the regular action
        perms = list(zip(*outcome.table))[::2]
        inverses = [tuple(sorted(range(len(p)), key=p.__getitem__)) for p in perms]
        for word in pres.relators:
            for start in range(outcome.index):
                c = start
                for letter in word:
                    c = perms[letter - 1][c] if letter > 0 else inverses[-letter - 1][c]
                assert c == start
        assert len(naive_group_elements(perms)) == outcome.index


def _words(n, min_size, max_size):
    letters = st.sampled_from([x for g in range(1, n + 1) for x in (g, -g)])
    return st.lists(letters, min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def _random_presentations(draw):
    """1-3 generators, up to four short relators, up to two subgroup words."""
    n = draw(st.integers(1, 3))
    relators = draw(st.lists(_words(n, 1, 6), max_size=4))
    subgroup = draw(st.lists(_words(n, 0, 4), max_size=2))
    return n, relators, subgroup


@st.composite
def _fibonacci_presentations(draw):
    """F(2,n) = <x1..xn | xi x(i+1) = x(i+2)>, indices mod n, for n = 3..6
    (orders 8, 5, 11 and infinite): their enumerations merge many cosets."""
    n = draw(st.integers(3, 6))
    relators = [(i + 1, (i + 1) % n + 1, -((i + 2) % n + 1)) for i in range(n)]
    relators = draw(st.permutations(relators))
    subgroup = draw(st.lists(_words(n, 1, 3), max_size=1))
    return n, relators, subgroup


class TestDefinitionOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_random_presentations(), _fibonacci_presentations()))
    @example((2, [(1, 1), (2, 2, 2), (1, 2) * 5], []))
    @example((5, [(1, 2, -3), (2, 3, -4), (3, 4, -5), (4, 5, -1), (5, 1, -2)], []))
    def test_matches_flat_table_oracle(self, case):
        n, relators, subgroup = case
        generators = tuple(string.ascii_lowercase[:n])
        pres = Presentation(generators, tuple(relators), tuple(subgroup))
        limit = 2000
        status, table, defined = todd_coxeter_flat(generators, relators, subgroup, limit)
        outcome = todd_coxeter(pres, limit=limit)
        assert (outcome.status, outcome.table) == (status, table)
        if status == "overflow":
            assert defined == limit
            return
        # the library defines exactly as many cosets as the oracle
        outcome = todd_coxeter(pres, limit=defined)
        assert outcome.completed and outcome.table == table
        if defined > 1:
            assert todd_coxeter(pres, limit=defined - 1).status == "overflow"


@st.composite
def _triangle_complexes(draw):
    vertices = draw(st.lists(
        st.one_of(st.integers(-99, 99), st.text(max_size=4)), unique=True, max_size=8
    ))
    edges = [
        (a, b)
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if draw(st.booleans())
    ]
    graph = Graph(vertices, edges)
    triangles = [t for t in graph.triangles() if draw(st.booleans())]
    return TriangleComplex(graph, tuple(triangles))


class TestComplexFiles:
    @settings(max_examples=80, deadline=None)
    @given(_triangle_complexes())
    def test_json_round_trip(self, complex_):
        again = TriangleComplex.from_json(json.loads(json.dumps(complex_.to_json())))
        assert again.graph.vertices == complex_.graph.vertices
        assert again.graph.edges() == complex_.graph.edges()
        assert again.triangles == complex_.triangles


@st.composite
def _presentations(draw):
    generators = tuple(draw(st.lists(st.sampled_from(string.ascii_lowercase), unique=True, max_size=6)))
    letters = [sign * i for i in range(1, len(generators) + 1) for sign in (1, -1)]
    word = st.lists(st.sampled_from(letters), max_size=8).map(tuple) if letters else st.just(())
    words = st.lists(word, max_size=5).map(tuple)
    return Presentation(generators, draw(words), draw(words))


class TestPresentationFiles:
    @settings(max_examples=80, deadline=None)
    @given(_presentations())
    def test_json_round_trip(self, pres):
        payload = {
            "generators": list(pres.generators),
            "relators": [pres.word_to_string(w) for w in pres.relators],
            "subgroup": [pres.word_to_string(w) for w in pres.subgroup],
        }
        assert Presentation.from_json(json.loads(json.dumps(payload))) == pres


class TestPresentationParsing:
    def test_uppercase_is_inverse(self):
        pres = Presentation.from_strings(["a"], ["aA"])
        assert pres.relators == ((1, -1),)

    def test_unknown_letter_rejected(self):
        with pytest.raises(PresentationError):
            Presentation.from_strings(["a"], ["ab"])

    def test_json_roundtrip(self):
        payload = {"generators": ["a", "b"], "relators": ["aa"], "subgroup": ["b"]}
        pres = Presentation.from_json(payload)
        assert pres.word_to_string(pres.relators[0]) == "aa"
        assert pres.subgroup == ((2,),)

    @pytest.mark.parametrize("field, value", [
        ("generators", "ab"),
        ("relators", "aa"),
        ("subgroup", "a"),
    ])
    def test_bare_string_field_rejected(self, field, value):
        payload = {"generators": ["a", "b"], "relators": ["aa"], "subgroup": ["b"], field: value}
        with pytest.raises(PresentationError, match=field):
            Presentation.from_json(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 40))
    def test_parse_word_inverts_word_to_string(self, data, n):
        # up to 26 generators are single letters, as pi1 names them; more
        # are g0, g1, ..., joined by "*" with inverses written name^-1
        names = string.ascii_lowercase[:n] if n <= 26 else [f"g{i}" for i in range(n)]
        pres = Presentation(tuple(names))
        letters = [sign * i for i in range(1, n + 1) for sign in (1, -1)]
        word = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=12))) if n else ()
        assert pres.parse_word(pres.word_to_string(word)) == word

    def test_kelvin_sign_is_not_an_inverse(self):
        # KELVIN SIGN lowers to "k" but is not "k".upper()
        with pytest.raises(PresentationError, match="unknown generator"):
            Presentation.from_strings(["k"], ["\u212a"])

    @pytest.mark.parametrize("names", [["i", "\u0131"], ["\u00df"]], ids=["dotless-i", "sharp-s"])
    def test_names_without_one_letter_inverses_refused(self, names):
        # "i" and dotless "ı" both upper to "I"; "ß" uppers to "SS"
        with pytest.raises(PresentationError, match="upper"):
            Presentation.from_strings(names)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.characters(categories=["L"]), min_size=1, max_size=4, unique=True),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=8),
    )
    @example(["i", "\u0131"], [(0, -1), (1, -1)])
    @example(["\u00df"], [(0, -1)])
    @example(["k", "K"], [(0, 1), (1, -1)])
    def test_letter_names_round_trip(self, names, picks):
        # any letters, not only ASCII: parse_word inverts word_to_string, and
        # from_strings either refuses the names or reads the word back
        pres = Presentation(tuple(names))
        word = tuple(sign * (i % len(names) + 1) for i, sign in picks)
        text = pres.word_to_string(word)
        assert pres.parse_word(text) == word
        try:
            read = Presentation.from_strings(names, [text])
        except PresentationError:
            return
        assert read.relators == (word,)

    def test_parse_word_long_names(self):
        pres = Presentation(tuple(f"g{i}" for i in range(30)))
        assert pres.parse_word("g0*g27^-1*g3") == (1, -28, 4)
        assert pres.parse_word("") == ()
        for text in ("g30", "G0", "g0^-1^-1", "g0**g1", "g0g1"):
            with pytest.raises(PresentationError, match="unknown generator"):
                pres.parse_word(text)


class TestPi1:
    def test_five_cycle(self):
        pres = pi1_presentation(TriangleComplex(cycle_graph(5)))
        assert len(pres.generators) == 1 and not pres.relators

    def test_k4_full_triangles(self):
        k4 = complete_graph(4)
        complex_ = TriangleComplex(k4, tuple(k4.triangles()))
        pres = pi1_presentation(complex_)
        assert len(pres.generators) == 3
        assert len(pres.relators) == 4
        assert all(len(w) <= 3 for w in pres.relators)

    def test_tree_no_generators(self):
        tree = Graph(range(5), [(0, 1), (0, 2), (2, 3), (2, 4)])
        pres = pi1_presentation(TriangleComplex(tree))
        assert not pres.generators

    def test_disconnected_rejected(self):
        graph = Graph(range(4), [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            pi1_presentation(TriangleComplex(graph))

    def test_non_clique_triangle_rejected(self):
        with pytest.raises(ValueError):
            TriangleComplex(cycle_graph(5), ((0, 1, 2),))

    def test_empty_complex_rejected(self):
        # the empty complex has no basepoint: each entry point refuses it
        # with its own message instead of failing on vertices[0]
        empty = TriangleComplex(Graph([], []))
        for call, message in [
            (pi1_presentation, "fundamental group"),
            (lambda k: build_cover(k, []), "fundamental group"),
            (lambda k: homology_rank(k, 2), "homology rank"),
            (is_triangulable, "triangulability"),
        ]:
            with pytest.raises(ValueError, match=message):
                call(empty)


class TestTriangulability:
    def test_k4_yes(self):
        k4 = complete_graph(4)
        verdict = is_triangulable(TriangleComplex(k4, tuple(k4.triangles())))
        assert verdict == "yes"

    def test_five_cycle_no_with_certificate(self):
        verdict = is_triangulable(TriangleComplex(cycle_graph(5)))
        assert verdict == "no"
        assert "GF(2)" in verdict.reason

    def test_petersen_no(self, p0):
        complex_ = TriangleComplex(derived_graph(p0.geometry))
        assert homology_rank(complex_, 2) == 6
        verdict = is_triangulable(complex_)
        assert verdict == "no"

    def test_order_three_verdicts(self):
        complex_ = pseudo_projective_plane_3()
        assert is_triangulable(complex_) == TriangulabilityVerdict(
            "no", "fundamental group has finite order 3"
        )
        # an enumeration capped below the index needs the GF(3) certificate
        assert is_triangulable(complex_, limit=2) == TriangulabilityVerdict(
            "no", "H1 over GF(3) has rank 1"
        )

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_checked_before_a_homology_verdict(self, limit):
        # C4 has H1 of rank 1 over GF(2), a verdict that needs no enumeration
        with pytest.raises(ValueError, match="limit must be positive"):
            is_triangulable(TriangleComplex(cycle_graph(4)), limit=limit)

    def test_builds_one_presentation(self, monkeypatch):
        built = []

        def counting(complex_):
            built.append(complex_)
            return _pi1_with_labels(complex_)

        monkeypatch.setattr("geomforge.cover._pi1_with_labels", counting)
        # this verdict reads H1 over GF(2), enumerates and reads H1 over GF(3)
        assert is_triangulable(pseudo_projective_plane_3(), limit=2) == "no"
        assert len(built) == 1

    @pytest.mark.parametrize("prime", [2, 3])
    def test_cli_builds_one_presentation_and_eliminates_once(self, capsys, monkeypatch, tmp_path, prime):
        # limit 2 lies below pi1's order 3, so the verdict reads H1 over GF(2)
        # and GF(3); the report's homology rank reuses the verdict's
        from geomforge.cli import main
        from geomforge.gf2 import MatrixGFp

        calls = {"pi1": 0, "rank": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("geomforge.cover._pi1_with_labels", counting("pi1", _pi1_with_labels))
        monkeypatch.setattr(MatrixGFp, "rank", counting("rank", MatrixGFp.rank))
        complex_ = pseudo_projective_plane_3()
        index = {v: i for i, v in enumerate(complex_.graph.vertices)}
        path = tmp_path / "order3.json"
        path.write_text(json.dumps({
            "vertices": list(index.values()),
            "edges": [[index[a], index[b]] for a, b in complex_.graph.edges()],
            "triangles": [[index[v] for v in t] for t in complex_.triangles],
        }))
        argv = ["cover", "--input", str(path), "--triangulable", "--limit", "2",
                "--homology-prime", str(prime)]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {"triangulable": "no", "reason": "H1 over GF(3) has rank 1",
                           "homology_rank": prime - 2}
        assert calls == {"pi1": 1, "rank": 2}

    def test_yes_implies_zero_homology(self):
        k4 = complete_graph(4)
        complex_ = TriangleComplex(k4, tuple(k4.triangles()))
        assert is_triangulable(complex_) == "yes"
        assert homology_rank(complex_, 2) == 0
        assert homology_rank(complex_, 3) == 0


class TestHomology:
    def test_five_cycle_rank_1(self):
        complex_ = TriangleComplex(cycle_graph(5))
        assert homology_rank(complex_, 2) == 1
        assert homology_rank(complex_, 3) == 1

    def test_k4_full_rank_0(self):
        k4 = complete_graph(4)
        complex_ = TriangleComplex(k4, tuple(k4.triangles()))
        assert homology_rank(complex_, 2) == 0

    def test_gq_line_triangles_gf3(self, gq22):
        graph = collinearity_graph(gq22.geometry)
        g = gq22.geometry
        triangles = []
        for line in g.elements_of_type(2):
            pts = tuple(
                sorted((p for p in g.pencil(line) if g.type_of[p] == 1), key=repr)
            )
            triangles.append(pts)
        complex_ = TriangleComplex(graph, tuple(triangles))
        assert graph.num_edges == 45 and graph.n == 15
        assert len(complex_.triangles) == 15
        # every 3-clique of a generalized quadrangle lies inside a line
        assert sorted(complex_.triangles) == sorted(graph.triangles())
        rank = homology_rank(complex_, 3)
        # independent oracle: 31 - rank of the boundary matrix over GF(3)
        edges = graph.edges()
        edge_index = {frozenset(e): i for i, e in enumerate(edges)}
        dense = [[0] * len(complex_.triangles) for _ in range(len(edges))]
        for col, (a, b, c) in enumerate(complex_.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                row = edge_index[frozenset((u, v))]
                oriented = tuple(sorted((u, v), key=repr)) == (u, v)
                dense[row][col] = 1 if oriented else 2
        oracle = (45 - 15 + 1) - naive_rank(dense, 3)
        assert rank == oracle
        assert rank >= 16


@st.composite
def _connected_complexes(draw):
    """A random spanning tree on 1..10 vertices of mixed label types, random
    extra edges, and a random set of its 3-cliques as triangles."""
    vertices = draw(st.lists(
        st.one_of(st.integers(-99, 99), st.text(max_size=3)), unique=True, min_size=1, max_size=10
    ))
    tree = [(vertices[draw(st.integers(0, i - 1))], v) for i, v in enumerate(vertices) if i]
    extra = [e for e in combinations(vertices, 2) if draw(st.booleans())]
    graph = Graph(vertices, tree + extra)
    triangles = [t for t in graph.triangles() if draw(st.booleans())]
    return TriangleComplex(graph, tuple(triangles))


class TestHomologyOracle:
    @settings(max_examples=150, deadline=None)
    @given(_connected_complexes())
    @example(TriangleComplex(Graph([0], [])))
    @example(TriangleComplex(complete_graph(5), tuple(complete_graph(5).triangles())))
    @example(pseudo_projective_plane_3())
    def test_matches_boundary_matrix(self, complex_):
        for prime in (2, 3):
            assert homology_rank(complex_, prime) == homology_rank_by_boundary(complex_, prime)

    def test_order_three_complex(self):
        complex_ = pseudo_projective_plane_3()
        for prime, rank in ((2, 0), (3, 1)):
            assert homology_rank(complex_, prime) == rank
            assert homology_rank_by_boundary(complex_, prime) == rank

    @pytest.mark.parametrize("make, counts", [
        (lambda: build.symplectic_polar_space(3), (63, 315, 135)),
        (lambda: build.projective_geometry_2(4), (15, 35, 15)),
    ], ids=["W(5,2)", "PG(3,2)"])
    def test_building_flag_complexes_are_acyclic(self, make, counts):
        # buildings of rank 3 are simply connected (Tits, 1981)
        g = make().geometry
        assert tuple(len(g.elements_of_type(t)) for t in (1, 2, 3)) == counts
        complex_ = flag_complex(g)
        assert homology_rank(complex_, 2) == homology_rank(complex_, 3) == 0

    @pytest.mark.stretch
    def test_m22_flag_complex(self):
        from geomforge import m22

        complex_ = flag_complex(m22.build_m22_geometry(1).geometry)
        graph = complex_.graph
        assert (graph.n, graph.num_edges, len(complex_.triangles)) == (1716, 8085, 6930)
        # pi1 is cyclic of order 3: the triple cover by the 3.M22 geometry
        assert homology_rank(complex_, 2) == 0
        assert homology_rank(complex_, 3) == 1


class TestCovers:
    def test_four_cycle_double_cover(self):
        complex_ = TriangleComplex(cycle_graph(4))
        cover, projection = build_cover(complex_, ["aa"])
        assert cover.graph.n == 8
        assert {cover.graph.degree(v) for v in cover.graph.vertices} == {2}
        assert cover.graph.is_connected()

    def test_six_cycle_triple_cover(self):
        complex_ = TriangleComplex(cycle_graph(6))
        cover, _ = build_cover(complex_, ["aaa"])
        assert cover.graph.n == 18 and cover.graph.is_connected()

    def test_index_one_isomorphic_copy(self):
        k4 = complete_graph(4)
        complex_ = TriangleComplex(k4, tuple(k4.triangles()))
        cover, projection = build_cover(complex_, ["a", "b", "c"])
        assert cover.graph.n == 4 and cover.graph.num_edges == 6
        assert len(cover.triangles) == 4

    def test_neighborhood_bijection(self):
        complex_ = TriangleComplex(cycle_graph(4))
        cover, projection = build_cover(complex_, ["aa"])
        for v in cover.graph.vertices:
            down = sorted(projection[w] for w in cover.graph.neighbors(v))
            base = sorted(complex_.graph.neighbors(projection[v]))
            assert down == base

    def test_overflow_raises_capacity(self):
        complex_ = TriangleComplex(cycle_graph(4))
        with pytest.raises(CapacityError):
            build_cover(complex_, [], limit=50)
