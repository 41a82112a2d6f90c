"""CLI fuzz over argv, geometry files, complex files, presentation files and
subgroup words: every run exits 0, 2, 3 or 4, prints exactly one JSON report
on stdout and raises nothing out of ``main``."""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geomforge.cli import main

STATUS = {0: "ok", 2: "check-failed", 3: "capacity", 4: "bad-input"}

GEOMETRY_COMMANDS = [("verify",), ("diagram",), ("natrep", "dim")]

COMPLEX_COMMANDS = [
    ("pi1",),
    ("cover", "--limit", "1000"),
    ("cover", "--triangulable", "--homology-prime", "3", "--limit", "1000"),
]

SQUARE = {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "triangles": []}
K9 = {
    "vertices": list(range(9)),
    "edges": [list(e) for e in combinations(range(9), 2)],
    "triangles": [list(t) for t in combinations(range(9), 3)],
}

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3)
)
_junk = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _damaged(draw, payload: dict):
    """The payload as it is, without one key, with one field replaced by
    junk, or replaced whole by junk."""
    mode = draw(st.sampled_from(["as-is", "drop", "junk-field", "junk"]))
    key = draw(st.sampled_from(sorted(payload)))
    if mode == "drop":
        del payload[key]
    elif mode == "junk-field":
        payload[key] = draw(_junk)
    elif mode == "junk":
        return draw(_junk)
    return payload


@st.composite
def complex_files(draw):
    """File text: near-valid complexes over a few vertices with junk mixed
    in, damaged payloads, or arbitrary text."""
    vertex = st.one_of(st.integers(0, 6), st.sampled_from("abc"), _junk)
    vertices = draw(st.lists(vertex, max_size=7))
    endpoint = st.sampled_from(vertices + [draw(vertex)])
    edges = draw(st.lists(
        st.one_of(st.lists(endpoint, min_size=2, max_size=2), st.lists(endpoint, max_size=3), _junk),
        max_size=12,
    ))
    triangles = draw(st.lists(
        st.one_of(st.lists(endpoint, min_size=3, max_size=3), _junk), max_size=6
    ))
    if draw(st.booleans()):
        return draw(st.text(max_size=20))
    return json.dumps(_damaged(draw, {"vertices": vertices, "edges": edges, "triangles": triangles}))


@st.composite
def geometry_files(draw):
    """File text: near-valid geometries over a few elements with junk mixed
    in, damaged payloads, or arbitrary text."""
    ids = draw(st.lists(st.one_of(st.sampled_from("abcdef"), _junk), max_size=6))
    rank = draw(st.one_of(st.integers(0, 3), _junk))
    element = st.one_of(
        st.fixed_dictionaries({"id": st.sampled_from(ids + ["z"]), "type": st.integers(0, 4)}),
        st.fixed_dictionaries({"id": st.sampled_from(ids + ["z"]), "type": _junk}),
        _junk,
    )
    endpoint = st.sampled_from(ids + [draw(_junk)])
    incidences = st.lists(
        st.one_of(st.lists(endpoint, min_size=2, max_size=2), st.lists(endpoint, max_size=3), _junk),
        max_size=8,
    )
    if draw(st.booleans()):
        return draw(st.text(max_size=20))
    return json.dumps(_damaged(draw, {
        "rank": rank,
        "elements": draw(st.lists(element, max_size=7)),
        "incidences": draw(incidences),
    }))


@st.composite
def presentation_files(draw):
    """File text: presentations over a few names with junk mixed in, damaged
    payloads, or arbitrary text."""
    name = st.one_of(st.sampled_from(["a", "b", "c", "A", "ab", ""]), _junk)
    word = st.one_of(st.text(alphabet="abcABC*^-1 ", max_size=8), _junk)
    if draw(st.booleans()):
        return draw(st.text(max_size=20))
    return json.dumps(_damaged(draw, {
        "generators": draw(st.lists(name, max_size=4)),
        "relators": draw(st.lists(word, max_size=4)),
        "subgroup": draw(st.lists(word, max_size=2)),
    }))


def check_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in STATUS, (argv, code, err.getvalue())
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, (argv, out.getvalue())
    assert json.loads(lines[0])["status"] == STATUS[code]
    assert "Traceback" not in err.getvalue()


def write(directory: str, text: str) -> str:
    path = Path(directory) / "input.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@FUZZ
@given(geometry_files())
@example(json.dumps({"rank": 2, "elements": [], "incidences": []}))
@example(json.dumps({"rank": 2, "elements": [{"id": "a", "type": 1}, {"id": "b", "type": 2}],
                     "incidences": [["a", "b"]]}))
@example(json.dumps({"rank": 1, "elements": [{"id": "a", "type": 1}], "incidences": [["a", "a"]]}))
def test_geometry_files(text):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, text)
        for command in GEOMETRY_COMMANDS:
            check_run(*command, "--input", path)


@FUZZ
@given(complex_files())
# the empty complex: pi1 and cover once failed on its missing basepoint
@example(json.dumps({"vertices": [], "edges": [], "triangles": []}))
@example(json.dumps({"vertices": [0], "edges": [[0, 0]]}))
@example(json.dumps(SQUARE))
def test_complex_files(text):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, text)
        for command in COMPLEX_COMMANDS:
            check_run(*command, "--input", path)


@FUZZ
@given(presentation_files())
@example(json.dumps({"generators": ["a"], "relators": ["a^-1"]}))
@example(json.dumps({"generators": [], "relators": []}))
def test_presentation_files(text):
    with tempfile.TemporaryDirectory() as directory:
        check_run("tc", "--input", write(directory, text), "--limit", "1000")


@FUZZ
@given(st.sampled_from([SQUARE, K9]), st.one_of(
    st.text(max_size=12),
    st.lists(
        st.sampled_from(["g0", "g1^-1", "g27", "a", "A", "aa", "*", "^-1", ""]), max_size=4
    ).map("*".join),
))
@example(K9, "g0")
@example(K9, "")
@example(SQUARE, "aA")
def test_subgroup_words(complex_, word):
    # "--subgroup=WORD" passes a word that starts with "-" as a value
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, json.dumps(complex_))
        check_run("cover", "--input", path, "--limit", "1000", f"--subgroup={word}")


# each subcommand with the options it takes, the values drawn for each
# option, and stray words; sizes are small enough that any builtin a drawn
# argv names builds in under a second
_BUILTIN = ["--builtin", "--n", "--seed"]
SUBCOMMANDS = {
    "build": _BUILTIN,
    "tilde build": ["--seed"],
    "verify": ["--input", *_BUILTIN],
    "diagram": ["--input", *_BUILTIN],
    "natrep dim": ["--input", *_BUILTIN, "--split"],
    "tc": ["--input", "--limit"],
    "pi1": ["--input"],
    "cover": ["--input", "--subgroup", "--limit", "--triangulable", "--homology-prime"],
    "local star": [*_BUILTIN, "--vertex"],
    "local kernels": [*_BUILTIN, "--vertex", "--smax"],
    "hyp61": _BUILTIN,
    "bench": ["--sizes", "--seed"],
    "tilde": [],
    "natrep": [],
    "frobnicate": [],
    "": [],
}
VALUES = {
    "--builtin": ["petersen", "pg", "sp", "gq22", "tilde", "m22", "x"],
    "--n": ["-1", "0", "1", "2", "3", "x"],
    "--seed": ["1", "2", "x"],
    "--input": ["COMPLEX", "PRESENTATION", "GEOMETRY", "missing.json"],
    "--limit": ["0", "1", "100"],
    "--subgroup": ["a", "aA", "-a", ""],
    "--homology-prime": ["2", "3", "5"],
    "--vertex": ["-1", "0", "1", "99"],
    "--smax": ["-1", "0", "2"],
    "--sizes": ["2,3", "0", "x", ""],
    "--threads": ["0", "1", "x"],
    "--triangulable": [None],
    "--split": [None],
}
STRAYS = ["-a", "--", "x", "--threads", "--seed", "--split"]
FILES = {
    "COMPLEX": SQUARE,
    "PRESENTATION": {"generators": ["a", "b"], "relators": ["aa", "bbb", "ababab"]},
    # the digon: two points, two lines, every point on every line
    "GEOMETRY": {
        "rank": 2,
        "elements": [{"id": i, "type": t} for i, t in (("p", 1), ("q", 1), ("l", 2), ("m", 2))],
        "incidences": [["p", "l"], ["p", "m"], ["q", "l"], ["q", "m"]],
    },
}


def _option(flag):
    """The flag with one of its values; a switch (value None) alone."""
    return st.sampled_from(VALUES[flag]).map(lambda v: [flag] if v is None else [flag, v])


@st.composite
def argvs(draw):
    """Perhaps --threads, the subcommand, then mostly its own options, with
    any option or a stray word mixed in."""
    any_option = st.sampled_from(sorted(VALUES)).flatmap(_option)
    stray = st.sampled_from(STRAYS).map(lambda w: [w])
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    own = st.sampled_from(SUBCOMMANDS[command]).flatmap(_option) if SUBCOMMANDS[command] else stray
    before = draw(st.lists(_option("--threads"), max_size=1))
    after = draw(st.lists(st.one_of([own] * 6 + [any_option, stray]), max_size=4))
    return [w for ws in before for w in ws] + command.split() + [w for ws in after for w in ws]


@FUZZ
@given(argvs())
@example(["frobnicate"])
@example([])
@example(["--threads", "0", "build", "--builtin", "petersen"])
@example(["tilde"])
@example(["cover", "--input", "COMPLEX", "--subgroup", "-a"])
def test_argv(words):
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, payload in FILES.items():
            paths[name] = Path(directory) / f"{name.lower()}.json"
            paths[name].write_text(json.dumps(payload), encoding="utf-8")
        check_run(*(str(paths[w]) if w in paths else w for w in words))
