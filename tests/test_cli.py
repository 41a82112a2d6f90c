"""CLI behaviour: exit codes, report shape, determinism and round trips."""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import geomforge
from geomforge.cli import main
from geomforge.geom import Geometry, isomorphic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


def strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def write_k9(tmp_path):
    """K9 with all 84 triangles as a complex file: 28 pi1 generators."""
    path = tmp_path / "k9.json"
    path.write_text(json.dumps({
        "vertices": list(range(9)),
        "edges": [list(e) for e in combinations(range(9), 2)],
        "triangles": [list(t) for t in combinations(range(9), 3)],
    }))
    return path


class TestExitCodes:
    def test_ok(self, capsys):
        code, report = run_cli(capsys, "natrep", "dim", "--builtin", "petersen")
        assert code == 0 and report["status"] == "ok"
        assert report["results"] == {"dim": 6, "points": 15, "rank": 9}

    def test_bad_input_same_type_incidence(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "rank": 2,
            "elements": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
            "incidences": [["a", "b"]],
        }))
        code, report = run_cli(capsys, "verify", "--input", str(bad))
        assert code == 4 and report["status"] == "bad-input"

    def test_check_failed_on_non_geometry(self, capsys, tmp_path):
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps({
            "rank": 2,
            "elements": [
                {"id": "a", "type": 1},
                {"id": "b", "type": 2},
                {"id": "c", "type": 1},
            ],
            "incidences": [["a", "b"]],
        }))
        code, report = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2 and report["status"] == "check-failed"

    def test_natrep_input_checks_axioms(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"rank": 2, "elements": [], "incidences": []}))
        code, report = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2 and report["status"] == "check-failed"
        code, natrep_report = run_cli(capsys, "natrep", "dim", "--input", str(path))
        assert code == 2 and natrep_report["status"] == "check-failed"
        assert natrep_report["results"] == report["results"]

    def test_natrep_input_ok(self, capsys, tmp_path):
        path = tmp_path / "petersen.json"
        code, _ = run_cli(capsys, "build", "--builtin", "petersen", "--out", str(path))
        assert code == 0
        code, report = run_cli(capsys, "natrep", "dim", "--input", str(path))
        assert code == 0 and report["results"] == {"dim": 6, "points": 15, "rank": 9}

    def test_capacity_on_overflow(self, capsys, tmp_path):
        pres = tmp_path / "free.json"
        pres.write_text(json.dumps({"generators": ["a"], "relators": [], "subgroup": []}))
        code, report = run_cli(capsys, "tc", "--input", str(pres), "--limit", "100")
        assert code == 3 and report["status"] == "capacity"
        assert report["results"] == {"limit": 100, "status": "overflow"}

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 4

    @pytest.mark.parametrize("argv, command", [
        (["frobnicate"], None),
        ([], None),
        (["--threads", "0", "build", "--builtin", "petersen"], None),
        (["tilde"], "tilde"),
        (["cover", "--input", "F", "--subgroup", "-a"], "cover"),
    ], ids=["unknown-subcommand", "no-arguments", "zero-threads", "bare-tilde", "extra-argument"])
    def test_usage_error_reports(self, capsys, argv, command):
        # the report names the subcommand when argv names one
        code, report = run_cli(capsys, *argv)
        assert code == 4 and report["status"] == "bad-input" and report["results"]["error"]
        assert report["command"] == command and report["inputs"] == {}

    @pytest.mark.parametrize("argv, error", [
        (["build", "--builtin", "petersen", "--n", "7", "--seed", "3"], "--n is not used by the petersen builtin"),
        (["natrep", "dim", "--builtin", "gq22", "--n", "9", "--seed", "5"], "--n is not used by the gq22 builtin"),
        (["build", "--builtin", "sp", "--n", "3", "--seed", "1"], "--seed is not used by the sp builtin"),
        (["hyp61", "--builtin", "tilde", "--seed", "3", "--n", "2"], "--n is not used by the tilde builtin"),
        (["build", "--builtin", "pg", "--seed", "1"], "--n is required for the pg builtin"),
    ], ids=["build-petersen", "natrep-gq22", "build-sp", "hyp61-tilde", "missing-before-unused"])
    def test_builtin_refuses_unused_arguments(self, capsys, argv, error):
        # a report names only inputs that shaped it
        code, report = run_cli(capsys, *argv)
        assert code == 4 and report["status"] == "bad-input"
        assert report["command"] == argv[0] and report["results"] == {"error": error}

    def test_cover_triangulable_refuses_subgroup_words(self, capsys, tmp_path):
        # the verdict reads no subgroup word, so a report must not list one
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "triangles": [],
        }))
        code, report = run_cli(capsys, "cover", "--input", str(path), "--triangulable", "--subgroup", "aa")
        assert code == 4 and report["status"] == "bad-input" and report["command"] == "cover"
        assert report["results"] == {"error": "--subgroup does not apply to --triangulable"}

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_cover_triangulable_refuses_nonpositive_limit(self, capsys, tmp_path, limit):
        # the square's verdict is read off H1 over GF(2), before any enumeration
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "triangles": [],
        }))
        code, report = run_cli(capsys, "cover", "--input", str(path), "--triangulable", f"--limit={limit}")
        assert code == 4 and report["status"] == "bad-input" and report["command"] == "cover"
        assert report["results"] == {"error": "limit must be positive"}

    def test_cover_refuses_homology_prime_without_triangulable(self, capsys, tmp_path):
        # only the verdict computes a homology rank
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "triangles": [],
        }))
        code, report = run_cli(capsys, "cover", "--input", str(path), "--homology-prime", "3")
        assert code == 4 and report["status"] == "bad-input" and report["command"] == "cover"
        assert report["results"] == {"error": "--homology-prime applies only to --triangulable"}

    @pytest.mark.parametrize("argv, error", [
        (["verify", "--builtin", "sp", "--n", "3", "--seed", "9"], "--builtin does not apply to --input"),
        (["diagram", "--n", "3"], "--n does not apply to --input"),
        (["natrep", "dim", "--seed", "1"], "--seed does not apply to --input"),
        (["natrep", "dim", "--builtin", "tilde", "--seed", "1", "--split"], "--input does not apply to --split"),
    ], ids=["verify", "diagram", "natrep", "natrep-split"])
    def test_input_refuses_builtin_arguments(self, capsys, tmp_path, argv, error):
        # a file is checked as it is: no builtin argument shapes the report
        path = tmp_path / "pg2.json"
        assert main(["build", "--builtin", "pg", "--n", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        code, report = run_cli(capsys, *argv, "--input", str(path))
        assert code == 4 and report["status"] == "bad-input"
        assert report["command"] == argv[0] and report["results"] == {"error": error}

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cover", "-h"]])
    def test_help_prints_no_report(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: geomforge") and '"status"' not in out

    def test_missing_file(self, capsys):
        code, report = run_cli(capsys, "verify", "--input", "/nonexistent.json")
        assert code == 4

    @pytest.mark.parametrize("changes", [
        {"ids": [[1], "b"]},
        {"rank": "2"},
        {"rank": True, "types": [1, 1], "incidences": []},
        {"types": ["1", 2]},
        {"types": [1.5, 2]},
        {"types": [True, 2]},
        {"incidences": [[["a"], "b"]]},
    ], ids=["list-id", "str-rank", "bool-rank", "str-type", "float-type", "bool-type",
            "list-incidence"])
    def test_malformed_geometry(self, capsys, tmp_path, changes):
        ids, types = changes.get("ids", ["a", "b"]), changes.get("types", [1, 2])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "rank": changes.get("rank", 2),
            "elements": [{"id": i, "type": t} for i, t in zip(ids, types)],
            "incidences": changes.get("incidences", [ids]),
        }))
        code, report = run_cli(capsys, "verify", "--input", str(path))
        assert code == 4 and report["status"] == "bad-input"

    @pytest.mark.parametrize("vertices, edges", [
        ([[1], [2]], []),
        ([1, 2], [[[1], 2]]),
        ([1, 2], [5]),
    ], ids=["list-vertex", "list-endpoint", "int-edge"])
    def test_malformed_complex(self, capsys, tmp_path, vertices, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": edges, "triangles": []}))
        code, report = run_cli(capsys, "pi1", "--input", str(path))
        assert code == 4 and report["status"] == "bad-input"

    @pytest.mark.parametrize("generators, relators", [
        (["a"], [[1]]),
        ([["a"]], []),
        (["a"], "aa"),
        ("ab", []),
    ], ids=["list-relator", "list-generator", "str-relators", "str-generators"])
    def test_malformed_presentation(self, capsys, tmp_path, generators, relators):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generators": generators, "relators": relators}))
        code, report = run_cli(capsys, "tc", "--input", str(path))
        assert code == 4 and report["status"] == "bad-input"


class TestCommands:
    def test_tilde_build_writes_file(self, capsys, tmp_path):
        out = tmp_path / "t0.json"
        code, report = run_cli(
            capsys, "tilde", "build", "--seed", "42", "--out", str(out)
        )
        assert code == 0
        assert report["results"]["counts"] == [45, 45]
        geometry = Geometry.load(out)
        assert geometry.rank == 2 and geometry.size == 90

    def test_tc_a5(self, capsys, tmp_path):
        pres = tmp_path / "a5.json"
        pres.write_text(json.dumps({
            "generators": ["a", "b"],
            "relators": ["aa", "bbb", "ababababab"],
            "subgroup": [],
        }))
        code, report = run_cli(capsys, "tc", "--input", str(pres))
        assert code == 0 and report["results"]["index"] == 60

    def test_diagram_builtin(self, capsys):
        code, report = run_cli(capsys, "diagram", "--builtin", "gq22")
        assert code == 0
        assert report["results"]["edges"] == {"1,2": "gq-2-2"}

    def test_pi1_and_cover(self, capsys, tmp_path):
        complex_path = tmp_path / "square.json"
        complex_path.write_text(json.dumps({
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "triangles": [],
        }))
        code, report = run_cli(capsys, "pi1", "--input", str(complex_path))
        assert code == 0 and report["results"]["generators"] == ["a"]
        code, report = run_cli(
            capsys, "cover", "--input", str(complex_path), "--subgroup", "aa"
        )
        assert code == 0 and report["results"]["vertices"] == 8

    def test_pi1_with_more_generators_than_letters(self, capsys, tmp_path):
        # K9 with every triangle: 28 non-tree edges, named g0..g27, so the
        # relators are written with "*" and "^-1"
        path = write_k9(tmp_path)
        code, report = run_cli(capsys, "pi1", "--input", str(path))
        assert code == 0 and report["status"] == "ok"
        results = report["results"]
        assert results["generators"] == [f"g{i}" for i in range(28)]
        assert len(results["relators"]) == 84
        # triangles through the basepoint 0 cross one non-tree edge
        assert results["relators"][:2] == ["g0", "g1"]
        assert results["relators"][28] == "g0*g7*g1^-1"  # triangle (1, 2, 3)

    @pytest.mark.parametrize("words", [[], ["g0"], [""], ["g0*g7^-1", "g27"]])
    def test_cover_takes_pi1_words(self, capsys, tmp_path, words):
        # pi1 of K9 with every triangle is trivial: each subgroup has index 1
        path = write_k9(tmp_path)
        code, report = run_cli(capsys, "cover", "--input", str(path), "--subgroup", *words)
        assert code == 0 and report["status"] == "ok"
        assert report["inputs"]["subgroup"] == words
        assert report["results"] == {"connected": True, "edges": 36, "triangles": 84, "vertices": 9}

    @pytest.mark.parametrize("word", ["g28", "a", "g0*h1"])
    def test_cover_unknown_generator(self, capsys, tmp_path, word):
        path = write_k9(tmp_path)
        code, report = run_cli(capsys, "cover", "--input", str(path), "--subgroup", word)
        assert code == 4 and report["status"] == "bad-input"
        assert report["results"]["error"].startswith("unknown generator")

    def test_cover_triangulable(self, capsys, tmp_path):
        complex_path = tmp_path / "c5.json"
        complex_path.write_text(json.dumps({
            "vertices": [0, 1, 2, 3, 4],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
            "triangles": [],
        }))
        code, report = run_cli(
            capsys, "cover", "--input", str(complex_path), "--triangulable",
            "--homology-prime", "2",
        )
        assert code == 0
        assert report["results"]["triangulable"] == "no"
        assert report["results"]["homology_rank"] == 1

    def test_local_kernels(self, capsys):
        code, report = run_cli(
            capsys, "local", "kernels", "--builtin", "petersen",
            "--vertex", "0", "--smax", "2",
        )
        assert code == 0
        assert report["results"]["orders"] == [12, 2, 1]
        assert report["results"]["condition_star"] is True

    def test_local_star(self, capsys):
        code, report = run_cli(
            capsys, "local", "star", "--builtin", "petersen", "--vertex", "1"
        )
        assert code == 0 and report["results"]["subgraphs"] == 3

    def test_hyp61_reads_the_derived_action_of_local(self, capsys, monkeypatch):
        # the derived graph and the action on top-type elements are built
        # once, by the helper that the kernel series uses too
        from geomforge import local

        calls = []
        derived_action = local._derived_action

        def spying(meta):
            calls.append(meta)
            return derived_action(meta)

        monkeypatch.setattr(local, "_derived_action", spying)
        code, report = run_cli(capsys, "hyp61", "--builtin", "petersen")
        assert code == 0 and report["results"]["verdict"] == "fail"
        assert len(calls) == 1

    def test_hyp61_petersen(self, capsys):
        code, report = run_cli(capsys, "hyp61", "--builtin", "petersen")
        assert code == 0
        assert report["results"]["verdict"] == "fail"
        assert (
            report["results"]["first_failure"]
            == "absence of regular normal subgroups"
        )

    @pytest.mark.parametrize("index, smax, vertex, orders", [
        (5, 2, "(1, 51, 53)", [48, 2, 1]),
        (0, 0, "(0, 17, 18)", [48]),
        (0, 3, "(0, 17, 18)", [48, 2, 1, 1]),
    ], ids=["vertex-5", "smax-0", "smax-3"])
    def test_local_kernels_tilde(self, capsys, index, smax, vertex, orders):
        # one kernel series serves the orders and condition (*); the report
        # is the one two separate series gave
        code, report = run_cli(
            capsys, "local", "kernels", "--builtin", "tilde", "--seed", "9",
            "--vertex", str(index), "--smax", str(smax),
        )
        assert code == 0
        assert strip_elapsed(report) == {
            "command": "local",
            "inputs": {"builtin": "tilde", "seed": 9, "vertex": index},
            "results": {"condition_star": True, "orders": orders, "vertex": vertex},
            "status": "ok",
        }

    def test_local_kernels_computes_one_series(self, capsys, monkeypatch):
        # condition (*) reads the series of --vertex instead of computing
        # one for the first vertex: the builtins are flag-transitive
        from geomforge import local

        calls = []
        kernel_series = local.kernel_series

        def counting(*args, **kwargs):
            calls.append(args[1])
            return kernel_series(*args, **kwargs)

        monkeypatch.setattr(local, "kernel_series", counting)
        code, _ = run_cli(
            capsys, "local", "kernels", "--builtin", "tilde", "--seed", "9", "--vertex", "5"
        )
        assert code == 0 and len(calls) == 1

    def test_local_kernels_negative_smax(self, capsys):
        code, report = run_cli(
            capsys, "local", "kernels", "--builtin", "tilde", "--seed", "9", "--smax", "-1"
        )
        assert code == 4 and report["status"] == "bad-input"
        assert report["results"] == {"error": "s_max must be nonnegative"}

    @pytest.mark.parametrize("command", [("hyp61",), ("local", "kernels")])
    def test_builtin_inputs_keep_n(self, capsys, command):
        code, report = run_cli(capsys, *command, "--builtin", "pg", "--n", "3")
        assert code == 0
        assert report["inputs"]["builtin"] == "pg" and report["inputs"]["n"] == 3

    def test_bench(self, capsys):
        code, report = run_cli(capsys, "bench", "--sizes", "100", "--seed", "9")
        assert code == 0
        table = report["results"]["table"]
        assert len(table) == 1 and table[0]["size"] == 100
        assert table[0]["rank"] >= 90

    def test_bench_empty(self, capsys):
        code, report = run_cli(capsys, "bench", "--sizes", "", "--seed", "9")
        assert code == 0 and report["results"]["table"] == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("natrep", "dim", "--builtin", "petersen"),
            ("build", "--builtin", "gq22"),
            ("build", "--builtin", "tilde", "--seed", "42"),
            ("diagram", "--builtin", "pg", "--n", "3"),
            ("bench", "--sizes", "64,100", "--seed", "5"),
            ("hyp61", "--builtin", "petersen"),
            ("local", "kernels", "--builtin", "petersen", "--vertex", "0"),
        ],
    )
    def test_rerun_is_byte_identical(self, capsys, argv):
        code1, report1 = run_cli(capsys, *argv)
        code2, report2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert json.dumps(strip_elapsed(report1), sort_keys=True) == json.dumps(
            strip_elapsed(report2), sort_keys=True
        )

    def test_threads_flag_does_not_change_output(self, capsys):
        _, rep1 = run_cli(capsys, "--threads", "1", "natrep", "dim", "--builtin", "gq22")
        _, rep4 = run_cli(capsys, "--threads", "4", "natrep", "dim", "--builtin", "gq22")
        assert strip_elapsed(rep1) == strip_elapsed(rep4)

    def test_entry_point_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "geomforge.cli", "natrep", "dim", "--builtin", "petersen"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["results"]["dim"] == 6


# runs the commands that build no matrix in one fresh interpreter, checking
# after the import and after each run that numpy was not loaded; bench last,
# which must load it
_NUMPY_ON_USE = """
import sys
import geomforge.cli

geometry, presentation = sys.argv[1:]
assert "numpy" not in sys.modules, "import geomforge.cli"
for argv in [
    ["build", "--builtin", "sp", "--n", "3", "--out", geometry],
    ["verify", "--input", geometry],
    ["diagram", "--input", geometry],
    ["natrep", "dim", "--input", geometry],
    ["tc", "--input", presentation],
    ["local", "kernels", "--builtin", "tilde", "--seed", "3"],
    ["hyp61", "--builtin", "tilde", "--seed", "3"],
    ["natrep", "dim", "--builtin", "tilde", "--seed", "3", "--split"],
]:
    assert geomforge.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert geomforge.cli.main(["bench", "--sizes", "8", "--seed", "1"]) == 0
assert "numpy" in sys.modules, "bench"
"""


class TestNumpyOnUse:
    def test_commands_without_matrices_do_not_load_numpy(self, tmp_path):
        pres = tmp_path / "s3.json"
        pres.write_text(json.dumps({"generators": ["a", "b"], "relators": ["aa", "bb", "ababab"]}))
        src = str(Path(geomforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_ON_USE, str(tmp_path / "w52.json"), str(pres)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        reports = [json.loads(line) for line in result.stdout.splitlines()]
        assert [r["status"] for r in reports] == ["ok"] * 9


class TestRoundTrips:
    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--builtin", "petersen"),
            ("build", "--builtin", "pg", "--n", "3"),
            ("build", "--builtin", "sp", "--n", "2"),
            ("build", "--builtin", "gq22"),
            ("build", "--builtin", "tilde", "--seed", "42"),
        ],
    )
    def test_export_import_isomorphic(self, capsys, tmp_path, argv):
        out = tmp_path / "g.json"
        code, report = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        from geomforge.cli import _builtin_metadata

        args = list(argv)
        name = args[args.index("--builtin") + 1]
        n = int(args[args.index("--n") + 1]) if "--n" in args else None
        seed = int(args[args.index("--seed") + 1]) if "--seed" in args else None
        built = _builtin_metadata(name, n, seed).geometry
        loaded = Geometry.load(out)
        assert isomorphic(built, loaded) is not None

    @pytest.mark.stretch
    def test_m22_round_trip(self, capsys, tmp_path):
        out = tmp_path / "p1.json"
        code, report = run_cli(
            capsys, "build", "--builtin", "m22", "--seed", "11", "--out", str(out)
        )
        assert code == 0
        from geomforge.cli import _builtin_metadata

        built = _builtin_metadata("m22", None, 11).geometry
        loaded = Geometry.load(out)
        # 1716 elements: resolved by the canonical string bijection
        assert isomorphic(built, loaded) is not None
