"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The traced-run tests run every workload twice in child processes (about
three minutes on two cores).
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import linalg
import run
import tracer
import workloads

ALL_INPUTS = ["w52", "pg42", "s8", "f27", "t237", "matrices"]


def _digests(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_bytes(tmp_path):
    inputs.write_inputs(7, ALL_INPUTS, tmp_path / "a")
    inputs.write_inputs(7, ALL_INPUTS, tmp_path / "b")
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")


def test_other_seed_changes_bytes_not_results(tmp_path):
    a = _digests(inputs.write_inputs(1, ALL_INPUTS, tmp_path / "a")["w52"].parent)
    b = _digests(inputs.write_inputs(2, ALL_INPUTS, tmp_path / "b")["w52"].parent)
    assert a.keys() == b.keys() and all(a[k] != b[k] for k in a)
    golden = workloads.load_golden()
    for seed, where in ((1, tmp_path / "a"), (2, tmp_path / "b")):
        for step in workloads.steps("geometry", seed, where)[1:4] + workloads.steps("cosets", seed, where)[1:]:
            result = run.run_step(step, where, 120, None)
            assert workloads.check_cli(step, result["stdout"], result["exit"], golden) == []


def test_geometry_inputs_have_the_classical_shapes():
    assert [len(level) for level in inputs.polar_w52()] == [63, 315, 135]
    assert [len(level) for level in inputs.projective_pg42()] == [31, 155, 155, 31]


def _golden_tc_f27(tmp_path):
    path = inputs.write_inputs(3, ["f27"], tmp_path)["f27"]
    step = workloads.Step("tc-f27", ("tc", "--input", str(path)), "tc-f27", str(path))
    golden = workloads.load_golden()
    report = copy.deepcopy(golden["tc-f27"]["report"])
    report["elapsed_ms"] = 5
    report["inputs"]["input"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return step, golden, report


def test_gate_accepts_the_golden_report(tmp_path):
    step, golden, report = _golden_tc_f27(tmp_path)
    assert workloads.check_cli(step, json.dumps(report), 0, golden) == []


@pytest.mark.parametrize("corrupt", ["index", "status", "digest", "exit", "truncated"])
def test_gate_catches_a_corrupted_report(tmp_path, corrupt):
    step, golden, report = _golden_tc_f27(tmp_path)
    exit_code = 0
    if corrupt == "index":
        report["results"]["index"] = 28
    elif corrupt == "status":
        report["status"] = "capacity"
    elif corrupt == "digest":
        report["inputs"]["input"] = "0" * 64
    elif corrupt == "exit":
        exit_code = 3
    text = json.dumps(report)
    if corrupt == "truncated":
        text = text[: len(text) // 2]
    assert workloads.check_cli(step, text, exit_code, golden)


def test_golden_holds_the_pinned_values():
    golden = workloads.load_golden()
    for key, entry in golden.items():
        pins = workloads.PINS[key.split("@")[0]]
        assert {k: entry["report"]["results"][k] for k in pins} == pins, key


class _FakeMatrix:
    """Stands in for MatrixGFp in the linalg checks."""

    def __init__(self, rows):
        self.prime, self.rows, self.cols = 2, len(rows), len(rows[0])
        self._rows = [list(r) for r in rows]
        self._payload = np.zeros(0)

    def to_rows(self):
        return self._rows


def test_linalg_checks_catch_wrong_results():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
    rank = linalg.rank_mod(m, 2)
    arrays = {"small": m[None]}
    ref = {"small": [rank]}
    kernel = _null_basis(m)
    assert linalg.check("small", arrays, ref, [(rank, _FakeMatrix(kernel))]) == []
    assert linalg.check("small", arrays, ref, [(rank + 1, _FakeMatrix(kernel))])
    broken = kernel.copy()
    broken[0, 0] ^= 1
    assert linalg.check("small", arrays, ref, [(rank, _FakeMatrix(broken))])
    assert linalg.check("dense", {}, {"dense": 5}, 4)


def _null_basis(m: np.ndarray) -> np.ndarray:
    cols = m.shape[1]
    vectors = [v for v in range(1 << cols)
               if not np.any(m @ np.array([(v >> i) & 1 for i in range(cols)]) % 2)]
    basis: list = []
    for v in vectors:
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        if v not in span:
            basis.append(v)
    return np.array([[(v >> i) & 1 for i in range(cols)] for v in basis])


def test_rank_mod_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.integers(0, 3, size=(5, 6))
        assert linalg.rank_mod(m, 2) == m.shape[1] - len(_null_basis(m % 2))
    assert linalg.rank_mod(np.array([[1, 2], [2, 1]]), 3) == 1


# spans each workload must produce; together they cover every per-layer metric
EXPECTED_SPANS = {
    "groups": [
        "perm.self_s", "perm.calls", "perm.setwise_s", "perm.induced_action_s",
        "perm.permutations_built", "perm.chains_built", "perm.setwise_chains_built",
        "perm.search_chains_built", "perm.induced_action_points", "build.self_s",
        "local.self_s", "graphs.self_s", "m22.self_s", "cli.self_s",
    ],
    "geometry": [
        "geom.self_s", "geom.calls", "geom.residue_s", "geom.action_check_s",
        "geom.flag_transitive_s", "geom.is_geometry_s", "geom.diagram_s",
        "geom.residue_calls", "geom.maximal_flags", "natrep.self_s",
    ],
    "linalg": [
        "gf2.self_s", "gf2.calls", "gf2.pack_s", "gf2.pack_entries", "gf2.rref_s",
        "gf2.rref_calls", "gf2.rref_entries", "gf2.extract_s", "gf2.gf3_s", "gf2.small_s",
    ],
    "cosets": ["cover.self_s", "cover.tc_s", "cover.tc_calls", "cover.index_total", "cover.overflows"],
}


def test_expected_spans_cover_every_layer_metric():
    named = {m for ms in EXPECTED_SPANS.values() for m in ms}
    assert named == set(tracer.TIME_METRICS + tracer.COUNT_METRICS)


def _traced(workload, seed, capsys):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_fire_every_span_and_repeat_counts(workload, capsys):
    first, second = (_traced(workload, 4, capsys) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == set(tracer.TIME_METRICS + tracer.COUNT_METRICS) | {"trace.overhead_frac"}
        assert [m for m in EXPECTED_SPANS[workload] if metrics[m]["value"] <= 0] == []
    for metric in tracer.COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    if workload == "cosets":
        assert first["metrics"]["cover.index_total"]["value"] == 20160 + 29
        assert first["metrics"]["cover.overflows"]["value"] == 1
