"""The four workloads: their steps, how each step's seed and input follow
from the benchmark seed, and the checks on every output.

groups    CLI runs dominated by ``perm``: Schreier-Sims at degrees 24 and
          2,047, the M24 duad setwise stabilizer, the seeded subgroup
          search in GammaL3(4), stabilizers of balls and induced actions.
geometry  CLI runs dominated by ``geom``: action checks, flag-transitivity,
          flag walks and rank-2 residues of W(5,2) and PG(4,2) given as
          relabelled, shuffled files.
linalg    library calls dominated by ``gf2``: packing, elimination,
          extraction through get(), GF(3) and many small matrices.
cosets    CLI runs dominated by ``cover``: a definition-heavy, a
          coincidence-heavy and an overflowing Todd-Coxeter enumeration.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs
import linalg

# Seeded steps whose amount of work depends on luck take their seed from a
# recorded pool of typical seeds, so that every run does the same work and a
# change in code speed is not hidden by a change in search length.
#
# 72 of the m22 seeds 0..99 get Aut(M22) from the first random pair tried,
# but the chains built from that pair still differ: over 19 of those seeds
# a build makes 10.5k-17.1k permutations of degree 2047, and the slowest
# took up to ~1.8 times as long as the fastest.  These make within 3% of the
# median 12.6k.
M22_SEEDS = (6, 7, 15, 20, 22, 25, 27)
# The order-2160 subgroup search in GammaL3(4) builds between 3 and 1,276
# stabilizer chains over the tilde seeds 0..99 (median 130).  These seeds
# build 120-139 and make, over local kernels and hyp61 together, within 5%
# of the median 174k permutations.
TILDE_SEEDS = (9, 12, 38, 61, 74, 79, 97)
# Relator rotations and order (the scramble) change how many cosets an
# enumeration defines and merges: over scrambles 0..59, F(2,7) defines
# 175k-317k cosets and the triangle group merges 8.4k-40.5k before its
# overflow.  These scrambles define and merge within 3% of the medians.
# Generator names still come from the benchmark seed.
SCRAMBLES = {
    "s8": (1, 2, 3, 4, 5, 6, 7, 8),
    "f27": (2, 4, 5, 6, 15, 24, 34, 35),
    "t237": (1, 2, 4, 6, 7, 10, 12, 14),
}

PREDICTED_DOMINANT = {"groups": "perm", "geometry": "geom", "linalg": "gf2", "cosets": "cover"}
WORKLOADS = tuple(PREDICTED_DOMINANT)

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Step:
    """One child process.  ``golden`` names the recorded report of a CLI
    step.  ``input`` is the file whose SHA-256 a CLI report echoes, or the
    directory a linalg operation (``op``) loads its arrays from."""

    name: str
    argv: tuple = ()
    golden: str = ""
    input: str = ""
    op: str = ""

    @property
    def kind(self) -> str:
        return "lib" if self.op else "cli"


def _pick(pool: tuple, seed: int, label: str):
    return pool[random.Random(f"{seed}/{label}").randrange(len(pool))]


def steps(workload: str, seed: int, work: Path) -> list[Step]:
    """Write the workload's inputs for ``seed`` under ``work`` and return its
    steps in execution order."""
    if workload == "groups":
        s, t = _pick(M22_SEEDS, seed, "m22"), _pick(TILDE_SEEDS, seed, "tilde")
        return [
            Step("build-m22", ("build", "--builtin", "m22", "--seed", str(s)), f"build-m22@{s}"),
            Step("local-kernels-tilde", ("local", "kernels", "--builtin", "tilde", "--seed", str(t), "--smax", "2"),
                 f"local-kernels-tilde@{t}"),
            Step("hyp61-tilde", ("hyp61", "--builtin", "tilde", "--seed", str(t)), f"hyp61-tilde@{t}"),
        ]
    if workload == "geometry":
        files = inputs.write_inputs(seed, ["w52", "pg42"], work)
        w52, pg42 = str(files["w52"]), str(files["pg42"])
        return [
            Step("build-sp3", ("build", "--builtin", "sp", "--n", "3"), "build-sp3"),
            Step("verify-w52", ("verify", "--input", w52), "verify-w52", w52),
            Step("diagram-w52", ("diagram", "--input", w52), "diagram-w52", w52),
            Step("natrep-w52", ("natrep", "dim", "--input", w52), "natrep-w52", w52),
            Step("diagram-pg42", ("diagram", "--input", pg42), "diagram-pg42", pg42),
        ]
    if workload == "linalg":
        files = inputs.write_inputs(seed, ["matrices"], work)
        reference = work / "reference.json"
        reference.write_text(json.dumps(linalg.reference(linalg.load(files["matrices"]))))
        return [Step(f"gf2-{op}", op=op, input=str(files["matrices"])) for op in linalg.OPERATIONS]
    if workload == "cosets":
        scrambles = {name: _pick(pool, seed, name) for name, pool in SCRAMBLES.items()}
        files = inputs.write_inputs(seed, list(SCRAMBLES), work, scrambles)
        s8, f27, t237 = (str(files[name]) for name in SCRAMBLES)
        return [
            Step("tc-s8", ("tc", "--input", s8), "tc-s8", s8),
            Step("tc-f27", ("tc", "--input", f27), "tc-f27", f27),
            Step("tc-t237", ("tc", "--input", t237, "--limit", "100000"), "tc-t237", t237),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- correctness gate ---------------------------------------------------------------

DIGEST = "<sha256 of the input file>"

# Values the theory fixes, checked on every report on top of the golden
# comparison.  Tilde's 45/45 elements and order 2160 show in the reports as
# a vertex stabilizer of order 2160 / 45 = 48.
PINS = {
    "build-m22": {"counts": [231, 1155, 330], "group_order": 887040},
    "local-kernels-tilde": {"orders": [2160 // 45, 2, 1]},
    "hyp61-tilde": {"vertex_transitive": True, "edge_transitive": True},
    "build-sp3": {"counts": [63, 315, 135], "group_order": 1451520},
    "verify-w52": {"counts": [63, 315, 135], "is_geometry": True},
    "diagram-w52": {"edges": {"1,2": "projective-plane-2", "1,3": "digon", "2,3": "gq-2-2"}},
    # the universal embedding of W(2n-1, 2) has dimension 2n + 1
    "natrep-w52": {"points": 63, "dim": 7},
    "diagram-pg42": {"rank": 4},
    "tc-s8": {"status": "completed", "index": 20160},
    "tc-f27": {"status": "completed", "index": 29},
    "tc-t237": {"status": "overflow", "limit": 100000},
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def normalized(step: Step, stdout: str) -> dict:
    """The report with ``elapsed_ms`` dropped and the echoed input digest
    checked against the file and replaced by a placeholder."""
    report = json.loads(stdout)
    report.pop("elapsed_ms")
    if step.input and report.get("inputs", {}).get("input") is not None:
        want = hashlib.sha256(Path(step.input).read_bytes()).hexdigest()
        if report["inputs"]["input"] != want:
            raise ValueError("report echoes the digest of another input")
        report["inputs"]["input"] = DIGEST
    return report


def check_cli(step: Step, stdout: str, exit_code, golden: dict) -> list[str]:
    """Mismatches of one CLI run against its golden exit code and report
    and against the pinned values; empty when the run is correct."""
    want = golden.get(step.golden)
    if want is None:
        return [f"{step.name}: no golden report {step.golden!r}"]
    errors = []
    if exit_code != want["exit"]:
        errors.append(f"{step.name}: exit {exit_code}, golden {want['exit']}")
    try:
        report = normalized(step, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"{step.name}: unreadable report ({exc})"]
    if report != want["report"]:
        errors.append(f"{step.name}: report differs from golden")
    results = report.get("results", {})
    for key, value in PINS.get(step.name, {}).items():
        if results.get(key) != value:
            errors.append(f"{step.name}: {key} = {results.get(key)!r}, theory fixes {value!r}")
    return errors
