"""Command-line front end.

One JSON report per run on stdout, human-readable logs on stderr.  Exit
codes: 0 ok, 2 a verification failed, 3 capacity or overflow, 4 malformed
input or usage.  A usage error gets a bad-input report like any other
malformed input; its ``command`` names the subcommand when argv names one
and is null otherwise.  Only ``--help`` prints no report.  Every randomized
subcommand requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import build, cover, geom, local, natrep
from .geom import Geometry
from .perm import CapacityError

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CAPACITY = 3
EXIT_BAD_INPUT = 4


class _Stop(RuntimeError):
    """Ends a command with a report of ``results``, under the status that
    ``_FAILURES`` gives its class."""

    def __init__(self, results: dict):
        super().__init__(results)
        self.results = results


class CheckFailed(_Stop):
    """A verification failed."""


class _Capacity(_Stop):
    """A bounded computation overflowed."""


# the report status and exit code of each failure, found along the
# exception's MRO
_FAILURES = {
    CheckFailed: ("check-failed", EXIT_CHECK_FAILED),
    build.ConstructionError: ("check-failed", EXIT_CHECK_FAILED),
    _Capacity: ("capacity", EXIT_CAPACITY),
    CapacityError: ("capacity", EXIT_CAPACITY),
    ValueError: ("bad-input", EXIT_BAD_INPUT),
    KeyError: ("bad-input", EXIT_BAD_INPUT),
    OSError: ("bad-input", EXIT_BAD_INPUT),
}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _digest_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _m22_geometry(seed: int) -> build.ConstructionMetadata:
    # imported on use: no other command needs it, and importing it adds a
    # few milliseconds to every CLI start
    from . import m22

    return m22.build_m22_geometry(seed)


# each builtin's required arguments and its constructor; the lambdas look
# the constructors up when called, so a wrapper later set on the module
# (a monkeypatch, a profiler) is the one that runs
_BUILTINS = {
    "petersen": ((), lambda: build.petersen_geometry()),
    "pg": (("n",), lambda n: build.projective_geometry_2(n)),
    "sp": (("n",), lambda n: build.symplectic_polar_space(n)),
    "gq22": ((), lambda: build.symplectic_polar_space(2)),
    "tilde": (("seed",), lambda seed: build.tilde_geometry(seed)),
    "m22": (("seed",), _m22_geometry),
}


def _builtin_metadata(name: str, n: int | None, seed: int | None) -> build.ConstructionMetadata:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; choose from {tuple(_BUILTINS)}")
    required, construct = _BUILTINS[name]
    values = {"n": n, "seed": seed}
    for key in required:
        if values[key] is None:
            raise ValueError(f"--{key} is required for the {name} builtin")
    for key, value in values.items():
        if value is not None and key not in required:
            raise ValueError(f"--{key} is not used by the {name} builtin")
    return construct(*(values[key] for key in required))


def _builtin(args) -> tuple[build.ConstructionMetadata, dict]:
    """The builtin that ``args`` names, and the report inputs naming it."""
    inputs = {"builtin": args.builtin}
    for key in ("n", "seed"):
        if getattr(args, key) is not None:
            inputs[key] = getattr(args, key)
    return _builtin_metadata(args.builtin, args.n, args.seed), inputs


def _load_geometry(args) -> tuple[Geometry, dict]:
    if args.input:
        for key in ("builtin", "n", "seed"):
            if getattr(args, key) is not None:
                raise ValueError(f"--{key} does not apply to --input")
        return Geometry.load(args.input), {"input": _digest_file(args.input)}
    if not args.builtin:
        raise ValueError("either --input or --builtin is required")
    meta, inputs = _builtin(args)
    return meta.geometry, inputs


def _counts(g: Geometry) -> list[int]:
    return [len(g.elements_of_type(t)) for t in range(1, g.rank + 1)]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, results)


def _cmd_build(args):
    meta, inputs = _builtin(args)
    results = {
        "rank": meta.geometry.rank,
        "counts": _counts(meta.geometry),
        "group_order": meta.group.order(),
        "provenance": meta.provenance,
    }
    if args.out:
        meta.geometry.save(args.out)
        results["out"] = args.out
        _log(f"wrote geometry to {args.out}")
    return inputs, results


def _checked_axioms(g: Geometry) -> dict:
    """The axiom report of ``g``; raises CheckFailed when it fails."""
    verdict = geom.is_geometry(g)
    results = {
        "rank": g.rank,
        "counts": _counts(g),
        "is_geometry": verdict.ok,
        "failures": verdict.failures,
    }
    if not verdict.ok:
        raise CheckFailed(results)
    return results


def _cmd_verify(args):
    g, inputs = _load_geometry(args)
    return inputs, _checked_axioms(g)


def _cmd_diagram(args):
    g, inputs = _load_geometry(args)
    report = geom.diagram(g)
    return inputs, report.to_json()


def _cmd_natrep(args):
    if args.split:
        if args.input:
            raise ValueError("--input does not apply to --split")
        if args.builtin != "tilde":
            raise ValueError("--split is only available for the tilde builtin")
        meta, inputs = _builtin(args)
        result = natrep.o3_split_dims(meta.geometry, meta)
    else:
        g, inputs = _load_geometry(args)
        if "input" in inputs:
            # um_dimension assumes the axioms, which a file may break
            _checked_axioms(g)
        result = natrep.um_dimension(g)
    return inputs, result.to_json()


def _cmd_tc(args):
    inputs = {"input": _digest_file(args.input)}
    presentation = cover.load_presentation(args.input)
    outcome = cover.todd_coxeter(presentation, limit=args.limit)
    if not outcome.completed:
        raise _Capacity(outcome.to_json())
    return inputs, outcome.to_json()


def _load_complex(path: str) -> cover.TriangleComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return cover.TriangleComplex.from_json(json.load(fh))


def _cmd_pi1(args):
    inputs = {"input": _digest_file(args.input)}
    complex_ = _load_complex(args.input)
    presentation = cover.pi1_presentation(complex_)
    results = {
        "generators": list(presentation.generators),
        "relators": [presentation.word_to_string(w) for w in presentation.relators],
    }
    return inputs, results


def _cmd_cover(args):
    if args.triangulable and args.subgroup:
        raise ValueError("--subgroup does not apply to --triangulable")
    if args.homology_prime and not args.triangulable:
        raise ValueError("--homology-prime applies only to --triangulable")
    inputs = {"input": _digest_file(args.input), "subgroup": list(args.subgroup)}
    complex_ = _load_complex(args.input)
    if args.triangulable:
        # one presentation gives the verdict and the homology rank
        verdict, h1 = cover._triangulability(complex_, args.limit)
        results = {"triangulable": verdict.verdict, "reason": verdict.reason}
        if args.homology_prime:
            results["homology_rank"] = h1(args.homology_prime)
        return inputs, results
    covering, _ = cover.build_cover(complex_, args.subgroup, limit=args.limit)
    results = {
        "vertices": covering.graph.n,
        "edges": covering.graph.num_edges,
        "triangles": len(covering.triangles),
        "connected": covering.graph.is_connected(),
    }
    return inputs, results


def _cmd_local(args):
    meta, inputs = _builtin(args)
    g = meta.geometry
    top = g.elements_of_type(g.rank)
    if args.vertex < 0 or args.vertex >= len(top):
        raise ValueError(f"--vertex must be in 0..{len(top) - 1}")
    vertex = top[args.vertex]
    inputs["vertex"] = args.vertex
    if args.action == "star":
        verdict = local.local_space_check(g, vertex)
        results = {
            "ok": verdict.ok,
            "subgraphs": verdict.subgraph_count,
            "failures": verdict.failures,
        }
        if not verdict.ok:
            raise CheckFailed(results)
        return inputs, results
    # kernels: one series serves the report and condition (*); a negative
    # s_max goes through unchanged so that kernel_series refuses it
    radius = max(args.smax, g.rank - 1) if args.smax >= 0 else args.smax
    series = local.kernel_series(meta, vertex, radius)
    results = local.KernelSeriesReport(vertex, series.orders[: args.smax + 1]).to_json()
    results["condition_star"] = local.condition_star(meta, series)
    return inputs, results


def _cmd_hyp61(args):
    meta, inputs = _builtin(args)
    return inputs, local.hypothesis_61_check(*local._derived_action(meta)).to_json()


def _cmd_bench(args):
    # imported on use, as numpy loads with it: most commands build no matrix
    import numpy as np

    from .gf2 import MatrixGFp, _check_shape

    sizes = [int(s) for s in args.sizes.split(",") if s] if args.sizes else []
    inputs = {"sizes": sizes, "seed": args.seed}
    rng = np.random.default_rng(args.seed)
    rows = []
    for size in sizes:
        if size <= 0:
            raise ValueError("sizes must be positive")
        # the matrix's capacity bound, before the draw allocates it
        _check_shape(size, size)
        dense = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
        matrix = MatrixGFp.from_rows(2, dense)
        started = time.monotonic()
        rank = matrix.rank()
        elapsed = time.monotonic() - started
        # timings go to stderr only, keeping the stdout report byte-stable
        rows.append({"size": size, "rank": rank})
        _log(f"rank of random {size}x{size}: {rank} in {elapsed * 1000:.1f} ms")
    return inputs, {"table": rows}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as bad input, so that it ends in a report like
    any other; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomforge",
        description="diagram geometries of Petersen and tilde type: "
        "constructions, verification and analysis",
    )

    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    parser.add_argument("--threads", type=count, default=1,
                        help="parallelism cap; results are independent of it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_builtin(p, required: bool):
        p.add_argument("--builtin", required=required, choices=_BUILTINS)
        p.add_argument("--n", type=int, help="rank parameter for pg/sp")
        p.add_argument("--seed", type=int, help="seed for randomized builtins")

    def add_geometry_source(p):
        p.add_argument("--input", help="geometry JSON file")
        add_builtin(p, False)

    p_build = sub.add_parser("build", help="construct a builtin geometry")
    add_builtin(p_build, required=True)
    p_build.add_argument("--out", help="write the geometry JSON here")

    p_tilde = sub.add_parser("tilde", help="tilde geometry shortcuts")
    p_tilde_build = p_tilde.add_subparsers(dest="action", required=True).add_parser("build")
    p_tilde_build.add_argument("--seed", type=int, required=True)
    p_tilde_build.add_argument("--out")
    p_tilde_build.set_defaults(command="build", builtin="tilde", n=None)

    add_geometry_source(sub.add_parser("verify", help="check the geometry axioms"))
    add_geometry_source(sub.add_parser("diagram", help="classify rank-2 residues"))

    p_natrep = sub.add_parser("natrep", help="universal natural module")
    p_natrep.add_argument("action", choices=["dim"])
    add_geometry_source(p_natrep)
    p_natrep.add_argument("--split", action="store_true",
                          help="also compute the O3 commutant/centralizer split")

    p_tc = sub.add_parser("tc", help="Todd-Coxeter coset enumeration")
    p_tc.add_argument("--input", required=True, help="presentation JSON file")
    p_tc.add_argument("--limit", type=int, default=cover.DEFAULT_COSET_LIMIT)

    p_pi1 = sub.add_parser("pi1", help="fundamental group of a triangle complex")
    p_pi1.add_argument("--input", required=True, help="complex JSON file")

    p_cover = sub.add_parser("cover", help="finite covers and triangulability")
    p_cover.add_argument("--input", required=True)
    p_cover.add_argument("--subgroup", nargs="*", default=[],
                         help="subgroup words in the syntax that pi1 prints")
    p_cover.add_argument("--limit", type=int, default=cover.DEFAULT_COSET_LIMIT)
    p_cover.add_argument("--triangulable", action="store_true",
                         help="report the triangulability verdict instead")
    p_cover.add_argument("--homology-prime", type=int, choices=[2, 3])

    p_local = sub.add_parser("local", help="local analysis of a builtin")
    p_local.add_argument("action", choices=["star", "kernels"])
    add_builtin(p_local, required=True)
    p_local.add_argument("--vertex", type=int, default=0,
                         help="index of the top-type element to analyse")
    p_local.add_argument("--smax", type=int, default=2)

    add_builtin(sub.add_parser("hyp61", help="girth-5 hypothesis check"), required=True)

    p_bench = sub.add_parser("bench", help="GF(2) rank timings")
    p_bench.add_argument("--sizes", default="", help="comma-separated sizes")
    p_bench.add_argument("--seed", type=int, required=True)

    return parser


_HANDLERS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "diagram": _cmd_diagram,
    "natrep": _cmd_natrep,
    "tc": _cmd_tc,
    "pi1": _cmd_pi1,
    "cover": _cmd_cover,
    "local": _cmd_local,
    "hyp61": _cmd_hyp61,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    started = time.monotonic()
    # the parser fills this in as it reads argv, so a usage error still
    # finds the subcommand that argv named
    args = argparse.Namespace(command=None)
    inputs, status, code = {}, "ok", EXIT_OK
    try:
        _build_parser().parse_args(argv, args)
        inputs, results = _HANDLERS[args.command](args)
    except SystemExit as exc:  # only --help exits: usage errors raise
        return exc.code
    except tuple(_FAILURES) as exc:
        status, code = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
        _log(f"{status}: {exc}")
        results = exc.results if isinstance(exc, _Stop) else {"error": str(exc)}
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
