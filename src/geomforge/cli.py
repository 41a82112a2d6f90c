"""Command-line front end.

One JSON report per run on stdout, human-readable logs on stderr.  Exit
codes: 0 ok, 2 a verification failed, 3 capacity or overflow, 4 malformed
input or usage.  Every randomized subcommand requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import build, cover, gf2, geom, local, natrep
from .geom import Geometry
from .perm import CapacityError

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CAPACITY = 3
EXIT_BAD_INPUT = 4

_BUILTIN_NAMES = ("petersen", "pg", "sp", "gq22", "tilde", "m22")


class _Stop(RuntimeError):
    """Ends a command with a report of ``results`` under ``status``."""

    status, exit_code = "check-failed", EXIT_CHECK_FAILED

    def __init__(self, results: dict):
        super().__init__(results)
        self.results = results


class CheckFailed(_Stop):
    """A verification failed."""


class _Capacity(_Stop):
    """A bounded computation overflowed."""

    status, exit_code = "capacity", EXIT_CAPACITY


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _digest_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(command: str, inputs: dict, results: dict, status: str, started: float) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _builtin_metadata(name: str, n: int | None, seed: int | None) -> build.ConstructionMetadata:
    if name == "petersen":
        return build.petersen_geometry()
    if name == "pg":
        if n is None:
            raise ValueError("--n is required for the pg builtin")
        return build.projective_geometry_2(n)
    if name == "sp":
        if n is None:
            raise ValueError("--n is required for the sp builtin")
        return build.symplectic_polar_space(n)
    if name == "gq22":
        return build.symplectic_polar_space(2)
    if name == "tilde":
        if seed is None:
            raise ValueError("--seed is required for the tilde builtin")
        return build.tilde_geometry(seed)
    if name == "m22":
        if seed is None:
            raise ValueError("--seed is required for the m22 builtin")
        # imported on use: no other command needs it, and importing it
        # adds a few milliseconds to every CLI start
        from . import m22

        return m22.build_m22_geometry(seed)
    raise ValueError(f"unknown builtin {name!r}; choose from {_BUILTIN_NAMES}")


def _builtin(args) -> tuple[build.ConstructionMetadata, dict]:
    """The builtin that ``args`` names, and the report inputs naming it."""
    inputs = {"builtin": args.builtin}
    for key in ("n", "seed"):
        if getattr(args, key) is not None:
            inputs[key] = getattr(args, key)
    return _builtin_metadata(args.builtin, args.n, args.seed), inputs


def _load_geometry(args) -> tuple[Geometry, dict]:
    if args.input:
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
    if args.action != "dim":
        raise ValueError(f"unknown natrep action {args.action!r}")
    if args.split:
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
    inputs = {"input": _digest_file(args.input), "subgroup": list(args.subgroup)}
    complex_ = _load_complex(args.input)
    if args.triangulable:
        verdict = cover.is_triangulable(complex_, limit=args.limit)
        results = {"triangulable": verdict.verdict, "reason": verdict.reason}
        if args.homology_prime:
            results["homology_rank"] = cover.homology_rank(complex_, args.homology_prime)
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
    if args.action == "kernels":
        # one series serves the report and condition (*); a negative s_max
        # goes through unchanged so that kernel_series refuses it
        radius = max(args.smax, g.rank - 1) if args.smax >= 0 else args.smax
        series = local.kernel_series(meta, vertex, radius)
        results = local.KernelSeriesReport(vertex, series.orders[: args.smax + 1]).to_json()
        results["condition_star"] = local.condition_star(meta, series)
        return inputs, results
    raise ValueError(f"unknown local action {args.action!r}")


def _cmd_hyp61(args):
    meta, inputs = _builtin(args)
    g = meta.geometry
    delta = geom.derived_graph(g)
    action = meta.action.restricted(g.elements_of_type(g.rank))
    report = local.hypothesis_61_check(delta, action)
    return inputs, report.to_json()


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s] if args.sizes else []
    inputs = {"sizes": sizes, "seed": args.seed}
    rng = np.random.default_rng(args.seed)
    rows = []
    for size in sizes:
        if size <= 0:
            raise ValueError("sizes must be positive")
        dense = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
        matrix = gf2.MatrixGFp.from_rows(2, dense)
        started = time.monotonic()
        rank = matrix.rank()
        elapsed = time.monotonic() - started
        # timings go to stderr only, keeping the stdout report byte-stable
        rows.append({"size": size, "rank": rank})
        _log(f"rank of random {size}x{size}: {rank} in {elapsed * 1000:.1f} ms")
    return inputs, {"table": rows}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomforge",
        description="diagram geometries of Petersen and tilde type: "
        "constructions, verification and analysis",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="parallelism cap; results are independent of it")
    sub = parser.add_subparsers(dest="command")

    def add_geometry_source(p):
        p.add_argument("--input", help="geometry JSON file")
        p.add_argument("--builtin", choices=_BUILTIN_NAMES)
        p.add_argument("--n", type=int, help="rank parameter for pg/sp")
        p.add_argument("--seed", type=int, help="seed for randomized builtins")

    p_build = sub.add_parser("build", help="construct a builtin geometry")
    p_build.add_argument("--builtin", required=True, choices=_BUILTIN_NAMES)
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--seed", type=int)
    p_build.add_argument("--out", help="write the geometry JSON here")

    p_tilde = sub.add_parser("tilde", help="tilde geometry shortcuts")
    tilde_sub = p_tilde.add_subparsers(dest="tilde_action")
    p_tilde_build = tilde_sub.add_parser("build")
    p_tilde_build.add_argument("--seed", type=int, required=True)
    p_tilde_build.add_argument("--out")

    p_verify = sub.add_parser("verify", help="check the geometry axioms")
    add_geometry_source(p_verify)

    p_diagram = sub.add_parser("diagram", help="classify rank-2 residues")
    add_geometry_source(p_diagram)

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
    p_local.add_argument("--builtin", required=True, choices=_BUILTIN_NAMES)
    p_local.add_argument("--n", type=int)
    p_local.add_argument("--seed", type=int)
    p_local.add_argument("--vertex", type=int, default=0,
                         help="index of the top-type element to analyse")
    p_local.add_argument("--smax", type=int, default=2)

    p_hyp = sub.add_parser("hyp61", help="girth-5 hypothesis check")
    p_hyp.add_argument("--builtin", required=True, choices=_BUILTIN_NAMES)
    p_hyp.add_argument("--n", type=int)
    p_hyp.add_argument("--seed", type=int)

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    if args.threads < 1:
        _log("--threads must be at least 1")
        return EXIT_BAD_INPUT
    command = args.command
    if command is None:
        parser.print_usage(sys.stderr)
        return EXIT_BAD_INPUT
    if command == "tilde":
        if getattr(args, "tilde_action", None) != "build":
            _log("usage: geomforge tilde build --seed S [--out FILE]")
            return EXIT_BAD_INPUT
        command = "build"
        args.builtin = "tilde"
        args.n = None
    handler = _HANDLERS[command]
    try:
        inputs, results = handler(args)
    except _Stop as exc:
        _emit(command, {}, exc.results, exc.status, started)
        return exc.exit_code
    except build.ConstructionError as exc:
        _log(f"construction check failed: {exc}")
        _emit(command, {}, {"error": str(exc)}, "check-failed", started)
        return EXIT_CHECK_FAILED
    except CapacityError as exc:
        _log(f"capacity: {exc}")
        _emit(command, {}, {"error": str(exc)}, "capacity", started)
        return EXIT_CAPACITY
    except (
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        geom.GeometryError,
        cover.PresentationError,
        gf2.ShapeError,
    ) as exc:
        _log(f"bad input: {exc}")
        _emit(command, {}, {"error": str(exc)}, "bad-input", started)
        return EXIT_BAD_INPUT
    _emit(command, inputs, results, "ok", started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
