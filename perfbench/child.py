"""Run one benchmark step in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start plus ``import geomforge.cli``.
SPEC_JSON holds the step: {"kind": "cli", "argv": [...]} runs the command
line in process, {"kind": "lib", "op": ..., "input": dir, "reference": file}
runs a linalg operation.  With "trace": FILE the layers are wrapped and the
spans written to FILE after the step.  One JSON line on stdout reports the
result.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import geomforge.cli  # noqa: E402  (the import is part of what setup_s measures)

SETUP_S = time.monotonic() - float(sys.argv[2])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _layers() -> dict:
    import geomforge.m22
    from geomforge import build, cli, cover, geom, gf2, graphs, local, natrep, perm

    return {
        "perm": perm, "gf2": gf2, "geom": geom, "build": build, "natrep": natrep,
        "cover": cover, "local": local, "graphs": graphs, "m22": geomforge.m22, "cli": cli,
    }


def _run_cli(spec: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = geomforge.cli.main(spec["argv"])
        wall = time.perf_counter() - started
    return {"wall_s": wall, "exit": code, "stdout": out.getvalue(), "errors": []}


def _run_lib(spec: dict) -> dict:
    import linalg
    from geomforge import gf2

    arrays = linalg.load(spec["input"])
    with open(spec["reference"], encoding="utf-8") as fh:
        ref = json.load(fh)
    wall, outputs = linalg.run(spec["op"], gf2, arrays)
    return {"wall_s": wall, "exit": 0, "stdout": "", "errors": linalg.check(spec["op"], arrays, ref, outputs)}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(_layers())
    try:
        result = (_run_cli if spec["kind"] == "cli" else _run_lib)(spec)
    except Exception:  # a traceback is a failed step, reported to the parent
        result = {"wall_s": None, "exit": None, "stdout": "", "errors": [traceback.format_exc()]}
    result["setup_s"] = SETUP_S
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
