"""geomforge workload benchmark.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's steps (see workloads.py), each in a fresh interpreter
and one child at a time, until the next iteration would pass S seconds.
Every output is checked.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb), with --trace 1 the
per-layer ones from iterations that alternate plain and traced runs.
Exits 2 without a result when the checkout holds no geomforge sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run ends by this many seconds after it starts, whatever its steps do
DEADLINE_S = 150.0


def run_step(step: workloads.Step, work: Path, timeout: float, trace_file: Path | None) -> dict:
    """One child process; returns its result dict with ``errors`` filled in."""
    spec = {"kind": step.kind, "argv": list(step.argv), "op": step.op,
            "input": step.input, "reference": str(work / "reference.json"),
            "trace": str(trace_file) if trace_file else None}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec), repr(spawned)],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{step.name}: timed out after {timeout:.0f} s"]}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": [f"{step.name}: child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return result


def measure(steps: list, work: Path, seconds: int, trace: bool) -> dict:
    """Iterate the workload; returns per-mode, per-step lists of checked
    child results."""
    golden = workloads.load_golden()
    modes = ("plain", "traced") if trace else ("plain",)
    samples = {mode: {step.name: [] for step in steps} for mode in modes}
    started = time.monotonic()
    iterations = 0
    while True:
        for mode in modes:
            for step in steps:
                remaining = DEADLINE_S - (time.monotonic() - started)
                if remaining <= 0:
                    return samples
                spans = work / f"{step.name}.spans" if mode == "traced" else None
                result = run_step(step, work, remaining, spans)
                if step.kind == "cli" and "exit" in result:
                    result["errors"] += workloads.check_cli(step, result["stdout"], result["exit"], golden)
                if spans is not None and spans.exists():
                    result["layers"] = tracer.summarize(spans)
                    spans.unlink()
                samples[mode][step.name].append(result)
        iterations += 1
        elapsed = time.monotonic() - started
        if elapsed * (iterations + 1) / iterations > seconds:
            return samples


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def _step_medians(per_step: dict, key: str) -> dict:
    return {name: _median([r[key] for r in results if not r["errors"]]) for name, results in per_step.items()}


def end_to_end(samples: dict) -> dict:
    plain = samples["plain"]
    walls = _step_medians(plain, "wall_s")
    rss = _step_medians(plain, "rss_mb")
    setups = [r["setup_s"] for results in plain.values() for r in results if "setup_s" in r]
    return {
        "wall_s": {"value": sum(walls.values()), "unit": "s"},
        "setup_s": {"value": _median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(rss.values()), "unit": "MB"},
    }


def per_layer(samples: dict, workload: str) -> tuple[dict, list[str]]:
    """Layer metrics summed over steps: times are per-step medians over the
    traced iterations, counts come from the first one and must repeat."""
    notes = []
    totals = dict.fromkeys(tracer.TIME_METRICS + tracer.COUNT_METRICS, 0)
    for name, results in samples["traced"].items():
        layers = [r["layers"] for r in results if not r["errors"] and "layers" in r]
        if not layers:
            continue
        for metric in tracer.TIME_METRICS:
            totals[metric] += _median([layer[metric] for layer in layers])
        for metric in tracer.COUNT_METRICS:
            if any(layer[metric] != layers[0][metric] for layer in layers):
                notes.append(f"{name}: {metric} differs between traced iterations")
            totals[metric] += layers[0][metric]
    plain = sum(_step_medians(samples["plain"], "wall_s").values())
    traced = sum(_step_medians(samples["traced"], "wall_s").values())
    metrics = {m: {"value": v, "unit": "s" if m in tracer.TIME_METRICS else "count"} for m, v in totals.items()}
    metrics["trace.overhead_frac"] = {"value": (traced - plain) / plain, "unit": "ratio"}

    self_times = {layer: totals[f"{layer}.self_s"] for layer in tracer.LAYERS}
    measured = max(self_times, key=self_times.get)
    share = self_times[measured] / (sum(self_times.values()) or 1)
    predicted = workloads.PREDICTED_DOMINANT[workload]
    verdict = "as predicted" if measured == predicted else f"finding: not the predicted {predicted}"
    notes.append(f"dominant layer: predicted {predicted}, measured {measured} "
                 f"({share:.0%} of traced self time) - {verdict}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geomforge" / "cli.py").is_file():
        print(f"perfbench: no geomforge sources in {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        steps = workloads.steps(args.workload, args.seed, work)
        # compile bytecode before timing, as an installed package would have
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import geomforge.cli, geomforge.m22"], cwd=ROOT, check=True, timeout=60)
        samples = measure(steps, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for per_mode in samples.values() for per_step in per_mode.values() for r in per_step]
    failed = [r for r in results if r["errors"]]
    for name, per_step in samples["plain"].items():
        walls = [r["wall_s"] for r in per_step if not r["errors"]]
        print(f"{name}: median {_median(walls):.3f} s over {len(walls)} runs")
    for r in failed:
        print("FAILED " + "; ".join(r["errors"]))
    print(f"fail_frac = {len(failed)}/{len(results)} = {len(failed) / max(len(results), 1):.4f}")
    if args.trace:
        metrics, notes = per_layer(samples, args.workload)
        print("\n".join(notes))
    else:
        metrics = end_to_end(samples)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
