"""Record the golden CLI reports the benchmark checks every run against.

Usage: python3 perfbench/record_golden.py

Runs each CLI step once per pool seed it can take (file inputs from seed 0)
and writes golden.json next to this file.  It refuses to write when a
report breaks a value the theory fixes, and first checks the tilde pool:
each seed must build the tilde geometry with 45 points, 45 lines and a
group of order 2160.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    golden: dict = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        work = Path(tmp)
        for t in workloads.TILDE_SEEDS:
            step = workloads.Step("build-tilde", ("build", "--builtin", "tilde", "--seed", str(t)))
            report = json.loads(run.run_step(step, work, 120, None)["stdout"])["results"]
            if (report["counts"], report["group_order"]) != ([45, 45], 2160):
                print(f"tilde seed {t}: {report}", file=sys.stderr)
                return 1
        pool_keys = [f"build-m22@{s}" for s in workloads.M22_SEEDS] + [
            f"{name}@{t}" for name in ("local-kernels-tilde", "hyp61-tilde") for t in workloads.TILDE_SEEDS
        ]
        for workload in ("groups", "geometry", "cosets"):
            # file inputs give seed-independent reports; groups runs seeds
            # until every pool member has been drawn
            for seed in range(1000):
                for step in workloads.steps(workload, seed, work / str(seed)):
                    if step.golden in golden:
                        continue
                    result = run.run_step(step, work, 120, None)
                    golden[step.golden] = {"exit": result["exit"], "report": workloads.normalized(step, result["stdout"])}
                    errors = workloads.check_cli(step, result["stdout"], result["exit"], golden)
                    if errors:
                        print("\n".join(errors), file=sys.stderr)
                        return 1
                    print(f"recorded {step.golden}", flush=True)
                if workload != "groups" or all(key in golden for key in pool_keys):
                    break
    workloads.GOLDEN_PATH.write_text(json.dumps(dict(sorted(golden.items())), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
