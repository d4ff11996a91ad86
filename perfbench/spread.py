"""Run one workload over seeds 1-10 and print each end-to-end metric's quartile spread.

    python3 perfbench/spread.py --workload long_word

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; a benchmark is steady when every
end-to-end spread sits well inside the metric's bound in BENCHMARK.json.
Runs go one after another, never in parallel, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)  # the tuning and gating seeds; 7919 stays reserved for confirming claims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict = {}
    for seed in SEEDS:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads(done.stdout.splitlines()[-2])
        print(json.dumps({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                          "samples": record["samples"], "metrics": record["metrics"]}), file=sys.stderr)

    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        flag = "ok" if spread < bound / 3 else "WIDE" if spread > bound else ">1/3"
        print(f"{name:42} median {median:12.6g}  spread {spread:7.3f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
