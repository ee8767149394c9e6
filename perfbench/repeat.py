"""Run one workload once per seed and summarise every metric.

    python3 perfbench/repeat.py --workload table_n3 [--runs 10] [--first-seed 1] [--trace 0]

Runs one after another, never side by side, each for the ``run_seconds``
of BENCHMARK.json.  For each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  The values of
every run go to ``.perfbench/repeat-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    summary = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
        print(f"{name:36s} median {med:12.6g} {metric['unit']:6s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {summary[name]['spread']:.4f}")
    out = ROOT / ".perfbench" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "run_seconds": seconds,
                               "seeds": [run["seed"] for run in runs],
                               "all_correct": all(run["correct"] for run in runs),
                               "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
