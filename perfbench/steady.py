"""Steadiness check: how far each end-to-end metric spreads across seeds.

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workloads standing served]

Runs ``perfbench/run.py`` once per seed (``--seed0``, ``--seed0 + 1``, ...)
for each workload, each in its own process, and prints, per end-to-end
metric, the median and the distance between the first and third
quartile as a share of the median, beside the metric's bound from
``BENCHMARK.json``.  A spread reads ``ok`` below a third of its bound.
The failed share of operations must be identical in every run; it is
printed per workload.  The bounds in ``BENCHMARK.json`` are set from this
command's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({(r["failed"] / r["attempted"]) for r in runs})
        print(f"{workload}: {len(runs)} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            share = spread(values)
            ok = share < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:<18} median {statistics.median(values):>12.4f}  "
                  f"spread {share:7.2%}  bound {bound:5.0%}  "
                  f"{'ok' if share < bound / 3 else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
