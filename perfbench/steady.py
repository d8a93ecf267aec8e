#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/steady.py --workload serve_mix --runs 5

Runs `perfbench/run.py` `--runs` times on the default seed and `--runs`
times on a held-out seed, then prints, per end-to-end metric, each seed's
median and spread (interquartile distance as a share of the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to the bound
in BENCHMARK.json.  Exits 1 when any spread exceeds its bound, or when the
held-out seed's median is worse than the default seed's by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 42
HELD_OUT_SEED = 7


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}  # seed -> metric -> [value]
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for _ in range(args.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(seed, {}).setdefault(name, []).append(metric["value"])
    steady = True
    print(f"{'metric':14} {'bound':>6} " + " ".join(
        f"{f'seed {s} median':>18} {'spread':>7}" for s in values))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells, medians = [], []
        for seed in values:
            xs = values[seed][name]
            medians.append(statistics.median(xs))
            s = spread(xs)
            steady &= s <= bound
            cells.append(f"{medians[-1]:18.6g} {s:7.3f}")
        worse = medians[1] / medians[0] - 1
        if m["better"] == "higher":
            worse = -worse
        steady &= worse <= bound
        print(f"{name:14} {bound:6.2f} " + " ".join(cells) + f"  held-out worse by {worse:+.3f}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
