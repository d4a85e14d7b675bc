"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, one run at a time:

    python3 perfbench/collect.py --seeds 1-10 --seconds 30 --trace 0 \
        --out summary.json grow deep resume

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, which is the
interquartile distance as a share of the median, beside a third of the
metric's bound from BENCHMARK.json. Every run's last stdout line is kept in
the summary file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="summary JSON path")
    args = parser.parse_args(argv)
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "seeds": seeds(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary['workloads'][workload]['correct']} "
              f"attempted={[r['attempted'] for r in runs]}")
        for name, m in metrics.items():
            limit = f"  bound/3 {bounds[name] / 3:.3f}" if name in bounds else ""
            print(f"  {name:42s} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} "
                  f"q3 {m['q3']:<14.6g} spread {m['spread']:.4f}{limit}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
