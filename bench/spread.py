"""Run one workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload qos_stream --seeds 1 2 3 4 5

Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, the figure the
bounds in BENCHMARK.json are set against.  Raw results go to
.bench_out/spread_<workload>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        line = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(line)
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out",
                           f"spread_{args.workload}_trace{args.trace}.json"), "w") as handle:
        json.dump(runs, handle, indent=1)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "  ok" if spread <= bound / 3 else "  within bound" if spread <= bound
            else "  OVER BOUND")
        print(f"{name:36s} median {median:12.6g}  spread {spread:7.2%}"
              + (f"  bound {bound:.0%}{verdict}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
