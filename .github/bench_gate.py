"""Check the summary line a `bench/run.py` run printed last.

    python3 .github/bench_gate.py OUTPUT [--peak-mb MIB] [--p95-ms MS]

OUTPUT is the file the run's stdout was saved to.  The run must report
`correct: true` and no failed operation.  `--peak-mb` bounds its
`peak_rss_mb`; `--p95-ms` bounds its `verdict_tail_s`, which the
stalled_subscriber workload reports as the liveness probes' p95.  Exits 0
when every check holds, and 1, naming what failed, when one does not.
"""

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="check a bench run's summary line")
    parser.add_argument("output")
    parser.add_argument("--peak-mb", type=float)
    parser.add_argument("--p95-ms", type=float)
    args = parser.parse_args(argv)
    with open(args.output, encoding="utf-8") as handle:
        summary = json.loads(handle.read().splitlines()[-1])
    metrics = summary["metrics"]
    problems = []
    if summary["correct"] is not True:
        problems.append("the run is not correct")
    if summary["failed"] != 0:
        problems.append(f"{summary['failed']} operations failed")
    if args.peak_mb is not None and metrics["peak_rss_mb"]["value"] > args.peak_mb:
        problems.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']} > {args.peak_mb}")
    if args.p95_ms is not None and metrics["verdict_tail_s"]["value"] > args.p95_ms / 1000:
        problems.append(f"verdict_tail_s {metrics['verdict_tail_s']['value']} > "
                        f"{args.p95_ms / 1000}")
    for problem in problems:
        print(f"bench gate: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
