"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/summarize.py --workloads pipeline wide cube3 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 35 [--trace 1] [--json FILE]

Runs are made one after another, each in its own process.  For each
workload and metric it prints the median, the first and third quartiles
(as `statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median.  With `--json`
the values of every run are written out as well, which is the format of
`baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's values and the summary here")
    args = parser.parse_args(argv)

    summary = {}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
        if not runs:
            continue
        summary[workload] = {
            name: {"unit": runs[0][name]["unit"], **summarise([r[name]["value"] for r in runs])}
            for name in runs[0]
        }
        for name, entry in summary[workload].items():
            print(f"{workload:9} {name:45} median {entry['median']:<12.6g} "
                  f"q1 {entry['q1']:<12.6g} q3 {entry['q3']:<12.6g} "
                  f"spread {entry['spread']:.4f} {entry['unit']}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
             "workloads": summary}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
