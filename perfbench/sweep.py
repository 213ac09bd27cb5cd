"""Run the benchmark over several seeds and report each metric's median and spread.

Run from the repository root, one workload process at a time:

    python3 perfbench/sweep.py --workloads corpus families --seeds 1-10 --seconds 20

For every workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median. The per-run results go to
``perfbench/out/sweep_<workload>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "record": json.loads(lines[-2])})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        names = runs[0]["metrics"]
        table = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, row in table.items():
            print(f"  {name:42s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.2%}")
        out = HERE / "out" / f"sweep_{workload}_trace{args.trace}.json"
        out.write_text(json.dumps({"workload": workload, "seconds": args.seconds, "runs": runs,
                                   "summary": table}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
