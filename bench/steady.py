"""Steadiness report: run the benchmark several times per workload, each
with another seed, and give the median, quartiles and spread per metric.

    python3 bench/steady.py --seeds 1000,2000,3000 [--workloads a,b] [--trace 0|1]

Seeds far apart keep the instance windows (seed, seed + 1, ...) of two runs
from overlapping, which would understate the spread.  Spread is
(Q3 - Q1) / median with quartiles from statistics.quantiles(n=4); the
benchmark aims to keep it below a third of each metric's bound.  Runs go one
after another, never in parallel.  Prints a markdown table; --json also
writes every run's result line to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write all result lines to this file")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    print("| workload | metric | unit | n | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for wl in args.workloads.split(","):
        results = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            results.append(result)
        runs[wl] = results
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name, "")
            print(f"| {wl} | {name} | {first['unit']} | {len(vals)} | {med:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {spread:.3f} | {bound} |", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
