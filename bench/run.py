"""Benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs from the root of a checkout and imports codiffsp from its ``src``
directory only.  Human-readable lines go first; the last line of standard
output is the JSON result.  Exits 1 when a correctness gate fails and 2 when
the sources or the workload are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pinned before numpy loads: one BLAS thread, serial scenario loops.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CODIFFSP_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None, workloads=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "codiffsp" / "__init__.py").is_file():
        print(f"codiffsp sources not found under {SRC}", file=sys.stderr)
        return 2
    for p in (str(BENCH_DIR), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import codiffsp

    if not Path(codiffsp.__file__).resolve().is_relative_to(SRC):
        print(f"codiffsp was imported from {codiffsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    known = workloads or harness.WORKLOADS
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {', '.join(sorted(known))}",
              file=sys.stderr)
        return 2
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), known)
    print(json.dumps(out.report, indent=1, sort_keys=True, default=float))
    print(harness.result_line(out))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
