"""Print the byte guards quoted for a change that keeps, or knowingly moves,
the library's results.

    python tools/guard_hashes.py

Runs from any directory; imports codiffsp from the checkout's ``src`` and
the benchmark's ``bench/harness.py``, which it only reads.  BLAS is pinned
to one thread, as ``bench/run.py`` pins it.  Four lines follow, each a
sha256 cut to its first 16 hex digits:

    solvers    the 36 S = 3 solver reports: generate(s, d=2, m=2, S=3, l=2,
               dc=True) for s = 1000..1011, c = 10 from the witness,
               dca_solve and codiff_descent at SolveOpts() and dca_solve at
               SolveOpts(max_iter=1, escalate=False), in that order per
               seed; one hash updated per report with repr((status,
               iterates, value.hex(), phi.hex(), c_final.hex(), exhaustive,
               hex history)), then x's bytes, then y's bytes.  The
               line ends with the total iterations of the full solves,
               codiff_descent's (cd) and dca_solve's at SolveOpts() (dca).
    dca_step   harness.canonical of one untimed pass's records over the
               workload's seeds 52000..52119, with failed/attempted.
    wide_eval  the same over seeds 91000..91017.
    nondeg     check_nondegeneracy(p, samples, seed=s) at 200 and at 600
               samples, which cross a NONDEG_BLOCK boundary, on p =
               generate(s, d=2, m=2, S, l=2, dc=True) for s = 52000..52029
               at S = 3, s = 91000..91005 at S = 100 and s = 1003 at S = 3
               (whose first round finds no infeasible point); one hash
               updated per report with repr((sampled_points,
               min_hull_distance.hex(), witness_scenario)), then the
               witness x's and y's bytes (b"None" when absent).

It takes about ten seconds on one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CODIFFSP_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import codiffsp as cs  # noqa: E402
import harness  # noqa: E402


def _hex16(h) -> str:
    return h.hexdigest()[:16]


def solver_reports() -> str:
    h = hashlib.sha256()
    runs = (("dca", cs.dca_solve, cs.SolveOpts()), ("cd", cs.codiff_descent, cs.SolveOpts()),
            (None, cs.dca_solve, cs.SolveOpts(max_iter=1, escalate=False)))
    iterations = {"cd": 0, "dca": 0}
    for seed in range(1000, 1012):
        p = cs.generate(seed, d=2, m=2, S=3, l=2, dc=True)
        for name, solve, opts in runs:
            r = solve(p, 10.0, p.witness, opts)
            if name:
                iterations[name] += r.iterates
            h.update(repr((r.status, r.iterates, r.final_value.hex(), r.final_phi.hex(),
                           r.c_final.hex(), r.exhaustive,
                           [[float(v).hex() for v in e] for e in r.history])).encode())
            h.update(r.final_point.x.tobytes())
            h.update(r.final_point.y.tobytes())
    return f"{_hex16(h)} iterations cd {iterations['cd']} dca {iterations['dca']}"


def one_pass(name: str, seed: int) -> str:
    wl = harness.WORKLOADS[name]
    seeds = range(seed, seed + wl.instances)
    ps = harness.run_pass(wl, harness.build_items(seeds, harness.build_problems(wl, seeds)))
    digest = _hex16(hashlib.sha256(harness.canonical(ps.records).encode()))
    return f"{digest} failed {ps.failed} of {ps.attempted}"


def nondeg_reports() -> str:
    h = hashlib.sha256()
    cases = ([(s, 3) for s in range(52000, 52030)] + [(s, 100) for s in range(91000, 91006)]
             + [(1003, 3)])
    for seed, S in cases:
        p = cs.generate(seed, d=2, m=2, S=S, l=2, dc=True)
        for samples in (200, 600):
            r = cs.check_nondegeneracy(p, samples=samples, seed=seed)
            h.update(repr((r.sampled_points, r.min_hull_distance.hex(),
                           r.witness_scenario)).encode())
            for w in (r.witness_x, r.witness_y):
                h.update(b"None" if w is None else w.tobytes())
    return _hex16(h)


def main() -> int:
    print(f"solvers    {solver_reports()}")
    print(f"dca_step   {one_pass('dca_step', 52000)}")
    print(f"wide_eval  {one_pass('wide_eval', 91000)}")
    print(f"nondeg     {nondeg_reports()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
