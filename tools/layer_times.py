"""Print where the descent engine's time goes, layer by layer.

    python tools/layer_times.py 3 100 400:60 1000:20 [--seed 1001] [--c 10]
    python tools/layer_times.py --pass dca_step [--seed 52000]

Runs from any directory; imports codiffsp from the checkout's ``src`` and
pins BLAS to one thread.  The layers are timed by wrapping library
functions from outside, so the library itself counts nothing:

    nu          expectation.BlockCodiff.least_norm
    kernel      the _minnorm solves nu calls (_least_norm and the paths it
                dispatches to, counted once at the outermost call)
    model       solvers._model_start
    rows pass   solvers._value

Each positional ``S[:N]`` runs codiff_descent on generate(seed, d=2, m=2,
S, l=2, dc=True) at c from the witness, capped at N iterations (all when
N is absent), and prints one row of the per-iteration table: ms per
iteration of the whole solve and of each layer, then nu's calls and its
microseconds per call inside and outside the kernel.

``--pass NAME`` instead runs one untimed pass of the benchmark workload
NAME (``bench/harness.py``, which it only reads) from instance seed
``--seed`` and prints each layer's total over the pass with nu's per-call
split.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import codiffsp as cs  # noqa: E402
from codiffsp import _minnorm, expectation, solvers  # noqa: E402

KERNEL = ("_least_norm", "_segments_least_norm", "_blocks_least_norm")


class Timers:
    """Seconds and calls per layer, gathered by the wrappers of install()."""

    def __init__(self):
        self.s = dict.fromkeys(("nu", "kernel", "model", "rows"), 0.0)
        self.calls = dict.fromkeys(self.s, 0)
        self.in_nu = False
        self.depth = 0


def _timed(t: Timers, name: str, fn):
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t.s[name] += time.perf_counter() - start
            t.calls[name] += 1
    return wrapped


def _kernel(t: Timers, fn):
    def wrapped(*args, **kwargs):
        if not t.in_nu or t.depth:
            return fn(*args, **kwargs)
        t.depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t.s["kernel"] += time.perf_counter() - start
            t.calls["kernel"] += 1
            t.depth -= 1
    return wrapped


def _nu(t: Timers, fn):
    def wrapped(*args, **kwargs):
        t.in_nu = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t.s["nu"] += time.perf_counter() - start
            t.calls["nu"] += 1
            t.in_nu = False
    return wrapped


def install(t: Timers) -> None:
    """Wrap the layers everywhere codiffsp's modules bind them."""
    swaps = {getattr(_minnorm, name): _kernel(t, getattr(_minnorm, name))
             for name in KERNEL if hasattr(_minnorm, name)}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "codiffsp" or name.startswith("codiffsp.")):
            for key, val in list(vars(mod).items()):
                if callable(val) and val in swaps:
                    setattr(mod, key, swaps[val])
    bc = expectation.BlockCodiff
    bc.least_norm = _nu(t, bc.least_norm)
    solvers._model_start = _timed(t, "model", solvers._model_start)
    solvers._value = _timed(t, "rows", solvers._value)


def descent_row(t: Timers, S: int, cap: int | None, seed: int, c: float) -> str:
    p = cs.generate(seed, d=2, m=2, S=S, l=2, dc=True)
    opts = cs.SolveOpts(cd_max_iter=cap) if cap else cs.SolveOpts()
    t.__init__()
    start = time.perf_counter()
    rep = cs.codiff_descent(p, c, p.witness, opts)
    wall = time.perf_counter() - start
    it = max(rep.iterates, 1)
    per = {k: 1e3 * v / it for k, v in t.s.items()}
    n = max(t.calls["nu"], 1)
    inside, outside = 1e6 * t.s["kernel"] / n, 1e6 * (t.s["nu"] - t.s["kernel"]) / n
    return (f"| {S} ({rep.iterates}, {rep.status}) | {1e3 * wall / it:.2f} | {per['nu']:.2f} | "
            f"{per['kernel']:.2f} | {per['model']:.3f} | {per['rows']:.3f} | {t.calls['nu']} | "
            f"{inside:.1f} | {outside:.1f} |")


def bench_pass(t: Timers, name: str, seed: int) -> None:
    import harness

    wl = harness.WORKLOADS[name]
    seeds = range(seed, seed + wl.instances)
    items = harness.build_items(seeds, harness.build_problems(wl, seeds))
    t.__init__()
    start = time.perf_counter()
    harness.run_pass(wl, items)
    wall = time.perf_counter() - start
    print(f"{name} from seed {seed}: one pass, {wall:.3f} s wall")
    for k in t.s:
        print(f"  {k:7s} {t.calls[k]:6d} calls  {1e3 * t.s[k]:9.1f} ms")
    n = max(t.calls["nu"], 1)
    print(f"  nu per call: {1e6 * t.s['kernel'] / n:.1f} us in the kernel, "
          f"{1e6 * (t.s['nu'] - t.s['kernel']) / n:.1f} us outside it")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sizes", nargs="*", help="S or S:N, N the iteration cap")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--c", type=float, default=10.0)
    ap.add_argument("--pass", dest="workload", default=None)
    args = ap.parse_args()
    t = Timers()
    install(t)
    if args.workload:
        bench_pass(t, args.workload, 52000 if args.seed is None else args.seed)
        return 0
    print("| S (iterations, status) | ms/iter | nu | nu's kernel | _model_start | rows pass "
          "(_value) | nu calls | kernel us/call | outside us/call |")
    print("|---|---|---|---|---|---|---|---|---|")
    for spec in args.sizes:
        S, _, cap = spec.partition(":")
        print(descent_row(t, int(S), int(cap) if cap else None,
                          1001 if args.seed is None else args.seed, args.c), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
