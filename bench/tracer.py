"""Span tracer that wraps public codiffsp functions from outside the package.

Modules bind library functions at import time (``from ._minnorm import
min_norm_point`` in codiff, penalty, optimality and solvers; ``evaluate`` in
five modules; ``is_smooth_struct`` in codiff).  Patching one module would
miss the calls made through the others, so ``Tracer.install`` rebinds every
name in every ``codiffsp`` module that refers to the wrapped function, and
``Tracer.uninstall`` puts the originals back.

Spans (name, start, end, parent, phase) are kept in memory; self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute); the prefix names the layer
TARGETS = (
    ("expr.evaluate", "codiffsp.expr", "evaluate"),
    ("expr.evaluate_batch", "codiffsp.expr", "evaluate_batch"),
    ("expr.is_smooth_struct", "codiffsp.expr", "is_smooth_struct"),
    ("codiff.codiff", "codiffsp.codiff", "codiff"),
    ("codiff.quasidiff", "codiffsp.codiff", "quasidiff"),
    ("minnorm", "codiffsp._minnorm", "min_norm_point"),
    ("expectation.eval_I", "codiffsp.expectation", "eval_I"),
    ("expectation.block_codiff", "codiffsp.expectation", "block_codiff"),
    ("penalty.Phi_c", "codiffsp.penalty", "Phi_c"),
    ("penalty.phi_l1", "codiffsp.penalty", "phi_l1"),
    ("penalty.penalty_codiff", "codiffsp.penalty", "penalty_codiff"),
    ("penalty.check_nondegeneracy", "codiffsp.penalty", "check_nondegeneracy"),
    ("solvers.codiff_descent", "codiffsp.solvers", "codiff_descent"),
    ("solvers.dca_solve", "codiffsp.solvers", "dca_solve"),
    ("solvers.convex_subsolve", "codiffsp.solvers", "convex_subsolve"),
    ("solvers.dc_decompose", "codiffsp.solvers", "dc_decompose"),
    ("optimality.check_optimality", "codiffsp.optimality", "check_optimality"),
    ("optimality.inf_stationarity_measure", "codiffsp.optimality", "inf_stationarity_measure"),
    ("model.generate", "codiffsp.model", "generate"),
    ("model.load_problem", "codiffsp.model", "load_problem"),
    ("model.is_feasible", "codiffsp.model", "is_feasible"),
)

INTERIOR_TOL = 1e-9  # ||q|| at or below this counts as 0 in the hull
GAP_TOL = 1e-10  # the min-norm kernel's own stopping tolerance


class Tracer:
    """Records spans and counters while installed; not thread-safe (the
    benchmark runs the library serially)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.phase = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.phase)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "codiffsp" or k.startswith("codiffsp."))]
        for name, modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def top_level_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, phase in self.spans:
            if parent < 0:
                out[phase] += t1 - t0
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        own_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            own_s[span[0]] += own
        out: dict[str, float] = {}
        for name, _mod, _attr in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own_s[name]
        c, mx = self.counts, self.maxima
        out["expr.evaluate_batch.points"] = c["evaluate_batch.points"]
        out["codiff.codiff.vertices"] = c["codiff.vertices"]
        out["codiff.codiff.max_vertices"] = mx["codiff.vertices"]
        n_mnp = calls["minnorm"]
        out["minnorm.vertices"] = c["minnorm.vertices"]
        out["minnorm.max_k"] = mx["minnorm.k"]
        out["minnorm.interior_frac"] = c["minnorm.interior"] / n_mnp if n_mnp else 0.0
        out["minnorm.gap_ok_frac"] = c["minnorm.gap_ok"] / n_mnp if n_mnp else 0.0
        out["penalty.nondeg.sampled_points"] = c["nondeg.sampled_points"]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as compressed numpy columns: span i has name
        names[name_id[i]], start/end in seconds from the first span, the
        index of its parent (-1 at top level) and phases[phase_id[i]]."""
        names = sorted({s[0] for s in self.spans})
        phases = sorted({s[4] for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        phase_id = {p: i for i, p in enumerate(phases)}
        cols = list(zip(*self.spans)) or [(), (), (), (), ()]
        start = np.array(cols[1], dtype=np.float64)
        base = start[0] if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(names),
            phases=np.array(phases),
            name_id=np.array([name_id[n] for n in cols[0]], dtype=np.int16),
            start=start - base,
            end=np.array(cols[2], dtype=np.float64) - base,
            parent=np.array(cols[3], dtype=np.int64),
            phase_id=np.array([phase_id[p] for p in cols[4]], dtype=np.int16),
        )


# -- per-call observers: counts gathered at the same boundaries as spans --


def _obs_batch(tr, args, kwargs, out):
    tr.counts["evaluate_batch.points"] += np.shape(out)[0]


def _obs_codiff(tr, args, kwargs, out):
    k = out.hypo.shape[0] + out.hyper.shape[0]
    tr.counts["codiff.vertices"] += k
    tr.maxima["codiff.vertices"] = max(tr.maxima["codiff.vertices"], k)


def _obs_minnorm(tr, args, kwargs, out):
    V = np.atleast_2d(np.asarray(args[0] if args else kwargs["vertices"], dtype=np.float64))
    q = out[0]
    k = V.shape[0]
    tr.counts["minnorm.vertices"] += k
    tr.maxima["minnorm.k"] = max(tr.maxima["minnorm.k"], k)
    if float(np.linalg.norm(q)) <= INTERIOR_TOL:
        tr.counts["minnorm.interior"] += 1
    # Wolfe gap max_v <q, q - v>, recomputed from the returned point
    if float(q @ q - (V @ q).min()) <= GAP_TOL:
        tr.counts["minnorm.gap_ok"] += 1


def _obs_nondeg(tr, args, kwargs, out):
    tr.counts["nondeg.sampled_points"] += out.sampled_points


_OBSERVERS = {
    "expr.evaluate_batch": _obs_batch,
    "codiff.codiff": _obs_codiff,
    "minnorm": _obs_minnorm,
    "penalty.check_nondegeneracy": _obs_nondeg,
}
