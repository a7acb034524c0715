"""Machine-speed scaling of measured times.

Shared hosts change speed by up to 2x for stretches of a second or more.
The benchmark times a fixed reference loop next to the library calls and
scales their wall time by REF_S / (probe time), so that figures read as
seconds on a machine that runs the probe in REF_S.  The loop is owned by
the benchmark, so it never changes with the code under test.  Needs only
numpy, so the set-up probe can use it before importing codiffsp.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0025  # nominal time of one reference probe
PROBE_EVERY_S = 0.25

_REF_M = np.random.default_rng(0).normal(size=(4, 4))
_REF_V = np.random.default_rng(1).normal(size=4)


def reference_work() -> float:
    """Fixed loop of small numpy operations and interpreter work, the same
    mix the library runs; owned by the benchmark so it never changes with
    the code under test."""
    acc = 0.0
    seen = {}
    for i in range(500):
        w = _REF_M @ _REF_V + i
        acc += float(w.max()) + float(np.dot(w, _REF_V))
        seen[i % 7] = acc
    return acc


def probe_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedClock:
    """Accumulates wall time per phase, scaled by the machine's speed.

    Shared hosts change speed by up to 2x within a second.  A reference
    probe (``reference_work``) runs after every PROBE_EVERY_S of work; each
    chunk of library time between two probes is multiplied by
    REF_S / mean(the two probe times), so the totals read as seconds on a
    machine that runs the probe in REF_S.  Raw wall time is kept as well.
    """

    def __init__(self, phases):
        self.scaled: dict = dict.fromkeys(phases, 0.0)
        self.raw: dict = dict.fromkeys(phases, 0.0)
        self._pending: dict = dict.fromkeys(phases, 0.0)
        self._last = probe_time()
        self._since = time.perf_counter()

    def add(self, phase: str, wall: float) -> None:
        self.raw[phase] += wall
        self._pending[phase] += wall
        if time.perf_counter() - self._since >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        probe = probe_time()
        factor = 2.0 * REF_S / (self._last + probe)
        for ph, wall in self._pending.items():
            self.scaled[ph] += wall * factor
            self._pending[ph] = 0.0
        self._last = probe
        self._since = time.perf_counter()
