"""Time a fresh process that imports codiffsp and builds problems.

Usage: python3 setup_probe.py '{"seeds": [...], "dims": {...}}'
Prints {"setup_s": scaled seconds, "raw_s": wall seconds}.

numpy and scipy are imported before the clock starts: their import time is
not codiffsp's to change and is the noisiest part of process start-up on a
shared host.  The timed part (importing codiffsp's own modules, generate,
the JSON round trip) is scaled like the phase times, by reference probes
run in this process just before and after it.
"""

import json
import statistics
import sys
import time

import numpy  # noqa: F401
import scipy.optimize  # noqa: F401

from speed import REF_S, probe_time

before = [probe_time() for _ in range(3)]
t0 = time.perf_counter()
import codiffsp as cs  # noqa: E402  (the import is what is timed)

spec = json.loads(sys.argv[1])
for seed in spec["seeds"]:
    cs.load_problem(json.dumps(cs.serialize_problem(cs.generate(seed, **spec["dims"]))))
raw = time.perf_counter() - t0
after = [probe_time() for _ in range(3)]
print(json.dumps({"setup_s": raw * REF_S / statistics.fmean(before + after), "raw_s": raw}))
