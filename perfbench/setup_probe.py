"""Time cohtrade's set-up in a fresh interpreter: import plus one warm-up call.

Usage: python3 setup_probe.py <src dir> <workload>.  Prints the seconds and
the host slowdown measured right after (see calibrate.py).  numpy is
imported before the clock starts: its import is the dependency's cost, not
cohtrade's, and it is the noisiest part of a cold start (0.12-0.16 s on the
reference host against 0.03 s for cohtrade's import and warm-up).  The
warm-up fills ``states._REDUCTION_PLANS`` for every dims the workload uses.
"""

import contextlib
import io
import os
import sys
import time

import numpy  # noqa: F401

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import cohtrade  # noqa: E402
from cohtrade import cli  # noqa: E402

workload = sys.argv[2]
# the dims of workloads.py, repeated: importing it would import cohtrade
# before the clock starts
WIDE = ((2, 3, 4), (3, 3, 3), (2,) * 5, (2,) * 6, (2,) * 8)
if workload.startswith("ensemble-"):
    mixed = workload.endswith("-mixed")
    for dims in WIDE if "-wide-" in workload else ((2, 2, 2),):
        cohtrade.ensemble_reports(cohtrade.LocalDims(dims), 1, 0, mixed)
elif workload == "search-3q":
    cohtrade.minimize_slack("thm3", (2, 2, 2), 1, 0, 2, 1)
elif workload == "cli-files":
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cli_main(["oracle", "--trials", "2"])
    for dims in WIDE[:-1] + ((2, 2, 2), (2, 2, 2, 2)):
        cohtrade.run_suite(cohtrade.sample_haar_pure(dims, 0))
else:
    sys.exit(f"unknown workload {workload!r}")
elapsed = time.perf_counter() - start

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402

slowdowns = sorted(calibrate.slowdown() for _ in range(5))
print(repr(elapsed), repr(slowdowns[2]))
