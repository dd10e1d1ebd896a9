"""Write reference.json: round 0 of every workload at the default seed.

Usage: python3 perfbench/make_reference.py.  Run it only at a commit whose
outputs are the reference; the benchmark compares round 0 at seed 0 with
this file, floats within a relative 1e-10.
"""

import json
import os
import shutil
import sys

import run

run.import_program()
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make()
        workdir = os.path.join(run.WORK, f"reference-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            wl.setup(run.DEFAULT_SEED, workdir)
            failures = []
            ops, outs, _, _ = run.run_round(wl, 0, failures)
            run.check_round(wl, ops, outs, failures)
            reference[name] = wl.summary(ops, outs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for label, msg in failures:
            print(f"{name}: {label}: {msg}", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
