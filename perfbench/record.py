"""Measure every workload over several seeds and append a trajectory point.

Usage (from the root of a checkout):

    python3 perfbench/record.py [--label TEXT]

Runs ``run.py`` once per seed 1..10 on each workload, one run at a time,
then once more with ``--trace 1`` at seed 1.  For each end-to-end metric
it prints the median, the quartiles and the spread (quartile distance over
the median, the figure the bounds in BENCHMARK.json are set against), and
appends all of it, with the run record of the first run, to
``trajectory.json``.  Exits 1 if a run fails, reports incorrect output or
a failed op, or a spread other than ``setup_s``'s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
RUNS = 10


def bench(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    record = next(json.loads(x[len("run-record "):]) for x in lines if x.startswith("run-record "))
    return json.loads(lines[-1]), record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "runs": RUNS,
             "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(1, RUNS + 1):
            result, record = bench(workload, seed, spec["run_seconds"], 0)
            point.setdefault("record", record)
            ok &= result["correct"] and result["failed"] == 0
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            entry["end_to_end"][name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "unit": result["metrics"][name]["unit"],
            }
            over = name != "setup_s" and spread > bounds[name]
            ok &= not over
            print(f"{workload:<20} {name:<16} median {statistics.median(vals):<12.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{'  OVER' if over else ''}",
                  flush=True)
        result, _ = bench(workload, 1, spec["run_seconds"], 1)
        ok &= result["correct"]
        entry["per_layer_seed1"] = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"{workload:<20} failed {failed} of {attempted} ops", flush=True)
        point["workloads"][workload] = entry
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(point)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
