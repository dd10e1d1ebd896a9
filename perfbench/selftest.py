"""Tests of the benchmark itself.

Usage: python3 perfbench/selftest.py   (from the root of a checkout; ~40 s)

The file is not named test_*.py, so the repository's pytest run does not
collect it: it spawns interpreters and measures time.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))

import run  # noqa: E402

run.import_program()

import cohtrade  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def span_self_times(spans) -> dict[int, float]:
    """Self time of each exported span: duration minus its direct children's."""
    self_t = {s[0]: s[3] - s[2] for s in spans}
    for span_id, _name, start, end, parent, _root, _run in spans:
        if parent is not None:
            self_t[parent] -= end - start
    return self_t


def _bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class _Workdir(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(run.WORK, f"selftest-{self.id().rsplit('.', 1)[-1]}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make(self, name, seed=0):
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed, self.workdir)
        wl.warm_up()
        return wl


class CorrectnessCheckTest(_Workdir):
    def test_reference_rejects_nudged_slack_and_wrong_seed(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        for name in ("ensemble-3q-mixed", "search-3q"):
            expected = reference[name]
            self.assertEqual(run.compare(copy.deepcopy(expected), expected), [])
            key = next(k for k, v in expected.items() if v.get("argmin_unique", True))
            nudged = copy.deepcopy(expected)
            nudged[key]["min_slack"] += 1e-6
            self.assertEqual(len(run.compare(nudged, expected)), 1, name)
            moved = copy.deepcopy(expected)
            moved[key]["argmin_seed"] += 1
            self.assertEqual(len(run.compare(moved, expected)), 1, name)

    def test_round_zero_matches_reference(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            expected = json.load(fh)["ensemble-3q-pure"]
        wl = self.make("ensemble-3q-pure")
        failures = []
        ops, outs, _, _ = run.run_round(wl, 0, failures)
        run.check_round(wl, ops, outs, failures)
        self.assertEqual(failures, [])
        self.assertEqual(run.compare(wl.summary(ops, outs), expected), [])

    def test_cli_check_rejects_wrong_exit_codes(self):
        wl = self.make("cli-files")
        failures = []
        ops, outs, _, _ = run.run_round(wl, 0, failures)
        run.check_round(wl, ops, outs, failures)
        self.assertEqual(failures, [])
        self.assertEqual(sum(op.meta["kind"] == "malformed" for op in ops), 3)
        for op, (rc, out, err) in zip(ops, outs):
            wrong = 0 if rc == 2 else 1
            self.assertIsNotNone(wl.check(op, (wrong, out, err)), op.label)

    def test_known_defect_is_probed_not_run_as_an_op(self):
        wl = self.make("cli-files")
        labels = {op.label for op in wl.ops(0)}
        found = wl.probe_known_defects()
        self.assertEqual([label for label, _, _ in found], ["verify nan-density"])
        self.assertTrue(labels.isdisjoint(label for label, _, _ in found))
        # this commit accepts the NaN density file: verify exits 0
        self.assertEqual([rc for _, _, rc in found], [0])

    def test_search_check_rejects_a_state_that_does_not_match_its_value(self):
        wl = self.make("search-3q")
        op = next(op for op in wl.ops(0) if op.meta["objective"] == "eq3")
        out = op.call()
        self.assertIsNone(wl.check(op, out))
        bad = cohtrade.SearchOutcome(
            out.objective, out.best_value - 1e-6, out.best_state, out.evaluations, out.seed
        )
        self.assertIsNotNone(wl.check(op, bad))


class TracerTest(_Workdir):
    def traced_round(self, name, r=0):
        wl = self.make(name)
        tr = tracing.Tracer()
        with tr:
            self.assertIn("cohtrade.inequalities.subset_coherence", tracing.installed_wrappers())
            ops, outs, secs, _ = run.run_round(wl, r, [])
        self.assertEqual(tracing.installed_wrappers(), [])
        return tr, ops, outs, secs

    def test_every_namespace_is_wrapped_and_restored(self):
        originals = {
            name: getattr(cohtrade.coherence, name) for name in ("subset_coherence", "l1_coherence")
        }
        with tracing.Tracer():
            for module in (cohtrade, cohtrade.coherence, cohtrade.inequalities, cohtrade.families):
                self.assertTrue(hasattr(module.subset_coherence, tracing._MARK), module)
            self.assertTrue(hasattr(cohtrade.states.PureState.__init__, tracing._MARK))
        for name, fn in originals.items():
            self.assertIs(cohtrade.inequalities.__dict__.get(name, fn), fn)
            self.assertIs(getattr(cohtrade, name), fn)
        self.assertEqual(tracing.installed_wrappers(), [])

    def test_exact_counts_per_state(self):
        for name, per_state in (("ensemble-3q-pure", 31), ("ensemble-3q-mixed", 25)):
            tr, ops, _, _ = self.traced_round(name)
            states = sum(op.meta["trials"] for op in ops)
            self.assertEqual(states, 64)
            self.assertEqual(tr.calls["coherence.subset"], per_state * states, name)
            self.assertEqual(tr.calls["states.validate"], states, name)

    def test_search_evals_repeat(self):
        counts = []
        for _ in range(2):
            tr, ops, outs, _ = self.traced_round("search-3q")
            self.assertEqual(tr.extra["search.evals"], sum(o.evaluations for o in outs))
            counts.append(tr.extra["search.evals"])
        self.assertEqual(counts[0], counts[1])

    def test_self_times_sum_to_traced_wall(self):
        tr, ops, outs, secs = self.traced_round("cli-files")
        wall = sum(secs)
        total = tr.total_self_s()
        self.assertLessEqual(total, wall)
        self.assertLess(wall - total, 0.05 * wall)
        spans = tr.spans
        roots = sum(end - start for _, _, start, end, parent, _, _ in spans if parent is None)
        self.assertAlmostEqual(sum(span_self_times(spans).values()), roots, places=9)
        self.assertAlmostEqual(total, roots, places=9)


class CommandTest(unittest.TestCase):
    def run_bench(self, *argv, cwd=run.ROOT):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
            capture_output=True, text=True, timeout=170, cwd=cwd,
        )

    def test_result_lines_match_benchmark_json(self):
        bench = _bench_json()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        for trace, key, units in (
            (0, "end_to_end", run.END_TO_END_UNITS),
            (1, "per_layer", run.PER_LAYER_UNITS),
        ):
            self.assertEqual({m["name"]: m["unit"] for m in bench[key]}, units)
            done = self.run_bench(
                "--workload", "ensemble-3q-mixed", "--seconds", "0.3", "--trace", str(trace)
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), list(units))
            self.assertIn("run-record ", done.stdout)

    def test_fails_without_the_program(self):
        bare = os.path.join(run.WORK, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE, os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = self.run_bench("--workload", "search-3q", "--seconds", "1", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
