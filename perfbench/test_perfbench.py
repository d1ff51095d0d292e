"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, classify  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(worker.percentile(values, 50), 5.0)
        self.assertEqual(worker.percentile(values, 90), 9.0)
        self.assertEqual(worker.percentile(values, 100), 10.0)

    def test_p90_of_a_hundred_leaves_ten_above(self):
        values = [float(v) for v in range(1, 101)]
        p90 = worker.percentile(values, 90)
        self.assertEqual(p90, 90.0)
        self.assertEqual(sum(v > p90 for v in values), 10)

    def test_single_and_empty(self):
        self.assertEqual(worker.percentile([3.5], 50), 3.5)
        self.assertEqual(worker.percentile([3.5], 90), 3.5)
        with self.assertRaises(ValueError):
            worker.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # [start, end, parent, name, request]
        spans = [
            [0.0, 10.0, -1, "cli.main", 0],
            [1.0, 4.0, 0, "verify.verify_theorem", 0],
            [2.0, 3.0, 1, "convexity.check_convexity", 0],
            [5.0, 6.0, 0, "numeric.integrate", 0],
            [11.0, 12.5, -1, "cli.main", 1],
        ]
        self.assertEqual(tracer.self_times(spans), [6.0, 2.0, 1.0, 1.0, 1.5])
        # the self times of all layers add up to the root spans
        self.assertEqual(sum(tracer.self_times(spans)), 10.0 + 1.5)

    def test_layer_totals_and_metrics(self):
        t = tracer.Tracer()
        t.spans.extend([
            [0.0, 4.0, -1, "cli.main", 0],
            [1.0, 3.0, 0, "numeric.integrate", 0],
        ])
        t.counts.update({"numeric.integrate.calls": 1,
                         "numeric.integrate.evals": 45})
        totals = t.layer_totals()
        self.assertEqual(totals["cli.main"], [4.0, 2.0])
        m = tracer.layer_metrics(totals, t.counts, passes=2)
        self.assertEqual(m["numeric.integrate.total_s"], 1.0)
        self.assertEqual(m["cli.main.self_s"], 1.0)
        self.assertEqual(m["numeric.integrate.panels"], 3)
        self.assertEqual(m["convexity.check_convexity.holds_ratio"], 0.0)
        self.assertEqual(set(m), {k for k, _ in tracer.LAYER_METRICS})


class TracedRequests(unittest.TestCase):
    ARGV = ["verify", "--theorem", "T2_4", "--fn", "pow:2", "--a", "1",
            "--b", "2", "--s", "0.5", "--q", "2", "--grid", "3",
            "--grid-gate", "4", "--format", "json"]

    def _traced_counts(self):
        import hsconvex.cli as cli
        t = tracer.Tracer()
        t.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(self.ARGV), 0)
        finally:
            t.uninstall()
        return t

    def test_counts_repeat_and_originals_return(self):
        import hsconvex.cli as cli
        import hsconvex.numeric as numeric
        main, call = cli.main, numeric.FunctionSpec.__call__
        first, second = self._traced_counts(), self._traced_counts()
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(first.counts["cli.main.calls"], 1)
        self.assertEqual(first.counts["convexity.check_convexity.calls"], 1)
        self.assertEqual(first.counts["convexity.check_convexity.samples"],
                         4 * 4 * 17)
        self.assertGreater(first.counts["numeric.FunctionSpec.evals"], 0)
        self.assertIs(cli.main, main)
        self.assertIs(numeric.FunctionSpec.__call__, call)
        root = first.spans[0]
        self.assertEqual(root[tracer.NAME], "cli.main")
        self.assertAlmostEqual(sum(tracer.self_times(first.spans)),
                               root[tracer.END] - root[tracer.START])

    def test_discarded_request_leaves_no_trace(self):
        t = tracer.Tracer()
        t.counts["cli.main.calls"] = 3
        t.begin_request(7)
        t.spans.append([0.0, 1.0, -1, "cli.main", 7])
        t.counts["cli.main.calls"] += 1
        t.discard_request()
        self.assertEqual(t.spans, [])
        self.assertEqual(t.counts["cli.main.calls"], 3)

    def test_rebind_reaches_every_importer_and_restores(self):
        import hsconvex.bounds as bounds
        import hsconvex.cli as cli
        import hsconvex.numeric as numeric
        original = numeric.integrate
        undo = tracer.rebind("numeric", "integrate", lambda fn: "wrapped")
        try:
            self.assertEqual(numeric.integrate, "wrapped")
            self.assertEqual(bounds.integrate, "wrapped")
            self.assertEqual(cli.integrate, "wrapped")
        finally:
            tracer.restore(undo)
        self.assertIs(cli.integrate, original)
        self.assertIs(numeric.integrate, original)

    def test_integrate_budget_cuts_off_runaway_work(self):
        import hsconvex.numeric as numeric
        budgeted = worker._budgeted_integrate(numeric.integrate)
        with mock.patch.object(worker, "TRACE_EVAL_BUDGET", 20):
            # one K15 panel is exact for a line: 15 evaluations
            self.assertAlmostEqual(budgeted(lambda t: t, 0.0, 1.0).value, 0.5)
            with self.assertRaises(worker.Deadline):
                budgeted(lambda t: abs(t - 0.3) ** 0.5, 0.0, 1.0)


class Generators(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in workloads.WORKLOADS:
            a = [workloads.request(w, 5, i) for i in range(50)]
            b = [workloads.request(w, 5, i) for i in reversed(range(50))]
            self.assertEqual(a, b[::-1])

    def test_seed_changes_the_stream(self):
        for w in ("verify_stream", "oracle_stream"):
            a = [workloads.request(w, 1, i) for i in range(20)]
            b = [workloads.request(w, 2, i) for i in range(20)]
            self.assertNotEqual(a, b)

    def test_oracle_edge_is_oracle_stream_with_check(self):
        checked = set()
        for i in range(200):
            plain = workloads.request("oracle_stream", 4, i)
            edge = workloads.request("oracle_edge", 4, i)
            if plain[0] != "lambda":
                self.assertEqual(edge, plain)
                continue
            self.assertEqual(edge[-3:], ["--check", "--format", "json"])
            self.assertEqual([a for a in edge if a != "--check"],
                             [a for a in plain if a != "--check"])
            theta = float(plain[plain.index("--theta") + 1])
            x = float(plain[plain.index("--x") + 1])
            near = max(theta / x, x / theta) <= workloads.CHECKED_RATIO
            self.assertEqual("--check" in plain, near)
            checked.add(near)
        self.assertEqual(checked, {True, False})

    def test_streams_cover_their_commands(self):
        verbs = {workloads.request("oracle_stream", 3, i)[0]
                 for i in range(200)}
        self.assertEqual(verbs, {"lambda", "hh", "ostrowski"})
        verifies = [workloads.request("verify_stream", 3, i)
                    for i in range(200)]
        self.assertEqual({r[0] for r in verifies}, {"verify"})
        self.assertEqual({r[2] for r in verifies},
                         {"T2_2", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7"})
        # no two requests share a gate: (fn, a, b) differ everywhere
        gates = {tuple(r[3:9]) for r in verifies}
        self.assertEqual(len(gates), len(verifies))


def lambda_doc(value=4.7263715373882906, rel_err=1e-12):
    # kind 5 at theta = 0.3, x = 0.380528; the value is the program's
    return json.dumps({"kind": 5, "theta": 0.3, "x": 0.380528, "s": None,
                       "vartheta": None, "rho": None, "value": value,
                       "rel_err": rel_err})


class Classification(unittest.TestCase):
    def outcome(self, argv, code, stdout="", **kw):
        return Outcome(tuple(argv), code, stdout, **kw)

    def test_answers(self):
        ok_verify = self.outcome(["verify"], 0, '{"hypothesis_ok": true}')
        refused = self.outcome(["verify"], 1, '{"hypothesis_ok": false}')
        lam = self.outcome(["lambda"], 0, lambda_doc())
        checked = self.outcome(["lambda", "--check"], 0, lambda_doc())
        self.assertIsNone(classify(ok_verify))
        self.assertIsNone(classify(refused))
        self.assertIsNone(classify(lam))
        self.assertIsNone(classify(checked))

    def test_lambda_reference_matches_the_closed_forms(self):
        import hsconvex.cli as cli
        for i in range(40):
            argv = workloads.request("oracle_stream", 6, i)
            if argv[0] != "lambda":
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(cli.main(argv), 0)
            doc = json.loads(out.getvalue())
            ref = workloads.lambda_reference(doc)
            self.assertLess(abs(doc["value"] - ref), 1e-12 * abs(ref))

    def test_failures(self):
        cases = {
            "deadline": self.outcome(["hh"], None, timed_out=True),
            "crash:ValueError": self.outcome(["hh"], None, error="ValueError"),
            "exit2": self.outcome(["lambda"], 2),
            "bad_exit": self.outcome(["hh"], 1, "{}"),
            "bad_json": self.outcome(["ostrowski"], 0, '{"lhs": inf}'),
            "slack_violation": self.outcome(["verify"], 1,
                                            '{"hypothesis_ok": true}'),
            "rel_err": self.outcome(["lambda", "--check"], 0,
                                    lambda_doc(rel_err=2e-10)),
            "lambda_value": self.outcome(["lambda"], 0,
                                         lambda_doc(value=4.7263716)),
            "selftest_fail": self.outcome(["selftest"], 1, '{"pass": false}'),
        }
        for reason, outcome in cases.items():
            self.assertEqual(classify(outcome), reason)

    def test_kind_limits(self):
        value = 4.7263715373882906
        # 5e-9 relative is inside the limit of kinds 1-4, outside kind 5's
        self.assertIsNone(classify(self.outcome(["lambda"], 0, lambda_doc(
            value * (1 + 1e-12)))))
        self.assertEqual(classify(self.outcome(["lambda"], 0, lambda_doc(
            value * (1 + 5e-9)))), "lambda_value")
        self.assertEqual(classify(self.outcome(["lambda", "--check"], 0,
                                               lambda_doc(rel_err=5e-9))),
                         "rel_err")
        self.assertEqual(workloads.REL_ERR_LIMIT[1], 1e-8)

    def test_only_wrong_answers_make_a_run_incorrect(self):
        self.assertIn("slack_violation", workloads.WRONG_ANSWER)
        self.assertIn("selftest_fail", workloads.WRONG_ANSWER)
        self.assertIn("lambda_value", workloads.WRONG_ANSWER)
        for reason in ("deadline", "exit2", "rel_err"):
            self.assertNotIn(reason, workloads.WRONG_ANSWER)


class FakeTime:
    def __init__(self) -> None:
        self.now = 100.0

    def perf_counter(self) -> float:
        return self.now


class ReferenceClock(unittest.TestCase):
    def test_wall_time_is_scaled_by_the_kernel(self):
        nominal = speed.NOMINAL_KERNEL_S
        fake = FakeTime()
        kernels = iter([2 * nominal, nominal])
        with mock.patch.object(speed, "time", fake), \
                mock.patch.object(speed, "time_kernel",
                                  lambda: next(kernels)), \
                mock.patch.object(speed.signal, "setitimer"):
            clock = speed.RefClock()
            clock.start()
            try:
                fake.now += 3.0
                # no closing sample yet: the last kernel, twice nominal
                self.assertAlmostEqual(clock.now(), 1.5)
                clock._on_sample(speed.signal.SIGPROF, None)
                # the stretch is scaled by the mean of both kernels
                self.assertAlmostEqual(clock.now(), 2.0)
                fake.now += 1.0
                self.assertAlmostEqual(clock.now(), 3.0)
            finally:
                clock.stop()
        self.assertEqual(clock.samples, [2 * nominal, nominal])

    def test_kernel_runs_near_its_nominal_time(self):
        took = min(speed.time_kernel() for _ in range(5))
        self.assertLess(took, 20 * speed.NOMINAL_KERNEL_S)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            dict(tracer.LAYER_METRICS + tracer.RUN_METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]] + [
            "oracle_edge"], list(workloads.WORKLOADS))

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "selftest", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
