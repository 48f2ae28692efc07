"""Self-tests of the benchmark's own logic (no op processes are started).

    python3 perfbench/selftest.py
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import layers
import outcome
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for w in workloads.WORKLOADS:
            a = [e["id"] for e in workloads.pass_ops(w, 7)]
            b = [e["id"] for e in workloads.pass_ops(w, 7)]
            self.assertEqual(a, b)

    def test_other_seed_other_mix(self):
        for w in workloads.WORKLOADS:
            a = [e["id"] for e in workloads.pass_ops(w, 1)]
            b = [e["id"] for e in workloads.pass_ops(w, 2)]
            self.assertNotEqual(a, b, w)
            # a different order alone does not count as a different mix
            self.assertNotEqual(sorted(a), sorted(b), w)

    def test_calibration_runs_once_before_the_passes(self):
        self.assertEqual([e["id"] for e in workloads.once_ops("ball")], ["calibrate"])
        for w in workloads.WORKLOADS:
            for seed in range(20):
                self.assertFalse(any(e["calibrate"] for e in workloads.pass_ops(w, seed)))

    def test_every_entry_has_a_reference(self):
        refs = json.loads((HERE / "references.json").read_text())
        ids = {e["id"] for e in workloads.all_entries()}
        self.assertEqual(ids, set(refs))

    def test_ops_pass_no_thread_settings(self):
        for e in workloads.all_entries():
            self.assertNotIn("--threads", e["argv"])


def _span(name, lo, hi, parent):
    return [name, lo, hi, parent]


class SpanTests(unittest.TestCase):
    # dispatch [0, 10] holds a [1, 5] and b [6, 9]; a holds two overlapping
    # children c [1.5, 3] and c [2.5, 4]; b holds c [6, 7]
    SPANS = [
        _span("dispatch", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("c", 1.5, 3.0, 1),
        _span("c", 2.5, 4.0, 1),
        _span("b", 6.0, 9.0, 0),
        _span("c", 6.0, 7.0, 4),
    ]

    def test_union_length(self):
        self.assertAlmostEqual(layers.union_length([(0, 1), (0.5, 2), (3, 4)]), 3.0)
        self.assertEqual(layers.union_length([]), 0.0)

    def test_self_time(self):
        totals = layers.span_totals(self.SPANS)
        self.assertEqual(totals["dispatch"][0], 1)
        self.assertAlmostEqual(totals["dispatch"][2], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(totals["a"][2], 4.0 - 2.5)
        self.assertAlmostEqual(totals["b"][2], 3.0 - 1.0)
        calls, busy, self_s = totals["c"]
        self.assertEqual(calls, 3)
        self.assertAlmostEqual(busy, 2.5 + 1.0)
        self.assertAlmostEqual(self_s, 1.5 + 1.5 + 1.0)

    def test_pass_sums_and_ratio(self):
        trace = {"spans": [_span("ingham.factor_coeff_table", 0.0, 1.0, -1),
                           _span("ingham.factor_coeff_table", 1.0, 3.0, -1)],
                 "counters": {"ingham.factor_coeff_table_distinct": 1},
                 "absent": []}
        m = layers.pass_metrics([trace, trace])
        self.assertEqual(m["ingham.factor_coeff_table_calls"], 4)
        self.assertAlmostEqual(m["ingham.factor_coeff_table_s"], 6.0)
        self.assertAlmostEqual(m["ingham.factor_table_useful_ratio"], 0.5)

    def test_median_keeps_counts_whole(self):
        m = layers.median_metrics([{"c": 3, "t": 1.0}, {"c": 3, "t": 2.0}])
        self.assertEqual(m, {"c": 3, "t": 1.5})
        self.assertIsInstance(m["c"], int)

    def test_absent_target_is_absent_metric(self):
        tracer = Tracer()
        tracer.install([("json", "no_such_function", "parallel.map"),
                        ("no_such_module_anywhere", "f", "parallel.map")])
        self.assertEqual(tracer.absent, ["json.no_such_function",
                                         "no_such_module_anywhere.f"])
        trace = {"spans": [], "counters": {},
                 "absent": ["heisharm.parallel.deterministic_map"]}
        m = layers.op_metrics(trace)
        self.assertNotIn("parallel.map_calls", m)
        self.assertNotIn("parallel.map_items", m)
        self.assertEqual(m["laguerre.table_calls"], 0)


class ReferenceTests(unittest.TestCase):
    def setUp(self):
        self.refs = json.loads((HERE / "references.json").read_text())

    def test_reference_passes_itself(self):
        for ref in self.refs.values():
            self.assertEqual(outcome.check(copy.deepcopy(ref), ref), [])

    def test_perturbed_headline_fails(self):
        ref = self.refs["plancherel-check --family gaussian --n 2"]
        got = copy.deepcopy(ref)
        got["headline"]["rel_error"]["gaussian"] *= 1.0 + 1e-3
        self.assertTrue(outcome.check(got, ref))
        got["headline"]["rel_error"]["gaussian"] = ref["headline"]["rel_error"]["gaussian"] * (1 + 1e-12)
        self.assertEqual(outcome.check(got, ref), [])

    def test_perturbed_exit_and_count_fail(self):
        ref = self.refs["ingham-plan --n 1"]
        got = copy.deepcopy(ref)
        got["exit"] = 1
        self.assertTrue(outcome.check(got, ref))
        got = copy.deepcopy(ref)
        got["headline"]["violations"] = 1
        self.assertTrue(outcome.check(got, ref))

    def test_perturbed_report_bytes_move(self):
        ref = self.refs["calibrate"]
        got = copy.deepcopy(ref)
        got["files"]["box_factor_envelope.json"] = "0" * 64
        self.assertEqual(outcome.check(got, ref), [])
        self.assertEqual(outcome.moved_files(got, ref), ["box_factor_envelope.json"])

    def test_perturbed_report_file_fails(self):
        entry_id = "dilate-check --dilation 1.4 --n 2"
        entry = next(e for e in workloads.all_entries() if e["id"] == entry_id)
        ref = self.refs[entry_id]
        with tempfile.TemporaryDirectory() as d:
            report = {"command": "dilate-check", "pass": True,
                      "max_rel_error": ref["headline"]["max_rel_error"]}
            Path(d, "report.json").write_text(json.dumps(report))
            self.assertEqual(outcome.check(outcome.outcome(entry, 0, d), ref), [])
            report["max_rel_error"] *= 1.0 + 1e-2
            Path(d, "report.json").write_text(json.dumps(report))
            problems = outcome.check(outcome.outcome(entry, 0, d), ref)
            self.assertEqual(len(problems), 1)
            self.assertIn("max_rel_error", problems[0])


class ArgumentTests(unittest.TestCase):
    def test_entry_modes_take_no_workload(self):
        # --record must not rewrite references.json from one workload's menu
        for argv in (["--record", "--workload", "ball"],
                     ["--check-bytes", "--workload", "spectral", "--seed", "1"]):
            with self.assertRaises(SystemExit) as cm, \
                    contextlib.redirect_stderr(io.StringIO()):
                run.main(argv)
            self.assertEqual(cm.exception.code, 2)


if __name__ == "__main__":
    sys.exit(unittest.main())
