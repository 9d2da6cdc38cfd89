"""Unit tests for bench_gate.py / gate_core.py (CI `gate-selftest`).

Run from the repo root with:

    python3 -m unittest discover -s scripts
"""

import json
import os
import tempfile
import unittest

import bench_gate
import gate_core


def write_json(dirname, name, doc):
    path = os.path.join(dirname, name)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(doc, str):
            f.write(doc)
        else:
            json.dump(doc, f)
    return path


def metrics_doc(**values):
    return {
        "metrics": {
            name: {"value": value, "direction": direction}
            for name, (value, direction) in values.items()
        }
    }


class GateCoreToleranceTest(unittest.TestCase):
    def test_relative_limit_higher_is_a_floor(self):
        self.assertAlmostEqual(gate_core.metric_limit(100.0, "higher", 0.20), 80.0)
        self.assertTrue(gate_core.within(80.0, 80.0, "higher"))
        self.assertFalse(gate_core.within(79.9, 80.0, "higher"))

    def test_relative_limit_lower_is_a_ceiling(self):
        self.assertAlmostEqual(gate_core.metric_limit(10.0, "lower", 0.20), 12.0)
        self.assertTrue(gate_core.within(12.0, 12.0, "lower"))
        self.assertFalse(gate_core.within(12.1, 12.0, "lower"))

    def test_absolute_tolerance_works_at_base_zero(self):
        # Relative tolerance is degenerate at base 0 — absolute is not.
        self.assertAlmostEqual(gate_core.metric_limit(0.0, "lower", 0.20), 0.0)
        self.assertAlmostEqual(
            gate_core.metric_limit(0.0, "lower", 2.5, absolute=True), 2.5
        )

    def test_compare_gates_only_the_intersection(self):
        baseline = {"a": (100.0, "higher"), "old": (1.0, "lower")}
        current = {"a": (85.0, "higher"), "new": (2.0, "lower")}
        failed = gate_core.compare_metrics(baseline, current, 0.20, "t")
        self.assertEqual(failed, [])

    def test_compare_flags_a_regression(self):
        baseline = {"a": (100.0, "higher")}
        current = {"a": (70.0, "higher")}
        failed = gate_core.compare_metrics(baseline, current, 0.20, "t")
        self.assertEqual(failed, ["a"])

    def test_gated_metrics_rejects_bad_direction(self):
        with self.assertRaises(ValueError):
            gate_core.gated_metrics(
                {"metrics": {"x": {"value": 1.0, "direction": "sideways"}}}
            )

    def test_gated_metrics_rejects_empty_doc(self):
        with self.assertRaises(ValueError):
            gate_core.gated_metrics({"unrelated": 1})


class BenchGateCliTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_gate(self, baseline, current, *extra):
        return bench_gate.main(["bench_gate.py", baseline, current, *extra])

    def test_pass_within_tolerance(self):
        base = write_json(
            self.dir.name, "base.json", metrics_doc(tput=(100.0, "higher"))
        )
        cur = write_json(
            self.dir.name, "cur.json", metrics_doc(tput=(90.0, "higher"))
        )
        self.assertEqual(self.run_gate(base, cur), 0)

    def test_fail_beyond_tolerance(self):
        base = write_json(
            self.dir.name, "base.json", metrics_doc(tput=(100.0, "higher"))
        )
        cur = write_json(
            self.dir.name, "cur.json", metrics_doc(tput=(70.0, "higher"))
        )
        self.assertEqual(self.run_gate(base, cur), 1)

    def test_tolerance_flag_is_honoured(self):
        base = write_json(
            self.dir.name, "base.json", metrics_doc(tput=(100.0, "higher"))
        )
        cur = write_json(
            self.dir.name, "cur.json", metrics_doc(tput=(70.0, "higher"))
        )
        self.assertEqual(self.run_gate(base, cur, "--tolerance", "0.40"), 0)
        self.assertEqual(self.run_gate(base, cur, "--tolerance=0.40"), 0)

    def test_missing_baseline_soft_passes(self):
        cur = write_json(
            self.dir.name, "cur.json", metrics_doc(tput=(100.0, "higher"))
        )
        missing = os.path.join(self.dir.name, "nope.json")
        self.assertEqual(self.run_gate(missing, cur), 0)

    def test_malformed_current_fails(self):
        base = write_json(
            self.dir.name, "base.json", metrics_doc(tput=(100.0, "higher"))
        )
        cur = write_json(self.dir.name, "cur.json", "{not json")
        self.assertEqual(self.run_gate(base, cur), 1)

    def test_malformed_baseline_fails_hard(self):
        # An unreadable committed baseline is a repo bug, not a soft pass.
        base = write_json(self.dir.name, "base.json", "{not json")
        cur = write_json(
            self.dir.name, "cur.json", metrics_doc(tput=(100.0, "higher"))
        )
        self.assertEqual(self.run_gate(base, cur), 1)

    def test_throughput_gates_under_metrics(self):
        base = write_json(
            self.dir.name,
            "base.json",
            metrics_doc(peak_sessions_per_sec=(100.0, "higher")),
        )
        cur = write_json(
            self.dir.name,
            "cur.json",
            metrics_doc(peak_sessions_per_sec=(85.0, "higher")),
        )
        self.assertEqual(self.run_gate(base, cur), 0)
        cur_bad = write_json(
            self.dir.name,
            "cur2.json",
            metrics_doc(peak_sessions_per_sec=(60.0, "higher")),
        )
        self.assertEqual(self.run_gate(base, cur_bad), 1)

    def test_baseline_without_metrics_is_refused(self):
        # The top-level `peak_sessions_per_sec` shape is retired: a
        # baseline with no `metrics` object is unusable, not a pass.
        base = write_json(
            self.dir.name, "base.json", {"peak_sessions_per_sec": 100.0}
        )
        cur = write_json(
            self.dir.name,
            "cur.json",
            metrics_doc(peak_sessions_per_sec=(100.0, "higher")),
        )
        self.assertEqual(self.run_gate(base, cur), 1)

    def test_usage_error(self):
        self.assertEqual(bench_gate.main(["bench_gate.py", "one-arg"]), 1)


if __name__ == "__main__":
    unittest.main()
