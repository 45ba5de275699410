#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (stdlib unittest, no deps).

Run: python3 scripts/check_bench_regression_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_bench_regression as gate  # noqa: E402

SMOKE_GATES = os.path.join(HERE, "..", "bench", "baselines", "smoke_gates.json")

REC = {"bench": "b", "size": 10, "vps": 100.0, "ok": True, "pending": 3,
       "hw_threads": 2}


def g(**bounds):
    return {"match": {"bench": "b", "size": 10}, **bounds}


class EvaluateTest(unittest.TestCase):
    def status(self, gate_record, current=(REC,)):
        self.assertEqual(gate.gate_errors(gate_record), [])
        return gate.evaluate(gate_record, list(current))[0]

    def test_min_bound(self):
        self.assertEqual(self.status(g(min_vps=100.0)), "PASS")
        self.assertEqual(self.status(g(min_vps=100.5)), "FAIL")

    def test_max_bound(self):
        self.assertEqual(self.status(g(max_pending=3)), "PASS")
        self.assertEqual(self.status(g(max_pending=2)), "FAIL")

    def test_require_bound(self):
        self.assertEqual(self.status(g(require_ok=True)), "PASS")
        self.assertEqual(self.status(g(require_ok=False)), "FAIL")
        # JSON 1 and true compare equal, as the benches emit either.
        self.assertEqual(self.status(g(require_ok=1)), "PASS")

    def test_every_bound_must_hold(self):
        self.assertEqual(self.status(g(min_vps=1, max_pending=0)), "FAIL")

    def test_when_unmet_skips(self):
        record = g(min_vps=1000.0, when={"min_hw_threads": 4})
        self.assertEqual(self.status(record), "SKIP")
        self.assertEqual(self.status(record, [dict(REC, hw_threads=4)]),
                         "FAIL")

    def test_no_match_is_missing(self):
        self.assertEqual(self.status(g(min_vps=1), [dict(REC, size=11)]),
                         "MISSING")
        self.assertEqual(self.status(g(min_vps=1), []), "MISSING")

    def test_two_matches_are_ambiguous(self):
        self.assertEqual(self.status(g(min_vps=1), [REC, dict(REC, vps=5.0)]),
                         "AMBIGUOUS")

    def test_missing_field_fails(self):
        self.assertEqual(self.status(g(min_absent=0)), "FAIL")
        self.assertEqual(self.status(g(min_vps=1, when={"min_absent": 0})),
                         "FAIL")

    def test_match_needs_every_key(self):
        self.assertEqual(self.status(g(min_vps=1), [{"bench": "b"}]),
                         "MISSING")


class GateErrorsTest(unittest.TestCase):
    def test_unknown_key(self):
        self.assertIn("unknown key 'mx_vps'", gate.gate_errors(g(mx_vps=1)))
        self.assertIn("unknown key 'hw_threads' in 'when'",
                      gate.gate_errors(g(min_vps=1, when={"hw_threads": 4})))

    def test_shape(self):
        self.assertTrue(gate.gate_errors({"min_vps": 1}))
        self.assertTrue(gate.gate_errors(g()))
        self.assertTrue(gate.gate_errors(g(min_=1)))
        self.assertTrue(gate.gate_errors([]))
        self.assertEqual(gate.gate_errors(g(min_vps=1, comment="x")), [])


class RunTest(unittest.TestCase):
    def run_files(self, gates, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, data in (("gates", gates), ("current", current)):
                paths.append(os.path.join(tmp, name + ".json"))
                with open(paths[-1], "w") as f:
                    json.dump(data, f)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = gate.run(paths[0], paths[1:])
        return code, out.getvalue()

    def test_exit_status(self):
        self.assertEqual(self.run_files([g(min_vps=1)], [REC])[0], 0)
        self.assertEqual(self.run_files([g(min_vps=1e9)], [REC])[0], 1)
        code, out = self.run_files([g(min_vps=1), g(mx_vps=1)], [REC])
        self.assertEqual(code, 1)
        self.assertIn("gate 1: unknown key 'mx_vps'", out)
        self.assertEqual(self.run_files([], [REC])[0], 1)

    def test_usage(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(gate.main(["x", "gates.json"]), 2)
            self.assertEqual(
                gate.main(["x", "gates.json", "c.json", "--max-regression"]),
                2)

    def test_smoke_gates_load_cleanly(self):
        gates = gate.load_array(SMOKE_GATES)
        self.assertTrue(gates)
        for i, record in enumerate(gates):
            self.assertEqual(gate.gate_errors(record), [], f"gate {i}")


if __name__ == "__main__":
    unittest.main()
