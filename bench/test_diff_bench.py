#!/usr/bin/env python3
"""Unit tests for the diff_bench.py CI gate (stdlib unittest only).

Run directly or via `python3 -m unittest` from the bench/ directory. The
tests drive diff_bench.py as a subprocess, the way CI does, so argument
handling, exit codes, and stderr messaging are all covered as-shipped.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

DIFF_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "diff_bench.py")


def run_diff(*argv):
    return subprocess.run(
        [sys.executable, DIFF_BENCH, *argv],
        capture_output=True, text=True, check=False)


def gates(**overrides):
    """A gates block shaped like bench::Gates::Dump() in bench_common.h."""
    block = {"metric": "sweep_spins_per_sec", "max_regression_pct": 75,
             "floors": {"packed_memory_reduction": 4},
             "flags": ["all_identical_to_serial"],
             "row_flags": ["identical_to_serial"],
             "zero": ["solver_retries"]}
    block.update(overrides)
    return block


def artifact(runs=None, **extra):
    root = {"runs": runs if runs is not None else [
        {"engine": "sa", "threads": 1, "sweep_spins_per_sec": 1.0e6,
         "identical_to_serial": True}],
        "all_identical_to_serial": True, "packed_memory_reduction": 7.5,
        "solver_retries": 0, "gates": gates()}
    root.update(extra)
    return root


class DiffBenchTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def diff(self, fresh, baseline):
        return run_diff(self.write("fresh.json", fresh),
                        self.write("baseline.json", baseline))

    def assertFails(self, result, message):
        self.assertNotEqual(result.returncode, 0, result.stdout)
        self.assertIn("FAIL", result.stderr)
        self.assertIn(message, result.stderr)

    def test_identical_artifacts_pass(self):
        result = self.diff(artifact(), artifact())
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK", result.stdout)

    def test_flags_are_rejected(self):
        fresh = self.write("fresh.json", artifact())
        baseline = self.write("baseline.json", artifact())
        result = run_diff(fresh, baseline, "--max-regression", "75")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("usage", result.stderr)

    def test_missing_baseline_fails(self):
        fresh = self.write("fresh.json", artifact())
        missing = os.path.join(self.tmp.name, "no_such_baseline.json")
        result = run_diff(fresh, missing)
        self.assertFails(result, "missing")

    def test_missing_fresh_artifact_still_fails(self):
        baseline = self.write("baseline.json", artifact())
        missing = os.path.join(self.tmp.name, "no_such_fresh.json")
        result = run_diff(missing, baseline)
        self.assertNotEqual(result.returncode, 0)

    def test_fresh_artifact_without_gates_fails(self):
        fresh = artifact()
        del fresh["gates"]
        self.assertFails(self.diff(fresh, artifact()), "declares no")

    def test_throughput_regression_fails(self):
        fresh = artifact(runs=[
            {"engine": "sa", "threads": 1, "sweep_spins_per_sec": 1.0e5,
             "identical_to_serial": True}])
        self.assertFails(self.diff(fresh, artifact()), "regressed")

    def test_declared_metric_is_compared(self):
        rows = [{"engine": "workload_max_cut", "threads": 1,
                 "solves_per_sec": 100.0, "identical_to_serial": True}]
        declared = gates(metric="solves_per_sec")
        result = self.diff(artifact(runs=rows, gates=declared),
                           artifact(runs=rows, gates=declared))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("workload_max_cut", result.stdout)

    def test_field_parity_failure(self):
        self.assertFails(self.diff(artifact(), artifact(extra_field=1.0)),
                         "extra_field")

    def test_stage_fields_are_informational(self):
        result = self.diff(artifact(stage_solve_ms=12.5), artifact())
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_host_stamp_is_informational_and_printed(self):
        host = {"nproc": 4, "cpu_model": "Test CPU", "compiler": "GNU 12.2.0",
                "build_type": "Release"}
        result = self.diff(artifact(host=host), artifact())
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("nproc=4", result.stdout)
        self.assertIn("Test CPU", result.stdout)
        self.assertIn("unstamped", result.stdout)

    def test_fault_free_hot_path_gate(self):
        self.assertFails(self.diff(artifact(solver_retries=3), artifact()),
                         "solver_retries=3")

    def test_determinism_flag_gate(self):
        self.assertFails(
            self.diff(artifact(all_identical_to_serial=False), artifact()),
            "all_identical_to_serial=False")

    def test_row_flag_gate(self):
        fresh = artifact(runs=[
            {"engine": "sa", "threads": 1, "sweep_spins_per_sec": 1.0e6,
             "identical_to_serial": False}])
        self.assertFails(self.diff(fresh, artifact()), "identical_to_serial")

    def test_baseline_gate_missing_from_fresh_fails(self):
        fresh = artifact(gates=gates(zero=[]))
        self.assertFails(self.diff(fresh, artifact()),
                         "zero gate on 'solver_retries' is missing")
        fresh = artifact(gates=gates(metric="wall_ms"))
        self.assertFails(self.diff(fresh, artifact()),
                         "throughput gate on 'sweep_spins_per_sec' is missing")

    def test_loosened_bound_fails(self):
        looser_regression = artifact(gates=gates(max_regression_pct=90))
        self.assertFails(self.diff(looser_regression, artifact()),
                         "max_regression_pct loosened")
        looser_floor = artifact(
            gates=gates(floors={"packed_memory_reduction": 2}))
        self.assertFails(self.diff(looser_floor, artifact()),
                         "missing or loosened (fresh: 2)")

    def test_ratio_below_floor_fails(self):
        self.assertFails(
            self.diff(artifact(packed_memory_reduction=3.0), artifact()),
            "packed_memory_reduction=3.0; the gate requires >= 4")

    def test_baseline_row_without_metric_fails(self):
        baseline = artifact(runs=[
            {"engine": "sa", "threads": 1, "identical_to_serial": True}])
        self.assertFails(self.diff(artifact(), baseline),
                         "no positive numeric 'sweep_spins_per_sec'")


if __name__ == "__main__":
    unittest.main()
