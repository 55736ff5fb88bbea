#!/usr/bin/env python3
"""Determinism self-check for the e2ebench driver.

Run from the repository root:

    python3 e2ebench/test_e2ebench.py

Builds the driver through run.py, then runs every workload traced with
--seconds 0 (the shortest run the driver allows: one pass over the plan
pool, or the fixed 100-epoch serve prefix) twice with one seed and once
with another. The same seed must repeat lb_gap and the CDS/serve work
counts bit for bit; a different seed must change them. Every run must pass
its own output checks.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED, OTHER_SEED = 7, 8

# Metrics that must repeat bit-identically for one seed.
DETERMINISTIC = {
    "plan_converge": ["lb_gap", "core.cds.moves", "core.cds.moves_evaluated"],
    "plan_scale": ["lb_gap", "core.cds.moves", "core.cds.moves_evaluated"],
    "serve_drift": ["lb_gap", "core.cds.moves", "core.cds.moves_evaluated",
                    "serve.repair_moves", "serve.escalations"],
}
# The subset a different seed must change. plan_scale caps CDS at 64 moves
# and serve_drift never escalates today, so those counts stay put.
SEED_DEPENDENT = {
    "plan_converge": ["lb_gap", "core.cds.moves", "core.cds.moves_evaluated"],
    "plan_scale": ["lb_gap", "core.cds.moves_evaluated"],
    "serve_drift": ["lb_gap", "core.cds.moves_evaluated", "serve.repair_moves"],
}


def run_driver(binary, workload, seed):
    """Runs one traced pass; returns (result JSON, every printed metric)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=run.RUN_TIMEOUT_S).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  "):
            try:
                printed[fields[0]] = float(fields[1])
            except ValueError:
                pass
    return result, printed


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.runs = {}
        for workload in DETERMINISTIC:
            cls.runs[workload] = [run_driver(cls.binary, workload, seed)
                                  for seed in (SEED, SEED, OTHER_SEED)]

    def test_every_run_passes_its_output_checks(self):
        for workload, runs in self.runs.items():
            for result, _ in runs:
                with self.subTest(workload=workload):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_same_seed_is_bit_identical(self):
        for workload, names in DETERMINISTIC.items():
            (_, first), (_, again), _ = self.runs[workload]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertIn(name, first)
                    self.assertEqual(first[name], again[name])

    def test_other_seed_changes_results(self):
        for workload, names in SEED_DEPENDENT.items():
            (_, first), _, (_, other) = self.runs[workload]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertNotEqual(first[name], other[name])

    def test_layer_rows_add_up_to_op_wall(self):
        for workload, runs in self.runs.items():
            _, printed = runs[0]
            shares = [value for name, value in printed.items()
                      if name.endswith(".share")]
            with self.subTest(workload=workload):
                self.assertAlmostEqual(sum(shares), 1.0, places=9)


if __name__ == "__main__":
    unittest.main()
