#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perf/test_perf.py --bin PATH/retcon_perf --tmp-dir DIR

Runs each workload at a held-out seed, traced and untraced: every check
must pass and every metric BENCHMARK.json names must be reported, with
a finite value. Then the negative control: corrupting RetCon's repairs
(--inject-repair-fault) on the audited open-loop workload must be
counted as failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import unittest

HELD_OUT_SEED = 7  # Not used while sizing the workloads.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARGS = None


def run(workload, trace, *extra, seed=HELD_OUT_SEED):
    os.makedirs(ARGS.tmp_dir, exist_ok=True)
    cmd = [ARGS.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--tmp-dir", ARGS.tmp_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, name):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(name, trace)
            self.assertEqual(code, 0, out)
            res = result(out)
            self.assertTrue(res["correct"], out)
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
            want = {m["name"]: m["unit"] for m in self.spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            for key, metric in res["metrics"].items():
                value = metric["value"]
                self.assertTrue(math.isfinite(value), key)
                if section == "end_to_end":
                    self.assertGreater(value, 0, key)

    def test_fig9_grid_held_out_seed(self):
        self.check_workload("fig9-grid")

    def test_service_scaleout_held_out_seed(self):
        self.check_workload("service-scaleout")

    def test_service_audit_open_held_out_seed(self):
        self.check_workload("service-audit-open")

    def test_corrupted_repair_is_counted_as_failed(self):
        code, out = run("service-audit-open", 0, "--inject-repair-fault",
                        seed=1)
        self.assertEqual(code, 0, out)
        res = result(out)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_unknown_workload_is_rejected(self):
        code, out = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--tmp-dir", required=True)
    ARGS, rest = ap.parse_known_args()
    unittest.main(argv=[sys.argv[0], *rest])
