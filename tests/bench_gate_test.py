#!/usr/bin/env python3
"""Self-test of the bench gate, tools/check_bench_regression.py.

Feeds the comparator synthetic baseline/fresh documents and checks
that each gate class passes what it should and fails what it should:
the negative controls prove the gate can fail. Run directly or via
ctest (bench_gate_test).
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # Leave no __pycache__ in tools/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import check_bench_regression as gate  # noqa: E402


def metric(value, gate_class="sim", better="lower", unit="count"):
    return {"value": value, "unit": unit, "better": better,
            "gate": gate_class}


def service_doc():
    """A small document in the metrics schema of src/api/metrics.hpp."""
    def run(cycles, commits, injected):
        return {"metrics": {
            "sim.cycles": metric(cycles, unit="cycles"),
            "htm.commits": metric(commits, better="higher"),
            "htm.xc_token_waits": metric(0),
            "scenario.injected": metric(injected, "exact", "higher"),
        }}
    return {"bench": "synthetic", "config": {"scale": 1, "nthreads": 32},
            "points": {
                "1x1x1": run(1000, 50, 0),
                "scenario poisson-open": run(800, 40, 1600),
                "all runs": {"metrics": {
                    "exec.run_s": metric(2.0, "host", unit="s")}},
            }}


def google_doc(rate):
    return {"context": {}, "benchmarks": [
        {"name": "BM_Probe", "run_type": "iteration",
         "items_per_second": rate}]}


def failures(base, fresh):
    """(failure count, report text) of comparing two documents."""
    rep = gate.Reporter()
    with contextlib.redirect_stdout(io.StringIO()):
        gate.compare("BENCH_synthetic.json", base, fresh, rep)
    return rep.failures, "\n".join(rep.lines)


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.base = service_doc()
        self.fresh = copy.deepcopy(self.base)

    def values(self, label):
        return self.fresh["points"][label]["metrics"]

    def assertFails(self, needle=""):
        n, text = failures(self.base, self.fresh)
        self.assertGreater(n, 0, text)
        self.assertIn(needle, text)

    def test_identical_documents_pass(self):
        n, text = failures(self.base, self.fresh)
        self.assertEqual(n, 0, text)
        self.assertEqual(failures(google_doc(1e6), google_doc(1e6))[0], 0)

    def test_sim_value_3_percent_off_fails_either_way(self):
        for factor in (1.03, 0.97):
            self.setUp()
            self.values("1x1x1")["sim.cycles"]["value"] = 1000 * factor
            self.assertFails("sim.cycles")

    def test_sim_value_within_2_percent_passes(self):
        self.values("1x1x1")["sim.cycles"]["value"] = 1015
        self.assertEqual(failures(self.base, self.fresh)[0], 0)

    def test_sim_counter_leaving_zero_fails(self):
        self.values("1x1x1")["htm.xc_token_waits"]["value"] = 1
        self.assertFails("htm.xc_token_waits")

    def test_exact_ledger_moving_by_one_fails(self):
        self.values("scenario poisson-open")["scenario.injected"][
            "value"] = 1601
        self.assertFails("scenario.injected")

    def test_host_2x_slower_fails_and_2x_faster_passes(self):
        self.values("all runs")["exec.run_s"]["value"] = 4.0
        self.assertFails("exec.run_s")
        self.values("all runs")["exec.run_s"]["value"] = 1.0
        self.assertEqual(failures(self.base, self.fresh)[0], 0)
        # Higher-better host rates, through the google-benchmark
        # adapter.
        self.assertGreater(failures(google_doc(1e6), google_doc(5e5))[0], 0)
        self.assertEqual(failures(google_doc(1e6), google_doc(2e6))[0], 0)

    def test_missing_point_or_metric_fails(self):
        del self.fresh["points"]["scenario poisson-open"]
        self.assertFails("missing")
        self.setUp()
        del self.values("1x1x1")["sim.cycles"]
        self.assertFails("missing")
        self.assertGreater(
            failures(google_doc(1e6), {"benchmarks": []})[0], 0)

    def test_sizing_mismatch_fails(self):
        self.fresh["config"]["nthreads"] = 16
        self.assertFails("sizing changed")

    def test_point_with_zero_commits_fails_as_vacuous(self):
        self.base["points"]["1x1x1"]["metrics"]["htm.commits"][
            "value"] = 0
        self.values("1x1x1")["htm.commits"]["value"] = 0
        self.assertFails("vacuous")

    def test_metric_zero_everywhere_gates_nothing(self):
        n, text = failures(self.base, self.fresh)
        self.assertEqual(n, 0, text)
        self.assertIn("htm.xc_token_waits gates nothing", text)
        self.assertNotIn("sim.cycles gates nothing", text)

    def test_every_baseline_file_is_compared(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir, fresh_dir = Path(tmp, "base"), Path(tmp, "fresh")
            base_dir.mkdir()
            fresh_dir.mkdir()
            for d in (base_dir, fresh_dir):
                (d / "BENCH_a.json").write_text(json.dumps(self.base))
            (base_dir / "BENCH_b.json").write_text(
                json.dumps(google_doc(1e6)))
            args = ["--baseline-dir", str(base_dir),
                    "--fresh-dir", str(fresh_dir),
                    "--report", str(Path(tmp, "report.txt"))]
            with contextlib.redirect_stdout(io.StringIO()):
                # BENCH_b.json has no fresh twin.
                self.assertEqual(gate.main(args), 1)
                (fresh_dir / "BENCH_b.json").write_text(
                    json.dumps(google_doc(1e6)))
                self.assertEqual(gate.main(args), 0)
            self.assertIn("BENCH_b.json",
                          Path(tmp, "report.txt").read_text())


if __name__ == "__main__":
    unittest.main()
