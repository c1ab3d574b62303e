"""Tests of the benchmark itself: every check must reject a wrong output.

    python3 benchmarks/selftest.py        (from the repository root)

Each test takes a real output of the program, makes it wrong in one
way, and asserts that the matching check reports it; the untouched
output must pass.  The file is not named test_*.py, so the repository's
own pytest run does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import firmopt  # noqa: E402

import cases  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


class PipelineChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = cases.pipeline_cases(seed=0)[:5]
        cls.records, cls.single = [], []
        for case in cls.cases:
            T = case.params.T
            outcome = worker.pipeline_op(case, cases.sample_grid(T), cases.chain_breakpoints(T))
            cls.records.append(worker.pipeline_record(outcome))
            plan = firmopt.chain_plan(case.params, case.init, [0.0, T], case.jump_mode)
            cls.single.append(firmopt.evaluate_chain(case.params, plan)[1])

    def failures(self, edit=lambda rec: None, single_shift=0.0):
        out = []
        for case, rec, single in zip(self.cases, self.records, self.single):
            rec = copy.deepcopy(rec)
            edit(rec)
            out += checks.check_pipeline_case(case, rec, single + single_shift)
        return out

    def test_true_outputs_pass(self):
        self.assertEqual(self.failures(), [])

    def test_perturbed_objective_is_rejected(self):
        def edit(rec):
            rec["objective"] *= 1.0 + 1e-6
        bad = self.failures(edit)
        self.assertTrue(any("objective" in m for m in bad), bad)

    def test_wrong_depletion_time_is_rejected(self):
        def edit(rec):
            rec["t_s"] *= 1.0 + 1e-9
        self.assertTrue(any("t_S" in m for m in self.failures(edit)))

    def test_infeasible_sample_is_rejected(self):
        def edit(rec):
            rec["samples"][3 * 17 + 2] = -1e-3  # S at the 18th grid point
        self.assertTrue(any("sampled" in m for m in self.failures(edit)))

    def test_missing_sample_is_rejected(self):
        def edit(rec):
            del rec["samples"][-3:]
        self.assertTrue(any("samples" in m for m in self.failures(edit)))

    def test_failed_certificate_is_rejected(self):
        def edit(rec):
            rec["certified"] = False
        self.assertTrue(any("certify" in m for m in self.failures(edit)))

    def test_one_interval_chain_mismatch_is_rejected(self):
        bad = self.failures(single_shift=1e-4)
        self.assertTrue(any("one-interval chain" in m for m in bad), bad)


class BruteChecks(unittest.TestCase):
    GRIDS = (10, 20, 40)

    @classmethod
    def setUpClass(cls):
        cls.case = cases.baseline_cases()[1]  # S2 on the baseline parameters
        cls.by_grid = {}
        for n_t in cls.GRIDS:
            grid = firmopt.BruteForceGrid(n_t=n_t)
            policy, value = firmopt.brute_force_best(cls.case.params, cls.case.start, grid)
            cls.by_grid[n_t] = {"value": value, "policy": cases.policy_rows(policy)}
        cls.closed = firmopt.objective_value(cls.case.params, cls.case.init, cls.case.kind)

    def failures(self, edit=lambda by_grid: None, closed=None):
        by_grid = copy.deepcopy(self.by_grid)
        edit(by_grid)
        return checks.check_brute_case(self.case, by_grid, self.closed if closed is None else closed)

    def test_true_outputs_pass(self):
        self.assertEqual(self.failures(), [])

    def test_value_above_closed_form_is_rejected(self):
        bad = self.failures(closed=self.by_grid[40]["value"] - 1e-3)
        self.assertTrue(any("beats the closed form" in m for m in bad), bad)

    def test_value_that_the_policy_does_not_reach_is_rejected(self):
        def edit(by_grid):
            by_grid[20]["value"] -= 1e-3
        self.assertTrue(any("re-evaluated" in m for m in self.failures(edit)))

    def test_switch_off_the_grid_is_rejected(self):
        def edit(by_grid):
            rows = by_grid[20]["policy"]
            rows[0][1] = rows[1][0] = rows[1][0] + 1e-3
        self.assertTrue(any("off the grid" in m for m in self.failures(edit)))

    def test_finer_grid_doing_worse_is_rejected(self):
        def edit(by_grid):
            by_grid[40] = copy.deepcopy(by_grid[10])
            by_grid[10] = copy.deepcopy(self.by_grid[40])
        bad = self.failures(edit)
        self.assertTrue(any("nested grids" in m for m in bad), bad)


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.run_dir = ROOT / ".bench_out" / "selftest"
        cases.write_cli_configs(cls.run_dir)
        cls.docs = cases.cli_config_docs()
        cls.case = checks.cli_case(cls.docs["baseline"])
        cls.ref = checks.optimum(cls.case)
        cls.records = {}
        cwd = Path.cwd()
        os.chdir(cls.run_dir)
        try:
            for command in cases.CLI_COMMANDS:
                code, stdout, stderr, _ = worker.cli_in_process(cls.run_dir, "baseline", command)
                files = {
                    f: (cls.run_dir / "out" / "baseline" / f).read_text()
                    for f in cases.CLI_OUTPUTS[command]
                }
                cls.records[command] = {
                    "code": code, "stdout": stdout, "stderr": stderr,
                    "files": files, "digests": ["same", "same"],
                }
        finally:
            os.chdir(cwd)

    def failures(self, command, edit=lambda rec: None):
        rec = copy.deepcopy(self.records[command])
        edit(rec)
        return checks.check_cli_op(command, rec, self.ref, self.case.params.T, self.case.params.S_max)

    def test_true_outputs_pass(self):
        for command in cases.CLI_COMMANDS:
            self.assertEqual(self.failures(command), [], command)

    def test_perturbed_objective_is_rejected(self):
        def edit(rec):
            rec["stdout"] = rec["stdout"].replace("objective = 244.556", "objective = 244.566")
            rec["files"]["solve_report.txt"] = rec["stdout"]
        bad = self.failures("solve", edit)
        self.assertTrue(any("objective =" in m for m in bad), bad)

    def test_truncated_csv_is_rejected(self):
        def edit(rec):
            text = rec["files"]["trajectory.csv"]
            rec["files"]["trajectory.csv"] = rec["stdout"] = "\n".join(text.splitlines()[:500])
        bad = self.failures("simulate", edit)
        self.assertTrue(any("rows" in m for m in bad), bad)

    def test_csv_ending_before_T_is_rejected(self):
        def edit(rec):
            text = rec["files"]["chain_trajectory.csv"]
            rec["files"]["chain_trajectory.csv"] = "\n".join(text.splitlines()[:-1])
        bad = self.failures("chain", edit)
        self.assertTrue(any("not T" in m for m in bad), bad)

    def test_csv_without_header_is_rejected(self):
        def edit(rec):
            text = rec["files"]["trajectory.csv"]
            rec["files"]["trajectory.csv"] = rec["stdout"] = text.split("\n", 1)[1]
        self.assertTrue(any("header" in m for m in self.failures("simulate", edit)))

    def test_infeasible_csv_row_is_rejected(self):
        def edit(rec):
            lines = rec["files"]["trajectory.csv"].splitlines()
            lines[300] = lines[300].replace("true", "false")
            rec["files"]["trajectory.csv"] = rec["stdout"] = "\n".join(lines)
        self.assertTrue(any("infeasible" in m for m in self.failures("simulate", edit)))

    def test_brute_force_report_above_closed_form_is_rejected(self):
        def edit(rec):
            rec["stdout"] = rec["stdout"].replace(
                "brute_force_best = ", "brute_force_best = 1"
            )
            rec["files"]["brute_force_report.txt"] = rec["stdout"]
        bad = self.failures("brute-force", edit)
        self.assertTrue(any("beats the optimum" in m for m in bad), bad)

    def test_failed_verification_is_rejected(self):
        def edit(rec):
            rec["stdout"] = rec["stdout"].replace("slackness: PASS", "slackness: FAIL")
            rec["files"]["verify_report.txt"] = rec["stdout"]
        self.assertTrue(any("verify" in m for m in self.failures("verify", edit)))

    def test_differing_repeats_are_rejected(self):
        def edit(rec):
            rec["digests"] = ["one", "two"]
        self.assertTrue(any("repeated" in m for m in self.failures("solve", edit)))

    def test_only_the_named_op_may_fail(self):
        crashed = {"code": 1, "stdout": "", "stderr": "ValueError", "files": {}, "digests": ["x"]}
        records = {"/".join(cases.OVERSHOOT_OP): crashed, "baseline/solve": crashed}
        bad = checks.check_cli(records)
        self.assertTrue(any(m.startswith("cli baseline/solve: exit") for m in bad), bad)
        self.assertFalse(any(m.startswith("cli overshoot/") for m in bad), bad)

    def test_named_op_fails_as_described(self):
        cwd = Path.cwd()
        os.chdir(self.run_dir)
        try:
            code, *_ = worker.cli_in_process(self.run_dir, *cases.OVERSHOOT_OP)
        finally:
            os.chdir(cwd)
        self.assertTrue(str(code).startswith("ValueError: t = 4.579206000198011 outside"), code)


class LoopMetrics(unittest.TestCase):
    def test_timings_read_each_ops_best_time(self):
        # two rounds of ops a, b, c; c fails in both
        times = iter([0.3, 0.1, 0.2, 0.4, 0.5, 0.2])
        loop = worker.Loop(None)
        loop.run(["a", "b", "c"], lambda op: (op != "c", next(times)), seconds=0)
        self.assertEqual((loop.attempted, loop.failed), (6, 2))
        self.assertEqual(loop.best, {"a": 0.3, "b": 0.1, "c": 0.2})
        metrics = loop.end_to_end(1.0)
        self.assertAlmostEqual(metrics["ops_per_s"], 3 / 0.6)
        self.assertAlmostEqual(metrics["op_p50_ms"], 200.0)  # a and b only


class SearchChecks(unittest.TestCase):
    def test_missing_search_output_is_rejected(self):
        self.assertTrue(checks.check_search(0, {}))


class MetricNames(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_units_agree_with_benchmark_json(self):
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertEqual(run.unit_of(metric["name"]), metric["unit"], metric["name"])

    def test_traced_run_reports_every_per_layer_metric(self):
        loop = worker.Loop(None)
        loop.attempted = 1
        saved, worker.FRESH_INTERPRETERS = worker.FRESH_INTERPRETERS, 1
        try:
            names = set(worker.per_layer({"loop": loop}, Tracer()))
        finally:
            worker.FRESH_INTERPRETERS = saved
        self.assertEqual(names, {m["name"] for m in self.spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
