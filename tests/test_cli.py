"""Config parsing, command execution, artifacts and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import firmopt
from firmopt import chain, cli, dynamics, solver, verify
from firmopt.cli import (
    BRUTE_COST_MAX,
    BRUTE_NT_MAX,
    COMMANDS,
    CSV_FMT,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ConfigError,
    execute_command,
    main,
    parse_config,
)

from conftest import ZERO_SNAP_DOC, schema_valid_documents

BASE_DOC = {
    "params": {
        "p": 10, "r": 0.1, "A": 2, "alpha": 0.5, "K": 3, "B": 5,
        "u_max": 8, "v_max": 50, "w_max": 5, "S_max": 100, "T": 10,
    },
    "init": {"N0": 20, "D0": 0, "S0": 10},
}


#: JSON integers no float holds: one beyond float range, and one of more
#: digits than json.loads converts to an int
BEYOND_FLOAT_RANGE = "1" + "0" * 400
TOO_MANY_DIGITS = "1" * 4301
#: a JSON value nested deeper than json.loads can recurse
DEEP_NESTING = "[" * 100000 + "]" * 100000


def config_text(doc):
    """json.dumps(doc), each string "#<digits>" written as the bare number:
    json.dumps of an int of over 4300 digits meets the same limit.  A string
    "#<brackets>" is written as the bare nested arrays alike."""
    return re.sub(r'"#([\d\[\]]+)"', r"\1", json.dumps(doc))


def make_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(command, config_path):
    return main([command, str(config_path)])


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = parse_config(json.dumps(BASE_DOC))
        assert config.jump_mode is False
        assert config.grid == verify.BruteForceGrid()
        assert config.chain_breakpoints is None
        assert config.out_dir == "."

    def test_negative_rate_rejected_with_key_path(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["r"] = -0.1
        with pytest.raises(ConfigError, match=r"params\.r"):
            parse_config(json.dumps(doc))

    def test_demand_above_capacity_rejected(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["w_max"] = 9
        with pytest.raises(ConfigError, match="w_max"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected_with_path(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["gamma"] = 1.0
        with pytest.raises(ConfigError, match=r"params\.gamma"):
            parse_config(json.dumps(doc))
        doc2 = json.loads(json.dumps(BASE_DOC))
        doc2["options"] = {"plot": True}
        with pytest.raises(ConfigError, match=r"options\.plot"):
            parse_config(json.dumps(doc2))
        doc2["options"] = {"rk4_step": 1e-3}
        with pytest.raises(ConfigError, match=r"unknown key options\.rk4_step"):
            parse_config(json.dumps(doc2))

    def test_missing_required_key(self):
        doc = {"params": BASE_DOC["params"]}
        with pytest.raises(ConfigError, match="init"):
            parse_config(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_nesting_deeper_than_the_parser_recurses_is_invalid_json(self):
        with pytest.raises(ConfigError, match="^invalid JSON: maximum recursion depth"):
            parse_config(DEEP_NESTING)

    def test_brute_nt_is_bounded_by_the_searchs_cost(self):
        # checked by parsing alone: no search runs at these sizes
        assert BRUTE_NT_MAX >= 200  # the default grid and the benchmark's largest
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"brute_nt": BRUTE_NT_MAX}
        assert parse_config(json.dumps(doc)).grid.n_t == BRUTE_NT_MAX
        doc["options"] = {"brute_nt": BRUTE_NT_MAX + 1}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == (f"options.brute_nt: at most {BRUTE_NT_MAX}, the "
                                  "search's time growing with its square")

    @pytest.mark.parametrize("levels, n_lv, n_t", [
        # 19 u levels alone: L = 19, n_t * 19**3 within the bound up to 1700
        ({"u": [8.0 * k / 18 for k in range(19)], "v": [0], "w": [0]}, 19, 1700),
        # 17 u levels beside the default 3 v and 2 w: L = 102, up to n_t = 10
        ({"u": [8.0 * k / 16 for k in range(17)]}, 102, 10),
    ])
    def test_brute_levels_are_bounded_by_the_searchs_cost(self, tmp_path, capsys, levels, n_lv,
                                                          n_t):
        # checked by parsing alone: no search runs at these sizes
        assert BRUTE_COST_MAX == BRUTE_NT_MAX * 18**3  # the default levels at the cap
        assert n_t * n_lv**3 <= BRUTE_COST_MAX < (n_t + 1) * n_lv**3
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"brute_nt": n_t, "brute_levels": levels}
        assert parse_config(json.dumps(doc)).grid.n_t == n_t
        doc["options"]["brute_nt"] = n_t + 1
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == (f"options.brute_levels: {n_lv} level triples at brute_nt = "
                                  f"{n_t + 1}, but brute_nt * triples**3 is at most 11664000")
        assert run_cli("verify", make_config(tmp_path, doc)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {err.value}\n"

    def test_options_validation(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"brute_nt": 0}
        with pytest.raises(ConfigError, match="brute_nt"):
            parse_config(json.dumps(doc))
        doc["options"] = {"brute_levels": {"x": [1]}}
        with pytest.raises(ConfigError, match=r"brute_levels\.x"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key", list(BASE_DOC["params"]))
    def test_each_missing_param_is_named(self, key):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["params"][key]
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == f"missing required key params.{key}"

    def test_empty_params_name_the_first_model_field(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"] = {}
        first = dataclasses.fields(firmopt.ModelParams)[0].name
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == f"missing required key params.{first}"

    def test_keys_are_checked_in_order_presence_and_number_together(self):
        # p comes before T: its bad value is reported, not T's absence
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["p"] = "ten"
        del doc["params"]["T"]
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == "params.p: expected a number"

    def test_search_options_fill_the_brute_force_grid(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {
            "brute_nt": 7,
            "brute_levels": {"u": [0, 8], "v": [1.5], "w": [0, 2.5, 5]},
        }
        config = parse_config(json.dumps(doc))
        assert config.grid == verify.BruteForceGrid(
            n_t=7, u_levels=(0.0, 8.0), v_levels=(1.5,), w_levels=(0.0, 2.5, 5.0)
        )


class TestCommands:
    def test_solve_report(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("solve", make_config(tmp_path, doc))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "scenario = S1_NoDebtWithStock" in out
        assert "t_S = 1.38629" in out
        assert "objective = 254.657" in out
        assert (tmp_path / "out" / "solve_report.txt").read_text() == out

    def test_verify_report_passes(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 20, "D0": 10, "S0": 0}
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 40}
        code = run_cli("verify", make_config(tmp_path, doc))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "slackness: PASS" in out
        assert "transversality: PASS" in out
        assert "hamiltonian-argmax: PASS" in out
        assert "singular segment" in out
        assert "brute-force gap <= tol: PASS" in out

    def test_simulate_csv(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("simulate", make_config(tmp_path, doc))
        assert code == EXIT_OK
        csv_text = (tmp_path / "out" / "trajectory.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "t,N,D,S,u,v,w,feasible"
        assert len(lines) >= 1001
        assert all(line.endswith(",true") for line in lines[1:])

    def test_simulate_zero_horizon_single_row(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["T"] = 0
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("simulate", make_config(tmp_path, doc))
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0,20,0,10,")
        # the row carries the controls of the policy that `solve` reports
        capsys.readouterr()
        assert run_cli("solve", make_config(tmp_path, doc)) == EXIT_OK
        (segment,) = capsys.readouterr().out.split("policy:\n")[1].splitlines()
        reported = [float(cell.split(" = ")[1]) for cell in segment.split("  ")[2:]]
        assert [float(x) for x in lines[1].split(",")[4:7]] == reported

    def test_simulate_jump_emits_double_row(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 20, "D0": 30, "S0": 10}
        doc["jump_mode"] = True
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("simulate", make_config(tmp_path, doc))
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
        assert lines[1].startswith("0,20,30,10,")
        assert lines[2].startswith("0,0,10,10,")

    def test_chain_command(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {
            "out_dir": str(tmp_path / "out"),
            "chain_breakpoints": [0, 5, 10],
        }
        code = run_cli("chain", make_config(tmp_path, doc))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "objective = 254.657" in out
        assert "interval 0" in out and "interval 1" in out
        assert (tmp_path / "out" / "chain_trajectory.csv").exists()

    def test_brute_force_command(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 40}
        code = run_cli("brute-force", make_config(tmp_path, doc))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "closed_form = 254.657" in out
        assert "brute_force_best = " in out
        assert "policy:" in out

    def test_byte_identical_reruns(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 30}
        config = make_config(tmp_path, doc)
        outputs = []
        for _ in range(2):
            assert run_cli("brute-force", config) == EXIT_OK
            outputs.append((tmp_path / "out" / "brute_force_report.txt").read_bytes())
            assert run_cli("simulate", config) == EXIT_OK
        assert outputs[0] == outputs[1]

    def test_infeasible_inputs_exit_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        # repayment budget exhausts the cash before the debt clears
        doc["init"] = {"N0": 20, "D0": 120, "S0": 10}
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("solve", make_config(tmp_path, doc))
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_unprofitable_params_exit_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["p"] = 6
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        code = run_cli("solve", make_config(tmp_path, doc))
        assert code == EXIT_INFEASIBLE
        assert "profitable" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["r"] = -1
        code = run_cli("solve", make_config(tmp_path, doc))
        assert code == EXIT_CONFIG
        assert "params.r" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"params": []}, "params: expected an object"),
            ({"params": {**BASE_DOC["params"], "T": -1}}, "params.T: must be nonnegative"),
            ({"options": []}, "options: expected an object"),
            ({"options": {"brute_levels": []}}, "options.brute_levels: expected an object"),
            ({"options": {"chain_breakpoints": [5]}},
             "options.chain_breakpoints: expected an array of at least two times"),
        ],
        ids=["params", "T", "options", "brute_levels", "chain_breakpoints"],
    )
    def test_a_malformed_section_exits_two(self, tmp_path, capsys, override, message):
        assert run_cli("solve", make_config(tmp_path, {**BASE_DOC, **override})) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_an_unknown_command_is_a_config_error(self):
        # main's parser admits COMMANDS only; execute_command checks on its own
        with pytest.raises(ConfigError) as err:
            execute_command(parse_config(json.dumps(BASE_DOC)), "nope")
        assert str(err.value) == "unknown command 'nope'"

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        assert run_cli("solve", tmp_path / "absent.json") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "init, message",
        [
            ((-1, 0, 10), "initial N and D must be nonnegative, "
                          "got State(N=-1.0, D=0.0, S=10.0)"),
            ((20, -1, 10), "initial N and D must be nonnegative, "
                           "got State(N=20.0, D=-1.0, S=10.0)"),
            ((20, 0, -1), "initial S must lie in [0, 100.0], got -1.0"),
            ((20, 0, 101), "initial S must lie in [0, 100.0], got 101.0"),
        ],
    )
    def test_initial_state_outside_the_constraints_exit_two(
        self, tmp_path, capsys, init, message
    ):
        # the library's check_initial_state decides, its message prefixed
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = dict(zip(("N0", "D0", "S0"), init))
        assert run_cli("solve", make_config(tmp_path, doc)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: init: {message}\n"

    @pytest.mark.parametrize(
        "command, T, breakpoints, key",
        [
            ("verify", 0, None, "params.T"),
            ("brute-force", 0, None, "params.T"),
            ("chain", 0, None, "params.T"),
            ("chain", 10, [0, 5, 5, 10], "options.chain_breakpoints"),
            ("chain", 10, [0, 5], "options.chain_breakpoints"),
            ("chain", 10, [1, 10], "options.chain_breakpoints"),
        ],
    )
    def test_unusable_horizon_or_breakpoints_exit_two(
        self, tmp_path, capsys, command, T, breakpoints, key
    ):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["T"] = T
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 10}
        if breakpoints is not None:
            doc["options"]["chain_breakpoints"] = breakpoints
        code = run_cli(command, make_config(tmp_path, doc))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("digits, message", [
        (BEYOND_FLOAT_RANGE, "{path}: must be finite"),
        (TOO_MANY_DIGITS, "invalid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["beyond-float-range", "too-many-digits"])
    @pytest.mark.parametrize("section, path", [
        ("params", "params.p"),
        ("init", "init.N0"),
        ("brute_levels", "options.brute_levels.u"),
        ("chain_breakpoints", "options.chain_breakpoints"),
    ])
    def test_an_integer_no_float_holds_exits_two(
        self, tmp_path, capsys, section, path, digits, message
    ):
        doc = json.loads(json.dumps(BASE_DOC))
        number = "#" + digits
        if section in ("params", "init"):
            doc[section][path.split(".")[1]] = number
        else:
            doc["options"] = {section: {"u": [number]} if section == "brute_levels"
                              else [0, number]}
        (tmp_path / "run.json").write_text(config_text(doc))
        assert run_cli("chain", tmp_path / "run.json") == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: " + message.format(path=path))

    def test_a_file_of_open_brackets_exits_two(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("[" * 100000)
        assert run_cli("solve", tmp_path / "run.json") == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["solve", "chain"])
    def test_an_unwritable_out_dir_exits_two(self, tmp_path, capsys, command):
        (tmp_path / "afile").write_text("")
        doc = {**BASE_DOC, "options": {"out_dir": str(tmp_path / "afile" / "sub")}}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: options.out_dir: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, csv_name", [("simulate", "trajectory.csv"), ("chain", "chain_trajectory.csv")]
    )
    def test_last_csv_row_at_horizon_whose_grid_rounds_above_it(
        self, tmp_path, capsys, command, csv_name
    ):
        # 999 * T / 999 rounds to the float above T at this horizon
        T = 4.57920600019801
        assert 999 * T / 999 > T
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["T"] = T
        doc["init"] = {"N0": 20, "D0": 10, "S0": 10}
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_OK
        rows = (tmp_path / "out" / csv_name).read_text().strip().split("\n")
        assert rows[-1].split(",")[0] == CSV_FMT % T

    @pytest.mark.parametrize(
        "command, csv_name", [("simulate", "trajectory.csv"), ("chain", "chain_trajectory.csv")]
    )
    def test_csv_rows_agree_with_the_exit_code_at_large_magnitudes(
        self, tmp_path, capsys, command, csv_name
    ):
        # D runs to about 7e10 here, where its rounding exceeds
        # 1e-9 * max(1, S_max); the rows must use the integrator's tolerance
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"].update(p=844121906.5605689, B=4.42090232077319, v_max=8441219065.605689)
        doc["init"] = {"N0": 4.211485125664098, "D0": 70496195171.5308, "S0": 28.701136764478118}
        doc["jump_mode"] = True
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_OK
        rows = (tmp_path / "out" / csv_name).read_text().strip().split("\n")
        assert all(row.endswith(",true") for row in rows[1:])

    @pytest.mark.parametrize(
        "command, owner, name",
        [("verify", verify, "certify_policy"), ("brute-force", solver, "synthesize_policy")],
    )
    def test_zero_horizon_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, owner, name
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError(f"{name} ran for a zero horizon")

        monkeypatch.setattr(owner, name, not_reached)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["T"] = 0
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: params.T: the brute-force search needs a positive horizon\n"
        )

    @pytest.mark.parametrize("command", ["verify", "brute-force"])
    def test_search_without_feasible_candidate_exits_one(self, tmp_path, capsys, command):
        # with no sales the fixed cost drains the small cash on every candidate
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 1, "D0": 0, "S0": 10}
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_levels": {"w": [0]}}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: no feasible")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "brute-force"])
    def test_search_levels_outside_the_control_box_exit_two(self, tmp_path, capsys, command):
        # searched, u = w = 50 "beats" the certified S2 optimum 244.556 with 2083.68
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 20, "D0": 10, "S0": 10}
        doc["options"] = {
            "out_dir": str(tmp_path / "out"),
            "brute_nt": 20,
            "brute_levels": {"u": [0, 5, 50], "w": [0, 5, 50]},
        }
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: options.brute_levels.u: level 50.0 outside [0, 8.0]\n"
        )
        assert not (tmp_path / "out").exists()

    def test_search_holds_no_stock_the_firm_does_not_hold(self, tmp_path, capsys):
        # cash N0 = 1e10 once excused 10 units of stock: verify failed the
        # certified optimum and brute-force sold 50 units from an empty store
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 1e10, "D0": 0, "S0": 0}
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 10}
        config = make_config(tmp_path, doc)
        assert run_cli("verify", config) == EXIT_OK
        assert "brute-force gap <= tol: PASS\n" in capsys.readouterr().out
        assert run_cli("brute-force", config) == EXIT_OK
        out = capsys.readouterr().out
        assert "gap = 0\n" in out
        assert out.endswith("policy:\n  [0, 10]  u = 5  v = 10  w = 5\n")

    def test_verify_forgives_the_rounding_of_a_large_objective(self, tmp_path, capsys):
        # money scaled by 1e11: the search beats the closed form 1.4e13 by
        # one ulp (0.00195), which an absolute tolerance of 1e-4 failed
        doc = json.loads(json.dumps(BASE_DOC))
        for key in ("p", "A", "K", "B", "v_max"):
            doc["params"][key] *= 1e11
        doc["params"]["T"] = 6
        doc["init"] = {"N0": 2e12, "D0": 0, "S0": 0}
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 10}
        config = make_config(tmp_path, doc)
        parsed = parse_config(config.read_text())
        synth = solver.synthesize_policy(
            parsed.params, parsed.init, firmopt.classify_scenario(parsed.params, parsed.init)
        )
        _, best = verify.brute_force_best(parsed.params, parsed.init, parsed.grid)
        assert best - synth.objective > 1e-4
        assert run_cli("verify", config) == EXIT_OK
        verdicts = [ln for ln in capsys.readouterr().out.splitlines() if ": " in ln]
        assert len(verdicts) == 5
        assert all(ln.split(": ")[1].startswith("PASS") for ln in verdicts)

    def test_verify_fails_a_search_that_beats_the_closed_form_by_a_little(
        self, tmp_path, capsys, monkeypatch
    ):
        # at objective 254.657 a gain of 1e-6 is millions of ulps, not rounding
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 10}
        config = make_config(tmp_path, doc)
        parsed = parse_config(config.read_text())
        closed = solver.synthesize_policy(
            parsed.params, parsed.init, firmopt.classify_scenario(parsed.params, parsed.init)
        ).objective
        search = verify.brute_force_best
        monkeypatch.setattr(
            verify, "brute_force_best", lambda *args: (search(*args)[0], closed + 1e-6)
        )
        assert run_cli("verify", config) == EXIT_INFEASIBLE
        assert "brute-force gap <= tol: FAIL\n" in capsys.readouterr().out

    @pytest.mark.parametrize("init, v_max, largest", [
        # debt outlasting the horizon: N(T) = 140.8, a binade above D0 = 100
        # and every other state the closed form sums, and above the value 75.98
        ((20, 100, 10), 20, lambda traj: traj.terminal_state().N),
        # S3 from N0 = D0 = 200: the start, a binade above every later state
        # and the value 122.7
        ((200, 200, 0), 50, lambda traj: traj.start.N),
    ], ids=["final_exit", "start"])
    # 8 ulps, derived and not read from cli.GAP_ULPS, so that a changed
    # constant fails here: the closed form and the search each round at
    # most three segment updates and the final N - D, each by at most an
    # ulp of the largest magnitude summed (a product and a sum, half an ulp
    # each): 2 evaluations * 4 roundings = 8
    @pytest.mark.parametrize("ulps, code, verdict", [
        (8, EXIT_OK, "PASS"), (9, EXIT_INFEASIBLE, "FAIL"),
    ], ids=["within", "past"])
    def test_verify_gap_scale_reaches_the_start_and_the_final_exit(
        self, tmp_path, capsys, monkeypatch, init, v_max, largest, ulps, code, verdict
    ):
        # the search may beat the closed form by GAP_ULPS ulps of the largest
        # magnitude the evaluations sum, here a segment end's, and no more
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"]["v_max"] = v_max
        doc["init"] = dict(zip(("N0", "D0", "S0"), init))
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 10}
        config = make_config(tmp_path, doc)
        parsed = parse_config(config.read_text())
        closed = solver.synthesize_policy(
            parsed.params, parsed.init, firmopt.classify_scenario(parsed.params, parsed.init)
        )
        ulp = math.ulp(largest(closed.trajectory))
        assert ulp == 2 * math.ulp(closed.objective)
        search = verify.brute_force_best
        monkeypatch.setattr(
            verify, "brute_force_best",
            lambda *args: (search(*args)[0], closed.objective + ulps * ulp),
        )
        assert run_cli("verify", config) == code
        assert f"brute-force gap <= tol: {verdict}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_debt_growth_beyond_float_range_rejected(self, tmp_path, capsys, command):
        # exp(r*T) overflows a float past r*T = ln(sys.float_info.max)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["params"].update(r=1, T=800)
        doc["options"] = {"out_dir": str(tmp_path / "out"), "brute_nt": 5}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: params.r: r*T <= 709.783")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_debt_growth_beyond_float_range_to_t_s_is_never_cleared(
        self, tmp_path, capsys, command
    ):
        # r*T is small but r*t_S = 2307 is not: the debt is never cleared
        doc = {**SLOW_DEPLETION_A2_DOC, "options": {"out_dir": str(tmp_path / "out"),
                                                   "brute_nt": 3}}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_OK
        if command == "solve":
            assert "t_S = never\nt_D = never\n" in capsys.readouterr().out

    @staticmethod
    def child_env():
        """The environment of a child interpreter that imports this same firmopt."""
        return {**os.environ, "PYTHONPATH": str(Path(firmopt.__file__).resolve().parents[1])}

    def test_console_entry_point(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        config = make_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "firmopt.cli", "solve", str(config)],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert "scenario = S1_NoDebtWithStock" in proc.stdout

    def test_the_argument_parser_is_built_once_per_process(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []

        class CountedParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(args or kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountedParser)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        config = make_config(tmp_path, doc)
        assert [run_cli("solve", config), run_cli("simulate", config)] == [EXIT_OK, EXIT_OK]
        assert built == []

    def test_solve_does_not_import_numpy(self, tmp_path):
        # nor do the commands that write a CSV
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out"), "chain_breakpoints": [0, 5, 10]}
        config = make_config(tmp_path, doc)
        script = (
            "import sys, firmopt, firmopt.cli\n"
            "for command in ('solve', 'simulate', 'chain'):\n"
            f"    assert firmopt.cli.main([command, {str(config)!r}]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("False")


class TestSinglePass:
    """Each command synthesizes once and integrates each policy once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"synthesize_policy": 0, "integrate_exact": 0}
        for owner, name in ((solver, "synthesize_policy"), (dynamics, "integrate_exact")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (firmopt, chain, cli, dynamics, solver, verify):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "command, synthesized, integrated",
        [
            ("solve", 1, 1),
            ("simulate", 1, 1),
            ("verify", 1, 1),
            ("chain", 3, 3),
            ("brute-force", 1, 1),
        ],
    )
    def test_calls_per_command(
        self, tmp_path, capsys, counts, command, synthesized, integrated
    ):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 20, "D0": 10, "S0": 10}
        doc["options"] = {
            "out_dir": str(tmp_path / "out"),
            "brute_nt": 10,
            "chain_breakpoints": [0, 2, 5, 10],
        }
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_OK
        assert counts == {
            "synthesize_policy": synthesized,
            "integrate_exact": integrated,
        }

    @pytest.mark.parametrize("command", ["simulate", "chain"])
    def test_csv_rows_are_written_in_one_walk(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # the CSV's 1000-odd rows take no segment lookup of their own: one
        # Trajectory.walk moves forward through the segments
        calls = {}
        for owner, name in (
            (dynamics.Trajectory, "walk"),
            (dynamics.Trajectory, "segment_at"),
            (dynamics.Trajectory, "sample"),
        ):
            calls[name] = 0
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        doc = json.loads(json.dumps(BASE_DOC))
        doc["init"] = {"N0": 20, "D0": 10, "S0": 10}
        doc["options"] = {"out_dir": str(tmp_path / "out"), "chain_breakpoints": [0, 2, 5, 10]}
        assert run_cli(command, make_config(tmp_path, doc)) == EXIT_OK
        assert calls == {"walk": 1, "segment_at": 0, "sample": 0}


# JSON-ish characters; a fixed alphabet also spares building a unicode table
JSONISH = st.text(alphabet='{}[]":,.-0123456789eETNnul ', max_size=20)
# values no numeric field, flag or option accepts
NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    JSONISH,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(JSONISH, st.integers(), max_size=1),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def malformed_documents(draw):
    """Config text that must be refused before any command runs."""
    doc = json.loads(json.dumps(BASE_DOC))
    doc["options"] = {"brute_nt": 10}
    section = draw(st.sampled_from(["params", "init"]))
    key = draw(st.sampled_from(sorted(doc[section])))
    fault = draw(
        st.sampled_from(
            ["text", "top", "value", "missing", "unknown", "jump_mode", "option"]
        )
    )
    if fault == "text":
        text = draw(JSONISH)
        return text if text.strip() else "{"
    if fault == "top":
        doc = draw(st.one_of(st.none(), st.integers(), st.lists(st.integers())))
    elif fault == "value":
        doc[section][key] = draw(NOT_A_NUMBER)
    elif fault == "missing":
        del doc[section][key]
    elif fault == "unknown":
        where = draw(st.sampled_from([doc, doc["params"], doc["init"], doc["options"]]))
        where[draw(st.sampled_from(["q", "rk4_step", "T0", "n"]))] = 1
    elif fault == "jump_mode":
        doc["jump_mode"] = draw(NOT_A_NUMBER.filter(lambda v: not isinstance(v, bool)))
    else:
        name, bad = draw(
            st.sampled_from(
                [
                    ("brute_nt", 0),
                    ("brute_nt", 2.5),
                    ("brute_nt", True),
                    ("chain_breakpoints", [1.0]),
                    ("chain_breakpoints", [0.0, "T"]),
                    ("brute_levels", {"x": [1.0]}),
                    ("brute_levels", {"u": []}),
                    ("out_dir", 3),
                ]
            )
        )
        doc["options"][name] = bad
    return json.dumps(doc)


@given(text=malformed_documents(), command=st.sampled_from(COMMANDS))
def test_fuzzed_configs_exit_two_never_a_traceback(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(path)])
    assert code == EXIT_CONFIG
    assert err.getvalue().startswith("config error: ")


# the README's S2 firm with time scaled by 2**-60 (T about 8.7e-18): t_S and
# t_D lie 1e-19 apart, and each must be snapped at its own exact time
TIME_SCALED_S2_DOC = {
    "params": {
        **BASE_DOC["params"], "T": 10 * 2.0**-60,
        **{key: BASE_DOC["params"][key] * 2.0**60
           for key in ("r", "alpha", "u_max", "v_max", "w_max", "B")},
    },
    "init": {"N0": 20, "D0": 10, "S0": 10},
}

# a debt within e^-28 of what repaying at v_max can ever clear: t_D = 280,
# where the closed form's terms near 5.8e14 leave D = -0.25 of rounding
ILL_CONDITIONED_CLEARANCE_DOC = {
    "params": {**BASE_DOC["params"], "T": 285},
    "init": {"N0": 20, "D0": 400 * -math.expm1(-28.0), "S0": 0},
    "options": {"brute_nt": 3},
}

# a stock that lasts until t_S = 46151, far past T = 1, so that the debt
# left at t_S would grow by exp(r*t_S) = exp(2307), beyond float range
SLOW_DEPLETION_A2_DOC = {
    "params": {**BASE_DOC["params"], "r": 0.05, "alpha": 1e-4, "B": 1e-3,
               "w_max": 1e-3, "S_max": 1e3, "T": 1},
    "init": {"N0": 1, "D0": 10, "S0": 1e3},
    "jump_mode": True,
    "options": {"brute_nt": 3},
}


# the README parameters, once with a search that finds nothing feasible
# and once with exp(r*T) beyond the float range; then a t_D that only its
# log1p form puts on the debt's zero; then the time-scaled S2 firm; then a
# debt clearance too ill-conditioned to place, which exits 1; then a debt
# whose growth to t_S overflows, which is never cleared; then a cash
# integer beyond float range, one of more digits than JSON converts, and
# arrays nested deeper than JSON parses
@example(
    doc={**BASE_DOC, "init": {"N0": 1, "D0": 0, "S0": 10},
         "options": {"brute_nt": 5, "brute_levels": {"w": [0]}}},
    command="verify",
)
@example(doc={**BASE_DOC, "params": {**BASE_DOC["params"], "r": 1, "T": 800}}, command="solve")
@example(doc=ZERO_SNAP_DOC, command="solve")
@example(doc=TIME_SCALED_S2_DOC, command="solve")
@example(doc=TIME_SCALED_S2_DOC, command="verify")
@example(doc=ILL_CONDITIONED_CLEARANCE_DOC, command="solve")
@example(doc=ILL_CONDITIONED_CLEARANCE_DOC, command="verify")
@example(doc=SLOW_DEPLETION_A2_DOC, command="chain")
@example(doc={**BASE_DOC, "init": {**BASE_DOC["init"], "N0": "#" + BEYOND_FLOAT_RANGE}},
         command="solve")
@example(doc={**BASE_DOC, "init": {**BASE_DOC["init"], "N0": "#" + TOO_MANY_DIGITS}},
         command="solve")
@example(doc={**BASE_DOC, "init": {**BASE_DOC["init"], "N0": "#" + DEEP_NESTING}},
         command="solve")
@given(doc=schema_valid_documents(), command=st.sampled_from(COMMANDS))
def test_schema_valid_configs_never_end_in_a_traceback(tmp_path_factory, doc, command):
    base = tmp_path_factory.getbasetemp()
    doc = {**doc, "options": {**doc.get("options", {}), "out_dir": str(base / "valid")}}
    path = base / "valid.json"
    path.write_text(config_text(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(path)])
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG)
    assert "Traceback" not in err.getvalue()
