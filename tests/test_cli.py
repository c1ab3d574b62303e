"""Config parsing, command execution, artifacts and exit codes."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import firmopt
from firmopt import chain, cli, dynamics, solver, verify
from firmopt.cli import (
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

BASE_DOC = {
    "params": {
        "p": 10, "r": 0.1, "A": 2, "alpha": 0.5, "K": 3, "B": 5,
        "u_max": 8, "v_max": 50, "w_max": 5, "S_max": 100, "T": 10,
    },
    "init": {"N0": 20, "D0": 0, "S0": 10},
}


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
        assert config.options.brute_nt == 200
        assert config.options.out_dir == "."

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

    def test_options_validation(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"brute_nt": 0}
        with pytest.raises(ConfigError, match="brute_nt"):
            parse_config(json.dumps(doc))
        doc["options"] = {"brute_levels": {"x": [1]}}
        with pytest.raises(ConfigError, match=r"brute_levels\.x"):
            parse_config(json.dumps(doc))


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

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        assert run_cli("solve", tmp_path / "absent.json") == EXIT_CONFIG

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

    def test_console_entry_point(self, tmp_path):
        config = make_config(tmp_path, BASE_DOC)
        doc_dir = tmp_path / "out"
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(doc_dir)}
        config = make_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "firmopt.cli", "solve", str(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "scenario = S1_NoDebtWithStock" in proc.stdout

    def test_solve_does_not_import_numpy(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["options"] = {"out_dir": str(tmp_path / "out")}
        config = make_config(tmp_path, doc)
        script = (
            "import sys, firmopt, firmopt.cli\n"
            f"assert firmopt.cli.main(['solve', {str(config)!r}]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
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
        [("solve", 1, 1), ("simulate", 1, 1), ("verify", 1, 1), ("chain", 3, 3)],
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
