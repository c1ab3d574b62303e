"""Byte-identity of the CLI: every command on fixed configs, pinned.

`tests/golden/cli.json` holds, for each config and command, the exit
code, stdout, stderr and every file written to the config's out_dir.
Reports are pinned verbatim; CSVs (and the stdout of `simulate`, which
is the CSV) by their sha256.  The data file was written once from these
configs and is not regenerated: a refactor that changes a single byte
of any output fails here.  Beyond those configs, one sha256 pins the
CSVs of 100 seeded random firms, each solved once and chained, a second
their exact bits: each trajectory's objective, feasibility report and
samples, as float.hex, and a third the `verify` reports of the same firms.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import random
from pathlib import Path

from firmopt import ScenarioKind
from firmopt.cli import COMMANDS, RunConfig, _trajectory_csv, cmd_verify, main
from firmopt.verify import BruteForceGrid

from conftest import ALL_KINDS, draw_scenario_case, solve_and_chain

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

_BASE = {
    "p": 10.0, "r": 0.1, "A": 2.0, "alpha": 0.5, "K": 3.0, "B": 5.0,
    "u_max": 8.0, "v_max": 50.0, "w_max": 5.0, "S_max": 100.0, "T": 10.0,
}


def _doc(init, jump=False, breakpoints=None, **params):
    n0, d0, s0 = init
    options = {"brute_nt": 10}
    if breakpoints is not None:
        options["chain_breakpoints"] = list(breakpoints)
    return {
        "params": {**_BASE, **params},
        "init": {"N0": n0, "D0": d0, "S0": s0},
        "jump_mode": jump,
        "options": options,
    }


#: name -> config document (options.out_dir is set per run).
CONFIGS = {
    # the README example
    "readme": _doc((20, 10, 10), breakpoints=(0, 5, 10)),
    # the benchmark's `cli` workload configs
    "baseline": _doc((20.0, 10.0, 10.0), breakpoints=(0.0, 5.0, 10.0)),
    "s1": _doc((20.0, 0.0, 10.0), breakpoints=(0.0, 4.0, 10.0)),
    "s2": _doc((40.0, 25.0, 20.0), breakpoints=(0.0, 3.0, 10.0)),
    "s3": _doc((20.0, 10.0, 0.0), breakpoints=(0.0, 6.0, 10.0)),
    "a1": _doc((20.0, 10.0, 10.0), True, breakpoints=(0.0, 5.0, 10.0)),
    "a2": _doc((20.0, 30.0, 10.0), True, breakpoints=(0.0, 2.0, 10.0)),
    "overshoot": _doc((20.0, 10.0, 10.0), T=4.57920600019801),
    # stock outlasting the horizon (t_S >= T)
    "ts_beyond_s1": _doc((20.0, 0.0, 20.0), T=2.0),
    "ts_beyond_s2": _doc((20.0, 10.0, 20.0), T=2.0),
    "ts_beyond_a1": _doc((20.0, 10.0, 20.0), True, T=2.0),
    "ts_beyond_a2": _doc((20.0, 30.0, 20.0), True, T=2.0),
    # debt outlasting the horizon (t_D >= T)
    "td_beyond_s2": _doc((20.0, 100.0, 10.0), v_max=20.0),
    "td_beyond_s3": _doc((20.0, 100.0, 0.0), v_max=20.0),
    "td_beyond_a2": _doc((20.0, 500.0, 10.0), True),
    # expensive credit: outside A*exp(r*T) < p - K, `verify` fails
    "expensive_credit": _doc((40.0, 40.0, 0.0), r=0.8, B=1.0, T=6.0),
    # A2's repayment rate p*w_max - B exceeds v_max
    "a2_infeasible": _doc((20.0, 30.0, 10.0), True, v_max=40.0),
    # zero horizons
    "t0_s1": _doc((20.0, 0.0, 0.0), T=0.0),
    "t0_s3": _doc((20.0, 10.0, 0.0), T=0.0),
    "t0_a2": _doc((5.0, 10.0, 0.0), True, T=0.0),
}


def _sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all(workdir: Path) -> dict[str, dict]:
    """Run every command on every config in-process, one out_dir each."""
    results = {}
    for name, doc in CONFIGS.items():
        for command in COMMANDS:
            key = f"{name}/{command}"
            out_dir = workdir / name / command
            run_doc = copy.deepcopy(doc)
            run_doc["options"]["out_dir"] = str(out_dir)
            config_path = workdir / f"{name}.json"
            config_path.write_text(json.dumps(run_doc), encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, str(config_path)])
            files = {}
            if out_dir.exists():
                for path in sorted(out_dir.iterdir()):
                    text = path.read_text(encoding="utf-8")
                    files[path.name] = _sha256(text) if path.suffix == ".csv" else text
            results[key] = {
                "exit": code,
                "stdout": (
                    _sha256(stdout.getvalue()) if command == "simulate" else stdout.getvalue()
                ),
                "stderr": stderr.getvalue(),
                "files": files,
            }
    return results


def test_cli_outputs_match_the_golden_file(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


#: sha256 of the CSVs of SEEDED_FIRMS, single solve then chain; the writer
#: that judged each row's state on its own wrote these same bytes
SEEDED_CSV_SHA256 = "074c4c1c2bf2576edde8efeefa121c4ace153a92a3692acc0088aa4c425ab3d9"
SEEDED_FIRMS = 100


def test_csvs_of_seeded_firms_match_their_pinned_hash():
    digest = hashlib.sha256()
    for seed in range(SEEDED_FIRMS):
        for traj in solve_and_chain(ALL_KINDS[seed % len(ALL_KINDS)], seed):
            if traj is not None:
                digest.update(_trajectory_csv(traj).encode("utf-8"))
    assert digest.hexdigest() == SEEDED_CSV_SHA256


#: sha256 of the exact bits of the same trajectories: the CSVs print 9
#: digits, these every bit; re-pinned when t_D came from stepping the
#: feedback law, which moved five firms' S2/A2 clearances after t_S by 1-3 ulps
SEEDED_BITS_SHA256 = "7e36bd550e21930e425320f1b8d8b5d5d95b8f2bf5a6b7600aa0a2b6b6132ea8"


def _exact_bits(traj) -> bytes:
    """The trajectory's objective, each reported violation, and its state at
    every breakpoint and 101 uniform times, each float as float.hex."""
    T = traj.t_final
    times = [*traj.breakpoints, *(min(T, k * T / 100) for k in range(101))]
    lines = [traj.objective().hex()]
    lines += [f"{v.time.hex()} {v.constraint} {v.magnitude.hex()}"
              for v in traj.feasibility_report]
    lines += [" ".join([t.hex(), *(x.hex() for x in traj.sample(t))]) for t in times]
    return "\n".join(lines).encode("ascii") + b"\n\n"


def test_exact_bits_of_seeded_firms_match_their_pinned_hash():
    digest = hashlib.sha256()
    for seed in range(SEEDED_FIRMS):
        for traj in solve_and_chain(ALL_KINDS[seed % len(ALL_KINDS)], seed):
            if traj is not None:
                digest.update(_exact_bits(traj))
    assert digest.hexdigest() == SEEDED_BITS_SHA256


#: sha256 of `verify`'s exit code and report for the same firms on the
#: n_t = 10 search grid: certificate verdicts, singular counts, search values
#: and the search's gap verdict; computed before the gap scale read the
#: segment ends through Trajectory.sample
SEEDED_VERIFY_SHA256 = "ab007864d99834ab5e60da39b6ae0c46e069615e9ffb3117b517671d197f67fe"
JUMP_KINDS = (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP)


def test_verify_reports_of_seeded_firms_match_their_pinned_hash():
    digest = hashlib.sha256()
    for seed in range(SEEDED_FIRMS):
        kind = ALL_KINDS[seed % len(ALL_KINDS)]
        params, init = draw_scenario_case(random.Random(seed), kind)
        config = RunConfig(params, init, kind in JUMP_KINDS, grid=BruteForceGrid(n_t=10))
        code, report = cmd_verify(config)
        digest.update(f"{code}\n{report}\n".encode("utf-8"))
    assert digest.hexdigest() == SEEDED_VERIFY_SHA256
