"""Batch command-line front end.

One JSON config file per run (keeps runs reproducible and diffable);
commands: solve, verify, simulate, chain, brute-force.  Reports are
plain text with machine-parsable ``key = value`` lines; trajectories go
to CSV.  Output is byte-identical across repeated runs with the same
config.

Exit codes: 0 success, 1 infeasibility (an exhaustive search without a
feasible candidate included) or failed certification, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from bisect import insort_left
from dataclasses import dataclass, fields
from pathlib import Path

from . import chain as chain_mod
from . import solver, verify
from .dynamics import Trajectory
from .model import (
    ControlBoundsError,
    ModelParams,
    NoFeasibleCandidateError,
    PolicyInfeasibleError,
    State,
    UncoveredInitialConditionError,
    check_initial_state,
    classify_scenario,
    validate_params,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2

CSV_GRID_POINTS = 1000
REPORT_FMT = "%.6g"
CSV_FMT = "%.9g"

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_INIT_KEYS = ("N0", "D0", "S0")
_OPTION_KEYS = ("brute_nt", "brute_levels", "chain_breakpoints", "out_dir")


class ConfigError(ValueError):
    """Schema violation; the message carries the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed run; the options' brute_nt and brute_levels fill `grid`."""

    params: ModelParams
    init: State
    jump_mode: bool = False
    grid: verify.BruteForceGrid = verify.BruteForceGrid()
    chain_breakpoints: tuple[float, ...] | None = None
    out_dir: str = "."


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    return out


def _reject_unknown(doc: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where}")


def _read_numbers(doc: dict, section: str, keys: tuple[str, ...]) -> list[float]:
    """The numbers doc[section][key] for each key in order, all required."""
    _reject_unknown(doc[section], keys, section)
    values = []
    for key in keys:
        if key not in doc[section]:
            raise ConfigError(f"missing required key {section}.{key}")
        values.append(_expect_number(doc[section][key], f"{section}.{key}"))
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown keys are rejected with their full path; parameter-invariant
    violations are reported against params.<field>.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _reject_unknown(doc, ("params", "init", "jump_mode", "options"), "")
    for required in ("params", "init"):
        if required not in doc:
            raise ConfigError(f"missing required key {required}")
        if not isinstance(doc[required], dict):
            raise ConfigError(f"{required}: expected an object")

    params = ModelParams(*_read_numbers(doc, "params", _PARAM_KEYS))
    init = State(*_read_numbers(doc, "init", _INIT_KEYS))

    jump_mode = doc.get("jump_mode", False)
    if not isinstance(jump_mode, bool):
        raise ConfigError("jump_mode: expected a boolean")

    opt = doc.get("options", {})
    if not isinstance(opt, dict):
        raise ConfigError("options: expected an object")
    _reject_unknown(opt, _OPTION_KEYS, "options")
    grid = {}
    if "brute_nt" in opt:
        nt = opt["brute_nt"]
        if isinstance(nt, bool) or not isinstance(nt, int) or nt < 1:
            raise ConfigError("options.brute_nt: expected a positive integer")
        grid["n_t"] = nt
    if "brute_levels" in opt:
        levels = opt["brute_levels"]
        if not isinstance(levels, dict):
            raise ConfigError("options.brute_levels: expected an object")
        _reject_unknown(levels, ("u", "v", "w"), "options.brute_levels")
        for comp, arr in levels.items():
            if not isinstance(arr, list) or not arr:
                raise ConfigError(
                    f"options.brute_levels.{comp}: expected a nonempty array"
                )
            grid[f"{comp}_levels"] = tuple(
                _expect_number(x, f"options.brute_levels.{comp}") for x in arr
            )
    kwargs = {"grid": verify.BruteForceGrid(**grid)}
    if "chain_breakpoints" in opt:
        arr = opt["chain_breakpoints"]
        if not isinstance(arr, list) or len(arr) < 2:
            raise ConfigError(
                "options.chain_breakpoints: expected an array of at least two times"
            )
        kwargs["chain_breakpoints"] = tuple(
            _expect_number(x, "options.chain_breakpoints") for x in arr
        )
    if "out_dir" in opt:
        if not isinstance(opt["out_dir"], str):
            raise ConfigError("options.out_dir: expected a string")
        kwargs["out_dir"] = opt["out_dir"]

    report = validate_params(params)
    if not report.ok:
        fld, msg = report.violations[0]
        raise ConfigError(f"params.{fld}: {msg}")
    try:
        check_initial_state(params, init)
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from exc
    try:
        kwargs["grid"].levels(params)
    except ControlBoundsError as exc:
        raise ConfigError(f"options.brute_levels.{exc}") from exc

    return RunConfig(params, init, jump_mode, **kwargs)


def _fmt(value: float) -> str:
    return REPORT_FMT % value


def _policy_lines(policy) -> list[str]:
    lines = ["policy:"]
    for seg in policy.segments:
        lines.append(
            "  [%s, %s]  u = %s  v = %s  w = %s"
            % (
                _fmt(seg.t_start),
                _fmt(seg.t_end),
                _fmt(seg.value.u),
                _fmt(seg.value.v),
                _fmt(seg.value.w),
            )
        )
    return lines


def _times_lines(times: solver.SwitchingTimes) -> list[str]:
    t_s = _fmt(times.t_s) if times.t_s_within_horizon else "never"
    if times.t_d is None:
        t_d = "n/a"
    elif not times.t_d_within_horizon:
        t_d = "never"
    else:
        t_d = _fmt(times.t_d)
    return [f"t_S = {t_s}", f"t_D = {t_d}"]


def _jump_lines(jump) -> list[str]:
    if jump is None:
        return []
    return [
        "jump: delta_N = %s, delta_D = %s (post N = %s, D = %s)"
        % (
            _fmt(jump.delta),
            _fmt(jump.delta),
            _fmt(jump.post_state.N),
            _fmt(jump.post_state.D),
        )
    ]


def _trajectory_csv(traj: Trajectory) -> str:
    """CSV rows at all breakpoints plus a uniform grid; a jump at time t
    is emitted as two rows sharing t (pre- and post-jump).

    One pass over the sorted times (Trajectory.walk); each segment's
    constant controls are formatted once."""
    T = traj.t_final
    n = CSV_GRID_POINTS - 1  # the grid's last time n*T/n can round above T
    times = [k * T / n for k in range(n)] + [min(T, n * T / n)] if T > 0.0 else []
    for b in reversed(traj.breakpoints):  # ahead of the grid times equal to it
        insort_left(times, b)
    jump_at = {j.t: j for j in traj.jumps}
    tol = traj.tol
    s_top = traj.params.S_max + tol
    row_fmt = ",".join([CSV_FMT] * 4) + "%s"
    control_fmt = "," + ",".join([CSV_FMT] * 3)
    lines = ["t,N,D,S,u,v,w,feasible"]
    shown = last = None
    for t, (seg, N, D, S) in zip(times, traj.walk(times)):
        if t == last:  # of equal times the first stands for all
            continue
        last = t
        if seg is not shown:
            shown = seg
            c = seg.control
            controls = control_fmt % (c.u, c.v, c.w)
            tails = (controls + ",false", controls + ",true")
        if t in jump_at:  # the pre-jump row comes first
            j = jump_at[t]
            pre_N, pre_D, pre_S = j.post_state
            pre_N, pre_D = pre_N - j.delta, pre_D - j.delta
            feasible = pre_N >= -tol and pre_D >= -tol and -tol <= pre_S <= s_top
            lines.append(row_fmt % (t, pre_N, pre_D, pre_S, tails[feasible]))
        feasible = N >= -tol and D >= -tol and -tol <= S <= s_top
        lines.append(row_fmt % (t, N, D, S, tails[feasible]))
    return "\n".join(lines) + "\n"


def _write(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(text, encoding="utf-8")
    return target


def _synthesize(config: RunConfig) -> solver.SynthesisResult:
    kind = classify_scenario(config.params, config.init, config.jump_mode)
    return solver.synthesize_policy(config.params, config.init, kind)


def _brute_force(config: RunConfig, synth: solver.SynthesisResult):
    """The exhaustive search from the synthesized policy's post-jump state."""
    start = synth.trajectory.segments[0].entry
    return verify.brute_force_best(config.params, start, config.grid)


def cmd_solve(config: RunConfig) -> tuple[int, str]:
    synth = _synthesize(config)
    lines = [f"scenario = {synth.kind.value}"]
    lines += _times_lines(synth.times)
    lines.append(f"objective = {_fmt(synth.objective)}")
    lines += _jump_lines(synth.jump)
    lines += _policy_lines(synth.policy)
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_simulate(config: RunConfig) -> tuple[int, str]:
    return EXIT_OK, _trajectory_csv(_synthesize(config).trajectory)


def cmd_verify(config: RunConfig) -> tuple[int, str]:
    kind = classify_scenario(config.params, config.init, config.jump_mode)
    cert = verify.certify_policy(config.params, config.init, kind)
    synth = cert.synthesis
    closed = synth.objective
    _, best = _brute_force(config, synth)
    gap = max(0.0, best - closed)
    brute_ok = gap <= 1e-4

    def verdict(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    n_sing = len(cert.hamiltonian_argmax.singular_segments)
    lines = [
        f"scenario = {synth.kind.value}",
        f"slackness: {verdict(cert.slackness.passed)}",
        f"transversality: {verdict(cert.transversality.passed)}",
        "hamiltonian-argmax: %s (%d singular segment%s)"
        % (
            verdict(cert.hamiltonian_argmax.passed),
            n_sing,
            "" if n_sing == 1 else "s",
        ),
        f"multipliers-nonnegative: {verdict(cert.multipliers_nonnegative)}",
        f"brute-force gap <= tol: {verdict(brute_ok)}",
        f"closed_form = {_fmt(closed)}",
        f"brute_force_best = {_fmt(best)}",
    ]
    ok = cert.passed and brute_ok
    return (EXIT_OK if ok else EXIT_INFEASIBLE), "\n".join(lines) + "\n"


def cmd_chain(config: RunConfig) -> tuple[int, str]:
    breakpoints = config.chain_breakpoints or (0.0, config.params.T)
    try:
        plan = chain_mod.chain_plan(
            config.params, config.init, list(breakpoints), config.jump_mode
        )
    except ValueError as exc:  # junction failures raise ChainJunctionError
        raise ConfigError(f"options.chain_breakpoints: {exc}") from exc
    traj, objective = chain_mod.evaluate_chain(config.params, plan)
    lines = [f"objective = {_fmt(objective)}"]
    for idx, (t_start, t_end, _, synth) in enumerate(plan):
        exit_state = map(_fmt, synth.trajectory.terminal_state())
        lines.append(
            "interval %d: [%s, %s] scenario = %s exit N = %s D = %s S = %s"
            % (idx, _fmt(t_start), _fmt(t_end), synth.kind.value, *exit_state)
        )
        lines += ["  " + ln for ln in _jump_lines(synth.jump)]
    _write(config.out_dir, "chain_trajectory.csv", _trajectory_csv(traj))
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_brute_force(config: RunConfig) -> tuple[int, str]:
    synth = _synthesize(config)
    closed = synth.objective
    policy, best = _brute_force(config, synth)
    lines = [
        f"scenario = {synth.kind.value}",
        f"closed_form = {_fmt(closed)}",
        f"brute_force_best = {_fmt(best)}",
        f"gap = {_fmt(best - closed)}",
    ]
    lines += _policy_lines(policy)
    return EXIT_OK, "\n".join(lines) + "\n"


#: command -> (handler, report file, what needs a positive horizon or None)
_COMMANDS = {
    "solve": (cmd_solve, "solve_report.txt", None),
    "verify": (cmd_verify, "verify_report.txt", "the brute-force search"),
    "simulate": (cmd_simulate, "trajectory.csv", None),
    "chain": (cmd_chain, "chain_report.txt", "a chain"),
    "brute-force": (cmd_brute_force, "brute_force_report.txt", "the brute-force search"),
}
COMMANDS = tuple(_COMMANDS)


def execute_command(config: RunConfig, command: str) -> int:
    """Run one command: write its report, print it, return the exit code."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    handler, report, horizon_user = _COMMANDS[command]
    if not validate_params(config.params).profitable:
        print(
            "infeasible: parameters are not profitable "
            "(p*w_max must exceed (A+K)*w_max + B)",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    if horizon_user is not None and config.params.T <= 0.0:
        raise ConfigError(f"params.T: {horizon_user} needs a positive horizon")
    try:
        code, text = handler(config)
    except (PolicyInfeasibleError, UncoveredInitialConditionError,
            NoFeasibleCandidateError, chain_mod.ChainJunctionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write(config.out_dir, report, text)
    sys.stdout.write(text)
    return code


# built once: building it costs several times what parsing does
_PARSER = argparse.ArgumentParser(
    prog="firmopt",
    description="Optimal production, sales and debt-repayment planning "
    "for a single-product firm with linear dynamics.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("config", help="path to a JSON run configuration")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        return execute_command(config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
