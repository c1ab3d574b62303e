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
from bisect import bisect_left
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
#: ulps of the largest magnitude the two objective evaluations sum by which the
#: search may beat the closed form in `verify`: each evaluation rounds a few
#: such sums (its segments' N and D updates, the final N - D) by half an ulp
GAP_ULPS = 8
#: the largest options.brute_nt: the search's time grows with n_t**2, at
#: 4.5-11 us per n_t**2 with the default levels (README firms, n_t = 100-400,
#: Python 3.11 on one core), so n_t = 2000 searches for 18-44 s, within a minute
BRUTE_NT_MAX = 2000
#: the largest n_t * L**3, L the search's level-triple count: its time grows
#: with n_t**2 * L**3 and its memory with n_t * L**3 (two baseline firms,
#: n_t = 2-2000, L = 18-180, Python 3.11: at most 7.5e-10 s and 11.2
#: tracemalloc bytes per unit, both at L = 18), so with n_t <= BRUTE_NT_MAX no
#: search costs more than n_t = BRUTE_NT_MAX at the default 18 triples (S2:
#: 14.7 s, 131 MB)
BRUTE_COST_MAX = BRUTE_NT_MAX * 18**3

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
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond float range
        out = math.inf
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
    # JSONDecodeError, an integer of too many digits, or nesting deeper than the stack
    except (ValueError, RecursionError) as exc:
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
        if nt > BRUTE_NT_MAX:
            raise ConfigError(f"options.brute_nt: at most {BRUTE_NT_MAX}, the search's "
                              "time growing with its square")
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
    n_t = kwargs["grid"].n_t
    try:
        n_lv = math.prod(map(len, kwargs["grid"].levels(params)))
    except ControlBoundsError as exc:
        raise ConfigError(f"options.brute_levels.{exc}") from exc
    if n_t * n_lv**3 > BRUTE_COST_MAX:
        raise ConfigError(f"options.brute_levels: {n_lv} level triples at brute_nt = {n_t}, "
                          f"but brute_nt * triples**3 is at most {BRUTE_COST_MAX}")

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
    is emitted as two rows sharing t (pre- and post-jump).  Every row's
    `feasible` cell is the trajectory's verdict, `traj.feasible`.

    Trajectory.walk reads the ascending times a segment at a time; each
    segment's rows take one % over its repeated row format, into which its
    controls, held D and S (+0.0) and verdict are formatted once."""
    T = traj.t_final
    n = CSV_GRID_POINTS - 1  # the grid's last time n*T/n can round above T
    times = [k * T / n for k in range(n)] + [min(T, n * T / n)] if T > 0.0 else []
    if T / n < sys.float_info.min:  # only a subnormal step rounds grid times together
        times = list(dict.fromkeys(times))
    for b in reversed(traj.breakpoints):  # of equal times the first stands for all
        i = bisect_left(times, b)
        times[i:i + (times[i:i + 1] == [b])] = [b]
    jump_at = {j.t: j for j in traj.jumps}
    verdict = "true" if traj.feasible else "false"
    rows = ["t,N,D,S,u,v,w,feasible\n"]
    for c, ts, Ns, Ds, Ss in traj.walk(times):
        tail = ",".join(["", CSV_FMT % c.u, CSV_FMT % c.v, CSV_FMT % c.w, verdict]) + "\n"
        if ts[0] in jump_at:  # a jump's time starts its segment: the pre-jump row first
            j = jump_at[ts[0]]
            pre = (ts[0], j.post_state.N - j.delta, j.post_state.D - j.delta, j.post_state.S)
            rows.append(",".join([CSV_FMT % x for x in pre]) + tail)
        cols = [col for col in (ts, Ns, Ds, Ss) if col is not None]
        row_fmt = ",".join([CSV_FMT, CSV_FMT] + ["0" if x is None else CSV_FMT for x in (Ds, Ss)])
        cells = [None] * (len(ts) * len(cols))
        for k, col in enumerate(cols):
            cells[k::len(cols)] = col
        rows.append((row_fmt + tail) * len(ts) % tuple(cells))
    return "".join(rows)


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
    return verify.brute_force_best(config.params, synth.trajectory.start, config.grid)


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
    # the magnitudes summed: cash and debt at the closed form's segment ends
    # (each start reads its entry), and the value
    ends = map(synth.trajectory.sample, synth.trajectory.breakpoints)
    scale = max(abs(best), *(abs(x) for state in ends for x in (state.N, state.D)))
    brute_ok = best - closed <= GAP_ULPS * math.ulp(scale)

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
        _write(config.out_dir, report, text)
    except (PolicyInfeasibleError, UncoveredInitialConditionError,
            NoFeasibleCandidateError, chain_mod.ChainJunctionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:  # from _write, chain's CSV included
        raise ConfigError(f"options.out_dir: {exc}") from exc
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
