"""Checks of the program's outputs against computations made apart from it.

Trajectories are re-integrated here with the matrix exponential of the
augmented linear system (scipy.linalg.expm), not with firmopt's segment
formulas.  Every check returns a list of failure messages, empty when
the output is right.  The checks run once per distinct input, after the
timed loop, in the parent process, so they stay out of the measured
time and memory.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.linalg import expm

import firmopt

import cases

#: Relative tolerance for values compared at full precision.
RTOL = 1e-9
#: Relative tolerance for values printed with 6 significant digits.
REPORT_RTOL = 1e-5
CSV_HEADER = "t,N,D,S,u,v,w,feasible"
CSV_MIN_ROWS = 1000


def propagate(params, state: tuple[float, float, float], row) -> tuple[float, float, float]:
    """State after holding the control of policy row (t0, t1, u, v, w)."""
    t0, t1, u, v, w = row
    m = np.zeros((4, 4))
    m[0, 3] = params.p * w - v - params.K * u - params.B
    m[1, 1], m[1, 3] = params.r, params.A * u - v
    m[2, 2], m[2, 3] = -params.alpha, u - w
    y = expm(m * (t1 - t0)) @ np.array([*state, 1.0])
    return float(y[0]), float(y[1]), float(y[2])


def endpoints(params, start, rows) -> list[tuple[float, float, float]]:
    """States at 0 and at the end of every policy row."""
    states = [(start.N, start.D, start.S)]
    for row in rows:
        states.append(propagate(params, states[-1], row))
    return states


def feasibility_scale(params, state) -> float:
    return max(1.0, abs(state.N), abs(state.D), abs(state.S), params.S_max)


def infeasible(params, states, tol: float) -> str | None:
    """The first state breaking N, D >= 0 or 0 <= S <= S_max, if any."""
    for n, d, s in states:
        if n < -tol or d < -tol or s < -tol or s > params.S_max + tol:
            return f"infeasible state N={n:.6g} D={d:.6g} S={s:.6g}"
    return None


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_tiling(rows, T: float) -> list[str]:
    if not rows or rows[0][0] != 0.0 or rows[-1][1] != T:
        return [f"policy does not span [0, {T}]"]
    if any(a[1] != b[0] for a, b in zip(rows, rows[1:])):
        return ["policy segments leave gaps"]
    return []


def optimum(case: cases.Case) -> float:
    """N(T) - D(T) of the synthesized policy, integrated here."""
    synth = firmopt.synthesize_policy(case.params, case.init, case.kind)
    n, d, _ = endpoints(case.params, case.start, cases.policy_rows(synth.policy))[-1]
    return n - d


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def check_pipeline_case(case: cases.Case, rec: dict, one_interval_chain: float) -> list[str]:
    params, bad = case.params, []
    if rec["kind"] != case.kind.value:
        bad.append(f"classified as {rec['kind']}, drawn as {case.kind.value}")
    t_s = math.log1p(params.alpha * case.init.S / params.w_max) / params.alpha
    if not close(rec["t_s"], t_s, 1e-12):
        bad.append(f"t_S = {rec['t_s']!r}, expected {t_s!r}")
    tol = 1e-9 * feasibility_scale(params, case.init)
    bad += check_tiling(rec["policy"], params.T)
    states = endpoints(params, case.start, rec["policy"])
    reason = infeasible(params, states, tol)
    if reason:
        bad.append(f"synthesized policy: {reason}")
    ref = states[-1][0] - states[-1][1]
    if not close(rec["objective"], ref, RTOL):
        bad.append(f"objective {rec['objective']!r} != N(T) - D(T) = {ref!r}")
    samples = rec["samples"]
    if len(samples) != 3 * cases.SAMPLE_POINTS:
        bad.append(f"{len(samples) // 3} samples, expected {cases.SAMPLE_POINTS}")
    else:
        points = [tuple(samples[i:i + 3]) for i in range(0, len(samples), 3)]
        reason = infeasible(params, points, tol)
        if reason:
            bad.append(f"sampled trajectory: {reason}")
        if not close(points[-1][0] - points[-1][1], ref, RTOL):
            bad.append("sample at T disagrees with N(T) - D(T)")
    if not rec["certified"]:
        bad.append("certify_policy failed")
    if not rec["chain3_feasible"]:
        bad.append("three-interval chain trajectory is infeasible")
    if rec["chain3_objective"] > ref + RTOL * max(1.0, abs(ref)):
        bad.append(f"three-interval chain {rec['chain3_objective']!r} beats the optimum {ref!r}")
    if not close(one_interval_chain, rec["objective"], RTOL):
        bad.append(f"one-interval chain {one_interval_chain!r} != single solve {rec['objective']!r}")
    return bad


def check_pipeline(seed: int, records: dict) -> list[str]:
    bad = []
    for i, case in enumerate(cases.pipeline_cases(seed)):
        rec = records.get(str(i))
        if rec is None:
            bad.append(f"pipeline case {i}: no output recorded")
            continue
        plan = firmopt.chain_plan(case.params, case.init, [0.0, case.params.T], case.jump_mode)
        _, single = firmopt.evaluate_chain(case.params, plan)
        bad += [f"pipeline case {i}: {m}" for m in check_pipeline_case(case, rec, single)]
    return bad


# ---------------------------------------------------------------------------
# exhaustive search (the traced cli run)
# ---------------------------------------------------------------------------


def check_brute_case(case: cases.Case, by_grid: dict[int, dict], closed: float) -> list[str]:
    """`by_grid` maps n_t to the recorded search result on that grid."""
    params, bad = case.params, []
    tol = RTOL * max(1.0, abs(closed))
    feas_tol = 1e-8 * feasibility_scale(params, case.start)
    for n_t, rec in sorted(by_grid.items()):
        where = f"n_t={n_t}"
        value, rows = rec["value"], rec["policy"]
        if value > closed + tol:
            bad.append(f"{where}: best {value!r} beats the closed form {closed!r}")
        tiling = check_tiling(rows, params.T)
        if tiling:
            bad += [f"{where}: {m}" for m in tiling]
            continue
        h = params.T / n_t
        for row in rows[1:]:
            if abs(row[0] - round(row[0] / h) * h) > 1e-12 * params.T:
                bad.append(f"{where}: switch at {row[0]!r} is off the grid")
        states = endpoints(params, case.start, rows)
        reason = infeasible(params, states, feas_tol)
        if reason:
            bad.append(f"{where}: returned policy: {reason}")
        ref = states[-1][0] - states[-1][1]
        if not close(value, ref, RTOL):
            bad.append(f"{where}: value {value!r} != re-evaluated {ref!r}")
    grids = sorted(by_grid)
    for coarse, fine in zip(grids, grids[1:]):
        if fine % coarse == 0 and by_grid[fine]["value"] < by_grid[coarse]["value"] - tol:
            bad.append(f"best(n_t={fine}) < best(n_t={coarse}) on nested grids")
    return bad


def check_search(seed: int, records: dict) -> list[str]:
    work = cases.brute_cases(seed)
    grouped: dict[int, dict[int, dict]] = {}
    for key, rec in records.items():
        idx, n_t = map(int, key.split("/"))
        grouped.setdefault(idx, {})[n_t] = rec
    bad = []
    for idx, by_grid in sorted(grouped.items()):
        case = work[idx]
        closed = firmopt.objective_value(case.params, case.init, case.kind)
        bad += [f"search case {idx}: {m}" for m in check_brute_case(case, by_grid, closed)]
    if not grouped:
        bad.append("search: no output recorded")
    return bad


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def report_value(text: str, key: str) -> float | None:
    m = re.search(rf"^{re.escape(key)} = (\S+)$", text, re.MULTILINE)
    return float(m.group(1)) if m else None


def check_csv(text: str, T: float, S_max: float) -> list[str]:
    """Header, at least the 1000-point grid, ends at T, feasible throughout."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV does not start with its header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) < CSV_MIN_ROWS:
        return [f"CSV has {len(rows)} rows, expected at least {CSV_MIN_ROWS}"]
    if any(len(r) != 8 for r in rows):
        return ["CSV row without 8 fields"]
    times = [float(r[0]) for r in rows]
    bad = []
    if times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
        bad.append("CSV times do not run upward from 0")
    if not close(times[-1], T, 1e-8):
        bad.append(f"CSV ends at t = {times[-1]!r}, not T = {T!r}")
    tol = 1e-6 * max(1.0, S_max)
    for r in rows:
        n, d, s = float(r[1]), float(r[2]), float(r[3])
        if r[7] != "true" or n < -tol or d < -tol or s < -tol or s > S_max + tol:
            bad.append(f"CSV row at t = {r[0]} is infeasible")
            break
    return bad


def check_cli_op(command: str, rec: dict, ref: float, T: float, S_max: float) -> list[str]:
    """One successful command's report and files against the optimum `ref`."""
    out, files, bad = rec["stdout"], rec["files"], []
    if len(set(rec["digests"])) != 1:
        bad.append("output differs between repeated runs")
    tol = REPORT_RTOL * max(1.0, abs(ref))
    if command == "solve":
        value = report_value(out, "objective")
        if value is None or not close(value, ref, REPORT_RTOL):
            bad.append(f"objective = {value!r}, benchmark evaluates {ref!r}")
    elif command in ("verify", "brute-force"):
        closed = report_value(out, "closed_form")
        best = report_value(out, "brute_force_best")
        if closed is None or not close(closed, ref, REPORT_RTOL):
            bad.append(f"closed_form = {closed!r}, benchmark evaluates {ref!r}")
        if best is None or best > ref + tol:
            bad.append(f"brute_force_best = {best!r} beats the optimum {ref!r}")
        if command == "verify" and ("FAIL" in out or out.count("PASS") != 5):
            bad.append("verify report does not pass every check")
    elif command == "simulate":
        bad += check_csv(files.get("trajectory.csv", ""), T, S_max)
        if not bad:
            last = files["trajectory.csv"].splitlines()[-1].split(",")
            if not close(float(last[1]) - float(last[2]), ref, 1e-7):
                bad.append("CSV N(T) - D(T) disagrees with the optimum")
    elif command == "chain":
        csv = files.get("chain_trajectory.csv", "")
        bad += check_csv(csv, T, S_max)
        value = report_value(out, "objective")
        if value is None or value > ref + tol:
            bad.append(f"chain objective = {value!r} beats the optimum {ref!r}")
        elif not bad:
            last = csv.splitlines()[-1].split(",")
            if not close(value, float(last[1]) - float(last[2]), REPORT_RTOL):
                bad.append("chain objective disagrees with its CSV at T")
    missing = [f for f in cases.CLI_OUTPUTS[command] if f not in files]
    if missing:
        bad.append(f"missing output files {missing}")
    printed = "trajectory.csv" if command == "simulate" else cases.CLI_OUTPUTS[command][0]
    if files.get(printed, out) != out:
        bad.append(f"{printed} differs from the printed output")
    return bad


def cli_case(doc: dict) -> cases.Case:
    params = firmopt.ModelParams(**doc["params"])
    init = firmopt.State(doc["init"]["N0"], doc["init"]["D0"], doc["init"]["S0"])
    jump = doc.get("jump_mode", False)
    return cases.Case(params, init, jump, firmopt.classify_scenario(params, init, jump))


def check_cli(records: dict) -> list[str]:
    docs = cases.cli_config_docs()
    expected = {f"{n}/{c}" for n in cases.CLI_CONFIGS for c in cases.CLI_COMMANDS}
    expected.add("/".join(cases.OVERSHOOT_OP))
    bad = [f"cli {k}: never run" for k in sorted(expected - set(records))]
    for key, rec in sorted(records.items()):
        name, command = key.split("/")
        if rec["code"] != 0:
            if (name, command) != cases.OVERSHOOT_OP:
                bad.append(f"cli {key}: exit {rec['code']!r}: {rec['stderr'][-200:]}")
            continue
        case = cli_case(docs[name])
        ref = optimum(case)
        msgs = check_cli_op(command, rec, ref, case.params.T, case.params.S_max)
        bad += [f"cli {key}: {m}" for m in msgs]
    return bad


def check(workload: str, seed: int, records: dict, search_records: dict | None) -> list[str]:
    bad = check_pipeline(seed, records) if workload == "pipeline" else check_cli(records)
    if search_records is not None:
        bad += check_search(seed, search_records)
    return bad
