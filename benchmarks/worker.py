"""One workload's timed loop, run in a process of its own.

    python3 benchmarks/worker.py setup --workload W --seed N --out DIR
    python3 benchmarks/worker.py run --workload W --seed N --out DIR \\
        --seconds S --trace 0|1

`setup` imports firmopt, builds the workload's inputs and exits; the
caller times it from spawn to exit.  `run` repeats whole rounds of the
workload's operations, one at a time, until --seconds have passed (two
rounds at least), and writes DIR/result.json: the metrics, the counts of
attempted and failed operations, and the program's outputs on each
distinct input for checks.py.  firmopt must be importable (PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import firmopt
import firmopt.cli

import cases
from proc import run_child
from tracing import Tracer

MIN_ROUNDS = 2
FRESH_INTERPRETERS = 7

SPANS = (
    "model.classify_scenario",
    "solver.synthesize_policy",
    "solver.objective_value",
    "dynamics.integrate_exact",
    "dynamics.Trajectory.sample",
    "dynamics.adjoint_backward",
    "chain.chain_plan",
    "chain.evaluate_chain",
    "verify.certify_policy",
    "verify.check_slackness",
    "verify.check_control_maximizes",
    "cli.parse_config",
)
COUNTERS = ("dynamics.PiecewiseExpFn.value",)
SELF_TIME_METRICS = tuple(s for s in SPANS if s != "cli.parse_config")
CALL_METRICS = (
    "solver.synthesize_policy",
    "dynamics.integrate_exact",
    "dynamics.Trajectory.sample",
    "dynamics.PiecewiseExpFn.value",
)


class Loop:
    """Closed loop with one caller: an op starts when the previous ends.

    Every round repeats the same ops, and equal ops do the same work.  The
    timing metrics are computed from each distinct op's best time over the
    run, not from every sample: the host's speed swings by up to 1.8x in
    phases of one to tens of seconds, so any one sample, and any average
    over a run, reads whichever phases that run met.  Short fast phases
    come in nearly every run, and an op's best time is its cost in them.

    Spans recorded before the loop (while inputs are built or warmed up)
    are dropped when it starts.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.best: dict = {}  # op -> best seconds
        self.failed_ops: set = set()
        self.samples: dict = {}  # op -> number of timed runs
        self.round_seconds: list[float] = []

    def run(self, ops, run_op, seconds: float) -> None:
        """`ops` is one round's ops; `run_op(op)` performs one and returns
        (succeeded, seconds spent in the program)."""
        if self.tracer is not None:
            self.tracer.reset()
        start = time.perf_counter()
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() - start < seconds:
            r0 = time.perf_counter()
            for op in ops:
                ok, dt = run_op(op)
                self.attempted += 1
                self.samples[op] = self.samples.get(op, 0) + 1
                if op not in self.best or dt < self.best[op]:
                    self.best[op] = dt
                if not ok:
                    self.failed += 1
                    self.failed_ops.add(op)
            self.round_seconds.append(time.perf_counter() - r0)
            i += 1

    @property
    def ops_per_s(self) -> float:
        """Rate of a round in which every op takes its best time."""
        return len(self.best) / sum(self.best.values())

    def end_to_end(self, peak_rss_mb: float) -> dict:
        ms = [1e3 * s for op, s in self.best.items() if op not in self.failed_ops]
        return {
            "ops_per_s": self.ops_per_s,
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expected_zeros(times) -> list[tuple[float, str]]:
    """Breakpoints where the policy drives the stock or the debt to zero."""
    zeros = []
    if times.t_s_within_horizon and times.t_s > 0.0:
        zeros.append((times.t_s, "S"))
    if times.t_d is not None and times.t_d_within_horizon and times.t_d > 0.0:
        zeros.append((times.t_d, "D"))
    return zeros


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def pipeline_op(case: cases.Case, grid: list[float], breakpoints: list[float]):
    """Solve one firm end to end, without the exhaustive search."""
    params, init = case.params, case.init
    kind = firmopt.classify_scenario(params, init, case.jump_mode)
    synth = firmopt.synthesize_policy(params, init, kind)
    objective = firmopt.objective_value(params, init, kind)
    start = synth.jump.post_state if synth.jump is not None else init
    traj = firmopt.integrate_exact(
        params, start, synth.policy, jump=synth.jump,
        expected_zeros=expected_zeros(synth.times),
    )
    samples = [traj.sample(t) for t in grid]
    cert = firmopt.certify_policy(params, init, kind)
    plan = firmopt.chain_plan(params, init, breakpoints, case.jump_mode)
    chained, chain_objective = firmopt.evaluate_chain(params, plan)
    return kind, synth, objective, samples, cert, chained, chain_objective


def pipeline_record(outcome) -> dict:
    kind, synth, objective, samples, cert, chained, chain_objective = outcome
    return {
        "kind": kind.value,
        "t_s": synth.times.t_s,
        "t_d": synth.times.t_d,
        "objective": objective,
        "policy": cases.policy_rows(synth.policy),
        "samples": [x for s in samples for x in (s.N, s.D, s.S)],
        "certified": cert.passed,
        "chain3_objective": chain_objective,
        "chain3_feasible": chained.feasible,
    }


def run_pipeline(seed: int, seconds: float, tracer, out: Path) -> dict:
    work = [
        (case, cases.sample_grid(case.params.T), cases.chain_breakpoints(case.params.T))
        for case in cases.pipeline_cases(seed)
    ]
    # one untimed round warms every path and records the outputs checked
    records = {str(i): pipeline_record(pipeline_op(*w)) for i, w in enumerate(work)}

    def run_op(idx):
        t0 = time.perf_counter()
        pipeline_op(*work[idx])
        return True, time.perf_counter() - t0

    loop = Loop(tracer)
    loop.run(range(len(work)), run_op, seconds)
    return {"loop": loop, "records": records, "rss": peak_rss_mb()}


# ---------------------------------------------------------------------------
# exhaustive search, measured in the traced cli run
# ---------------------------------------------------------------------------

#: Timed calls per grid size; the best is reported.
SEARCH_REPEATS = 2


def candidates(params, n_t: int) -> int:
    """Size of the searched class (computed, not counted): every level
    triple per component times every cut pair t_a <= t_b on the grid."""
    combos = 1
    for levels in firmopt.BruteForceGrid(n_t=n_t).levels(params):
        combos *= len(levels) ** 3
    cuts = max(1, n_t - 1)
    return combos * cuts * (cuts + 1) // 2


def search_layers(seed: int) -> tuple[dict[str, float], dict[str, dict]]:
    """`brute_force_best` on the seed's first search case at every grid of
    cases.BRUTE_GRIDS: the per-layer metrics and the outputs to check."""
    case = cases.brute_cases(seed)[0]
    records, best, searched = {}, {}, [0, 0.0]  # searched: candidates, seconds
    for _ in range(SEARCH_REPEATS):
        for n_t in cases.BRUTE_GRIDS:
            t0 = time.perf_counter()
            policy, value = firmopt.brute_force_best(
                case.params, case.start, firmopt.BruteForceGrid(n_t=n_t)
            )
            dt = time.perf_counter() - t0
            records[f"0/{n_t}"] = {"value": value, "policy": cases.policy_rows(policy)}
            best[n_t] = min(dt, best.get(n_t, dt))
            searched[0] += candidates(case.params, n_t)
            searched[1] += dt
    largest = max(cases.BRUTE_GRIDS)
    tracemalloc.start()
    firmopt.brute_force_best(case.params, case.start, firmopt.BruteForceGrid(n_t=largest))
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    layers = {
        **{f"verify.brute_force_best.nt{n}.s": best[n] for n in cases.BRUTE_GRIDS},
        "verify.brute_force_best.candidates_per_s": searched[0] / searched[1],
        "verify.brute_force_best.alloc_peak_mb": alloc_peak / 2**20,
    }
    return layers, records


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli_in_process(run_dir: Path, name: str, command: str):
    """`firmopt <command> configs/<name>.json` as the script runs it, in this
    process; the working directory must be `run_dir`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = firmopt.cli.main([command, f"configs/{name}.json"])
        except Exception as exc:  # an uncaught error is a failed op, as it is for a user
            code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - t0


def run_cli(seed: int, seconds: float, tracer, out: Path) -> dict:
    cases.write_cli_configs(out)
    ops = cases.cli_round(seed)
    os.chdir(out)  # the CLI resolves out_dir against the working directory
    records: dict[str, dict] = {}

    def run_op(op):
        name, command = op
        paths = [out / "out" / name / f for f in cases.CLI_OUTPUTS[command]]
        for path in paths:
            path.unlink(missing_ok=True)
        code, stdout, stderr, dt = cli_in_process(out, name, command)
        files = {p.name: p.read_text() for p in paths if p.exists()}
        digest = hashlib.sha256(
            json.dumps([stdout, files], sort_keys=True).encode()
        ).hexdigest()
        rec = records.setdefault(
            f"{name}/{command}",
            {"code": code, "stdout": stdout, "stderr": stderr[-400:], "files": files,
             "digests": []},
        )
        rec["digests"].append(digest)
        return code == 0, dt

    loop = Loop(tracer)
    loop.run(ops, run_op, seconds)
    result = {"loop": loop, "records": records, "rss": peak_rss_mb()}
    if tracer is not None:
        best = {op: s for op, s in loop.best.items() if op not in loop.failed_ops}
        result["layers"], result["search_records"] = search_layers(seed)
        result["layers"].update({
            f"cli.main.{c}.ms": 1e3 * statistics.median(
                s for (_, command), s in best.items() if command == c
            )
            for c in cases.CLI_COMMANDS
        })
    return result


# ---------------------------------------------------------------------------
# cold-path layers, measured in fresh interpreters
# ---------------------------------------------------------------------------


def _fresh(args: list[str]) -> tuple[float, str, str]:
    """Run a fresh interpreter that imports this same firmopt; return its
    lifetime in seconds, its stdout and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(firmopt.__file__).resolve().parents[1])}
    cmd = [sys.executable, *args]
    code, out, err, seconds = run_child(cmd, 60, capture=True, env=env)
    if code:
        raise subprocess.CalledProcessError(code, cmd, out, err)
    return seconds, out, err


def _numpy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the top-level numpy package, 0 if absent."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
        if m and m.group(2).strip() == "numpy":
            return int(m.group(1)) / 1e3
    return 0.0


def cold_path_layers() -> dict[str, float]:
    timed_import = (
        "import time; t = time.perf_counter(); import firmopt.cli; "
        "print(time.perf_counter() - t)"
    )
    bare, imports, numpy_ms = [], [], []
    for _ in range(FRESH_INTERPRETERS):
        bare.append(_fresh(["-c", "pass"])[0])
        imports.append(float(_fresh(["-c", timed_import])[1]))
        numpy_ms.append(_numpy_import_ms(_fresh(["-X", "importtime", "-c", "import firmopt.cli"])[2]))
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(bare),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.import.numpy_ms": statistics.median(numpy_ms),
    }


# ---------------------------------------------------------------------------


RUNNERS = {"pipeline": run_pipeline, "cli": run_cli}
SEARCH_LAYERS = (
    *(f"verify.brute_force_best.nt{n}.s" for n in cases.BRUTE_GRIDS),
    "verify.brute_force_best.candidates_per_s",
    "verify.brute_force_best.alloc_peak_mb",
)
CLI_MAIN_LAYERS = tuple(f"cli.main.{c}.ms" for c in cases.CLI_COMMANDS)


def build_inputs(workload: str, seed: int, out: Path) -> None:
    if workload == "pipeline":
        cases.pipeline_cases(seed)
    else:
        cases.write_cli_configs(out)
        cases.cli_round(seed)


def per_layer(result: dict, tracer) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    ops = result["loop"].attempted
    stats = tracer.stats
    metrics = {}
    for name in SELF_TIME_METRICS:
        metrics[f"{name}.self_us"] = 1e6 * stats[name].self_s / ops if name in stats else 0.0
    for name in CALL_METRICS:
        metrics[f"{name}.calls_per_op"] = stats[name].calls / ops if name in stats else 0.0
    layers = result.get("layers", {})
    for name in SEARCH_LAYERS + CLI_MAIN_LAYERS:
        metrics[name] = layers.get(name, 0.0)
    parse = stats.get("cli.parse_config")
    metrics["cli.parse_config.us"] = 1e6 * parse.self_s / parse.calls if parse else 0.0
    metrics.update(cold_path_layers())
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", choices=tuple(RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        build_inputs(args.workload, args.seed, args.out)
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(SPANS, COUNTERS)
    result = RUNNERS[args.workload](args.seed, args.seconds, tracer, args.out.resolve())
    loop = result["loop"]
    metrics = per_layer(result, tracer) if tracer else loop.end_to_end(result["rss"])
    report = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "rounds": len(loop.round_seconds),
        "ops_per_s": loop.ops_per_s,
        "round_seconds": loop.round_seconds,
        "best_seconds": [[repr(k), s, loop.samples[k]] for k, s in loop.best.items()],
        "metrics": metrics,
        "records": result["records"],
        "search_records": result.get("search_records"),
    }
    (args.out.resolve() / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
