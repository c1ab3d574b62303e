"""Seeded inputs of the benchmark's workloads.

Random firms follow the sampling rules of ``tests/conftest.py``
(profitable, inside the certifiable regime A*exp(r*T) < p - K, repayment
capacity above p*w_max - B).  The rules are restated here instead of
imported so that one seed gives the same inputs at every commit, even
when the test helpers change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from firmopt import (
    ChainJunctionError,
    ModelParams,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    chain_plan,
    classify_scenario,
    synthesize_policy,
    validate_params,
)

KINDS = tuple(ScenarioKind)

BASELINE = ModelParams(
    p=10.0, r=0.1, A=2.0, alpha=0.5, K=3.0, B=5.0,
    u_max=8.0, v_max=50.0, w_max=5.0, S_max=100.0, T=10.0,
)

#: Baseline initial states, one per scenario: (N0, D0, S0), jump mode.
BASELINE_INITS = {
    ScenarioKind.S1_NO_DEBT_WITH_STOCK: ((20.0, 0.0, 10.0), False),
    ScenarioKind.S2_DEBT_WITH_STOCK: ((20.0, 10.0, 10.0), False),
    ScenarioKind.S3_DEBT_NO_STOCK: ((20.0, 10.0, 0.0), False),
    ScenarioKind.A1_TOTAL_REPAYMENT_JUMP: ((20.0, 10.0, 10.0), True),
    ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP: ((20.0, 30.0, 10.0), True),
}

PIPELINE_CASES_PER_KIND = 50
#: Points of the dense sampling grid of each pipeline trajectory.
SAMPLE_POINTS = 201

BRUTE_RANDOM_PER_KIND = 2
BRUTE_GRIDS = (50, 100, 200)

CLI_COMMANDS = ("solve", "verify", "simulate", "chain", "brute-force")
#: Grid of the CLI's search, small so that the search does not crowd out
#: the CLI's own work (at 20, `verify` and `brute-force` took three
#: quarters of a round).
CLI_BRUTE_NT = 10
#: The files each command writes into its config's out_dir; the first
#: one holds what the command also prints.
CLI_OUTPUTS = {
    "solve": ("solve_report.txt",),
    "verify": ("verify_report.txt",),
    "simulate": ("trajectory.csv",),
    "chain": ("chain_report.txt", "chain_trajectory.csv"),
    "brute-force": ("brute_force_report.txt",),
}
#: The README config and one config per scenario, all on the baseline
#: parameters: name -> ((N0, D0, S0), jump mode, chain breakpoints).
CLI_CONFIGS = {
    "baseline": ((20.0, 10.0, 10.0), False, (0.0, 5.0, 10.0)),
    "s1": ((20.0, 0.0, 10.0), False, (0.0, 4.0, 10.0)),
    "s2": ((40.0, 25.0, 20.0), False, (0.0, 3.0, 10.0)),
    "s3": ((20.0, 10.0, 0.0), False, (0.0, 6.0, 10.0)),
    "a1": ((20.0, 10.0, 10.0), True, (0.0, 5.0, 10.0)),
    "a2": ((20.0, 30.0, 10.0), True, (0.0, 2.0, 10.0)),
}
#: A horizon at which the CSV grid's last point k*T/999 (k = 999) rounds
#: above T, so `simulate` exits 1 with a traceback on a valid config.
OVERSHOOT_T = 4.57920600019801
OVERSHOOT_OP = ("overshoot", "simulate")


@dataclass(frozen=True)
class Case:
    params: ModelParams
    init: State
    jump_mode: bool
    kind: ScenarioKind

    @property
    def start(self) -> State:
        """State right after the t = 0 jump (the state itself without one)."""
        if not self.jump_mode or self.init.D <= 0.0:
            return self.init
        paid = min(self.init.N, self.init.D)
        return State(self.init.N - paid, self.init.D - paid, self.init.S)


def _draw_params(rng: random.Random) -> ModelParams:
    while True:
        p = rng.uniform(3.0, 30.0)
        A = rng.uniform(0.05, 0.25) * p
        K = rng.uniform(0.05, 0.25) * p
        w = rng.uniform(0.5, 15.0)
        margin = (p - A - K) * w
        B = rng.uniform(0.05, 0.5) * margin
        r = rng.uniform(0.01, 0.35)
        T = rng.uniform(2.0, 12.0)
        if A * math.exp(r * T) >= 0.95 * (p - K):
            continue
        params = ModelParams(
            p=p, r=r, A=A, alpha=rng.uniform(0.05, 1.5), K=K, B=B,
            u_max=w * rng.uniform(1.0, 2.0),
            v_max=max(A * w, p * w - B) * rng.uniform(1.05, 2.0),
            w_max=w,
            S_max=rng.uniform(50.0, 500.0),
            T=T,
        )
        report = validate_params(params)
        if report.ok and report.profitable:
            return params


def _draw_init(rng: random.Random, params: ModelParams, kind: ScenarioKind) -> tuple[State, bool]:
    stock_cap = min(
        params.S_max,
        0.8 * params.w_max * math.expm1(params.alpha * params.T) / params.alpha,
    )
    S0 = rng.uniform(0.01, max(0.02, stock_cap))
    N0 = rng.uniform(1.0, 200.0)
    debt_cap = (
        0.7
        * (params.v_max - params.A * params.w_max)
        * (-math.expm1(-params.r * params.T))
        / params.r
    )
    if kind is ScenarioKind.S1_NO_DEBT_WITH_STOCK:
        return State(N0, 0.0, S0), False
    if kind is ScenarioKind.S2_DEBT_WITH_STOCK:
        return State(N0, rng.uniform(0.01, debt_cap), S0), False
    if kind is ScenarioKind.S3_DEBT_NO_STOCK:
        return State(N0, rng.uniform(0.01, debt_cap), 0.0), False
    if kind is ScenarioKind.A1_TOTAL_REPAYMENT_JUMP:
        return State(N0, rng.uniform(0.0, N0), S0), True
    surplus_cap = (
        0.7
        * ((params.p - params.A - params.K) * params.w_max - params.B)
        * (-math.expm1(-params.r * params.T))
        / params.r
    )
    return State(N0, N0 + rng.uniform(0.01, surplus_cap), S0), True


def draw_case(rng: random.Random, kind: ScenarioKind, chained: bool = False) -> Case:
    """A random firm of scenario `kind` whose synthesized policy is feasible.

    With `chained`, the three-interval chain of the pipeline must also be
    covered at every junction.
    """
    while True:
        params = _draw_params(rng)
        init, jump_mode = _draw_init(rng, params, kind)
        if classify_scenario(params, init, jump_mode) is not kind:
            continue
        try:
            synthesize_policy(params, init, kind)
            if chained:
                chain_plan(params, init, chain_breakpoints(params.T), jump_mode)
        except (PolicyInfeasibleError, ChainJunctionError):
            continue
        return Case(params, init, jump_mode, kind)


def policy_rows(policy) -> list[list[float]]:
    """A policy as (t_start, t_end, u, v, w) rows, as outputs are recorded."""
    return [
        [s.t_start, s.t_end, s.value.u, s.value.v, s.value.w] for s in policy.segments
    ]


def chain_breakpoints(T: float) -> list[float]:
    return [0.0, T / 3.0, 2.0 * T / 3.0, T]


def sample_grid(T: float) -> list[float]:
    """Uniform grid on [0, T] whose last point is exactly T."""
    n = SAMPLE_POINTS - 1
    return [k * T / n for k in range(n)] + [T]


def pipeline_cases(seed: int) -> list[Case]:
    """50 random firms per scenario, in a seed-shuffled order."""
    rng = random.Random(seed)
    cases = [
        draw_case(rng, kind, chained=True)
        for _ in range(PIPELINE_CASES_PER_KIND)
        for kind in KINDS
    ]
    rng.shuffle(cases)
    return cases


def baseline_cases() -> list[Case]:
    return [
        Case(BASELINE, State(*state), jump, kind)
        for kind, (state, jump) in BASELINE_INITS.items()
    ]


def brute_cases(seed: int) -> list[Case]:
    """The baseline cases plus two random firms per scenario, shuffled."""
    rng = random.Random(seed)
    cases = baseline_cases() + [
        draw_case(rng, kind) for _ in range(BRUTE_RANDOM_PER_KIND) for kind in KINDS
    ]
    rng.shuffle(cases)
    return cases


def cli_config_docs() -> dict[str, dict]:
    """The fixed CLI configs by name, as JSON documents."""
    docs = {}
    for name, ((n0, d0, s0), jump, breakpoints) in CLI_CONFIGS.items():
        docs[name] = {
            "params": asdict(BASELINE),
            "init": {"N0": n0, "D0": d0, "S0": s0},
            "jump_mode": jump,
            "options": {
                "out_dir": f"out/{name}",
                "brute_nt": CLI_BRUTE_NT,
                "chain_breakpoints": list(breakpoints),
            },
        }
    docs[OVERSHOOT_OP[0]] = {
        "params": {**asdict(BASELINE), "T": OVERSHOOT_T},
        "init": {"N0": 20.0, "D0": 10.0, "S0": 10.0},
        "options": {"out_dir": f"out/{OVERSHOOT_OP[0]}"},
    }
    return docs


def write_cli_configs(run_dir: Path) -> dict[str, dict]:
    """Write every config to ``run_dir/configs/<name>.json``."""
    docs = cli_config_docs()
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (run_dir / "configs" / f"{name}.json").write_text(json.dumps(doc, indent=1))
    return docs


def cli_round(seed: int) -> list[tuple[str, str]]:
    """One round of CLI ops: every config with every command, plus the
    failing `simulate`, in a seed-shuffled order."""
    ops = [(name, cmd) for name in CLI_CONFIGS for cmd in CLI_COMMANDS]
    ops.append(OVERSHOOT_OP)
    random.Random(seed).shuffle(ops)
    return ops
