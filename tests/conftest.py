"""Shared fixtures: baseline parameter set and randomized case samplers."""

from __future__ import annotations

import math
import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from firmopt import (
    ModelParams,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    classify_scenario,
    synthesize_policy,
    validate_params,
)

# derandomized and without an example database: property tests draw the
# same examples on every run; hypothesis's own caches go to a directory
# removed at exit, so a test run leaves no .hypothesis/ behind
settings.register_profile("firmopt", derandomize=True, database=None, deadline=None)
settings.load_profile("firmopt")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="firmopt-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

BASELINE = ModelParams(
    p=10.0, r=0.1, A=2.0, alpha=0.5, K=3.0, B=5.0,
    u_max=8.0, v_max=50.0, w_max=5.0, S_max=100.0, T=10.0,
)


@pytest.fixture
def baseline() -> ModelParams:
    return BASELINE


def draw_profitable_params(rng: random.Random) -> ModelParams:
    """A random profitable parameter set inside the certifiable regime.

    Besides profitability, the draw keeps A * exp(r*T) < p - K: when
    interest compounded over the horizon exceeds the sales margin, the
    produce-immediately policies stop being optimal (idling until the
    debt shrinks beats them), so none of the closed forms apply.  The
    repayment capacity is drawn above p*w_max - B so the cash-exhausted
    repayment rate is always admissible.
    """
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


def draw_initial_state(
    rng: random.Random, params: ModelParams, kind: ScenarioKind
) -> tuple[State, bool]:
    """An initial condition classifying as `kind` (jump flag included)."""
    stock_cap = min(
        params.S_max,
        0.8 * params.w_max * math.expm1(params.alpha * params.T) / params.alpha,
    )
    S0 = rng.uniform(0.01, max(0.02, stock_cap))
    N0 = rng.uniform(1.0, 200.0)
    # keep drawn debts mostly repayable within the horizon
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


def draw_scenario_case(
    rng: random.Random,
    kind: ScenarioKind,
    require_t_d_within: bool = False,
) -> tuple[ModelParams, State]:
    """A (params, init) pair whose synthesized policy is feasible."""
    while True:
        params = draw_profitable_params(rng)
        init, jump_mode = draw_initial_state(rng, params, kind)
        if classify_scenario(params, init, jump_mode) is not kind:
            continue
        try:
            synth = synthesize_policy(params, init, kind)
        except PolicyInfeasibleError:
            continue
        if require_t_d_within and synth.times.t_d is not None:
            if not synth.times.t_d_within_horizon:
                continue
        return params, init


ALL_KINDS = (
    ScenarioKind.S1_NO_DEBT_WITH_STOCK,
    ScenarioKind.S2_DEBT_WITH_STOCK,
    ScenarioKind.S3_DEBT_NO_STOCK,
    ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
    ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
)
