"""Shared fixtures: baseline parameter set, randomized case samplers and
the schema-valid config strategy."""

from __future__ import annotations

import math
import random
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from firmopt import (
    ChainJunctionError,
    ModelParams,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    chain_plan,
    classify_scenario,
    evaluate_chain,
    synthesize_policy,
    validate_params,
)
from firmopt.dynamics import Trajectory

from oracles import advance_state_reference, segment_rows

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


def solve_and_chain(kind: ScenarioKind, seed: int) -> tuple[Trajectory, Trajectory | None]:
    """The single-solve trajectory of the draw_scenario_case firm of `kind`
    drawn from `seed`, and the trajectory of its chain over three equal
    intervals, None where a junction is uncovered."""
    params, init = draw_scenario_case(random.Random(seed), kind)
    single = synthesize_policy(params, init, kind).trajectory
    T = params.T
    jump_mode = kind in (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
                         ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP)
    try:
        plan = chain_plan(params, init, [0.0, T / 3.0, 2.0 * T / 3.0, T], jump_mode)
    except ChainJunctionError:
        return single, None
    return single, evaluate_chain(params, plan)[0]


def assert_segments_join(traj, expected_zeros) -> None:
    """Each segment's closed form, evaluated from its entry to its end,
    gives the next segment's entry bit for bit.  Only a component that
    `expected_zeros` lists at exactly that time may differ: the integrator
    snaps it to exactly zero, from a residual within its traj.tol.state."""
    snapped = set(expected_zeros)
    segments = segment_rows(traj)
    for prev, nxt in zip(segments, segments[1:]):
        dt = prev.t_end - prev.t_start
        left = advance_state_reference(traj.params, prev.entry, prev.control, dt)
        for comp, before, after, tol in zip("NDS", left, nxt.entry, traj.tol.state):
            if (prev.t_end, comp) in snapped:
                assert after == 0.0 and abs(before) <= tol, (prev.t_end, comp)
            else:
                assert before.hex() == after.hex(), (prev.t_end, comp)


ALL_KINDS = (
    ScenarioKind.S1_NO_DEBT_WITH_STOCK,
    ScenarioKind.S2_DEBT_WITH_STOCK,
    ScenarioKind.S3_DEBT_NO_STOCK,
    ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
    ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
)


# a valid S3 firm whose t_D = 1.0003513946529028e-06 is the log of a ratio
# within 1e-8 of 1: taken as a quotient, that log leaves a debt of 3.7e-9
# where integrate_exact's zero snap expects none
ZERO_SNAP_DOC = {
    "params": {
        "A": 268.6907695899432, "K": 0.1, "B": 0.13697205274064464,
        "w_max": 464.95349517750486, "u_max": 464.95349517750486,
        "S_max": 1, "p": 3023.3603143066407, "v_max": 1124577.4466766238,
        "r": 0.010903842082726671, "alpha": 1.0123157921712458, "T": 1,
    },
    "init": {"N0": 0.8101297813555324, "D0": 1, "S0": 0},
    "jump_mode": False,
}


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


# built once: hypothesis validates and analyses each new strategy object
# on its first draw, a quarter of the drawing time when these were built
# per document
MONEY = log_uniform(1e-3, 1e3)
RATE = log_uniform(1e-4, 5.0)
PRICE_FACTOR = log_uniform(0.5, 100.0)
CAPACITY_FACTOR = log_uniform(0.8, 10.0)
HORIZON = log_uniform(1e-3, 1e3)
MONEY_OR_ZERO = st.one_of(st.just(0.0), MONEY)
LEVEL_COMPONENTS = st.lists(st.sampled_from("uvw"), min_size=1, max_size=3, unique=True)
#: a search level as a fraction of its control's bound: the box's ends or inside
LEVEL_FRACTIONS = st.lists(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3
)


@st.composite
def schema_valid_documents(draw):
    """Configs of the right shape with magnitudes over six decades; p,
    u_max and v_max are drawn as multiples of what profit, demand and
    purchases need, so that most configs pass validation.  Search levels
    lie in their control's box, so that the configs reach the search."""
    params = {key: draw(MONEY) for key in ("A", "K", "B", "w_max", "S_max")}
    A, w = params["A"], params["w_max"]
    p = (A + params["K"] + params["B"] / w) * draw(PRICE_FACTOR)
    params.update(
        p=p,
        u_max=w * draw(CAPACITY_FACTOR),
        v_max=max(A * w, p * w - params["B"]) * draw(CAPACITY_FACTOR),
        r=draw(RATE),
        alpha=draw(RATE),
        T=draw(HORIZON),
    )
    init = {key: draw(MONEY_OR_ZERO) for key in ("N0", "D0", "S0")}
    options = {"brute_nt": draw(st.integers(1, 5))}
    if draw(st.integers(0, 3)) == 0:
        comps = draw(LEVEL_COMPONENTS)
        box = {"u": params["u_max"], "v": params["v_max"], "w": params["w_max"]}
        options["brute_levels"] = {c: [f * box[c] for f in draw(LEVEL_FRACTIONS)] for c in comps}
    return {"params": params, "init": init, "jump_mode": draw(st.booleans()),
            "options": options}
