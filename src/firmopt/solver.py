"""Closed-form optimal policies, switching times and objective values.

Every scenario's optimal control is bang-bang with at most two switching
times:

    t_S  the moment the finished-goods stock empties,
    t_D  the moment the debt is fully repaid.

Stock depletion is policy-independent while no production runs:

    t_S = (1/alpha) * ln((alpha*S0 + w_max) / w_max)

Debt clearance depends on the repayment regime and on whether the stock
empties before or after the debt does; the formulas below give t_D per
regime and branch, with a threshold splitting the two branches and the
tie landing exactly on t_D = t_S.

Post-clearance repayment note.  Once D hits zero the only repayment rate
that keeps D = 0 is v = A*u (paying exactly for current raw-material
purchases).  While production is idle (t < t_S) that means v = 0; paying
A*w_max there would drive D negative, violate the state constraint and
waste A*w_max*(t_S - t_D) of profit.  The policies and objective values
here therefore use v = A*u(t) on [t_D, T]; the naive alternative that
deducts A*w_max regardless of production is both infeasible and
dominated, and it breaks the v_max -> infinity limit that motivates the
jump strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dynamics
from .model import (
    ControlSegment,
    ControlValue,
    JumpRecord,
    ModelParams,
    PiecewiseControl,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    check_initial_state,
    classify_scenario,
    validate_params,
)


@dataclass(frozen=True)
class EventTime:
    """A switching moment; within_horizon is False when the event falls at
    or beyond T (time may be inf when the event never happens at all)."""

    time: float
    within_horizon: bool


@dataclass(frozen=True)
class SwitchingTimes:
    """The (t_S, t_D) pair for a synthesized policy.

    t_s is always finite; t_d is None when there is no debt phase at all
    (pure no-debt scenarios).  The within-horizon flags follow the
    convention value >= T means "beyond horizon".
    """

    t_s: float
    t_s_within_horizon: bool
    t_d: float | None
    t_d_within_horizon: bool


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized policy with its exact trajectory and objective.

    The trajectory starts from the post-jump state and records the jump;
    the objective N(T) - D(T) is the closed form where one applies, else
    read from the trajectory.
    """

    policy: PiecewiseControl
    times: SwitchingTimes
    jump: JumpRecord | None
    trajectory: dynamics.Trajectory
    objective: float


def stock_depletion_time(params: ModelParams, S0: float) -> EventTime:
    """Time at which the stock empties under zero production, full sales.

    Solves S' = -alpha*S - w_max from S0:
        t_S = (1/alpha) * ln((alpha*S0 + w_max)/w_max)
    Beyond horizon iff t_S >= T, i.e. S0 > w_max*(exp(alpha*T)-1)/alpha,
    in which case the horizon ends with unsold stock (sales only, no
    production).
    """
    if S0 < 0.0:
        raise ValueError(f"S0 must be nonnegative, got {S0}")
    t_s = math.log1p(params.alpha * S0 / params.w_max) / params.alpha
    return EventTime(time=t_s, within_horizon=t_s < params.T)


def _log_branch(numerator: float, denominator: float, r: float) -> float:
    """t = (1/r) * ln(numerator/denominator), inf when not reachable."""
    if numerator <= 0.0 or denominator <= 0.0:
        return math.inf
    return math.log(numerator / denominator) / r


def debt_clearance_time(
    params: ModelParams, debt0: float, t_s: float, regime: ScenarioKind
) -> EventTime:
    """Time of full debt repayment for the given repayment regime.

    Regimes, with d = debt0 and rates per unit time:

    S2 (repay at v_max, production from t_S):
        threshold  Theta = v_max*(1 - exp(-r*t_S))/r
        d < Theta: t_D = (1/r)*ln(v_max/(v_max - r*d))           (< t_S)
        d > Theta: t_D = (1/r)*ln((v_max - A*w_max)
                         / (v_max - r*d - A*w_max*exp(-r*t_S)))  (> t_S)
        d = Theta: t_D = t_S exactly (single switching point).

    S3 (no stock, production from 0): requires t_s == 0;
        t_D = (1/r)*ln((v_max - A*w_max)/(v_max - r*d - A*w_max)).

    A2 (all sales profit to debt, so the repayment rate is
        p*w_max - K*u - B): d is the post-jump debt D0 - N0,
        threshold Theta' = (p*w_max - B)*(1 - exp(-r*t_S))/r
        d < Theta': t_D = (1/r)*ln((p*w_max - B)/(p*w_max - B - r*d))
        d > Theta': t_D = (1/r)*ln((w_max*(p - A - K) - B)
                          / (p*w_max - B - r*d - (A + K)*w_max*exp(-r*t_S)))

    A nonpositive log argument means the repayment rate can never outpace
    interest plus purchases; that and t_D >= T both map to
    within_horizon = False (debt persists through the horizon).
    """
    if debt0 <= 0.0:
        raise ValueError(f"debt0 must be positive, got {debt0}")
    r = params.r
    if regime is ScenarioKind.S2_DEBT_WITH_STOCK:
        theta = params.v_max * (-math.expm1(-r * t_s)) / r
        if debt0 == theta:
            t_d = t_s
        elif debt0 < theta:
            t_d = -math.log1p(-r * debt0 / params.v_max) / r
        else:
            t_d = _log_branch(
                params.v_max - params.A * params.w_max,
                params.v_max - r * debt0 - params.A * params.w_max * math.exp(-r * t_s),
                r,
            )
    elif regime is ScenarioKind.S3_DEBT_NO_STOCK:
        if t_s != 0.0:
            raise ValueError("S3 regime requires t_s = 0")
        # written to reduce exactly (bitwise) from the S2 branch at t_s = 0
        t_d = _log_branch(
            params.v_max - params.A * params.w_max,
            params.v_max - r * debt0 - params.A * params.w_max,
            r,
        )
    elif regime is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
        sales_surplus = params.p * params.w_max - params.B
        theta = sales_surplus * (-math.expm1(-r * t_s)) / r
        if debt0 == theta:
            t_d = t_s
        elif debt0 < theta:
            t_d = -math.log1p(-r * debt0 / sales_surplus) / r
        else:
            t_d = _log_branch(
                params.w_max * (params.p - params.A - params.K) - params.B,
                sales_surplus
                - r * debt0
                - (params.A + params.K) * params.w_max * math.exp(-r * t_s),
                r,
            )
    else:
        raise ValueError(f"no debt-clearance regime for {regime}")
    return EventTime(time=t_d, within_horizon=t_d < params.T)


def initial_jump(init: State) -> JumpRecord:
    """Instantaneous repayment of min(N0, D0) at t = 0.

    The post state is (max(N0-D0, 0), max(D0-N0, 0), S0); inventory is
    continuous across the jump.
    """
    if init.D <= 0.0:
        raise ValueError("initial_jump requires D0 > 0 (no-op otherwise)")
    paid = min(init.N, init.D)
    post = State(N=init.N - paid, D=init.D - paid, S=init.S)
    return JumpRecord(t=0.0, delta_N=-paid, delta_D=-paid, post_state=post)


def _require_solvable(params: ModelParams) -> None:
    report = validate_params(params)
    if not report.ok:
        raise ValueError(
            "invalid parameters: "
            + "; ".join(f"{f}: {m}" for f, m in report.violations)
        )
    if not report.profitable:
        raise ValueError(
            "unprofitable parameters: p*w_max must exceed (A+K)*w_max + B"
        )


def _build_policy(
    params: ModelParams,
    cuts: list[float],
    u_of: list[float],
    v_of: list[float],
    w_of: list[float],
) -> PiecewiseControl:
    """Assemble and canonicalize a policy from per-interval control levels."""
    segs = []
    bounds = [0.0, *cuts, params.T]
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        segs.append(ControlSegment(a, b, ControlValue(u_of[i], v_of[i], w_of[i])))
    if params.T == 0.0:
        segs = [ControlSegment(0.0, 0.0, segs[-1].value)]
    return PiecewiseControl(tuple(segs)).merged()


def synthesize_policy(
    params: ModelParams, init: State, kind: ScenarioKind
) -> SynthesisResult:
    """Construct the optimal bang-bang policy for a scenario.

    Policy shapes (w* = w_max throughout in all of them):

    S1:  u* = 0 then w_max from t_S; v* = 0 then A*w_max from t_S.
    S2:  u* as S1; v* = v_max until t_D, then A*u*(t).
    S3:  u* = w_max throughout; v* = v_max until t_D, then A*w_max.
    A1:  jump, then the S1 policy on the remaining cash N0 - D0.
    A2:  jump, then u* as S1 and v* = p*w_max - K*u*(t) - B until t_D
         (all sales profit goes to the debt, N stays at 0), then A*u*(t).

    When t_S >= T production never starts; when t_D >= T repayment
    continues through the horizon at its pre-clearance rate.  Breakpoints
    are exactly {t_S, t_D} intersected with (0, T).

    The synthesized trajectory is post-checked against the state
    constraints; violations (e.g. the repayment budget exhausting N
    mid-horizon) raise PolicyInfeasibleError rather than returning a
    constraint-violating policy.
    """
    _require_solvable(params)
    check_initial_state(params, init)
    expected = classify_scenario(params, init, jump_mode=kind.name.startswith("A"))
    if expected is not kind:
        raise ValueError(f"initial state {init} classifies as {expected}, not {kind}")

    jump: JumpRecord | None = None
    start = init
    if kind in (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP):
        if init.D > 0.0:
            jump = initial_jump(init)
            start = jump.post_state

    w = params.w_max
    aw = params.A * w
    ts_ev = stock_depletion_time(params, start.S)
    t_s = ts_ev.time
    ts_in = ts_ev.within_horizon
    cuts_s = [t_s] if (ts_in and t_s > 0.0) else []

    if kind in (ScenarioKind.S1_NO_DEBT_WITH_STOCK, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP):
        times = SwitchingTimes(t_s, ts_in, None, True)
        if not cuts_s:
            if ts_in:  # t_s == 0: produce from the start
                policy = _build_policy(params, [], [w], [aw], [w])
            else:
                policy = _build_policy(params, [], [0.0], [0.0], [w])
        else:
            policy = _build_policy(params, cuts_s, [0.0, w], [0.0, aw], [w, w])
        return _post_check(params, kind, start, policy, times, jump)

    if kind is ScenarioKind.S3_DEBT_NO_STOCK:
        td_ev = debt_clearance_time(params, start.D, 0.0, kind)
        t_d = td_ev.time
        times = SwitchingTimes(0.0, True, t_d, td_ev.within_horizon)
        if td_ev.within_horizon and t_d > 0.0:
            policy = _build_policy(params, [t_d], [w, w], [params.v_max, aw], [w, w])
        else:
            policy = _build_policy(params, [], [w], [params.v_max], [w])
        return _post_check(params, kind, start, policy, times, jump)

    if kind is ScenarioKind.S2_DEBT_WITH_STOCK:
        td_ev = debt_clearance_time(params, start.D, t_s, kind)
        repay_before = params.v_max
    else:  # A2 after the jump
        if params.p * w - params.B > params.v_max:
            raise PolicyInfeasibleError(
                "required repayment rate p*w_max - B exceeds v_max"
            )
        td_ev = debt_clearance_time(
            params, start.D, t_s, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        repay_before = None  # before t_D: p*w - K*u - B

    t_d = td_ev.time
    td_in = td_ev.within_horizon
    times = SwitchingTimes(t_s, ts_in, t_d, td_in)

    def u_at(after_ts: bool) -> float:
        return w if after_ts else 0.0

    def v_pre(after_ts: bool) -> float:
        if repay_before is not None:
            return repay_before
        return params.p * w - params.K * u_at(after_ts) - params.B

    def v_post(after_ts: bool) -> float:
        return params.A * u_at(after_ts)

    cuts = sorted({t for t in (t_s if ts_in else math.inf, t_d if td_in else math.inf)
                   if 0.0 < t < params.T and math.isfinite(t)})
    u_levels, v_levels, w_levels = [], [], []
    bounds = [0.0, *cuts, params.T]
    for a in bounds[:-1]:
        after_ts = ts_in and a >= t_s
        after_td = td_in and a >= t_d
        u_levels.append(u_at(after_ts))
        v_levels.append(v_post(after_ts) if after_td else v_pre(after_ts))
        w_levels.append(w)
    policy = _build_policy(params, cuts, u_levels, v_levels, w_levels)
    return _post_check(params, kind, start, policy, times, jump)


def _post_check(
    params: ModelParams,
    kind: ScenarioKind,
    start: State,
    policy: PiecewiseControl,
    times: SwitchingTimes,
    jump: JumpRecord | None,
) -> SynthesisResult:
    """Integrate the policy exactly, reject it if infeasible, and value it.

    The stock empties at t_S and the debt clears at t_D by construction,
    so both are snapped to exact zeros when they fall inside (0, T).
    """
    zeros = []
    if times.t_s_within_horizon and times.t_s > 0.0:
        zeros.append((times.t_s, "S"))
    if times.t_d is not None and times.t_d_within_horizon and times.t_d > 0.0:
        zeros.append((times.t_d, "D"))
    traj = dynamics.integrate_exact(
        params, start, policy, jump=jump, expected_zeros=zeros
    )
    if not traj.feasible:
        first = traj.feasibility_report[0]
        raise PolicyInfeasibleError(
            f"synthesized policy violates {first.constraint} from t = {first.time:.6g} "
            f"(magnitude {first.magnitude:.3g}) for these inputs"
        )
    return SynthesisResult(
        policy=policy,
        times=times,
        jump=jump,
        trajectory=traj,
        objective=_objective(params, kind, start.N, times, traj),
    )


# ---------------------------------------------------------------------------
# Objective values
# ---------------------------------------------------------------------------


def _objective_no_debt(params: ModelParams, cash0: float, t_s: float) -> float:
    """Sell-then-produce value: cash0 + (p*w-B)*T + (A+K)*w*(t_S - T)."""
    w = params.w_max
    return (
        cash0
        + (params.p * w - params.B) * params.T
        + (params.A + params.K) * w * (t_s - params.T)
    )


def _objective_debt_with_stock(
    params: ModelParams, cash0: float, t_d: float, t_s: float
) -> float:
    """Value with repayment at v_max until t_D and stock until t_S.

    For t_S <= t_D production is already running when the debt clears
    and the direct integration collapses to

        N0 + (A*w - v_max)*t_D + K*w*t_S + (p - A - K)*w*T - B*T.

    For t_D < t_S the firm pays nothing between t_D and t_S (no debt, no
    purchases), which adds A*w*(t_S - t_D) relative to the expression
    above and simplifies to

        N0 - v_max*t_D + (p*w - B)*T + (A + K)*w*(t_S - T).

    Both branches agree at the tie t_D = t_S.
    """
    w = params.w_max
    if t_d < t_s:
        return _objective_no_debt(params, cash0, t_s) - params.v_max * t_d
    return (
        cash0
        + (params.A * w - params.v_max) * t_d
        + params.K * w * t_s
        + w * (params.p - params.A - params.K) * params.T
        - params.B * params.T
    )


def _objective_debt_no_stock(params: ModelParams, cash0: float, t_d: float) -> float:
    """Value with immediate production and repayment at v_max until t_D."""
    return (
        cash0
        + (params.A * params.w_max - params.v_max) * t_d
        + params.w_max * (params.p - params.A - params.K) * params.T
        - params.B * params.T
    )


def _objective_partial_repayment(params: ModelParams, t_d: float, t_s: float) -> float:
    """Value of the partial-repayment strategy (cash exhausted at t = 0).

    N stays at zero until t_D (every unit of sales profit services the
    debt), so the value accrues only on [t_D, T]:

        t_S < t_D:       ((p-A-K)*w - B) * (T - t_D)
        t_D <= t_S <= T: (p*w - B)*(t_S - t_D) + ((p-A-K)*w - B)*(T - t_S)
        t_S > T:         (p*w - B) * (T - t_D)

    All three are strictly positive whenever the firm is profitable and
    t_D < T.
    """
    w = params.w_max
    surplus = (params.p - params.A - params.K) * w - params.B
    if t_s > params.T:
        return (params.p * w - params.B) * (params.T - t_d)
    if t_d <= t_s:
        return (params.p * w - params.B) * (t_s - t_d) + surplus * (params.T - t_s)
    return surplus * (params.T - t_d)


def _objective(
    params: ModelParams,
    kind: ScenarioKind,
    cash0: float,
    times: SwitchingTimes,
    traj: dynamics.Trajectory,
) -> float:
    """N(T) - D(T) in closed form, from the post-jump cash cash0.

    Read from the exact trajectory instead whenever a switching time
    lies at or beyond the horizon (unsold stock or unpaid debt at T),
    where no closed-form expression applies.
    """
    if kind in (ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP, ScenarioKind.S3_DEBT_NO_STOCK):
        # the partial-repayment table covers t_S beyond the horizon too
        formula_applies = times.t_d_within_horizon
    else:
        formula_applies = times.t_s_within_horizon and times.t_d_within_horizon
    if not formula_applies:
        return traj.objective()
    if kind in (ScenarioKind.S1_NO_DEBT_WITH_STOCK, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP):
        return _objective_no_debt(params, cash0, times.t_s)
    if kind is ScenarioKind.S2_DEBT_WITH_STOCK:
        return _objective_debt_with_stock(params, cash0, times.t_d, times.t_s)
    if kind is ScenarioKind.S3_DEBT_NO_STOCK:
        return _objective_debt_no_stock(params, cash0, times.t_d)
    return _objective_partial_repayment(params, times.t_d, times.t_s)


def objective_value(params: ModelParams, init: State, kind: ScenarioKind) -> float:
    """Optimal objective N(T) - D(T) for a scenario (see _objective)."""
    return synthesize_policy(params, init, kind).objective
