"""Closed-form optimal policies and switching times.

Every scenario's optimal control is bang-bang with at most two switching
times:

    t_S  the moment the finished-goods stock empties,
    t_D  the moment the debt is fully repaid.

Stock depletion is policy-independent while no production runs:

    t_S = (1/alpha) * ln((alpha*S0 + w_max) / w_max)

Debt clearance follows one threshold/log rule in the repayment rate R,
the purchase rate c paid from t_S on and the net gain R - c (see
debt_clearance_time).  S3 is S2 at t_S = 0, and A2 uses the same rule
with the sales surplus p*w_max - B as its rate.  A threshold splits the
two branches and the tie lands exactly on t_D = t_S.

The five scenarios differ only in data: t_S (0 for S3), t_D (none for
the debt-free S1/A1) and the repayment rate before clearance (v_max, or
the sales surplus less production cost for A2).  From t_S on u = w_max,
and from t_D on v = A*u.

The objective N(T) - D(T) is read from the policy's exact trajectory,
which the synthesis builds anyway to check the state constraints.  The
paper's closed-form values of it are test oracles (tests/oracles.py).

Post-clearance repayment note.  Once D hits zero the only repayment rate
that keeps D = 0 is v = A*u (paying exactly for current raw-material
purchases).  While production is idle (t < t_S) that means v = 0; paying
A*w_max there would drive D negative, violate the state constraint and
waste A*w_max*(t_S - t_D) of profit.  The policies here therefore use
v = A*u(t) on [t_D, T]; the naive alternative that deducts A*w_max
regardless of production is both infeasible and dominated, and it
breaks the v_max -> infinity limit that motivates the jump strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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
    classify_scenario,
    validate_params,
)


@dataclass(frozen=True)
class SwitchingTimes:
    """The (t_S, t_D) pair for a synthesized policy, and the cut of [0, T]
    it makes.

    t_s is always finite; t_d is None when there is no debt phase at all
    (pure no-debt scenarios) and inf when the debt is never cleared.  The
    within-horizon flags follow the convention value >= T means "beyond
    horizon".
    """

    t_s: float
    t_s_within_horizon: bool
    t_d: float | None
    t_d_within_horizon: bool

    @property
    def zeros(self) -> list[tuple[float, str]]:
        """(t_S, "S") and (t_D, "D") for each event inside (0, T): the
        policy drives the stock, or the debt, to exactly zero there."""
        zeros = []
        if self.t_s_within_horizon and self.t_s > 0.0:
            zeros.append((self.t_s, "S"))
        if self.t_d is not None and self.t_d_within_horizon and self.t_d > 0.0:
            zeros.append((self.t_d, "D"))
        return zeros

    def phases(self, T: float) -> Iterator[tuple[float, float, bool, bool]]:
        """(a, b, producing, cleared) for each piece of [0, T] cut at the zeros.

        Production runs from t_S and the debt is cleared from t_D, each only
        when it falls within the horizon; without a debt phase t_D = 0.
        """
        t_d = self.t_d or 0.0
        bounds = [0.0, *sorted({t for t, _ in self.zeros}), T]
        for a, b in zip(bounds[:-1], bounds[1:]):
            producing = self.t_s_within_horizon and a >= self.t_s
            yield a, b, producing, self.t_d_within_horizon and a >= t_d


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized policy with its exact trajectory and objective.

    The trajectory starts from the post-jump state and records the jump.
    """

    policy: PiecewiseControl
    times: SwitchingTimes
    jump: JumpRecord | None
    trajectory: dynamics.Trajectory

    @property
    def objective(self) -> float:
        """N(T) - D(T), read from the trajectory."""
        return self.trajectory.objective()


def stock_depletion_time(params: ModelParams, S0: float) -> float:
    """Time at which the stock empties under zero production, full sales.

    Solves S' = -alpha*S - w_max from S0:
        t_S = (1/alpha) * ln((alpha*S0 + w_max)/w_max)
    t_S >= T, i.e. S0 >= w_max*(exp(alpha*T)-1)/alpha, means the horizon
    ends with unsold stock (sales only, no production).
    """
    if S0 < 0.0:
        raise ValueError(f"S0 must be nonnegative, got {S0}")
    return math.log1p(params.alpha * S0 / params.w_max) / params.alpha


def debt_clearance_time(
    params: ModelParams, debt0: float, t_s: float, regime: ScenarioKind
) -> float:
    """Time of full debt repayment for the given repayment regime.

    Every regime repays at a rate R while idle and at R - c once
    production starts at t_S, where c is the purchase rate:

        threshold  Theta = R*(1 - exp(-r*t_S))/r
        d < Theta: t_D = (1/r)*ln(R/(R - r*d))                      (< t_S)
        d > Theta: t_D = (1/r)*ln((R - c)/(R - r*d - c*exp(-r*t_S)))  (> t_S)
        d = Theta: t_D = t_S exactly (single switching point).

    with d = debt0 and, per regime:

    S2 (repay at v_max, production from t_S): R = v_max, c = A*w_max.

    S3 (no stock, production from 0): S2 at t_S = 0, so requires t_s == 0;
        t_D = (1/r)*ln((v_max - A*w_max)/(v_max - r*d - A*w_max)).

    A2 (all sales profit to debt, so the repayment rate is
        p*w_max - K*u - B): d is the post-jump debt D0 - N0,
        R = p*w_max - B, c = (A + K)*w_max, and R - c is the profit
        rate (p - A - K)*w_max - B.

    Both logs are evaluated as -log1p(-x)/r, with x = r*d/R and
    x = (r*d + c*expm1(-r*t_S))/(R - c): taking the log of a ratio near 1
    would lose about half the digits of a short t_D (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002).  A net gain
    R - c <= 0, or x >= 1, means the repayment rate can never outpace
    interest plus purchases, and t_D = inf; that and t_D >= T both leave
    debt outstanding at the horizon.
    """
    if debt0 <= 0.0:
        raise ValueError(f"debt0 must be positive, got {debt0}")
    r = params.r
    if regime is ScenarioKind.S3_DEBT_NO_STOCK and t_s != 0.0:
        raise ValueError("S3 regime requires t_s = 0")
    if regime in (ScenarioKind.S2_DEBT_WITH_STOCK, ScenarioKind.S3_DEBT_NO_STOCK):
        repay = params.v_max
        purchase = params.A * params.w_max
        gain = params.v_max - purchase
    elif regime is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
        repay = params.p * params.w_max - params.B
        purchase = (params.A + params.K) * params.w_max
        gain = params.profit_rate()
    else:
        raise ValueError(f"no debt-clearance regime for {regime}")
    theta = repay * (-math.expm1(-r * t_s)) / r
    if debt0 == theta:
        return t_s
    if debt0 < theta:
        return -math.log1p(-r * debt0 / repay) / r
    if gain <= 0.0:
        return math.inf
    x = (r * debt0 + purchase * math.expm1(-r * t_s)) / gain
    return math.inf if x >= 1.0 else -math.log1p(-x) / r


def initial_jump(init: State) -> JumpRecord:
    """Instantaneous repayment of min(N0, D0) at t = 0.

    The post state is (max(N0-D0, 0), max(D0-N0, 0), S0); inventory is
    continuous across the jump.
    """
    if init.D <= 0.0:
        raise ValueError("initial_jump requires D0 > 0 (no-op otherwise)")
    paid = min(init.N, init.D)
    post = State(N=init.N - paid, D=init.D - paid, S=init.S)
    return JumpRecord(t=0.0, delta=-paid, post_state=post)


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


#: (params, init, kind, result) of the last synthesize_policy call that returned
_last_synthesis: tuple | None = None


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

    One rule builds all five: u* = w_max from t_S and v* = A*u* from t_D,
    with S3 taking t_S = 0 and the debt-free S1/A1 t_D = 0.

    When t_S >= T production never starts; when t_D >= T repayment
    continues through the horizon at its pre-clearance rate.  Breakpoints
    are exactly {t_S, t_D} intersected with (0, T).

    The synthesized trajectory is post-checked against the state
    constraints; violations (e.g. the repayment budget exhausting N
    mid-horizon) raise PolicyInfeasibleError rather than returning a
    constraint-violating policy.

    A one-slot memo returns the last result again when called with the
    very same three objects (an identity test, never equality, so that
    equal copies, and T = -0.0 against T = 0.0, are synthesized afresh).
    objective_value and certify_policy on the caller's objects thus reuse
    its synthesis.  Only results are kept: a call that raises raises again.
    """
    global _last_synthesis
    last = _last_synthesis
    if last is not None and last[0] is params and last[1] is init and last[2] is kind:
        return last[3]
    _require_solvable(params)
    expected = classify_scenario(params, init, jump_mode=kind.name.startswith("A"))
    if expected is not kind:
        raise ValueError(f"initial state {init} classifies as {expected}, not {kind}")

    jump: JumpRecord | None = None
    start = init
    if kind in (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP):
        if init.D > 0.0:
            jump = initial_jump(init)
            start = jump.post_state

    # S3's production runs from t_S = 0 even on the zero horizon
    if kind is ScenarioKind.S3_DEBT_NO_STOCK:
        t_s, ts_in = 0.0, True
    else:
        t_s = stock_depletion_time(params, start.S)
        ts_in = t_s < params.T
    t_d = None
    if kind not in (ScenarioKind.S1_NO_DEBT_WITH_STOCK, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP):
        if kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP and (
            params.p * params.w_max - params.B > params.v_max
        ):
            raise PolicyInfeasibleError(
                "required repayment rate p*w_max - B exceeds v_max"
            )
        t_d = debt_clearance_time(params, start.D, t_s, kind)
    times = SwitchingTimes(t_s, ts_in, t_d, t_d is None or t_d < params.T)

    w = params.w_max
    segs = []
    for a, b, producing, cleared in times.phases(params.T):
        u = w if producing else 0.0
        if cleared:
            v = params.A * u
        elif kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
            v = params.p * w - params.K * u - params.B
        else:
            v = params.v_max
        segs.append(ControlSegment(a, b, ControlValue(u, v, w)))
    if params.T == 0.0:  # T = -0.0 passes validation; the segment ends at +0.0
        segs = [ControlSegment(0.0, 0.0, segs[-1].value)]
    policy = PiecewiseControl(tuple(segs))
    # t_S and t_D are exact zeros of the stock and the debt by construction
    traj = dynamics.integrate_exact(
        params, start, policy, jump=jump, expected_zeros=times.zeros
    )
    if not traj.feasible:
        first = traj.feasibility_report[0]
        raise PolicyInfeasibleError(
            f"synthesized policy violates {first.constraint} from t = {first.time:.6g} "
            f"(magnitude {first.magnitude:.3g}) for these inputs"
        )
    result = SynthesisResult(policy, times, jump, traj)
    _last_synthesis = (params, init, kind, result)
    return result


def objective_value(params: ModelParams, init: State, kind: ScenarioKind) -> float:
    """Optimal objective N(T) - D(T) for a scenario, read from the exact
    trajectory of its synthesized policy."""
    return synthesize_policy(params, init, kind).objective
