"""Closed-form optimal policies and switching times.

Every scenario's optimal control is bang-bang with at most two switching
times:

    t_S  the moment the finished-goods stock empties,
    t_D  the moment the debt is fully repaid.

Stock depletion is policy-independent while no production runs:

    t_S = (1/alpha) * ln((alpha*S0 + w_max) / w_max)

Every policy applies one state-feedback law from the post-jump state:
w = w_max throughout, u = w_max once S = 0, and while D > 0 the debt is
repaid at v = v_max, or at the sales surplus p*w_max - K*u - B where the
cash is 0 (A2), which keeps N at 0; once D = 0, v = A*u.  The five
scenarios differ only in the state the law starts from, and
synthesize_policy finds t_D by stepping the law forward phase by phase.

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
    MAX_RATE_TIMES_HORIZON,
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
    """A synthesized policy with its scenario, exact trajectory and objective.

    The trajectory starts from the post-jump state and records the jump.
    """

    kind: ScenarioKind
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


#: (params, init, result) of the last synthesize_policy call that returned
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

    All five step the feedback law (module docstring) forward from the
    post-jump state, one phase at a time: u = 0 until t_S, the stock's
    depletion, and w_max from then on.  A phase of length b - a repays at
    net = v - A*u, the rate integrate_exact integrates, and so repays a
    debt of at most net*(1 - exp(-r*(b - a)))/r by b.  The debt clears in
    the first phase where that covers its entry debt D and net > r*D: at
    b on an exact tie, so t_D = t_S stays exact, and otherwise at
    a - log1p(-r*D/net)/r, evaluated so as not to lose a short t_D's digits
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002).  Any other phase leaves (D - repayable)*exp(r*(b - a)) at b,
    and a debt that no phase clears has t_D = inf, as has one left after
    a phase with r*(b - a) > MAX_RATE_TIMES_HORIZON, whose growth factor
    overflows.

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
    if last and last[0] is params and last[1] is init and last[2].kind is kind:
        return last[2]
    _require_solvable(params)
    jump_mode = kind in (
        ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
    )
    expected = classify_scenario(params, init, jump_mode=jump_mode)
    if expected is not kind:
        raise ValueError(f"initial state {init} classifies as {expected}, not {kind}")

    jump: JumpRecord | None = None
    start = init
    if jump_mode and init.D > 0.0:
        jump = initial_jump(init)
        start = jump.post_state

    w = params.w_max

    def repayment(u: float) -> float:
        """The law's v while debt remains."""
        return params.p * w - params.K * u - params.B if start.N == 0.0 else params.v_max

    t_s = stock_depletion_time(params, start.S)
    t_d = None
    if start.D > 0.0:
        if repayment(0.0) > params.v_max:
            raise PolicyInfeasibleError("required repayment rate p*w_max - B exceeds v_max")
        r, D, t_d = params.r, start.D, math.inf
        for a, b, u in ((0.0, t_s, 0.0), (t_s, math.inf, w)):
            net = repayment(u) - params.A * u
            repayable = net * (-math.expm1(-r * (b - a))) / r
            if r * D < net and D <= repayable:
                t_d = b if D == repayable else a - math.log1p(-r * D / net) / r
                break
            if r * (b - a) > MAX_RATE_TIMES_HORIZON:
                break  # exp overflows: what is left at b outgrows net/r, never cleared
            D = (D - repayable) * math.exp(r * (b - a))  # the debt left at b
    # S3's production runs from t_S = 0 even on the zero horizon
    ts_in = t_s < params.T or kind is ScenarioKind.S3_DEBT_NO_STOCK
    times = SwitchingTimes(t_s, ts_in, t_d, t_d is None or t_d < params.T)

    segs = []
    for a, b, producing, cleared in times.phases(params.T):
        u = w if producing else 0.0
        v = params.A * u if cleared else repayment(u)
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
    result = SynthesisResult(kind, policy, times, jump, traj)
    _last_synthesis = (params, init, result)
    return result


def objective_value(params: ModelParams, init: State, kind: ScenarioKind) -> float:
    """Optimal objective N(T) - D(T) for a scenario, read from the exact
    trajectory of its synthesized policy."""
    return synthesize_policy(params, init, kind).objective
