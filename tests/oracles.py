"""Independent reference oracles used to derive expected test values.

The scipy reference and `bisect_root` deliberately avoid the package's
own integrators: trajectories are integrated with scipy's adaptive RK at
tight tolerances and event times located by plain bisection, so
agreement with the closed forms is a genuine two-sided check.

The fixed-step RK4 integrator, the bisection event finder over an exact
`Trajectory` and the closed-form coefficient view of one are the
package-shaped oracles the tests compare the exact integrator against.
The closed form with its rates derived per call, the row-by-row CSV
writer and the per-component violation check are the plain versions of
`Trajectory.sample`, the CLI's CSV and a trajectory's feasibility
report; those must agree with them bit for bit.  The CLI writes its CSV
from `Trajectory.walk`'s per-segment columns and formats each segment's
constant cells once; the reference looks each row up on its own with
`segment_at` and `sample` and formats every cell.  Both write the
trajectory's one verdict in every row; the per-row box check judges each
row's state on its own, and must agree with that verdict on every
trajectory the CLI writes.
The grid certificate samples the maximum-principle checks at about
10 points per unit of time plus the breakpoints nudged to either side;
the exact per-segment certificate is cross-checked against it.  The
pointwise Hamiltonian and switching values it samples are built on the
certificate's own switching weights (`verify._switching_weights`).
The broadcast exhaustive search is the one `verify.brute_force_best`
factorized by prefix, and the per-t_a search the one it walks in pruned
blocks; both build every tied candidate's policy with
`merged` (`candidate_policy`) and rank them by the
tie-break key read off the built policy (`candidate_key`), so all three
must agree bit for bit.
The paper's closed-form objective values cross-check the value the
library reads from the exact trajectory, its two-branch clearance time
(`debt_clearance_time`) the time the synthesizer's phase walk finds,
and the 50-digit reference restates the phase rule in mpmath to check
t_S, t_D and the objective to rounding.
The one-step Bellman witness (`bellman_gain`) and the LP over
piecewise-constant controls (`lp_best`) judge the synthesized value from
outside the bang-bang class: the first re-solves the synthesizer from
the successors of constant controls, the second is HiGHS's optimum on a
uniform grid of the horizon.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import mpmath
import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import linprog

from firmopt import (
    ModelParams,
    NoFeasibleCandidateError,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    classify_scenario,
    cli,
    dynamics,
    synthesize_policy,
    verify,
)
from firmopt.dynamics import AdjointTrajectory, Trajectory
from firmopt.model import ControlSegment, ControlValue, JumpRecord, PiecewiseControl


class SegmentRow(NamedTuple):
    """A `Trajectory.segments` row with its fields named, for tests to read;
    the library reads the plain tuple by position."""

    t_start: float
    t_end: float
    exit: State
    N: float
    slope: float
    D: float
    c: float | None
    S: float
    q: float | None
    control: ControlValue

    @property
    def entry(self) -> State:
        return State(self.N, self.D, self.S)


def segment_rows(traj: Trajectory) -> tuple[SegmentRow, ...]:
    """The trajectory's segment rows with their fields named."""
    return tuple(map(SegmentRow._make, traj.segments))


def reference_integrate(
    params: ModelParams,
    init: State,
    control_fn: Callable[[float], tuple[float, float, float]],
    breakpoints: Sequence[float],
) -> Callable[[float], np.ndarray]:
    """Dense reference solution of the state ODEs under a control law.

    Integrates segment by segment between the supplied breakpoints so the
    discontinuous control never crosses an integration step.  Returns a
    callable t -> [N, D, S].
    """

    def rhs(t: float, y: np.ndarray) -> list[float]:
        n, d, s = y
        u, v, w = control_fn(t)
        return [
            params.p * w - v - params.K * u - params.B,
            params.r * d + params.A * u - v,
            u - w - params.alpha * s,
        ]

    cuts = sorted({0.0, params.T, *[b for b in breakpoints if 0.0 < b < params.T]})
    pieces = []
    y = np.array([init.N, init.D, init.S], dtype=float)
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid_control = control_fn(0.5 * (a + b))
        sol = solve_ivp(
            lambda t, yy: rhs_fixed(t, yy, mid_control, params),
            (a, b),
            y,
            method="DOP853",
            rtol=1e-12,
            atol=1e-13,
            dense_output=True,
        )
        pieces.append((a, b, sol.sol))
        y = sol.y[:, -1]

    def sample(t: float) -> np.ndarray:
        for a, b, interp in pieces:
            if t <= b or (a, b, interp) is pieces[-1]:
                if t >= a:
                    return interp(t)
        raise ValueError(f"t = {t} out of range")

    return sample


def rhs_fixed(t, y, control, params: ModelParams):
    n, d, s = y
    u, v, w = control
    return [
        params.p * w - v - params.K * u - params.B,
        params.r * d + params.A * u - v,
        u - w - params.alpha * s,
    ]


def bisect_root(fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-13) -> float:
    """Bisection for a sign change of fn on [lo, hi]."""
    f_lo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid) <= tol or hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Fixed-step RK4 oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledTrajectory:
    """Grid-sampled trajectory produced by the RK4 oracle."""

    params: ModelParams
    times: tuple[float, ...]
    states: tuple[State, ...]
    jumps: tuple[JumpRecord, ...] = ()

    @property
    def t_final(self) -> float:
        return self.times[-1]

    def sample(self, t: float) -> State:
        """Linear interpolation between grid points (oracle-grade)."""
        if not self.times[0] <= t <= self.times[-1]:
            raise ValueError(f"t = {t} outside sampled range")
        i = bisect.bisect_left(self.times, t)
        if i < len(self.times) and self.times[i] == t:
            return self.states[i]
        a, b = self.times[i - 1], self.times[i]
        wgt = (t - a) / (b - a)
        sa, sb = self.states[i - 1], self.states[i]
        return State(
            N=sa.N + wgt * (sb.N - sa.N),
            D=sa.D + wgt * (sb.D - sa.D),
            S=sa.S + wgt * (sb.S - sa.S),
        )

    def terminal_state(self) -> State:
        return self.states[-1]


def _deriv(params: ModelParams, state: tuple[float, float, float], c: ControlValue):
    n, d, s = state
    return (
        params.p * c.w - c.v - params.K * c.u - params.B,
        params.r * d + params.A * c.u - c.v,
        c.u - c.w - params.alpha * s,
    )


def integrate_rk4(
    params: ModelParams,
    init: State,
    policy: PiecewiseControl,
    step: float,
    jump: JumpRecord | None = None,
) -> SampledTrajectory:
    """Classical 4th-order fixed-step integration, breakpoint-aligned.

    Each policy segment is cut into ceil(len/step) equal steps so every
    breakpoint lands on the grid; global error is O(step^4).  Raises if
    `step` exceeds the shortest segment (the grid could then skip a
    whole control regime).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    shortest = min(s.t_end - s.t_start for s in policy.segments)
    if shortest > 0.0 and step > shortest:
        raise ValueError(
            f"step {step} exceeds shortest policy segment {shortest}"
        )
    state = jump.post_state if jump is not None else init
    y = (state.N, state.D, state.S)
    times = [0.0]
    states = [State(*y)]
    for seg in policy.segments:
        length = seg.t_end - seg.t_start
        if length == 0.0:
            continue
        n = max(1, math.ceil(length / step))
        h = length / n
        c = seg.value
        for k in range(n):
            k1 = _deriv(params, y, c)
            k2 = _deriv(params, tuple(y[i] + 0.5 * h * k1[i] for i in range(3)), c)
            k3 = _deriv(params, tuple(y[i] + 0.5 * h * k2[i] for i in range(3)), c)
            k4 = _deriv(params, tuple(y[i] + h * k3[i] for i in range(3)), c)
            y = tuple(
                y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(3)
            )
            times.append(seg.t_start + (k + 1) * h)
            states.append(State(*y))
    jumps = (jump,) if jump is not None else ()
    return SampledTrajectory(
        params=params, times=tuple(times), states=tuple(states), jumps=jumps
    )


# ---------------------------------------------------------------------------
# Event detection
# ---------------------------------------------------------------------------

#: Bisection stops once |value| < 1e-12 * scale.
ROOT_VALUE_RTOL = 1e-12


class AmbiguousRootError(RuntimeError):
    """A component has multiple zero crossings inside the search window."""



def find_zero_crossing(
    traj: Trajectory,
    component: str,
    window: tuple[float, float],
) -> float | None:
    """Locate the zero of a state component inside `window` by bisection.

    Relies on per-segment monotonicity: each segment overlapping the
    window contributes at most one crossing.  Two or more crossings
    raise AmbiguousRootError; a component identically zero from the
    window start returns the window start; no crossing returns None.
    """
    if component not in ("N", "D", "S"):
        raise ValueError(f"unknown component {component!r}")
    t_a, t_b = window
    if not (0.0 <= t_a < t_b <= traj.t_final):
        raise ValueError(f"window {window} outside [0, {traj.t_final}]")
    scale = max(1.0, abs(getattr(traj.sample(t_a), component)))
    ztol = ROOT_VALUE_RTOL * scale

    def val(t: float) -> float:
        return getattr(traj.sample(t), component)

    if abs(val(t_a)) <= ztol:
        return t_a

    crossings: list[float] = []

    def record(t: float) -> None:
        crossings.append(t)
        if len(crossings) > 1:
            raise AmbiguousRootError(
                f"multiple zero crossings of {component} in {window}"
            )

    for seg in segment_rows(traj):
        lo = max(seg.t_start, t_a)
        hi = min(seg.t_end, t_b)
        if hi <= lo:
            continue
        va, vb = val(lo), val(hi)
        if va > ztol and vb > ztol:
            continue
        if va < -ztol and vb < -ztol:
            continue
        if abs(va) <= ztol:
            # entering the segment already on the zero boundary: by
            # continuity the crossing itself happened earlier and was
            # recorded then (or the window started on it)
            continue
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            vm = val(mid)
            if abs(vm) <= ztol:
                a = b = mid
                break
            if (vm > 0.0) == (va > 0.0):
                a = mid
            else:
                b = mid
        record(0.5 * (a + b))
    if not crossings:
        return None
    return crossings[0]


# ---------------------------------------------------------------------------
# Closed-form coefficient view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentCoefficients:
    """One state component on one segment: c0 + c1*tau + c2*exp(r*tau)
    + c3*exp(-alpha*tau), with tau measured from the segment start."""

    c0: float
    c1: float
    c2: float
    c3: float


@dataclass(frozen=True)
class ClosedFormTrajectory:
    """Trajectory with explicit per-segment closed-form coefficients."""

    trajectory: dynamics.Trajectory
    initial_jump: JumpRecord | None

    @property
    def segments(self) -> tuple[SegmentRow, ...]:
        return segment_rows(self.trajectory)

    def coefficients(self, index: int, component: str) -> ComponentCoefficients:
        seg = self.segments[index]
        p = self.trajectory.params
        c = seg.control
        if component == "N":
            slope = p.p * c.w - c.v - p.K * c.u - p.B
            return ComponentCoefficients(seg.entry.N, slope, 0.0, 0.0)
        if component == "D":
            inflow = p.A * c.u - c.v
            return ComponentCoefficients(
                -inflow / p.r, 0.0, seg.entry.D + inflow / p.r, 0.0
            )
        if component == "S":
            net = c.u - c.w
            return ComponentCoefficients(
                net / p.alpha, 0.0, 0.0, seg.entry.S - net / p.alpha
            )
        raise ValueError(f"unknown component {component!r}")


def closed_form_trajectory(
    params: ModelParams,
    init: State,
    policy: PiecewiseControl,
    jump: JumpRecord | None = None,
    expected_zeros: tuple[tuple[float, str], ...] = (),
) -> ClosedFormTrajectory:
    """Exact trajectory of a policy with its closed-form coefficients.

    No discretization anywhere: every sample is evaluated from the
    segment formulas.
    """
    start = jump.post_state if jump is not None else init
    traj = dynamics.integrate_exact(
        params, start, policy, jump=jump, expected_zeros=expected_zeros
    )
    return ClosedFormTrajectory(trajectory=traj, initial_jump=jump)


def advance_state_reference(
    params: ModelParams, state: State, control: ControlValue, dt: float
) -> State:
    """The segment closed form with its rates derived on every call, in the
    operation order `dynamics` evaluates it in."""
    slope = params.p * control.w - control.v - params.K * control.u - params.B
    c = params.A * control.u - control.v
    q = control.u - control.w
    return State(
        N=state.N + slope * dt,
        D=state.D * math.exp(params.r * dt) + c * math.expm1(params.r * dt) / params.r,
        S=state.S * math.exp(-params.alpha * dt)
        - q * math.expm1(-params.alpha * dt) / params.alpha,
    )


def segment_violations_reference(
    params: ModelParams, seg: SegmentRow, tol: State
) -> list[dynamics.Violation]:
    """The violation report of one exact segment, each bound and its
    tolerance looked up by component name; a trajectory's report must
    equal it bit for bit.

    On the segment each component is x0 + (x1 - x0)*expm1(k*tau)/expm1(k*dt)
    (x0 + (x1 - x0)*tau/dt when k = 0), with k = 0, r and -alpha for N, D
    and S.  The excess over a bound, e0 at entry and e1 at exit, therefore
    crosses 0 where expm1(k*tau) = g = f*expm1(k*dt), f = e0/(e0 - e1);
    near g = -1 the equal form 1 + g = (e1 - e0*exp(k*dt))/(e1 - e0)
    avoids cancellation.  A breach already at entry starts at t_start.
    """
    out: list[dynamics.Violation] = []
    dt = seg.t_end - seg.t_start
    checks = (
        ("N", 0.0, 0.0, False, "N>=0"),
        ("D", params.r, 0.0, False, "D>=0"),
        ("S", -params.alpha, 0.0, False, "S>=0"),
        ("S", -params.alpha, params.S_max, True, "S<=S_max"),
    )
    for comp, k, bound, above, label in checks:
        e0, e1 = (
            v - bound if above else bound - v
            for v in (getattr(seg.entry, comp), getattr(seg.exit, comp))
        )
        worst = max(e0, e1)
        if worst <= getattr(tol, comp):
            continue
        tau = 0.0
        if e0 < 0.0:  # so e1 > 0 and f lies in (0, 1)
            f = e0 / (e0 - e1)
            g = f * math.expm1(k * dt)
            if k == 0.0:
                tau = f * dt
            elif g > -0.5:
                tau = math.log1p(g) / k
            else:
                tau = math.log((e1 - e0 * math.exp(k * dt)) / (e1 - e0)) / k
        out.append(dynamics.Violation(seg.t_start + min(tau, dt), label, worst))
    return out


def trajectory_rows_reference(traj: Trajectory) -> list[tuple[float, State]]:
    """(t, state) of each row of the CLI's trajectory CSV, in order, each
    state looked up on its own with `sample`; a jump's time gives the
    pre-jump state's row first."""
    T = traj.t_final
    times = set(traj.breakpoints)
    if T > 0.0:
        for k in range(cli.CSV_GRID_POINTS):
            times.add(min(T, k * T / (cli.CSV_GRID_POINTS - 1)))
    jump_at = {j.t: j for j in traj.jumps}
    rows = []
    for t in sorted(times):
        if t in jump_at:
            j = jump_at[t]
            pre = State(
                N=j.post_state.N - j.delta,
                D=j.post_state.D - j.delta,
                S=j.post_state.S,
            )
            rows.append((t, pre))
        rows.append((t, traj.sample(t)))
    return rows


def trajectory_csv_reference(traj: Trajectory) -> str:
    """The CLI's trajectory CSV written row by row: each row looks its
    control up with `segment_at`, formats every cell on its own and
    writes the trajectory's verdict."""
    feasible = "true" if traj.feasible else "false"
    lines = ["t,N,D,S,u,v,w,feasible"]
    for t, state in trajectory_rows_reference(traj):
        c = SegmentRow._make(traj.segment_at(t)).control
        cells = [cli.CSV_FMT % x for x in (t, state.N, state.D, state.S, c.u, c.v, c.w)]
        lines.append(",".join([*cells, feasible]))
    return "\n".join(lines) + "\n"


def rows_inside_the_box(traj: Trajectory) -> list[bool]:
    """Per CSV row, whether its state lies within traj.tol.state of every
    bound: N, D >= 0 and 0 <= S <= S_max, judged row by row."""
    tol = traj.tol.state
    return [
        state.N >= -tol.N
        and state.D >= -tol.D
        and -tol.S <= state.S <= traj.params.S_max + tol.S
        for _, state in trajectory_rows_reference(traj)
    ]


# ---------------------------------------------------------------------------
# The paper's closed-form clearance time and objective values
# ---------------------------------------------------------------------------


def objective_no_debt(params: ModelParams, cash0: float, t_s: float) -> float:
    """Sell-then-produce value: cash0 + (p*w-B)*T + (A+K)*w*(t_S - T)."""
    w = params.w_max
    return (
        cash0
        + (params.p * w - params.B) * params.T
        + (params.A + params.K) * w * (t_s - params.T)
    )


def objective_debt_with_stock(
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
        return objective_no_debt(params, cash0, t_s) - params.v_max * t_d
    return (
        cash0
        + (params.A * w - params.v_max) * t_d
        + params.K * w * t_s
        + w * (params.p - params.A - params.K) * params.T
        - params.B * params.T
    )


def objective_partial_repayment(params: ModelParams, t_d: float, t_s: float) -> float:
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


def closed_form_objective(
    params: ModelParams, kind: ScenarioKind, cash0: float, times
) -> float | None:
    """N(T) - D(T) in closed form from the post-jump cash cash0 and the
    synthesis's SwitchingTimes, or None when a switching time lies at or
    beyond the horizon (unsold stock or unpaid debt at T), where no
    closed-form expression applies."""
    # the partial-repayment table covers t_S beyond the horizon too, and
    # S3's t_S = 0 is always within it
    formula_applies = times.t_d_within_horizon and (
        times.t_s_within_horizon or kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
    )
    if not formula_applies:
        return None
    if kind in (ScenarioKind.S1_NO_DEBT_WITH_STOCK, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP):
        return objective_no_debt(params, cash0, times.t_s)
    if kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
        return objective_partial_repayment(params, times.t_d, times.t_s)
    # S2, and S3 as S2 at t_S = 0
    return objective_debt_with_stock(params, cash0, times.t_d, times.t_s)


# ---------------------------------------------------------------------------
# 50-digit reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionReference:
    """t_S, t_D and N(T) - D(T) of a scenario's policy in mpmath numbers.

    t_d is None without a debt phase and inf when the debt is never
    cleared; like the library's, it is reported past the horizon too.
    """

    t_s: mpmath.mpf
    t_d: mpmath.mpf | None
    objective: mpmath.mpf


def precision_reference(
    params: ModelParams, init: State, kind: ScenarioKind, dps: int = 50
) -> PrecisionReference:
    """The phase rule restated from the model and evaluated at `dps` digits.

    In the jump scenarios the cash pays min(N0, D0) at t = 0.  The stock
    then sells at w_max with nothing produced until it empties, S3 having
    none to sell; from then on u = w_max.  The debt is repaid at v_max
    (A2: at the sales surplus p*w_max - K*u - B) until it is cleared, and
    at A*u afterwards.  Each event is the root of the state's solution on
    the piece where it falls, and the states are carried from piece to
    piece at `dps` digits.  None of the library's closed forms is used.
    """
    with mpmath.workdps(dps):
        p, r, A, alpha, K, B, v_max, w, T = (
            mpmath.mpf(getattr(params, name))
            for name in ("p", "r", "A", "alpha", "K", "B", "v_max", "w_max", "T")
        )
        N, D, S = (mpmath.mpf(x) for x in (init.N, init.D, init.S))
        if kind.name.startswith("A"):
            paid = min(N, D)
            N, D = N - paid, D - paid
        # S' = -alpha*S - w is zero where exp(alpha*t) = (alpha*S0 + w)/w
        t_s = mpmath.mpf(0) if kind is ScenarioKind.S3_DEBT_NO_STOCK else (
            mpmath.log1p(alpha * S / w) / alpha
        )

        def controls(t, cleared):
            u = w if t >= t_s else mpmath.mpf(0)
            if cleared:
                return u, A * u
            if kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
                return u, p * w - K * u - B
            return u, v_max

        def advance(state, u, v, dt):
            # N' = p*w - v - K*u - B, D' = r*D + A*u - v, S' = -alpha*S + u - w
            n, d, s = state
            return (
                n + (p * w - v - K * u - B) * dt,
                d * mpmath.exp(r * dt) + (A * u - v) * mpmath.expm1(r * dt) / r,
                s * mpmath.exp(-alpha * dt) - (u - w) * mpmath.expm1(-alpha * dt) / alpha,
            )

        t_d = None
        if kind in (
            ScenarioKind.S2_DEBT_WITH_STOCK,
            ScenarioKind.S3_DEBT_NO_STOCK,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        ):
            # on a piece with net repayment q = v - A*u the debt is
            # q/r + (D_a - q/r)*exp(r*tau), zero at tau = -log1p(-r*D_a/q)/r
            debt = D
            for a, b in ((0, t_s), (t_s, mpmath.inf)):
                u, v = controls(a, cleared=False)
                q = v - A * u
                t_d = a - mpmath.log1p(-r * debt / q) / r if q > r * debt else mpmath.inf
                if t_d <= b:
                    break
                debt = advance((0, debt, 0), u, v, b - a)[1]

        cuts = sorted({t for t in (t_s, t_d) if t is not None and 0 < t < T})
        a = mpmath.mpf(0)
        for b in [*cuts, T]:
            u, v = controls(a, cleared=t_d is None or a >= t_d)
            N, D, S = advance((N, D, S), u, v, b - a)
            # the events are exact zeros: a residual debt of 1e-50 would
            # otherwise compound by up to exp(r*T) = 1e308
            D = mpmath.mpf(0) if b == t_d else D
            S = mpmath.mpf(0) if b == t_s else S
            a = b
        return PrecisionReference(t_s=t_s, t_d=t_d, objective=N - D)


# ---------------------------------------------------------------------------
# Judges beyond the bang-bang class: the one-step Bellman witness and the LP
# ---------------------------------------------------------------------------


def box_grid(params: ModelParams) -> list[ControlValue]:
    """The 27 controls of the control box's 3x3x3 grid: each component at
    0, half and all of its bound."""
    ticks = (0.0, 0.5, 1.0)
    return [
        ControlValue(a * params.u_max, b * params.v_max, c * params.w_max)
        for a in ticks for b in ticks for c in ticks
    ]


def value_from(params: ModelParams, x: State, T: float, jump_mode: bool = False) -> float:
    """V(T, x): the synthesizer's objective re-solved from x over the horizon T."""
    local = replace(params, T=T)
    return synthesize_policy(local, x, classify_scenario(local, x, jump_mode)).objective


class BellmanGain(NamedTuple):
    """The largest one-step gain found and its control, and each control
    whose successor could not be solved, with that successor and the error
    it raised."""

    gain: float
    control: ControlValue | None
    unsolved: tuple[tuple[ControlValue, State, str], ...]


def bellman_gain(
    params: ModelParams,
    x: State,
    T: float,
    h: float,
    controls: Sequence[ControlValue],
    jump_mode: bool = False,
) -> BellmanGain:
    """The largest V(T - h, flow(x, c, h)) - V(T, x) over `controls`.

    Bellman's principle: holding any admissible control c for a step h and
    then acting optimally cannot beat acting optimally from the start, so
    no gain is positive if V, the synthesizer's objective (value_from), is
    the value function.  flow is the segment closed form
    (advance_state_reference); in jump mode every successor is re-solved
    in jump mode too, as A1 or A2.  A successor that cannot be solved (it
    leaves the state box, or the synthesizer refuses it) is reported in
    `unsolved`, never skipped silently.
    """
    base = value_from(params, x, T, jump_mode)
    best, arg, unsolved = -math.inf, None, []
    for c in controls:
        successor = advance_state_reference(params, x, c, h)
        try:
            gain = value_from(params, successor, T - h, jump_mode) - base
        except (ValueError, PolicyInfeasibleError) as err:
            unsolved.append((c, successor, f"{type(err).__name__}: {err}"))
            continue
        if gain > best:
            best, arg = gain, c
    return BellmanGain(best, arg, tuple(unsolved))


class LPBest(NamedTuple):
    """linprog's status, and where it is 0 (optimal) the LP's controls
    clipped to the box, the value N(T) - D(T) of their exact path, and the
    worst bound that path breaks, in units of the bound's Tolerance scale
    (0 when it breaks none); otherwise None, () and None."""

    value: float | None
    status: int
    controls: tuple[ControlValue, ...]
    breach: float | None


def lp_best(params: ModelParams, init: State, M: int) -> LPBest:
    """The best control held constant on each of M equal steps of [0, T],
    from `init` (no jump), by `linprog(method="highs")`.

    The model is linear in the controls: over a step dt the state moves by
    the exact per-step factors integrate_exact uses,

        N' = N + dt*(p*w - v - K*u - B)
        D' = exp(r*dt)*D + expm1(r*dt)/r*(A*u - v)
        S' = exp(-alpha*dt)*S - expm1(-alpha*dt)/alpha*(u - w)

    which are the LP's equality rows, with the states after each step as
    variables in units of their Tolerance scales.  A component is monotone
    under a constant control, so the bounds N, D >= 0 and 0 <= S <= S_max
    held at the step ends hold on the whole path.  Nothing reads t_S, t_D
    or the scenario.  The value is not the LP's own: the controls are
    re-integrated step by step (advance_state_reference), so it is the
    value of an admissible control, and `breach` says how far its path
    leaves the state box.
    """
    P, dt = params, params.T / M
    scales = dynamics.Tolerance.of(params, init)
    cash, debt, stock = scales
    one, prev = sparse.identity(M, format="csr"), sparse.eye(M, k=-1, format="csr")
    grow, decay = math.expm1(P.r * dt) / P.r, -math.expm1(-P.alpha * dt) / P.alpha
    # columns u, v, w, then N, D, S after each step; one row block per state
    A_eq = sparse.bmat([
        [P.K * dt / cash * one, dt / cash * one, -P.p * dt / cash * one, one - prev, None, None],
        [-P.A * grow / debt * one, grow / debt * one, None, None,
         one - math.exp(P.r * dt) * prev, None],
        [-decay / stock * one, None, decay / stock * one, None, None,
         one - math.exp(-P.alpha * dt) * prev],
    ], format="csr")
    b_eq = np.zeros(3 * M)
    b_eq[:M] = -P.B * dt / cash
    b_eq[[0, M, 2 * M]] += (init.N / cash, init.D * math.exp(P.r * dt) / debt,
                            init.S * math.exp(-P.alpha * dt) / stock)
    cost = np.zeros(6 * M)
    cost[[4 * M - 1, 5 * M - 1]] = (-cash, debt)  # maximize N(T) - D(T)
    boxes = [(0.0, P.u_max), (0.0, P.v_max), (0.0, P.w_max), (0.0, None), (0.0, None),
             (0.0, P.S_max / stock)]
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=[b for b in boxes for _ in range(M)],
                  method="highs")
    if res.status != 0:
        return LPBest(None, res.status, (), None)
    u, v, w = np.clip(res.x[:3 * M].reshape(3, M).T, 0.0, (P.u_max, P.v_max, P.w_max)).T
    controls = tuple(map(ControlValue, u.tolist(), v.tolist(), w.tolist()))
    state, breach = init, 0.0
    for c in controls:
        state = advance_state_reference(params, state, c, dt)
        breach = max(breach, -state.N / cash, -state.D / debt, -state.S / stock,
                     (state.S - P.S_max) / stock)
    return LPBest(state.N - state.D, 0, controls, breach)


# ---------------------------------------------------------------------------
# Grid-sampled certificate (cross-check for the exact per-segment checks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchingValues:
    theta_u: float
    theta_v: float
    theta_w: float


def switching_from_psi(
    params: ModelParams, psi: tuple[float, float, float]
) -> SwitchingValues:
    psi1, psi2, psi3 = psi
    return SwitchingValues(
        *(
            w1 * psi1 + w2 * psi2 + w3 * psi3
            for w1, w2, w3 in verify._switching_weights(params).values()
        )
    )


def switching_values(
    params: ModelParams, adjoint: AdjointTrajectory, t: float
) -> SwitchingValues:
    """Evaluate the three switching functions at time t."""
    return switching_from_psi(params, adjoint.value_at(t))


def hamiltonian(
    params: ModelParams,
    psi: tuple[float, float, float],
    state: State,
    control: ControlValue,
) -> float:
    """H(psi, X, U); linear in the control components."""
    theta = switching_from_psi(params, psi)
    return (
        theta.theta_u * control.u
        + theta.theta_v * control.v
        + theta.theta_w * control.w
        - params.B * psi[0]
        + params.r * state.D * psi[1]
        - params.alpha * state.S * psi[2]
    )


def breakpoints_of(*fns) -> list[float]:
    """Every breakpoint of the piecewise `fns`, sorted, each once."""
    return sorted({t for fn in fns for t in fn.breakpoints})


def check_grid(T: float, breakpoints: Sequence[float]) -> list[float]:
    """Uniform grid of 10 points per unit time plus breakpoints nudged
    by 1e-9 to either side."""
    pts = {0.0, T}
    n = 10 * max(1, math.ceil(T))
    for k in range(n + 1):
        pts.add(min(T, k * T / n) if n else 0.0)
    for b in breakpoints:
        for t in (b - 1e-9, b, b + 1e-9):
            if 0.0 <= t <= T:
                pts.add(t)
    return sorted(pts)


def grid_check_slackness(mults, traj: Trajectory, tol: float = verify.CERT_TOL):
    """Slackness and multiplier signs sampled on `check_grid`, on the
    trajectory's own scales: lambda*g (money per time) within tol of the
    objective's money scale (cash plus debt) per unit of time, lambda
    within that per unit of its g, and mu*g(T) (money) within tol of the
    money scale."""
    T = traj.t_final
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    grid = check_grid(T, breakpoints_of(*lams, traj))
    cash, debt, stock = traj.tol
    money = cash + debt
    limit = tol * money / T if T > 0.0 else math.inf
    bad = []
    for t in grid:
        st = traj.sample(t)
        gvals = (st.N, st.D, st.S, st.S - traj.params.S_max)
        for i, (lam, g, unit) in enumerate(zip(lams, gvals, (cash, debt, stock, stock)), 1):
            lv = lam.value(t)
            if lv * unit < -limit:
                bad.append(verify.CertViolation(t, f"lambda{i}>=0", -lv))
            prod = lv * g
            if abs(prod) > limit:
                bad.append(verify.CertViolation(t, f"lambda{i}*g{i}=0", abs(prod)))
    final = traj.terminal_state()
    gfin = (final.N, final.D, final.S, final.S - traj.params.S_max)
    for i, (mu, g) in enumerate(zip(mults.mus, gfin), start=1):
        if mu < 0.0:
            bad.append(verify.CertViolation(T, f"mu{i}>=0", -mu))
        if abs(mu * g) > tol * money:
            bad.append(verify.CertViolation(T, f"mu{i}*g{i}(T)=0", abs(mu * g)))
    return verify.CertReport(passed=not bad, violations=tuple(bad))


def grid_check_control_maximizes(
    params: ModelParams, adjoint, policy: PiecewiseControl, tol: float = verify.CERT_TOL
):
    """Box argmax sampled on `check_grid`, theta_u and theta_w (money per
    stock) judged to tol * p and theta_v (no unit) to tol; singular grid
    times closer than two grid steps merge into one reported segment."""
    T = policy.t_final
    grid = check_grid(T, breakpoints_of(adjoint.psi1, adjoint.psi2, adjoint.psi3, policy))
    theta_tols = {"u": tol * params.p, "v": tol, "w": tol * params.p}
    spacing = T / (10 * max(1, math.ceil(T))) if T > 0.0 else 1.0
    bounds = {"u": params.u_max, "v": params.v_max, "w": params.w_max}
    bad = []
    singular: dict[str, list[list[float]]] = {"u": [], "v": [], "w": []}
    for t in grid:
        theta = switching_values(params, adjoint, t)
        control = policy.segment_at(t).value
        for comp, th, actual in (
            ("u", theta.theta_u, control.u),
            ("v", theta.theta_v, control.v),
            ("w", theta.theta_w, control.w),
        ):
            if abs(th) <= theta_tols[comp]:
                runs = singular[comp]
                if runs and t - runs[-1][1] <= 2.0 * spacing + 1e-9:
                    runs[-1][1] = t
                else:
                    runs.append([t, t])
                continue
            target = bounds[comp] if th > 0.0 else 0.0
            if abs(actual - target) > tol * bounds[comp]:
                bad.append(
                    verify.CertViolation(t, f"argmax_{comp}", abs(actual - target))
                )
    segs = tuple(
        verify.SingularSegment(comp, run[0], run[1])
        for comp in ("u", "v", "w")
        for run in singular[comp]
    )
    return verify.CertReport(
        passed=not bad, violations=tuple(bad), singular_segments=segs
    )


def grid_multipliers_nonnegative(mults, T: float) -> bool:
    """Every lambda >= 0 on `check_grid` and every mu >= 0."""
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    grid = check_grid(T, breakpoints_of(*lams))
    return all(lam.value(t) >= 0.0 for lam in lams for t in grid) and all(
        mu >= 0.0 for mu in mults.mus
    )


def merged(policy: PiecewiseControl) -> PiecewiseControl:
    """Canonical form of `policy` with adjacent equal control values merged."""
    out: list[ControlSegment] = [policy.segments[0]]
    for seg in policy.segments[1:]:
        if seg.value == out[-1].value:
            out[-1] = ControlSegment(out[-1].t_start, seg.t_end, seg.value)
        else:
            out.append(seg)
    return PiecewiseControl(tuple(out))


def candidate_policy(T: float, t_a: float, t_b: float, levels) -> PiecewiseControl:
    """A candidate's policy: its nonempty intervals cut at (t_a, t_b), with
    per-component `levels`, merged by `merged`."""
    bounds = (0.0, t_a, t_b, T)
    segs = tuple(
        ControlSegment(a, b, ControlValue(u, v, w))
        for a, b, u, v, w in zip(bounds, bounds[1:], *levels)
        if b > a
    )
    return merged(PiecewiseControl(segs))


def candidate_key(policy: PiecewiseControl) -> tuple:
    """The search's tie-break key read off a built policy: earliest first
    switch, then levels.  `verify._candidate_key` reads it off plain
    (t, level) tuples without building the policy."""
    bp = policy.breakpoints
    first = bp[0] if bp else math.inf
    flat = tuple(
        (seg.t_start, seg.value.u, seg.value.v, seg.value.w)
        for seg in policy.segments
    )
    return (first, flat)


def grid_brute_force_best(
    params: ModelParams,
    init: State,
    grid: verify.BruteForceGrid = verify.BruteForceGrid(),
) -> tuple[PiecewiseControl, float]:
    """The broadcast exhaustive search `verify.brute_force_best` replaced.

    It propagates every level-sequence combination (all L**3 of them)
    over every (t_a, t_b) cut pair at once, recomputing the first two
    segments for each; the factorized search must return the same
    policy and value bit for bit.
    """
    if grid.n_t < 1:
        raise ValueError("n_t must be at least 1")
    T = params.T
    if T <= 0.0:
        raise ValueError("brute force needs a positive horizon")
    u_levels, v_levels, w_levels = grid.levels(params)
    useq = np.array(list(itertools.product(u_levels, repeat=3)))
    vseq = np.array(list(itertools.product(v_levels, repeat=3)))
    wseq = np.array(list(itertools.product(w_levels, repeat=3)))
    nu, nv, nw = len(useq), len(vseq), len(wseq)
    iu = np.repeat(np.arange(nu), nv * nw)
    iv = np.tile(np.repeat(np.arange(nv), nw), nu)
    iw = np.tile(np.arange(nw), nu * nv)
    U = useq[iu]  # (M, 3)
    V = vseq[iv]
    W = wseq[iw]

    p, r, A, al, K, B = params.p, params.r, params.A, params.alpha, params.K, params.B
    slopes = p * W - V - K * U - B  # (M, 3)
    cin = A * U - V
    qin = U - W
    # each state bound judged to its component's tolerance
    n_tol, d_tol, s_tol = dynamics.Tolerance.of(params, init).state
    s_hi = params.S_max + s_tol

    def within_bounds(N, D, S):
        return (N >= -n_tol) & (D >= -d_tol) & (S >= -s_tol) & (S <= s_hi)

    cut_times = np.array([k * T / grid.n_t for k in range(1, grid.n_t)])
    if cut_times.size == 0:
        cut_times = np.array([0.0])

    best_value = -math.inf
    best_key: tuple | None = None
    best_policy: PiecewiseControl | None = None

    def propagate(N0, D0, S0, dt, col):
        """Exact segment step; dt broadcasts against the combo axis."""
        er = np.exp(r * dt)
        em1r = np.expm1(r * dt) / r
        ea = np.exp(-al * dt)
        em1a = np.expm1(-al * dt) / al
        N1 = N0 + slopes[:, col] * dt
        D1 = D0 * er + cin[:, col] * em1r
        S1 = S0 * ea - qin[:, col] * em1a
        return N1, D1, S1

    for i, t_a in enumerate(cut_times):
        N1, D1, S1 = propagate(init.N, init.D, init.S, t_a, 0)
        ok1 = within_bounds(N1, D1, S1)
        tb = cut_times[i:]
        d2 = (tb - t_a)[:, None]
        d3 = (T - tb)[:, None]
        N2, D2, S2 = propagate(N1[None, :], D1[None, :], S1[None, :], d2, 1)
        N3, D3, S3 = propagate(N2, D2, S2, d3, 2)
        feasible = ok1[None, :] & within_bounds(N2, D2, S2) & within_bounds(N3, D3, S3)
        value = np.where(feasible, N3 - D3, -np.inf)
        chunk_best = value.max()
        if chunk_best == -math.inf or chunk_best < best_value:
            continue
        rows, cols = np.nonzero(value == chunk_best)
        for j_idx, m_idx in zip(rows.tolist(), cols.tolist()):
            levels = (U[m_idx].tolist(), V[m_idx].tolist(), W[m_idx].tolist())
            policy = candidate_policy(T, float(t_a), float(tb[j_idx]), levels)
            key = candidate_key(policy)
            if chunk_best > best_value or best_key is None or key < best_key:
                best_value = float(chunk_best)
                best_key = key
                best_policy = policy
    if best_policy is None:
        raise NoFeasibleCandidateError(
            "no feasible piecewise-constant candidate on the search grid"
        )
    return best_policy, best_value


def prefix_brute_force_best(
    params: ModelParams,
    init: State,
    grid: verify.BruteForceGrid = verify.BruteForceGrid(),
) -> tuple[PiecewiseControl, float]:
    """The per-t_a search `verify.brute_force_best` walks in blocks.

    For each t_a on its own, segment 1 is propagated once per level
    triple, segment 2 once per feasible first triple, middle triple and
    t_b >= t_a, and segment 3 once per feasible two-segment prefix and
    last triple, with every duration's exact factors computed afresh.
    No prefix is pruned, and every tie's policy is built by
    `candidate_policy` and ranked by `candidate_key`.  The blocked search must return the same policy and
    value bit for bit.
    """
    if grid.n_t < 1:
        raise ValueError("n_t must be at least 1")
    T = params.T
    if T <= 0.0:
        raise ValueError("brute force needs a positive horizon")
    u_levels, v_levels, w_levels = (np.array(lv) for lv in grid.levels(params))
    iu, iv, iw = np.indices((len(u_levels), len(v_levels), len(w_levels))).reshape(3, -1)
    U, V, W = u_levels[iu], v_levels[iv], w_levels[iw]

    p, r, A, al, K, B = params.p, params.r, params.A, params.alpha, params.K, params.B
    slopes = p * W - V - K * U - B
    cin = A * U - V
    qin = U - W
    n_tol, d_tol, s_tol = dynamics.Tolerance.of(params, init).state
    s_hi = params.S_max + s_tol

    cut_times = np.array([k * T / grid.n_t for k in range(1, grid.n_t)])
    if cut_times.size == 0:
        cut_times = np.array([0.0])

    best_value = -math.inf
    ties: list[tuple[float, float, list[int]]] = []

    def step(dt):
        return (
            dt,
            np.exp(r * dt),
            np.expm1(r * dt) / r,
            np.exp(-al * dt),
            np.expm1(-al * dt) / al,
        )

    def propagate(N0, D0, S0, factors):
        dt, er, em1r, ea, em1a = factors
        return N0 + slopes * dt, D0 * er + cin * em1r, S0 * ea - qin * em1a

    def feasible(N, D, S):
        return (N >= -n_tol) & (D >= -d_tol) & (S >= -s_tol) & (S <= s_hi)

    for i, t_a in enumerate(cut_times):
        N1, D1, S1 = propagate(init.N, init.D, init.S, step(t_a))
        first = np.flatnonzero(feasible(N1, D1, S1))
        if first.size == 0:
            continue
        tb = cut_times[i:]
        N2, D2, S2 = propagate(
            N1[first, None], D1[first, None], S1[first, None],
            tuple(x[:, :, None] for x in step((tb - t_a)[:, None])),
        )
        ok2 = feasible(N2, D2, S2)
        ok2[0, :, 1:] = False
        jb, ja, jm = np.nonzero(ok2)
        if jb.size == 0:
            continue
        factors3 = tuple(x[jb] for x in step((T - tb)[:, None]))
        N3, D3, S3 = propagate(
            N2[jb, ja, jm, None], D2[jb, ja, jm, None], S2[jb, ja, jm, None], factors3
        )
        value = np.where(feasible(N3, D3, S3), N3 - D3, -np.inf)
        chunk_best = value.max()
        if chunk_best == -math.inf or chunk_best < best_value:
            continue
        if chunk_best > best_value:
            best_value, ties = float(chunk_best), []
        rows, last = np.nonzero(value == chunk_best)
        ties += [
            (float(t_a), float(tb[jb[row]]), [first[ja[row]], jm[row], c])
            for row, c in zip(rows.tolist(), last.tolist())
        ]
    if not ties:
        raise NoFeasibleCandidateError(
            "no feasible piecewise-constant candidate on the search grid"
        )
    policies = (
        candidate_policy(T, t_a, t_b, (U[seq].tolist(), V[seq].tolist(), W[seq].tolist()))
        for t_a, t_b, seq in ties
    )
    return min(policies, key=candidate_key), best_value
