"""Independent reference oracles used to derive expected test values.

The scipy reference and `bisect_root` deliberately avoid the package's
own integrators: trajectories are integrated with scipy's adaptive RK at
tight tolerances and event times located by plain bisection, so
agreement with the closed forms is a genuine two-sided check.

The fixed-step RK4 integrator, the bisection event finder over an exact
`Trajectory` and the closed-form coefficient view of one are the
package-shaped oracles the tests compare the exact integrator against.
The grid certificate samples the maximum-principle checks at about
10 points per unit of time plus the breakpoints nudged to either side;
the exact per-segment certificate is cross-checked against it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from firmopt import (
    ControlValue,
    JumpRecord,
    ModelParams,
    PiecewiseControl,
    State,
    Trajectory,
    dynamics,
    verify,
)


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

    for seg in traj.segments:
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
    def segments(self) -> tuple[dynamics.TrajectorySegment, ...]:
        return self.trajectory.segments

    def coefficients(self, index: int, component: str) -> ComponentCoefficients:
        seg = self.trajectory.segments[index]
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


# ---------------------------------------------------------------------------
# Grid-sampled certificate (cross-check for the exact per-segment checks)
# ---------------------------------------------------------------------------


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
    """Slackness and multiplier signs sampled on `check_grid`."""
    T = traj.t_final
    grid = check_grid(T, tuple(mults.breakpoints) + traj.breakpoints)
    x0 = traj.sample(0.0)
    scale = max(1.0, abs(x0.N), abs(x0.D), abs(x0.S), traj.params.S_max)
    bad = []
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    for t in grid:
        st = traj.sample(t)
        gvals = (st.N, st.D, st.S, st.S - traj.params.S_max)
        for i, (lam, g) in enumerate(zip(lams, gvals), start=1):
            lv = lam.value(t)
            if lv < -tol:
                bad.append(verify.CertViolation(t, f"lambda{i}>=0", -lv))
            prod = lv * g
            if abs(prod) > tol * scale:
                bad.append(verify.CertViolation(t, f"lambda{i}*g{i}=0", abs(prod)))
    final = traj.terminal_state()
    gfin = (final.N, final.D, final.S, final.S - traj.params.S_max)
    for i, (mu, g) in enumerate(zip(mults.mus, gfin), start=1):
        if mu < 0.0:
            bad.append(verify.CertViolation(T, f"mu{i}>=0", -mu))
        if abs(mu * g) > tol * scale:
            bad.append(verify.CertViolation(T, f"mu{i}*g{i}(T)=0", abs(mu * g)))
    return verify.CertReport(passed=not bad, violations=tuple(bad))


def grid_check_control_maximizes(
    params: ModelParams, adjoint, policy: PiecewiseControl, tol: float = verify.CERT_TOL
):
    """Box argmax sampled on `check_grid`; singular grid times closer
    than two grid steps merge into one reported segment."""
    T = policy.horizon
    grid = check_grid(T, tuple(adjoint.breakpoints) + tuple(policy.breakpoints))
    theta_tol = tol * max(1.0, params.p)
    spacing = T / (10 * max(1, math.ceil(T))) if T > 0.0 else 1.0
    bounds = {"u": params.u_max, "v": params.v_max, "w": params.w_max}
    bad = []
    singular: dict[str, list[list[float]]] = {"u": [], "v": [], "w": []}
    for t in grid:
        theta = verify.switching_values(params, adjoint, t)
        control = policy.value_at(t)
        for comp, th, actual in (
            ("u", theta.theta_u, control.u),
            ("v", theta.theta_v, control.v),
            ("w", theta.theta_w, control.w),
        ):
            if abs(th) <= theta_tol:
                runs = singular[comp]
                if runs and t - runs[-1][1] <= 2.0 * spacing + 1e-9:
                    runs[-1][1] = t
                else:
                    runs.append([t, t])
                continue
            target = bounds[comp] if th > 0.0 else 0.0
            if abs(actual - target) > 1e-9 * max(1.0, bounds[comp]):
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
    grid = check_grid(T, mults.breakpoints)
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    return all(lam.value(t) >= 0.0 for lam in lams for t in grid) and all(
        mu >= 0.0 for mu in mults.mus
    )
