"""Exact and numerical integration of the firm state system.

The dynamics are linear with piecewise-constant inputs, so each policy
segment has a closed-form solution; the exact integrator chains those
solutions and is the only evaluation path.  The adjoint (costate)
system is likewise linear and is integrated backward in closed form.

Per segment with constant control (u, v, w), entry state (N1, D1, S1)
at t1 and tau = t - t1:

    N(t) = N1 + (p*w - v - K*u - B) * tau
    D(t) = D1*exp(r*tau) + c*expm1(r*tau)/r        with c = A*u - v
    S(t) = S1*exp(-alpha*tau) - q*expm1(-alpha*tau)/alpha   with q = u - w

Each component is monotone within a segment (the derivative of an
affine autonomous scalar ODE cannot change sign), so feasibility checks
at segment endpoints are exhaustive.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .model import (
    ControlValue,
    JumpRecord,
    ModelParams,
    PiecewiseControl,
    State,
)

#: Relative tolerance used to accept an analytically expected zero and to
#: flag state-constraint violations.
ZERO_SNAP_RTOL = 1e-9


class Violation(NamedTuple):
    """A state-constraint breach: when it starts, which bound, how deep."""

    time: float
    constraint: str
    magnitude: float


def advance_state(params: ModelParams, state: State, control: ControlValue, dt: float) -> State:
    """Exact state after holding `control` for `dt` starting from `state`."""
    slope = params.p * control.w - control.v - params.K * control.u - params.B
    c = params.A * control.u - control.v
    q = control.u - control.w
    return State(
        N=state.N + slope * dt,
        D=state.D * math.exp(params.r * dt) + c * math.expm1(params.r * dt) / params.r,
        S=state.S * math.exp(-params.alpha * dt)
        - q * math.expm1(-params.alpha * dt) / params.alpha,
    )


@dataclass(frozen=True)
class TrajectorySegment:
    """One constant-control stretch with its exact entry and exit states;
    `exit` is what the next segment enters with, snapped zeros included."""

    t_start: float
    t_end: float
    control: ControlValue
    entry: State
    exit: State

    def state_at(self, params: ModelParams, t: float) -> State:
        if t == self.t_end:
            return self.exit
        return advance_state(params, self.entry, self.control, t - self.t_start)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise closed-form evolution of (N, D, S) over [0, T].

    sample() is right-continuous; discontinuities (instantaneous debt
    repayments) are recorded in `jumps`, the pre-jump state being the
    previous segment's terminal value (or `initial_pre_jump` at t = 0).
    """

    params: ModelParams
    segments: tuple[TrajectorySegment, ...]
    jumps: tuple[JumpRecord, ...] = ()
    feasibility_report: tuple[Violation, ...] = ()
    _starts: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_starts", tuple(s.t_start for s in self.segments))

    @property
    def t_final(self) -> float:
        return self.segments[-1].t_end

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._starts + (self.t_final,)

    @property
    def feasible(self) -> bool:
        return not self.feasibility_report

    def segment_at(self, t: float) -> TrajectorySegment:
        """The segment in force at t (right-continuous, t = T in the last)."""
        return self.segments[bisect.bisect_right(self._starts, t) - 1]

    def sample(self, t: float) -> State:
        if not 0.0 <= t <= self.t_final:
            raise ValueError(f"t = {t} outside [0, {self.t_final}]")
        return self.segment_at(t).state_at(self.params, t)

    def terminal_state(self) -> State:
        return self.segments[-1].state_at(self.params, self.t_final)

    def objective(self) -> float:
        final = self.terminal_state()
        return final.N - final.D


def _state_scale(init: State, params: ModelParams) -> float:
    return max(1.0, abs(init.N), abs(init.D), abs(init.S), params.S_max)


def _violation_start(
    params: ModelParams,
    seg: TrajectorySegment,
    component: str,
    bound: float,
    above: bool,
    tol: float,
) -> float:
    """Bisect the time at which a monotone component crosses its bound."""
    def excess(t: float) -> float:
        value = getattr(seg.state_at(params, t), component)
        return value - bound if above else bound - value

    lo, hi = seg.t_start, seg.t_end
    if excess(lo) > tol:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return hi


def _segment_violations(
    params: ModelParams, seg: TrajectorySegment, tol: float
) -> list[Violation]:
    out: list[Violation] = []
    checks = (
        ("N", 0.0, False, "N>=0"),
        ("D", 0.0, False, "D>=0"),
        ("S", 0.0, False, "S>=0"),
        ("S", params.S_max, True, "S<=S_max"),
    )
    for comp, bound, above, label in checks:
        lo_val = getattr(seg.entry, comp)
        hi_val = getattr(seg.exit, comp)
        worst = max(v - bound if above else bound - v for v in (lo_val, hi_val))
        if worst > tol:
            t0 = _violation_start(params, seg, comp, bound, above, tol)
            out.append(Violation(t0, label, worst))
    return out


def integrate_exact(
    params: ModelParams,
    init: State,
    policy: PiecewiseControl,
    jump: JumpRecord | None = None,
    expected_zeros: Sequence[tuple[float, str]] = (),
) -> Trajectory:
    """Chain exact segment solutions over the whole policy.

    `expected_zeros` lists (time, component) pairs where the policy was
    constructed so that the component reaches zero exactly (stock
    depletion, debt clearance).  At such breakpoints the residual left
    by floating-point evaluation is snapped to 0 provided it is below
    ZERO_SNAP_RTOL * max(1, initial component value); a larger residual
    means the caller's construction was wrong and raises.

    Constraint violations are reported, never raised.
    """
    policy.check_bounds(params)
    state = jump.post_state if jump is not None else init
    scale = _state_scale(state, params)
    snap = {(round(t, 15), comp) for t, comp in expected_zeros}
    violations: list[Violation] = []
    segments: list[TrajectorySegment] = []
    for seg in policy.segments:
        entry = state
        state = advance_state(params, state, seg.value, seg.t_end - seg.t_start)
        snapped = {}
        for comp in ("N", "D", "S"):
            if (round(seg.t_end, 15), comp) in snap:
                residual = getattr(state, comp)
                if abs(residual) > ZERO_SNAP_RTOL * scale:
                    raise AssertionError(
                        f"{comp}({seg.t_end}) = {residual} expected zero"
                    )
                snapped[comp] = 0.0
        if snapped:
            state = State(**{c: snapped.get(c, getattr(state, c)) for c in ("N", "D", "S")})
        segments.append(TrajectorySegment(seg.t_start, seg.t_end, seg.value, entry, state))
    traj_segments = tuple(segments)
    tol = ZERO_SNAP_RTOL * scale
    for s in traj_segments:
        violations.extend(_segment_violations(params, s, tol))
    violations.sort(key=lambda v: (v.time, v.constraint))
    jumps = (jump,) if jump is not None else ()
    return Trajectory(
        params=params,
        segments=traj_segments,
        jumps=jumps,
        feasibility_report=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Piecewise exponential functions and the adjoint system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpTerm:
    """coef * exp(rate * (t - anchor)); rate 0 encodes a constant."""

    coef: float
    rate: float
    anchor: float = 0.0

    def value(self, t: float) -> float:
        if self.rate == 0.0:
            return self.coef
        return self.coef * math.exp(self.rate * (t - self.anchor))


@dataclass(frozen=True)
class ExpSegment:
    t_start: float
    t_end: float
    terms: tuple[ExpTerm, ...] = ()
    lin: float = 0.0  # lin * (t - t_start)

    def value(self, t: float) -> float:
        out = self.lin * (t - self.t_start)
        for term in self.terms:
            out += term.value(t)
        return out


def extrema(
    a: float, b: float, *parts: tuple[float, ExpSegment]
) -> tuple[float, float, float, float]:
    """(min, t_min, max, t_max) of sum(weight * seg(t)) over [a, b].

    Equal rates merge into f(tau) = c + sum_k a_k*exp(k*tau), tau = t - a.
    With at most two nonzero rates f' has at most one zero, in closed
    form, so the endpoints and that point decide both extrema exactly.
    A linear part alone is monotone; a linear part beside exponentials,
    or three rates, raise NotImplementedError.
    """
    const = lin = 0.0
    amps: dict[float, float] = {}
    for weight, seg in parts:
        lin += weight * seg.lin
        const += weight * seg.lin * (a - seg.t_start)
        for term in seg.terms:
            if term.rate == 0.0:
                const += weight * term.coef
            else:
                amp = weight * term.coef * math.exp(term.rate * (a - term.anchor))
                amps[term.rate] = amps.get(term.rate, 0.0) + amp
    live = [(k, c) for k, c in amps.items() if c != 0.0]
    if len(live) > 2 or (live and lin != 0.0):
        raise NotImplementedError("extrema need at most two rates and no linear part")
    times = [a, b]
    if len(live) == 2:
        (k1, c1), (k2, c2) = live
        ratio = -(c2 * k2) / (c1 * k1)
        if ratio > 0.0:
            t = a + math.log(ratio) / (k1 - k2)
            if a < t < b:
                times.append(t)
    values = []
    for t in times:
        value = const + lin * (t - a)
        for k, c in live:
            value += c * math.exp(k * (t - a))
        values.append((value, t))
    (lo, t_lo), (hi, t_hi) = min(values), max(values)
    return lo, t_lo, hi, t_hi


@dataclass(frozen=True)
class PiecewiseExpFn:
    """Piecewise sum-of-exponentials function of time on [0, T].

    Right-continuous at interior breakpoints; covers the multiplier and
    costate shapes arising here (constants plus exp(rate*(t - anchor))).
    """

    segments: tuple[ExpSegment, ...]
    _starts: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_starts", tuple(s.t_start for s in self.segments))

    @classmethod
    def constant(cls, value: float, t0: float, t1: float) -> "PiecewiseExpFn":
        return cls((ExpSegment(t0, t1, (ExpTerm(value, 0.0),)),))

    @classmethod
    def zero(cls, t0: float, t1: float) -> "PiecewiseExpFn":
        return cls.constant(0.0, t0, t1)

    @property
    def t_final(self) -> float:
        return self.segments[-1].t_end

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._starts + (self.t_final,)

    def segment_at(self, t: float) -> ExpSegment:
        """The segment in force at t (right-continuous, t = T in the last)."""
        return self.segments[bisect.bisect_right(self._starts, t) - 1]

    def value(self, t: float) -> float:
        if not self.segments[0].t_start <= t <= self.t_final:
            raise ValueError(f"t = {t} outside function domain")
        return self.segment_at(t).value(t)


def piecewise_from_spans(
    spans: Sequence[tuple[float, float, tuple[ExpTerm, ...]]]
) -> PiecewiseExpFn:
    """Build a PiecewiseExpFn from (t0, t1, terms) spans, skipping empties."""
    segs = tuple(ExpSegment(a, b, terms) for a, b, terms in spans if b > a)
    if not segs:
        a = spans[0][0] if spans else 0.0
        segs = (ExpSegment(a, a, ()),)
    return PiecewiseExpFn(segs)


@dataclass(frozen=True)
class AdjointTrajectory:
    """Costate trajectories (psi1, psi2, psi3).

    Terminal conditions: psi1(T) = mu1 + 1, psi2(T) = mu2 - 1,
    psi3(T) = mu3 - mu4.  Each component is absolutely continuous.
    """

    psi1: PiecewiseExpFn
    psi2: PiecewiseExpFn
    psi3: PiecewiseExpFn

    def value_at(self, t: float) -> tuple[float, float, float]:
        return (self.psi1.value(t), self.psi2.value(t), self.psi3.value(t))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.psi3.breakpoints


def _integral_terms_psi1(lam_seg: ExpSegment, a: float, b: float):
    """Terms of integral over [t, b] of lambda1(s) ds as functions of t.

    The linear part is anchored at the segment start `a` to match
    ExpSegment's lin * (t - t_start) convention.
    """
    const = 0.0
    terms: list[ExpTerm] = []
    lin = 0.0
    if lam_seg.lin != 0.0:
        raise NotImplementedError("linear multiplier forcing is not supported")
    for term in lam_seg.terms:
        if term.rate == 0.0:
            const += term.coef * (b - a)
            lin += -term.coef
        else:
            boundary = term.coef / term.rate * math.exp(term.rate * (b - term.anchor))
            const += boundary
            terms.append(ExpTerm(-term.coef / term.rate, term.rate, term.anchor))
    return const, lin, terms


def _integral_terms_psi2(lam_seg: ExpSegment, b: float, r: float):
    """Terms of integral over [t, b] of exp(r*(s-t)) * lambda2(s) ds."""
    if lam_seg.lin != 0.0:
        raise NotImplementedError("linear multiplier forcing is not supported")
    terms: list[ExpTerm] = []
    for term in lam_seg.terms:
        if term.rate == -r:
            raise NotImplementedError("resonant forcing (rate == -r)")
        denom = r + term.rate
        if term.rate == 0.0:
            terms.append(ExpTerm(term.coef / denom, -r, b))
            terms.append(ExpTerm(-term.coef / denom, 0.0))
        else:
            amp = term.coef / denom * math.exp(term.rate * (b - term.anchor))
            terms.append(ExpTerm(amp, -r, b))
            terms.append(ExpTerm(-term.coef / denom, term.rate, term.anchor))
    return terms


def _integral_terms_psi3(lam_seg: ExpSegment, b: float, alpha: float):
    """Terms of integral over [t, b] of exp(alpha*(t-s)) * g(s) ds."""
    if lam_seg.lin != 0.0:
        raise NotImplementedError("linear multiplier forcing is not supported")
    terms: list[ExpTerm] = []
    for term in lam_seg.terms:
        if term.rate == alpha:
            raise NotImplementedError("resonant forcing (rate == alpha)")
        if term.rate == 0.0:
            terms.append(ExpTerm(term.coef / alpha, 0.0))
            terms.append(ExpTerm(-term.coef / alpha, alpha, b))
        else:
            denom = term.rate - alpha
            amp = term.coef / denom * math.exp(term.rate * (b - term.anchor))
            terms.append(ExpTerm(amp, alpha, b))
            terms.append(ExpTerm(-term.coef / denom, term.rate, term.anchor))
    return terms


def _restrict(fn: PiecewiseExpFn, a: float, b: float) -> ExpSegment:
    """The single ExpSegment of fn covering [a, b] (no breakpoint inside)."""
    i = bisect.bisect_right(fn._starts, a) - 1
    seg = fn.segments[i]
    if seg.t_end < b - 1e-15:
        raise ValueError("multiplier segment boundary falls inside adjoint step")
    return seg


def adjoint_backward(params: ModelParams, multipliers) -> AdjointTrajectory:
    """Integrate the costate system backward from its terminal conditions.

        dpsi1/dt = -lambda1(t)
        dpsi2/dt = -r*psi2 - lambda2(t)
        dpsi3/dt = alpha*psi3 - lambda3(t) + lambda4(t)

    `multipliers` must expose lambda1..lambda4 (PiecewiseExpFn) and
    mu1..mu4 (floats); each lambda may be piecewise constant or
    piecewise exponential, which keeps the backward solution closed
    form.  The result reproduces the terminal conditions exactly.
    """
    T = multipliers.lambda1.t_final
    cuts = {0.0, T}
    for lam in (
        multipliers.lambda1,
        multipliers.lambda2,
        multipliers.lambda3,
        multipliers.lambda4,
    ):
        cuts.update(b for b in lam.breakpoints if 0.0 <= b <= T)
    grid = sorted(cuts)

    segs1: list[ExpSegment] = []
    segs2: list[ExpSegment] = []
    segs3: list[ExpSegment] = []
    v1 = multipliers.mu1 + 1.0
    v2 = multipliers.mu2 - 1.0
    v3 = multipliers.mu3 - multipliers.mu4

    def pinned(seg: ExpSegment, b: float, target: float) -> ExpSegment:
        # particular-solution terms need not cancel to the last ulp at the
        # right boundary; fold the residual into the constant so the
        # boundary (and hence the terminal) condition holds exactly
        err = seg.value(b) - target
        if err == 0.0:
            return seg
        return ExpSegment(
            seg.t_start, seg.t_end, seg.terms + (ExpTerm(-err, 0.0),), lin=seg.lin
        )

    for a, b in zip(grid[-2::-1], grid[::-1]):
        lam1 = _restrict(multipliers.lambda1, a, b)
        lam2 = _restrict(multipliers.lambda2, a, b)
        lam34 = _combine_forcing(multipliers.lambda3, multipliers.lambda4, a, b)

        const, lin, terms = _integral_terms_psi1(lam1, a, b)
        seg1 = ExpSegment(a, b, (ExpTerm(v1 + const, 0.0), *terms), lin=lin)
        segs1.append(pinned(seg1, b, v1))

        terms2 = [ExpTerm(v2, -params.r, b)]
        terms2.extend(_integral_terms_psi2(lam2, b, params.r))
        segs2.append(pinned(ExpSegment(a, b, tuple(terms2)), b, v2))

        terms3 = [ExpTerm(v3, params.alpha, b)]
        terms3.extend(_integral_terms_psi3(lam34, b, params.alpha))
        segs3.append(pinned(ExpSegment(a, b, tuple(terms3)), b, v3))

        v1 = segs1[-1].value(a)
        v2 = segs2[-1].value(a)
        v3 = segs3[-1].value(a)

    def rebase(segs: list[ExpSegment]) -> PiecewiseExpFn:
        ordered = tuple(reversed(segs))
        if not ordered:
            ordered = (ExpSegment(0.0, T, ()),)
        return PiecewiseExpFn(ordered)

    return AdjointTrajectory(psi1=rebase(segs1), psi2=rebase(segs2), psi3=rebase(segs3))


def _combine_forcing(
    lam3: PiecewiseExpFn, lam4: PiecewiseExpFn, a: float, b: float
) -> ExpSegment:
    """g = lambda3 - lambda4 restricted to [a, b] as one segment."""
    s3 = _restrict(lam3, a, b)
    s4 = _restrict(lam4, a, b)
    terms = list(s3.terms) + [ExpTerm(-t.coef, t.rate, t.anchor) for t in s4.terms]
    return ExpSegment(a, b, tuple(terms))

