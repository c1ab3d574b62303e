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

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Sequence

from .model import (
    ControlValue,
    JumpRecord,
    ModelParams,
    Piecewise,
    PiecewiseControl,
    PolicyInfeasibleError,
    State,
)

#: A state within this fraction of its component's scale (Tolerance) of a bound is
#: on it: some 1e7 ulps, room for the rounding t_S and t_D carry, which the
#: states inherit at their rates, above the few ulps each closed-form sum adds.
ZERO_SNAP_RTOL = 1e-9


class Tolerance(NamedTuple):
    """The one owner of "close enough": a scale each for cash (N), debt (D)
    and stock (S), built once per solve from the params and start state.

    Rounding moves a sum by a few ulps of its terms' magnitudes (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 2-3), so each
    scale bounds the terms its component's closed form sums, at the box's
    worst rates.  N sums |N0| + (p*w_max + v_max + K*u_max + B)*T.  D sums
    |D0|*exp(r*t) and |c|*expm1(r*t)/r, which cancel wherever D is zero; a
    clearance taking n interest times 1/r moves by exp(n) ulps, so the
    scale takes them over at most one (where expm1 reaches 1):
    |D0| + (A*u_max + v_max)*min(expm1(r*T), 1)/r, finite for any r*T,
    and ZERO_SNAP_RTOL's 1e7 ulps cover clearances up to r*t_D ~ 10.  A
    feasible S and both its terms lie in [0, S_max].  No absolute floor,
    and every term a product or quotient of model numbers: scaling money,
    stock or time by a power of 2 scales each scale exactly.
    """

    cash: float
    debt: float
    stock: float

    @classmethod
    def of(cls, params: ModelParams, start: State) -> "Tolerance":
        P = params
        cash = abs(start.N) + (P.p * P.w_max + P.v_max + P.K * P.u_max + P.B) * P.T
        debt_time = min(math.expm1(P.r * P.T), 1.0) / P.r
        return cls(cash, abs(start.D) + (P.A * P.u_max + P.v_max) * debt_time, P.S_max)

    @property
    def state(self) -> State:
        """The absolute tolerance of N, D and S: ZERO_SNAP_RTOL of their scales."""
        return State(ZERO_SNAP_RTOL * self[0], ZERO_SNAP_RTOL * self[1], ZERO_SNAP_RTOL * self[2])


class Violation(NamedTuple):
    """A state-constraint breach: when it starts, which bound, how deep."""

    time: float
    constraint: str
    magnitude: float


def _rates(params: ModelParams, control: ControlValue) -> tuple[float, float, float]:
    """The closed form's N slope p*w - v - K*u - B, c and q under `control`."""
    return (
        params.p * control.w - control.v - params.K * control.u - params.B,
        params.A * control.u - control.v,
        control.u - control.w,
    )


@dataclass(frozen=True)
class Trajectory(Piecewise):
    """Piecewise closed-form evolution of (N, D, S) over [0, T].

    sample() is right-continuous; discontinuities (instantaneous debt
    repayments) are recorded in `jumps`, the pre-jump state being the
    JumpRecord's post state less its delta in N and D.  At a chain
    junction that is the next interval's snapped entry, not the previous
    segment's exit: a residual such as N = -3.2e-15 there reads 0.

    Each segment is one row, (t_start, t_end, exit, N, slope, D, c, S, q,
    control): its span, its snapped exit, its entry state (N, D, S), each
    component beside its closed-form rate (see _rates), and its control.
    This module alone knows the layout: integrate_exact writes the rows,
    joined shifts them, and sample and walk read them.  A D or S entering
    at +0.0 at a zero rate is held, its rate None: the closed form adds it
    a zero, as exp(r*dt) is finite (validate_params bounds r*T), and +0.0
    plus any zero is +0.0.
    """

    params: ModelParams
    segments: tuple[tuple, ...]
    #: the scales its states are judged on: within tol.state of a bound is feasible
    tol: Tolerance = field(repr=False, compare=False)
    jumps: tuple[JumpRecord, ...] = ()
    #: each bound a segment breaks by more than tol.state, by (time, constraint)
    feasibility_report: tuple[Violation, ...] = field(init=False)

    def __post_init__(self) -> None:  # frozen: the derived fields go in __dict__
        starts, violations = [], []
        state_tol = self.tol.state
        for row in self.segments:
            starts.append(row[0])
            violations += _segment_violations(self.params, row, state_tol)
        if len(violations) > 1:
            violations.sort(key=lambda v: (v.time, v.constraint))
        self.__dict__.update(_starts=tuple(starts), _r=self.params.r, _alpha=self.params.alpha,
                             _T=self.segments[-1][1], feasibility_report=tuple(violations))

    @classmethod
    def joined(cls, params: ModelParams,
               parts: Sequence[tuple[float, float, "Trajectory"]]) -> "Trajectory":
        """The (t_start, t_end, trajectory) parts, each on its own clock from 0,
        laid end to end: rows and jumps shifted by t_start, each part's last
        row ending exactly at t_end (t_start plus the local T can miss it by an
        ulp).  Judged by the tolerance of the first part's start."""
        rows, jumps = [], []
        for t0, t1, traj in parts:
            for j in traj.jumps:
                jumps.append(replace(j, t=j.t + t0))
            *body, last = traj.segments
            rows += [(row[0] + t0, row[1] + t0) + row[2:] for row in body]
            rows.append((last[0] + t0, t1) + last[2:])
        return cls(params, tuple(rows), Tolerance.of(params, parts[0][2].start), tuple(jumps))

    @property
    def t_final(self) -> float:
        return self._T

    @property
    def start(self) -> State:
        """The first segment's entry: the initial state, after any jump at t = 0."""
        return tuple.__new__(State, self.segments[0][3:8:2])

    @property
    def feasible(self) -> bool:
        return not self.feasibility_report

    def sample(self, t: float) -> State:
        """The state at t: the closed form from its segment's row, or that
        segment's snapped exit at its end (t = T); a held D or S is its entry."""
        if not 0.0 <= t <= self._T:
            raise ValueError(f"t = {t} outside [0, {self._T}]")
        t0, t1, x, N, slope, D, c, S, q, _ = self.segments[bisect_right(self._starts, t) - 1]
        if t == t1:
            return x
        dt = t - t0
        if c is not None:
            r = self._r
            D = D * math.exp(r * dt) + c * math.expm1(r * dt) / r
        if q is not None:
            alpha = self._alpha
            S = S * math.exp(-alpha * dt) - q * math.expm1(-alpha * dt) / alpha
        return tuple.__new__(State, (N + slope * dt, D, S))

    def walk(self, times: Sequence[float]) -> Iterator[tuple]:
        """(control, its times, N, D, S) per segment the ascending `times`
        reach: sample(t)'s values as columns, bit for bit, from the segment's
        row, the times at its end reading its snapped exit; a held D or S is None."""
        if times and not (0.0 <= times[0] and times[-1] <= self._T):
            raise ValueError(f"times outside [0, {self._T}]")
        r, alpha, exp, expm1 = self._r, self._alpha, math.exp, math.expm1
        i = 0
        for row, switch in zip(self.segments, self._starts[1:] + (math.inf,)):
            j = bisect_left(times, switch, i)
            if i < j:
                t0, t1, x, N, slope, D, c, S, q, control = row
                end = bisect_left(times, t1, i, j)  # the times from `end` read x
                dts, k = [t - t0 for t in times[i:end]], j - end
                Ns, Ds, Ss = [N + slope * dt for dt in dts] + [x.N] * k, None, None
                if c is not None:
                    Ds = [D * exp(r * dt) + c * expm1(r * dt) / r for dt in dts] + [x.D] * k
                if q is not None:
                    Ss = [S * exp(-alpha * dt) - q * expm1(-alpha * dt) / alpha for dt in dts]
                    Ss += [x.S] * k
                yield control, times[i:j], Ns, Ds, Ss
            i = j

    def terminal_state(self) -> State:
        return self.segments[-1][2]

    def objective(self) -> float:
        final = self.terminal_state()
        return final.N - final.D


def _segment_violations(params: ModelParams, row: tuple, tol: State) -> list[Violation]:
    """Each bound the segment of `row` breaks by more than its component's
    tol, from where it starts.

    On the segment each component is x0 + (x1 - x0)*expm1(k*tau)/expm1(k*dt)
    (x0 + (x1 - x0)*tau/dt when k = 0), with k = 0, r and -alpha for N, D
    and S.  The excess over a bound, e0 at entry and e1 at exit, therefore
    crosses 0 where expm1(k*tau) = g = f*expm1(k*dt), f = e0/(e0 - e1);
    near g = -1 the equal form 1 + g = (e1 - e0*exp(k*dt))/(e1 - e0)
    avoids cancellation.  A breach already at entry starts at t_start.
    """
    t_start, t_end, (N1, D1, S1), N0, _, D0, _, S0, _, _ = row
    n_tol, d_tol, s_tol = tol
    if (-n_tol <= N0 and -n_tol <= N1 and -d_tol <= D0 and -d_tol <= D1 and -s_tol <= S0
            and -s_tol <= S1 and S0 - params.S_max <= s_tol and S1 - params.S_max <= s_tol):
        return []  # both ends inside every bound (false for NaN, which takes the scan)
    out: list[Violation] = []
    dt = t_end - t_start
    rows = (
        (0.0, 0.0 - N0, 0.0 - N1, tol.N, "N>=0"),
        (params.r, 0.0 - D0, 0.0 - D1, tol.D, "D>=0"),
        (-params.alpha, 0.0 - S0, 0.0 - S1, tol.S, "S>=0"),
        (-params.alpha, S0 - params.S_max, S1 - params.S_max, tol.S, "S<=S_max"),
    )
    for k, e0, e1, bound_tol, label in rows:
        worst = max(e0, e1)
        if worst <= bound_tol:
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
        out.append(Violation(t_start + min(tau, dt), label, worst))
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
    depletion, debt clearance).  At the segment end equal to such a time,
    float for float, the residual left by floating-point evaluation is
    snapped to +0.0 provided it is within that component's tolerance,
    Tolerance.of(params, start).state with start the post-jump state; a
    larger residual means the caller's construction was wrong and raises
    AssertionError, unless a D residual is within 8 ulps of D1*exp(r*dt),
    the terms that cancel at D's zero (1-2 seen at r*dt = 26..30): a
    clearance too ill-conditioned to place raises PolicyInfeasibleError.

    The trajectory keeps the Tolerance as `tol` and is judged by it: each
    bound broken by more than its component's tolerance is reported, never
    raised.
    """
    policy.check_bounds(params)
    state = jump.post_state if jump is not None else init
    tol = Tolerance.of(params, state)
    state_tol = tol.state
    r, alpha = params.r, params.alpha
    rows = []
    for seg in policy.segments:
        (N, D, S), (slope, c, q) = state, _rates(params, seg.value)  # entry and rates
        dt = seg.t_end - seg.t_start
        grown = D * math.exp(r * dt)  # the term that cancels c's where D clears
        state = tuple.__new__(State, (  # the closed form, as sample evaluates it
            N + slope * dt,
            grown + c * math.expm1(r * dt) / r,
            S * math.exp(-alpha * dt) - q * math.expm1(-alpha * dt) / alpha,
        ))
        comps = [comp for t, comp in expected_zeros if t == seg.t_end]
        for comp, comp_tol in zip(("N", "D", "S"), state_tol) if comps else ():
            if comp in comps:
                residual = getattr(state, comp)
                if comp == "D" and comp_tol < abs(residual) <= 8.0 * math.ulp(grown):
                    raise PolicyInfeasibleError(f"debt clearance at t = {seg.t_end} is "
                                                f"ill-conditioned: D = {residual} there")
                if abs(residual) > comp_tol:
                    raise AssertionError(f"{comp}({seg.t_end}) = {residual} expected zero")
                state = state._replace(**{comp: 0.0})
        rows.append((seg.t_start, seg.t_end, state, N, slope,
                     D, None if D == c == 0.0 < math.copysign(1.0, D) else c,
                     S, None if S == q == 0.0 < math.copysign(1.0, S) else q, seg.value))
    jumps = (jump,) if jump is not None else ()
    return Trajectory(params=params, segments=tuple(rows), tol=tol, jumps=jumps)


# ---------------------------------------------------------------------------
# Piecewise exponential functions and the adjoint system
# ---------------------------------------------------------------------------


class ExpTerm(NamedTuple):
    """coef * exp(rate * (t - anchor)); rate 0 encodes a constant (a value record)."""

    coef: float
    rate: float
    anchor: float = 0.0

    def value(self, t: float) -> float:
        if self.rate == 0.0:
            return self.coef
        return self.coef * math.exp(self.rate * (t - self.anchor))


class ExpSegment(NamedTuple):
    """The sum of `terms` on [t_start, t_end]; a value record like ExpTerm."""

    t_start: float
    t_end: float
    terms: tuple[ExpTerm, ...] = ()

    def value(self, t: float) -> float:
        out = 0.0
        for term in self.terms:
            out += term.value(t)
        return out


def _pieces(T: float, *fns: Piecewise) -> list[tuple[float, float]]:
    """Consecutive [a, b] between 0, T and every breakpoint of `fns` strictly
    inside: the common refinement on which each of them is one segment."""
    cuts = sorted({0.0, T, *(c for fn in fns for c in fn.breakpoints if 0.0 < c < T)})
    return list(zip(cuts[:-1], cuts[1:])) or [(0.0, T)]


def extrema(
    a: float, b: float, *parts: tuple[float, ExpSegment]
) -> tuple[float, float, float, float]:
    """(min, t_min, max, t_max) of sum(weight * seg(t)) over [a, b].

    Equal rates merge into f(tau) = c + sum_k a_k*exp(k*tau), tau = t - a.
    With at most two nonzero rates f' has at most one zero, in closed
    form, so the endpoints and that point decide both extrema exactly.
    Three rates raise NotImplementedError.
    """
    const = 0.0
    amps: dict[float, float] = {}
    for weight, seg in parts:
        for term in seg.terms:
            if term.rate == 0.0:
                const += weight * term.coef
            else:
                amp = weight * term.coef * math.exp(term.rate * (a - term.anchor))
                amps[term.rate] = amps.get(term.rate, 0.0) + amp
    live = [(k, c) for k, c in amps.items() if c != 0.0]
    if len(live) > 2:
        raise NotImplementedError("extrema need at most two rates")
    if not live:  # min and max over [(const, a), (const, b)] keep a unless b passes it
        return const, b if b < a else a, const, b if b > a else a
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
        value = const
        for k, c in live:
            value += c * math.exp(k * (t - a))
        values.append((value, t))
    (lo, t_lo), (hi, t_hi) = min(values), max(values)
    return lo, t_lo, hi, t_hi


@dataclass(frozen=True)
class PiecewiseExpFn(Piecewise):
    """Piecewise sum-of-exponentials function of time on [0, T].

    Right-continuous at interior breakpoints; covers the multiplier and
    costate shapes arising here (constants plus exp(rate*(t - anchor))).
    """

    segments: tuple[ExpSegment, ...]

    @classmethod
    def constant(cls, value: float, t0: float, t1: float) -> "PiecewiseExpFn":
        return cls((ExpSegment(t0, t1, (ExpTerm(value, 0.0),)),))

    def value(self, t: float) -> float:
        if not self.segments[0].t_start <= t <= self.t_final:
            raise ValueError(f"t = {t} outside function domain")
        return self.segment_at(t).value(t)


def piecewise_from_spans(
    spans: Sequence[tuple[float, float, tuple[ExpTerm, ...]]]
) -> PiecewiseExpFn:
    """Build a PiecewiseExpFn from (t0, t1, terms) spans, skipping empties
    and merging neighbours with equal terms (each term is anchored in
    absolute time, so a merged segment has the same values)."""
    segs: list[ExpSegment] = []
    for a, b, terms in spans:
        if not b > a:
            continue
        if segs and segs[-1].terms == terms:
            segs[-1] = ExpSegment(segs[-1].t_start, b, terms)
        else:
            segs.append(ExpSegment(a, b, terms))
    if not segs:
        a = spans[0][0] if spans else 0.0
        segs.append(ExpSegment(a, a, ()))
    return PiecewiseExpFn(tuple(segs))


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


def _costate_step(
    k: float, a: float, b: float, psi_b: float, *forcing: tuple[float, ExpSegment]
) -> ExpSegment:
    """psi on [a, b] solving psi' = k*psi - f backward from psi(b).

    f = sum(weight * seg), every term c*exp(rho*(s - anchor)) of which
    contributes, for rho != k,

        c/(rho - k) * (exp(rho*(b - anchor))*exp(k*(t - b)) - exp(rho*(t - anchor)))

    and the boundary parts merge with psi(b) into one exp(k*(t - b)) term.
    A nonzero resonant term (rho == k) raises NotImplementedError.
    """
    boundary = psi_b
    terms: list[ExpTerm] = []
    for weight, seg in forcing:
        for term in seg.terms:
            c = weight * term.coef
            if c == 0.0:
                continue
            if term.rate == k:
                raise NotImplementedError(f"resonant forcing (rate == {k})")
            amp = c / (term.rate - k)
            boundary += amp * math.exp(term.rate * (b - term.anchor))
            terms.append(ExpTerm(-amp, term.rate, term.anchor))
    seg = ExpSegment(a, b, (ExpTerm(boundary, k, b), *terms))
    # the particular terms need not cancel to the last ulp at b; fold the
    # residual into a constant so psi(b), hence psi(T), holds exactly
    err = seg.value(b) - psi_b
    if err == 0.0:
        return seg
    return ExpSegment(a, b, seg.terms + (ExpTerm(-err, 0.0),))


def adjoint_backward(params: ModelParams, multipliers) -> AdjointTrajectory:
    """Integrate the costate system backward from its terminal conditions.

        dpsi1/dt = -lambda1(t)
        dpsi2/dt = -r*psi2 - lambda2(t)
        dpsi3/dt = alpha*psi3 - lambda3(t) + lambda4(t)

    `multipliers` must expose lambda1..lambda4 (PiecewiseExpFn) and
    mu1..mu4 (floats); each lambda may be piecewise exponential (a
    constant lambda1 is resonant and raises NotImplementedError), which
    keeps the backward solution closed form.  The result reproduces the
    terminal conditions exactly.
    """
    m = multipliers
    lams = (m.lambda1, m.lambda2, m.lambda3, m.lambda4)
    psi = [m.mu1 + 1.0, m.mu2 - 1.0, m.mu3 - m.mu4]
    rates = (0.0, -params.r, params.alpha)
    segs: tuple[list[ExpSegment], ...] = ([], [], [])
    for a, b in reversed(_pieces(m.lambda1.t_final, *lams)):
        lam1, lam2, lam3, lam4 = (lam.segment_at(a) for lam in lams)
        forcing = (((1.0, lam1),), ((1.0, lam2),), ((1.0, lam3), (-1.0, lam4)))
        for i, (k, parts) in enumerate(zip(rates, forcing)):
            seg = _costate_step(k, a, b, psi[i], *parts)
            segs[i].append(seg)
            psi[i] = seg.value(a)
    psi1, psi2, psi3 = (PiecewiseExpFn(tuple(reversed(s))) for s in segs)
    return AdjointTrajectory(psi1=psi1, psi2=psi2, psi3=psi3)
