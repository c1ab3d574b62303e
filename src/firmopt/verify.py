"""Optimality certification via the maximum principle and brute force.

A candidate policy is certified by exhibiting multipliers
(lambda1..lambda4, mu1..mu4) such that

  * complementary slackness holds: lambda1*N = lambda2*D = lambda3*S =
    lambda4*(S - S_max) = 0 along the trajectory, the terminal products
    mu_i * g_i(X(T)) vanish, and all multipliers are nonnegative;
  * the costates solved backward from the transversality conditions
    make the policy maximize the Hamiltonian pointwise.

The Hamiltonian is linear and separable in the controls,

    H = theta_u*u + theta_v*v + theta_w*w - B*psi1 + r*D*psi2 - alpha*S*psi3
    theta_u = -K*psi1 + A*psi2 + psi3
    theta_v = -psi1 - psi2
    theta_w = p*psi1 - psi3

so each control component must sit at the bound selected by the sign of
its switching value; where a switching value vanishes identically the
component is singular (any admissible value maximizes H) and is flagged
rather than failed.

Every check is exact per segment, not sampled: between breakpoints each
multiplier and switching value has closed-form extrema (dynamics.extrema)
and each state component is monotone.  Each report also carries its
worst margin: the time, check and slack of the point closest to failing.

An independent exhaustive search over gridded bang-bang policies
(brute_force_best) provides the final dominance check: no feasible
candidate may beat the closed-form optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dynamics import (
    AdjointTrajectory,
    ExpTerm,
    PiecewiseExpFn,
    Trajectory,
    adjoint_backward,
    extrema,
    piecewise_from_spans,
)
from .model import (
    ControlSegment,
    ControlValue,
    ModelParams,
    NoFeasibleCandidateError,
    PiecewiseControl,
    ScenarioKind,
    State,
)
from .solver import SwitchingTimes, SynthesisResult, synthesize_policy

#: Default absolute tolerance for certification checks.
CERT_TOL = 1e-9


@dataclass(frozen=True)
class MultiplierSet:
    """Constraint multipliers: four functions of time and four scalars.

    Every lambda is nonnegative and piecewise constant-or-exponential;
    pointwise products with the paired constraint values must vanish
    along the certified trajectory.
    """

    lambda1: PiecewiseExpFn
    lambda2: PiecewiseExpFn
    lambda3: PiecewiseExpFn
    lambda4: PiecewiseExpFn
    mu1: float
    mu2: float
    mu3: float
    mu4: float

    @property
    def mus(self) -> tuple[float, float, float, float]:
        return (self.mu1, self.mu2, self.mu3, self.mu4)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        cuts: set[float] = set()
        for lam in (self.lambda1, self.lambda2, self.lambda3, self.lambda4):
            cuts.update(lam.breakpoints)
        return tuple(sorted(cuts))


@dataclass(frozen=True)
class SwitchingValues:
    theta_u: float
    theta_v: float
    theta_w: float


class CertViolation(NamedTuple):
    time: float
    check: str
    magnitude: float


class SingularSegment(NamedTuple):
    component: str
    t_start: float
    t_end: float


class CertMargin(NamedTuple):
    """Slack of a check inside its tolerance; negative means violated."""

    time: float
    check: str
    margin: float


@dataclass(frozen=True)
class CertReport:
    passed: bool
    violations: tuple[CertViolation, ...] = ()
    singular_segments: tuple[SingularSegment, ...] = ()
    worst_margin: CertMargin | None = None


class _Findings:
    """Every checked slack, and a violation wherever one is negative."""

    def __init__(self) -> None:
        self.margins: list[CertMargin] = []
        self.bad: list[CertViolation] = []

    def note(self, t: float, check: str, slack: float, magnitude: float) -> None:
        self.margins.append(CertMargin(t, check, slack))
        if slack < 0.0:
            self.bad.append(CertViolation(t, check, magnitude))

    def report(self, singular: tuple[SingularSegment, ...] = ()) -> CertReport:
        worst = min(self.margins, key=lambda m: m.margin, default=None)
        return CertReport(not self.bad, tuple(self.bad), singular, worst)


def _switching_weights(params: ModelParams) -> dict[str, tuple[float, float, float]]:
    """theta_c = w1*psi1 + w2*psi2 + w3*psi3 for each control component c."""
    return {
        "u": (-params.K, params.A, 1.0),
        "v": (-1.0, -1.0, 0.0),
        "w": (params.p, 0.0, -1.0),
    }


def switching_from_psi(
    params: ModelParams, psi: tuple[float, float, float]
) -> SwitchingValues:
    psi1, psi2, psi3 = psi
    return SwitchingValues(
        *(
            w1 * psi1 + w2 * psi2 + w3 * psi3
            for w1, w2, w3 in _switching_weights(params).values()
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


def _pieces(T: float, *cut_lists: Sequence[float]) -> list[tuple[float, float]]:
    """Consecutive [a, b] between 0, T and every cut strictly inside."""
    cuts = sorted({0.0, T, *(c for cuts in cut_lists for c in cuts if 0.0 < c < T)})
    return list(zip(cuts[:-1], cuts[1:])) or [(0.0, T)]


def multiplier_set_for_scenario(
    params: ModelParams, kind: ScenarioKind, times: SwitchingTimes
) -> MultiplierSet:
    """The multiplier set certifying a scenario's synthesized policy.

    Writing s for the production start (t_S, absent when the stock
    outlasts the horizon) and m for the debt-clearance time (0 in the
    no-debt scenarios, absent when repayment cannot finish by T):

      lambda2 = r on [m, T], 0 before      (keeps psi2 = -1 after m)
      lambda1 = r*exp(r*(m-t)) on [0, m)   (partial-repayment case only,
                                            keeps psi1 = -psi2 while N = 0)
      lambda3 = 0 while stock remains; alpha*(A+K) once production runs
                debt-free.  On a stretch [s, m) where production runs
                while debt is still outstanding, psi2 = -exp(r*(m-t)) is
                not yet constant and keeping theta_u = 0 requires
                  alpha*K + (alpha+r)*A*exp(r*(m-t))          (v_max regimes)
                  (alpha+r)*(A+K)*exp(r*(m-t))                (partial repayment)
      mu3 = A + K when the stock empties by T, else 0; all other mus 0.

    Anchors fall back to T when the debt persists through the horizon.
    """
    T = params.T
    a_, k_, r_, al = params.A, params.K, params.r, params.alpha
    s = times.t_s if times.t_s_within_horizon else None
    if kind in (ScenarioKind.S1_NO_DEBT_WITH_STOCK, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP):
        m: float | None = 0.0
    else:
        m = times.t_d if times.t_d_within_horizon else None
    anchor = m if m is not None else T

    zero = PiecewiseExpFn.zero(0.0, T)

    if kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
        lam1 = piecewise_from_spans(
            [
                (0.0, anchor, (ExpTerm(r_, -r_, anchor),)),
                (anchor, T, ()),
            ]
        )
    else:
        lam1 = zero

    if m is not None:
        lam2 = piecewise_from_spans([(0.0, m, ()), (m, T, (ExpTerm(r_, 0.0),))])
    else:
        lam2 = zero

    if s is None:
        lam3 = zero
        mu3 = a_ + k_ if times.t_s <= T else 0.0
    else:
        const = ExpTerm(al * (a_ + k_), 0.0)
        spans: list[tuple[float, float, tuple[ExpTerm, ...]]] = [(0.0, s, ())]
        if m is not None and m <= s:
            spans.append((s, T, (const,)))
        else:
            if kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP:
                indebted = (ExpTerm((al + r_) * (a_ + k_), -r_, anchor),)
            else:
                indebted = (
                    ExpTerm(al * k_, 0.0),
                    ExpTerm((al + r_) * a_, -r_, anchor),
                )
            spans.append((s, anchor, indebted))
            if m is not None:
                spans.append((m, T, (const,)))
        lam3 = piecewise_from_spans(spans)
        mu3 = a_ + k_

    return MultiplierSet(
        lambda1=lam1,
        lambda2=lam2,
        lambda3=lam3,
        lambda4=zero,
        mu1=0.0,
        mu2=0.0,
        mu3=mu3,
        mu4=0.0,
    )


def check_slackness(
    mults: MultiplierSet, traj: Trajectory, tol: float = CERT_TOL
) -> CertReport:
    """Verify complementary slackness and multiplier nonnegativity.

    Per piece between multiplier and trajectory breakpoints: each lambda's
    exact minimum must be >= -tol, and as each constraint value g is
    monotone there, sup|lambda| * sup|g| from the piece's ends soundly
    bounds |lambda*g|, which must stay within tol * scale.  Every mu must
    be nonnegative and mu_i * g_i(X(T)) vanish within tol * scale.
    """
    T = traj.t_final
    params = traj.params
    x0 = traj.segments[0].entry
    scale = max(1.0, abs(x0.N), abs(x0.D), abs(x0.S), params.S_max)
    limit = tol * scale
    found = _Findings()
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    for a, b in _pieces(T, mults.breakpoints, traj.breakpoints):
        for i, lam in enumerate(lams):
            lo, t_lo, hi, t_hi = extrema(a, b, (1.0, lam.segment_at(a)))
            found.note(t_lo, f"lambda{i + 1}>=0", lo + tol, -lo)
            lam_sup, t_sup = (hi, t_hi) if hi >= -lo else (-lo, t_lo)
            if lam_sup == 0.0:  # lambda*g = 0: its slack exceeds the one just noted
                continue
            seg = traj.segment_at(a)
            ends = (seg.state_at(params, a), seg.state_at(params, b))
            bound = lam_sup * max(abs((x.N, x.D, x.S, x.S - params.S_max)[i]) for x in ends)
            found.note(t_sup, f"lambda{i + 1}*g{i + 1}=0", limit - bound, bound)
    final = traj.terminal_state()
    gfin = (final.N, final.D, final.S, final.S - params.S_max)
    for i, (mu, g) in enumerate(zip(mults.mus, gfin), start=1):
        found.note(T, f"mu{i}>=0", mu, -mu)
        found.note(T, f"mu{i}*g{i}(T)=0", limit - abs(mu * g), abs(mu * g))
    return found.report()


def check_transversality(
    mults: MultiplierSet, adjoint: AdjointTrajectory
) -> CertReport:
    """psi1(T) = mu1 + 1, psi2(T) = mu2 - 1, psi3(T) = mu3 - mu4, exactly."""
    T = adjoint.psi1.t_final
    want = (mults.mu1 + 1.0, mults.mu2 - 1.0, mults.mu3 - mults.mu4)
    got = adjoint.value_at(T)
    bad = tuple(
        CertViolation(T, f"psi{i}(T)", abs(g - w))
        for i, (g, w) in enumerate(zip(got, want), start=1)
        if g != w
    )
    return CertReport(passed=not bad, violations=bad)


def check_control_maximizes(
    params: ModelParams,
    adjoint: AdjointTrajectory,
    policy: PiecewiseControl,
    tol: float = CERT_TOL,
) -> CertReport:
    """Check the policy against the box argmax of the Hamiltonian.

    Per piece between costate and policy breakpoints, from each switching
    value's exact extrema: a max above theta_tol = tol * max(1, p) demands
    the upper bound, a min below -theta_tol demands zero, and |theta| <=
    theta_tol on the whole piece leaves the component singular (any
    admissible value maximizes H); contiguous singular pieces merge, and
    where theta only touches the band at a breakpoint, that instant is a
    singular segment.  A violation is reported once per piece, at its
    worst time.
    """
    theta_tol = tol * max(1.0, params.p)
    bounds = {"u": params.u_max, "v": params.v_max, "w": params.w_max}
    weights = _switching_weights(params)
    found = _Findings()
    singular: dict[str, list[list[float]]] = {"u": [], "v": [], "w": []}

    def mark_singular(comp: str, t0: float, t1: float) -> None:
        runs = singular[comp]
        if runs and runs[-1][1] == t0:
            runs[-1][1] = t1
        else:
            runs.append([t0, t1])

    T = policy.horizon
    for a, b in _pieces(T, adjoint.breakpoints, policy.breakpoints):
        segs = [psi.segment_at(a) for psi in (adjoint.psi1, adjoint.psi2, adjoint.psi3)]
        control = policy.value_at(a)
        for comp, bound in bounds.items():
            parts = [(w, seg) for w, seg in zip(weights[comp], segs) if w != 0.0]
            lo, t_lo, hi, t_hi = extrema(a, b, *parts)
            if -theta_tol <= lo and hi <= theta_tol:
                mark_singular(comp, a, b)
                continue
            if lo <= theta_tol and hi >= -theta_tol:
                for t in (a, b) if b == T else (a,):
                    if abs(sum(w * seg.value(t) for w, seg in parts)) <= theta_tol:
                        mark_singular(comp, t, t)
            actual = getattr(control, comp)
            ctol = 1e-9 * max(1.0, bound)
            # theta above theta_tol demands the bound, below -theta_tol zero
            if abs(actual - bound) > ctol:
                found.note(t_hi, "argmax_" + comp, theta_tol - hi, abs(actual - bound))
            if abs(actual) > ctol:
                found.note(t_lo, "argmax_" + comp, lo + theta_tol, abs(actual))
    segs = tuple(
        SingularSegment(comp, run[0], run[1])
        for comp in ("u", "v", "w")
        for run in singular[comp]
    )
    return found.report(segs)


# ---------------------------------------------------------------------------
# Exhaustive bang-bang search (independent optimality oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceGrid:
    """Search space: switch times on a uniform n_t-interval grid, control
    levels per component (defaults: the box bounds plus the operating
    values 0/w_max/u_max, 0/A*w_max/v_max, 0/w_max)."""

    n_t: int = 200
    u_levels: tuple[float, ...] | None = None
    v_levels: tuple[float, ...] | None = None
    w_levels: tuple[float, ...] | None = None

    def levels(self, params: ModelParams) -> tuple[tuple[float, ...], ...]:
        u = self.u_levels or tuple(sorted({0.0, params.w_max, params.u_max}))
        v = self.v_levels or tuple(
            sorted({0.0, params.A * params.w_max, params.v_max})
        )
        w = self.w_levels or tuple(sorted({0.0, params.w_max}))
        return (u, v, w)


def _policy_from_candidate(
    T: float,
    t_a: float,
    t_b: float,
    levels: tuple[tuple[float, float, float], ...],
) -> PiecewiseControl:
    useq, vseq, wseq = levels
    cuts = [t for t in (t_a, t_b) if 0.0 < t < T]
    segs = []
    bounds = [0.0, *dict.fromkeys(cuts), T]
    # map each surviving interval to its level slot (degenerate ones skipped)
    slots = []
    raw_bounds = [0.0, t_a, t_b, T]
    for i in range(3):
        if raw_bounds[i + 1] > raw_bounds[i]:
            slots.append(i)
    for (a, b), slot in zip(zip(bounds[:-1], bounds[1:]), slots):
        segs.append(ControlSegment(a, b, ControlValue(useq[slot], vseq[slot], wseq[slot])))
    return PiecewiseControl(tuple(segs)).merged()


def _candidate_key(policy: PiecewiseControl) -> tuple:
    """Deterministic tie-break key: earliest first switch, then levels."""
    bp = policy.breakpoints
    first = bp[0] if bp else math.inf
    flat = tuple(
        (seg.t_start, seg.value.u, seg.value.v, seg.value.w)
        for seg in policy.segments
    )
    return (first, flat)


def brute_force_best(
    params: ModelParams,
    init: State,
    grid: BruteForceGrid = BruteForceGrid(),
) -> tuple[PiecewiseControl, float]:
    """Exhaustively search gridded bang-bang policies for the best value.

    Candidates are piecewise-constant on at most three intervals whose
    two cut times range over the uniform grid k*T/n_t (k = 1..n_t-1,
    coincident cuts giving single-switch and constant policies), with
    each component drawing its per-interval level from its level list.
    Every optimal policy shape of this model (at most two switching
    times shared across components) lies in this class.

    Trajectories violating a state constraint are discarded.  Exact
    segment propagation, vectorized over candidates; evaluation order is
    deterministic and exact objective ties are broken by earliest first
    switch, then lexicographic levels.  Raises NoFeasibleCandidateError
    when nothing feasible exists.
    """
    import numpy as np  # only the search needs it; keeps `import firmopt` light

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
    M = U.shape[0]

    p, r, A, al, K, B = params.p, params.r, params.A, params.alpha, params.K, params.B
    slopes = p * W - V - K * U - B  # (M, 3)
    cin = A * U - V
    qin = U - W
    ftol = 1e-9 * max(1.0, init.N, init.D, init.S, params.S_max)
    s_hi = params.S_max + ftol

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
        ok1 = (N1 >= -ftol) & (D1 >= -ftol) & (S1 >= -ftol) & (S1 <= s_hi)
        tb = cut_times[i:]
        d2 = (tb - t_a)[:, None]
        d3 = (T - tb)[:, None]
        N2, D2, S2 = propagate(N1[None, :], D1[None, :], S1[None, :], d2, 1)
        N3, D3, S3 = propagate(N2, D2, S2, d3, 2)
        feasible = (
            ok1[None, :]
            & (N2 >= -ftol) & (D2 >= -ftol) & (S2 >= -ftol) & (S2 <= s_hi)
            & (N3 >= -ftol) & (D3 >= -ftol) & (S3 >= -ftol) & (S3 <= s_hi)
        )
        value = np.where(feasible, N3 - D3, -np.inf)
        chunk_best = value.max()
        if chunk_best == -math.inf or chunk_best < best_value:
            continue
        rows, cols = np.nonzero(value == chunk_best)
        for j_idx, m_idx in zip(rows.tolist(), cols.tolist()):
            levels = (
                tuple(U[m_idx]),
                tuple(V[m_idx]),
                tuple(W[m_idx]),
            )
            policy = _policy_from_candidate(T, float(t_a), float(tb[j_idx]), levels)
            key = _candidate_key(policy)
            if chunk_best > best_value or best_key is None or key < best_key:
                best_value = float(chunk_best)
                best_key = key
                best_policy = policy
    if best_policy is None:
        raise NoFeasibleCandidateError(
            "no feasible piecewise-constant candidate on the search grid"
        )
    return best_policy, best_value


# ---------------------------------------------------------------------------
# One-call certification bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certification:
    slackness: CertReport
    transversality: CertReport
    hamiltonian_argmax: CertReport
    multipliers_nonnegative: bool
    synthesis: SynthesisResult

    @property
    def passed(self) -> bool:
        return (
            self.slackness.passed
            and self.transversality.passed
            and self.hamiltonian_argmax.passed
            and self.multipliers_nonnegative
        )


def certify_policy(
    params: ModelParams,
    init: State,
    kind: ScenarioKind,
    tol: float = CERT_TOL,
) -> Certification:
    """Run the full maximum-principle certification for a scenario."""
    synth = synthesize_policy(params, init, kind)
    mults = multiplier_set_for_scenario(params, kind, synth.times)
    adjoint = adjoint_backward(params, mults)
    nonneg = all(
        extrema(seg.t_start, seg.t_end, (1.0, seg))[0] >= 0.0
        for lam in (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
        for seg in lam.segments
    ) and all(mu >= 0.0 for mu in mults.mus)
    return Certification(
        slackness=check_slackness(mults, synth.trajectory, tol),
        transversality=check_transversality(mults, adjoint),
        hamiltonian_argmax=check_control_maximizes(params, adjoint, synth.policy, tol),
        multipliers_nonnegative=nonneg,
        synthesis=synth,
    )
