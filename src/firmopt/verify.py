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

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import (
    ZERO_SNAP_RTOL,
    AdjointTrajectory,
    ExpTerm,
    PiecewiseExpFn,
    Trajectory,
    _pieces,
    _state_scale,
    adjoint_backward,
    extrema,
    piecewise_from_spans,
)
from .model import (
    ControlBoundsError,
    ControlSegment,
    ControlValue,
    ModelParams,
    NoFeasibleCandidateError,
    PiecewiseControl,
    ScenarioKind,
    State,
)
from .solver import SwitchingTimes, SynthesisResult, synthesize_policy

#: Absolute tolerance for certification checks.
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
    #: least multiplier value seen (slackness only), for the sign check
    lambda_min: float | None = None


class _Findings:
    """The least slack noted, kept until a strictly smaller one (as min() keeps
    the first of equals, or a NaN), and a violation wherever one is negative."""

    def __init__(self) -> None:
        self.worst: CertMargin | None = None
        self.bad: list[CertViolation] = []

    def note(self, t: float, check: str, slack: float, magnitude: float) -> None:
        if self.worst is None or slack < self.worst.margin:
            self.worst = CertMargin(t, check, slack)
        if slack < 0.0:
            self.bad.append(CertViolation(t, check, magnitude))

    def report(
        self,
        singular: tuple[SingularSegment, ...] = (),
        lambda_min: float | None = None,
    ) -> CertReport:
        return CertReport(not self.bad, tuple(self.bad), singular, self.worst, lambda_min)


#: check labels, built once: per constraint i = 1..4, and per control
_LAMBDA_SIGN, _LAMBDA_G, _MU_SIGN, _MU_G = zip(
    *((f"lambda{i}>=0", f"lambda{i}*g{i}=0", f"mu{i}>=0", f"mu{i}*g{i}(T)=0") for i in range(1, 5))
)
_ARGMAX = {comp: "argmax_" + comp for comp in "uvw"}


def _switching_weights(params: ModelParams) -> dict[str, tuple[float, float, float]]:
    """theta_c = w1*psi1 + w2*psi2 + w3*psi3 for each control component c."""
    return {
        "u": (-params.K, params.A, 1.0),
        "v": (-1.0, -1.0, 0.0),
        "w": (params.p, 0.0, -1.0),
    }


def multiplier_set_for_scenario(
    params: ModelParams, kind: ScenarioKind, times: SwitchingTimes
) -> MultiplierSet:
    """The multiplier set certifying a scenario's synthesized policy.

    Built phase by phase on the policy's own pieces (times.phases):
    production runs from t_S, the debt is cleared from t_D (0 in the
    no-debt scenarios), and `anchor` is t_D, or T when repayment cannot
    finish by then.  A2 alone keeps the cash bound N >= 0 binding until
    t_D, since all its sales profit goes to the debt.

      lambda2 = r once cleared, 0 before   (keeps psi2 = -1 from t_D)
      lambda1 = r*exp(r*(anchor - t)) before t_D in A2, else 0
                                           (keeps psi1 = -psi2 while N = 0)
      lambda3 = 0 while stock remains; alpha*(A+K) once production runs
                debt-free.  Where production runs while debt is still
                outstanding, psi2 = -exp(r*(anchor - t)) is not yet
                constant and keeping theta_u = 0 requires
                  alpha*K + (alpha+r)*A*exp(r*(anchor-t))     (v_max regimes)
                  (alpha+r)*(A+K)*exp(r*(anchor-t))           (A2)
      mu3 = A + K when the stock empties by T, else 0; lambda4 and all
      other mus are 0.
    """
    T = params.T
    a_, k_, r_, al = params.A, params.K, params.r, params.alpha
    cash_bound = kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
    anchor = (times.t_d or 0.0) if times.t_d_within_horizon else T
    binding = (ExpTerm(r_, -r_, anchor),) if cash_bound else ()
    clear = (ExpTerm(r_, 0.0),)
    paid_off = (ExpTerm(al * (a_ + k_), 0.0),)
    if cash_bound:
        indebted = (ExpTerm((al + r_) * (a_ + k_), -r_, anchor),)
    else:
        indebted = (ExpTerm(al * k_, 0.0), ExpTerm((al + r_) * a_, -r_, anchor))
    spans = ([], [], [])
    for a, b, producing, cleared in times.phases(T):
        spans[0].append((a, b, () if cleared else binding))
        spans[1].append((a, b, clear if cleared else ()))
        spans[2].append((a, b, (paid_off if cleared else indebted) if producing else ()))
    lam1, lam2, lam3 = (piecewise_from_spans(s) for s in spans)
    mu3 = a_ + k_ if times.t_s <= T else 0.0
    zero = PiecewiseExpFn.zero(0.0, T)
    return MultiplierSet(lam1, lam2, lam3, zero, 0.0, 0.0, mu3, 0.0)


def check_slackness(mults: MultiplierSet, traj: Trajectory) -> CertReport:
    """Verify complementary slackness and multiplier nonnegativity.

    Per piece between multiplier and trajectory breakpoints: each lambda's
    exact minimum must be >= -CERT_TOL, and as each constraint value g is
    monotone there, sup|lambda| * sup|g| from the piece's ends soundly
    bounds |lambda*g|, which must stay within CERT_TOL * scale.  Every mu
    must be nonnegative and mu_i * g_i(X(T)) vanish within CERT_TOL *
    scale.  The least lambda value over all pieces is reported as
    `lambda_min`.
    """
    T = traj.t_final
    params = traj.params
    limit = CERT_TOL * _state_scale(traj.segments[0].entry, params)
    found = _Findings()
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    lambda_min = math.inf
    pieces = _pieces(T, mults.breakpoints, traj.breakpoints)
    # |g| at the piece ends, in one walk: a segment start reads its entry at dt = 0
    ends = traj.walk([0.0] + [b for _, b in pieces])
    g_ends = [(abs(N), abs(D), abs(S), abs(S - params.S_max)) for _, N, D, S in ends]
    for (a, b), g_a, g_b in zip(pieces, g_ends, g_ends[1:]):
        for i, lam in enumerate(lams):
            lo, t_lo, hi, t_hi = extrema(a, b, (1.0, lam.segment_at(a)))
            lambda_min = min(lambda_min, lo)
            found.note(t_lo, _LAMBDA_SIGN[i], lo + CERT_TOL, -lo)
            lam_sup, t_sup = (hi, t_hi) if hi >= -lo else (-lo, t_lo)
            if lam_sup == 0.0:  # lambda*g = 0: its slack exceeds the one just noted
                continue
            bound = lam_sup * max(g_a[i], g_b[i])
            found.note(t_sup, _LAMBDA_G[i], limit - bound, bound)
    final = traj.terminal_state()
    gfin = (final.N, final.D, final.S, final.S - params.S_max)
    for mu, g, sign, product in zip(mults.mus, gfin, _MU_SIGN, _MU_G):
        found.note(T, sign, mu, -mu)
        found.note(T, product, limit - abs(mu * g), abs(mu * g))
    return found.report(lambda_min=lambda_min)


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
) -> CertReport:
    """Check the policy against the box argmax of the Hamiltonian.

    Per piece between costate and policy breakpoints, from each switching
    value's exact extrema: a max above theta_tol = CERT_TOL * max(1, p)
    demands the upper bound, a min below -theta_tol demands zero, and
    |theta| <= theta_tol on the whole piece leaves the component singular
    (any admissible value maximizes H); contiguous singular pieces merge, and
    where theta only touches the band at a breakpoint, that instant is a
    singular segment.  A violation is reported once per piece, at its
    worst time.
    """
    theta_tol = CERT_TOL * max(1.0, params.p)
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

    T = policy.t_final
    for a, b in _pieces(T, adjoint.breakpoints, policy.breakpoints):
        segs = [psi.segment_at(a) for psi in (adjoint.psi1, adjoint.psi2, adjoint.psi3)]
        control = policy.segment_at(a).value
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
                found.note(t_hi, _ARGMAX[comp], theta_tol - hi, abs(actual - bound))
            if abs(actual) > ctol:
                found.note(t_lo, _ARGMAX[comp], lo + theta_tol, abs(actual))
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
        """(u, v, w); ControlBoundsError names a level outside its box [0, bound]."""
        u = self.u_levels or tuple(sorted({0.0, params.w_max, params.u_max}))
        v = self.v_levels or tuple(
            sorted({0.0, params.A * params.w_max, params.v_max})
        )
        w = self.w_levels or tuple(sorted({0.0, params.w_max}))
        bounds = (params.u_max, params.v_max, params.w_max)
        for comp, levels, bound in zip("uvw", (u, v, w), bounds):
            for level in levels:
                if not 0.0 <= level <= bound:
                    raise ControlBoundsError(f"{comp}: level {level} outside [0, {bound}]")
        return (u, v, w)


def _policy_from_candidate(
    T: float,
    t_a: float,
    t_b: float,
    levels: tuple[tuple[float, float, float], ...],
) -> PiecewiseControl:
    bounds = (0.0, t_a, t_b, T)
    segs = tuple(
        ControlSegment(a, b, ControlValue(u, v, w))
        for a, b, u, v, w in zip(bounds, bounds[1:], *levels)
        if b > a
    )
    return PiecewiseControl(segs).merged()


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

    The search is factorized by prefix.  For each t_a, segment 1 is
    propagated once per level triple (L = |u|*|v|*|w| of them, 18 by
    default), segment 2 once per feasible first triple, middle triple
    and t_b, and segment 3 once per feasible two-segment prefix and last
    triple; a prefix that leaves the state constraints is dropped before
    it widens.  At t_b = t_a the middle interval has zero length, so its
    triples give one policy and only the first is evaluated.  Each
    candidate still sees the same floating-point operations as when all
    L**3 sequences were broadcast over every cut pair (the same
    durations t_a, t_b - t_a and T - t_b, the same exact segment step,
    the same feasibility tolerances), so every value, and the policy
    picked, is the same bit for bit.

    Trajectories violating a state constraint are discarded.  Each bound
    is judged to ZERO_SNAP_RTOL times its own component's scale:
    max(1, |N0|) for N, max(1, |D0|) for D and max(1, S_max) for S.
    Evaluation is deterministic and exact objective ties are broken by
    earliest first switch, then lexicographic levels.  Raises
    NoFeasibleCandidateError when nothing feasible exists, and
    ControlBoundsError for a level outside the control box.
    """
    import numpy as np  # only the search needs it; keeps `import firmopt` light

    if grid.n_t < 1:
        raise ValueError("n_t must be at least 1")
    T = params.T
    if T <= 0.0:
        raise ValueError("brute force needs a positive horizon")
    u_levels, v_levels, w_levels = (np.array(lv) for lv in grid.levels(params))
    iu, iv, iw = np.indices((len(u_levels), len(v_levels), len(w_levels))).reshape(3, -1)
    U, V, W = u_levels[iu], v_levels[iv], w_levels[iw]  # one entry per level triple

    p, r, A, al, K, B = params.p, params.r, params.A, params.alpha, params.K, params.B
    slopes = p * W - V - K * U - B
    cin = A * U - V
    qin = U - W
    n_lo, d_lo, s_lo = (
        -ZERO_SNAP_RTOL * max(1.0, abs(x)) for x in (init.N, init.D, params.S_max)
    )
    s_hi = params.S_max - s_lo

    cut_times = np.array([k * T / grid.n_t for k in range(1, grid.n_t)])
    if cut_times.size == 0:
        cut_times = np.array([0.0])

    best_value = -math.inf
    ties: list[tuple[float, float, list[int]]] = []  # (t_a, t_b, triples)

    def step(dt):
        """Exact segment factors for a duration (scalar or array)."""
        return (
            dt,
            np.exp(r * dt),
            np.expm1(r * dt) / r,
            np.exp(-al * dt),
            np.expm1(-al * dt) / al,
        )

    def propagate(N0, D0, S0, factors):
        """One exact segment per level triple; factors broadcast."""
        dt, er, em1r, ea, em1a = factors
        return N0 + slopes * dt, D0 * er + cin * em1r, S0 * ea - qin * em1a

    def feasible(N, D, S):
        return (N >= n_lo) & (D >= d_lo) & (S >= s_lo) & (S <= s_hi)

    for i, t_a in enumerate(cut_times):
        N1, D1, S1 = propagate(init.N, init.D, init.S, step(t_a))
        first = np.flatnonzero(feasible(N1, D1, S1))
        if first.size == 0:
            continue
        tb = cut_times[i:]
        # axes: (t_b, first triple, middle triple)
        N2, D2, S2 = propagate(
            N1[first, None], D1[first, None], S1[first, None],
            tuple(x[:, :, None] for x in step((tb - t_a)[:, None])),
        )
        ok2 = feasible(N2, D2, S2)
        ok2[0, :, 1:] = False  # t_b = t_a: the middle triple never acts
        jb, ja, jm = np.nonzero(ok2)
        if jb.size == 0:
            continue
        # axes: (feasible prefix, last triple)
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
        _policy_from_candidate(
            T, t_a, t_b, (U[seq].tolist(), V[seq].tolist(), W[seq].tolist())
        )
        for t_a, t_b, seq in ties
    )
    return min(policies, key=_candidate_key), best_value


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


def certify_policy(params: ModelParams, init: State, kind: ScenarioKind) -> Certification:
    """Run the full maximum-principle certification for a scenario."""
    synth = synthesize_policy(params, init, kind)
    mults = multiplier_set_for_scenario(params, kind, synth.times)
    adjoint = adjoint_backward(params, mults)
    slackness = check_slackness(mults, synth.trajectory)
    # the slackness pass allows lambda >= -CERT_TOL; the sign verdict is against 0
    nonneg = slackness.lambda_min >= 0.0 and all(mu >= 0.0 for mu in mults.mus)
    return Certification(
        slackness=slackness,
        transversality=check_transversality(mults, adjoint),
        hamiltonian_argmax=check_control_maximizes(params, adjoint, synth.policy),
        multipliers_nonnegative=nonneg,
        synthesis=synth,
    )
