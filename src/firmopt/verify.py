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
    AdjointTrajectory,
    ExpTerm,
    PiecewiseExpFn,
    Tolerance,
    Trajectory,
    _pieces,
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

#: Relative tolerance of the certificate's checks, each against the scale
#: of its own quantity's unit (see check_slackness, check_control_maximizes).
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
    """The least slack * unit noted (`unit` puts each check's slack in one unit
    per report), kept until a strictly smaller one (as min() keeps the first of
    equals, or a NaN), and a violation wherever a slack is negative."""

    def __init__(self) -> None:
        self.worst: CertMargin | None = None
        self.bad: list[CertViolation] = []

    def note(self, t: float, check: str, slack: float, magnitude: float, unit: float = 1.0) -> None:
        if self.worst is None or slack * unit < self.rank:
            self.worst, self.rank = CertMargin(t, check, slack), slack * unit
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
    zero = PiecewiseExpFn.constant(0.0, 0.0, T)
    return MultiplierSet(lam1, lam2, lam3, zero, 0.0, 0.0, mu3, 0.0)


def check_slackness(mults: MultiplierSet, traj: Trajectory) -> CertReport:
    """Verify complementary slackness and multiplier nonnegativity.

    lambda*g is the objective's money per time: its limit is CERT_TOL *
    money / T (none at T = 0), money = tol.cash + tol.debt the scale of
    N(T) - D(T).  Per piece between multiplier and trajectory
    breakpoints: each lambda's exact minimum times its g's scale (cash,
    debt or stock) must be >= -limit, and as each g is monotone there,
    sup|lambda| * sup|g| from the piece's ends soundly bounds |lambda*g|,
    which must stay within limit.  Every mu must be nonnegative and
    mu_i * g_i(X(T)), money, within CERT_TOL * money of 0.  The least
    lambda value over all pieces is reported as `lambda_min`.  The worst
    margin is ranked in money: lambda slacks times T (1 at T = 0), mu_i's times g_i's scale;
    a mu of exactly 0 has an exact sign, not a margin, and is not ranked.
    """
    T = traj.t_final
    params = traj.params
    cash, debt, stock = traj.tol
    money = cash + debt
    limit = CERT_TOL * money / T if T > 0.0 else math.inf
    g_scales = (cash, debt, stock, stock)
    found = _Findings()
    lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
    lambda_min = math.inf
    pieces = _pieces(T, *lams, traj)
    # |g| at the piece ends: a segment start reads its entry at dt = 0
    ends = map(traj.sample, [0.0] + [b for _, b in pieces])
    g_ends = [(abs(N), abs(D), abs(S), abs(S - params.S_max)) for N, D, S in ends]
    for (a, b), g_a, g_b in zip(pieces, g_ends, g_ends[1:]):
        for i, lam in enumerate(lams):
            lo, t_lo, hi, t_hi = extrema(a, b, (1.0, lam.segment_at(a)))
            lambda_min = min(lambda_min, lo)
            found.note(t_lo, _LAMBDA_SIGN[i], lo * g_scales[i] + limit, -lo, T or 1.0)
            lam_sup, t_sup = (hi, t_hi) if hi >= -lo else (-lo, t_lo)
            if lam_sup == 0.0:  # lambda*g = 0: its slack exceeds the one just noted
                continue
            bound = lam_sup * max(g_a[i], g_b[i])
            found.note(t_sup, _LAMBDA_G[i], limit - bound, bound, T or 1.0)
    final = traj.terminal_state()
    gfin = (final.N, final.D, final.S, final.S - params.S_max)
    for mu, g, g_scale, sign, product in zip(mults.mus, gfin, g_scales, _MU_SIGN, _MU_G):
        if mu != 0.0:
            found.note(T, sign, mu, -mu, g_scale)
        found.note(T, product, CERT_TOL * money - abs(mu * g), abs(mu * g))
    return found.report(lambda_min=lambda_min)


def check_transversality(
    params: ModelParams, mults: MultiplierSet, adjoint: AdjointTrajectory
) -> CertReport:
    """psi1(T) = mu1 + 1, psi2(T) = mu2 - 1, psi3(T) = mu3 - mu4, exactly.

    Each psi_i(T)'s slack is 0 where it is exact and -|got - want| where
    not, -inf where that is NaN.  The worst margin is ranked per unit of
    psi1 and psi2, which have none: psi3, money per stock, in units of p.
    """
    T = adjoint.psi1.t_final
    want = (mults.mu1 + 1.0, mults.mu2 - 1.0, mults.mu3 - mults.mu4)
    found = _Findings()
    checks, units = ("psi1(T)", "psi2(T)", "psi3(T)"), (1.0, 1.0, 1.0 / params.p)
    for check, got, w, unit in zip(checks, adjoint.value_at(T), want, units):
        gap = abs(got - w)
        slack = 0.0 if got == w else -gap if gap > 0.0 else -math.inf
        found.note(T, check, slack, gap, unit)
    return found.report()


def check_control_maximizes(
    params: ModelParams,
    adjoint: AdjointTrajectory,
    policy: PiecewiseControl,
) -> CertReport:
    """Check the policy against the box argmax of the Hamiltonian.

    theta_u and theta_w are money per stock, judged to theta_tol =
    CERT_TOL * p; theta_v has no unit: theta_tol = CERT_TOL.  Per piece
    between the breakpoints of all three costates and the policy, from each
    switching value's exact extrema: a max above theta_tol demands the upper
    bound (within CERT_TOL * bound), a min below -theta_tol demands zero, and
    |theta| <= theta_tol on the whole piece leaves the component singular
    (any admissible value maximizes H); contiguous singular pieces merge, and
    where theta only touches the band at a breakpoint, that instant is a
    singular segment.  A violation is reported once per piece, at its
    worst time; the worst margin is ranked in units of theta_tol.
    """
    theta_tols = {"u": CERT_TOL * params.p, "v": CERT_TOL, "w": CERT_TOL * params.p}
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
    psis = (adjoint.psi1, adjoint.psi2, adjoint.psi3)
    for a, b in _pieces(T, *psis, policy):
        segs = [psi.segment_at(a) for psi in psis]
        control = policy.segment_at(a).value
        for comp, bound in bounds.items():
            theta_tol = theta_tols[comp]
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
            ctol = CERT_TOL * bound
            # theta above theta_tol demands the bound, below -theta_tol zero
            if abs(actual - bound) > ctol:
                found.note(t_hi, _ARGMAX[comp], theta_tol - hi, abs(actual - bound), 1 / theta_tol)
            if abs(actual) > ctol:
                found.note(t_lo, _ARGMAX[comp], lo + theta_tol, abs(actual), 1 / theta_tol)
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


#: (t_a, t_b, first triple, middle triple) elements one block of cuts may
#: span: the n_t = 10 grid with 18 level triples is one block, n_t = 200 takes
#: one t_a per block.
SEARCH_BLOCK_ELEMENTS = 2**15

#: Relative slack of the prefix bound.  A candidate's value
#: fl(fl(N_b + a) - fl(b + c)) and the bound fl(fl(N_b - b) + max fl(a - c))
#: share the rounded products a = slope*dt, b = D_b*exp(r*dt) and
#: c = cin*expm1(r*dt)/r.  Their other roundings, three each and one more to
#: add the slack, each move a sum of magnitude at most
#: M = |N_b| + |b| + max(|a| + |c|) by at most u*M (u = 2**-53): 7u*M in all,
#: which 8u*M covers with room for the second-order terms.
_BOUND_SLACK = 8 * 2.0**-53


def _candidate_key(T: float, t_a: float, t_b: float, levels: tuple) -> tuple:
    """Deterministic tie-break key: earliest first switch, then levels.

    Its rows (t_start, u, v, w) are the candidate's nonempty intervals, cut
    at (t_a, t_b) with (u, v, w) = zip(*levels) per interval, and adjacent
    equal levels merged into the later one (as `merged` in tests/oracles.py).
    """
    rows: list[tuple[float, ...]] = []
    for a, b, value in zip((0.0, t_a, t_b), (t_a, t_b, T), zip(*levels)):
        if b > a:
            if rows and rows[-1][1:] == value:
                rows[-1] = (rows[-1][0], *value)
            else:
                rows.append((a, *value))
    return (rows[1][0] if len(rows) > 1 else math.inf, tuple(rows))


def brute_force_best(
    params: ModelParams,
    init: State,
    grid: BruteForceGrid = BruteForceGrid(),
) -> tuple[PiecewiseControl, float]:
    """Exhaustively search gridded bang-bang policies for the best value.

    Candidates are piecewise-constant on at most three intervals whose
    two cut times t_a <= t_b range over the uniform grid k*T/n_t
    (k = 1..n_t-1, coincident cuts giving single-switch and constant
    policies), with each component drawing its per-interval level from
    its level list.  The search is exhaustive over this gridded class
    and promises no more: it finds the model's optimum only as far as
    the grid and the level lists contain it.

    The exact segment factors are computed once for every duration t_a,
    t_b - t_a and T - t_b, and segment 1 is propagated for every t_a and
    level triple (L = |u|*|v|*|w| of them, 18 by default) in one step.
    The cuts t_a are then walked in blocks of consecutive cuts, each
    spanning at most SEARCH_BLOCK_ELEMENTS (t_a, t_b, first, middle
    triple) elements; the factors of t_b - t_a are computed per block,
    so memory grows with the block, not with n_t**2.  In a block segment
    2 is propagated once per feasible (t_a, first triple) pair,
    t_b >= t_a and middle triple, and segment 3 once per feasible
    two-segment prefix and last triple; a prefix that leaves the state
    constraints is dropped before it widens.  At t_b = t_a the middle
    interval has zero length, so its triples give one policy and only
    the first is evaluated.

    From the second block on, a prefix ending in state (N_b, D_b) at t_b
    is skipped when its bound N_b - D_b*exp(r*(T - t_b)) + max_c g_c,
    g_c being last triple c's closed-form N - D gain over [t_b, T], falls
    below the best value already found.  The bound ignores feasibility,
    and is padded by _BOUND_SLACK times the magnitudes it sums, which
    covers every rounding between it and a candidate's computed value:
    a skipped prefix is provably below the best.  Every candidate still
    evaluated sees the same floating-point operations as when each t_a
    was searched on its own (the same durations, exact factors and
    feasibility tolerances), so the value, and the policy picked, are
    the same bit for bit.

    Trajectories violating a state constraint are discarded, each bound
    judged to its component's tolerance, Tolerance.of(params, init).state,
    as integrate_exact judges it.  Exact objective ties are broken by
    earliest first switch, then lexicographic levels, on plain (t, level)
    tuples; only the winner's policy is built.  Raises
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
    n_lv = U.size

    p, r, A, al, K, B = params.p, params.r, params.A, params.alpha, params.K, params.B
    slopes = p * W - V - K * U - B
    cin = A * U - V
    qin = U - W
    n_tol, d_tol, s_tol = Tolerance.of(params, init).state
    s_hi = params.S_max + s_tol

    cuts = [k * T / grid.n_t for k in range(1, grid.n_t)] or [0.0]
    cut_times = np.array(cuts)
    n_c = len(cuts)

    def step(dt):
        """Exact segment factors for an array of durations."""
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
        return (N >= -n_tol) & (D >= -d_tol) & (S >= -s_tol) & (S <= s_hi)

    # segment 1 for every t_a, axes (t_a, first triple)
    N1, D1, S1 = propagate(init.N, init.D, init.S, step(cut_times[:, None]))
    ok1 = feasible(N1, D1, S1)
    # the last segment per t_b: its factors, and per last triple c its
    # rounded products, N - D gain and the gain's magnitude
    dt3, er3, em1r3, ea3, em1a3 = step(T - cut_times)
    n_gain3 = slopes * dt3[:, None]
    d_gain3 = cin * em1r3[:, None]
    s_loss3 = qin * em1a3[:, None]
    gain_max = (n_gain3 - d_gain3).max(axis=1)
    gain_mag = (np.abs(n_gain3) + np.abs(d_gain3)).max(axis=1)

    best_value = -math.inf
    ties: list[tuple[int, int, int, int, int]] = []  # (t_a, t_b, first, middle, last)
    block = max(1, SEARCH_BLOCK_ELEMENTS // (n_lv * n_lv * n_c))
    first_middle = np.arange(n_lv) == 0
    for i0 in range(0, n_c, block):
        ka, first = np.nonzero(ok1[i0 : i0 + block])
        if ka.size == 0:
            continue
        ia = ka + i0
        # factors of t_b - t_a for the block's t_a and t_b from cut i0; only
        # t_b >= t_a is read, so the rest is clamped to 0
        factors2 = step(np.maximum(cut_times[i0:] - cut_times[i0 : i0 + block, None], 0.0))
        # axes: (feasible (t_a, first) pair, t_b from cut i0, middle triple)
        N2, D2, S2 = propagate(
            N1[ia, first, None, None], D1[ia, first, None, None], S1[ia, first, None, None],
            tuple(x[ka, :, None] for x in factors2),
        )
        ok2 = feasible(N2, D2, S2)
        # t_b > t_a, or t_b = t_a with the first middle triple (it never acts)
        ok2 &= np.arange(i0, n_c)[:, None] > ia[:, None, None] - first_middle
        kp, jb, jm = np.nonzero(ok2)
        N2, D2, S2 = N2[kp, jb, jm], D2[kp, jb, jm], S2[kp, jb, jm]
        jb += i0
        D2e = D2 * er3[jb]
        if best_value > -math.inf:
            bound = N2 - D2e + gain_max[jb]
            slack = _BOUND_SLACK * (np.abs(N2) + np.abs(D2e) + gain_mag[jb])
            keep = np.flatnonzero(~(bound + slack < best_value))
            kp, jb, jm, N2, D2e, S2 = (x[keep] for x in (kp, jb, jm, N2, D2e, S2))
        if jb.size == 0:
            continue
        # axes: (prefix, last triple); each sum is formed in its gathered
        # last-segment term, and N3 turns into the value in place
        N3 = n_gain3.take(jb, axis=0)
        N3 += N2[:, None]
        D3 = d_gain3.take(jb, axis=0)
        D3 += D2e[:, None]
        S3 = s_loss3.take(jb, axis=0)
        np.subtract((S2 * ea3[jb])[:, None], S3, out=S3)
        infeasible = ~feasible(N3, D3, S3)
        value = np.subtract(N3, D3, out=N3)
        value[infeasible] = -np.inf
        block_best = value.max()
        if block_best == -math.inf or block_best < best_value:
            continue
        if block_best > best_value:
            best_value, ties = float(block_best), []
        rows, last = np.divmod(np.flatnonzero(value == block_best), n_lv)
        ties += zip(
            ia[kp[rows]].tolist(), jb[rows].tolist(), first[kp[rows]].tolist(),
            jm[rows].tolist(), last.tolist(),
        )
    if not ties:
        raise NoFeasibleCandidateError(
            "no feasible piecewise-constant candidate on the search grid"
        )
    levels = (U.tolist(), V.tolist(), W.tolist())
    # min keeps the first of equal keys.  Such ties differ at most in the sign
    # of a zero level, and a first triple that differs only so ties at every
    # t_b alike, so this (t_a, first, t_b) order keeps the same one as
    # (t_a, t_b, first) order would.  The winner's policy is its key's rows.
    _, rows = min(_candidate_key(T, cuts[i], cuts[j], tuple([lv[s] for s in seq] for lv in levels))
                  for i, j, *seq in ties)
    ends = [row[0] for row in rows[1:]] + [T]
    segs = (ControlSegment(a, b, ControlValue(u, v, w)) for (a, u, v, w), b in zip(rows, ends))
    return PiecewiseControl(tuple(segs)), best_value


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
        transversality=check_transversality(params, mults, adjoint),
        hamiltonian_argmax=check_control_maximizes(params, adjoint, synth.policy),
        multipliers_nonnegative=nonneg,
        synthesis=synth,
    )
