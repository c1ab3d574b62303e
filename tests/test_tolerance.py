"""The one tolerance owner, dynamics.Tolerance, and the model's unit symmetries.

Scaling money by lambda (p, A, K, B, v_max, N0, D0), stock by mu (S0,
S_max, u_max, w_max, with p, A and K divided by mu) or time by sigma (T,
with r, alpha, u_max, v_max, w_max and B divided by sigma) maps solutions
onto solutions.  With powers of 2 every floating-point operation of the
closed forms commutes with the scaling, so values scale bit for bit and,
since every tolerance is judged on per-unit scales with no absolute floor,
no verdict may change (a metamorphic relation: Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM CSUR 51(1), 2018).

The boundary tests break each bound by twice its tolerance, which must be
reported, and by half of it, which must not; their relative tolerances are
written out (1e-9), so that loosening a constant in the library fails them.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from firmopt import (
    ChainJunctionError,
    ScenarioKind,
    State,
    certify_policy,
    chain_plan,
    evaluate_chain,
    integrate_exact,
    synthesize_policy,
)
from firmopt.cli import _trajectory_csv
from firmopt.dynamics import AdjointTrajectory, PiecewiseExpFn, Tolerance, adjoint_backward
from firmopt.model import ControlSegment, ControlValue, PiecewiseControl
from firmopt.verify import check_control_maximizes, check_slackness, multiplier_set_for_scenario

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from oracles import rows_inside_the_box
from test_dynamics import constant_policy

S1 = ScenarioKind.S1_NO_DEBT_WITH_STOCK
S2 = ScenarioKind.S2_DEBT_WITH_STOCK
S3 = ScenarioKind.S3_DEBT_NO_STOCK
RTOL = 1e-9  # ZERO_SNAP_RTOL and CERT_TOL, restated


def scaled(params, init, unit, k):
    """(params, init) with `unit` scaled by 2**k, and the factors
    (money, stock, time) every value of that unit is multiplied by."""
    f = 2.0**k
    if unit == "money":
        params = replace(
            params, p=params.p * f, A=params.A * f, K=params.K * f, B=params.B * f,
            v_max=params.v_max * f,
        )
        return params, State(init.N * f, init.D * f, init.S), (f, 1.0, 1.0)
    if unit == "stock":
        params = replace(
            params, p=params.p / f, A=params.A / f, K=params.K / f, S_max=params.S_max * f,
            u_max=params.u_max * f, w_max=params.w_max * f,
        )
        return params, State(init.N, init.D, init.S * f), (1.0, f, 1.0)
    params = replace(
        params, T=params.T * f, r=params.r / f, alpha=params.alpha / f, B=params.B / f,
        u_max=params.u_max / f, v_max=params.v_max / f, w_max=params.w_max / f,
    )
    return params, init, (1.0, 1.0, f)


def produce_then_sell(params):
    """Produce and repay flat out over the first half, then sell only: it
    breaks whichever bounds the firm's numbers let it break."""
    half = params.T / 2.0
    return PiecewiseControl((
        ControlSegment(0.0, half, ControlValue(params.u_max, params.v_max, 0.0)),
        ControlSegment(half, params.T, ControlValue(0.0, 0.0, params.w_max)),
    ))


def feasible_column(traj):
    return [row.rsplit(",", 1)[1] for row in _trajectory_csv(traj).splitlines()[1:]]


def chain_outcome(params, init, kind, time):
    """Each interval's scenario and which of its entry components are zero
    after the junction snap, for a chain cut at T/2, or the failing junction;
    and the chain trajectory's `feasible` column."""
    cuts = [0.0, params.T / 2.0, params.T]
    try:
        plan = chain_plan(params, init, cuts, kind.name.startswith("A"))
    except ChainJunctionError as exc:
        return exc.junction
    traj, _ = evaluate_chain(params, plan)
    entries = [(iv.synthesis.kind, [x == 0.0 for x in iv.entry_state]) for iv in plan]
    return entries, feasible_column(traj), [iv.t_start / time for iv in plan]


def verdicts(cert):
    return (
        cert.slackness.passed, cert.transversality.passed,
        cert.hamiltonian_argmax.passed, cert.multipliers_nonnegative,
    )


@settings(max_examples=100)
@given(
    kind=st.sampled_from(ALL_KINDS),
    unit=st.sampled_from(("money", "stock", "time")),
    k=st.integers(-60, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_scalings_change_no_verdict(kind, unit, k, seed):
    params, init = draw_scenario_case(random.Random(seed), kind)
    params2, init2, (money, stock, time) = scaled(params, init, unit, k)

    cert, cert2 = certify_policy(params, init, kind), certify_policy(params2, init2, kind)
    assert verdicts(cert2) == verdicts(cert)
    # each check's slack is ranked on its own unit's scale
    for report, report2 in ((cert.slackness, cert2.slackness),
                            (cert.hamiltonian_argmax, cert2.hamiltonian_argmax)):
        assert report2.worst_margin.check == report.worst_margin.check
    assert cert2.hamiltonian_argmax.singular_segments == tuple(
        (c, a * time, b * time) for c, a, b in cert.hamiltonian_argmax.singular_segments
    )
    assert cert2.synthesis.objective == cert.synthesis.objective * money
    traj, traj2 = cert.synthesis.trajectory, cert2.synthesis.trajectory
    assert traj2.tol == (traj.tol.cash * money, traj.tol.debt * money, traj.tol.stock * stock)
    assert feasible_column(traj2) == feasible_column(traj)

    unit_of = {"N>=0": money, "D>=0": money, "S>=0": stock, "S<=S_max": stock}
    entry, entry2 = traj.start, traj2.start
    broken = integrate_exact(params, entry, produce_then_sell(params))
    broken2 = integrate_exact(params2, entry2, produce_then_sell(params2))
    assert broken2.feasibility_report == tuple(
        (t * time, label, x * unit_of[label]) for t, label, x in broken.feasibility_report
    )
    assert feasible_column(broken2) == feasible_column(broken)
    assert chain_outcome(params2, init2, kind, time) == chain_outcome(params, init, kind, 1.0)


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------


def test_the_owner_sums_the_closed_forms_magnitudes():
    init = State(20.0, 10.0, 10.0)
    cash = 20.0 + (10.0 * 5.0 + 50.0 + 3.0 * 8.0 + 5.0) * 10.0
    # r*T = 1: past the one interest time (expm1 = 1) the debt's terms are
    # taken over 1/r = 10
    debt = 10.0 + (2.0 * 8.0 + 50.0) * 10.0
    assert Tolerance.of(BASELINE, init) == (cash, debt, 100.0)
    assert Tolerance.of(BASELINE, init).state == (RTOL * cash, RTOL * debt, RTOL * 100.0)
    # r*T = 0.2: over the whole horizon
    short = replace(BASELINE, T=2.0)
    debt = 10.0 + (2.0 * 8.0 + 50.0) * (math.expm1(0.2) / 0.1)
    assert Tolerance.of(short, init).debt == debt


def test_a_long_horizon_widens_no_cash_tolerance_by_the_debts_growth():
    # idling from N0 = 20 at -B = -5 a year dips the cash to -0.01 by
    # t = 4.002; the debt's exp(r*T) = exp(10) must not excuse that
    params = replace(BASELINE, T=100.0)
    policy = PiecewiseControl((
        ControlSegment(0.0, 4.002, ControlValue(0.0, 0.0, 0.0)),
        ControlSegment(4.002, 100.0, ControlValue(5.0, 10.0, 5.0)),
    ))
    traj = integrate_exact(params, State(20.0, 10.0, 10.0), policy)
    assert traj.tol.cash == 20.0 + 129.0 * 100.0
    # from where N crosses 0 on the idle segment, and from the next one's start
    assert [v[:2] for v in traj.feasibility_report] == [(4.0, "N>=0"), (4.002, "N>=0")]
    assert traj.feasibility_report[0].magnitude == pytest.approx(0.01, rel=1e-9)
    assert "false" in feasible_column(traj)


def test_the_longest_valid_horizon_is_certified_on_finite_tolerances():
    # r*T = 709 is below ln(sys.float_info.max), where validation stops;
    # exp(709) = 8.2e307 would overflow any scale that grew with it
    params = replace(BASELINE, r=1.0, T=709.0)
    cert = certify_policy(params, State(20.0, 10.0, 10.0), S2)
    tol = cert.synthesis.trajectory.tol
    assert tol == (20.0 + 129.0 * 709.0, 10.0 + 66.0, 100.0)
    assert verdicts(cert) == (True, True, True, True)
    for report in (cert.slackness, cert.hamiltonian_argmax):
        assert math.isfinite(report.worst_margin.margin)


def test_a_large_cash_balance_excuses_no_missing_stock():
    # selling 5 a year from an empty store drives S to -9.93 by T; a cash
    # balance of 1e10 must not widen the stock's tolerance
    traj = integrate_exact(BASELINE, State(1e10, 0.0, 0.0), constant_policy(0.0, 0.0, 5.0))
    assert traj.terminal_state().S == pytest.approx(-10.0 * -math.expm1(-5.0), rel=1e-12)
    assert not traj.feasible
    assert [v[1:] for v in traj.feasibility_report] == [("S>=0", -traj.terminal_state().S)]
    assert feasible_column(traj)[-1] == "false"


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_repaying_nothing_while_indebted_fails_the_argmax_at_every_money_scale(k):
    # theta_v = -psi1 - psi2 carries no unit: its tolerance must not grow with p
    params, init, _ = scaled(BASELINE, State(20.0, 10.0, 10.0), "money", k)
    synth = synthesize_policy(params, init, S2)
    adjoint = adjoint_backward(params, multiplier_set_for_scenario(params, S2, synth.times))
    wrong = PiecewiseControl(tuple(
        replace(seg, value=replace(seg.value, v=0.0)) if seg.value.v == params.v_max else seg
        for seg in synth.policy.segments
    ))
    assert wrong != synth.policy
    assert check_control_maximizes(params, adjoint, synth.policy).passed
    report = check_control_maximizes(params, adjoint, wrong)
    assert {v.check for v in report.violations} == {"argmax_v"}


# ---------------------------------------------------------------------------
# Boundaries: a break of 2x the tolerance is reported, one of 0.5x is not
# ---------------------------------------------------------------------------

BREAKS = [
    # (bound, start state breaking it by x, a control leading away from it, unit)
    ("N>=0", lambda x: State(-x, 0.0, 50.0), (0.0, 0.0, 5.0), "cash"),
    ("D>=0", lambda x: State(20.0, -x, 50.0), (5.0, 0.0, 5.0), "debt"),
    ("S>=0", lambda x: State(20.0, 0.0, -x), (8.0, 0.0, 0.0), "stock"),
    ("S<=S_max", lambda x: State(20.0, 0.0, 100.0 + x), (0.0, 0.0, 5.0), "stock"),
]


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("label, start_at, control, unit", BREAKS)
def test_a_start_state_breaks_its_bound_beyond_the_tolerance(
    label, start_at, control, unit, factor
):
    scale = getattr(Tolerance.of(BASELINE, start_at(0.0)), unit)
    traj = integrate_exact(BASELINE, start_at(factor * RTOL * scale), constant_policy(*control))
    at_start = {v.constraint for v in traj.feasibility_report if v.time == 0.0}
    assert (label in at_start) is (factor > 1.0)
    assert rows_inside_the_box(traj)[0] is (factor < 1.0)
    assert set(feasible_column(traj)) == {"true" if traj.feasible else "false"}


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_a_junction_debt_snaps_within_the_chains_tolerance(factor):
    # S3 repays 40 a year net from D0 = 10; the junction falls just before
    # t_D, where factor times the tolerance of debt remains
    init = State(20.0, 10.0, 0.0)
    left = factor * RTOL * Tolerance.of(BASELINE, init).debt
    c_over_r = (BASELINE.A * BASELINE.w_max - BASELINE.v_max) / BASELINE.r
    t1 = math.log((left + c_over_r) / (init.D + c_over_r)) / BASELINE.r
    plan = chain_plan(BASELINE, init, [0.0, t1, BASELINE.T])
    debt = plan[0].synthesis.trajectory.terminal_state().D
    assert debt == pytest.approx(left, rel=1e-6)
    assert plan[1].entry_state.D == (debt if factor > 1.0 else 0.0)
    assert plan[1].synthesis.kind is (S3 if factor > 1.0 else S1)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_a_junction_stock_snaps_within_the_chains_tolerance(factor):
    # selling 5 a year from S0 = 10 leaves S(t) = 20*exp(-t/2) - 10
    init = State(20.0, 0.0, 10.0)
    left = factor * RTOL * Tolerance.of(BASELINE, init).stock
    t1 = -2.0 * math.log((10.0 + left) / 20.0)
    plan = chain_plan(BASELINE, init, [0.0, t1, BASELINE.T])
    stock = plan[0].synthesis.trajectory.terminal_state().S
    assert stock == pytest.approx(left, rel=1e-6)
    assert plan[1].entry_state.S == (stock if factor > 1.0 else 0.0)


def baseline_s1():
    synth = synthesize_policy(BASELINE, State(20.0, 0.0, 10.0), S1)
    return synth, multiplier_set_for_scenario(BASELINE, S1, synth.times)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_slackness_limits_are_money_per_time_and_money(factor):
    synth, mults = baseline_s1()
    traj = synth.trajectory
    cash, debt, stock = traj.tol
    money = cash + debt  # the objective N(T) - D(T) sums both
    rate_limit = RTOL * money / BASELINE.T
    # |S - S_max| reaches S_max = 100 on every piece, so lambda4 = c gives
    # lambda4*g4 = 100*c, and lambda4 = -c gives that times stock's scale
    c = factor * rate_limit / 100.0
    for lam4, check in ((c, "lambda4*g4=0"), (-c, "lambda4>=0")):
        broken = replace(mults, lambda4=PiecewiseExpFn.constant(lam4, 0.0, BASELINE.T))
        report = check_slackness(broken, traj)
        assert (check in {v.check for v in report.violations}) is (factor > 1.0)
    # mu4*(S(T) - S_max) is money
    report = check_slackness(replace(mults, mu4=factor * RTOL * money / 100.0), traj)
    assert report.passed is (factor < 1.0)
    assert stock == 100.0


def constant_adjoint(psi1, psi2, psi3, T=BASELINE.T):
    return AdjointTrajectory(*(PiecewiseExpFn.constant(x, 0.0, T) for x in (psi1, psi2, psi3)))


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("comp", ["u", "v", "w"])
def test_switching_values_are_judged_on_their_own_unit(comp, factor):
    # theta_v = -psi1 - psi2 has no unit: tolerance 1e-9; theta_u =
    # -K*psi1 + A*psi2 + psi3 and theta_w = p*psi1 - psi3 are money per
    # stock: 1e-9*p.  Each adjoint puts one theta just below zero, by
    # factor times its tolerance, and the others well above it, while the
    # policy runs every control at its upper bound.
    p, A, K = BASELINE.p, BASELINE.A, BASELINE.K
    dip = factor * RTOL * (1.0 if comp == "v" else p)
    adjoint = {
        "u": constant_adjoint(1.0, -1.0 - 1.0, A * 2.0 + K - dip),
        "v": constant_adjoint(1.0, -1.0 + dip, p - 1.0),
        "w": constant_adjoint(1.0, -2.0, p + dip),
    }[comp]
    policy = constant_policy(BASELINE.u_max, BASELINE.v_max, BASELINE.w_max)
    report = check_control_maximizes(BASELINE, adjoint, policy)
    assert report.passed is (factor < 1.0)
    if factor > 1.0:
        assert {v.check for v in report.violations} == {"argmax_" + comp}
    else:
        assert [s.component for s in report.singular_segments] == [comp]


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_a_control_is_at_its_bound_within_the_tolerance_of_that_bound(factor):
    synth, mults = baseline_s1()
    adjoint = adjoint_backward(BASELINE, mults)
    w = BASELINE.w_max * (1.0 - factor * RTOL)
    short = PiecewiseControl(tuple(
        replace(seg, value=replace(seg.value, w=w)) for seg in synth.policy.segments
    ))
    report = check_control_maximizes(BASELINE, adjoint, short)
    assert report.passed is (factor < 1.0)
