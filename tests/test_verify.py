"""Maximum-principle certification and the exhaustive search oracle."""

import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from firmopt import (
    BruteForceGrid,
    NoFeasibleCandidateError,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    brute_force_best,
    certify_policy,
    classify_scenario,
    integrate_exact,
    objective_value,
    synthesize_policy,
    verify,
)
from firmopt.dynamics import (
    AdjointTrajectory,
    ExpTerm,
    PiecewiseExpFn,
    adjoint_backward,
    extrema,
    piecewise_from_spans,
)
from firmopt.model import ControlBoundsError, ControlSegment, ControlValue, PiecewiseControl
from firmopt.verify import (
    CERT_TOL,
    CertMargin,
    CertViolation,
    SingularSegment,
    _Findings,
    check_control_maximizes,
    check_slackness,
    check_transversality,
    multiplier_set_for_scenario,
)

import oracles
from conftest import ALL_KINDS, BASELINE, draw_profitable_params, draw_scenario_case
from oracles import (
    breakpoints_of,
    grid_brute_force_best,
    grid_check_control_maximizes,
    grid_check_slackness,
    grid_multipliers_nonnegative,
    hamiltonian,
    prefix_brute_force_best,
    segment_rows,
    switching_from_psi,
    switching_values,
)
from test_solver import J_S1, J_S3, T_D_A2, T_D_S3, T_S_BASE


class TestSwitchingValues:
    def test_production_phase_shadow_prices_zero_out_u_and_v(self):
        theta = switching_from_psi(BASELINE, (1.0, -1.0, BASELINE.A + BASELINE.K))
        assert theta.theta_u == 0.0
        assert theta.theta_v == 0.0
        assert theta.theta_w == BASELINE.p - BASELINE.A - BASELINE.K

    def test_worthless_stock_makes_sales_attractive(self):
        theta = switching_from_psi(BASELINE, (1.0, -1.0, 0.0))
        assert theta.theta_w == BASELINE.p

    def test_pre_production_sign(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        for t in (0.0, 0.5, 1.0, T_S_BASE - 1e-6):
            theta = switching_values(BASELINE, adjoint, t)
            expected = -(BASELINE.K + BASELINE.A) + (
                BASELINE.A + BASELINE.K
            ) * math.exp(BASELINE.alpha * (t - T_S_BASE))
            assert theta.theta_u == pytest.approx(expected, rel=1e-9)
            assert theta.theta_u < 0.0


class TestHamiltonian:
    def test_zero_costate_gives_zero(self):
        control = ControlValue(3.0, 20.0, 5.0)
        assert hamiltonian(BASELINE, (0.0, 0.0, 0.0), State(5.0, 5.0, 5.0), control) == 0.0

    def test_operating_point_value(self):
        psi = (1.0, -1.0, BASELINE.A + BASELINE.K)
        control = ControlValue(5.0, 10.0, 5.0)
        value = hamiltonian(BASELINE, psi, State(10.0, 0.0, 0.0), control)
        expected = (BASELINE.p - BASELINE.A - BASELINE.K) * BASELINE.w_max - BASELINE.B
        assert value == pytest.approx(expected, rel=1e-14)

    def test_linearity_in_control(self):
        rng = random.Random(3)
        psi = (1.2, -0.7, 3.3)
        state = State(4.0, 2.0, 1.0)
        for _ in range(50):
            c1 = ControlValue(rng.uniform(0, 4), rng.uniform(0, 20), rng.uniform(0, 2))
            c2 = ControlValue(rng.uniform(0, 4), rng.uniform(0, 20), rng.uniform(0, 2))
            c12 = ControlValue(c1.u + c2.u, c1.v + c2.v, c1.w + c2.w)
            lhs = (
                hamiltonian(BASELINE, psi, state, c1)
                + hamiltonian(BASELINE, psi, state, c2)
                - hamiltonian(BASELINE, psi, state, ControlValue(0, 0, 0))
            )
            assert lhs == pytest.approx(hamiltonian(BASELINE, psi, state, c12), rel=1e-12)


class TestMultiplierSets:
    def test_sell_then_produce_set(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        assert mults.mu3 == BASELINE.A + BASELINE.K == 5.0
        assert mults.lambda2.value(0.5) == BASELINE.r
        assert mults.lambda3.value(T_S_BASE - 1e-9) == 0.0
        assert mults.lambda3.value(5.0) == pytest.approx(2.5, rel=1e-15)
        assert mults.lambda1.value(3.0) == 0.0 and mults.lambda4.value(3.0) == 0.0

    def test_equal_neighbouring_phases_share_one_segment(self):
        # S1 is cut at t_S only, where lambda1 and lambda2 do not change
        kind = ScenarioKind.S1_NO_DEBT_WITH_STOCK
        synth = synthesize_policy(BASELINE, State(20.0, 0.0, 10.0), kind)
        mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
        assert len(mults.lambda1.segments) == len(mults.lambda2.segments) == 1
        assert len(mults.lambda3.segments) == 2
        lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
        assert breakpoints_of(*lams) == [0.0, T_S_BASE, BASELINE.T]

    def test_partial_repayment_cash_multiplier(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 30.0, 10.0), ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP, synth.times
        )
        # lambda1 = r * exp(r*(t_D - t)) while the cash constraint binds
        assert mults.lambda1.value(T_D_A2 - 1e-12) == pytest.approx(BASELINE.r, rel=1e-9)
        assert mults.lambda1.value(0.0) == pytest.approx(
            BASELINE.r * math.exp(BASELINE.r * T_D_A2), rel=1e-12
        )
        assert mults.lambda1.value(T_D_A2 + 1e-12) == 0.0

    def test_no_stock_set_is_exponential_while_indebted(self):
        # production runs from t = 0 while the debt is still open, so the
        # stock multiplier must carry the debt shadow price: a constant
        # alpha*(A+K) there would break theta_u = 0 on [0, t_D)
        synth = synthesize_policy(
            BASELINE, State(20.0, 10.0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S3_DEBT_NO_STOCK, synth.times
        )
        a, k, al, r = BASELINE.A, BASELINE.K, BASELINE.alpha, BASELINE.r
        t = 0.1
        expected = al * k + (al + r) * a * math.exp(r * (T_D_S3 - t))
        assert mults.lambda3.value(t) == pytest.approx(expected, rel=1e-12)
        assert mults.lambda3.value(5.0) == pytest.approx(al * (a + k), rel=1e-15)
        adjoint = adjoint_backward(BASELINE, mults)
        for t in (0.0, 0.1, T_D_S3, 1.0, 9.0):
            assert switching_values(BASELINE, adjoint, t).theta_u == pytest.approx(
                0.0, abs=1e-12
            )

    def test_nonnegativity_across_random_draws(self):
        rng = random.Random(11)
        for kind in (
            ScenarioKind.S2_DEBT_WITH_STOCK,
            ScenarioKind.S3_DEBT_NO_STOCK,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        ):
            for _ in range(20):
                params, init = draw_scenario_case(rng, kind)
                synth = synthesize_policy(params, init, kind)
                mults = multiplier_set_for_scenario(params, kind, synth.times)
                grid = [i * params.T / 200 for i in range(201)]
                for lam in (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4):
                    assert all(lam.value(min(g, params.T)) >= 0.0 for g in grid)
                    for seg in lam.segments:
                        assert extrema(seg.t_start, seg.t_end, (1.0, seg))[0] >= 0.0
                assert all(mu >= 0.0 for mu in mults.mus)

    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        event=st.sampled_from(("T", "t_s", "t_d")),
        frac=st.floats(0.1, 1.0),
    )
    def test_breakpoints_lie_on_the_policy_partition(self, kind, seed, event, frac):
        # one phase rule cuts both the policy and its multipliers; pulling
        # the horizon in to frac * t_S or frac * t_D puts that event at or
        # beyond it
        params, init = draw_scenario_case(random.Random(seed), kind)
        times = synthesize_policy(params, init, kind).times
        at = {"T": params.T, "t_s": times.t_s, "t_d": times.t_d}[event]
        params = replace(params, T=frac * min(at or params.T, params.T))
        synth = synthesize_policy(params, init, kind)
        mults = multiplier_set_for_scenario(params, kind, synth.times)
        lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
        assert set(breakpoints_of(*lams)) <= {0.0, params.T, *synth.policy.breakpoints}


class TestSlackness:
    def traj_and_mults(self, init, kind):
        synth = synthesize_policy(BASELINE, init, kind)
        start = synth.jump.post_state if synth.jump else init
        traj = integrate_exact(
            BASELINE, start, synth.policy, jump=synth.jump,
            expected_zeros=synth.times.zeros,
        )
        mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
        return traj, mults

    def test_sell_then_produce_passes(self):
        traj, mults = self.traj_and_mults(
            State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        assert check_slackness(mults, traj).passed

    def test_large_debt_with_stock_passes(self):
        # debt above the threshold: production starts before the debt clears
        traj, mults = self.traj_and_mults(
            State(100.0, 100.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
        )
        assert check_slackness(mults, traj).passed

    def test_spurious_capacity_multiplier_is_located(self):
        traj, mults = self.traj_and_mults(
            State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        broken = replace(
            mults, lambda4=PiecewiseExpFn.constant(1.0, 0.0, BASELINE.T)
        )
        report = check_slackness(broken, traj)
        assert not report.passed
        assert any(v.check == "lambda4*g4=0" for v in report.violations)


class TestControlMaximizes:
    def test_synthesized_policy_has_no_violations(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        report = check_control_maximizes(BASELINE, adjoint, synth.policy)
        assert report.passed
        assert report.singular_segments  # theta_v vanishes identically

    def test_perturbed_singular_component_still_passes(self):
        # max-rate repayment after the stock empties sits on a singular
        # stretch of theta_v: admissible for the maximum condition (the
        # slackness check is what rejects it)
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        perturbed = PiecewiseControl(
            (
                synth.policy.segments[0],
                ControlSegment(
                    T_S_BASE, BASELINE.T, ControlValue(5.0, BASELINE.v_max, 5.0)
                ),
            )
        )
        report = check_control_maximizes(BASELINE, adjoint, perturbed)
        assert report.passed
        assert any(seg.component == "v" for seg in report.singular_segments)

    def test_refusing_profitable_sales_is_flagged_everywhere(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 0.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        no_sales = PiecewiseControl(
            (ControlSegment(0.0, BASELINE.T, ControlValue(0.0, 0.0, 0.0)),)
        )
        # the grid oracle flags every one of its sample times
        grid_report = grid_check_control_maximizes(BASELINE, adjoint, no_sales)
        grid_w = [v for v in grid_report.violations if v.check == "argmax_w"]
        grid_size = 10 * math.ceil(BASELINE.T) + 1
        assert len(grid_w) >= grid_size
        # the exact check reports once per piece, so every piece of [0, T]
        # must carry an argmax_w violation timed inside it
        report = check_control_maximizes(BASELINE, adjoint, no_sales)
        assert not report.passed
        w_times = [v.time for v in report.violations if v.check == "argmax_w"]
        cuts = breakpoints_of(adjoint.psi1, adjoint.psi2, adjoint.psi3, no_sales)  # 0 and T too
        for a, b in zip(cuts, cuts[1:]):
            assert any(a <= t <= b for t in w_times)

    @pytest.mark.parametrize("switching", ["psi1", "psi2"])
    def test_a_cut_in_any_costate_splits_the_pieces(self, switching):
        # theta_v = -psi1 - psi2 turns from +0.5 to -1 at t = 5 through either
        # psi1 (0.5 -> 2) or psi2 (-1 -> 0), so the baseline's v = v_max
        # breaks argmax_v on [5, 10]; u = 0 and w = w_max stay at their argmax
        T = BASELINE.T
        step = {"psi1": (0.5, 2.0), "psi2": (-1.0, 0.0)}[switching]
        switched = piecewise_from_spans(
            [(0.0, 5.0, (ExpTerm(step[0], 0.0),)), (5.0, T, (ExpTerm(step[1], 0.0),))]
        )
        psi = {"psi1": PiecewiseExpFn.constant(0.5, 0.0, T),
               "psi2": PiecewiseExpFn.constant(-1.0, 0.0, T),
               "psi3": PiecewiseExpFn.constant(0.0, 0.0, T)}
        adjoint = AdjointTrajectory(**{**psi, switching: switched})
        policy = PiecewiseControl(
            (ControlSegment(0.0, T, ControlValue(0.0, BASELINE.v_max, BASELINE.w_max)),)
        )
        grid = grid_check_control_maximizes(BASELINE, adjoint, policy).violations
        assert {v.check for v in grid} == {"argmax_v"}
        assert min(v.time for v in grid) == 5.0 and max(v.time for v in grid) == T
        report = check_control_maximizes(BASELINE, adjoint, policy)
        assert not report.passed
        assert report.violations == (CertViolation(5.0, "argmax_v", BASELINE.v_max),)


BASELINE_CASES = [
    (State(20.0, 0.0, 10.0), False, ScenarioKind.S1_NO_DEBT_WITH_STOCK),
    (State(20.0, 10.0, 10.0), False, ScenarioKind.S2_DEBT_WITH_STOCK),
    (State(100.0, 100.0, 10.0), False, ScenarioKind.S2_DEBT_WITH_STOCK),
    (State(20.0, 10.0, 0.0), False, ScenarioKind.S3_DEBT_NO_STOCK),
    (State(20.0, 10.0, 10.0), True, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP),
    (State(20.0, 30.0, 10.0), True, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP),
    (State(20.0, 85.0, 10.0), True, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP),
]


class TestCertifyPolicy:
    @pytest.mark.parametrize("init,jump,kind", BASELINE_CASES)
    def test_baseline_scenarios_certify(self, init, jump, kind):
        cert = certify_policy(BASELINE, init, kind)
        assert cert.passed

    def test_one_extrema_pass_decides_the_multiplier_signs(self, monkeypatch):
        # the sign verdict reads the least lambda the slackness pass saw;
        # a separate pass over the 6 lambda segments made it 27 calls
        calls = []

        def counting(*args):
            calls.append(args)
            return extrema(*args)

        monkeypatch.setattr(verify, "extrema", counting)
        kind = ScenarioKind.S2_DEBT_WITH_STOCK
        cert = certify_policy(BASELINE, State(20.0, 10.0, 10.0), kind)
        certified = len(calls)
        assert certified == 21
        assert cert.multipliers_nonnegative
        assert cert.slackness.lambda_min == 0.0
        calls.clear()
        synth = cert.synthesis
        mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
        check_slackness(mults, synth.trajectory)
        check_control_maximizes(
            BASELINE, adjoint_backward(BASELINE, mults), synth.policy
        )
        assert len(calls) == certified

    def test_sign_verdict_is_against_zero_not_the_tolerance(self):
        # a lambda at -CERT_TOL/2, inside slackness's tolerance for lambda4
        # (CERT_TOL * money / (T * S_max), 1.31e-9 here), passes slackness;
        # its least value still reaches the sign check, which compares it with 0
        kind = ScenarioKind.S2_DEBT_WITH_STOCK
        synth = synthesize_policy(BASELINE, State(20.0, 10.0, 10.0), kind)
        mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
        dip = PiecewiseExpFn.constant(-0.5 * CERT_TOL, 0.0, BASELINE.T)
        report = check_slackness(replace(mults, lambda4=dip), synth.trajectory)
        assert report.passed
        assert report.lambda_min == -0.5 * CERT_TOL

    def test_expensive_credit_breaks_the_certificate(self):
        # when interest compounded to the clearance time exceeds the sales
        # margin (A*exp(r*t_D) > p - K), buying materials on credit is a
        # net loss and immediate production stops being optimal: the
        # pointwise maximum condition fails and idling first genuinely
        # beats the immediate-production value
        params = replace(BASELINE, r=0.8, B=1.0, T=6.0)
        init = State(40.0, 40.0, 0.0)
        kind = ScenarioKind.S3_DEBT_NO_STOCK
        synth = synthesize_policy(params, init, kind)
        assert params.A * math.exp(params.r * synth.times.t_d) > params.p - params.K
        cert = certify_policy(params, init, kind)
        assert not cert.hamiltonian_argmax.passed

        # idle briefly, then run the same structure: strictly better
        delta = 0.2
        d1 = init.D * math.exp(params.r * delta) - params.v_max * math.expm1(
            params.r * delta
        ) / params.r
        c = params.A * params.w_max - params.v_max
        t_d = delta + math.log((c / params.r) / (d1 + c / params.r)) / params.r
        idle_first = PiecewiseControl(
            (
                ControlSegment(0.0, delta, ControlValue(0.0, params.v_max, 0.0)),
                ControlSegment(delta, t_d, ControlValue(5.0, params.v_max, 5.0)),
                ControlSegment(t_d, params.T, ControlValue(5.0, 10.0, 5.0)),
            )
        )
        traj = integrate_exact(
            params, init, idle_first, expected_zeros=[(t_d, "D")]
        )
        assert traj.feasible
        assert traj.objective() > objective_value(params, init, kind) + 1.0

    def test_certificate_can_pass_outside_the_sufficient_condition(self):
        # A*exp(r*T) < p - K is sufficient for immediate production, not
        # necessary: here the credit costs 5.74 times the sales margin over
        # the horizon, yet the certificate passes and the search agrees
        params = replace(BASELINE, r=0.5, B=1.0, T=6.0)
        init = State(40.0, 40.0, 0.0)
        kind = ScenarioKind.S3_DEBT_NO_STOCK
        assert params.A * math.exp(params.r * params.T) > params.p - params.K
        assert certify_policy(params, init, kind).passed
        _, searched = brute_force_best(params, init, BruteForceGrid(n_t=60))
        assert searched <= objective_value(params, init, kind)


def assert_argmax_agrees(params, adjoint, policy):
    """The exact argmax check against the grid oracle.

    Verdicts and singular-segment counts must agree, except that the
    exact check may find a violation the grid missed; then every exact
    violation is re-derived from the switching value at its time.
    """
    exact = check_control_maximizes(params, adjoint, policy)
    grid = grid_check_control_maximizes(params, adjoint, policy)
    assert len(exact.singular_segments) == len(grid.singular_segments)
    if exact.passed != grid.passed:
        assert grid.passed and not exact.passed
        # theta_u and theta_w are money per stock, theta_v has no unit
        theta_tols = {"u": CERT_TOL * params.p, "v": CERT_TOL, "w": CERT_TOL * params.p}
        bounds = {"u": params.u_max, "v": params.v_max, "w": params.w_max}
        for v in exact.violations:
            comp = v.check[-1]
            theta = getattr(switching_values(params, adjoint, v.time), f"theta_{comp}")
            actual = getattr(policy.segment_at(v.time).value, comp)
            assert abs(theta) > theta_tols[comp]
            target = bounds[comp] if theta > 0.0 else 0.0
            assert v.magnitude == pytest.approx(abs(actual - target), rel=1e-12)
    return exact


def assert_certificate_agrees(params, init, kind):
    synth = synthesize_policy(params, init, kind)
    mults = multiplier_set_for_scenario(params, kind, synth.times)
    adjoint = adjoint_backward(params, mults)
    slack = check_slackness(mults, synth.trajectory)
    assert slack.passed == grid_check_slackness(mults, synth.trajectory).passed
    assert_argmax_agrees(params, adjoint, synth.policy)
    cert = certify_policy(params, init, kind)
    assert cert.multipliers_nonnegative == grid_multipliers_nonnegative(mults, params.T)
    return cert


class TestExactAgainstGrid:
    """The exact per-segment certificate decides as the grid oracle does."""

    def test_random_draws_all_scenarios(self):
        rng = random.Random(20240501)
        for kind in ALL_KINDS:
            for _ in range(100):
                params, init = draw_scenario_case(rng, kind)
                assert assert_certificate_agrees(params, init, kind).passed

    @pytest.mark.parametrize("init,jump,kind", BASELINE_CASES)
    def test_baseline_cases(self, init, jump, kind):
        cert = assert_certificate_agrees(BASELINE, init, kind)
        assert cert.passed

    @pytest.mark.parametrize(
        "changes,init,jump",
        [
            ({"T": 2.0}, State(20.0, 0.0, 20.0), False),  # t_S >= T
            ({"T": 2.0}, State(20.0, 10.0, 20.0), False),
            ({"T": 2.0}, State(20.0, 10.0, 20.0), True),
            ({"T": 2.0}, State(20.0, 30.0, 20.0), True),
            ({"v_max": 20.0}, State(20.0, 100.0, 10.0), False),  # t_D >= T
            ({"v_max": 20.0}, State(20.0, 100.0, 0.0), False),
            ({}, State(20.0, 500.0, 10.0), True),  # A2 clearance past T
        ],
    )
    def test_events_beyond_the_horizon(self, changes, init, jump):
        params = replace(BASELINE, **changes)
        kind = classify_scenario(params, init, jump)
        assert assert_certificate_agrees(params, init, kind).passed

    def test_open_debt_leaves_repayment_singular_at_the_horizon_only(self):
        # psi1(T) = 1 and psi2(T) = -1 make theta_v(T) = 0: with debt still
        # open, theta_v > 0 before T, so T alone is a singular instant
        params = replace(BASELINE, v_max=20.0)
        init = State(20.0, 100.0, 10.0)
        cert = certify_policy(params, init, ScenarioKind.S2_DEBT_WITH_STOCK)
        v_segments = [
            s for s in cert.hamiltonian_argmax.singular_segments if s.component == "v"
        ]
        assert v_segments == [SingularSegment("v", params.T, params.T)]

    def test_random_draws_with_events_beyond_the_horizon(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            params = draw_profitable_params(rng)
            stock_cap = params.w_max * math.expm1(params.alpha * params.T) / params.alpha
            debt_cap = (params.v_max - params.A * params.w_max) / params.r
            init = State(
                rng.uniform(1.0, 200.0),
                rng.choice([0.0, rng.uniform(0.5, 3.0) * debt_cap]),
                rng.choice([0.0, min(params.S_max, rng.uniform(0.5, 3.0) * stock_cap)]),
            )
            try:
                kind = classify_scenario(params, init, rng.random() < 0.3)
                synthesize_policy(params, init, kind)
            except (ValueError, PolicyInfeasibleError):
                continue
            assert_certificate_agrees(params, init, kind)
            checked += 1

    def test_expensive_credit(self):
        params = replace(BASELINE, r=0.8, B=1.0, T=6.0)
        cert = assert_certificate_agrees(
            params, State(40.0, 40.0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK
        )
        assert not cert.hamiltonian_argmax.passed

    def test_perturbed_policies(self):
        # every baseline policy with its switches moved, levels swapped or
        # a component held off its bound, checked against the true costates
        flagged = 0
        for init, _, kind in BASELINE_CASES:
            synth = synthesize_policy(BASELINE, init, kind)
            mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
            adjoint = adjoint_backward(BASELINE, mults)
            segs = synth.policy.segments
            variants = []
            for shift in (-0.3, -0.01, 0.01, 0.3):
                if len(segs) > 1:
                    cut = min(max(segs[1].t_start + shift, 0.05), BASELINE.T - 0.05)
                    variants.append(
                        PiecewiseControl(
                            (
                                replace(segs[0], t_end=cut),
                                ControlSegment(cut, BASELINE.T, segs[-1].value),
                            )
                        )
                    )
            for value in (
                ControlValue(0.0, 0.0, 0.0),
                ControlValue(BASELINE.w_max, BASELINE.v_max, BASELINE.w_max),
                ControlValue(2.5, 12.5, 2.5),
            ):
                variants.append(
                    PiecewiseControl((ControlSegment(0.0, BASELINE.T, value),))
                )
            for policy in variants:
                flagged += not assert_argmax_agrees(BASELINE, adjoint, policy).passed
        assert flagged > 0

    def test_spurious_multipliers(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        for broken in (
            replace(mults, lambda4=PiecewiseExpFn.constant(1.0, 0.0, BASELINE.T)),
            replace(mults, lambda2=PiecewiseExpFn.constant(-1.0, 0.0, BASELINE.T)),
            replace(mults, lambda3=PiecewiseExpFn.constant(0.5, 0.0, BASELINE.T)),
        ):
            exact = check_slackness(broken, synth.trajectory)
            assert not exact.passed
            assert not grid_check_slackness(broken, synth.trajectory).passed
            assert {v.check for v in exact.violations} <= {
                v.check for v in grid_check_slackness(broken, synth.trajectory).violations
            }


class TestWorstMargin:
    def baseline_s1(self):
        return certify_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )

    def test_argmax_margin_sits_at_the_production_start(self):
        theta_tol = CERT_TOL * BASELINE.p
        report = self.baseline_s1().hamiltonian_argmax
        worst = report.worst_margin
        assert worst.time == pytest.approx(T_S_BASE, abs=1e-12)
        # theta_u reaches zero at t_S from below while u = 0: the policy
        # switches exactly where the maximum condition is tight
        assert worst.check == "argmax_u"
        assert worst.margin == pytest.approx(theta_tol, abs=1e-12)
        # sales are closest to switching off at t_S as well, where
        # theta_w = p*psi1 - psi3 falls to p - (A + K) and stays there
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        lo, t_lo = min(
            extrema(
                seg.t_start,
                seg.t_end,
                (BASELINE.p, adjoint.psi1.segment_at(seg.t_start)),
                (-1.0, seg),
            )[:2]
            for seg in adjoint.psi3.segments
        )
        assert t_lo == pytest.approx(T_S_BASE, abs=1e-12)
        assert lo == pytest.approx(BASELINE.p - BASELINE.A - BASELINE.K, rel=1e-12)

    def test_failing_report_margin_is_negative_at_a_violation(self):
        params = replace(BASELINE, r=0.8, B=1.0, T=6.0)
        cert = certify_policy(params, State(40.0, 40.0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK)
        worst = cert.hamiltonian_argmax.worst_margin
        assert worst.margin < 0.0
        assert any(
            v.time == worst.time and v.check == worst.check
            for v in cert.hamiltonian_argmax.violations
        )

    def test_slackness_margin_names_a_lambda_or_a_mu_g_check(self):
        # the solver's mu1 = mu2 = mu4 = 0 are exact, so no mu's sign is a
        # margin; on S1 lambda1 = 0, whose sign slack is the whole limit
        worst = self.baseline_s1().slackness.worst_margin
        assert worst.check == "lambda1>=0" and worst.margin > 0.0
        for init, _, kind in BASELINE_CASES:
            check = certify_policy(BASELINE, init, kind).slackness.worst_margin.check
            assert check.startswith("lambda") or check.startswith("mu") and "*g" in check

    def test_passing_slackness_margin_is_nonnegative(self):
        cert = self.baseline_s1()
        assert cert.slackness.worst_margin.margin >= 0.0
        assert cert.transversality.worst_margin == CertMargin(BASELINE.T, "psi1(T)", 0.0)

    def s1_multipliers_and_adjoint(self):
        synth = self.baseline_s1().synthesis
        mults = multiplier_set_for_scenario(BASELINE, synth.kind, synth.times)
        return mults, adjoint_backward(BASELINE, mults)

    @pytest.mark.parametrize("init,jump,kind", BASELINE_CASES)
    def test_exact_transversality_has_a_zero_margin(self, init, jump, kind):
        # every psi_i(T) is exact, so each slack is 0 and the first noted is kept
        report = certify_policy(BASELINE, init, kind).transversality
        assert report.passed and report.violations == ()
        assert report.worst_margin == CertMargin(BASELINE.T, "psi1(T)", 0.0)

    @pytest.mark.parametrize("mu, psi", [
        ("mu1", "psi1(T)"), ("mu2", "psi2(T)"), ("mu3", "psi3(T)"), ("mu4", "psi3(T)"),
    ])
    def test_a_perturbed_mu_names_its_psi_with_a_negative_margin(self, mu, psi):
        mults, adjoint = self.s1_multipliers_and_adjoint()
        report = check_transversality(
            BASELINE, replace(mults, **{mu: getattr(mults, mu) + 0.25}), adjoint
        )
        assert not report.passed
        assert report.worst_margin == CertMargin(BASELINE.T, psi, -0.25)
        assert report.violations == (CertViolation(BASELINE.T, psi, 0.25),)

    def test_psi3_is_ranked_in_units_of_the_price(self):
        # psi3 is money per stock: 0.25 off is 0.025 of p = 10, less than psi1's 0.125
        mults, adjoint = self.s1_multipliers_and_adjoint()
        report = check_transversality(
            BASELINE, replace(mults, mu1=mults.mu1 + 0.125, mu3=mults.mu3 + 0.25), adjoint
        )
        assert [v.check for v in report.violations] == ["psi1(T)", "psi3(T)"]
        assert report.worst_margin == CertMargin(BASELINE.T, "psi1(T)", -0.125)

    def test_a_nan_psi_fails_with_an_infinite_deficit(self):
        mults, adjoint = self.s1_multipliers_and_adjoint()
        report = check_transversality(BASELINE, replace(mults, mu2=math.nan), adjoint)
        assert not report.passed
        assert report.worst_margin == CertMargin(BASELINE.T, "psi2(T)", -math.inf)
        [violation] = report.violations
        assert violation.check == "psi2(T)" and math.isnan(violation.magnitude)

    def test_of_equal_slacks_the_first_noted_is_kept(self):
        found = _Findings()
        found.note(1.0, "first", 0.5, 0.0)
        found.note(2.0, "second", 0.5, 0.0)
        assert found.report().worst_margin == CertMargin(1.0, "first", 0.5)
        found.note(3.0, "smaller", 0.25, 0.0)
        found.note(4.0, "equal", 0.25, 0.0)
        assert found.report().worst_margin == CertMargin(3.0, "smaller", 0.25)

    def test_a_nan_slack_is_kept_as_min_keeps_it(self):
        found = _Findings()
        found.note(1.0, "nan", math.nan, 0.0)
        found.note(2.0, "smaller", -1.0, 1.0)
        worst = found.report().worst_margin
        assert (worst.time, worst.check, math.isnan(worst.margin)) == (1.0, "nan", True)
        found = _Findings()
        found.note(1.0, "number", 0.5, 0.0)
        found.note(2.0, "nan", math.nan, 0.0)
        assert found.report().worst_margin == CertMargin(1.0, "number", 0.5)

    def test_no_notes_give_no_margin(self):
        report = _Findings().report()
        assert report.passed and report.violations == ()
        assert report.worst_margin is None

    def test_negative_slack_records_a_violation_with_its_magnitude(self):
        found = _Findings()
        found.note(1.0, "ok", 0.5, 0.0)
        found.note(2.0, "bad", -0.25, 7.0)
        report = found.report()
        assert not report.passed
        assert report.violations == (CertViolation(2.0, "bad", 7.0),)
        assert report.worst_margin == CertMargin(2.0, "bad", -0.25)


class TestBruteForce:
    def test_never_beats_and_comes_near_the_closed_form(self):
        policy, best = brute_force_best(
            BASELINE, State(20.0, 0.0, 10.0), BruteForceGrid(n_t=100)
        )
        assert best <= J_S1 + 1e-4
        # switch-time quantization loses at most (A+K)*w_max*h = 2.5 at h = 0.1
        assert best >= J_S1 - 2.5

    def test_no_stock_case_bound(self):
        policy, best = brute_force_best(
            BASELINE, State(20.0, 10.0, 0.0), BruteForceGrid(n_t=100)
        )
        assert best <= J_S3 + 1e-4
        assert best >= J_S3 - 1.0

    def test_vanishing_horizon(self):
        tiny = replace(BASELINE, T=1e-6)
        policy, best = brute_force_best(tiny, State(20.0, 0.0, 10.0), BruteForceGrid(n_t=10))
        assert best == pytest.approx(20.0, abs=1e-4)
        # selling from stock is still worthwhile for the last instant
        assert best == pytest.approx(
            20.0 + (BASELINE.p * BASELINE.w_max - BASELINE.B) * 1e-6, rel=1e-9
        )

    @pytest.mark.parametrize("T, n_t, message", [
        (BASELINE.T, 0, "n_t must be at least 1"),
        (0.0, 10, "brute force needs a positive horizon"),
    ])
    def test_an_empty_search_grid_is_refused(self, T, n_t, message):
        with pytest.raises(ValueError) as err:
            brute_force_best(replace(BASELINE, T=T), State(20.0, 0.0, 10.0), BruteForceGrid(n_t))
        assert str(err.value) == message

    def test_deterministic_across_runs(self):
        grid = BruteForceGrid(n_t=60)
        p1, b1 = brute_force_best(BASELINE, State(20.0, 10.0, 10.0), grid)
        p2, b2 = brute_force_best(BASELINE, State(20.0, 10.0, 10.0), grid)
        assert b1 == b2
        assert p1 == p2

    def test_search_sells_no_stock_the_firm_does_not_hold(self):
        # a tolerance from the largest state component let cash N0 = 1e10
        # excuse 10 units of stock: the search sold 50 units from an empty
        # store, ended at S = -9.93 and beat the certified optimum by 250
        init = State(1e10, 0.0, 0.0)
        policy, best = brute_force_best(BASELINE, init, BruteForceGrid(n_t=10))
        traj = integrate_exact(BASELINE, init, policy)
        assert min(min(seg.entry.S, seg.exit.S) for seg in segment_rows(traj)) >= -1e-7
        assert best - objective_value(BASELINE, init, ScenarioKind.S1_NO_DEBT_WITH_STOCK) <= 1e-4

    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        n_t=st.sampled_from((5, 10, 20)),
    )
    def test_no_money_scale_lets_the_search_beat_a_certified_optimum(self, kind, seed, k, n_t):
        # money (p, A, K, B, v_max, N0, D0) scaled by 10**k leaves the stock
        # and its bounds as they were; the objective stays below 1e10, where
        # its ulp is under 2e-6
        params, init = draw_scenario_case(random.Random(seed), kind)
        scale = 10.0**k
        params = replace(
            params, p=params.p * scale, A=params.A * scale, K=params.K * scale,
            B=params.B * scale, v_max=params.v_max * scale,
        )
        init = init._replace(N=init.N * scale, D=init.D * scale)
        try:
            cert = certify_policy(params, init, kind)
        except (ValueError, PolicyInfeasibleError):
            reject()  # scaling rounded the draw out of its scenario
        if not cert.passed or abs(cert.synthesis.objective) >= 1e10:
            reject()
        start = cert.synthesis.trajectory.start
        _, best = brute_force_best(params, start, BruteForceGrid(n_t=n_t))
        assert best - cert.synthesis.objective <= 1e-4

    def test_policy_levels_are_python_floats(self):
        policy, _ = brute_force_best(BASELINE, State(20.0, 10.0, 10.0), BruteForceGrid(n_t=10))
        values = [x for seg in policy.segments for x in (seg.value.u, seg.value.v, seg.value.w)]
        assert [type(x) for x in values] == [float] * len(values)

    def test_infeasible_start_raises(self):
        # fixed costs exceed any possible revenue, so zero cash cannot
        # survive the first instant under any control
        params = replace(BASELINE, B=60.0)
        with pytest.raises(NoFeasibleCandidateError):
            brute_force_best(params, State(0.0, 0.0, 0.0), BruteForceGrid(n_t=10))

    def test_custom_levels_are_respected(self):
        grid = BruteForceGrid(n_t=20, v_levels=(0.0, 45.0))
        policy, best = brute_force_best(BASELINE, State(0.0, 10.0, 10.0), grid)
        assert all(seg.value.v in (0.0, 45.0) for seg in policy.segments)

    @pytest.mark.parametrize(
        "levels, message",
        [
            ({"u_levels": (0.0, 5.0, 50.0)}, "u: level 50.0 outside [0, 8.0]"),
            ({"v_levels": (-1.0, 45.0)}, "v: level -1.0 outside [0, 50.0]"),
            ({"w_levels": (0.0, 5.0, 50.0)}, "w: level 50.0 outside [0, 5.0]"),
            ({"w_levels": (math.nan,)}, "w: level nan outside [0, 5.0]"),
        ],
    )
    def test_levels_outside_the_control_box_are_rejected(self, levels, message):
        # a level outside the box is no admissible policy: u = w = 50 would
        # "beat" the certified optimum by 1839
        grid = BruteForceGrid(n_t=10, **levels)
        with pytest.raises(ControlBoundsError) as err:
            brute_force_best(BASELINE, State(20.0, 10.0, 10.0), grid)
        assert str(err.value) == message


# the five baseline scenarios where the search starts: S1, S2, S3, then
# A1 and A2 after their jumps from (20, 10, 10) and (20, 30, 10)
BASELINE_STARTS = [
    State(20.0, 0.0, 10.0),
    State(20.0, 10.0, 10.0),
    State(20.0, 10.0, 0.0),
    State(10.0, 0.0, 10.0),
    State(0.0, 10.0, 10.0),
]


def assert_same_search(params, start, grid):
    """The factorized search returns the broadcast oracle's answer exactly."""
    outcomes = []
    for search in (brute_force_best, grid_brute_force_best):
        try:
            outcomes.append(repr(search(params, start, grid)))
        except NoFeasibleCandidateError:
            outcomes.append("no feasible candidate")
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestFactorizedSearch:
    """The prefix-factorized search against the broadcast search it replaced."""

    @pytest.mark.parametrize("n_t", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("start", BASELINE_STARTS)
    def test_baseline_cases(self, start, n_t):
        assert_same_search(BASELINE, start, BruteForceGrid(n_t=n_t))

    def test_random_draws(self):
        rng = random.Random(20261018)
        for k in range(200):
            params, init = draw_scenario_case(rng, ALL_KINDS[k % 5])
            assert_same_search(params, init, BruteForceGrid(n_t=20 if k % 20 == 0 else 10))

    @pytest.mark.parametrize("v_levels", [(0.0, 45.0), (0.0, 45.0, 45.0, 10.0)])
    def test_custom_levels(self, v_levels):
        grid = BruteForceGrid(n_t=20, v_levels=v_levels)
        assert_same_search(BASELINE, State(0.0, 10.0, 10.0), grid)

    def test_vanishing_horizon(self):
        tiny = replace(BASELINE, T=1e-6)
        assert_same_search(tiny, State(20.0, 0.0, 10.0), BruteForceGrid(n_t=10))

    def test_infeasible_start(self):
        params = replace(BASELINE, B=60.0)
        outcome = assert_same_search(params, State(0.0, 0.0, 0.0), BruteForceGrid(n_t=10))
        assert outcome == "no feasible candidate"

    def test_allocation_peak_is_bounded(self):
        # at n_t = 20 the broadcast search holds every level sequence for
        # every t_b at once (10.3 MB); propagating prefixes needs 1.3 MB
        bound_mb = 4.0
        peaks = []
        for search in (brute_force_best, grid_brute_force_best):
            tracemalloc.start()
            try:
                search(BASELINE, State(20.0, 10.0, 10.0), BruteForceGrid(n_t=20))
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] < bound_mb < peaks[1]


class TestBlockedSearch:
    """The blocked search, pruned against the best so far, against the
    per-t_a search it replaced."""

    @staticmethod
    def assert_same_as_prefix_search(params, start, grid):
        got = brute_force_best(params, start, grid)
        assert repr(got) == repr(prefix_brute_force_best(params, start, grid))

    @pytest.mark.parametrize("start", BASELINE_STARTS)
    def test_baseline_cases_with_pruning(self, start):
        # n_t = 100 takes one t_a per block, and every block after the
        # first skips over half of its two-segment prefixes
        self.assert_same_as_prefix_search(BASELINE, start, BruteForceGrid(n_t=100))

    def test_fine_grid_with_many_ties(self):
        # the S3 start ties 199 candidates at n_t = 200
        self.assert_same_as_prefix_search(
            BASELINE, State(20.0, 10.0, 0.0), BruteForceGrid(n_t=200)
        )

    def test_equal_keys_keep_the_first_candidate(self):
        # -0.0 and 0.0 levels tie with equal tie-break keys but different
        # policies: the one picked carries the per-t_a search's zero signs
        grid = BruteForceGrid(n_t=10, u_levels=(0.0, -0.0, 5.0))
        self.assert_same_as_prefix_search(BASELINE, State(0.0, 10.0, 10.0), grid)

    def test_only_the_winning_policy_is_built(self, monkeypatch):
        built = {verify: 0, oracles: 0}

        def count_calls(module, name):
            build = getattr(module, name)

            def counting(*args):
                built[module] += 1
                return build(*args)

            monkeypatch.setattr(module, name, counting)

        count_calls(verify, "PiecewiseControl")
        count_calls(oracles, "candidate_policy")
        start, grid = State(20.0, 10.0, 10.0), BruteForceGrid(n_t=10)
        got = brute_force_best(BASELINE, start, grid)
        want = prefix_brute_force_best(BASELINE, start, grid)
        assert (built[verify], built[oracles]) == (1, 9)  # the S2 start ties 9 candidates
        assert repr(got) == repr(want)

    @settings(max_examples=60)
    @given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1),
           n_t=st.integers(1, 20))
    def test_the_padded_bound_is_above_every_candidate_of_its_prefix(self, kind, seed, n_t):
        # every candidate's value, in prefix_brute_force_best's per-t_a
        # arithmetic, against its two-segment prefix's bound padded by
        # _BOUND_SLACK as brute_force_best pads it: a prefix pruned below the
        # best holds no candidate above it (the bound ignores feasibility)
        params, init = draw_scenario_case(random.Random(seed), kind)
        start = synthesize_policy(params, init, kind).trajectory.start
        U, V, W = np.array(list(itertools.product(*BruteForceGrid(n_t).levels(params)))).T
        p, r, A, al, K, B, T = (getattr(params, k) for k in ("p", "r", "A", "alpha", "K", "B", "T"))
        slopes, cin = p * W - V - K * U - B, A * U - V
        cuts = np.array([k * T / n_t for k in range(1, n_t)] or [0.0])
        for i, t_a in enumerate(cuts):
            # axes: (t_b, first triple, middle triple, last triple)
            tb = cuts[i:, None, None, None]
            dt1, dt2, dt3 = t_a, tb - t_a, T - tb
            N1 = (start.N + slopes * dt1)[:, None, None]
            D1 = (start.D * np.exp(r * dt1) + cin * (np.expm1(r * dt1) / r))[:, None, None]
            N2 = N1 + slopes[:, None] * dt2
            D2 = D1 * np.exp(r * dt2) + cin[:, None] * (np.expm1(r * dt2) / r)
            n_gain3, d_gain3 = slopes * dt3, cin * (np.expm1(r * dt3) / r)
            D2e = D2 * np.exp(r * dt3)
            value = (N2 + n_gain3) - (D2e + d_gain3)
            bound = N2 - D2e + (n_gain3 - d_gain3).max(axis=3, keepdims=True)
            gain_mag = (abs(n_gain3) + abs(d_gain3)).max(axis=3, keepdims=True)
            magnitude = abs(N2) + abs(D2e) + gain_mag
            excess = value - (bound + verify._BOUND_SLACK * magnitude)
            assert excess.max() <= 0.0, (t_a, excess.max())
