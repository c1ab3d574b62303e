"""Switching times, jumps, policy synthesis and closed-form objectives."""

import collections
import math
import random
import sys
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from firmopt import (
    ModelParams,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    certify_policy,
    chain_plan,
    classify_scenario,
    dynamics,
    integrate_exact,
    objective_value,
    stock_depletion_time,
    synthesize_policy,
)
from firmopt.model import MAX_RATE_TIMES_HORIZON, ControlSegment, ControlValue, PiecewiseControl
from firmopt.solver import initial_jump

from conftest import (
    ALL_KINDS,
    BASELINE,
    ZERO_SNAP_DOC,
    assert_segments_join,
    draw_profitable_params,
    draw_scenario_case,
    schema_valid_documents,
)
from oracles import (
    bisect_root,
    closed_form_objective,
    closed_form_trajectory,
    debt_clearance_time,
    objective_debt_with_stock,
    objective_no_debt,
    precision_reference,
    reference_integrate,
)

S2 = ScenarioKind.S2_DEBT_WITH_STOCK
A2 = ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP

# Frozen values, confirmed against the scipy reference oracle (see
# test_switching_times_match_reference below): the stock of the baseline
# empties at 2*ln(2) and the three debt-clearance moments follow.
T_S_BASE = 1.3862943611198906
T_D_S2 = 0.20202707317519447  # (1/r) ln(v_max/(v_max - r*D0)), D0 = 10
T_D_S3 = 0.25317807984289875  # (1/r) ln(40/39), correctly rounded
T_D_A2 = 0.22472855852058593  # (1/r) ln(45/44)

J_S1 = 254.65735902799727
J_S2 = 244.55600536923753
J_S3 = 209.87287680628407
J_A1 = 244.65735902799727
J_A2 = 224.54457389457087

# the S2 debt that the baseline repays at v_max exactly by t_S: t_D = t_S
THETA_S2 = BASELINE.v_max * (-math.expm1(-BASELINE.r * T_S_BASE)) / BASELINE.r


@st.composite
def scenario_cases(draw):
    """(params, init, kind) over the five scenarios, each synthesizable."""
    kind = draw(st.sampled_from(ALL_KINDS))
    params, init = draw_scenario_case(random.Random(draw(st.integers(0, 2**32 - 1))), kind)
    return params, init, kind


class TestStockDepletionTime:
    def test_empty_stock_depletes_immediately(self):
        ev = stock_depletion_time(BASELINE, 0.0)
        assert ev == 0.0
        assert ev < BASELINE.T

    def test_baseline_value(self):
        ev = stock_depletion_time(BASELINE, 10.0)
        assert ev == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_matches_reference_integration(self):
        # oracle: integrate dS/dt = -alpha*S - w_max and bisect the zero
        sample = reference_integrate(
            BASELINE, State(20.0, 0.0, 10.0), lambda t: (0.0, 0.0, 5.0), []
        )
        t_ref = bisect_root(lambda t: sample(t)[2], 0.0, BASELINE.T)
        assert stock_depletion_time(BASELINE, 10.0) == pytest.approx(
            t_ref, abs=1e-9
        )

    def test_beyond_horizon_tag(self):
        threshold = BASELINE.w_max * math.expm1(BASELINE.alpha * BASELINE.T) / BASELINE.alpha
        big = replace(BASELINE, S_max=5000.0)
        ev = stock_depletion_time(big, threshold + 1.0)
        assert ev > big.T
        ev_in = stock_depletion_time(big, threshold - 1.0)
        assert ev_in < big.T

    def test_negative_stock_rejected(self):
        with pytest.raises(ValueError):
            stock_depletion_time(BASELINE, -1.0)


class TestDebtClearanceTime:
    def test_small_debt_with_stock(self):
        ev = debt_clearance_time(BASELINE, 10.0, T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK)
        assert ev == pytest.approx(T_D_S2, abs=1e-15)
        assert ev < BASELINE.T

    def test_small_debt_matches_reference(self):
        sample = reference_integrate(
            BASELINE, State(20.0, 10.0, 10.0), lambda t: (0.0, 50.0, 5.0), []
        )
        t_ref = bisect_root(lambda t: sample(t)[1], 0.0, 1.0)
        assert T_D_S2 == pytest.approx(t_ref, abs=1e-9)

    def test_no_stock_value_and_reference(self):
        ev = debt_clearance_time(BASELINE, 10.0, 0.0, ScenarioKind.S3_DEBT_NO_STOCK)
        assert ev == pytest.approx(T_D_S3, abs=1e-15)
        sample = reference_integrate(
            BASELINE, State(20.0, 10.0, 0.0), lambda t: (5.0, 50.0, 5.0), []
        )
        t_ref = bisect_root(lambda t: sample(t)[1], 0.0, 1.0)
        assert ev == pytest.approx(t_ref, abs=1e-9)

    def test_partial_repayment_value_and_reference(self):
        ev = debt_clearance_time(BASELINE, 10.0, T_S_BASE, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP)
        assert ev == pytest.approx(T_D_A2, abs=1e-15)
        assert ev == pytest.approx(10.0 * math.log(45.0 / 44.0), abs=1e-15)
        sample = reference_integrate(
            BASELINE, State(0.0, 10.0, 10.0), lambda t: (0.0, 45.0, 5.0), []
        )
        t_ref = bisect_root(lambda t: sample(t)[1], 0.0, 1.0)
        assert ev == pytest.approx(t_ref, abs=1e-9)

    def test_vanishing_debt_limit(self):
        for debt0 in (1e-6, 1e-9, 1e-12):
            ev = debt_clearance_time(BASELINE, debt0, T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK)
            assert ev == pytest.approx(debt0 / BASELINE.v_max, rel=1e-3)

    def test_tie_lands_exactly_on_stock_depletion(self):
        theta = BASELINE.v_max * (-math.expm1(-BASELINE.r * T_S_BASE)) / BASELINE.r
        ev = debt_clearance_time(BASELINE, theta, T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK)
        assert ev == T_S_BASE
        # both branch formulas approach the same point
        lo = debt_clearance_time(
            BASELINE, theta * (1 - 1e-9), T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK
        )
        hi = debt_clearance_time(
            BASELINE, theta * (1 + 1e-9), T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK
        )
        assert lo == pytest.approx(T_S_BASE, abs=1e-6)
        assert hi == pytest.approx(T_S_BASE, abs=1e-6)

    def test_partial_repayment_threshold_tie(self):
        surplus = BASELINE.p * BASELINE.w_max - BASELINE.B
        theta = surplus * (-math.expm1(-BASELINE.r * T_S_BASE)) / BASELINE.r
        kind = ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        assert debt_clearance_time(BASELINE, theta, T_S_BASE, kind) == T_S_BASE
        lo = debt_clearance_time(BASELINE, theta * (1 - 1e-9), T_S_BASE, kind)
        hi = debt_clearance_time(BASELINE, theta * (1 + 1e-9), T_S_BASE, kind)
        assert lo == pytest.approx(T_S_BASE, abs=1e-6)
        assert hi == pytest.approx(T_S_BASE, abs=1e-6)

    def test_monotone_in_debt_within_branches(self):
        rng = random.Random(23)
        for _ in range(100):
            params = draw_profitable_params(rng)
            t_s = stock_depletion_time(params, rng.uniform(0.1, 20.0))
            theta = params.v_max * (-math.expm1(-params.r * t_s)) / params.r
            # below-threshold branch
            debts = sorted(rng.uniform(0.01, 0.99) * theta for _ in range(4))
            times = [
                debt_clearance_time(params, d, t_s, ScenarioKind.S2_DEBT_WITH_STOCK)
                for d in debts
            ]
            assert all(a < b for a, b in zip(times, times[1:]))
            # above-threshold branch (cap where repayment still outruns interest)
            cap = (params.v_max - params.A * params.w_max) / params.r
            if cap > theta * 1.01:
                debts = sorted(rng.uniform(theta, min(cap * 0.99, theta * 3)) for _ in range(4))
                times = [
                    debt_clearance_time(params, d, t_s, ScenarioKind.S2_DEBT_WITH_STOCK)
                    for d in debts
                ]
                assert all(a < b for a, b in zip(times, times[1:]))

    def test_unpayable_debt_is_never_within_horizon(self):
        # v_max = 20 keeps the cash slope positive while the debt outlasts T
        params = replace(BASELINE, v_max=20.0)
        ev = debt_clearance_time(params, 100.0, T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK)
        assert ev >= params.T
        # interest outruns repayment entirely: degenerate logarithm
        ev2 = debt_clearance_time(params, 120.0, 0.0, ScenarioKind.S3_DEBT_NO_STOCK)
        assert math.isinf(ev2)

    def test_nonpositive_debt_rejected(self):
        with pytest.raises(ValueError):
            debt_clearance_time(BASELINE, 0.0, T_S_BASE, ScenarioKind.S2_DEBT_WITH_STOCK)

    @pytest.mark.parametrize("regime, t_s, message", [
        (ScenarioKind.S3_DEBT_NO_STOCK, T_S_BASE, "S3 regime requires t_s = 0"),
        (ScenarioKind.S1_NO_DEBT_WITH_STOCK, 0.0,
         "no debt-clearance regime for ScenarioKind.S1_NO_DEBT_WITH_STOCK"),
    ])
    def test_a_regime_without_its_clearance_is_refused(self, regime, t_s, message):
        with pytest.raises(ValueError) as err:
            debt_clearance_time(BASELINE, 10.0, t_s, regime)
        assert str(err.value) == message


class TestInitialJump:
    def test_total_repayment(self):
        rec = initial_jump(State(30.0, 10.0, 5.0))
        assert rec.post_state == State(20.0, 0.0, 5.0)
        assert rec.delta == -10.0

    def test_partial_repayment(self):
        rec = initial_jump(State(20.0, 30.0, 5.0))
        assert rec.post_state == State(0.0, 10.0, 5.0)
        assert rec.delta == -20.0

    def test_exact_cancellation(self):
        rec = initial_jump(State(10.0, 10.0, 0.0))
        assert rec.post_state == State(0.0, 0.0, 0.0)

    def test_requires_outstanding_debt(self):
        with pytest.raises(ValueError):
            initial_jump(State(10.0, 0.0, 5.0))


class TestSynthesizePolicy:
    def test_sell_then_produce_shape(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        assert synth.policy.breakpoints == (T_S_BASE,)
        first, second = synth.policy.segments
        assert (first.value.u, first.value.v, first.value.w) == (0.0, 0.0, 5.0)
        assert (second.value.u, second.value.v, second.value.w) == (5.0, 10.0, 5.0)
        assert synth.jump is None

    def test_no_debt_no_stock_produces_from_start(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 0.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        assert synth.policy.breakpoints == ()
        only = synth.policy.segments[0].value
        assert (only.u, only.v, only.w) == (5.0, 10.0, 5.0)
        assert synth.times.t_s == 0.0

    def test_debt_with_stock_has_two_switches(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
        )
        assert synth.policy.breakpoints == (T_D_S2, T_S_BASE)
        v_levels = [seg.value.v for seg in synth.policy.segments]
        u_levels = [seg.value.u for seg in synth.policy.segments]
        # repayment stops once the debt clears, resuming only to cover
        # raw-material purchases when production starts
        assert v_levels == [50.0, 0.0, 10.0]
        assert u_levels == [0.0, 0.0, 5.0]

    def test_no_stock_single_switch(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 10.0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK
        )
        assert synth.policy.breakpoints == (T_D_S3,)
        v_levels = [seg.value.v for seg in synth.policy.segments]
        assert v_levels == [50.0, 10.0]
        assert all(seg.value.u == 5.0 for seg in synth.policy.segments)

    def test_total_repayment_jump_then_sell(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.A1_TOTAL_REPAYMENT_JUMP
        )
        assert synth.jump is not None
        assert synth.jump.post_state == State(10.0, 0.0, 10.0)
        assert synth.policy.breakpoints == (T_S_BASE,)

    def test_partial_repayment_structure(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 30.0, 10.0), ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        assert synth.jump is not None
        assert synth.jump.post_state == State(0.0, 10.0, 10.0)
        assert synth.policy.breakpoints == (T_D_A2, T_S_BASE)
        segs = synth.policy.segments
        # all sales profit goes to the debt while N = 0 and u = 0
        assert segs[0].value.v == BASELINE.p * BASELINE.w_max - BASELINE.B == 45.0
        assert segs[1].value.v == 0.0
        assert segs[2].value.v == 10.0

    def test_sales_only_variant_when_stock_outlasts_horizon(self):
        params = replace(BASELINE, S_max=5000.0)
        init = State(20.0, 0.0, 2000.0)
        synth = synthesize_policy(params, init, ScenarioKind.S1_NO_DEBT_WITH_STOCK)
        assert not synth.times.t_s_within_horizon
        assert synth.policy.breakpoints == ()
        only = synth.policy.segments[0].value
        assert (only.u, only.v, only.w) == (0.0, 0.0, 5.0)

    def test_max_repayment_variant_when_debt_outlasts_horizon(self):
        params = replace(BASELINE, v_max=20.0)
        synth = synthesize_policy(
            params, State(20.0, 100.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
        )
        assert not synth.times.t_d_within_horizon
        assert synth.policy.breakpoints == (T_S_BASE,)
        assert all(seg.value.v == 20.0 for seg in synth.policy.segments)

    def test_infeasible_repayment_budget_is_reported(self):
        # paying at v_max exhausts the cash before the debt clears
        synth_error = None
        try:
            synthesize_policy(
                BASELINE, State(20.0, 120.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
            )
        except PolicyInfeasibleError as exc:
            synth_error = exc
        assert synth_error is not None
        assert "N>=0" in str(synth_error)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            synthesize_policy(
                BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
            )

    def test_unprofitable_params_rejected(self):
        bad = replace(BASELINE, p=6.0)
        with pytest.raises(ValueError):
            synthesize_policy(bad, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK)

    # v_max == A*w_max: repaying at v_max and at A*w_max are one control,
    # but the debt never clears, so no phase boundary separates them
    @example(case=(replace(BASELINE, v_max=10.0), State(20.0, 20.0, 10.0), S2))
    @example(case=(BASELINE, State(20.0, THETA_S2, 10.0), S2))
    @given(case=scenario_cases())
    def test_neighbouring_controls_differ(self, case):
        # so the policy is already in oracles.merged's canonical form
        policy = synthesize_policy(*case).policy
        for left, right in zip(policy.segments, policy.segments[1:]):
            assert left.value != right.value


class TestClosedFormTrajectory:
    def test_stock_segment_coefficients(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        cft = closed_form_trajectory(
            BASELINE, State(20.0, 0.0, 10.0), synth.policy,
            expected_zeros=((T_S_BASE, "S"),),
        )
        coeff = cft.coefficients(0, "S")
        # S(tau) = ((alpha*S0 + w)/alpha) exp(-alpha*tau) - w/alpha
        assert coeff.c3 == pytest.approx((0.5 * 10.0 + 5.0) / 0.5, rel=1e-15)
        assert coeff.c0 == pytest.approx(-10.0, rel=1e-15)
        assert coeff.c1 == coeff.c2 == 0.0

    def test_pure_exponential_debt_growth(self):
        idle = PiecewiseControl(
            (ControlSegment(0.0, 10.0, ControlValue(0.0, 0.0, 0.0)),)
        )
        cft = closed_form_trajectory(BASELINE, State(100.0, 10.0, 0.0), idle)
        coeff = cft.coefficients(0, "D")
        assert coeff.c0 == 0.0
        assert coeff.c2 == 10.0
        final = cft.trajectory.terminal_state()
        assert final.D == pytest.approx(10.0 * math.e, rel=1e-12)

    def test_max_repayment_debt_coefficients(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
        )
        cft = closed_form_trajectory(
            BASELINE, State(20.0, 10.0, 10.0), synth.policy,
            expected_zeros=((T_D_S2, "D"), (T_S_BASE, "S")),
        )
        coeff = cft.coefficients(0, "D")
        # D(tau) = (v/r)(1 - exp(r*tau)) + D0 exp(r*tau)
        assert coeff.c0 == pytest.approx(BASELINE.v_max / BASELINE.r, rel=1e-15)
        assert coeff.c2 == pytest.approx(10.0 - BASELINE.v_max / BASELINE.r, rel=1e-15)

    def test_continuity_at_breakpoints(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 30.0, 10.0), ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        zeros = ((T_D_A2, "D"), (T_S_BASE, "S"))
        cft = closed_form_trajectory(
            BASELINE, State(20.0, 30.0, 10.0), synth.policy, jump=synth.jump,
            expected_zeros=zeros,
        )
        assert len(cft.trajectory.segments) == 3
        assert_segments_join(cft.trajectory, zeros)


class TestObjectiveValue:
    def test_baseline_values(self):
        cases = [
            (State(20.0, 0.0, 10.0), False, ScenarioKind.S1_NO_DEBT_WITH_STOCK, J_S1),
            (State(20.0, 10.0, 10.0), False, ScenarioKind.S2_DEBT_WITH_STOCK, J_S2),
            (State(20.0, 10.0, 0.0), False, ScenarioKind.S3_DEBT_NO_STOCK, J_S3),
            (State(20.0, 10.0, 10.0), True, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, J_A1),
            (State(20.0, 30.0, 10.0), True, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP, J_A2),
        ]
        for init, jump, kind, expected in cases:
            assert classify_scenario(BASELINE, init, jump) is kind
            assert objective_value(BASELINE, init, kind) == pytest.approx(
                expected, rel=1e-12
            )

    def test_matches_reference_integration_s1(self):
        sample = reference_integrate(
            BASELINE,
            State(20.0, 0.0, 10.0),
            lambda t: (0.0, 0.0, 5.0) if t < T_S_BASE else (5.0, 10.0, 5.0),
            [T_S_BASE],
        )
        n, d, s = sample(BASELINE.T)
        assert J_S1 == pytest.approx(n - d, abs=1e-8)

    def test_matches_reference_integration_a2(self):
        def control(t):
            u = 0.0 if t < T_S_BASE else 5.0
            if t < T_D_A2:
                v = 45.0
            else:
                v = BASELINE.A * u
            return (u, v, 5.0)

        sample = reference_integrate(
            BASELINE, State(0.0, 10.0, 10.0), control, [T_D_A2, T_S_BASE]
        )
        n, d, s = sample(BASELINE.T)
        assert J_A2 == pytest.approx(n - d, abs=1e-8)

    def test_beyond_horizon_falls_back_to_trajectory(self):
        # the debt outlasts the horizon: no closed form applies, and the
        # trajectory's value agrees with the 50-digit reference
        params = replace(BASELINE, v_max=20.0)
        init = State(20.0, 100.0, 10.0)
        synth = synthesize_policy(params, init, S2)
        assert synth.trajectory.terminal_state().D > 0.0
        assert closed_form_objective(params, S2, init.N, synth.times) is None
        reference = precision_reference(params, init, S2).objective
        assert objective_value(params, init, S2) == pytest.approx(float(reference), rel=1e-14)

    def test_formula_equals_trajectory_on_random_draws(self):
        rng = random.Random(41)
        from conftest import ALL_KINDS

        for trial in range(150):
            kind = ALL_KINDS[trial % len(ALL_KINDS)]
            params, init = draw_scenario_case(rng, kind)
            synth = synthesize_policy(params, init, kind)
            start = synth.jump.post_state if synth.jump else init
            formula = closed_form_objective(params, kind, start.N, synth.times)
            assert formula is not None
            value = objective_value(params, init, kind)
            assert value == pytest.approx(formula, rel=1e-12, abs=1e-12)

    def test_synthesis_carries_its_objective_and_trajectory(self):
        rng = random.Random(59)
        from conftest import ALL_KINDS

        S1, S2, A1, A2 = (
            ScenarioKind.S1_NO_DEBT_WITH_STOCK,
            ScenarioKind.S2_DEBT_WITH_STOCK,
            ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        )
        short = replace(BASELINE, T=2.0)  # the stock of S0 = 20 outlasts it
        slow = replace(BASELINE, v_max=20.0)  # the debt of D0 = 100 outlasts it
        cases = [
            (short, State(20.0, 0.0, 20.0), S1),
            (short, State(20.0, 10.0, 20.0), S2),
            (short, State(20.0, 10.0, 20.0), A1),
            (short, State(20.0, 30.0, 20.0), A2),
            (slow, State(20.0, 100.0, 10.0), S2),
            (BASELINE, State(20.0, 500.0, 10.0), A2),
        ]
        for params, init, kind in cases:
            times = synthesize_policy(params, init, kind).times
            assert not (times.t_s_within_horizon and times.t_d_within_horizon)
        for trial in range(100):
            kind = ALL_KINDS[trial % len(ALL_KINDS)]
            cases.append((*draw_scenario_case(rng, kind), kind))
        for params, init, kind in cases:
            synth = synthesize_policy(params, init, kind)
            assert synth.objective == objective_value(params, init, kind)
            assert synth.objective == synth.trajectory.objective()
            # cross-checked against the paper's value where one applies,
            # else against the 50-digit reference
            start = synth.jump.post_state if synth.jump else init
            expected = closed_form_objective(params, kind, start.N, synth.times)
            if expected is None:
                expected = float(precision_reference(params, init, kind).objective)
            assert synth.objective == pytest.approx(expected, rel=1e-9)
            assert synth.trajectory.jumps == (
                (synth.jump,) if synth.jump is not None else ()
            )

    def test_debt_states_vanish_after_clearance(self):
        rng = random.Random(43)
        for kind in (
            ScenarioKind.S2_DEBT_WITH_STOCK,
            ScenarioKind.S3_DEBT_NO_STOCK,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        ):
            params, init = draw_scenario_case(rng, kind, require_t_d_within=True)
            synth = synthesize_policy(params, init, kind)
            start = synth.jump.post_state if synth.jump else init
            assert (synth.times.t_d, "D") in synth.times.zeros
            traj = integrate_exact(
                params, start, synth.policy, jump=synth.jump,
                expected_zeros=synth.times.zeros,
            )
            t_d = synth.times.t_d
            for frac in (0.0, 0.3, 0.7, 1.0):
                t = t_d + frac * (params.T - t_d)
                assert abs(traj.sample(t).D) < 1e-9 * max(1.0, init.D)


class TestReductionIdentities:
    """The no-stock scenario is the stocked one evaluated at t_S = 0."""

    def test_clearance_time_reduces_exactly(self):
        rng = random.Random(47)
        for _ in range(300):
            params = draw_profitable_params(rng)
            cap = 0.9 * (params.v_max - params.A * params.w_max) / params.r
            debt0 = rng.uniform(0.01, cap)
            via_stocked = debt_clearance_time(
                params, debt0, 0.0, ScenarioKind.S2_DEBT_WITH_STOCK
            )
            via_no_stock = debt_clearance_time(
                params, debt0, 0.0, ScenarioKind.S3_DEBT_NO_STOCK
            )
            assert via_stocked == via_no_stock

    def test_objective_reduces_exactly(self):
        rng = random.Random(53)
        for _ in range(300):
            params = draw_profitable_params(rng)
            cap = 0.9 * (params.v_max - params.A * params.w_max) / params.r
            t_d = debt_clearance_time(
                params, rng.uniform(0.01, cap), 0.0, ScenarioKind.S3_DEBT_NO_STOCK
            )
            if not math.isfinite(t_d) or t_d >= params.T:
                continue
            cash0 = rng.uniform(0.1, 100.0)
            # the paper's S3 value: immediate production, v_max until t_D
            no_stock_value = (
                cash0
                + (params.A * params.w_max - params.v_max) * t_d
                + params.w_max * (params.p - params.A - params.K) * params.T
                - params.B * params.T
            )
            assert objective_debt_with_stock(params, cash0, t_d, 0.0) == no_stock_value

    def test_instant_clearance_recovers_the_no_debt_value(self):
        # as t_D -> 0 the debt scenario degenerates into the no-debt one;
        # the value formula must be continuous in that limit
        stocked_at_zero = objective_debt_with_stock(BASELINE, 20.0, 0.0, T_S_BASE)
        no_debt = objective_no_debt(BASELINE, 20.0, T_S_BASE)
        assert stocked_at_zero == pytest.approx(no_debt, rel=1e-15)
        # the production-while-indebted branch expression does NOT have
        # that limit: evaluated at t_D = 0 it deducts raw-material
        # payments over the whole sales phase and sits A*w*t_S too low
        p = BASELINE
        literal_branch = (
            20.0
            + (p.A * p.w_max - p.v_max) * 0.0
            + p.K * p.w_max * T_S_BASE
            + p.w_max * (p.p - p.A - p.K) * p.T
            - p.B * p.T
        )
        assert no_debt - literal_branch == pytest.approx(
            p.A * p.w_max * T_S_BASE, rel=1e-12
        )

    def test_debt_cleared_at_once_leaves_only_purchases(self):
        # D' = r*D - (v_max - A*w_max) clears a debt of 1e-15 after
        # t_D = D0/(v_max - A*w_max) = 2.5e-17 (interest moves that by
        # 1.3e-18 relative), and from there the repayment is A*u
        p, D0 = BASELINE, 1e-15
        synth = synthesize_policy(p, State(20.0, D0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK)
        t_d = D0 / (p.v_max - p.A * p.w_max)
        assert synth.times.t_d == pytest.approx(t_d, rel=1e-15)
        assert synth.times.zeros == [(synth.times.t_d, "D")]
        assert synth.policy.segments == (
            ControlSegment(0.0, synth.times.t_d, ControlValue(p.w_max, p.v_max, p.w_max)),
            ControlSegment(synth.times.t_d, p.T, ControlValue(p.w_max, p.A * p.w_max, p.w_max)),
        )
        # the cash pays the debt off: N(T) = N0 - D0 + profit*T and D(T) = 0
        assert synth.trajectory.terminal_state().D == 0.0
        assert synth.objective == pytest.approx(20.0 - D0 + p.profit_rate() * p.T, rel=1e-15)



class TestClearanceProperties:
    """Properties of the one clearance rule and the values built on it."""

    @given(
        kind=st.sampled_from((S2, A2)),
        seed=st.integers(0, 2**32 - 1),
        rel=st.floats(-1e-12, 1e-12),
    )
    def test_tie_branch_is_continuous(self, kind, seed, rel):
        # debt0 == theta is decided by float equality; debts within 1e-12
        # of theta must land next to the tie's t_D = t_S and its value
        rng = random.Random(seed)
        params = draw_profitable_params(rng)
        t_target = rng.uniform(0.1, 0.9) * params.T
        S0 = min(params.S_max, params.w_max * math.expm1(params.alpha * t_target) / params.alpha)
        t_s = stock_depletion_time(params, S0)
        rate = params.v_max if kind is S2 else params.p * params.w_max - params.B
        theta = rate * (-math.expm1(-params.r * t_s)) / params.r
        # S2 keeps enough cash to repay at v_max until t_S; A2 starts with
        # none, so its post-jump debt is exactly the drawn one
        N0 = rng.uniform(1.0, 200.0) + params.v_max * t_s if kind is S2 else 0.0
        tie = synthesize_policy(params, State(N0, theta, S0), kind)
        assert tie.times.t_d == tie.times.t_s
        near = synthesize_policy(params, State(N0, theta * (1.0 + rel), S0), kind)
        assert abs(near.times.t_d - tie.times.t_d) <= 1e-9 * tie.times.t_d
        assert abs(near.objective - tie.objective) <= 1e-9 * abs(tie.objective)

    @given(
        seed=st.integers(0, 2**32 - 1),
        more_cash=st.floats(0.01, 50.0),
        more_debt=st.floats(0.01, 50.0),
    )
    def test_s2_value_rises_with_cash_and_falls_with_debt(self, seed, more_cash, more_debt):
        params, init = draw_scenario_case(random.Random(seed), S2)
        value = objective_value(params, init, S2)
        assert objective_value(params, init._replace(N=init.N + more_cash), S2) > value
        try:
            indebted = objective_value(params, init._replace(D=init.D + more_debt), S2)
        except PolicyInfeasibleError:
            reject()  # the extra repayment exhausts the cash before t_D
        assert indebted < value


class TestClearanceWalk:
    """synthesize_policy steps the feedback law phase by phase to find t_D;
    the paper's two-branch closed form (oracles.debt_clearance_time) is
    its reference."""

    def test_walk_matches_the_closed_form(self):
        # A clearance by t_S, ties included, and every S3 clearance (S2's
        # second branch at t_S = 0) take the closed form's own operations,
        # so they agree bit for bit.  After t_S the walk carries the debt
        # left at t_S and the closed form folds it into one quotient: each
        # rounds a few times (within 3.1 eps of the 50-digit t_D on 1200
        # draws), and the rounding of the net rate R - c is amplified by
        # its condition number, so they may differ by 4 eps times that.
        seen = collections.Counter()
        for seed in range(240):
            kind = (S2, ScenarioKind.S3_DEBT_NO_STOCK, A2)[seed % 3]
            params, init = draw_scenario_case(random.Random(seed), kind)
            if seed % 4 == 0 and kind is not ScenarioKind.S3_DEBT_NO_STOCK:
                # the debt repaid exactly by t_S, as in test_tie_branch_is_continuous
                t_s = stock_depletion_time(params, init.S)
                rate = params.v_max if kind is S2 else params.p * params.w_max - params.B
                theta = rate * (-math.expm1(-params.r * t_s)) / params.r
                cash = init.N + params.v_max * t_s if kind is S2 else 0.0
                init = State(cash, theta, init.S)
            times = synthesize_policy(params, init, kind).times
            start_debt = init.D - (init.N if kind is A2 else 0.0)
            ref = debt_clearance_time(params, start_debt, times.t_s, kind)
            if times.t_d <= times.t_s or kind is ScenarioKind.S3_DEBT_NO_STOCK:
                seen["tie" if times.t_d == times.t_s else kind.name[:2]] += 1
                assert times.t_d.hex() == ref.hex(), (seed, kind)
            else:
                seen["after t_S"] += 1
                bound = 4 * sys.float_info.epsilon * rate_condition(params, kind) * ref
                assert abs(times.t_d - ref) <= bound, (seed, kind)
        assert all(seen[key] >= 10 for key in ("S2", "S3", "A2", "tie", "after t_S")), seen

    def test_a_tie_clears_at_t_s_where_production_repays_nothing_net(self):
        # v_max = A*w_max: from t_S on the repayment only pays for purchases,
        # so the debt repaid exactly by t_S clears there and any more never does
        params = replace(BASELINE, v_max=BASELINE.A * BASELINE.w_max)
        theta = params.v_max * (-math.expm1(-params.r * T_S_BASE)) / params.r
        times = synthesize_policy(params, State(20.0, theta, 10.0), S2).times
        assert times.t_d == times.t_s == T_S_BASE
        assert times.zeros == [(T_S_BASE, "S"), (T_S_BASE, "D")]
        more = synthesize_policy(params, State(20.0, theta * (1.0 + 1e-9), 10.0), S2)
        assert more.times.t_d == math.inf

    @pytest.mark.parametrize("v_max, D0", [
        (20.0, 120.0),  # r*D = 12 >= net = v_max - A*w_max = 10: interest outruns repayment
        (10.0, 10.0),  # net = v_max - A*w_max = 0: repayment only pays for purchases
        # an ulp below net/r = 100, where r*D rounds to net: log1p(-r*D/net)
        # would be log1p(-1), which raises
        (20.0, math.nextafter(100.0, 0.0)),
    ], ids=["interest_outruns_repayment", "no_net_repayment", "r_times_debt_rounds_to_net"])
    def test_unpayable_debt_is_never_cleared_by_the_synthesis(self, v_max, D0):
        # no phase of the walk clears the debt: t_D = inf, and the policy
        # repays at v_max through the horizon, leaving debt at T
        params = replace(BASELINE, v_max=v_max)
        synth = synthesize_policy(params, State(20.0, D0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK)
        assert synth.times.t_d == math.inf and not synth.times.t_d_within_horizon
        assert synth.times.zeros == []
        assert [seg.value.v for seg in synth.policy.segments] == [v_max]
        assert synth.trajectory.terminal_state().D > 0.0

    def test_a_debt_whose_growth_to_t_s_overflows_is_never_cleared(self):
        # the stock lasts until t_S = 46151 and exp(r*t_S) = exp(2307) is
        # beyond float range: the post-jump debt 9 > (p*w_max - B)/r = 0.18
        # is not repaid by t_S, and what is left only grows from there
        params = replace(BASELINE, r=0.05, alpha=1e-4, B=1e-3, w_max=1e-3, S_max=1e3, T=1.0)
        synth = synthesize_policy(params, State(1.0, 10.0, 1e3), A2)
        assert params.r * synth.times.t_s > MAX_RATE_TIMES_HORIZON
        assert synth.times.t_d == math.inf
        assert debt_clearance_time(params, 9.0, synth.times.t_s, A2) == math.inf
        assert synth.trajectory.terminal_state().D > 9.0


def rate_condition(params: ModelParams, kind: ScenarioKind) -> float:
    """How much rounding in the rates can be amplified: the condition
    number (sum of the terms' magnitudes over the exact value) of the
    profit rate p*w - (A + K)*w - B, and for S2/S3 of the net gain
    v_max - A*w that t_D's log reads.  inf when one of them is 0."""
    with mpmath.workdps(50):
        p, A, K, B, v, w = (
            mpmath.mpf(x)
            for x in (params.p, params.A, params.K, params.B, params.v_max, params.w_max)
        )
        sums = [(p * w + (A + K) * w + B, p * w - (A + K) * w - B)]
        if kind in (S2, ScenarioKind.S3_DEBT_NO_STOCK):
            sums.append((v + A * w, v - A * w))
        return max(float(gross / abs(net)) if net else math.inf for gross, net in sums)


class TestPrecisionReference:
    """The library against the 50-digit restatement of the phase rule
    (tests/oracles.py::precision_reference), over the CLI's fuzz ranges."""

    @settings(max_examples=60)  # most of the time goes to drawing the documents
    @example(doc=ZERO_SNAP_DOC)
    @given(doc=schema_valid_documents())
    def test_switching_times_and_objective_are_accurate(self, doc):
        params = ModelParams(**doc["params"])
        init = State(*(doc["init"][key] for key in ("N0", "D0", "S0")))
        try:
            kind = classify_scenario(params, init, doc["jump_mode"])
            # integrate_exact asserts the snapped zeros: it must never fire
            synth = synthesize_policy(params, init, kind)
        except (ValueError, PolicyInfeasibleError):
            reject()
        ref = precision_reference(params, init, kind)
        kappa = rate_condition(params, kind)
        times = synth.times
        assert abs(times.t_s - ref.t_s) <= 1e-14 * ref.t_s
        if ref.t_d is None or ref.t_d == mpmath.inf:
            assert times.t_d == ref.t_d
        else:
            assert abs(times.t_d - ref.t_d) <= 1e-14 * kappa * ref.t_d
        # the debt left at T compounds its rounding by up to r*T
        scale = max(1.0, abs(ref.objective), init.N, init.D) * (1.0 + params.r * params.T)
        assert abs(synth.objective - ref.objective) <= 1e-14 * kappa * scale


class TestRepaymentCapacityLimit:
    """As v_max grows, repaying the debt at v_max approaches repaying it
    all at t = 0 by the jump (A1), from below."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        stocked=st.booleans(),
    )
    def test_gap_to_the_jump_closes_as_v_max_grows(self, seed, stocked):
        rng = random.Random(seed)
        params = draw_profitable_params(rng)
        D0 = rng.uniform(0.1, 50.0)
        S0 = rng.uniform(0.01, params.w_max * params.T) if stocked else 0.0
        init = State(D0 + rng.uniform(1.0, 200.0), D0, min(S0, params.S_max))
        kind = S2 if stocked else ScenarioKind.S3_DEBT_NO_STOCK
        jump = objective_value(params, init, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP)
        gaps = []
        for v_max in (params.v_max, 10.0 * params.v_max):
            try:
                repaid = objective_value(replace(params, v_max=v_max), init, kind)
            except PolicyInfeasibleError:
                reject()  # repaying at v_max exhausts the cash first
            gaps.append(jump - repaid)
        # the interest paid while repaying shrinks like 1/v_max
        assert 0.0 <= gaps[1] <= gaps[0] / 5.0


class TestSynthesisMemo:
    """synthesize_policy keeps its last result for the very same objects."""

    INIT = State(20.0, 10.0, 10.0)

    @pytest.fixture
    def integrations(self, monkeypatch):
        calls = []
        original = dynamics.integrate_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_exact", counted)
        return calls

    def test_same_objects_return_the_same_result(self):
        params, init = replace(BASELINE), self.INIT._replace()
        first = synthesize_policy(params, init, S2)
        assert synthesize_policy(params, init, S2) is first

    def test_equal_but_distinct_objects_are_synthesized_afresh(self, integrations):
        params, init = replace(BASELINE), self.INIT._replace()
        first = synthesize_policy(params, init, S2)
        for p, i in ((replace(params), init), (params, init._replace())):
            again = synthesize_policy(p, i, S2)
            assert again is not first
            assert again == first
        assert len(integrations) == 3

    def test_another_kind_of_the_same_objects_is_synthesized_afresh(self, integrations):
        # the kept result carries its kind, and a call for another kind misses
        params, init = replace(BASELINE), self.INIT._replace()
        first = synthesize_policy(params, init, S2)
        again = synthesize_policy(params, init, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP)
        assert (first.kind, again.kind) == (S2, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP)
        assert synthesize_policy(params, init, ScenarioKind.A1_TOTAL_REPAYMENT_JUMP) is again
        assert len(integrations) == 2

    def test_signed_zero_horizons_never_share_a_result(self):
        # the two compare equal (-0.0 == 0.0); each result must carry its own
        negative, positive = replace(BASELINE, T=-0.0), replace(BASELINE, T=0.0)
        for params in (negative, positive, negative, positive):
            assert synthesize_policy(params, self.INIT, S2).trajectory.params is params

    def test_infeasible_input_raises_on_every_call(self, integrations):
        # the cash-exhausted repayment rate p*w_max - B = 45 exceeds v_max
        params, init = replace(BASELINE, v_max=40.0), State(20.0, 30.0, 10.0)
        synthesize_policy(replace(BASELINE), self.INIT._replace(), S2)
        for _ in range(3):
            with pytest.raises(PolicyInfeasibleError):
                synthesize_policy(params, init, A2)
        # an infeasible trajectory is rejected after its integration, each time
        params, init = replace(BASELINE), State(0.5, 10.0, 0.0)
        for calls in (1, 2):
            with pytest.raises(PolicyInfeasibleError):
                synthesize_policy(params, init, ScenarioKind.S3_DEBT_NO_STOCK)
            assert len(integrations) == calls + 1

    def test_objective_and_certificate_reuse_the_synthesis(self, integrations):
        params, init = replace(BASELINE), self.INIT._replace()
        synth = synthesize_policy(params, init, S2)
        assert objective_value(params, init, S2) == synth.objective
        assert certify_policy(params, init, S2).synthesis is synth
        assert len(integrations) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_chain_integrates_once_per_interval(self, integrations, k):
        params = replace(BASELINE)
        breakpoints = [params.T * i / k for i in range(k + 1)]
        plan = chain_plan(params, self.INIT._replace(), breakpoints)
        assert len(plan) == k
        assert len(integrations) == k
