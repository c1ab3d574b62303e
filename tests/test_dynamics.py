"""Exact integration, the RK4 oracle, adjoints and event detection."""

import math
import random
import zlib
from dataclasses import replace

import pytest

from firmopt import (
    ControlSegment,
    ControlValue,
    PiecewiseControl,
    ScenarioKind,
    State,
    adjoint_backward,
    integrate_exact,
    multiplier_set_for_scenario,
    synthesize_policy,
)
from firmopt.dynamics import ExpSegment, ExpTerm, PiecewiseExpFn, extrema

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from oracles import AmbiguousRootError, find_zero_crossing, integrate_rk4
from test_solver import T_D_S3, T_S_BASE


def constant_policy(u, v, w, T=10.0):
    return PiecewiseControl((ControlSegment(0.0, T, ControlValue(u, v, w)),))


def synthesized(params, init, kind):
    synth = synthesize_policy(params, init, kind)
    start = synth.jump.post_state if synth.jump else init
    zeros = []
    if synth.times.t_s_within_horizon and synth.times.t_s > 0:
        zeros.append((synth.times.t_s, "S"))
    if (
        synth.times.t_d is not None
        and synth.times.t_d_within_horizon
        and synth.times.t_d > 0
    ):
        zeros.append((synth.times.t_d, "D"))
    return synth, start, zeros


class TestIntegrateExact:
    def test_linear_cash_decay_reports_violation(self):
        traj = integrate_exact(BASELINE, State(1.0, 0.0, 0.0), constant_policy(0, 0, 0))
        assert not traj.feasible
        violation = traj.feasibility_report[0]
        assert violation.constraint == "N>=0"
        assert violation.time == pytest.approx(0.2, abs=1e-9)
        assert violation.magnitude == pytest.approx(49.0, rel=1e-12)

    def test_sell_then_produce_is_feasible_with_exact_stock_zero(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        traj = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)
        assert traj.feasible
        assert traj.sample(T_S_BASE).S == 0.0
        assert traj.sample(BASELINE.T).S == 0.0

    def test_pure_exponential_debt(self):
        traj = integrate_exact(
            BASELINE, State(100.0, 10.0, 0.0), constant_policy(0, 0, 0)
        )
        assert traj.sample(10.0).D == pytest.approx(10.0 * math.e, rel=1e-14)

    def test_continuity_at_breakpoints(self):
        for kind in ALL_KINDS:
            rng = random.Random(zlib.crc32(kind.value.encode()))
            params, init = draw_scenario_case(rng, kind)
            synth, start, zeros = synthesized(params, init, kind)
            traj = integrate_exact(
                params, start, synth.policy, jump=synth.jump, expected_zeros=zeros
            )
            for seg_prev, seg_next in zip(traj.segments, traj.segments[1:]):
                before = seg_prev.state_at(params, seg_prev.t_end)
                after = seg_next.entry
                assert abs(before.N - after.N) < 1e-12 * max(1.0, abs(after.N))
                assert abs(before.D - after.D) < 1e-12 * max(1.0, abs(after.D))
                assert abs(before.S - after.S) < 1e-12 * max(1.0, abs(after.S))

    def test_jump_recorded_and_sample_is_post_jump(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 30.0, 10.0), ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        traj = integrate_exact(
            BASELINE, start, synth.policy, jump=synth.jump, expected_zeros=zeros
        )
        assert len(traj.jumps) == 1
        assert traj.sample(0.0) == State(0.0, 10.0, 10.0)

    def test_out_of_bounds_policy_rejected(self):
        from firmopt import ControlBoundsError

        policy = constant_policy(9.0, 0.0, 5.0)
        with pytest.raises(ControlBoundsError):
            integrate_exact(BASELINE, State(1.0, 0.0, 0.0), policy)


class TestIntegrateRK4:
    def test_matches_exact_on_baseline_policies(self):
        for init, jump, kind in [
            (State(20.0, 0.0, 10.0), False, ScenarioKind.S1_NO_DEBT_WITH_STOCK),
            (State(20.0, 10.0, 10.0), False, ScenarioKind.S2_DEBT_WITH_STOCK),
            (State(20.0, 10.0, 0.0), False, ScenarioKind.S3_DEBT_NO_STOCK),
            (State(20.0, 30.0, 10.0), True, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP),
        ]:
            synth, start, zeros = synthesized(BASELINE, init, kind)
            exact = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)
            rk = integrate_rk4(BASELINE, start, synth.policy, step=1e-3)
            worst = 0.0
            for t, s in zip(rk.times, rk.states):
                e = exact.sample(t)
                worst = max(worst, abs(s.N - e.N), abs(s.D - e.D), abs(s.S - e.S))
            assert worst <= 1e-8

    def test_fourth_order_convergence(self):
        # measured where truncation still dominates rounding
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        exact = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)

        def sup_err(step):
            rk = integrate_rk4(BASELINE, start, synth.policy, step=step)
            return max(
                max(
                    abs(s.N - exact.sample(t).N),
                    abs(s.D - exact.sample(t).D),
                    abs(s.S - exact.sample(t).S),
                )
                for t, s in zip(rk.times, rk.states)
            )

        ratio = sup_err(0.05) / sup_err(0.025)
        assert 12.0 <= ratio <= 20.0

    def test_constant_stock_under_balanced_production(self):
        policy = constant_policy(5.0, 10.0, 5.0)
        rk = integrate_rk4(BASELINE, State(20.0, 0.0, 0.0), policy, step=1e-2)
        assert all(s.S == 0.0 for s in rk.states)

    def test_step_larger_than_shortest_segment_rejected(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.S2_DEBT_WITH_STOCK
        )
        with pytest.raises(ValueError):
            integrate_rk4(BASELINE, start, synth.policy, step=1.0)


class TestAdjointBackward:
    def test_terminal_conditions_reproduced_exactly(self):
        for kind in ALL_KINDS:
            rng = random.Random(1 + zlib.crc32(kind.value.encode()))
            params, init = draw_scenario_case(rng, kind)
            synth = synthesize_policy(params, init, kind)
            mults = multiplier_set_for_scenario(params, kind, synth.times)
            adjoint = adjoint_backward(params, mults)
            psi_T = adjoint.value_at(params.T)
            assert psi_T[0] == mults.mu1 + 1.0
            assert psi_T[1] == mults.mu2 - 1.0
            assert psi_T[2] == mults.mu3 - mults.mu4

    def test_sell_then_produce_shadow_prices(self):
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)
        target = BASELINE.A + BASELINE.K
        for t in (T_S_BASE, 2.0, 5.0, 10.0):
            psi = adjoint.value_at(t)
            assert psi[0] == pytest.approx(1.0, abs=1e-14)
            assert psi[1] == pytest.approx(-1.0, abs=1e-14)
            assert psi[2] == pytest.approx(target, abs=1e-12)
        # before the production start the stock price decays backward
        for t in (0.0, 0.5, 1.0):
            expected = target * math.exp(BASELINE.alpha * (t - T_S_BASE))
            assert adjoint.value_at(t)[2] == pytest.approx(expected, rel=1e-12)

    def test_zero_multipliers_give_homogeneous_solution(self):
        T = BASELINE.T
        zero = PiecewiseExpFn.zero(0.0, T)

        class Mults:
            lambda1 = lambda2 = lambda3 = lambda4 = zero
            mu1 = mu2 = mu3 = mu4 = 0.0

        adjoint = adjoint_backward(BASELINE, Mults())
        for t in (0.0, 3.0, 7.0, 10.0):
            psi = adjoint.value_at(t)
            assert psi[0] == pytest.approx(1.0, abs=1e-14)
            assert psi[1] == pytest.approx(-math.exp(BASELINE.r * (T - t)), rel=1e-14)
            assert psi[2] == 0.0

    def test_backward_rk4_cross_check(self):
        # independently integrate the costate ODEs backward with RK4
        synth = synthesize_policy(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        mults = multiplier_set_for_scenario(
            BASELINE, ScenarioKind.S1_NO_DEBT_WITH_STOCK, synth.times
        )
        adjoint = adjoint_backward(BASELINE, mults)

        def make_rhs(a, b):
            # the multipliers are right-continuous; inside the backward
            # sweep of (a, b] the right edge must read this segment's
            # value, not the next one's
            hi = b - 1e-12 * max(1.0, b) if b < BASELINE.T else b

            def rhs(t, psi):
                t = max(a, min(t, hi))
                lam2 = mults.lambda2.value(t)
                lam3 = mults.lambda3.value(t)
                return (
                    -mults.lambda1.value(t),
                    -BASELINE.r * psi[1] - lam2,
                    BASELINE.alpha * psi[2] - lam3 + mults.lambda4.value(t),
                )

            return rhs

        # integrate from T down to 0, stepping within multiplier segments
        psi = [mults.mu1 + 1.0, mults.mu2 - 1.0, mults.mu3 - mults.mu4]
        cuts = sorted(set(mults.breakpoints) | {0.0, BASELINE.T})
        for b, a in zip(cuts[::-1], cuts[-2::-1]):
            rhs = make_rhs(a, b)
            n = 2000
            h = (a - b) / n  # negative
            t = b
            for _ in range(n):
                mid = t + 0.5 * h
                k1 = rhs(t, psi)
                k2 = rhs(mid, [psi[i] + 0.5 * h * k1[i] for i in range(3)])
                k3 = rhs(mid, [psi[i] + 0.5 * h * k2[i] for i in range(3)])
                k4 = rhs(t + h, [psi[i] + h * k3[i] for i in range(3)])
                psi = [
                    psi[i] + (h / 6.0) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                    for i in range(3)
                ]
                t += h
        expected = adjoint.value_at(0.0)
        for got, want in zip(psi, expected):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestFindZeroCrossing:
    def test_stock_crossing_matches_formula(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        traj = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)
        t = find_zero_crossing(traj, "S", (0.0, BASELINE.T))
        assert t == pytest.approx(T_S_BASE, abs=1e-8)

    def test_debt_crossing_matches_formula(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 10.0, 0.0), ScenarioKind.S3_DEBT_NO_STOCK
        )
        traj = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)
        t = find_zero_crossing(traj, "D", (0.0, BASELINE.T))
        assert t == pytest.approx(T_D_S3, abs=1e-8)

    def test_identically_zero_component_returns_window_start(self):
        synth, start, zeros = synthesized(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        traj = integrate_exact(BASELINE, start, synth.policy, expected_zeros=zeros)
        assert find_zero_crossing(traj, "D", (0.5, 8.0)) == 0.5

    def test_no_crossing_returns_none(self):
        traj = integrate_exact(
            BASELINE, State(100.0, 10.0, 0.0), constant_policy(0.0, 0.0, 0.0)
        )
        assert find_zero_crossing(traj, "D", (0.0, 10.0)) is None

    def test_multiple_crossings_raise(self):
        # debt repaid to zero, re-accumulated on credit, repaid again
        t_first = 10.0 * math.log(500.0 / 440.0)
        policy = PiecewiseControl(
            (
                ControlSegment(0.0, t_first, ControlValue(0.0, 50.0, 0.0)),
                ControlSegment(t_first, 6.0, ControlValue(5.0, 0.0, 0.0)),
                ControlSegment(6.0, 10.0, ControlValue(0.0, 50.0, 0.0)),
            )
        )
        traj = integrate_exact(
            BASELINE, State(500.0, 60.0, 0.0), policy,
            expected_zeros=[(t_first, "D")],
        )
        with pytest.raises(AmbiguousRootError):
            find_zero_crossing(traj, "D", (0.0, 10.0))


class TestPiecewiseExpFn:
    def test_value_and_breakpoints(self):
        fn = PiecewiseExpFn(
            (
                ExpSegment(0.0, 1.0, (ExpTerm(2.0, 0.0),)),
                ExpSegment(1.0, 3.0, (ExpTerm(1.0, -0.5, 1.0),)),
            )
        )
        assert fn.value(0.5) == 2.0
        assert fn.value(1.0) == 1.0
        assert fn.value(3.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert fn.breakpoints == (0.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            fn.value(3.5)


class TestExtrema:
    @staticmethod
    def brute(parts, a, b, n=20001):
        values = [
            sum(w * seg.value(a + k * (b - a) / (n - 1)) for w, seg in parts)
            for k in range(n)
        ]
        return min(values), max(values)

    def test_interior_stationary_point(self):
        # f = 3 - 2*exp(-t) - 2*exp(t/2) peaks where exp(1.5 t) = 2
        seg = ExpSegment(0.0, 4.0, (ExpTerm(3.0, 0.0), ExpTerm(-2.0, -1.0), ExpTerm(-2.0, 0.5)))
        lo, t_lo, hi, t_hi = extrema(0.0, 4.0, (1.0, seg))
        t_star = math.log(2.0) / 1.5
        assert t_hi == pytest.approx(t_star, rel=1e-12)
        assert hi == pytest.approx(seg.value(t_star), rel=1e-12)
        assert (lo, t_lo) == (pytest.approx(seg.value(4.0), rel=1e-12), 4.0)
        b_lo, b_hi = self.brute([(1.0, seg)], 0.0, 4.0)
        assert b_lo >= lo - 1e-12 and b_hi <= hi + 1e-12
        assert hi - b_hi < 1e-8

    def test_stationary_point_outside_the_piece(self):
        # same function on [1, 4]: the peak at 0.462 lies before the piece
        seg = ExpSegment(0.0, 4.0, (ExpTerm(3.0, 0.0), ExpTerm(-2.0, -1.0), ExpTerm(-2.0, 0.5)))
        lo, t_lo, hi, t_hi = extrema(1.0, 4.0, (1.0, seg))
        assert (t_lo, t_hi) == (4.0, 1.0)
        assert hi == pytest.approx(seg.value(1.0), rel=1e-12)
        assert lo == pytest.approx(seg.value(4.0), rel=1e-12)

    def test_single_rate_is_monotone(self):
        seg = ExpSegment(0.0, 2.0, (ExpTerm(1.0, 0.0), ExpTerm(-3.0, 0.7, 2.0)))
        lo, t_lo, hi, t_hi = extrema(0.5, 2.0, (1.0, seg))
        assert (t_lo, t_hi) == (2.0, 0.5)
        assert lo == pytest.approx(-2.0, rel=1e-12)
        assert hi == pytest.approx(1.0 - 3.0 * math.exp(-1.05), rel=1e-12)

    def test_equal_rates_merge_across_parts(self):
        # 2*exp(-0.1 t) - exp(-0.1 (t - 1)) + exp(0.5 t): the two -0.1
        # terms with different anchors merge into one before solving
        s1 = ExpSegment(0.0, 3.0, (ExpTerm(2.0, -0.1), ExpTerm(1.0, 0.5)))
        s2 = ExpSegment(0.0, 3.0, (ExpTerm(1.0, -0.1, 1.0),))
        parts = [(1.0, s1), (-1.0, s2)]
        lo, t_lo, hi, t_hi = extrema(0.0, 3.0, *parts)
        b_lo, b_hi = self.brute(parts, 0.0, 3.0)
        assert lo == pytest.approx(b_lo, abs=1e-9) and hi == pytest.approx(b_hi, abs=1e-9)
        # an exact cancellation leaves a constant: min == max
        lo, _, hi, _ = extrema(0.0, 3.0, (1.0, s2), (-1.0, s2))
        assert lo == hi == 0.0

    def test_linear_part_alone_is_decided(self):
        seg = ExpSegment(1.0, 3.0, (ExpTerm(2.0, 0.0),), lin=-1.5)
        assert extrema(1.5, 3.0, (1.0, seg)) == (-1.0, 3.0, 1.25, 1.5)

    @pytest.mark.parametrize(
        "seg",
        [
            ExpSegment(0.0, 1.0, (ExpTerm(1.0, -0.1),), lin=1.0),
            ExpSegment(0.0, 1.0, (ExpTerm(1.0, -0.1), ExpTerm(1.0, 0.5), ExpTerm(1.0, 2.0))),
        ],
    )
    def test_undecidable_shape_raises(self, seg):
        with pytest.raises(NotImplementedError):
            extrema(0.0, 1.0, (1.0, seg))
