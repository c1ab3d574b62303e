"""Decision chains: myopic composition over subintervals."""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, strategies as st

from firmopt import (
    ChainJunctionError,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    chain_plan,
    classify_scenario,
    evaluate_chain,
    objective_value,
    synthesize_policy,
)
from firmopt.dynamics import ZERO_SNAP_RTOL

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from test_solver import J_A2, J_S3, T_S_BASE


class TestChainPlan:
    def test_two_period_split_after_stock_runs_out(self):
        plan = chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 5.0, 10.0])
        assert len(plan) == 2
        first, second = plan
        assert first.synthesis.kind is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        # stock and debt are exhausted by t = 5, so the second interval
        # starts producing immediately
        assert second.synthesis.kind is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        assert second.entry_state.S == 0.0
        assert second.entry_state.D == 0.0
        assert second.synthesis.times.t_s == 0.0

    def test_single_interval_reduces_to_base_case(self):
        plan = chain_plan(
            BASELINE, State(20.0, 30.0, 10.0), [0.0, 10.0], jump_mode=True
        )
        _, value = evaluate_chain(BASELINE, plan)
        assert value == pytest.approx(J_A2, rel=1e-12)
        assert plan[0].synthesis.kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP

    def test_stock_is_continuous_at_junctions(self):
        plan = chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 0.7, 5.0, 10.0])
        traj, _ = evaluate_chain(BASELINE, plan)
        for iv, nxt in zip(plan, plan[1:]):
            exit_state = iv.synthesis.trajectory.terminal_state()
            assert exit_state.S == nxt.entry_state.S
            assert traj.sample(iv.t_end).S == exit_state.S

    def test_uncovered_junction_aborts_with_index(self):
        # the first interval drains the cash to exactly zero with debt
        # outstanding; without jump mode the next junction is uncovered
        init = State(4.0, 120.0, 10.0)  # repayment drain is 5 per unit time
        with pytest.raises(ChainJunctionError) as err:
            chain_plan(BASELINE, init, [0.0, 0.8, 10.0])
        assert err.value.junction == 1
        # the same entry state is solvable when junction jumps are allowed
        plan = chain_plan(BASELINE, init, [0.0, 0.8, 10.0], jump_mode=True)
        assert len(plan) == 2

    def test_invalid_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 11.0])
        with pytest.raises(ValueError):
            chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 5.0, 5.0, 10.0])
        with pytest.raises(ValueError):
            chain_plan(BASELINE, State(20.0, 0.0, 10.0), [1.0, 10.0])


class TestEvaluateChain:
    def test_no_debt_split_is_time_consistent(self):
        solve_value = objective_value(
            BASELINE, State(20.0, 0.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )
        rng = random.Random(61)
        for _ in range(25):
            cut = rng.uniform(T_S_BASE + 0.01, BASELINE.T - 0.01)
            plan = chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, cut, BASELINE.T])
            _, value = evaluate_chain(BASELINE, plan)
            assert value == pytest.approx(solve_value, abs=1e-12)

    def test_chain_trajectory_is_feasible(self):
        plan = chain_plan(
            BASELINE, State(20.0, 10.0, 10.0), [0.0, 2.0, 6.0, 10.0]
        )
        traj, _ = evaluate_chain(BASELINE, plan)
        assert traj.feasible

    def test_steady_state_objective_slope(self):
        # with no debt and no stock the firm accumulates profit at the
        # steady operating rate (p - A - K)*w_max - B
        plan = chain_plan(BASELINE, State(20.0, 0.0, 0.0), [0.0, 4.0, 10.0])
        traj, value = evaluate_chain(BASELINE, plan)
        assert value == pytest.approx(20.0 + BASELINE.profit_rate() * BASELINE.T, rel=1e-12)
        mid = traj.sample(4.0).N
        assert mid == pytest.approx(20.0 + BASELINE.profit_rate() * 4.0, rel=1e-12)

    def test_mid_horizon_jump_is_recorded(self):
        # debt too large to clear in the short first interval; jump mode
        # settles what the cash covers at the junction
        init = State(20.0, 120.0, 10.0)
        plan = chain_plan(BASELINE, init, [0.0, 0.2, 10.0], jump_mode=True)
        traj, value = evaluate_chain(BASELINE, plan)
        assert len(traj.jumps) == 2
        junction_jump = traj.jumps[1]
        assert junction_jump.t == 0.2
        assert plan[1].synthesis.jump == replace(junction_jump, t=0.0)  # local clock
        pre_N = plan[1].entry_state.N
        pre_D = plan[1].entry_state.D
        assert junction_jump.delta == -min(pre_N, pre_D)
        assert traj.feasible

    def test_combined_trajectory_is_judged_by_the_first_intervals_tolerance(self):
        # the CSV's feasible column reads tol: it must be the one the
        # post-jump start state set (scale D = 300 - 20), not a later one
        plan = chain_plan(BASELINE, State(20.0, 300.0, 10.0), [0.0, 0.2, 10.0], jump_mode=True)
        traj, _ = evaluate_chain(BASELINE, plan)
        first, second = (iv.synthesis.trajectory for iv in plan)
        assert traj.tol == first.tol == ZERO_SNAP_RTOL * 280.0
        assert second.tol != first.tol
        # tol joins neither equality nor the repr
        assert replace(traj, tol=0.0) == traj
        assert repr(replace(traj, tol=0.0)) == repr(traj)

    def test_jump_chains_end_debt_free_when_clearance_fits(self):
        rng = random.Random(67)
        for _ in range(10):
            D0 = rng.uniform(25.0, 60.0)
            init = State(20.0, D0, rng.uniform(0.0, 20.0))
            plan = chain_plan(BASELINE, init, [0.0, 5.0, 10.0], jump_mode=True)
            last = plan[-1].synthesis
            if last.times.t_d is not None and not last.times.t_d_within_horizon:
                continue
            traj, value = evaluate_chain(BASELINE, plan)
            final = traj.terminal_state()
            assert final.D == pytest.approx(0.0, abs=1e-9)
            assert final.N > 0.0

    def test_no_stock_single_interval_matches_closed_form(self):
        plan = chain_plan(BASELINE, State(20.0, 10.0, 0.0), [0.0, 10.0])
        _, value = evaluate_chain(BASELINE, plan)
        assert value == pytest.approx(J_S3, rel=1e-12)

    @pytest.mark.parametrize(
        "breakpoints",
        [
            # (T - 1.1) + 1.1 rounds an ulp below T
            [0.0, 1.1, 6.386138973938714],
            # (5.3 - 1.1) + 1.1 rounds an ulp below the junction at 5.3
            [0.0, 1.1, 5.3, 6.386138973938714],
        ],
    )
    def test_segments_tile_the_horizon_exactly(self, breakpoints):
        params = replace(BASELINE, T=breakpoints[-1])
        plan = chain_plan(params, State(20.0, 0.0, 10.0), breakpoints)
        traj, value = evaluate_chain(params, plan)
        segs = traj.segments
        assert segs[0].t_start == 0.0
        assert all(a.t_end == b.t_start for a, b in zip(segs, segs[1:]))
        assert traj.t_final == params.T
        assert traj.sample(params.T) == plan[-1].synthesis.trajectory.terminal_state()
        assert value == traj.sample(params.T).N - traj.sample(params.T).D

    @given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_one_interval_chain_matches_a_single_solve(self, kind, seed):
        params, init = draw_scenario_case(random.Random(seed), kind)
        jump_mode = kind in (
            ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        )
        synth = synthesize_policy(params, init, kind)
        plan = chain_plan(params, init, [0.0, params.T], jump_mode=jump_mode)
        (interval,) = plan
        assert interval.synthesis.kind is kind
        assert interval.synthesis.policy == synth.policy
        traj, value = evaluate_chain(params, plan)
        assert traj.terminal_state() == synth.trajectory.terminal_state()
        assert value == synth.trajectory.objective()
        assert value == pytest.approx(synth.objective, rel=1e-9, abs=1e-9)

    @given(
        kind=st.sampled_from(ALL_KINDS),
        jump_mode=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        event=st.integers(0, 1),
        fractions=st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6
        ),
    )
    def test_chains_split_anywhere_reproduce_the_single_solve(
        self, kind, jump_mode, seed, event, fractions
    ):
        # Bellman's principle for the feedback law the policies implement:
        # re-solved from any junction state, the law continues the same
        # trajectory, so a chain split at t_S or t_D and up to six other
        # times ends where the single solve ends, up to rounding
        params, init = draw_scenario_case(random.Random(seed), kind)
        try:
            synth = synthesize_policy(params, init, classify_scenario(params, init, jump_mode))
        except PolicyInfeasibleError:
            reject()  # an A2 debt repaid at v_max instead outlasts the cash
        T = params.T
        events = [t for t in (synth.times.t_s, synth.times.t_d) if t and 0.0 < t < T]
        assume(events)
        cuts = {events[event % len(events)], *(f * T for f in fractions)}
        junctions = sorted(cuts - {0.0, T})
        plan = chain_plan(params, init, [0.0, *junctions, T], jump_mode=jump_mode)
        traj, value = evaluate_chain(params, plan)
        # The tolerance, derived from the junction count m and the state scale M.
        # Every segment end is one closed-form evaluation: n in the single solve,
        # at most n + m in the chain, and the two share no rounding.  Each state
        # component is monotone per segment, so M, the largest |N|, |D|, |S| at
        # the single solve's segment ends, bounds the states throughout, and the
        # debt's two terms stay within M*exp(r*T).  One evaluation rounds r*dt,
        # an exp or expm1 (1 ulp, amplified up to r*T by r*dt's rounding) and at
        # most four more operations, each within eps/2: at most (5 + r*T)*eps
        # relative to those terms.  A debt error carried on to T compounds with
        # the debt, which exp(r*T) covers from the evaluation's start; a stock
        # error moves the re-derived t_S, and each unit missed costs A + K.
        segments = synth.trajectory.segments
        n, m = len(segments), len(junctions)
        M = max(1.0, *(abs(x) for seg in segments for x in (*seg.entry, *seg.exit)))
        eps = sys.float_info.epsilon
        tol = (2 * n + m) * (5.0 + params.r * T) * eps * M * math.exp(params.r * T)
        tol *= max(1.0, params.A + params.K)
        assert abs(value - synth.objective) <= tol
        for chained, single in zip(traj.terminal_state(), synth.trajectory.terminal_state()):
            assert abs(chained - single) <= tol
