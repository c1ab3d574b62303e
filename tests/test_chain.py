"""Decision chains: myopic composition over subintervals."""

import random

import pytest
from hypothesis import given, strategies as st

from firmopt import (
    ChainJunctionError,
    ScenarioKind,
    State,
    chain_plan,
    evaluate_chain,
    objective_value,
    synthesize_policy,
)

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from test_solver import J_A2, J_S3, T_S_BASE


class TestChainPlan:
    def test_two_period_split_after_stock_runs_out(self):
        plan = chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 5.0, 10.0])
        assert len(plan.intervals) == 2
        first, second = plan.intervals
        assert first.kind is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        # stock and debt are exhausted by t = 5, so the second interval
        # starts producing immediately
        assert second.kind is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        assert second.entry_state.S == 0.0
        assert second.entry_state.D == 0.0
        assert second.times.t_s == 0.0

    def test_single_interval_reduces_to_base_case(self):
        plan = chain_plan(
            BASELINE, State(20.0, 30.0, 10.0), [0.0, 10.0], jump_mode=True
        )
        _, value = evaluate_chain(BASELINE, plan)
        assert value == pytest.approx(J_A2, rel=1e-12)
        assert plan.intervals[0].kind is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP

    def test_stock_is_continuous_at_junctions(self):
        plan = chain_plan(BASELINE, State(20.0, 0.0, 10.0), [0.0, 0.7, 5.0, 10.0])
        traj, _ = evaluate_chain(BASELINE, plan)
        for iv, nxt in zip(plan.intervals, plan.intervals[1:]):
            assert iv.exit_state.S == nxt.entry_state.S
            assert traj.sample(iv.t_end).S == iv.exit_state.S

    def test_uncovered_junction_aborts_with_index(self):
        # the first interval drains the cash to exactly zero with debt
        # outstanding; without jump mode the next junction is uncovered
        init = State(4.0, 120.0, 10.0)  # repayment drain is 5 per unit time
        with pytest.raises(ChainJunctionError) as err:
            chain_plan(BASELINE, init, [0.0, 0.8, 10.0])
        assert err.value.junction == 1
        # the same entry state is solvable when junction jumps are allowed
        plan = chain_plan(BASELINE, init, [0.0, 0.8, 10.0], jump_mode=True)
        assert len(plan.intervals) == 2

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
        pre_N = plan.intervals[1].entry_state.N
        pre_D = plan.intervals[1].entry_state.D
        assert junction_jump.delta_N == -min(pre_N, pre_D)
        assert traj.feasible

    def test_jump_chains_end_debt_free_when_clearance_fits(self):
        rng = random.Random(67)
        for _ in range(10):
            D0 = rng.uniform(25.0, 60.0)
            init = State(20.0, D0, rng.uniform(0.0, 20.0))
            plan = chain_plan(BASELINE, init, [0.0, 5.0, 10.0], jump_mode=True)
            last = plan.intervals[-1]
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

    @given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_one_interval_chain_matches_a_single_solve(self, kind, seed):
        params, init = draw_scenario_case(random.Random(seed), kind)
        jump_mode = kind in (
            ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
            ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP,
        )
        synth = synthesize_policy(params, init, kind)
        plan = chain_plan(params, init, [0.0, params.T], jump_mode=jump_mode)
        (interval,) = plan.intervals
        assert interval.kind is kind
        assert interval.policy == synth.policy
        traj, value = evaluate_chain(params, plan)
        assert traj.terminal_state() == synth.trajectory.terminal_state()
        assert value == synth.trajectory.objective()
        assert value == pytest.approx(synth.objective, rel=1e-9, abs=1e-9)
