"""Parameter validation and scenario classification."""

import math
import random
import sys
from dataclasses import replace

import pytest

from firmopt import (
    ControlBoundsError,
    ModelParams,
    ScenarioKind,
    State,
    UncoveredInitialConditionError,
    certify_policy,
    classify_scenario,
    synthesize_policy,
    validate_params,
)
from firmopt.model import ControlSegment, ControlValue, PiecewiseControl

from conftest import BASELINE, draw_profitable_params
from oracles import merged


class TestValidateParams:
    def test_baseline_is_clean_and_profitable(self):
        report = validate_params(BASELINE)
        assert report.ok
        assert report.profitable

    def test_profitability_strict_inequality(self):
        # p*w = 50 vs (A+K)*w + B = 30: profitable
        assert validate_params(BASELINE).profitable
        # p*w = 30 vs 30: the boundary case is not profitable
        boundary = replace(BASELINE, p=6.0)
        assert not validate_params(boundary).profitable

    def test_demand_exceeding_capacity_is_flagged(self):
        bad = replace(BASELINE, w_max=9.0, u_max=8.0)
        report = validate_params(bad)
        assert not report.ok
        assert any(field == "w_max" and "u_max" in msg for field, msg in report.violations)

    def test_repayment_capacity_below_purchases_is_flagged(self):
        bad = replace(BASELINE, v_max=9.0)  # A*w_max = 10
        report = validate_params(bad)
        assert any(field == "v_max" for field, msg in report.violations)

    def test_nonpositive_fields_are_flagged(self):
        bad = replace(BASELINE, r=-0.1)
        assert any(field == "r" for field, _ in validate_params(bad).violations)

    def test_debt_growth_beyond_float_range_is_flagged(self):
        limit = math.log(sys.float_info.max)
        init = State(20.0, 10.0, 10.0)
        at_limit = replace(BASELINE, r=1.0, T=limit)
        assert validate_params(at_limit).ok
        synthesize_policy(at_limit, init, ScenarioKind.S2_DEBT_WITH_STOCK)
        beyond = replace(BASELINE, r=1.0, T=800.0)
        assert [f for f, _ in validate_params(beyond).violations] == ["r"]
        with pytest.raises(ValueError, match=r"r: r\*T <= 709.783"):
            synthesize_policy(beyond, init, ScenarioKind.S2_DEBT_WITH_STOCK)

    def test_profitability_equivalence(self):
        rng = random.Random(31)
        boundary = [  # profit_rate() = -4.9e-15, then +1.8e-15
            replace(BASELINE, p=12.788534138743314, A=5.474840655098684,
                    K=6.913079099672355, B=2.664951319351086, w_max=6.652160845865958),
            replace(BASELINE, p=10.26245201728328, A=1.4302060167127721,
                    K=8.489593995678604, B=2.6251833548202748, w_max=7.661368727868479),
        ]
        for params in boundary + [draw_profitable_params(rng) for _ in range(200)]:
            report = validate_params(params)
            assert report.profitable == (params.profit_rate() > 0.0)
        assert [validate_params(params).profitable for params in boundary] == [False, True]


class TestClassifyScenario:
    def test_no_debt_with_stock(self):
        assert (
            classify_scenario(BASELINE, State(20.0, 0.0, 10.0))
            is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )

    def test_debt_with_stock(self):
        assert (
            classify_scenario(BASELINE, State(20.0, 10.0, 10.0))
            is ScenarioKind.S2_DEBT_WITH_STOCK
        )

    def test_debt_without_stock(self):
        assert (
            classify_scenario(BASELINE, State(20.0, 10.0, 0.0))
            is ScenarioKind.S3_DEBT_NO_STOCK
        )

    def test_neither_debt_nor_stock_degenerates_to_immediate_production(self):
        assert (
            classify_scenario(BASELINE, State(20.0, 0.0, 0.0))
            is ScenarioKind.S1_NO_DEBT_WITH_STOCK
        )

    def test_jump_mode_split_on_cash_coverage(self):
        assert (
            classify_scenario(BASELINE, State(20.0, 10.0, 10.0), jump_mode=True)
            is ScenarioKind.A1_TOTAL_REPAYMENT_JUMP
        )
        assert (
            classify_scenario(BASELINE, State(20.0, 30.0, 10.0), jump_mode=True)
            is ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
        )
        # exact tie: total repayment still possible
        assert (
            classify_scenario(BASELINE, State(10.0, 10.0, 10.0), jump_mode=True)
            is ScenarioKind.A1_TOTAL_REPAYMENT_JUMP
        )

    def test_zero_cash_with_debt_is_uncovered_without_jump(self):
        with pytest.raises(UncoveredInitialConditionError):
            classify_scenario(BASELINE, State(0.0, 10.0, 5.0))

    def test_determinism_and_totality(self):
        rng = random.Random(17)
        for _ in range(300):
            N0 = rng.choice([0.0, rng.uniform(0.1, 100.0)])
            D0 = rng.choice([0.0, rng.uniform(0.1, 100.0)])
            S0 = rng.choice([0.0, rng.uniform(0.1, BASELINE.S_max)])
            jump = rng.random() < 0.5
            init = State(N0, D0, S0)
            if not jump and D0 > 0.0 and N0 == 0.0:
                with pytest.raises(UncoveredInitialConditionError):
                    classify_scenario(BASELINE, init, jump)
                continue
            kind1 = classify_scenario(BASELINE, init, jump)
            kind2 = classify_scenario(BASELINE, init, jump)
            assert kind1 is kind2

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError):
            classify_scenario(BASELINE, State(-1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            classify_scenario(BASELINE, State(1.0, 0.0, BASELINE.S_max + 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("component", ["N", "D", "S"])
    def test_non_finite_initial_state_rejected(self, component, value):
        # nan passes the sign checks, and inf in N or D gives an objective
        # of +-inf that the certificate would pass
        init = State(20.0, 0.0, 10.0)._replace(**{component: value})
        for jump_mode in (False, True):
            with pytest.raises(ValueError, match="initial state must be finite"):
                classify_scenario(BASELINE, init, jump_mode)
        with pytest.raises(ValueError, match="initial state must be finite"):
            certify_policy(BASELINE, init, ScenarioKind.S1_NO_DEBT_WITH_STOCK)


class TestState:
    """State is an immutable value triple."""

    def test_attributes_cannot_be_set(self):
        state = State(20.0, 10.0, 10.0)
        with pytest.raises(AttributeError):
            state.N = 0.0

    def test_equal_states_hash_equal(self):
        a, b = State(20.0, 10.0, 10.0), State(20.0, 10.0, 10.0)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_is_embedded_in_error_messages(self):
        text = "State(N=20.0, D=10.0, S=10.0)"
        assert repr(State(20.0, 10.0, 10.0)) == text
        with pytest.raises(ValueError) as err:
            synthesize_policy(
                BASELINE, State(20.0, 10.0, 10.0), ScenarioKind.S1_NO_DEBT_WITH_STOCK
            )
        assert str(err.value).startswith(f"initial state {text} classifies as ")
        with pytest.raises(ValueError) as err:
            classify_scenario(BASELINE, State(-1.0, 0.0, 0.0))
        assert str(err.value) == (
            "initial N and D must be nonnegative, got State(N=-1.0, D=0.0, S=0.0)"
        )

    def test_keyword_construction(self):
        state = State(N=20.0, D=10.0, S=10.0)
        assert state == State(20.0, 10.0, 10.0)
        assert (state.N, state.D, state.S) == (20.0, 10.0, 10.0)

    def test_replace_returns_an_equal_distinct_copy(self):
        # the synthesis memo is keyed on identity, so a copy must be new
        state = State(20.0, 10.0, 10.0)
        copy = state._replace()
        assert copy == state and copy is not state
        assert state._replace(D=0.0) == State(20.0, 0.0, 10.0)


class TestPiecewiseControl:
    def test_partition_is_enforced(self):
        good = PiecewiseControl(
            (
                ControlSegment(0.0, 1.0, ControlValue(0.0, 0.0, 5.0)),
                ControlSegment(1.0, 10.0, ControlValue(5.0, 10.0, 5.0)),
            )
        )
        assert good.breakpoints == (1.0,)
        with pytest.raises(ValueError):
            PiecewiseControl(
                (
                    ControlSegment(0.0, 1.0, ControlValue(0, 0, 5)),
                    ControlSegment(2.0, 10.0, ControlValue(5, 10, 5)),
                )
            )
        with pytest.raises(ValueError):
            PiecewiseControl((ControlSegment(1.0, 10.0, ControlValue(0, 0, 5)),))

    @pytest.mark.parametrize("segments, message", [
        ((), "policy needs at least one segment"),
        ((ControlSegment(0.0, 0.0, ControlValue(0, 0, 5)),
          ControlSegment(0.0, 10.0, ControlValue(5, 10, 5))),
         "segment breakpoints must be strictly increasing"),
    ])
    def test_an_empty_or_zero_length_segment_is_refused(self, segments, message):
        # a lone zero-length segment is the zero horizon; among several it is not
        with pytest.raises(ValueError) as err:
            PiecewiseControl(segments)
        assert str(err.value) == message

    def test_segment_at_is_right_continuous(self):
        policy = PiecewiseControl(
            (
                ControlSegment(0.0, 1.0, ControlValue(0.0, 0.0, 5.0)),
                ControlSegment(1.0, 10.0, ControlValue(5.0, 10.0, 5.0)),
            )
        )
        assert policy.segment_at(1.0).value.u == 5.0
        assert policy.segment_at(0.999).value.u == 0.0
        assert policy.segment_at(10.0).value.u == 5.0
        assert policy.t_final == 10.0

    def test_merged_collapses_equal_neighbours(self):
        policy = PiecewiseControl(
            (
                ControlSegment(0.0, 1.0, ControlValue(0.0, 0.0, 5.0)),
                ControlSegment(1.0, 2.0, ControlValue(0.0, 0.0, 5.0)),
                ControlSegment(2.0, 10.0, ControlValue(5.0, 10.0, 5.0)),
            )
        )
        assert merged(policy).breakpoints == (2.0,)

    def test_bounds_check(self):
        policy = PiecewiseControl(
            (ControlSegment(0.0, 10.0, ControlValue(9.0, 0.0, 5.0)),)
        )
        with pytest.raises(ControlBoundsError):
            policy.check_bounds(BASELINE)
