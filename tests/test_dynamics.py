"""Exact integration, the RK4 oracle, adjoints and event detection."""

import math
import random
import zlib
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from firmopt import (
    ChainJunctionError,
    ControlBoundsError,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    chain_plan,
    classify_scenario,
    evaluate_chain,
    integrate_exact,
    synthesize_policy,
)
from firmopt.cli import _trajectory_csv
from firmopt.dynamics import (
    ExpSegment,
    ExpTerm,
    PiecewiseExpFn,
    Tolerance,
    _segment_violations,
    adjoint_backward,
    extrema,
    piecewise_from_spans,
)
from firmopt.model import ControlSegment, ControlValue, PiecewiseControl
from firmopt.verify import multiplier_set_for_scenario

from conftest import (
    ALL_KINDS,
    BASELINE,
    assert_segments_join,
    draw_profitable_params,
    draw_scenario_case,
    solve_and_chain,
)
from oracles import (
    AmbiguousRootError,
    advance_state_reference,
    bisect_root,
    breakpoints_of,
    debt_clearance_time,
    find_zero_crossing,
    integrate_rk4,
    rows_inside_the_box,
    segment_rows,
    segment_violations_reference,
    trajectory_csv_reference,
)
from test_solver import T_D_S3, T_S_BASE
from test_verify import BASELINE_CASES


def constant_policy(u, v, w, T=10.0):
    return PiecewiseControl((ControlSegment(0.0, T, ControlValue(u, v, w)),))


def advance_state(params, state, control, dt):
    """The unsnapped closed form: `state` after holding `control` for dt."""
    policy = PiecewiseControl((ControlSegment(0.0, dt, control),))
    return integrate_exact(params, state, policy).terminal_state()


def synthesized(params, init, kind):
    synth = synthesize_policy(params, init, kind)
    start = synth.jump.post_state if synth.jump else init
    return synth, start, synth.times.zeros


class TestIntegrateExact:
    def test_linear_cash_decay_reports_violation(self):
        traj = integrate_exact(BASELINE, State(1.0, 0.0, 0.0), constant_policy(0, 0, 0))
        assert not traj.feasible
        violation = traj.feasibility_report[0]
        assert violation.constraint == "N>=0"
        assert violation.time == pytest.approx(0.2, abs=1e-9)
        assert violation.magnitude == pytest.approx(49.0, rel=1e-12)

    @pytest.mark.parametrize(
        "params, init, controls, constraint, bound",
        [
            # D = 10*exp(t/10) - 50*expm1(t/10) reaches 0 at 10*ln(1.25)
            (BASELINE, State(200.0, 10.0, 0.0), [(0, 5, 0)], "D>=0", 0.0),
            # the same repayment from t = 2, after two idle years
            (BASELINE, State(200.0, 10.0, 0.0), [(0, 0, 0), (0, 5, 0)], "D>=0", 0.0),
            # S = 20*exp(-t/2) - 10 empties at 2*ln(2), mid-way down the decay
            (BASELINE, State(200.0, 0.0, 10.0), [(0, 0, 5)], "S>=0", 0.0),
            # S = 100*exp(-t/2) - 10 empties at 2*ln(10), near the floor
            (BASELINE, State(200.0, 0.0, 90.0), [(0, 0, 5)], "S>=0", 0.0),
            # S = 16 - 16*exp(-t/2) passes S_max = 10 at 2*ln(16/6)
            (replace(BASELINE, S_max=10.0), State(400.0, 0.0, 0.0), [(8, 0, 0)],
             "S<=S_max", 10.0),
        ],
    )
    def test_exponential_crossings_match_bisection(
        self, params, init, controls, constraint, bound
    ):
        cuts = [0.0, 2.0, 10.0] if len(controls) == 2 else [0.0, 10.0]
        policy = PiecewiseControl(tuple(
            ControlSegment(a, b, ControlValue(*c))
            for a, b, c in zip(cuts, cuts[1:], controls)
        ))
        traj = integrate_exact(params, init, policy)
        (violation,) = traj.feasibility_report
        assert violation.constraint == constraint
        comp = constraint[0]
        seg = segment_rows(traj)[-1]
        root = bisect_root(
            lambda t: getattr(traj.sample(t), comp) - bound, seg.t_start, seg.t_end, 1e-15
        )
        assert violation.time == pytest.approx(root, rel=1e-12)

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
            assert len(traj.segments) > 1
            assert_segments_join(traj, zeros)

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
        policy = constant_policy(9.0, 0.0, 5.0)
        with pytest.raises(ControlBoundsError):
            integrate_exact(BASELINE, State(1.0, 0.0, 0.0), policy)

    # selling 5 a year from S0 = 10 empties the stock at 2*ln(2); t1 lies
    # 1e-11 past it, so S(t1) is about -5e-11, inside the stock's snap
    # tolerance 1e-9 * S_max = 1e-7, and nonzero on any libm
    T_EMPTY = 2.0 * math.log(2.0) + 1e-11

    @staticmethod
    def two_segments(t1, first):
        return PiecewiseControl((
            ControlSegment(0.0, t1, ControlValue(*first)),
            ControlSegment(t1, 10.0, ControlValue(5.0, 0.0, 5.0)),
        ))

    @pytest.mark.parametrize("zeros, named", [
        ([(2.0, "S")], "S"),
        # N is checked before S at one instant
        ([(2.0, "S"), (2.0, "N")], "N"),
        # a debt of 12 is no rounding of its terms: a wrong zero, not an ill-conditioned one
        ([(2.0, "D")], "D"),
    ])
    def test_wrong_expected_zero_raises(self, zeros, named):
        init, control = State(200.0, 10.0, 90.0), (0.0, 0.0, 5.0)
        residual = getattr(advance_state(BASELINE, init, ControlValue(*control), 2.0), named)
        assert abs(residual) > 1.0
        with pytest.raises(AssertionError) as err:
            integrate_exact(
                BASELINE, init, self.two_segments(2.0, control), expected_zeros=zeros
            )
        assert str(err.value) == f"{named}({2.0}) = {residual} expected zero"

    def test_an_ill_conditioned_debt_clearance_is_reported_with_its_time(self):
        # a debt within e^-28 of what repaying at v_max can ever clear takes
        # r*t_D = 28 interest times: the closed form's terms near 5.8e14
        # leave D(t_D) = -0.25 of rounding, beyond any finite debt scale
        params, init = replace(BASELINE, T=285.0), State(20.0, 400 * -math.expm1(-28.0), 0.0)
        with pytest.raises(PolicyInfeasibleError) as err:
            synthesize_policy(params, init, ScenarioKind.S3_DEBT_NO_STOCK)
        t_d = debt_clearance_time(params, init.D, 0.0, ScenarioKind.S3_DEBT_NO_STOCK)
        assert str(err.value) == f"debt clearance at t = {t_d} is ill-conditioned: D = -0.25 there"

    @pytest.mark.parametrize("shift, error", [
        (0.005, PolicyInfeasibleError),  # D = -0.375: 3 ulps of D0*exp(r*t) near 5.8e14
        (0.05, AssertionError),  # D = -1.875: 15 ulps, more than rounding explains
    ])
    def test_a_debt_zero_is_ill_conditioned_within_8_ulps_of_the_grown_debt(self, shift, error):
        params, D0 = replace(BASELINE, T=285.0), 400 * -math.expm1(-28.0)
        t = debt_clearance_time(params, D0, 0.0, ScenarioKind.S3_DEBT_NO_STOCK) + shift
        policy = PiecewiseControl((
            ControlSegment(0.0, t, ControlValue(5.0, 50.0, 5.0)),
            ControlSegment(t, 285.0, ControlValue(5.0, 10.0, 5.0)),
        ))
        with pytest.raises(error):
            integrate_exact(params, State(1e4, D0, 0.0), policy, expected_zeros=[(t, "D")])

    def test_residual_within_tolerance_snaps_to_positive_zero(self):
        init, control = State(200.0, 10.0, 10.0), (0.0, 0.0, 5.0)
        raw = advance_state(BASELINE, init, ControlValue(*control), self.T_EMPTY)
        assert 0.0 < -raw.S <= Tolerance.of(BASELINE, init).state.S
        traj = integrate_exact(
            BASELINE, init, self.two_segments(self.T_EMPTY, control),
            expected_zeros=[(self.T_EMPTY, "S")],
        )
        first, second = segment_rows(traj)
        assert bits(first.exit) == bits(raw._replace(S=0.0))
        assert bits(second.entry) == bits(first.exit)

    def test_tied_stock_and_debt_zeros_both_snap(self):
        # D0 is the debt that repaying 5 a year clears at 2*ln(2), so D and
        # S both end near -5e-11 at T_EMPTY
        debt = 5.0 * -math.expm1(-BASELINE.r * 2.0 * math.log(2.0)) / BASELINE.r
        init, control = State(200.0, debt, 10.0), (0.0, 5.0, 5.0)
        raw = advance_state(BASELINE, init, ControlValue(*control), self.T_EMPTY)
        assert raw.D != 0.0 and raw.S != 0.0
        traj = integrate_exact(
            BASELINE, init, self.two_segments(self.T_EMPTY, control),
            expected_zeros=[(self.T_EMPTY, "S"), (self.T_EMPTY, "D")],
        )
        assert bits(segment_rows(traj)[0].exit) == bits(State(raw.N, 0.0, 0.0))


def bits(state):
    return tuple(float(x).hex() for x in (state.N, state.D, state.S))


def assert_same_csv(got, want):
    """got == want as whole strings; on a mismatch, name the first differing
    row rather than let pytest build a diff of two long strings."""
    if got != want:
        rows, ref = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((k for k, pair in enumerate(zip(rows, ref)) if pair[0] != pair[1]),
                 min(len(rows), len(ref)))
        raise AssertionError(f"CSV row {k} differs: {rows[k:k + 1]} != {ref[k:k + 1]} "
                             f"({len(rows)} rows against {len(ref)})")


def assert_sample_and_csv_are_the_closed_form(params, traj, fractions=()):
    grid = [k / 40 for k in range(41)]
    for t in [params.T * f for f in [*fractions, *grid]] + list(traj.breakpoints):
        seg = [s for s in segment_rows(traj) if s.t_start <= t][-1]
        closed = advance_state(params, seg.entry, seg.control, t - seg.t_start)
        reference = advance_state_reference(params, seg.entry, seg.control, t - seg.t_start)
        assert bits(closed) == bits(reference)
        assert bits(traj.sample(t)) == bits(seg.exit if t == seg.t_end else closed)
    assert_same_csv(_trajectory_csv(traj), trajectory_csv_reference(traj))


@settings(max_examples=50)
@given(
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    chained=st.booleans(),
    jump_mode=st.booleans(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_sample_and_csv_are_the_closed_form_bit_for_bit(
    kind, seed, chained, jump_mode, fractions
):
    """Trajectory.sample and the CLI's CSV, which evaluate stored per-segment
    rates, equal the closed form with the rates derived per call."""
    params, init = draw_scenario_case(random.Random(seed), kind)
    if chained:
        cuts = sorted({params.T * f for f in fractions if 0.0 < f < 1.0})
        try:
            plan = chain_plan(params, init, [0.0, *cuts, params.T], jump_mode)
        except ChainJunctionError:
            assume(False)
        traj, _ = evaluate_chain(params, plan)
    else:
        traj = synthesize_policy(params, init, kind).trajectory
    assert_sample_and_csv_are_the_closed_form(params, traj, fractions)


#: the horizon whose last CSV grid time 999*T/999 rounds above T
OVERSHOOT_T = 4.57920600019801
#: a junction that is also the CSV grid time 333*T/999 at T = 10
GRID_JUNCTION = 333 * 10.0 / 999


@pytest.mark.parametrize(
    "T, init, jump_mode, breakpoints, jumps",
    [
        pytest.param(0.0, (20.0, 10.0, 10.0), False, None, 0, id="zero-horizon"),
        pytest.param(0.0, (20.0, 10.0, 10.0), True, None, 1, id="zero-horizon-jump"),
        # the closed form at dt = 0 turns the entry's -0.0 debt into 0.0
        pytest.param(10.0, (20.0, -0.0, 10.0), False, None, 0, id="negative-zero-debt"),
        pytest.param(
            10.0, (20.0, 10.0, 10.0), False, [0.0, GRID_JUNCTION, 10.0], 0,
            id="junction-on-a-grid-time",
        ),
        pytest.param(
            10.0, (20.0, 120.0, 10.0), True, [0.0, 0.2, 10.0], 2, id="junction-jump"
        ),
        pytest.param(OVERSHOOT_T, (20.0, 10.0, 10.0), False, None, 0, id="overshoot"),
        # T/999 below the least subnormal float: k*T/999 repeats grid times
        pytest.param(1e-321, (20.0, 10.0, 10.0), False, None, 0, id="subnormal-horizon"),
        # the jump clears the debt and no stock is kept: D = S = +0.0 after it
        pytest.param(10.0, (20.0, 10.0, 0.0), True, None, 1, id="jump-into-held-zeros"),
        pytest.param(
            OVERSHOOT_T, (20.0, 10.0, 10.0), False, [0.0, 2.0, OVERSHOOT_T], 0,
            id="overshoot-chain",
        ),
    ],
)
def test_csv_edge_cases_match_the_row_by_row_reference(
    T, init, jump_mode, breakpoints, jumps
):
    """The segment-at-a-time CSV writer against the oracle that looks each
    row up on its own, on the times where a forward walk could go wrong."""
    assert 999 * OVERSHOOT_T / 999 > OVERSHOOT_T
    assert GRID_JUNCTION in {k * 10.0 / 999 for k in range(1000)}
    params, init = replace(BASELINE, T=T), State(*init)
    if breakpoints is None:
        kind = classify_scenario(params, init, jump_mode)
        traj = synthesize_policy(params, init, kind).trajectory
    else:
        traj, _ = evaluate_chain(params, chain_plan(params, init, breakpoints, jump_mode))
    assert len(traj.jumps) == jumps
    assert_sample_and_csv_are_the_closed_form(params, traj)


def test_csv_keeps_a_negative_zero_entry_held_by_a_negative_zero_rate():
    # only -0.0 at a -0.0 rate stays -0.0: c = A*(-0.0) - 0.0 and q = -0.0 - 0.0
    traj = integrate_exact(BASELINE, State(20.0, -0.0, -0.0), constant_policy(-0.0, 0.0, 0.0))
    [(_, _, _, D, S)] = traj.walk([0.0, 5.0, 10.0])
    assert [math.copysign(1.0, x) for x in D + S] == [-1.0] * 6
    csv = _trajectory_csv(traj)
    assert_same_csv(csv, trajectory_csv_reference(traj))
    assert all(row.split(",")[2:4] == ["-0", "-0"] for row in csv.splitlines()[1:])


#: (u, v, w) giving each sign pair of zero rates (c, q) = (A*u - v, u - w)
ZERO_RATE_CONTROLS = {
    "c=-0,q=-0": (-0.0, 0.0, 0.0), "c=-0,q=+0": (-0.0, 0.0, -0.0),
    "c=+0,q=-0": (-0.0, -0.0, 0.0), "c=+0,q=+0": (0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("rates", ZERO_RATE_CONTROLS)
@pytest.mark.parametrize("D0, S0", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)])
def test_sample_and_walk_keep_the_closed_forms_signed_zeros(rates, D0, S0):
    # held (+0.0 entry) or not, D and S read the closed form's bits at each
    # segment end and just inside it: a zero rate of either sign keeps +0.0
    u, v, w = ZERO_RATE_CONTROLS[rates]
    c, q = BASELINE.A * u - v, u - w
    assert [math.copysign(1.0, x) for x in (c, q)] == [
        -1.0 if part.startswith(("c=-", "q=-")) else 1.0 for part in rates.split(",")
    ]
    control = ControlValue(u, v, w)
    policy = PiecewiseControl(
        (ControlSegment(0.0, 5.0, control), ControlSegment(5.0, 10.0, control))
    )
    traj = integrate_exact(BASELINE, State(20.0, D0, S0), policy)
    times = [0.0, math.nextafter(0.0, 1.0), math.nextafter(5.0, 0.0), 5.0,
             math.nextafter(5.0, 10.0), math.nextafter(10.0, 0.0), 10.0]
    want = []
    for t in times:
        seg = [s for s in segment_rows(traj) if s.t_start <= t][-1]
        want.append(bits(seg.exit if t == seg.t_end else advance_state_reference(
            BASELINE, seg.entry, seg.control, t - seg.t_start)))
    assert [bits(traj.sample(t)) for t in times] == want
    walked = [  # None: held at +0.0
        (N, 0.0 if D is None else D[k], 0.0 if S is None else S[k])
        for _, ts, Ns, D, S in traj.walk(times) for k, N in enumerate(Ns)
    ]
    assert [bits(State(*x)) for x in walked] == want
    # only a -0.0 entry at a -0.0 rate stays -0.0, at every time
    for x0, rate, col in ((D0, c, 1), (S0, q, 2)):
        negative = math.copysign(1.0, x0) < 0.0 and math.copysign(1.0, rate) < 0.0
        assert {w[col] for w in want} == {(-0.0).hex() if negative else 0.0.hex()}


def test_csv_writes_the_full_pre_jump_state_before_held_zeros():
    init = State(20.0, 10.0, 0.0)
    traj = synthesize_policy(BASELINE, init, classify_scenario(BASELINE, init, True)).trajectory
    [(_, _, _, D, S)] = traj.walk([0.0, 10.0])
    assert D is None and S is None  # held at +0.0 from the jump on
    csv = _trajectory_csv(traj)
    assert_same_csv(csv, trajectory_csv_reference(traj))
    assert csv.splitlines()[1:3] == ["0,20,10,0,5,10,5,true", "0,10,0,0,5,10,5,true"]


@pytest.mark.parametrize("init, control", [
    ((20.0, 10.0, 10.0), (0.0, 0.0, 0.0)),  # idling: N < 0 from t = 4
    ((20.0, 10.0, 10.0), (0.0, 50.0, 5.0)),  # over-repaying: D < 0, then N < 0
    ((20.0, 0.0, 90.0), (8.0, 0.0, 0.0)),  # stockpiling: S > S_max
    ((20.0, 0.0, 0.0), (0.0, 0.0, 5.0)),  # selling from an empty store, D held
], ids=["cash", "debt", "store", "stock"])
def test_csv_marks_each_row_of_a_breaking_segment(init, control):
    # the row-by-row judge passes the start and fails the end; the column
    # is the trajectory's one verdict in every row
    traj = integrate_exact(BASELINE, State(*init), constant_policy(*control))
    csv = _trajectory_csv(traj)
    assert_same_csv(csv, trajectory_csv_reference(traj))
    inside = rows_inside_the_box(traj)
    assert inside[0] and not inside[-1] and not traj.feasible
    assert {row.rsplit(",", 1)[1] for row in csv.splitlines()[1:]} == {"false"}


@settings(max_examples=50)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_every_csv_row_agrees_with_the_trajectorys_verdict(kind, seed):
    """The CSV's feasible column is the trajectory's one verdict; judging
    each row's state on its own says the same on every trajectory the CLI
    writes, solved once or chained: every row lies inside the box."""
    for traj in solve_and_chain(kind, seed):
        if traj is not None:
            assert traj.feasible and all(rows_inside_the_box(traj))


def test_csv_skips_zero_length_segments():
    # zero-length copies at the first switch and at T: a time there reads
    # the last segment starting at it, as sample and segment_at do
    kind = ScenarioKind.S2_DEBT_WITH_STOCK
    traj = synthesize_policy(BASELINE, State(20.0, 10.0, 10.0), kind).trajectory
    rows = segment_rows(traj)
    pinned = [tuple(s._replace(t_start=s.t_end, **s.exit._asdict())) for s in (rows[0], rows[-1])]
    spliced = replace(traj, segments=(traj.segments[0], pinned[0], *traj.segments[1:], pinned[1]))
    csv = _trajectory_csv(spliced)
    assert_same_csv(csv, trajectory_csv_reference(spliced))
    assert_same_csv(csv, _trajectory_csv(traj))


class TestSampleDomain:
    """Trajectory.sample on [0, T] exactly, with the snapped exit at T."""

    T_EMPTY = TestIntegrateExact.T_EMPTY

    def emptied_at_horizon(self):
        # the stock empties exactly at T, so the exit at T is a snapped state
        init = State(200.0, 10.0, 10.0)
        traj = integrate_exact(
            BASELINE, init, constant_policy(0.0, 0.0, 5.0, T=self.T_EMPTY),
            expected_zeros=[(self.T_EMPTY, "S")],
        )
        return init, traj

    @pytest.mark.parametrize("t", [
        math.nextafter(0.0, -1.0), math.nextafter(T_EMPTY, math.inf), math.nan,
    ])
    def test_outside_the_horizon_raises_with_the_exact_message(self, t):
        _, traj = self.emptied_at_horizon()
        with pytest.raises(ValueError) as err:
            traj.sample(t)
        assert str(err.value) == f"t = {t} outside [0, {self.T_EMPTY}]"

    def test_horizon_gives_the_snapped_exit(self):
        init, traj = self.emptied_at_horizon()
        raw = advance_state(BASELINE, init, ControlValue(0.0, 0.0, 5.0), self.T_EMPTY)
        assert raw.S != 0.0
        assert traj.sample(self.T_EMPTY) is segment_rows(traj)[-1].exit
        assert bits(traj.sample(self.T_EMPTY)) == bits(raw._replace(S=0.0))

    def test_negative_zero_gives_the_first_segments_state(self):
        init, traj = self.emptied_at_horizon()
        assert traj.sample(-0.0) == segment_rows(traj)[0].entry == init
        assert type(traj.sample(-0.0)) is State

    def test_walk_and_csv_end_on_the_snapped_exit(self):
        _, traj = self.emptied_at_horizon()
        [(control, ts, *columns)] = traj.walk([0.0, self.T_EMPTY])
        first, last = (State(*row) for row in zip(*columns))
        assert control is segment_rows(traj)[-1].control and ts == [0.0, self.T_EMPTY]
        assert bits(first) == bits(traj.sample(0.0))
        assert bits(last) == bits(segment_rows(traj)[-1].exit)
        csv = _trajectory_csv(traj)
        assert_same_csv(csv, trajectory_csv_reference(traj))
        assert csv.endswith(",0,0,0,5,true\n")

    @pytest.mark.parametrize("times", [
        [math.nextafter(0.0, -1.0), 1.0], [1.0, math.nextafter(T_EMPTY, math.inf)],
    ])
    def test_walk_outside_the_horizon_raises(self, times):
        _, traj = self.emptied_at_horizon()
        with pytest.raises(ValueError, match=r"times outside \[0, "):
            list(traj.walk(times))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_start_is_the_post_jump_state_the_tolerance_is_built_from(kind):
    """Trajectory.start, single solve and 3-interval chain alike: the state
    after any jump at t = 0, bit for bit, and the one Tolerance reads."""
    jump_mode = kind in (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP,
                         ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP)
    chains = 0
    for seed in range(8):
        params, init = draw_scenario_case(random.Random(seed), kind)
        synth = synthesize_policy(params, init, kind)
        assert (synth.jump is not None) == jump_mode
        start = synth.jump.post_state if jump_mode else init
        trajs = [synth.trajectory]
        T = params.T
        try:
            plan = chain_plan(params, init, [0.0, T / 3.0, 2.0 * T / 3.0, T], jump_mode)
        except ChainJunctionError:
            plan = None
        if plan is not None:
            first = plan[0].synthesis
            assert bits(first.jump.post_state if jump_mode else init) == bits(start)
            trajs.append(evaluate_chain(params, plan)[0])
            chains += 1
        for traj in trajs:
            assert type(traj.start) is State and bits(traj.start) == bits(start)
            assert Tolerance.of(params, traj.start) == traj.tol
    assert chains > 0


def start_branch(params, seg, tol):
    """(label, branch) of each breach on `seg`: where its start time comes
    from in segment_violations_reference."""
    dt = seg.t_end - seg.t_start
    (N0, D0, S0), (N1, D1, S1) = seg.entry, seg.exit
    out = []
    for label, k, e0, e1, bound_tol in (
        ("N>=0", 0.0, -N0, -N1, tol.N),
        ("D>=0", params.r, -D0, -D1, tol.D),
        ("S>=0", -params.alpha, -S0, -S1, tol.S),
        ("S<=S_max", -params.alpha, S0 - params.S_max, S1 - params.S_max, tol.S),
    ):
        if max(e0, e1) <= bound_tol:
            continue
        if e0 >= 0.0:
            branch = "entry"
        elif k == 0.0:
            branch = "linear"
        elif e0 / (e0 - e1) * math.expm1(k * dt) > -0.5:
            branch = "log1p"
        else:
            branch = "log"
        out.append((label, branch))
    return out


@st.composite
def violation_cases(draw):
    """Random params, a state that may already break a bound, and a policy
    of 1-3 segments with controls anywhere in the box."""
    params = draw_profitable_params(random.Random(draw(st.integers(0, 2**32 - 1))))
    # a small storage cap lets production fill it mid-segment
    params = replace(params, S_max=params.S_max * draw(st.floats(0.01, 1.0)))
    init = State(
        draw(st.floats(-20.0, 300.0)),
        draw(st.floats(-20.0, 300.0)),
        draw(st.floats(-0.2, 1.2)) * params.S_max,
    )
    cuts = sorted({params.T * c for c in draw(st.lists(st.floats(0.01, 0.99), max_size=2))})
    times = [0.0, *cuts, params.T]
    box = (params.u_max, params.v_max, params.w_max)
    policy = PiecewiseControl(tuple(
        ControlSegment(a, b, ControlValue(*(
            draw(st.floats(0.0, 1.0)) * hi for hi in box
        )))
        for a, b in zip(times, times[1:])
    ))
    return params, init, policy


def violation_bits(report):
    return [(v.time.hex(), v.constraint, v.magnitude.hex()) for v in report]


@pytest.mark.parametrize("end", ["entry", "exit"])
@pytest.mark.parametrize("comp", ["N", "D", "S"])
def test_a_nan_end_takes_the_full_violation_scan(comp, end):
    # the inside-every-bound shortcut is false for NaN, so a NaN end is
    # reported (or not) exactly as the reference's per-bound scan does
    init = State(20.0, 10.0, 10.0)
    [seg] = segment_rows(integrate_exact(BASELINE, init, constant_policy(5.0, 10.0, 5.0)))
    if end == "entry":  # the entry state is the row's N, D and S
        seg = seg._replace(**{comp: math.nan})
    else:
        seg = seg._replace(exit=seg.exit._replace(**{comp: math.nan}))
    tol = Tolerance.of(BASELINE, init).state
    got = _segment_violations(BASELINE, seg, tol)
    assert violation_bits(got) == violation_bits(segment_violations_reference(BASELINE, seg, tol))
    assert bool(got) == (end == "entry")


def test_violation_report_matches_the_reference_bit_for_bit():
    """integrate_exact's feasibility report equals the per-component
    reference on every draw, and the draws reach every bound and every way
    a breach's start time is found."""
    reached = set()

    @settings(max_examples=300)
    @given(case=violation_cases())
    def matches(case):
        params, init, policy = case
        traj = integrate_exact(params, init, policy)
        tol = Tolerance.of(params, init).state
        expected = sorted(
            (v for seg in segment_rows(traj)
             for v in segment_violations_reference(params, seg, tol)),
            key=lambda v: (v.time, v.constraint),
        )
        assert violation_bits(traj.feasibility_report) == violation_bits(expected)
        for seg in segment_rows(traj):
            for label, branch in start_branch(params, seg, tol):
                reached.update((label, branch))

    matches()
    assert reached >= {
        "N>=0", "D>=0", "S>=0", "S<=S_max", "entry", "linear", "log1p", "log"
    }


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
            for _ in range(20):
                params, init = draw_scenario_case(rng, kind)
                synth = synthesize_policy(params, init, kind)
                mults = multiplier_set_for_scenario(params, kind, synth.times)
                adjoint = adjoint_backward(params, mults)
                psi_T = adjoint.value_at(params.T)
                assert psi_T[0] == mults.mu1 + 1.0
                assert psi_T[1] == mults.mu2 - 1.0
                assert psi_T[2] == mults.mu3 - mults.mu4

    def test_zero_horizon_is_one_instant(self):
        # at T = 0 the one piece [0, 0] carries the terminal conditions
        params = replace(BASELINE, T=0.0)
        kind = ScenarioKind.S3_DEBT_NO_STOCK
        synth = synthesize_policy(params, State(20.0, 10.0, 0.0), kind)
        mults = multiplier_set_for_scenario(params, kind, synth.times)
        psi = adjoint_backward(params, mults).value_at(0.0)
        assert psi == (mults.mu1 + 1.0, mults.mu2 - 1.0, mults.mu3 - mults.mu4)

    def test_constant_lambda1_is_resonant(self):
        # psi1' = -lambda1 has rate k = 0, so a constant forcing would need a
        # linear term, which the closed-form step does not carry
        T = BASELINE.T
        zero = PiecewiseExpFn.constant(0.0, 0.0, T)

        class Mults:
            lambda1 = PiecewiseExpFn.constant(0.5, 0.0, T)
            lambda2 = lambda3 = lambda4 = zero
            mu1 = mu2 = mu3 = mu4 = 0.0

        with pytest.raises(NotImplementedError):
            adjoint_backward(BASELINE, Mults())

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
        zero = PiecewiseExpFn.constant(0.0, 0.0, T)

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
        # independently integrate the costate ODEs backward with RK4 for
        # every scenario; A2's exponential lambda1 and the two-term lambda3
        # of S3 (and of S2 when debt outlasts the stock) exercise the merged
        # boundary term
        for init, _, kind in BASELINE_CASES:
            synth = synthesize_policy(BASELINE, init, kind)
            mults = multiplier_set_for_scenario(BASELINE, kind, synth.times)
            adjoint = adjoint_backward(BASELINE, mults)
            psi = self.rk4_backward(mults)
            expected = adjoint.value_at(0.0)
            for got, want in zip(psi, expected):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), kind

    @staticmethod
    def rk4_backward(mults):
        """psi(0) by RK4 from the terminal conditions, 2000 steps per piece."""

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
        lams = (mults.lambda1, mults.lambda2, mults.lambda3, mults.lambda4)
        cuts = breakpoints_of(*lams)  # 0 and T included
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
        return psi


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


class TestExpRecords:
    """ExpTerm and ExpSegment are immutable value records."""

    def test_repr(self):
        term = ExpTerm(2.0, -0.5, 1.0)
        assert repr(term) == "ExpTerm(coef=2.0, rate=-0.5, anchor=1.0)"
        assert repr(ExpSegment(0.0, 1.0, (term,))) == (
            "ExpSegment(t_start=0.0, t_end=1.0, "
            "terms=(ExpTerm(coef=2.0, rate=-0.5, anchor=1.0),))"
        )

    def test_equal_records_hash_equal(self):
        a, b = ExpTerm(2.0, -0.5, 1.0), ExpTerm(2.0, -0.5, 1.0)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != ExpTerm(2.0, -0.5, 0.0)
        s, t = ExpSegment(0.0, 1.0, (a,)), ExpSegment(0.0, 1.0, (b,))
        assert s == t and s is not t and hash(s) == hash(t)
        assert len({s, t}) == 1

    def test_keyword_and_positional_construction_and_defaults(self):
        assert ExpTerm(coef=2.0, rate=0.0) == ExpTerm(2.0, 0.0, 0.0)
        assert ExpTerm(3.0, 0.1).anchor == 0.0
        seg = ExpSegment(t_start=0.0, t_end=1.0)
        assert seg == ExpSegment(0.0, 1.0, ()) and seg.terms == ()
        assert seg.value(0.5) == 0.0

    def test_attributes_cannot_be_set(self):
        term, seg = ExpTerm(2.0, 0.0), ExpSegment(0.0, 1.0)
        with pytest.raises(AttributeError):
            term.coef = 1.0
        with pytest.raises(AttributeError):
            seg.terms = (term,)

    def test_spans_merge_neighbours_with_equal_terms(self):
        first, second = (ExpTerm(1.0, -0.1, 2.0),), (ExpTerm(1.0, -0.1, 2.0),)
        other = (ExpTerm(3.0, 0.0),)
        fn = piecewise_from_spans(
            [(0.0, 1.0, first), (1.0, 2.0, second), (2.0, 2.0, other), (2.0, 3.0, other)]
        )
        assert fn.segments == (ExpSegment(0.0, 2.0, first), ExpSegment(2.0, 3.0, other))


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

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (2.0, 2.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_a_constant_ties_at_the_times_min_and_max_keep(self, a, b):
        # no live rate (a zero amplitude is not one): every time ties, and
        # the result keeps the times min and max pick from the two ends
        seg = ExpSegment(0.0, 3.0, (ExpTerm(1.5, 0.0), ExpTerm(0.0, 0.5)))
        (lo, t_lo), (hi, t_hi) = min([(3.0, a), (3.0, b)]), max([(3.0, a), (3.0, b)])
        got = extrema(a, b, (2.0, seg))
        assert [float(x).hex() for x in got] == [x.hex() for x in (lo, t_lo, hi, t_hi)]
        assert (got[1], got[3]) == (a, b)

    def test_undecidable_shape_raises(self):
        seg = ExpSegment(0.0, 1.0, (ExpTerm(1.0, -0.1), ExpTerm(1.0, 0.5), ExpTerm(1.0, 2.0)))
        with pytest.raises(NotImplementedError):
            extrema(0.0, 1.0, (1.0, seg))
