"""The synthesizer judged from outside its bang-bang class.

Two oracles in tests/oracles.py need neither the closed forms nor the
certificate's multipliers: the one-step Bellman witness (`bellman_gain`),
which re-solves the synthesizer from the successors of 27 constant
controls, and the LP over piecewise-constant controls on a uniform grid
(`lp_best`).  Wherever the certificate passes, neither may beat the
synthesized value by more than rounding, or HiGHS's tolerance.
"""

import math
import random
from dataclasses import replace

import pytest

from firmopt import ScenarioKind, State, certify_policy

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from oracles import bellman_gain, box_grid, lp_best

JUMP_KINDS = (ScenarioKind.A1_TOTAL_REPAYMENT_JUMP, ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP)

#: HiGHS's default primal feasibility tolerance
HIGHS_PRIMAL_TOL = 1e-7


def inside_the_box(params, x: State) -> bool:
    return x.N >= 0.0 and x.D >= 0.0 and 0.0 <= x.S <= params.S_max


class TestBellmanWitness:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name[:2])
    def test_certified_policies_gain_nothing_in_one_step(self, kind):
        # Each value V is N(T) - D(T) of an exact trajectory: it rounds at
        # most three segment updates and the final N - D, each by at most
        # an ulp of the cash-plus-debt scale that bounds the terms summed
        # (dynamics.Tolerance).  A gain subtracts two values, and the
        # successor's own step rounds N and D once more: (2*4 + 2) ulps.
        for seed in range(8):
            params, init = draw_scenario_case(random.Random(100 + seed), kind)
            cert = certify_policy(params, init, kind)
            assert cert.passed
            traj = cert.synthesis.trajectory
            cash, debt, _ = traj.tol
            bound = 10 * math.ulp(cash + debt)
            for t in (0.0, 0.3 * params.T, 0.6 * params.T):
                # the path's state, a rounding residual below a bound read
                # as the bound: the trajectory judged it feasible
                x = State(*(max(c, 0.0) for c in traj.sample(t)))
                found = bellman_gain(
                    params, x, params.T - t, 1e-3 * params.T, box_grid(params), kind in JUMP_KINDS
                )
                assert found.gain <= bound, (seed, t, found.control)
                # a control the synthesizer could not continue from has left the box
                for control, successor, error in found.unsolved:
                    assert not inside_the_box(params, successor), (seed, t, control, error)

    @pytest.mark.xfail(
        strict=True,
        reason="the synthesizer refuses some firms the LP solves (ROADMAP item 11)",
    )
    def test_no_successor_inside_the_box_is_refused_at_a_longer_step(self):
        # At h = 0.05*T, 10 of the 27 successors of this certified S2 start
        # stay inside the state box, yet their re-solve raises
        # PolicyInfeasibleError (N >= 0 broken): the refusal of item 11.
        # This passes, and its strict xfail fails, once that is mended.
        kind = ScenarioKind.S2_DEBT_WITH_STOCK
        params, init = draw_scenario_case(random.Random(105), kind)
        assert certify_policy(params, init, kind).passed
        found = bellman_gain(params, init, params.T, 0.05 * params.T, box_grid(params))
        refused = [s for _, s, _ in found.unsolved if inside_the_box(params, s)]
        assert refused == []

    def test_idling_beats_the_s3_policy_on_a_long_horizon(self):
        # the baseline firm at T = 60 from (1e6, 320, 0): A*exp(r*T) = 807 is
        # far above p - K = 7, and the certificate fails; half a unit of
        # idle repayment first is worth 6.17 more than producing at once
        params = replace(BASELINE, T=60.0)
        found = bellman_gain(params, State(1e6, 320.0, 0.0), 60.0, 0.5, box_grid(params))
        assert found.control.u == 0.0 and found.control.w == 0.0
        assert found.control.v == params.v_max
        assert found.gain == pytest.approx(6.1709, abs=1e-4)


class TestLinearProgram:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name[:2])
    def test_no_gridded_control_beats_a_certified_policy(self, kind):
        # Each LP row is in units of its component's Tolerance scale, and
        # HiGHS accepts a row broken by HIGHS_PRIMAL_TOL; the LP's controls,
        # re-integrated exactly, break no bound by more than that (asserted).
        # Loosening the bounds by that much is worth at most as much cash
        # or debt, or as much stock sold at p, on each of N >= 0, D >= 0,
        # S >= 0 and S <= S_max, each growing at most by its interest
        # exp(r*T) over the horizon.
        for seed in range(5):
            params, init = draw_scenario_case(random.Random(200 + seed), kind)
            cert = certify_policy(params, init, kind)
            assert cert.passed
            traj = cert.synthesis.trajectory
            best = lp_best(params, traj.start, 200)
            assert best.status == 0 and best.breach <= HIGHS_PRIMAL_TOL
            cash, debt, stock = traj.tol
            slack = HIGHS_PRIMAL_TOL * (cash + debt + 2 * params.p * stock)
            assert best.value <= cert.synthesis.objective + slack * math.exp(params.r * params.T)
