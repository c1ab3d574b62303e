"""Myopic composition of single-period policies into decision chains.

The horizon [0, T] is split at given junction times; each subinterval is
solved as a fresh problem from its entry state, and the terminal state
of one interval becomes the initial condition of the next.  Inventory is
always continuous across junctions; with jump mode on, cash and debt may
jump at any junction where debt is outstanding (the same
repay-min(N, D)-at-once rule as at t = 0).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from . import solver
from .dynamics import Tolerance, Trajectory
from .model import (
    ModelParams,
    PolicyInfeasibleError,
    State,
    classify_scenario,
)


class ChainJunctionError(RuntimeError):
    """A junction produced an entry state no policy covers."""

    def __init__(self, junction: int, message: str):
        super().__init__(f"junction {junction}: {message}")
        self.junction = junction


class ChainInterval(NamedTuple):
    """One solved subinterval.  The synthesis uses the local clock (0 at
    t_start) and starts from entry_state, the state before any junction
    jump."""

    t_start: float
    t_end: float
    entry_state: State
    synthesis: solver.SynthesisResult


def chain_plan(
    params: ModelParams,
    init: State,
    breakpoints: list[float],
    jump_mode: bool = False,
) -> tuple[ChainInterval, ...]:
    """Solve each subinterval myopically and chain the terminal states.

    `breakpoints` must run strictly increasing from 0 to T.  At each
    junction, a component within the chain's tolerance of zero (the whole
    horizon's, from the first interval's post-jump start) becomes exactly
    zero before the next classification.  Any uncovered junction state
    (cash exhausted while indebted, without jump mode) aborts with the
    junction index.
    """
    if len(breakpoints) < 2 or breakpoints[0] != 0.0 or breakpoints[-1] != params.T:
        raise ValueError("breakpoints must run from 0 to T")
    if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    intervals: list[ChainInterval] = []
    entry = init
    for idx, (t0, t1) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        local = replace(params, T=t1 - t0)
        use_jump = jump_mode and entry.D > 0.0
        try:
            kind = classify_scenario(local, entry, jump_mode=use_jump)
            synth = solver.synthesize_policy(local, entry, kind)
        except (ValueError, PolicyInfeasibleError) as exc:
            raise ChainJunctionError(idx, str(exc)) from exc
        intervals.append(ChainInterval(t0, t1, entry, synth))
        if idx == 0:
            snap = Tolerance.of(params, synth.trajectory.start).state
        final = synth.trajectory.terminal_state()
        entry = State._make(0.0 if abs(x) < tol else x for x, tol in zip(final, snap))
    return tuple(intervals)


def evaluate_chain(
    params: ModelParams, plan: tuple[ChainInterval, ...]
) -> tuple[Trajectory, float]:
    """Concatenated exact trajectory over [0, T] and its objective.

    Junction jumps, stamped with their interval's t_start, become interior
    discontinuities of the combined trajectory; all other junctions are
    exactly continuous because each interval starts from the previous
    terminal state.  Trajectory.joined lays the intervals end to end, so
    they tile [0, T] exactly, and judges the whole by the chain's
    tolerance, the one its junctions were snapped with.
    """
    traj = Trajectory.joined(params, [(t0, t1, synth.trajectory) for t0, t1, _, synth in plan])
    return traj, traj.objective()
