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
from .dynamics import ZERO_SNAP_RTOL, Trajectory, TrajectorySegment
from .model import (
    JumpRecord,
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


def _snap_state(state: State, scale: float) -> State:
    """Junction components within ZERO_SNAP_RTOL of zero, relative to the
    running scale, become exactly zero before the next classification."""
    tol = ZERO_SNAP_RTOL * max(1.0, scale)
    return State(
        N=0.0 if abs(state.N) < tol else state.N,
        D=0.0 if abs(state.D) < tol else state.D,
        S=0.0 if abs(state.S) < tol else state.S,
    )


def chain_plan(
    params: ModelParams,
    init: State,
    breakpoints: list[float],
    jump_mode: bool = False,
) -> tuple[ChainInterval, ...]:
    """Solve each subinterval myopically and chain the terminal states.

    `breakpoints` must run strictly increasing from 0 to T.  Any
    uncovered junction state (cash exhausted while indebted, without
    jump mode) aborts with the junction index.
    """
    if len(breakpoints) < 2 or breakpoints[0] != 0.0 or breakpoints[-1] != params.T:
        raise ValueError("breakpoints must run from 0 to T")
    if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    scale = max(1.0, *init)
    intervals: list[ChainInterval] = []
    entry = init
    for idx, (t0, t1) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        local = replace(params, T=t1 - t0)
        entry = _snap_state(entry, scale)
        use_jump = jump_mode and entry.D > 0.0
        try:
            kind = classify_scenario(local, entry, jump_mode=use_jump)
            synth = solver.synthesize_policy(local, entry, kind)
        except (ValueError, PolicyInfeasibleError) as exc:
            raise ChainJunctionError(idx, str(exc)) from exc
        intervals.append(ChainInterval(t0, t1, entry, synth))
        entry = synth.trajectory.terminal_state()
        scale = max(scale, *entry)
    return tuple(intervals)


def evaluate_chain(
    params: ModelParams, plan: tuple[ChainInterval, ...]
) -> tuple[Trajectory, float]:
    """Concatenated exact trajectory over [0, T] and its objective.

    Junction jumps, stamped with their interval's t_start, become interior
    discontinuities of the combined trajectory; all other junctions are
    exactly continuous because each interval starts from the previous
    terminal state.  The segments tile [0, T] exactly: each interval's
    last one ends at its t_end.
    """
    segments: list[TrajectorySegment] = []
    jumps: list[JumpRecord] = []
    for t0, t1, _, synth in plan:
        if synth.jump is not None:
            jumps.append(replace(synth.jump, t=t0))
        last = synth.trajectory.segments[-1]
        for seg in synth.trajectory.segments:
            # local T + t0 can miss t1 by an ulp: end the last one exactly
            t_end = t1 if seg is last else seg.t_end + t0
            segments.append(
                TrajectorySegment(
                    t_start=seg.t_start + t0,
                    t_end=t_end,
                    control=seg.control,
                    entry=seg.entry,
                    exit=seg.exit,
                    rates=seg.rates,
                )
            )
    combined = Trajectory(
        params=params,
        segments=tuple(segments),
        tol=plan[0].synthesis.trajectory.tol,
        jumps=tuple(jumps),
    )
    return combined, combined.objective()
