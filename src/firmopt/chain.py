"""Myopic composition of single-period policies into decision chains.

The horizon [0, T] is split at given junction times; each subinterval is
solved as a fresh problem from its entry state, and the terminal state
of one interval becomes the initial condition of the next.  Inventory is
always continuous across junctions; with jump mode on, cash and debt may
jump at any junction where debt is outstanding (the same
repay-min(N, D)-at-once rule as at t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import solver
from .dynamics import Trajectory, TrajectorySegment
from .model import (
    JumpRecord,
    ModelParams,
    PiecewiseControl,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    classify_scenario,
)

#: Junction states this close to zero (relative to the running scale) are
#: treated as exactly zero when classifying the next interval.
JUNCTION_SNAP_RTOL = 1e-9


class ChainJunctionError(RuntimeError):
    """A junction produced an entry state no policy covers."""

    def __init__(self, junction: int, message: str):
        super().__init__(f"junction {junction}: {message}")
        self.junction = junction


@dataclass(frozen=True)
class ChainInterval:
    """One solved subinterval; policy, times and trajectory use the local
    clock (0 at t_start), the jump is stamped with the global time."""

    t_start: float
    t_end: float
    kind: ScenarioKind
    entry_state: State  # before any junction jump
    jump: JumpRecord | None
    policy: PiecewiseControl
    times: solver.SwitchingTimes
    exit_state: State
    trajectory: Trajectory


@dataclass(frozen=True)
class ChainPlan:
    intervals: tuple[ChainInterval, ...]


def _snap_state(state: State, scale: float) -> State:
    tol = JUNCTION_SNAP_RTOL * max(1.0, scale)
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
) -> ChainPlan:
    """Solve each subinterval myopically and chain the terminal states.

    `breakpoints` must run strictly increasing from 0 to T.  Any
    uncovered junction state (cash exhausted while indebted, without
    jump mode) aborts with the junction index.
    """
    if len(breakpoints) < 2 or breakpoints[0] != 0.0 or breakpoints[-1] != params.T:
        raise ValueError("breakpoints must run from 0 to T")
    if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    scale = max(1.0, init.N, init.D, init.S)
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
        jump = None
        if synth.jump is not None:
            jump = replace(synth.jump, t=t0)
        interval = ChainInterval(
            t_start=t0,
            t_end=t1,
            kind=kind,
            entry_state=entry,
            jump=jump,
            policy=synth.policy,
            times=synth.times,
            exit_state=synth.trajectory.terminal_state(),
            trajectory=synth.trajectory,
        )
        intervals.append(interval)
        entry = interval.exit_state
        scale = max(scale, entry.N, entry.D, entry.S)
    return ChainPlan(intervals=tuple(intervals))


def evaluate_chain(params: ModelParams, plan: ChainPlan) -> tuple[Trajectory, float]:
    """Concatenated exact trajectory over [0, T] and its objective.

    Junction jumps become interior discontinuities of the combined
    trajectory; all other junctions are exactly continuous because each
    interval starts from the previous terminal state.  The segments tile
    [0, T] exactly: each interval's last one ends at its t_end.
    """
    segments: list[TrajectorySegment] = []
    jumps: list[JumpRecord] = []
    for iv in plan.intervals:
        if iv.jump is not None:
            jumps.append(iv.jump)
        last = iv.trajectory.segments[-1]
        for seg in iv.trajectory.segments:
            # local T + t_start can miss t_end by an ulp: end the last one exactly
            t_end = iv.t_end if seg is last else seg.t_end + iv.t_start
            segments.append(
                TrajectorySegment(
                    t_start=seg.t_start + iv.t_start,
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
        tol=plan.intervals[0].trajectory.tol,
        jumps=tuple(jumps),
    )
    return combined, combined.objective()
