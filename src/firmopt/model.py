"""Core domain types for the production-inventory-debt control model.

The firm is described by three state variables
    N(t)  cumulative net profit        (money,  N >= 0)
    D(t)  overdue payables / debt      (money,  D >= 0)
    S(t)  finished-goods inventory     (units,  0 <= S <= S_max)
driven by three bounded controls
    u(t)  production rate              (0 <= u <= u_max)
    v(t)  debt repayment rate          (0 <= v <= v_max)
    w(t)  sales rate                   (0 <= w <= w_max)
with dynamics

    dN/dt = p*w - v - (K*u + B)
    dD/dt = r*D + A*u - v
    dS/dt = u - w - alpha*S

and objective N(T) - D(T) -> max.  This module holds the parameter and
value types plus scenario classification; the policy synthesis lives in
:mod:`firmopt.solver`.
"""

from __future__ import annotations

import bisect
import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

#: Largest r*T for which exp(r*T), the debt's growth over the horizon, is
#: a finite float.
MAX_RATE_TIMES_HORIZON = math.log(sys.float_info.max)


class ControlBoundsError(ValueError):
    """A control component lies outside its admissible box."""


class UncoveredInitialConditionError(ValueError):
    """No known optimal policy covers the given initial state."""


class PolicyInfeasibleError(RuntimeError):
    """A synthesized policy violates a state constraint for these inputs."""


class NoFeasibleCandidateError(RuntimeError):
    """An exhaustive policy search found no feasible candidate."""


@dataclass(frozen=True)
class ModelParams:
    """All model constants.

    p       retail price per unit sold
    r       interest rate on overdue payables (1/time)
    A       raw-material cost per unit produced
    alpha   inventory outflow (spoilage/loss) rate (1/time)
    K       variable indirect cost per unit produced
    B       fixed indirect cost per unit time
    u_max   production capacity (units/time)
    v_max   repayment capacity (money/time)
    w_max   demand ceiling (units/time), w_max <= u_max
    S_max   storage capacity (units)
    T       planning horizon (time)
    """

    p: float
    r: float
    A: float
    alpha: float
    K: float
    B: float
    u_max: float
    v_max: float
    w_max: float
    S_max: float
    T: float

    def profit_rate(self) -> float:
        """Net profit slope at the full operating point u = w = w_max."""
        return (self.p - self.A - self.K) * self.w_max - self.B


class State(NamedTuple):
    """A point (N, D, S) of the state space.

    The type itself is a plain value triple; feasibility with respect to
    the state constraints (N >= 0, D >= 0, 0 <= S <= S_max) is checked
    where trajectories are built, so that infeasible excursions can be
    represented and reported rather than crash.  Being a tuple, a state
    unpacks, equals the plain tuple (N, D, S) and copies by `_replace`.
    """

    N: float
    D: float
    S: float


@dataclass(frozen=True)
class ControlValue:
    """A constant control triple (u, v, w)."""

    u: float
    v: float
    w: float


@dataclass(frozen=True)
class JumpRecord:
    """Instantaneous partial or total debt repayment out of cash.

    N and D both change by `delta` = -min(N, D) at the jump instant;
    inventory is unaffected.  Exactly one of post N, post D is zero
    unless N == D.
    """

    t: float
    delta: float
    post_state: State


@dataclass(frozen=True)
class ControlSegment:
    t_start: float
    t_end: float
    value: ControlValue


class Piecewise:
    """Base of the dataclasses whose `segments` tile a time interval in
    order, each segment carrying `t_start` and `t_end`."""

    segments: tuple
    _starts: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_starts", tuple(s.t_start for s in self.segments))

    @property
    def t_final(self) -> float:
        return self.segments[-1].t_end

    def segment_at(self, t: float):
        """The segment in force at t (right-continuous, t = T in the last)."""
        return self.segments[bisect.bisect_right(self._starts, t) - 1]


@dataclass(frozen=True)
class PiecewiseControl(Piecewise):
    """Bang-bang policy: ordered constant-control segments covering [0, T].

    Segments must partition [0, T] with strictly increasing interior
    breakpoints (a single zero-length segment is allowed only for the
    degenerate horizon T = 0).
    """

    segments: tuple[ControlSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("policy needs at least one segment")
        if self.segments[0].t_start != 0.0:
            raise ValueError("first segment must start at t = 0")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.t_end != b.t_start:
                raise ValueError("segments must tile the horizon without gaps")
        degenerate = len(self.segments) == 1 and self.t_final == 0.0
        if not degenerate:
            for seg in self.segments:
                if not seg.t_end > seg.t_start:
                    raise ValueError("segment breakpoints must be strictly increasing")
        super().__post_init__()

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior switching times (excludes 0 and T)."""
        return self._starts[1:]

    def merged(self) -> "PiecewiseControl":
        """Canonical form with adjacent equal control values merged."""
        out: list[ControlSegment] = [self.segments[0]]
        for seg in self.segments[1:]:
            if seg.value == out[-1].value:
                out[-1] = ControlSegment(out[-1].t_start, seg.t_end, seg.value)
            else:
                out.append(seg)
        return PiecewiseControl(tuple(out))

    def check_bounds(self, params: ModelParams) -> None:
        """Raise ControlBoundsError if any segment leaves the control box."""
        for seg in self.segments:
            c = seg.value
            for name, val, hi in (
                ("u", c.u, params.u_max),
                ("v", c.v, params.v_max),
                ("w", c.w, params.w_max),
            ):
                if not 0.0 <= val <= hi:
                    raise ControlBoundsError(
                        f"{name} = {val} outside [0, {hi}] on "
                        f"[{seg.t_start}, {seg.t_end}]"
                    )


class ScenarioKind(enum.Enum):
    """Initial-condition scenario determining the optimal policy shape."""

    S1_NO_DEBT_WITH_STOCK = "S1_NoDebtWithStock"
    S2_DEBT_WITH_STOCK = "S2_DebtWithStock"
    S3_DEBT_NO_STOCK = "S3_DebtNoStock"
    A1_TOTAL_REPAYMENT_JUMP = "A1_TotalRepaymentJump"
    A2_PARTIAL_REPAYMENT_JUMP = "A2_PartialRepaymentJump"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_params: structural violations + profitability.

    violations holds (field, message) pairs; field is the offending
    parameter name (for cross-field constraints, the left-hand field).
    """

    violations: tuple[tuple[str, str], ...]
    profitable: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_params(params: ModelParams) -> ValidationReport:
    """Check structural parameter constraints and the profitability test.

    The firm is profitable iff sales revenue strictly exceeds all costs
    at the operating point u = w = w_max:

        p*w_max > K*w_max + B + A*w_max

    All synthesized policies operate at that point, so the test is
    evaluated there only, as profit_rate() > 0: the net gain A2's debt
    clearance uses, so the two agree to the last bit.  T = 0 is tolerated
    as a degenerate horizon; r*T above MAX_RATE_TIMES_HORIZON (about
    709.78) is rejected, since the debt's growth factor exp(r*T) would
    overflow.
    """
    bad: list[tuple[str, str]] = []
    positive = ("p", "r", "A", "alpha", "K", "B", "u_max", "v_max", "w_max", "S_max")
    for name in positive:
        value = getattr(params, name)
        if not (math.isfinite(value) and value > 0.0):
            bad.append((name, "must be strictly positive"))
    if not (math.isfinite(params.T) and params.T >= 0.0):
        bad.append(("T", "must be nonnegative"))
    elif params.r * params.T > MAX_RATE_TIMES_HORIZON:
        limit = f"{MAX_RATE_TIMES_HORIZON:.6g}"
        bad.append(("r", f"r*T <= {limit} violated (exp(r*T) overflows)"))
    if params.w_max > params.u_max:
        bad.append(("w_max", "w_max <= u_max violated (demand exceeds capacity)"))
    if params.A * params.w_max > params.v_max:
        bad.append(("v_max", "A*w_max <= v_max violated (cannot service purchases)"))
    profitable = params.profit_rate() > 0.0
    return ValidationReport(violations=tuple(bad), profitable=profitable)


def check_initial_state(params: ModelParams, init: State) -> None:
    """Validate an initial condition against the state constraints."""
    if not all(map(math.isfinite, init)):
        raise ValueError(f"initial state must be finite, got {init}")
    if init.N < 0.0 or init.D < 0.0:
        raise ValueError(f"initial N and D must be nonnegative, got {init}")
    if not 0.0 <= init.S <= params.S_max:
        raise ValueError(f"initial S must lie in [0, {params.S_max}], got {init.S}")


def classify_scenario(
    params: ModelParams, init: State, jump_mode: bool = False
) -> ScenarioKind:
    """Map an initial condition to its scenario.

    Without jump mode: debt and stock presence select among S1..S3, with
    D0 = S0 = 0 folded into S1 (its policy remains valid with an
    immediate production start).  With jump mode the split is on whether
    cash covers the debt (N0 >= D0 -> A1, else A2).

    N0 = 0 with outstanding debt and no jump allowance is not covered by
    any known policy and is surfaced as an error.
    """
    check_initial_state(params, init)
    if jump_mode:
        if init.N >= init.D:
            return ScenarioKind.A1_TOTAL_REPAYMENT_JUMP
        return ScenarioKind.A2_PARTIAL_REPAYMENT_JUMP
    if init.D > 0.0 and init.N == 0.0:
        raise UncoveredInitialConditionError(
            "N0 = 0 with D0 > 0 has no covered policy without jump mode"
        )
    if init.D == 0.0:
        return ScenarioKind.S1_NO_DEBT_WITH_STOCK
    if init.S > 0.0:
        return ScenarioKind.S2_DEBT_WITH_STOCK
    return ScenarioKind.S3_DEBT_NO_STOCK
