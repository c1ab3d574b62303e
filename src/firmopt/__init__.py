"""Optimal production, sales and debt-repayment planning for a small firm.

Linear three-state model (cumulative profit, overdue payables, finished
goods inventory) with three bounded controls; the optimal policies are
bang-bang with closed-form switching times, certified by multiplier
conditions and an exhaustive search oracle.
"""

from .chain import ChainInterval, ChainJunctionError, ChainPlan, chain_plan, evaluate_chain
from .dynamics import (
    AdjointTrajectory,
    PiecewiseExpFn,
    Trajectory,
    TrajectorySegment,
    Violation,
    adjoint_backward,
    integrate_exact,
)
from .model import (
    ControlBoundsError,
    ControlSegment,
    ControlValue,
    JumpRecord,
    ModelParams,
    NoFeasibleCandidateError,
    PiecewiseControl,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    UncoveredInitialConditionError,
    ValidationReport,
    classify_scenario,
    cost_rate,
    validate_params,
)
from .solver import (
    EventTime,
    SwitchingTimes,
    SynthesisResult,
    debt_clearance_time,
    initial_jump,
    objective_value,
    stock_depletion_time,
    synthesize_policy,
)
from .verify import (
    BruteForceGrid,
    CertReport,
    Certification,
    MultiplierSet,
    brute_force_best,
    certify_policy,
    check_control_maximizes,
    check_slackness,
    check_transversality,
    multiplier_set_for_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointTrajectory",
    "BruteForceGrid",
    "CertReport",
    "Certification",
    "ChainInterval",
    "ChainJunctionError",
    "ChainPlan",
    "ControlBoundsError",
    "ControlSegment",
    "ControlValue",
    "EventTime",
    "JumpRecord",
    "ModelParams",
    "MultiplierSet",
    "NoFeasibleCandidateError",
    "PiecewiseControl",
    "PiecewiseExpFn",
    "PolicyInfeasibleError",
    "ScenarioKind",
    "State",
    "SwitchingTimes",
    "SynthesisResult",
    "Trajectory",
    "TrajectorySegment",
    "UncoveredInitialConditionError",
    "ValidationReport",
    "Violation",
    "adjoint_backward",
    "brute_force_best",
    "certify_policy",
    "chain_plan",
    "check_control_maximizes",
    "check_slackness",
    "check_transversality",
    "classify_scenario",
    "cost_rate",
    "debt_clearance_time",
    "evaluate_chain",
    "initial_jump",
    "integrate_exact",
    "multiplier_set_for_scenario",
    "objective_value",
    "stock_depletion_time",
    "synthesize_policy",
    "validate_params",
]
