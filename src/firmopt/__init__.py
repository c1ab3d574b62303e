"""Optimal production, sales and debt-repayment planning for a small firm.

Linear three-state model (cumulative profit, overdue payables, finished
goods inventory) with three bounded controls; the optimal policies are
bang-bang with closed-form switching times, certified by multiplier
conditions and an exhaustive search oracle.
"""

from .chain import ChainJunctionError, chain_plan, evaluate_chain
from .dynamics import (
    AdjointTrajectory,
    PiecewiseExpFn,
    Trajectory,
    TrajectorySegment,
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
    classify_scenario,
    cost_rate,
    validate_params,
)
from .solver import (
    debt_clearance_time,
    initial_jump,
    objective_value,
    stock_depletion_time,
    synthesize_policy,
)
from .verify import (
    BruteForceGrid,
    CertReport,
    brute_force_best,
    certify_policy,
    check_control_maximizes,
    check_slackness,
    multiplier_set_for_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointTrajectory",
    "BruteForceGrid",
    "CertReport",
    "ChainJunctionError",
    "ControlBoundsError",
    "ControlSegment",
    "ControlValue",
    "JumpRecord",
    "ModelParams",
    "NoFeasibleCandidateError",
    "PiecewiseControl",
    "PiecewiseExpFn",
    "PolicyInfeasibleError",
    "ScenarioKind",
    "State",
    "Trajectory",
    "TrajectorySegment",
    "UncoveredInitialConditionError",
    "adjoint_backward",
    "brute_force_best",
    "certify_policy",
    "chain_plan",
    "check_control_maximizes",
    "check_slackness",
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
