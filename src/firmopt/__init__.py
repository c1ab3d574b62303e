"""Optimal production, sales and debt-repayment planning for a small firm.

Linear three-state model (cumulative profit, overdue payables, finished
goods inventory) with three bounded controls; the optimal policies are
bang-bang with closed-form switching times, certified by multiplier
conditions and an exhaustive search oracle.

The package exports what its callers use: classification, synthesis,
exact integration, certification, the exhaustive search and chains,
with the errors they raise.  Everything else stays in its own module.
"""

from .chain import ChainJunctionError, chain_plan, evaluate_chain
from .dynamics import integrate_exact
from .model import (
    ControlBoundsError,
    ModelParams,
    NoFeasibleCandidateError,
    PolicyInfeasibleError,
    ScenarioKind,
    State,
    UncoveredInitialConditionError,
    classify_scenario,
    validate_params,
)
from .solver import (
    objective_value,
    stock_depletion_time,
    synthesize_policy,
)
from .verify import BruteForceGrid, brute_force_best, certify_policy

__version__ = "0.1.0"

__all__ = [
    "BruteForceGrid",
    "ChainJunctionError",
    "ControlBoundsError",
    "ModelParams",
    "NoFeasibleCandidateError",
    "PolicyInfeasibleError",
    "ScenarioKind",
    "State",
    "UncoveredInitialConditionError",
    "brute_force_best",
    "certify_policy",
    "chain_plan",
    "classify_scenario",
    "evaluate_chain",
    "integrate_exact",
    "objective_value",
    "stock_depletion_time",
    "synthesize_policy",
    "validate_params",
]
