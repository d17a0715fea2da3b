"""Nash equilibria for proof-of-work mining under resource uncertainty.

Three interchangeable best-response back-ends drive one Gauss-Seidel
iteration: a deterministic closed form and two robust back-ends.  The robust
ones share one alternating-optimization driver (``robust``) and differ only
in the certificate of the chance constraint: a Bernstein-type tail bound
under Gaussian uncertainty (``bti``), or the exact worst-case CVaR over a
mean/variance ambiguity set (``cvar``).  Monte Carlo and analytic two-point
oracles validate the robustness of the results.
"""

from .bti import (
    BtiCoefficients,
    bti_constraint_value,
    robust_best_response_gaussian,
    subproblem_strategy_gaussian,
    subproblem_threshold_gaussian,
)
from .cvar import (
    CvarCertificate,
    LossCoefficients,
    MomentMatrix,
    certify,
    robust_best_response,
    subproblem_strategy,
    subproblem_threshold,
    worstcase_cvar,
)
from .deterministic import best_response
from .equilibrium import MODES, EquilibriumResult, closed_form_equilibrium, solve_equilibrium
from .model import (
    ConvergenceError,
    GameConfig,
    MinerParams,
    RewardModel,
    SolverError,
    others_load,
    utility,
)
from .robust import BestResponse
from .validate import (
    DISTRIBUTIONS,
    SampleBatch,
    ViolationReport,
    discrete_worstcase_violation,
    empirical_utilities,
    empirical_violation,
    sample_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponse",
    "BtiCoefficients",
    "ConvergenceError",
    "CvarCertificate",
    "DISTRIBUTIONS",
    "EquilibriumResult",
    "GameConfig",
    "LossCoefficients",
    "MinerParams",
    "MODES",
    "MomentMatrix",
    "RewardModel",
    "SampleBatch",
    "SolverError",
    "ViolationReport",
    "best_response",
    "bti_constraint_value",
    "certify",
    "closed_form_equilibrium",
    "discrete_worstcase_violation",
    "empirical_utilities",
    "empirical_violation",
    "others_load",
    "robust_best_response",
    "robust_best_response_gaussian",
    "sample_uncertainty",
    "solve_equilibrium",
    "subproblem_strategy",
    "subproblem_strategy_gaussian",
    "subproblem_threshold",
    "subproblem_threshold_gaussian",
    "utility",
    "worstcase_cvar",
]
