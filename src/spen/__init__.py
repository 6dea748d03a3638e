"""Stochastic penalty methods for equality-constrained nonlinear programs.

The package implements an exact-penalty outer loop driven by two inner
solvers for nonconvex stochastic composite subproblems, one using noisy
gradients (SFO) and one using noisy function values only (SZO), together
with oracle-call budget formulas, criticality certification, and a
Monte-Carlo experiment harness exposed through the ``spen`` command.
"""

from .config import RunConfig, parse_config
from .errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    OracleKindError,
    SpenError,
    SteeringError,
    SubsolverError,
)
from .harness import (
    CSV_HEADER,
    FAMILIES,
    MonteCarloResult,
    SlopeFit,
    StudyResult,
    TestProblemSpec,
    build_problem,
    kkt_residuals,
    monte_carlo,
    read_records,
    run_study,
    slope_fit,
    write_records,
)
from .penalty import (
    CriticalityCertificate,
    OuterBound,
    PenaltyConfig,
    PenaltyRunResult,
    PenaltyState,
    RunRecord,
    SteeringResult,
    certificate_from_estimates,
    outer_iteration_bound,
    run_penalty,
    steer_penalty,
    subproblem_budget_for_rho,
)
from .problems import (
    ConstrainedProblem,
    GaussianOracle,
    KnownSolution,
    ProblemConstants,
    RandomStream,
    eval_constraints,
)
from .sfo import (
    NscoRunResult,
    SolverBudget,
    batch_gradient,
    sample_stop_index,
    sfo_budget,
    sfo_stationarity_bound,
    solve_nsco_sfo,
    stopping_pmf,
)
from .stats import ExpectationEstimate, mean_estimate
from .subsolvers import (
    DEFAULT_MEASURE_TOL,
    DEFAULT_PROX_TOL,
    BallSubproblemResult,
    ProxResult,
    phi,
    prox_step,
    theta,
)
from .szo import (
    sigma_tilde_sq,
    smoothed_reference,
    solve_nsco_szo,
    szo_budget,
    szo_gradient_batch,
)

__version__ = "0.1.0"
