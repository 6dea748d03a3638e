"""Outer penalty loop: steering of the penalty parameter, per-level inner
budgets, the outer iteration bound, and criticality certification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ConfigError, SteeringError, SubsolverError
from .problems import ConstrainedProblem, ProblemConstants, RandomStream, eval_constraints
# batch_gradient is unused here; test_installed_rebinds_every_namespace_and_restores reads it
from .sfo import SolverBudget, _solve_rows, batch_gradient, sfo_budget, solve_nsco_sfo  # noqa: F401
from .stats import ExpectationEstimate
from .subsolvers import DEFAULT_MEASURE_TOL, phi, prox_step, theta
from .szo import szo_budget, solve_nsco_szo

__all__ = [
    "MAX_STEER_DOUBLINGS",
    "ORACLE_MODES",
    "PenaltyConfig",
    "PenaltyState",
    "SteeringResult",
    "RunRecord",
    "OuterBound",
    "CriticalityCertificate",
    "PenaltyRunResult",
    "steer_penalty",
    "subproblem_budget_for_rho",
    "outer_iteration_bound",
    "run_penalty",
    "certificate_from_estimates",
]

MAX_STEER_DOUBLINGS = 60
ORACLE_MODES = ("sfo", "szo")


@dataclass(frozen=True)
class PenaltyConfig:
    """Settings of the outer penalty loop.

    ``epsilon`` is the target accuracy of the stationarity conditions,
    ``xi`` the steering parameter, ``tau`` the minimal penalty increase,
    ``rho0`` the initial penalty level, and ``max_outer`` the horizon N
    (the loop performs ``N - 1`` steer/solve rounds).  ``oracle_mode``
    selects gradient (``"sfo"``) or value (``"szo"``) sampling.  The
    ``d_tilde`` constants tune the budget formulas; ``early_stop`` stops
    the loop once the penalty level crosses the guarantee threshold.
    """

    epsilon: float
    xi: float = 0.5
    tau: float = 1.0
    rho0: float = 1.0
    max_outer: int = 8
    oracle_mode: str = "sfo"
    d_tilde: float = 1.0
    d1_tilde: float = 1.0
    d2_tilde: float = 1.0
    early_stop: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.xi < 1.0:
            raise ConfigError(f"xi must lie in (0,1), got {self.xi}")
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if self.rho0 < 1.0:
            raise ConfigError(f"rho0 must be >= 1, got {self.rho0}")
        if self.max_outer < 2:
            raise ConfigError(f"max_outer must be >= 2, got {self.max_outer}")
        if self.oracle_mode not in ORACLE_MODES:
            raise ConfigError(
                f"oracle_mode must be one of {ORACLE_MODES}, got {self.oracle_mode!r}"
            )
        for name in ("d_tilde", "d1_tilde", "d2_tilde"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class PenaltyState:
    """Mutable snapshot of the outer loop.

    ``k`` counts completed steer/solve rounds, ``x`` and ``G`` are the
    current iterate and its last gradient estimate, and ``rho`` the current
    penalty level.  ``oracle_calls`` is cumulative.  Each round's steering
    measures are kept in its ``RunRecord``.
    """

    k: int
    x: np.ndarray
    G: np.ndarray
    rho: float
    oracle_calls: int = 0


@dataclass(frozen=True)
class SteeringResult:
    """Accepted penalty level with the measures that justified it.

    ``attempts`` counts evaluations of the steering measure phi.
    """

    rho: float
    theta: float
    phi: float
    attempts: int


@dataclass(frozen=True)
class RunRecord:
    """One outer iteration of one replication, as persisted to CSV.

    ``theta`` and ``phi`` are the steering-time measures at the iterate
    entering the round; ``crit_sq`` is the squared stationarity residual
    at the iterate the round produced (None when no exact objective is
    available).  ``wall_ms`` is kept at 0.0 in persisted rows so that
    repeated runs produce byte-identical files; timing is reported on
    stdout instead.
    """

    replication: int
    outer_iter: int
    rho: float
    theta: float
    phi: float
    crit_sq: float | None
    oracle_calls: int
    wall_ms: float = 0.0


@dataclass(frozen=True)
class OuterBound:
    """Closed-form outer-loop complexity data.

    ``n_hat`` caps the number of outer iterations needed, and ``rho_bar``
    is the penalty threshold past which the infeasibility guarantee holds.
    """

    n_hat: int
    rho_bar: float


@dataclass(frozen=True)
class CriticalityCertificate:
    """Monte-Carlo evidence for an epsilon-stochastic critical point.

    The verdict is true when the 95% CI upper bound of the squared
    stationarity residual is at most ``epsilon`` and that of the
    infeasibility measure theta is at most ``sqrt(epsilon)``.
    """

    epsilon: float
    crit_sq: ExpectationEstimate
    theta: ExpectationEstimate
    lam: np.ndarray
    replications: int
    verdict: bool


@dataclass(frozen=True)
class PenaltyRunResult:
    """Outcome of one full driver run.

    ``certificate`` is the single-run certificate at the final iterate;
    ``records`` has one entry per completed outer round; ``bound`` is the
    closed-form complexity data when the constants allow computing it;
    ``crossed_rho_bar`` reports whether the final penalty level reached
    the guarantee threshold (the bound-based verdict).
    """

    state: PenaltyState
    certificate: CriticalityCertificate
    records: list[RunRecord] = field(default_factory=list)
    bound: OuterBound | None = None
    crossed_rho_bar: bool = False


def steer_penalty(
    problem: ConstrainedProblem,
    state: PenaltyState,
    xi: float,
    tau: float,
) -> SteeringResult:
    """Choose the next penalty level at the current iterate.

    Evaluates ``theta(x)``.  When ``theta <= DEFAULT_MEASURE_TOL`` the
    steering condition ``phi_rho >= rho*xi*theta`` holds for any level (phi
    is nonnegative), so the minimal increase ``rho + tau`` is returned.
    Otherwise the minimal increase is tried first; if the evaluated
    condition fails, the level jumps to the sufficient bound
    ``||G||/((1-xi)*theta)`` and then doubles, at most
    ``MAX_STEER_DOUBLINGS`` times, until the condition holds within
    ``DEFAULT_MEASURE_TOL``, the tolerance the measures are solved to.

    Parameters
    ----------
    problem : ConstrainedProblem
        Supplies the constraint map.
    state : PenaltyState
        Carries the current iterate ``x``, gradient estimate ``G``, and
        previous level ``rho``.
    xi : float
        Steering parameter in (0, 1).
    tau : float
        Minimal increase, > 0.

    Returns
    -------
    SteeringResult
        Accepted level (always >= ``state.rho + tau``) with the measures.

    Raises
    ------
    SteeringError
        If the condition still fails after the doubling cap, which signals
        inconsistent subsolver tolerances.
    SubsolverError
        If theta or phi comes out non-finite, which no level can repair.
    """
    if not 0.0 < xi < 1.0:
        raise ConfigError(f"xi must lie in (0,1), got {xi}")
    if tau <= 0.0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    c, jac = eval_constraints(problem, state.x)
    th = _finite_measure("theta", theta(c, jac).measure)

    def phi_at(rho_val):
        return _finite_measure("phi", phi(state.G, c, jac, rho_val).measure)

    candidate = state.rho + tau
    ph = phi_at(candidate)
    if th <= DEFAULT_MEASURE_TOL or ph >= candidate * xi * th - DEFAULT_MEASURE_TOL:
        return SteeringResult(rho=candidate, theta=th, phi=ph, attempts=1)
    g_norm = float(np.linalg.norm(state.G))
    rho_val = max(candidate, g_norm / ((1.0 - xi) * th))
    for attempt in range(MAX_STEER_DOUBLINGS + 1):
        ph = phi_at(rho_val)
        if ph >= rho_val * xi * th - DEFAULT_MEASURE_TOL:
            return SteeringResult(rho=rho_val, theta=th, phi=ph, attempts=attempt + 2)
        rho_val *= 2.0
    raise SteeringError(
        f"steering condition still failing at rho={rho_val:.6g} after "
        f"{MAX_STEER_DOUBLINGS} doublings; subsolver tolerances are inconsistent"
    )


def _finite_measure(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise SubsolverError(f"steering measure {name} is non-finite ({value})")
    return value


def subproblem_budget_for_rho(
    rho: float,
    epsilon: float,
    constants: ProblemConstants,
    mode: str,
    n: int = 1,
    d_tilde: float = 1.0,
    d1_tilde: float = 1.0,
    d2_tilde: float = 1.0,
) -> SolverBudget:
    """Inner-solver budget for one penalty subproblem at level ``rho``.

    Uses the composite smoothness ``L_rho = L_g + rho*L_J`` and the gap
    bound ``D = kappa_f + rho*kappa_c - f_low``, then delegates to the
    mode's budget formula at accuracy ``epsilon/4``.  The quarter-accuracy
    substitution reproduces the per-level constants exactly; in gradient
    mode, for example, the resulting allowance is
    ``(4*D*C2 + 4*L_rho*C3)^2/epsilon^2 + 128*L_rho*D/epsilon`` (or
    ``C1/L_rho^2`` if larger).
    """
    if rho < 1.0:
        raise ConfigError(f"penalty level must be >= 1, got {rho}")
    if mode not in ORACLE_MODES:
        raise ConfigError(f"oracle mode must be one of {ORACLE_MODES}, got {mode!r}")
    needed = ["L_g", "L_J", "sigma", "f_low", "kappa_c", "kappa_f"]
    if mode == "szo":
        needed.append("kappa_g")
    constants.require(*needed)
    l_rho = constants.L_g + rho * constants.L_J
    d_phi = constants.kappa_f + rho * constants.kappa_c - constants.f_low
    if d_phi < 0.0:
        raise ConfigError(
            f"objective gap bound kappa_f + rho*kappa_c - f_low = {d_phi:.6g} is negative"
        )
    if mode == "sfo":
        return sfo_budget(epsilon / 4.0, d_phi, l_rho, constants.sigma, d_tilde)
    return szo_budget(
        epsilon / 4.0,
        d_phi,
        l_rho,
        constants.L_g,
        n,
        constants.kappa_g,
        constants.sigma,
        d1_tilde,
        d2_tilde,
    )


def outer_iteration_bound(
    epsilon: float,
    xi: float,
    tau: float,
    rho0: float,
    kappa_g: float,
    L_g: float,
    L_J: float,
    kappa_J: float,
) -> OuterBound:
    """Closed-form cap on outer iterations and the penalty threshold.

    With the uniform bound on prox-step lengths across all penalty levels
    ``c_bar = kappa_J/L_J + sqrt(kappa_g^2 + epsilon/4)/L_g``,

    ``c_tilde = max{ (4*c_bar + sqrt(8*c_bar)*sqrt(L_g+L_J))^2 / xi^2,
    sqrt(4*kappa_g^2 + epsilon)/(1-xi) }``,

    the guarantee threshold is ``rho_bar = c_tilde/sqrt(epsilon)`` and the
    iteration cap ``n_hat = ceil(rho_bar/tau - rho0/tau + 1)``, at least 1.
    """
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < xi < 1.0:
        raise ConfigError(f"xi must lie in (0,1), got {xi}")
    if tau <= 0.0 or rho0 <= 0.0:
        raise ConfigError("tau and rho0 must be > 0")
    if kappa_g < 0.0 or L_g <= 0.0 or L_J <= 0.0:
        raise ConfigError("kappa_g must be >= 0 and L_g, L_J > 0")
    c_bar = kappa_J / L_J + math.sqrt(kappa_g**2 + 0.25 * epsilon) / L_g
    branch_steer = (4.0 * c_bar + math.sqrt(8.0 * c_bar) * math.sqrt(L_g + L_J)) ** 2 / xi**2
    branch_grad = math.sqrt(4.0 * kappa_g**2 + epsilon) / (1.0 - xi)
    c_tilde = max(branch_steer, branch_grad)
    rho_bar = c_tilde / math.sqrt(epsilon)
    n_hat = max(1, math.ceil(rho_bar / tau - rho0 / tau + 1.0))
    return OuterBound(n_hat=n_hat, rho_bar=rho_bar)


def _outer_bound_or_none(config: PenaltyConfig, constants: ProblemConstants) -> OuterBound | None:
    names = ("kappa_g", "kappa_J", "L_g", "L_J")
    if any(getattr(constants, n) is None for n in names):
        return None
    return outer_iteration_bound(
        config.epsilon,
        config.xi,
        config.tau,
        config.rho0,
        constants.kappa_g,
        constants.L_g,
        constants.L_J,
        kappa_J=constants.kappa_J,
    )


def _degenerate_estimate(value: float, count: int) -> ExpectationEstimate:
    return ExpectationEstimate(
        mean=value, stderr=0.0, ci95_low=value, ci95_high=value, count=count
    )


def certificate_from_estimates(
    epsilon: float,
    crit_sq: ExpectationEstimate,
    theta_est: ExpectationEstimate,
    lam: np.ndarray,
    replications: int,
) -> CriticalityCertificate:
    """Assemble a certificate; the verdict requires both CI upper bounds to
    meet the targets ``epsilon`` and ``sqrt(epsilon)``."""
    verdict = bool(
        crit_sq.ci95_high <= epsilon and theta_est.ci95_high <= math.sqrt(epsilon)
    )
    return CriticalityCertificate(
        epsilon=epsilon,
        crit_sq=crit_sq,
        theta=theta_est,
        lam=np.asarray(lam, dtype=float),
        replications=int(replications),
        verdict=verdict,
    )


def _stationarity(
    problem: ConstrainedProblem, state: PenaltyState, gamma: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(||grad + J' lam||^2, lam, c, J)`` at the state: ``lam`` is the prox
    dual at step ``gamma``, ``grad`` the exact gradient if any, else ``G``."""
    c, jac = eval_constraints(problem, state.x)
    lam = prox_step(state.x, state.G, c, jac, state.rho, gamma).lam
    if problem.true_objective is not None:
        grad = problem.true_value_grad(state.x)[1]
    else:
        grad = state.G
    resid = grad + jac.T @ lam
    return float(resid @ resid), lam, c, jac


def _outer_loop(problem: ConstrainedProblem, config: PenaltyConfig, replication: int):
    """The outer loop of one run, as a generator: it yields each round's
    inner solve as ``(k, rho, x, budget)``, takes that solve's
    ``NscoRunResult`` back (or has its error thrown in, which ends the run),
    and returns the ``PenaltyRunResult``."""
    constants = problem.constants
    state = PenaltyState(k=0, x=np.asarray(problem.x_init, dtype=float).copy(),
                         G=np.zeros(problem.n), rho=config.rho0)
    bound = _outer_bound_or_none(config, constants)
    records: list[RunRecord] = []
    crossed = False
    gamma_last = math.nan
    for k in range(1, config.max_outer):
        steered = steer_penalty(problem, state, config.xi, config.tau)
        state.rho = steered.rho
        budget = subproblem_budget_for_rho(state.rho, config.epsilon, constants, config.oracle_mode,
                                           n=problem.n, d_tilde=config.d_tilde,
                                           d1_tilde=config.d1_tilde, d2_tilde=config.d2_tilde)
        res = yield k, state.rho, state.x, budget
        state.k = k
        state.x = res.x_R
        state.G = res.G_R
        state.oracle_calls += res.oracle_calls
        gamma_last = budget.gamma
        crit_sq = None
        if problem.true_objective is not None:
            crit_sq = _stationarity(problem, state, budget.gamma)[0]
        records.append(RunRecord(replication=replication, outer_iter=k, rho=state.rho,
                                 theta=steered.theta, phi=steered.phi, crit_sq=crit_sq,
                                 oracle_calls=state.oracle_calls))
        if bound is not None and state.rho >= bound.rho_bar:
            crossed = True
            if config.early_stop:
                break

    crit_fin, lam, c_fin, jac_fin = _stationarity(problem, state, gamma_last)
    th_fin = theta(c_fin, jac_fin).measure
    certificate = certificate_from_estimates(
        config.epsilon,
        _degenerate_estimate(crit_fin, 1),
        _degenerate_estimate(th_fin, 1),
        lam,
        1,
    )
    return PenaltyRunResult(
        state=state,
        certificate=certificate,
        records=records,
        bound=bound,
        crossed_rho_bar=crossed,
    )


def run_penalty(
    problem: ConstrainedProblem,
    config: PenaltyConfig,
    stream: RandomStream,
    replication: int = 0,
) -> PenaltyRunResult:
    """Run the penalty method with stochastic first- or zeroth-order oracles.

    Each outer round steers the penalty level at the current iterate,
    sizes the inner budget for that level at accuracy ``epsilon/4``, and
    runs the inner composite solver on the penalty subproblem.  The loop
    performs ``max_outer - 1`` rounds, or stops after the first round
    whose level reaches ``rho_bar`` when early stopping is enabled and the
    constants needed for the threshold are available.

    Parameters
    ----------
    problem : ConstrainedProblem
        Instance to solve; its constants must cover the budget formulas of
        the selected oracle mode.
    config : PenaltyConfig
        Outer-loop settings.
    stream : RandomStream
        Root randomness; round ``k`` consumes the child stream ``k``, so
        runs are reproducible and independent across replications.
    replication : int, optional
        Replication id stamped into the run records.

    Returns
    -------
    PenaltyRunResult
        Final state, a single-run certificate at the final iterate, one
        record per round, and the closed-form bound data when available.

    Notes
    -----
    Records carry the steering-time measures; the certificate re-evaluates
    theta and the stationarity residual at the returned iterate, using the
    exact objective gradient when the problem exposes one and the final
    inner gradient estimate otherwise.  The first round steers with a zero
    gradient estimate, which makes it accept the minimal increase.  The
    run ignores floating-point overflow, in its own code and in the
    problem's callables: an overflow comes out inf, which a finite check
    then turns into a ``SpenError`` such as ``DomainError``.  This is the
    one-run case of ``_run_lockstep``, the outer driver, which raises here.
    """
    result = _run_lockstep(problem, config, [stream], [replication])[0]
    if isinstance(result, Exception):
        raise result
    return result


def _run_lockstep(
    problem: ConstrainedProblem,
    config: PenaltyConfig,
    streams: list[RandomStream],
    replications: list[int],
) -> list[PenaltyRunResult | Exception]:
    """The penalty method on each ``(streams[i], replications[i])``, with
    the rounds of all the runs moving together: the one driver of
    :func:`_outer_loop`, whose one-run case is :func:`run_penalty`.

    Each run keeps its own outer loop (steering, budget, records,
    certificate).  The inner solves of a round run in lockstep through
    :func:`_solve_rows` when the runs are first-order, the problem has one
    constraint row and there are two or more runs; otherwise the mode's
    solver runs once per run.  Entry ``i`` is run ``i``'s result, or the
    first error it raised, with its message; a round's ``BudgetExceeded``
    names the round (``outer round k: ...``).  Either way entry ``i`` has
    the same bits however the runs are grouped.
    """
    if not isinstance(config, PenaltyConfig):
        raise ConfigError("run_penalty needs a PenaltyConfig")
    solver = solve_nsco_sfo if config.oracle_mode == "sfo" else solve_nsco_szo
    stacked = config.oracle_mode == "sfo" and problem.q == 1 and len(streams) > 1
    loops = [_outer_loop(problem, config, rep) for rep in replications]
    results: list[PenaltyRunResult | Exception] = [None] * len(loops)
    pending: dict[int, tuple] = {}

    def advance(i, res):
        # run i's loop takes its round's result back, or raises its error
        try:
            pending[i] = loops[i].throw(res) if isinstance(res, Exception) else loops[i].send(res)
        except StopIteration as done:
            results[i] = done.value
        except Exception as err:  # the run's error is its result
            results[i] = err

    def solve(rho, x, budget, round_stream):
        try:
            return solver(problem, rho, x, budget, round_stream)
        except Exception as err:
            return err

    with np.errstate(over="ignore"):
        for i in range(len(loops)):
            advance(i, None)
        while pending:
            live, requests = list(pending), list(pending.values())
            pending.clear()
            rounds = [(rho, x, budget, streams[i].child(k))
                      for i, (k, rho, x, budget) in zip(live, requests)]
            solved = _solve_rows(problem, rounds) if stacked else [solve(*r) for r in rounds]
            for i, (k, *_), res in zip(live, requests, solved):
                if isinstance(res, BudgetExceeded):
                    res = BudgetExceeded(f"outer round {k}: {res}")
                advance(i, res)
    return results
