"""Stochastic first-order solver for nonconvex composite subproblems.

Minimizes ``Phi_h(x) = f(x) + rho*||c(x)||`` given only noisy gradients of
``f``: at each inner iteration a mini-batch gradient is averaged and one
prox step of the linearized model is taken.  The returned iterate is the
one at a randomly sampled stopping index, whose law is proportional to
``gamma_k - L*gamma_k^2/2``; under the constant step every budget
prescribes, that law is uniform on the horizon.  Budget formulas
translate a target accuracy ``epsilon`` into the total oracle-call count,
batch size, and step size that make the expected squared generalized
gradient at the returned iterate at most ``epsilon``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager

import numpy as np

from .errors import ConfigError, DomainError
from .problems import ConstrainedProblem, RandomStream, eval_constraints
from .subsolvers import prox_step

__all__ = [
    "SolverBudget",
    "NscoRunResult",
    "stopping_pmf",
    "sample_stop_index",
    "sfo_budget",
    "batch_gradient",
    "solve_nsco_sfo",
    "sfo_stationarity_bound",
]


@dataclass(frozen=True)
class SolverBudget:
    """Oracle budget for one inner solver run.

    ``n_bar`` is the total oracle-call allowance, ``m`` the batch size,
    ``gamma`` the constant step size, ``L`` the smoothness constant the
    budget was computed for, and ``mu`` the smoothing radius (zeroth-order
    runs only).
    """

    n_bar: int
    m: int
    gamma: float
    L: float
    mu: float | None = None

    def __post_init__(self):
        if self.n_bar < 1:
            raise ConfigError(f"budget n_bar must be >= 1, got {self.n_bar}")
        if self.m < 1:
            raise ConfigError(f"budget m must be >= 1, got {self.m}")
        if self.gamma <= 0.0:
            raise ConfigError(f"budget gamma must be > 0, got {self.gamma}")
        if self.L <= 0.0:
            raise ConfigError(f"budget L must be > 0, got {self.L}")
        if self.mu is not None and self.mu <= 0.0:
            raise ConfigError(f"budget mu must be > 0, got {self.mu}")

    @property
    def iterations(self) -> int:
        """Inner iteration horizon N implied by the budget."""
        return max(1, math.ceil(self.n_bar / self.m))


@dataclass(frozen=True)
class NscoRunResult:
    """Outcome of one inner solver run.

    ``x_R`` is the iterate at the sampled stopping index ``R`` and ``G_R``
    the batch gradient estimate computed at ``x_R`` itself, so callers can
    reuse it without extra oracle calls.  ``oracle_calls`` is the run's
    exact consumption.
    """

    x_R: np.ndarray
    G_R: np.ndarray
    R: int
    oracle_calls: int


def stopping_pmf(gammas: np.ndarray, L: float) -> np.ndarray:
    """Stopping-index distribution with masses ``gamma_k - L*gamma_k^2/2``.

    Raises ``ConfigError`` if any step size exceeds ``2/L`` (negative
    mass) or if every mass is zero.  Indices with zero mass simply have
    probability zero.
    """
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ConfigError("stopping law needs a nonempty step-size sequence")
    if np.any(g <= 0.0):
        raise ConfigError("step sizes must be positive")
    w = g - L * g**2 / 2.0
    if np.any(w < -1e-15 * max(1.0, float(np.max(g)))):
        raise ConfigError("step sizes must satisfy gamma_k <= 2/L for the stopping law")
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if total <= 0.0:
        raise ConfigError("stopping law is degenerate: all masses are zero")
    return w / total


def sample_stop_index(pmf: np.ndarray, stream: RandomStream) -> int:
    """Draw the 1-based stopping index from a stopping distribution."""
    pmf = np.asarray(pmf, dtype=float)
    rng = stream.generator()
    return int(rng.choice(pmf.size, p=pmf)) + 1


def sfo_budget(
    epsilon: float,
    d_phi: float,
    L: float,
    sigma: float,
    d_tilde: float = 1.0,
) -> SolverBudget:
    """Oracle budget achieving ``E||g~_R||^2 <= epsilon`` with noisy gradients.

    Uses ``C1 = sigma^2/d_tilde``, ``C2 = 8*sigma/sqrt(d_tilde)``,
    ``C3 = 6*sigma*sqrt(d_tilde)`` and

    ``n_bar >= max{ ((d_phi*C2 + L*C3)/epsilon)^2 + 32*L*d_phi/epsilon,
    C1/L^2 }``,

    with batch size ``m = ceil(min{n_bar, max{1, (sigma/L)*sqrt(n_bar/d_tilde)}})``
    and step size ``1/L``.
    """
    if epsilon <= 0.0:
        raise ConfigError(f"budget accuracy epsilon must be > 0, got {epsilon}")
    if d_phi < 0.0:
        raise ConfigError(f"budget gap d_phi must be >= 0, got {d_phi}")
    if L <= 0.0:
        raise ConfigError(f"budget smoothness L must be > 0, got {L}")
    if sigma < 0.0:
        raise ConfigError(f"budget noise sigma must be >= 0, got {sigma}")
    if d_tilde <= 0.0:
        raise ConfigError(f"budget constant d_tilde must be > 0, got {d_tilde}")
    c1 = sigma**2 / d_tilde
    c2 = 8.0 * sigma / math.sqrt(d_tilde)
    c3 = 6.0 * sigma * math.sqrt(d_tilde)
    n_bar_real = max(
        (d_phi * c2 + L * c3) ** 2 / epsilon**2 + 32.0 * L * d_phi / epsilon,
        c1 / L**2,
    )
    n_bar = max(1, math.ceil(n_bar_real))
    m = max(1, math.ceil(min(float(n_bar), max(1.0, (sigma / L) * math.sqrt(n_bar / d_tilde)))))
    return SolverBudget(n_bar=n_bar, m=m, gamma=1.0 / L, L=L)


def sfo_stationarity_bound(budget: SolverBudget, d_phi: float, sigma: float) -> float:
    """Guaranteed bound on ``E||g~_R^r||^2`` for a run under ``budget``.

    Evaluates ``(d_phi + sigma^2*sum(gamma_k/m)) / sum(gamma_k - L*gamma_k^2/2)``
    for the constant-step schedule the budget prescribes.
    """
    n = budget.iterations
    num = d_phi + sigma**2 * n * budget.gamma / budget.m
    den = n * (budget.gamma - budget.L * budget.gamma**2 / 2.0)
    return num / den


def batch_gradient(
    problem: ConstrainedProblem,
    x: np.ndarray,
    m: int,
    stream: RandomStream,
) -> np.ndarray:
    """Arithmetic mean of ``m`` independent gradient oracle samples at ``x``."""
    if m < 1:
        raise ConfigError(f"batch size must be >= 1, got {m}")
    return _batch_mean(problem.oracle, np.asarray(x, dtype=float), int(m), stream.generator())


def _batch_mean(src, x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    return src.gradient_batch(x, m, rng).sum(axis=0) / m


def _solve_inner(
    problem: ConstrainedProblem,
    rho: float,
    x_init: np.ndarray,
    budget: SolverBudget,
    stream: RandomStream,
    stop_index: int | None,
    estimate: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    calls_per_batch: int,
    draws: Callable[[np.random.Generator, int], ContextManager] | None = None,
) -> NscoRunResult:
    """Inner loop shared by the first- and zeroth-order solvers.

    ``estimate(x, rng)`` returns the batch gradient estimate at ``x`` and
    costs ``calls_per_batch`` oracle calls.  With the constant step every
    budget prescribes, the stopping law is uniform, so ``R`` is one integer
    draw on ``1..N`` from ``stream.child(0)``.  Every batch of the run comes,
    in order, from one generator on ``stream.child(1)``; a run with
    ``stop_index=R`` therefore repeats the random-``R`` run bit for bit.
    ``draws(generator, R)``, if given, is a context manager that the loop
    runs in; what it yields stands in for the generator in ``estimate``.
    """
    if rho < 0.0:
        raise ConfigError(f"penalty parameter must be >= 0, got {rho}")
    n_iters = budget.iterations
    if stop_index is None:
        r_stop = int(stream.child(0).generator().integers(1, n_iters + 1))
    else:
        r_stop = int(stop_index)
        if not 1 <= r_stop <= n_iters:
            raise ConfigError(f"stop index {r_stop} outside horizon 1..{n_iters}")
    rng = stream.child(1).generator()
    gamma = budget.gamma
    x = np.asarray(x_init, dtype=float).copy()
    with nullcontext(rng) if draws is None else draws(rng, r_stop) as rng:
        # iteration k estimates G_k at x_k; the last one is G_R at the returned x_R
        for k in range(1, r_stop + 1):
            grad_est = estimate(x, rng)
            if not np.isfinite(grad_est).all():
                raise DomainError(f"batch gradient estimate is non-finite at inner iteration {k}")
            if k == r_stop:
                break
            c, jac = eval_constraints(problem, x)
            x = prox_step(x, grad_est, c, jac, rho, gamma).x_plus
    return NscoRunResult(
        x_R=x,
        G_R=grad_est,
        R=r_stop,
        oracle_calls=calls_per_batch * r_stop,
    )


def solve_nsco_sfo(
    problem: ConstrainedProblem,
    rho: float,
    x_init: np.ndarray,
    budget: SolverBudget,
    stream: RandomStream,
    stop_index: int | None = None,
) -> NscoRunResult:
    """Run the stochastic first-order composite solver under a budget.

    Draws the stopping index ``R`` uniformly on the horizon, performs
    ``R - 1`` mini-batch gradient and prox-step iterations, then evaluates
    one extra batch at the returned iterate so that ``G_R`` matches
    ``x_R``.  Oracle consumption is exactly ``m * R`` calls.
    ``stop_index`` overrides the random draw for diagnostic runs.  Raises
    ``DomainError`` when a batch estimate is non-finite.
    """
    src, m = problem.oracle, budget.m
    return _solve_inner(
        problem, rho, x_init, budget, stream, stop_index,
        lambda x, rng: _batch_mean(src, x, m, rng), m,
    )
