"""Stochastic zeroth-order solver via Gaussian smoothing.

When only noisy function values are available, gradients of the smoothed
objective ``f_mu(x) = E_v[f(x + mu*v)]`` (``v`` standard Gaussian) are
estimated by two-point differences ``(F(x + mu*v, xi) - F(x, xi))/mu * v``
with both evaluations sharing one noise realization.  The inner loop and
stopping law are the first-order solver's; budgets additionally pick the
smoothing radius ``mu`` from the oracle-call allowance.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError
from .problems import ConstrainedProblem, RandomStream
from .sfo import NscoRunResult, SolverBudget, _solve_inner
from .stats import ExpectationEstimate, mean_estimate

__all__ = [
    "szo_gradient_batch",
    "smoothed_reference",
    "sigma_tilde_sq",
    "szo_budget",
    "solve_nsco_szo",
]


def szo_gradient_batch(
    problem: ConstrainedProblem,
    x: np.ndarray,
    mu: float,
    m: int,
    stream: RandomStream,
) -> np.ndarray:
    """Mean of ``m`` two-point draws at ``x``; consumes ``2*m`` value calls."""
    if mu <= 0.0:
        raise ConfigError(f"smoothing radius must be > 0, got {mu}")
    if m < 1:
        raise ConfigError(f"batch size must be >= 1, got {m}")
    x = np.asarray(x, dtype=float)
    return _two_point_mean(problem.oracle, x, mu, int(m), stream.generator())


def _two_point_mean(src, x: np.ndarray, mu: float, m: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((m, x.size))
    # one shared base row: f(x) is computed once, the ledger still counts 2m
    f_shift, f_base = src.value_pair_batch(x + mu * v, x[None], rng)
    if not (np.isfinite(f_shift).all() and np.isfinite(f_base).all()):
        # a NaN estimate: the loop raises naming the iteration, with no inf - inf
        return np.full(x.size, np.nan)
    return (((f_shift - f_base) / mu)[:, None] * v).mean(axis=0)


def smoothed_reference(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    mu: float,
    samples: int,
    stream: RandomStream,
) -> ExpectationEstimate:
    """Monte-Carlo estimate of ``E_v[fn(x + mu*v)]`` with its standard error.

    ``fn`` maps a ``(samples, n)`` batch of points to their ``samples`` values.
    """
    if samples < 2:
        raise ConfigError(f"smoothed reference needs samples >= 2, got {samples}")
    x = np.asarray(x, dtype=float)
    v = stream.generator().standard_normal((int(samples), x.size))
    return mean_estimate(fn(x + mu * v))


def sigma_tilde_sq(n: int, kappa_g: float, sigma: float, mu: float, L_g: float) -> float:
    """Second-moment bound of one two-point draw:
    ``2*(n+4)*(kappa_g^2 + sigma^2 + mu^2*L_g^2*(n+4)^2)``."""
    return 2.0 * (n + 4) * (kappa_g**2 + sigma**2 + mu**2 * L_g**2 * (n + 4) ** 2)


def szo_budget(
    epsilon: float,
    d_phi: float,
    L: float,
    L_g: float,
    n: int,
    kappa_g: float,
    sigma: float,
    d1_tilde: float = 1.0,
    d2_tilde: float = 1.0,
) -> SolverBudget:
    """Oracle budget achieving ``E||g~_R||^2 <= epsilon`` with value calls only.

    With ``C1~ = 24*(n+4)*(kappa_g^2 + sigma^2)*sqrt(d2_tilde)``:

    ``n_bar >= max{ ((16*d_phi/sqrt(d2_tilde) + L*C1~)/epsilon)^2
    + (104*L*L_g*d1_tilde*(n+4) + 64*L*d_phi)/epsilon, 1/(L^2*d2_tilde) }``,

    ``m = ceil(min{n_bar, max{1, sqrt(n_bar/d2_tilde)/L}})``, smoothing
    radius ``mu = sqrt(d1_tilde/n_bar)``, and step size ``1/L``.
    """
    if epsilon <= 0.0:
        raise ConfigError(f"budget accuracy epsilon must be > 0, got {epsilon}")
    if d_phi < 0.0:
        raise ConfigError(f"budget gap d_phi must be >= 0, got {d_phi}")
    if L <= 0.0 or L_g <= 0.0:
        raise ConfigError("budget smoothness constants must be > 0")
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    if kappa_g < 0.0 or sigma < 0.0:
        raise ConfigError("kappa_g and sigma must be >= 0")
    if d1_tilde <= 0.0 or d2_tilde <= 0.0:
        raise ConfigError("budget constants d1_tilde, d2_tilde must be > 0")
    c1t = 24.0 * (n + 4) * (kappa_g**2 + sigma**2) * math.sqrt(d2_tilde)
    n_bar_real = max(
        (16.0 * d_phi / math.sqrt(d2_tilde) + L * c1t) ** 2 / epsilon**2
        + (104.0 * L * L_g * d1_tilde * (n + 4) + 64.0 * L * d_phi) / epsilon,
        1.0 / (L**2 * d2_tilde),
    )
    n_bar = max(1, math.ceil(n_bar_real))
    m = max(1, math.ceil(min(float(n_bar), max(1.0, math.sqrt(n_bar / d2_tilde) / L))))
    mu = math.sqrt(d1_tilde / n_bar)
    return SolverBudget(n_bar=n_bar, m=m, gamma=1.0 / L, L=L, mu=mu)


def solve_nsco_szo(
    problem: ConstrainedProblem,
    rho: float,
    x_init: np.ndarray,
    budget: SolverBudget,
    stream: RandomStream,
    stop_index: int | None = None,
) -> NscoRunResult:
    """Run the stochastic zeroth-order composite solver under a budget.

    The first-order solver's loop with the batch gradient replaced by the
    two-point smoothed estimator; one draw costs 2 value calls, so
    consumption is exactly ``2 * m * R``.  ``stop_index`` overrides the
    random draw for diagnostic runs.  Raises ``ConfigError`` when the
    budget has no smoothing radius and ``DomainError`` when a batch
    estimate is non-finite.
    """
    if budget.mu is None:
        raise ConfigError("zeroth-order runs need a budget with a smoothing radius")
    src, m, mu = problem.oracle, budget.m, budget.mu
    return _solve_inner(
        problem, rho, x_init, budget, stream, stop_index,
        lambda x, rng: _two_point_mean(src, x, mu, m, rng), 2 * m,
    )
