"""Stochastic zeroth-order solver via Gaussian smoothing.

When only noisy function values are available, gradients of the smoothed
objective ``f_mu(x) = E_v[f(x + mu*v)]`` (``v`` standard Gaussian) are
estimated by two-point differences ``(F(x + mu*v, xi) - F(x, xi))/mu * v``
with both evaluations sharing one noise realization.  The inner loop and
stopping law are the first-order solver's; budgets additionally pick the
smoothing radius ``mu`` from the oracle-call allowance.

A run draws its directions ``(m, n)`` from ``stream.child(1)`` and the
oracle its value noise from ``stream.child(2)``, as the estimator needs the
two only to be independent.  With a second CPU, a helper thread draws the
directions ahead (numpy draws without holding the interpreter lock), with
unchanged bits.  Directions and work arrays live in buffers allocated once
per run, after a check that they fit in physical memory.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, ConfigError
from .problems import ConstrainedProblem, RandomStream
from .sfo import NscoRunResult, SolverBudget, _solve_inner, _stop_index
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
    """Mean of ``m`` two-point draws at ``x`` (``2*m`` value calls), drawn as
    iteration 1 of :func:`solve_nsco_szo` on ``stream``: its ``G_R`` at ``R = 1``."""
    if mu <= 0.0:
        raise ConfigError(f"smoothing radius must be > 0, got {mu}")
    if m < 1:
        raise ConfigError(f"batch size must be >= 1, got {m}")
    x, m = np.asarray(x, dtype=float), int(m)
    v = stream.child(1).generator().standard_normal((m, x.size))
    return _two_point_mean(problem.oracle, x, mu, v, stream.child(2).generator(),
                           _work_arrays(m, x.size))


def _work_arrays(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimator's (n, m) directions and shifted points, (m,) differences."""
    return np.empty((n, m)), np.empty((n, m)), np.empty(m)


def _two_point_mean(src, x: np.ndarray, mu: float, directions: np.ndarray,
                    rng: np.random.Generator, work: tuple) -> np.ndarray:
    # The directions are row-major (m, n), the arithmetic runs on an (n, m)
    # copy: with m innermost, numpy loops over m once per coordinate, not over
    # n once per row.  Each step rounds as the row-major formula's does, so
    # the estimate keeps its bits.  Each work array is overwritten whole.
    v, shifted, diff = work
    np.copyto(v, directions.T)
    np.multiply(v, mu, out=shifted)
    shifted += x[:, None]
    # one shared base row: f(x) is computed once, the ledger still counts 2m;
    # value sees the (m, n) batch as a column-major view.  A value that
    # overflows comes back inf, which the check below turns into a NaN estimate
    with np.errstate(over="ignore"):
        f_shift, f_base = src.value_pair_batch(shifted.T, x[None], rng)
    if not (np.isfinite(f_shift).all() and np.isfinite(f_base).all()):
        # a NaN estimate: the loop raises naming the iteration, with no inf - inf
        return np.full(x.size, np.nan)
    np.subtract(f_shift, f_base, out=diff)
    diff /= mu
    v *= diff
    # the bits of the row-major mean(axis=0): numpy adds its rows one by one,
    # so a pairwise sum(axis=1) would move the last bits of the estimate,
    # except for n = 1, whose contiguous column numpy sums pairwise
    if x.size == 1:
        return v.sum(axis=1) / diff.size
    np.add.accumulate(v, axis=1, out=v)
    return v[:, -1] / diff.size


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
    random draw for diagnostic runs.  The directions are drawn ahead by a
    helper thread when a second CPU is usable, else in the caller.  Raises
    ``ConfigError`` when the budget has no smoothing radius,
    ``BudgetExceeded`` when the run's arrays would not fit in physical
    memory, and ``DomainError`` when a batch estimate is non-finite.
    """
    if budget.mu is None:
        raise ConfigError("zeroth-order runs need a budget with a smoothing radius")
    src, m, n, mu = problem.oracle, budget.m, problem.n, budget.mu
    _check_draw_memory(rho, m, n)
    r_stop = _stop_index(budget, stream, stop_index)
    rng, noise, work = stream.child(1).generator(), stream.child(2).generator(), _work_arrays(m, n)
    if _spare_cpu():
        source = _BatchDraws(rng, (m, n), r_stop)
    else:
        buf = np.empty((m, n))
        source = nullcontext(lambda: rng.standard_normal((m, n), out=buf))
    with source as directions:
        x_r, g_r = _solve_inner(problem, rho, x_init, budget.gamma, r_stop,
                                lambda x: _two_point_mean(src, x, mu, directions(), noise, work))
    return NscoRunResult(x_R=x_r, G_R=g_r, R=r_stop, oracle_calls=2 * m * r_stop)


def _spare_cpu() -> bool:
    """Whether this process may run on two or more CPUs, so a draw thread
    has one to itself; on one it would only take turns with the caller."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _check_draw_memory(rho: float, m: int, n: int) -> None:
    """Raise ``BudgetExceeded`` when what a run holds exceeds physical
    memory, on any number of CPUs: three ``(m, n)`` direction buffers, the
    estimator's two ``(n, m)`` work arrays and its ``(m,)`` differences, and
    the three ``(m,)`` arrays of a ``GaussianOracle`` value batch.  Skipped
    where the platform does not report that memory."""
    need = 8 * m * (3 * n + 2 * n + 1 + 3)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > physical:
        raise BudgetExceeded(
            f"zeroth-order draws at rho={rho:.6g} with m={m}, n={n} need {need} bytes "
            f"with the estimator's work arrays and the oracle's values, more than the "
            f"{physical} bytes of physical memory"
        )


class _BatchDraws:
    """The directions of one run, drawn ahead; a context manager.

    A helper thread draws ``batches`` standard-normal arrays of shape
    ``size`` from ``rng``, in order, into a ring of three buffers, up to two
    batches ahead of the caller; a call returns the next.  A buffer is drawn
    into again only once the caller has asked for the batch after it, so
    never while the caller reads it.  A thread error is raised, as the same
    object, by the call that would have received the batch; leaving the
    context stops and joins the thread.
    """

    def __init__(self, rng: np.random.Generator, size: tuple, batches: int):
        # imported here: a program that never draws ahead does not load it
        from concurrent.futures import ThreadPoolExecutor

        ring = [np.empty(size) for _ in range(3)]
        self._draw = lambda k: rng.standard_normal(size, out=ring[k % 3])
        self._batches, self._drawn, self._ahead = batches, 0, []
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="spen-szo-draws")

    def _draw_next(self) -> None:
        if self._drawn < self._batches:
            self._ahead.append(self._pool.submit(self._draw, self._drawn))
            self._drawn += 1

    def __call__(self) -> np.ndarray:
        # the batch after next goes into the buffer the caller read last time
        self._draw_next()
        return self._ahead.pop(0).result()

    def __enter__(self) -> "_BatchDraws":
        self._draw_next()
        self._draw_next()
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(cancel_futures=True)
