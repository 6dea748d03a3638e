"""Stochastic zeroth-order solver via Gaussian smoothing.

When only noisy function values are available, gradients of the smoothed
objective ``f_mu(x) = E_v[f(x + mu*v)]`` (``v`` standard Gaussian) are
estimated by two-point differences ``(F(x + mu*v, xi) - F(x, xi))/mu * v``
with both evaluations sharing one noise realization.  The inner loop and
stopping law are the first-order solver's; budgets additionally pick the
smoothing radius ``mu`` from the oracle-call allowance.

The solver draws its standard normals one batch ahead on a helper thread:
while iteration k evaluates values and takes its prox step, the thread
draws iteration k+1's directions ``(m, n)`` and then its value noise
``(m,)`` from the run's one generator, in the order the loop would draw
them itself, so every bit is unchanged.  numpy fills a large draw without
holding the interpreter lock, so on two or more cores the draws overlap
the rest of the iteration; a process that may use only one CPU draws in
the calling thread, with the same bits.  Up to three batches are alive at
once (one in use, one waiting, one being drawn), so a round needs about
``3 * 8 * m * (n + 1)`` bytes for its draws; a round whose draws would not
fit in physical memory raises ``BudgetExceeded`` before it draws anything.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, ConfigError
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
    # The draws are row-major (m, n) as ever, but the arithmetic runs on an
    # (n, m) copy: with m innermost, numpy loops over m once per coordinate
    # instead of over n once per row.  Each step rounds as the row-major
    # formula's does, so the estimate keeps its bits.
    v = rng.standard_normal((m, x.size)).T.copy()
    shifted = v * mu
    shifted += x[:, None]
    # one shared base row: f(x) is computed once, the ledger still counts 2m;
    # value sees the (m, n) batch as a column-major view
    f_shift, f_base = src.value_pair_batch(shifted.T, x[None], rng)
    if not (np.isfinite(f_shift).all() and np.isfinite(f_base).all()):
        # a NaN estimate: the loop raises naming the iteration, with no inf - inf
        return np.full(x.size, np.nan)
    v *= (f_shift - f_base) / mu
    # the bits of the row-major mean(axis=0): numpy adds its rows one by one,
    # so a pairwise sum(axis=1) would move the last bits of the estimate,
    # except for n = 1, whose contiguous column numpy sums pairwise
    if x.size == 1:
        return v.sum(axis=1) / m
    np.add.accumulate(v, axis=1, out=v)
    return v[:, -1] / m


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
    random draw for diagnostic runs.  The standard normals are drawn one
    batch ahead on a helper thread where a second CPU is usable, with the
    bits of drawing them in order; the oracle must draw as
    ``GaussianOracle.value_pair_batch`` does, or the run raises
    ``RuntimeError``.  Raises ``ConfigError`` when the budget has no
    smoothing radius, ``BudgetExceeded`` when the draws in flight would not
    fit in physical memory, and ``DomainError`` when a batch estimate is
    non-finite.
    """
    if budget.mu is None:
        raise ConfigError("zeroth-order runs need a budget with a smoothing radius")
    src, m, mu = problem.oracle, budget.m, budget.mu
    _check_draw_memory(rho, m, problem.n)
    # each iteration draws its directions, then (with noise) its shared value noise
    sizes = ((m, problem.n), (m,)) if src.sigma > 0.0 else ((m, problem.n),)
    return _solve_inner(
        problem, rho, x_init, budget, stream, stop_index,
        lambda x, rng: _two_point_mean(src, x, mu, m, rng), 2 * m,
        draws=lambda rng, batches: _BatchDraws(rng, sizes, batches, _spare_cpu()),
    )


def _spare_cpu() -> bool:
    """Whether this process may run on two or more CPUs, so a draw thread
    has one to itself.  On one CPU it would only take turns with the caller
    (about 5 % slower on P2); where the affinity mask is not available, the
    CPU count decides."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


# batches alive at once: the caller's, the one waiting, the one being drawn
_BATCHES_IN_FLIGHT = 3


def _check_draw_memory(rho: float, m: int, n: int) -> None:
    """Raise ``BudgetExceeded`` when the run's draws in flight, directions
    and value noise of ``_BATCHES_IN_FLIGHT`` batches, exceed physical
    memory.  Skipped where the platform does not report that memory."""
    need = _BATCHES_IN_FLIGHT * 8 * m * (n + 1)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > physical:
        raise BudgetExceeded(
            f"zeroth-order draws at rho={rho:.6g} with m={m}, n={n} need {need} bytes "
            f"in flight, more than the {physical} bytes of physical memory"
        )


class _BatchDraws:
    """Generator stand-in for one zeroth-order run, used as a context manager.

    The run draws ``batches`` batches from ``rng``, each one array per entry
    of ``sizes`` in that order.  ``standard_normal(size)`` returns the next
    array, and raises ``RuntimeError`` if ``size`` is not the next size of
    that pattern, as does leaving the context in the middle of a batch, so a
    changed draw pattern fails instead of moving bits, on any number of
    CPUs.  With ``ahead``, a helper thread draws the batches at most one
    batch ahead of the caller (one more waits in a queue of one); an error
    in the thread is raised, as the same object, by the call that would have
    received the batch, and leaving the context stops and joins the thread,
    so none outlives the run.  Without, each array is drawn in the calling
    thread when it is asked for, as the generator itself would.
    """

    def __init__(self, rng: np.random.Generator, sizes: tuple, batches: int, ahead: bool):
        self._rng, self._sizes = rng, sizes
        self._at = 0  # index in ``sizes`` of the next draw
        self._batch: list = []
        self._thread = None
        if ahead:
            # imported here: a program that never runs a zeroth-order solve
            # on two CPUs does not load the queue module
            import queue
            import threading

            self._ready: queue.Queue = queue.Queue(maxsize=1)
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._fill, args=(batches,), name="spen-szo-draws", daemon=True
            )

    def _fill(self, batches: int) -> None:
        # only the generator runs here: spen code and its callers' hooks stay
        # on the caller's thread
        try:
            for _ in range(batches):
                if self._stop.is_set():
                    return
                # reversed, so that pop() hands the arrays out in drawing order
                self._ready.put([self._rng.standard_normal(size) for size in self._sizes][::-1])
        except BaseException as err:
            self._ready.put(err)

    def standard_normal(self, size) -> np.ndarray:
        want = self._sizes[self._at]
        if (size if isinstance(size, tuple) else (size,)) != want:
            raise RuntimeError(f"draw of size {size} where the run draws {want}")
        self._at = (self._at + 1) % len(self._sizes)
        if self._thread is None:
            return self._rng.standard_normal(want)
        if not self._batch:
            item = self._ready.get()
            if isinstance(item, BaseException):
                raise item
            self._batch = item
        return self._batch.pop()

    def __enter__(self) -> "_BatchDraws":
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            # with the stop set, the thread puts at most once more; emptying
            # the queue once (only the thread fills it) lets that put through
            if not self._ready.empty():
                self._ready.get()
            self._thread.join()
        if exc[0] is None and self._at:
            raise RuntimeError(f"the run ended {len(self._sizes) - self._at} draws short of a batch")
