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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .problems import ConstrainedProblem, RandomStream, eval_constraints
from .subsolvers import _aligned_rows, _prox_rows, prox_step

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
    """Mean of ``m`` gradient samples at ``x``, drawn as iteration 1 of
    :func:`solve_nsco_sfo` on ``stream``: that run's ``G_R`` at ``R = 1``."""
    if m < 1:
        raise ConfigError(f"batch size must be >= 1, got {m}")
    x, rng = np.asarray(x, dtype=float), stream.child(1).generator()
    return _batch_mean(problem.oracle, x, int(m), rng)


def _batch_mean(src, x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    # sum(axis=0) without its Python wrapper; "/=" would reject integer samples
    return np.add.reduce(src.gradient_batch(x, m, rng), 0) / m


def _stop_index(budget: SolverBudget, stream: RandomStream, stop_index: int | None) -> int:
    """The stopping index ``R``: one uniform integer draw on ``1..N`` from
    ``stream.child(0)`` (the constant step every budget prescribes makes the
    stopping law uniform), or ``stop_index`` checked against the horizon."""
    n_iters = budget.iterations
    if stop_index is None:
        return int(stream.child(0).generator().integers(1, n_iters + 1))
    r_stop = int(stop_index)
    if not 1 <= r_stop <= n_iters:
        raise ConfigError(f"stop index {r_stop} outside horizon 1..{n_iters}")
    return r_stop


def _solve_inner(
    problem: ConstrainedProblem,
    rho: float,
    x_init: np.ndarray,
    gamma: float,
    r_stop: int,
    estimate: Callable[[np.ndarray], np.ndarray],
    first: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner loop shared by the first- and zeroth-order solvers.

    Runs inner iterations ``first..r_stop`` from ``x_init``, the iterate
    ``x_first``, and returns ``(x_R, G_R)``; ``estimate(x)`` returns the
    batch gradient estimate at ``x`` from the draws it owns.  Raises
    ``ConfigError`` for a negative ``rho`` and ``DomainError`` when
    ``x_init`` has the wrong shape or an estimate is misshapen or non-finite.
    """
    if rho < 0.0:
        raise ConfigError(f"penalty parameter must be >= 0, got {rho}")
    x = np.asarray(x_init, dtype=float).copy()
    if x.shape != (problem.n,):
        raise DomainError(f"initial point has shape {x.shape}, expected ({problem.n},)")
    # iteration k estimates G_k at x_k; the last one is G_R at the returned x_R
    for k in range(first, r_stop + 1):
        grad_est = estimate(x)
        if grad_est.shape != x.shape:
            raise DomainError(f"batch gradient estimate at inner iteration {k} has shape "
                              f"{grad_est.shape}, expected {x.shape}")
        # a fifth of the cost of np.isfinite(grad_est).all() on a short vector
        if not all(map(math.isfinite, grad_est.tolist())):
            raise DomainError(f"batch gradient estimate is non-finite at inner iteration {k}")
        if k == r_stop:
            break
        c, jac = eval_constraints(problem, x)
        x = prox_step(x, grad_est, c, jac, rho, gamma).x_plus
    return x, grad_est


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
    ``x_R``.  The batches come in order from one generator on
    ``stream.child(1)``.  Oracle consumption is exactly ``m * R`` calls.
    ``stop_index`` overrides the random draw for diagnostic runs.  Raises
    ``DomainError`` when a batch estimate is non-finite.
    """
    src, m = problem.oracle, budget.m
    r_stop = _stop_index(budget, stream, stop_index)
    rng = stream.child(1).generator()
    x_r, g_r = _solve_inner(problem, rho, x_init, budget.gamma, r_stop,
                            lambda x: _batch_mean(src, x, m, rng))
    return NscoRunResult(x_R=x_r, G_R=g_r, R=r_stop, oracle_calls=m * r_stop)


def _batch_means(batches: list, ms: list[int]) -> np.ndarray:
    """``_batch_mean``'s means of the rows' ``batches`` of ``ms`` draws, stacked.

    One stacked reduction when every batch is a C-ordered float64 ndarray
    and every row has the same ``m``: numpy then sums each row's batch in the
    order it sums the batch alone, so row ``i`` has the bits of
    ``_batch_mean``.  Otherwise one ``_batch_mean`` per batch.
    """
    if ms.count(ms[0]) == len(ms) and all(type(b) is np.ndarray and b.dtype == np.float64
                                          and b.flags.c_contiguous for b in batches):
        return np.add.reduce(np.array(batches), 1) / ms[0]
    return np.array([np.add.reduce(b, 0) / m for b, m in zip(batches, ms)])


def _solve_rows(
    problem: ConstrainedProblem,
    rounds: list[tuple[float, np.ndarray, SolverBudget, RandomStream]],
) -> list[NscoRunResult | Exception]:
    """:func:`solve_nsco_sfo` on several rounds ``(rho, x_init, budget,
    stream)`` of a problem with one constraint row, in lockstep.

    Each round is a row with its own ``R`` from ``stream.child(0)``, batches
    of its own ``m`` from ``stream.child(1)``, ``rho`` and step.  The stack
    holds the rows that take a prox step: per inner iteration, one batch and
    one raw constraint call per row, the batch means (:func:`_batch_means`),
    shape and finite checks once on the stacked arrays (a Jacobian that every
    row's call returned as one object is checked once), and one
    :func:`_prox_rows`.  A row leaves the stack only by finishing its round
    in the scalar loop, ``_solve_inner``, from its iterate: with one
    iteration left; all rows once at most two would stay (for them stacking
    costs more than it saves); all rows when a draw raises, a stacked check
    or a gap fails, each redoing that iteration from the batch it drew.
    Entry ``i`` has the bits of ``solve_nsco_sfo`` on round ``i``, or is the
    error that call raises, with its message.  Every round has ``rho >= 0``
    and an ``x_init`` of shape ``(n,)``, as the penalty loop's rounds do:
    steering has evaluated the constraints at ``x_init``, and ``rho`` is at
    least ``rho0 + tau > 0``.
    """
    n, draw, cons = problem.n, problem.oracle.gradient_batch, problem.constraints
    results: list[NscoRunResult | Exception] = [None] * len(rounds)

    def finish(k, rows, drawn):
        # each round goes on from inner iteration k + 1 at its iterate, taking
        # the batch in ahead for it if drawn; None: its draw raised, and that
        # error is its result
        for (r, i, m, rng, rho_i, gamma_i, x_i), ahead in zip(rows, drawn):
            if ahead is None:
                continue
            try:
                x_r, g_r = _solve_inner(problem, rho_i, x_i, gamma_i, r,
                                        lambda x, m=m, rng=rng, ahead=ahead: np.add.reduce(
                                            ahead.pop() if ahead else draw(x, m, rng), 0) / m,
                                        first=k + 1)
                results[i] = NscoRunResult(x_R=x_r, G_R=g_r, R=r, oracle_calls=m * r)
            except Exception as err:  # what the round's own run raises
                results[i] = err

    # in descending R, so the rows that go on past an iteration lead the stack
    rows = sorted(((_stop_index(budget, stream, None), i, budget.m, stream.child(1).generator(),
                    rho, budget.gamma) for i, (rho, _, budget, stream) in enumerate(rounds)),
                  key=lambda row: -row[0])
    # aligned as the scalar loop's iterates are: the problem's callables take
    # the rows, and P3's constraint forms x @ x
    x = _aligned_rows(np.array([rounds[row[1]][1] for row in rows], dtype=float))
    columns = [list(col) for col in zip(*rows)]
    r_stop, ids, ms, rngs, rho, gamma = columns
    k = 0  # the inner iterations every row of the stack has taken
    while True:
        live = len(ids)
        while live and r_stop[live - 1] - k <= 1:
            live -= 1
        if live <= 2:
            live = 0
        if live < len(ids):
            finish(k, zip(*(col[live:] for col in columns), x[live:]), [[]] * (len(ids) - live))
            for col in columns:
                del col[live:]
            x = x[:live]
        if not live:
            return results
        batches, xs = [], list(x)
        try:
            for x_i, m, rng in zip(xs, ms, rngs):
                batches.append(draw(x_i, m, rng))
            cs, jacs = zip(*map(cons, xs))
            # what overflows or turns NaN here fails a check
            with np.errstate(all="ignore"):
                g_all, c_all = _batch_means(batches, ms), np.array(cs)
                shared = all(jac is jacs[0] for jac in jacs)
                j_all = np.asarray(jacs[0])[None] if shared else np.array(jacs)
                # a float sum of the entries is finite only if every entry is
                if (g_all.shape == x.shape and c_all.shape == (live, 1)
                        and j_all.shape == (1 if shared else live, 1, n)
                        and g_all.dtype == c_all.dtype == j_all.dtype == np.float64
                        and math.isfinite(sum(g_all.ravel().tolist()) + sum(c_all.ravel().tolist())
                                          + sum(j_all.ravel().tolist()))):
                    x_plus, _, _, ok = _prox_rows(x, g_all, c_all, j_all, rho, gamma)
                    if False not in ok:
                        x, k = x_plus, k + 1
                        continue
        except Exception as err:  # a draw's error is its round's result; any
            if len(batches) < live:  # other is met again in the scalar loop
                results[ids[len(batches)]] = err
        # every row redoes this iteration in the scalar loop and ends its round
        # there; a row past the one whose draw raised draws its own batch
        finish(k, zip(*columns, x), [[b] for b in batches] + [None] + [[]] * live)
        return results
