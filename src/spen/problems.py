"""Problem model for equality-constrained stochastic programs.

A problem bundles an exactly evaluable constraint map ``c`` (with Jacobian
``J``), a stochastic objective oracle for ``f``, optional exact objective
access for diagnostics, and smoothness/boundedness constants used by the
budget formulas.  Randomness is counter-based: every sample is a pure
function of a base seed and an integer path, so replications can be run in
any order, or concurrently, without changing any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, OracleKindError

__all__ = [
    "RandomStream",
    "ProblemConstants",
    "GaussianOracle",
    "CountingOracle",
    "KnownSolution",
    "ConstrainedProblem",
    "eval_constraints",
    "estimate_constants",
    "spectral_norm",
]


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream addressed by (seed, integer path).

    ``child(i, j, ...)`` extends the path; ``generator()`` builds a fresh
    ``numpy`` generator from scratch, so two streams with equal seed and
    path always produce identical draws regardless of call order.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.default_rng(ss)


@dataclass
class ProblemConstants:
    """Smoothness and boundedness constants feeding the budget formulas.

    ``L_g`` and ``L_J`` are Lipschitz constants of the objective gradient
    and the constraint Jacobian, ``sigma`` the oracle noise level, ``f_low``
    a lower bound on the objective, and the ``kappa_*`` fields bounds on
    gradient norm, constraint norm, objective value, and Jacobian norm over
    the region the iterates visit.  Missing fields may be filled by
    :func:`estimate_constants`.
    """

    L_g: float | None = None
    L_J: float | None = None
    sigma: float | None = None
    f_low: float | None = None
    kappa_g: float | None = None
    kappa_c: float | None = None
    kappa_f: float | None = None
    kappa_J: float | None = None

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(f"missing problem constants: {', '.join(missing)}")
        for n in names:
            v = float(getattr(self, n))
            if not np.isfinite(v):
                raise ConfigError(f"constant {n} must be finite, got {v}")
            if n in ("L_g", "L_J") and v <= 0.0:
                raise ConfigError(f"constant {n} must be > 0, got {v}")
            if n == "sigma" and v < 0.0:
                raise ConfigError(f"constant sigma must be >= 0, got {v}")


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; 0.0 for an all-zero matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.any(a):
        return 0.0
    return float(np.linalg.norm(a, 2))


class GaussianOracle:
    """Additive-Gaussian stochastic oracle around exact callables.

    Gradient samples are ``grad(x) + w`` with ``w ~ N(0, (sigma^2/n) I)``,
    so the mean-squared deviation equals ``sigma^2`` in every dimension.
    Value samples are ``value(x) + e`` with ``e ~ N(0, sigma^2)``.  A value
    pair shares one ``e`` between its two evaluations, which is the common
    random numbers convention used by two-point gradient estimators.

    ``value`` and ``grad`` must accept a single point of shape ``(n,)``;
    when ``vectorized`` is true, ``value`` must additionally accept a batch
    of shape ``(m, n)`` and return shape ``(m,)``.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], float] | None = None,
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        sigma: float = 0.0,
        vectorized: bool = True,
    ):
        if sigma < 0.0:
            raise ConfigError(f"oracle noise level must be >= 0, got {sigma}")
        self._value = value
        self._grad = grad
        self.sigma = float(sigma)
        self.vectorized = bool(vectorized)

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    @property
    def has_value(self) -> bool:
        return self._value is not None

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self._grad is None:
            raise OracleKindError("oracle provides no gradient (SFO) samples")
        g = np.asarray(self._grad(x), dtype=float)
        if self.sigma > 0.0:
            g = g + (self.sigma / np.sqrt(g.size)) * rng.standard_normal(g.size)
        return g

    def gradient_batch(self, x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        """Stack of ``m`` independent gradient samples, shape ``(m, n)``."""
        if self._grad is None:
            raise OracleKindError("oracle provides no gradient (SFO) samples")
        g = np.asarray(self._grad(x), dtype=float)
        if self.sigma > 0.0:
            return g + (self.sigma / math.sqrt(g.size)) * rng.standard_normal((m, g.size))
        return np.tile(g, (m, 1))

    def sample_value(self, x: np.ndarray, rng: np.random.Generator) -> float:
        if self._value is None:
            raise OracleKindError("oracle provides no value (SZO) samples")
        v = float(self._value(np.asarray(x, dtype=float)))
        if self.sigma > 0.0:
            v += self.sigma * float(rng.standard_normal())
        return v

    def sample_value_pair(
        self, x_a: np.ndarray, x_b: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, float]:
        """Two value samples sharing one realization of the noise."""
        if self._value is None:
            raise OracleKindError("oracle provides no value (SZO) samples")
        e = self.sigma * float(rng.standard_normal()) if self.sigma > 0.0 else 0.0
        fa = float(self._value(np.asarray(x_a, dtype=float))) + e
        fb = float(self._value(np.asarray(x_b, dtype=float))) + e
        return fa, fb

    def value_pair_batch(
        self, xs_a: np.ndarray, xs_b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise value pairs; row ``i`` of both outputs shares one noise draw."""
        if self._value is None:
            raise OracleKindError("oracle provides no value (SZO) samples")
        xs_a = np.asarray(xs_a, dtype=float)
        xs_b = np.asarray(xs_b, dtype=float)
        m = xs_a.shape[0]
        if self.vectorized:
            fa = np.asarray(self._value(xs_a), dtype=float).reshape(m)
            fb = np.asarray(self._value(xs_b), dtype=float).reshape(m)
        else:
            fa = np.array([float(self._value(xs_a[i])) for i in range(m)])
            fb = np.array([float(self._value(xs_b[i])) for i in range(m)])
        if self.sigma > 0.0:
            e = self.sigma * rng.standard_normal(m)
            fa = fa + e
            fb = fb + e
        return fa, fb


class CountingOracle:
    """Wrapper that ledgers every oracle invocation.

    A value pair counts as two calls; a gradient batch of size ``m`` as
    ``m`` calls.  Used by solver runs so the reported consumption equals
    the oracle's own counter exactly.
    """

    def __init__(self, inner: GaussianOracle):
        self.inner = inner
        self.calls = 0

    @property
    def sigma(self) -> float:
        return self.inner.sigma

    @property
    def has_gradient(self) -> bool:
        return self.inner.has_gradient

    @property
    def has_value(self) -> bool:
        return self.inner.has_value

    def sample_gradient(self, x, rng):
        self.calls += 1
        return self.inner.sample_gradient(x, rng)

    def gradient_batch(self, x, m, rng):
        self.calls += int(m)
        return self.inner.gradient_batch(x, m, rng)

    def sample_value(self, x, rng):
        self.calls += 1
        return self.inner.sample_value(x, rng)

    def sample_value_pair(self, x_a, x_b, rng):
        self.calls += 2
        return self.inner.sample_value_pair(x_a, x_b, rng)

    def value_pair_batch(self, xs_a, xs_b, rng):
        self.calls += 2 * int(np.asarray(xs_a).shape[0])
        return self.inner.value_pair_batch(xs_a, xs_b, rng)


@dataclass(frozen=True)
class KnownSolution:
    """Reference primal-dual solution stored with a test problem."""

    x_star: np.ndarray
    lambda_star: np.ndarray | None = None
    f_star: float | None = None


@dataclass(frozen=True, eq=False)
class ConstrainedProblem:
    """min f(x) subject to c(x) = 0, with f reachable only through oracles.

    ``constraints`` maps a point to ``(c, J)`` with shapes ``(q,)`` and
    ``(q, n)`` and is exact.  ``true_objective`` (optional) maps a point to
    ``(f, grad_f)`` and is used for diagnostics and certification only,
    never by the solvers.  Instances are immutable and safe to share
    across concurrently running replications.
    """

    n: int
    q: int
    constraints: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    oracle: GaussianOracle
    constants: ProblemConstants = field(default_factory=ProblemConstants)
    true_objective: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None
    x_init: np.ndarray | None = None
    box: tuple[np.ndarray, np.ndarray] | None = None
    known_solution: KnownSolution | None = None
    name: str = ""

    def true_value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.true_objective is None:
            raise OracleKindError("problem has no exact objective access")
        f, g = self.true_objective(np.asarray(x, dtype=float))
        return float(f), np.asarray(g, dtype=float)


def eval_constraints(problem: ConstrainedProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(c(x), J(x))`` with shape and finiteness validation."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DomainError(f"point has shape {x.shape}, expected ({problem.n},)")
    c, jac = problem.constraints(x)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = np.asarray(jac, dtype=float)
    # one combined test first: the sum of squares is non-finite whenever an
    # entry is (and on overflow, which the detailed checks below let pass)
    if (
        c.shape == (problem.q,)
        and jac.shape == (problem.q, problem.n)
        and math.isfinite(c.dot(c) + jac.ravel().dot(jac.ravel()))
    ):
        return c, jac
    if c.shape != (problem.q,):
        raise DomainError(f"constraint value has shape {c.shape}, expected ({problem.q},)")
    if jac.shape != (problem.q, problem.n):
        raise DomainError(
            f"constraint Jacobian has shape {jac.shape}, expected ({problem.q}, {problem.n})"
        )
    if not np.all(np.isfinite(c)):
        bad = int(np.flatnonzero(~np.isfinite(c))[0])
        raise DomainError(f"constraint component {bad} is non-finite at the queried point")
    if not np.all(np.isfinite(jac)):
        bad = np.argwhere(~np.isfinite(jac))[0]
        raise DomainError(
            f"Jacobian entry ({int(bad[0])}, {int(bad[1])}) is non-finite at the queried point"
        )
    return c, jac


def _grad_probe(problem: ConstrainedProblem, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Best available gradient estimate at ``x`` for constant estimation."""
    if problem.true_objective is not None:
        return problem.true_value_grad(x)[1]
    if problem.oracle.has_gradient:
        # average a small batch to tame oracle noise
        return problem.oracle.gradient_batch(x, 64, rng).mean(axis=0)
    raise ConfigError("constant estimation needs true_objective or an SFO oracle")


def estimate_constants(
    problem: ConstrainedProblem, trials: int, stream: RandomStream
) -> ProblemConstants:
    """Fill missing problem constants by sampling the declared box.

    Lipschitz constants are estimated as the maximum difference quotient
    over ``trials`` random point pairs, inflated by 1.5 as a safety
    margin; boundedness constants as inflated maxima over the samples.
    Declared (non-``None``) constants pass through unchanged.
    """
    c0 = problem.constants
    need = [k for k in ("L_g", "L_J", "sigma", "f_low", "kappa_g", "kappa_c", "kappa_f", "kappa_J")
            if getattr(c0, k) is None]
    if not need:
        return c0
    if problem.box is None:
        raise ConfigError("constant estimation requires a declared sampling box")
    if trials < 2:
        raise ConfigError(f"constant estimation needs trials >= 2, got {trials}")
    lo, hi = (np.asarray(b, dtype=float) for b in problem.box)
    rng = stream.generator()
    pts = lo + (hi - lo) * rng.random((trials, problem.n))

    grads = None
    if {"L_g", "kappa_g"} & set(need):
        grads = np.stack([_grad_probe(problem, p, rng) for p in pts])
    vals = None
    if {"f_low", "kappa_f"} & set(need):
        if problem.true_objective is not None:
            vals = np.array([problem.true_value_grad(p)[0] for p in pts])
        elif problem.oracle.has_value:
            vals = np.array(
                [np.mean([problem.oracle.sample_value(p, rng) for _ in range(16)]) for p in pts]
            )
        else:
            raise ConfigError("constant estimation needs true_objective or an SZO oracle")
    cons = jacs = None
    if {"L_J", "kappa_c", "kappa_J"} & set(need):
        pairs = [eval_constraints(problem, p) for p in pts]
        cons = np.stack([p[0] for p in pairs])
        jacs = np.stack([p[1] for p in pairs])

    out = replace(c0)
    gaps = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    gaps = np.where(gaps > 1e-12, gaps, 1.0)
    if "L_g" in need:
        quot = np.linalg.norm(grads[1:] - grads[:-1], axis=1) / gaps
        out.L_g = 1.5 * float(np.max(quot))
    if "L_J" in need:
        quot = np.array(
            [spectral_norm(jacs[i + 1] - jacs[i]) for i in range(trials - 1)]
        ) / gaps
        out.L_J = 1.5 * float(np.max(quot))
    if "sigma" in need:
        if problem.oracle.has_gradient:
            draws = problem.oracle.gradient_batch(pts[0], 64, rng)
            dev = draws - draws.mean(axis=0)
            out.sigma = 1.5 * float(np.sqrt((dev**2).sum(axis=1).mean()))
        else:
            out.sigma = problem.oracle.sigma
    if "kappa_g" in need:
        out.kappa_g = 1.5 * float(np.max(np.linalg.norm(grads, axis=1)))
    if "f_low" in need:
        spread = float(np.max(vals) - np.min(vals))
        out.f_low = float(np.min(vals)) - 0.5 * (spread + 1.0)
    if "kappa_f" in need:
        top = float(np.max(vals))
        out.kappa_f = top + 0.5 * (abs(top) + 1.0)
    if "kappa_c" in need:
        out.kappa_c = 1.5 * float(np.max(np.linalg.norm(cons, axis=1)))
    if "kappa_J" in need:
        out.kappa_J = 1.5 * float(np.max([spectral_norm(j) for j in jacs]))
    return out
