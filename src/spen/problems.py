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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, OracleKindError

__all__ = [
    "RandomStream",
    "ProblemConstants",
    "GaussianOracle",
    "KnownSolution",
    "ConstrainedProblem",
    "eval_constraints",
    "stackable",
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


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and boundedness constants feeding the budget formulas.

    ``L_g`` and ``L_J`` are Lipschitz constants of the objective gradient
    and the constraint Jacobian, ``sigma`` the oracle noise level, ``f_low``
    a lower bound on the objective, and the ``kappa_*`` fields bounds on
    gradient norm, constraint norm, objective value, and Jacobian norm over
    the region the iterates visit.  Budget code checks the fields it needs
    with :meth:`require`.
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


class GaussianOracle:
    """Additive-Gaussian stochastic oracle around exact callables.

    Gradient samples are ``grad(x) + w`` with ``w ~ N(0, (sigma^2/n) I)``,
    so the mean-squared deviation equals ``sigma^2`` in every dimension.
    Value samples are ``value(x) + e`` with ``e ~ N(0, sigma^2)``.  A value
    pair shares one ``e`` between its two evaluations, which is the common
    random numbers convention used by two-point gradient estimators.

    It serves both methods of the oracle contract (see
    :class:`ConstrainedProblem`) and declares nothing about its draws: in a
    zeroth-order run its ``rng`` is a stream of its own, apart from the
    estimator's directions.  ``grad`` takes a point of shape ``(n,)``, and
    also a stack of points when it is marked :func:`stackable`;
    ``value`` takes a batch of shape ``(m, n)`` and returns shape ``(m,)``.
    The zeroth-order estimator passes that batch as a column-major view of a
    buffer it reuses, valid only during the call, so that numpy's loops run
    over the long axis m; a ``value`` that sums the n entries of each row
    with numpy may then round differently than on a C-ordered batch once n
    reaches 8, where numpy's pairwise row sum changes order.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray] | None = None,
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        sigma: float = 0.0,
    ):
        if sigma < 0.0:
            raise ConfigError(f"oracle noise level must be >= 0, got {sigma}")
        self.value = value
        self.grad = grad
        self.sigma = float(sigma)

    def gradient_batch(self, x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        """Stack of ``m`` independent gradient samples, shape ``(m, n)``."""
        if self.grad is None:
            raise OracleKindError("oracle provides no gradient (SFO) samples")
        g = np.asarray(self.grad(x), dtype=float)
        if self.sigma > 0.0:
            noise = rng.standard_normal((m, g.size))
            noise *= self.sigma / math.sqrt(g.size)
            noise += g
            return noise
        return np.tile(g, (m, 1))

    def value_pair_batch(
        self, xs_a: np.ndarray, xs_b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise value pairs; row ``i`` of both outputs shares one noise draw.

        ``xs_b`` may also be a single row that every pair shares; its value
        is then computed once.  Both outputs have shape ``(m,)`` either way.
        Raises ``DomainError`` when ``value`` returns another row count.
        """
        if self.value is None:
            raise OracleKindError("oracle provides no value (SZO) samples")
        xs_a = np.asarray(xs_a, dtype=float)
        xs_b = np.asarray(xs_b, dtype=float)
        m, m_b = xs_a.shape[0], xs_b.shape[0]
        if m_b not in (1, m):
            raise DomainError(f"value pair batch has {m} first and {m_b} second points")
        fa = np.asarray(self.value(xs_a), dtype=float)
        fb = np.asarray(self.value(xs_b), dtype=float)
        for f, rows in ((fa, m), (fb, m_b)):
            if f.size != rows:
                raise DomainError(f"value gave shape {f.shape} on {rows} rows, expected ({rows},)")
        fa, fb = fa.reshape(m), fb.reshape(m_b)
        if self.sigma > 0.0:
            e = rng.standard_normal(m)  # in place on e only: value's output may be shared
            e *= self.sigma
            fb = fb + e
            e += fa
            return e, fb
        if m_b < m:
            fb = np.repeat(fb, m)
        return fa, fb


def stackable(fn: Callable) -> Callable:
    """Declare that ``fn``, an oracle's ``grad`` or a problem's
    ``constraints``, also takes a stack of points, shape ``(B, n)``, and
    answers for every row at once with the bits of one call per row:
    ``grad`` with shape ``(B, n)``, ``constraints`` with ``c`` of shape
    ``(B, q)`` and ``J`` of shape ``(B, q, n)``, or one ``(q, n)`` that
    every row shares.  Returns ``fn``, marked.

    A first-order study stacks the inner iterations of its replications.
    When the problem's oracle is a :class:`GaussianOracle` with noise, and
    its ``grad`` and the problem's ``constraints`` both carry this mark,
    each stacked iteration makes one call of each on the stack, and each
    replication draws its noise in blocks of iterations from its own
    stream.  Otherwise each replication calls them on its own point.  The
    mark stays with the function: a problem whose ``constraints`` is
    replaced by an unmarked wrapper makes one call per replication."""
    fn.stackable = True
    return fn


@dataclass(frozen=True)
class KnownSolution:
    """Reference primal-dual solution stored with a test problem."""

    x_star: np.ndarray
    lambda_star: np.ndarray | None = None
    f_star: float | None = None


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ConstrainedProblem:
    """min f(x) subject to c(x) = 0, with f reachable only through oracles.

    ``constraints`` maps a point to ``(c, J)`` with shapes ``(q,)`` and
    ``(q, n)`` and is exact; it may return one shared read-only ``J`` on
    every call (spen never writes to ``J``).  Marked :func:`stackable`
    together with the oracle's ``grad``, it also takes stacks of points.  ``oracle`` needs only the
    method its mode calls, drawing from ``rng`` alone:
    ``gradient_batch(x, m, rng)`` or ``value_pair_batch(xs_a, xs_b, rng)``.
    In zeroth-order runs that ``rng`` is the oracle's own stream, apart
    from the estimator's directions, and ``xs_a`` is valid only during the
    call: the solver reuses its buffer.  ``true_objective`` (optional) maps a
    point to ``(f, grad_f)`` and is used for diagnostics and certification
    only, never by the solvers.  ``x_init`` (default the origin) and ``box``
    are kept as read-only float copies, so instances are immutable and safe
    to share across concurrently running replications.
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

    def __post_init__(self) -> None:
        x_init = np.zeros(self.n) if self.x_init is None else self.x_init
        object.__setattr__(self, "x_init", _frozen(x_init))
        if self.box is not None:
            object.__setattr__(self, "box", tuple(_frozen(b) for b in self.box))

    def true_value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.true_objective is None:
            raise OracleKindError("problem has no exact objective access")
        f, g = self.true_objective(np.asarray(x, dtype=float))
        return float(f), np.asarray(g, dtype=float)


def eval_constraints(problem: ConstrainedProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(c(x), J(x))`` with shape and finiteness validation.

    ``J`` is returned as given, so a shared read-only one stays shared.
    Finite values of any size pass, with no overflow warning."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DomainError(f"point has shape {x.shape}, expected ({problem.n},)")
    c, jac = problem.constraints(x)
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        c = c.reshape(-1)
    jac = np.asarray(jac, dtype=float)
    # one combined test first: a Python float sum is non-finite whenever an
    # entry is, and on overflow, silently unlike numpy's (the detailed checks
    # below let an overflow pass)
    if (
        c.shape == (problem.q,)
        and jac.shape == (problem.q, problem.n)
        and math.isfinite(sum(c.tolist()) + sum(jac.ravel().tolist()))
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

