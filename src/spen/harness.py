"""Built-in test problem families, Monte-Carlo estimation, complexity-slope
measurement, and CSV persistence of run records."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, SpenError
from .penalty import RunRecord
from .problems import (
    ConstrainedProblem,
    GaussianOracle,
    KnownSolution,
    ProblemConstants,
    RandomStream,
)
from .stats import ExpectationEstimate, mean_estimate

__all__ = [
    "FAMILIES",
    "CSV_HEADER",
    "TestProblemSpec",
    "MonteCarloResult",
    "SlopeFit",
    "build_problem",
    "kkt_residuals",
    "monte_carlo",
    "slope_fit",
    "write_records",
    "read_records",
    "ExpectationEstimate",
    "RunRecord",
]

FAMILIES = ("P1", "P2", "P3", "ROSEN-EQ", "DEBUG-BADJAC")
CSV_HEADER = ("replication", "outer_iter", "rho", "theta", "phi", "crit_sq", "oracle_calls", "wall_ms")


@dataclass(frozen=True)
class TestProblemSpec:
    """Request for a built-in problem family.

    ``n`` may be omitted to take the family default; families with a fixed
    dimension reject other values.
    """

    # keeps pytest from treating the class name as a test case
    __test__ = False

    family: str
    n: int | None = None
    sigma: float = 0.1


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power-law fit in log-log space."""

    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregated replication study.

    ``estimates`` maps each tracked quantity to its expectation estimate
    over the successful replications; ``failures`` lists
    ``(replication, message)`` pairs; ``partial`` is set when more than 5%
    of replications failed.
    """

    estimates: dict[str, ExpectationEstimate]
    failures: list[tuple[int, str]]
    partial: bool
    reps: int


def kkt_residuals(
    problem: ConstrainedProblem, x: np.ndarray, lam: np.ndarray
) -> tuple[float, float]:
    """Stationarity and feasibility residual norms at ``(x, lam)``."""
    from .problems import eval_constraints

    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    c, jac = eval_constraints(problem, x)
    _, grad = problem.true_value_grad(x)
    return float(np.linalg.norm(grad + jac.T @ lam)), float(np.linalg.norm(c))


def _check_spec_dimension(spec: TestProblemSpec, fixed: int | None, default: int) -> int:
    if fixed is not None:
        if spec.n is not None and spec.n != fixed:
            raise ConfigError(f"family {spec.family} has fixed dimension {fixed}, got n={spec.n}")
        return fixed
    n = spec.n if spec.n is not None else default
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    return n


def _build_p1(spec: TestProblemSpec) -> ConstrainedProblem:
    n = _check_spec_dimension(spec, None, 10)

    def fval(x):
        x = np.asarray(x, dtype=float)
        return np.sum(1.0 - np.cos(x), axis=-1) + 0.05 * np.sum(x * x, axis=-1)

    def fgrad(x):
        return np.sin(x) + 0.1 * x

    def cons(x):
        return np.zeros(1), np.zeros((1, n))

    x_init = np.array([2.0 if i % 2 == 0 else 1.5 for i in range(n)])
    box = (np.full(n, -3.0), np.full(n, 3.0))
    constants = ProblemConstants(
        L_g=1.1,
        L_J=0.05,
        sigma=spec.sigma,
        f_low=0.0,
        kappa_g=1.3 * math.sqrt(n),
        kappa_c=0.0,
        kappa_f=2.45 * n,
        kappa_J=0.0,
    )
    return ConstrainedProblem(
        n=n,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=fval, grad=fgrad, sigma=spec.sigma),
        constants=constants,
        true_objective=lambda x: (float(fval(x)), fgrad(x)),
        x_init=x_init,
        box=box,
        known_solution=KnownSolution(
            x_star=np.zeros(n), lambda_star=np.zeros(1), f_star=0.0
        ),
        name="P1",
    )


_P2_TARGET = np.array([1.0, 1.0])


def _build_p2(spec: TestProblemSpec, corrupt_jacobian: bool = False) -> ConstrainedProblem:
    _check_spec_dimension(spec, 2, 2)
    jac_scale = 1.05 if corrupt_jacobian else 1.0

    def fval(x):
        diff = np.asarray(x, dtype=float) - _P2_TARGET
        return 0.5 * np.sum(diff * diff, axis=-1)

    def fgrad(x):
        return np.asarray(x, dtype=float) - _P2_TARGET

    def cons(x):
        return np.array([x[0] + x[1] - 1.0]), jac_scale * np.array([[1.0, 1.0]])

    constants = ProblemConstants(
        L_g=1.0,
        L_J=0.05,
        sigma=spec.sigma,
        f_low=0.0,
        kappa_g=math.sqrt(18.0),
        kappa_c=5.0,
        kappa_f=9.0,
        kappa_J=math.sqrt(2.0),
    )
    known = None
    if not corrupt_jacobian:
        known = KnownSolution(
            x_star=np.array([0.5, 0.5]), lambda_star=np.array([0.5]), f_star=0.25
        )
    return ConstrainedProblem(
        n=2,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=fval, grad=fgrad, sigma=spec.sigma),
        constants=constants,
        true_objective=lambda x: (float(fval(x)), fgrad(x)),
        x_init=np.array([2.0, 0.0]),
        box=(np.full(2, -2.0), np.full(2, 2.0)),
        known_solution=known,
        name="DEBUG-BADJAC" if corrupt_jacobian else "P2",
    )


_P3_A = np.array([1.0, 1.2, 0.8])
_P3_B = np.array([1.0, 0.5, 1.5])
_P3_D = np.array([0.3, -0.2, 0.1])


def _p3_value(x):
    x = np.asarray(x, dtype=float)
    return (
        0.25 * np.sum(_P3_A * x**4, axis=-1)
        - 0.5 * np.sum(_P3_B * x**2, axis=-1)
        + np.sum(_P3_D * x, axis=-1)
    )


def _p3_grad(x):
    x = np.asarray(x, dtype=float)
    return _P3_A * x**3 - _P3_B * x + _P3_D


def _solve_p3_kkt() -> tuple[np.ndarray, float]:
    """Deterministic damped-Newton solve of the sphere-constrained KKT
    system, run once at build time; returns the best root found."""

    def kkt(z):
        x, lam = z[:3], z[3]
        return np.concatenate([_p3_grad(x) + 2.0 * lam * x, [x @ x - 1.0]])

    def kkt_jac(z):
        x, lam = z[:3], z[3]
        top = np.zeros((3, 4))
        top[:, :3] = np.diag(3.0 * _P3_A * x**2 - _P3_B + 2.0 * lam)
        top[:, 3] = 2.0 * x
        bottom = np.concatenate([2.0 * x, [0.0]])
        return np.vstack([top, bottom])

    starts = []
    for sign in (1.0, -1.0):
        for base in (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.ones(3) / math.sqrt(3.0)):
            starts.append(sign * base)
    best: tuple[float, np.ndarray, float] | None = None
    for x0 in starts:
        lam0 = -float(x0 @ _p3_grad(x0)) / 2.0
        z = np.concatenate([x0, [lam0]])
        for _ in range(200):
            r = kkt(z)
            if np.linalg.norm(r) <= 1e-13:
                break
            try:
                step = np.linalg.solve(kkt_jac(z), -r)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            base_norm = np.linalg.norm(r)
            while t > 1e-12 and np.linalg.norm(kkt(z + t * step)) > (1.0 - 0.5 * t) * base_norm:
                t *= 0.5
            z = z + t * step
        resid = float(np.linalg.norm(kkt(z)))
        if resid <= 1e-12:
            fv = float(_p3_value(z[:3]))
            if best is None or fv < best[0]:
                best = (fv, z[:3].copy(), float(z[3]))
    if best is None:
        raise ConfigError("sphere-constrained reference solve failed to converge")
    return best[1], best[2]


def _build_p3(spec: TestProblemSpec) -> ConstrainedProblem:
    _check_spec_dimension(spec, 3, 3)

    def cons(x):
        return np.array([x @ x - 1.0]), 2.0 * np.asarray(x, dtype=float).reshape(1, 3)

    x_star, lam_star = _solve_p3_kkt()
    constants = ProblemConstants(
        L_g=15.0,
        L_J=2.0,
        sigma=spec.sigma,
        f_low=-8.0,
        kappa_g=23.0,
        kappa_c=11.0,
        kappa_f=20.0,
        kappa_J=4.0 * math.sqrt(3.0),
    )
    return ConstrainedProblem(
        n=3,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=_p3_value, grad=_p3_grad, sigma=spec.sigma),
        constants=constants,
        true_objective=lambda x: (float(_p3_value(x)), _p3_grad(x)),
        x_init=np.array([1.5, -1.0, 0.5]),
        box=(np.full(3, -2.0), np.full(3, 2.0)),
        known_solution=KnownSolution(
            x_star=x_star,
            lambda_star=np.array([lam_star]),
            f_star=float(_p3_value(x_star)),
        ),
        name="P3",
    )


def _solve_rosen_kkt() -> tuple[np.ndarray, float]:
    """Newton solve of the Rosenbrock objective restricted to the feasible
    line x2 = 1 - x1, run once at build time."""

    def dg(t):
        # d/dt of 100*(1 - t - t^2)^2 + (1 - t)^2
        u = 1.0 - t - t * t
        return 200.0 * u * (-1.0 - 2.0 * t) - 2.0 * (1.0 - t)

    def d2g(t):
        u = 1.0 - t - t * t
        return 200.0 * ((-1.0 - 2.0 * t) ** 2 - 2.0 * u) + 2.0

    best = None
    for t in (0.6, -1.8):
        for _ in range(200):
            d1, d2 = dg(t), d2g(t)
            if abs(d1) <= 1e-14 or d2 == 0.0:
                break
            t = t - d1 / d2
        if abs(dg(t)) <= 1e-12:
            gval = 100.0 * (1.0 - t - t * t) ** 2 + (1.0 - t) ** 2
            if best is None or gval < best[0]:
                best = (gval, t)
    if best is None:
        raise ConfigError("line-restricted reference solve failed to converge")
    t = best[1]
    x = np.array([t, 1.0 - t])
    grad = np.array(
        [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    )
    lam = -0.5 * (grad[0] + grad[1])
    return x, lam


def _build_rosen(spec: TestProblemSpec) -> ConstrainedProblem:
    _check_spec_dimension(spec, 2, 2)

    def fval(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return 100.0 * (x2 - x1**2) ** 2 + (1.0 - x1) ** 2

    def fgrad(x):
        x1, x2 = x[0], x[1]
        return np.array(
            [-400.0 * x1 * (x2 - x1**2) - 2.0 * (1.0 - x1), 200.0 * (x2 - x1**2)]
        )

    def cons(x):
        return np.array([x[0] + x[1] - 1.0]), np.array([[1.0, 1.0]])

    x_star, lam_star = _solve_rosen_kkt()
    constants = ProblemConstants(
        L_g=6600.0,
        L_J=0.05,
        sigma=spec.sigma,
        f_low=0.0,
        kappa_g=2200.0,
        kappa_c=5.0,
        kappa_f=3700.0,
        kappa_J=math.sqrt(2.0),
    )
    return ConstrainedProblem(
        n=2,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=fval, grad=fgrad, sigma=spec.sigma),
        constants=constants,
        true_objective=lambda x: (float(fval(x)), fgrad(x)),
        x_init=np.array([-1.2, 1.0]),
        box=(np.full(2, -2.0), np.full(2, 2.0)),
        known_solution=KnownSolution(
            x_star=x_star, lambda_star=np.array([lam_star]), f_star=float(fval(x_star))
        ),
        name="ROSEN-EQ",
    )


def build_problem(spec: TestProblemSpec) -> ConstrainedProblem:
    """Instantiate a built-in family.

    P1 is a smooth nonconvex objective with vacuous constraints (the
    composite solvers see c identically zero); P2 a convex quadratic with
    one linear constraint and a closed-form KKT pair; P3 a nonconvex
    quartic on the unit sphere whose reference KKT pair is computed at
    build time by a deterministic damped Newton solve; ROSEN-EQ the
    Rosenbrock objective with a linear constraint.  DEBUG-BADJAC is P2
    with a deliberately corrupted Jacobian, used to demonstrate the
    validation battery catching an inconsistent constraint map.
    """
    if spec.sigma < 0.0:
        raise ConfigError(f"noise level must be >= 0, got {spec.sigma}")
    if spec.family == "P1":
        problem = _build_p1(spec)
    elif spec.family == "P2":
        problem = _build_p2(spec)
    elif spec.family == "P3":
        problem = _build_p3(spec)
    elif spec.family == "ROSEN-EQ":
        problem = _build_rosen(spec)
    elif spec.family == "DEBUG-BADJAC":
        problem = _build_p2(spec, corrupt_jacobian=True)
    else:
        raise ConfigError(f"unknown problem family {spec.family!r}; expected one of {FAMILIES}")
    if problem.known_solution is not None:
        stat, feas = kkt_residuals(
            problem, problem.known_solution.x_star, problem.known_solution.lambda_star
        )
        if stat > 1e-8 or feas > 1e-8:
            raise ConfigError(
                f"reference solution of {spec.family} violates the KKT residual "
                f"bound: stationarity {stat:.2e}, feasibility {feas:.2e}"
            )
    return problem


def monte_carlo(
    run_fn: Callable[[int, RandomStream], Mapping[str, float]],
    reps: int,
    stream: RandomStream,
    order: list[int] | None = None,
) -> MonteCarloResult:
    """Replicated expectation estimation on independent substreams.

    ``run_fn(rep, stream.child(rep))`` must return a mapping from tracked
    quantity names to scalars.  Replications execute in ``order`` (default
    ascending), but aggregation always iterates replication ids in
    ascending order, so the estimates are bit-identical under any
    execution order.  Failed replications (a ``SpenError``, or a numeric
    ``LinAlgError`` or ``ArithmeticError``) are recorded and skipped; the
    result is flagged partial when more than 5% fail.
    """
    if reps < 30:
        raise ConfigError(f"replication study needs reps >= 30, got {reps}")
    schedule = list(range(reps)) if order is None else list(order)
    if sorted(schedule) != list(range(reps)):
        raise ConfigError("execution order must be a permutation of range(reps)")
    outcomes: dict[int, Mapping[str, float]] = {}
    failures: list[tuple[int, str]] = []
    for rep in schedule:
        try:
            outcomes[rep] = dict(run_fn(rep, stream.child(rep)))
        except (SpenError, np.linalg.LinAlgError, ArithmeticError) as err:
            failures.append((rep, f"{type(err).__name__}: {err}"))
    failures.sort(key=lambda pair: pair[0])
    if not outcomes:
        raise ConfigError(f"all {reps} replications failed; first: {failures[0][1]}")
    first_keys = None
    for rep in range(reps):
        if rep in outcomes:
            keys = sorted(outcomes[rep])
            if first_keys is None:
                first_keys = keys
            elif keys != first_keys:
                raise ConfigError(
                    f"replication {rep} tracked {keys}, expected {first_keys}"
                )
    estimates = {}
    for key in first_keys:
        values = [outcomes[rep][key] for rep in range(reps) if rep in outcomes]
        estimates[key] = mean_estimate(np.asarray(values))
    return MonteCarloResult(
        estimates=estimates,
        failures=failures,
        partial=len(failures) > 0.05 * reps,
        reps=reps,
    )


def slope_fit(points: list[tuple[float, float]]) -> SlopeFit:
    """Fit ``log(calls) = intercept + slope*log(1/epsilon)`` by least squares.

    A pure power law ``calls = c * epsilon^(-p)`` yields ``slope = p`` with
    ``r2 = 1``.
    """
    if len(points) < 3:
        raise ConfigError(f"slope fit needs >= 3 points, got {len(points)}")
    eps = np.array([p[0] for p in points], dtype=float)
    calls = np.array([p[1] for p in points], dtype=float)
    if np.any(eps <= 0.0) or np.any(calls <= 0.0):
        raise ConfigError("slope fit needs positive accuracies and call counts")
    xs = np.log(1.0 / eps)
    ys = np.log(calls)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = intercept + slope * xs
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept), r2=r2)


def _format_float(value: float) -> str:
    return repr(float(value))


def write_records(records: list[RunRecord], path: str) -> None:
    """Write run records as CSV, sorted by (replication, outer_iter).

    Floats are rendered with ``repr`` so a read-back round-trips exactly;
    a missing ``crit_sq`` becomes an empty field.
    """
    rows = sorted(records, key=lambda r: (r.replication, r.outer_iter))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.replication,
                    r.outer_iter,
                    _format_float(r.rho),
                    _format_float(r.theta),
                    _format_float(r.phi),
                    "" if r.crit_sq is None else _format_float(r.crit_sq),
                    r.oracle_calls,
                    _format_float(r.wall_ms),
                ]
            )


def read_records(path: str) -> list[RunRecord]:
    """Read a CSV produced by :func:`write_records`."""
    records: list[RunRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ConfigError(f"unexpected CSV header in {path}: {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ConfigError(f"malformed CSV row in {path}: {row}")
            records.append(
                RunRecord(
                    replication=int(row[0]),
                    outer_iter=int(row[1]),
                    rho=float(row[2]),
                    theta=float(row[3]),
                    phi=float(row[4]),
                    crit_sq=None if row[5] == "" else float(row[5]),
                    oracle_calls=int(row[6]),
                    wall_ms=float(row[7]),
                )
            )
    return records
