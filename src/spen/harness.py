"""Built-in test problem families, Monte-Carlo estimation, replication
studies of the penalty method, complexity-slope measurement, and CSV
persistence of run records.

:func:`monte_carlo` and :func:`run_study` (and through it ``spen certify``
and ``spen sweep``) run replications on one pool: forked worker processes,
one per usable CPU, each on its own share of the CPUs.  Every result is
assembled in replication order, so the output has the same bits as a run
in one process.  Side effects of a replication that runs in a worker, such
as writes to the caller's objects, stay in the worker and are not visible
to the caller.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .errors import ConfigError, SpenError
from .penalty import CriticalityCertificate, PenaltyConfig, PenaltyRunResult, RunRecord
from .penalty import _run_lockstep, certificate_from_estimates, run_penalty
from .problems import (
    ConstrainedProblem,
    GaussianOracle,
    KnownSolution,
    ProblemConstants,
    RandomStream,
    _frozen,
    eval_constraints,
)
from .stats import ExpectationEstimate, mean_estimate

__all__ = [
    "FAMILIES",
    "CSV_HEADER",
    "TestProblemSpec",
    "MonteCarloResult",
    "StudyResult",
    "SlopeFit",
    "build_problem",
    "kkt_residuals",
    "monte_carlo",
    "run_study",
    "slope_fit",
    "write_records",
    "read_records",
    "ExpectationEstimate",
    "RunRecord",
]

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
    of replications failed; ``values`` maps each successful replication id,
    in ascending order, to what its run returned.
    """

    estimates: dict[str, ExpectationEstimate]
    failures: list[tuple[int, str]]
    partial: bool
    reps: int
    values: dict[int, Any]


@dataclass(frozen=True)
class StudyResult:
    """Replication study: the certificate of the ``crit_sq`` and ``theta``
    estimates and the mean final multiplier, the Monte-Carlo result (which
    also holds ``oracle_calls``), and every successful replication's rows."""

    certificate: CriticalityCertificate
    mc: MonteCarloResult
    records: list[RunRecord]


def kkt_residuals(
    problem: ConstrainedProblem, x: np.ndarray, lam: np.ndarray
) -> tuple[float, float]:
    """Stationarity and feasibility residual norms at ``(x, lam)``."""
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


def _family(
    spec: TestProblemSpec,
    fval: Callable[[np.ndarray], np.ndarray],
    fgrad: Callable[[np.ndarray], np.ndarray],
    cons: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    constants: dict[str, float],
    x_init: np.ndarray,
    half_width: float,
    reference: tuple[np.ndarray, float] | None = None,
) -> ConstrainedProblem:
    """One-constraint family ``spec.family``: ``fval``/``fgrad`` drive the oracle and the exact
    objective, the box is ``[-half_width, half_width]^n``, and ``reference = (x_star,
    lambda_star)`` is the known solution, with ``f_star = fval(x_star)``."""
    n = x_init.size
    known = None
    if reference is not None:
        known = KnownSolution(_frozen(reference[0]), _frozen([reference[1]]),
                              float(fval(reference[0])))
    return ConstrainedProblem(
        n=n,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=fval, grad=fgrad, sigma=spec.sigma),
        constants=ProblemConstants(sigma=spec.sigma, **constants),
        true_objective=lambda x: (float(fval(x)), fgrad(x)),
        x_init=x_init,
        box=(np.full(n, -half_width), np.full(n, half_width)),
        known_solution=known,
        name=spec.family,
    )


def _build_p1(spec: TestProblemSpec) -> ConstrainedProblem:
    n = _check_spec_dimension(spec, None, 10)
    jac = _frozen(np.zeros((1, n)))

    def fval(x):
        x = np.asarray(x, dtype=float)
        return np.sum(1.0 - np.cos(x), axis=-1) + 0.05 * np.sum(x * x, axis=-1)

    def fgrad(x):
        return np.sin(x) + 0.1 * x

    def cons(x):
        return np.zeros(1), jac

    constants = dict(
        L_g=1.1,
        L_J=0.05,
        f_low=0.0,
        kappa_g=1.3 * math.sqrt(n),
        kappa_c=0.0,
        kappa_f=2.45 * n,
        kappa_J=0.0,
    )
    x_init = np.array([2.0 if i % 2 == 0 else 1.5 for i in range(n)])
    return _family(spec, fval, fgrad, cons, constants, x_init, 3.0, (np.zeros(n), 0.0))


_P2_TARGET = np.array([1.0, 1.0])


def _build_p2(spec: TestProblemSpec, corrupt_jacobian: bool = False) -> ConstrainedProblem:
    _check_spec_dimension(spec, 2, 2)
    jac = _frozen((1.05 if corrupt_jacobian else 1.0) * np.array([[1.0, 1.0]]))

    def fval(x):  # in place, the bits of 0.5*sum(diff*diff)
        diff = np.asarray(x, dtype=float) - _P2_TARGET
        f = np.sum(np.multiply(diff, diff, out=diff), axis=-1)
        f *= 0.5
        return f

    def fgrad(x):
        return np.asarray(x, dtype=float) - _P2_TARGET

    def cons(x):
        return np.array([x[0] + x[1] - 1.0]), jac

    constants = dict(
        L_g=1.0,
        L_J=0.05,
        f_low=0.0,
        kappa_g=math.sqrt(18.0),
        kappa_c=5.0,
        kappa_f=9.0,
        kappa_J=math.sqrt(2.0),
    )
    reference = None if corrupt_jacobian else (np.array([0.5, 0.5]), 0.5)
    return _family(spec, fval, fgrad, cons, constants, np.array([2.0, 0.0]), 2.0, reference)


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


@functools.cache
def _solve_p3_kkt() -> tuple[np.ndarray, float]:
    """Deterministic damped-Newton solve of the sphere-constrained KKT
    system, run on the first P3 build and kept for the process; returns the
    best root found."""

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

    constants = dict(
        L_g=15.0,
        L_J=2.0,
        f_low=-8.0,
        kappa_g=23.0,
        kappa_c=11.0,
        kappa_f=20.0,
        kappa_J=4.0 * math.sqrt(3.0),
    )
    x_init = np.array([1.5, -1.0, 0.5])
    return _family(spec, _p3_value, _p3_grad, cons, constants, x_init, 2.0, _solve_p3_kkt())


def _build_rosen(spec: TestProblemSpec) -> ConstrainedProblem:
    _check_spec_dimension(spec, 2, 2)
    jac = _frozen([[1.0, 1.0]])

    # products, not scalar ``**2``, so one point gives the bits of a batch row
    def fval(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        d, e = x2 - x1 * x1, 1.0 - x1
        return 100.0 * (d * d) + e * e

    def fgrad(x):
        x1, x2 = x[0], x[1]
        d, e = x2 - x1 * x1, 1.0 - x1
        return np.array([-400.0 * x1 * d - 2.0 * e, 200.0 * d])

    def cons(x):
        return np.array([x[0] + x[1] - 1.0]), jac

    # on the feasible line x = (t, 1 - t) the objective's derivative is
    # 400t^3 + 600t^2 - 198t - 202; x_star is the real root with least f
    roots = np.roots([400.0, 600.0, -198.0, -202.0])
    roots = roots[np.isreal(roots)].real
    on_line = np.stack([roots, 1.0 - roots], axis=1)
    x_star = on_line[np.argmin(fval(on_line))]
    lam_star = -0.5 * float(fgrad(x_star).sum())
    constants = dict(
        L_g=6600.0,
        L_J=0.05,
        f_low=0.0,
        kappa_g=5000.0,
        kappa_c=5.0,
        kappa_f=3700.0,
        kappa_J=math.sqrt(2.0),
    )
    x_init = np.array([-1.2, 1.0])
    return _family(spec, fval, fgrad, cons, constants, x_init, 2.0, (x_star, lam_star))


_BUILDERS: dict[str, Callable[[TestProblemSpec], ConstrainedProblem]] = {
    "P1": _build_p1,
    "P2": _build_p2,
    "P3": _build_p3,
    "ROSEN-EQ": _build_rosen,
    "DEBUG-BADJAC": lambda spec: _build_p2(spec, corrupt_jacobian=True),
}
FAMILIES = tuple(_BUILDERS)


def build_problem(spec: TestProblemSpec) -> ConstrainedProblem:
    """Build ``spec.family`` from the one builder table behind :data:`FAMILIES`.

    P1 is a smooth nonconvex objective with vacuous constraints (the
    composite solvers see c identically zero); P2 a convex quadratic with
    one linear constraint and a closed-form KKT pair; P3 a nonconvex
    quartic on the unit sphere whose reference KKT pair is computed on its
    first build by a deterministic damped Newton solve; ROSEN-EQ the
    Rosenbrock objective with a linear constraint.  DEBUG-BADJAC is P2
    with a deliberately corrupted Jacobian, used to demonstrate the
    validation battery catching an inconsistent constraint map.
    """
    if spec.sigma < 0.0:
        raise ConfigError(f"noise level must be >= 0, got {spec.sigma}")
    if spec.family not in _BUILDERS:
        raise ConfigError(f"unknown problem family {spec.family!r}; expected one of {FAMILIES}")
    problem = _BUILDERS[spec.family](spec)
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


# The task a forked worker serves, set by the pool's initializer: None in
# every process that is not a worker.
_worker_task: Callable[[Any], Any] | None = None


def _init_worker(task: Callable[[Any], Any], shares: Any) -> None:
    """Store the worker's task and narrow its CPU affinity to the next of
    ``shares``, so what it runs sees only the CPUs that are its own."""
    global _worker_task
    _worker_task = task
    os.sched_setaffinity(0, shares.get())


def _run_in_worker(item: Any) -> Any:
    return _worker_task(item)


def _worker_count(reps: int) -> int:
    """Processes to run ``reps`` replications on: one per usable CPU, at most
    ``reps``.  1 (run in this process) where fork or the CPU affinity mask
    is unavailable, and inside a worker, which starts no pool of its own."""
    if _worker_task is not None or not all(
        hasattr(os, name) for name in ("fork", "sched_getaffinity", "sched_setaffinity")
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), reps)


def _pool_map(task: Callable[[Any], Any], items: list, workers: int) -> list:
    """``[task(item) for item in items]``, on ``workers`` forked processes
    when there are two or more.  Each worker takes the next item as it
    finishes one and runs on its own share of this process's CPUs, the
    shares as equal as can be; every worker has exited when the call
    returns or raises."""
    if workers == 1:
        return [task(item) for item in items]
    # imported here: a caller that never runs a study does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    shares = context.SimpleQueue()
    for w in range(workers):
        shares.put(set(cpus[w * len(cpus) // workers:(w + 1) * len(cpus) // workers]))
    # fork, not spawn: the workers inherit the task and what it closes over
    # (the problem, lambdas, closures), which need not pickle
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker,
                             initargs=(task, shares)) as pool:
        return list(pool.map(_run_in_worker, items, chunksize=1))


def _run_replication(
    run_fn: Callable[[int, RandomStream], Any],
    stream: RandomStream,
    track: Callable[[Any], Mapping[str, float]],
    rep: int,
) -> tuple[Any, dict[str, float] | None, str | None]:
    """Replication ``rep`` as ``(value, tracked, None)``, or as
    ``(None, None, message)`` when it fails."""
    try:
        value = run_fn(rep, stream.child(rep))
        return value, dict(track(value)), None
    except (SpenError, ValueError, ArithmeticError) as err:
        return None, None, f"{type(err).__name__}: {err}"


def monte_carlo(
    run_fn: Callable[[int, RandomStream], Any],
    reps: int,
    stream: RandomStream,
    order: list[int] | None = None,
    track: Callable[[Any], Mapping[str, float]] = dict,
) -> MonteCarloResult:
    """Replicated expectation estimation on independent substreams.

    Replication ``rep`` runs ``run_fn(rep, stream.child(rep))``, and
    ``track`` maps what it returns to the tracked quantities, a mapping
    from names to scalars (by default the return value is that mapping).
    Replications are submitted in ``order`` (default ascending) to forked
    worker processes, one per usable CPU, which take the next replication
    as they finish one; each worker runs on its own share of the CPUs.
    With one usable CPU, where fork is unavailable, or inside a worker,
    they run in this process in ``order``.  Aggregation always iterates
    replication ids in ascending order, so the estimates are bit-identical
    under any execution order and any number of workers.  What ``run_fn``
    returns must pickle, and its side effects must not be relied on: in a
    worker they do not reach the caller.  Failed replications are recorded
    with the error's type and message and skipped; the result is flagged
    partial when more than 5% fail.  A failure is a ``SpenError`` or a
    numeric error: a ``ValueError`` (which covers ``LinAlgError`` and math
    domain errors such as ``math.sqrt(-1)`` in a user oracle) or an
    ``ArithmeticError``.  Programming errors such as ``TypeError``
    propagate.  Every worker has exited when the call returns or raises.
    """
    _check_reps(reps)
    schedule = list(range(reps)) if order is None else list(order)
    if sorted(schedule) != list(range(reps)):
        raise ConfigError("execution order must be a permutation of range(reps)")
    task = functools.partial(_run_replication, run_fn, stream, track)
    return _collect(reps, schedule, _pool_map(task, schedule, _worker_count(reps)))


def _check_reps(reps: int) -> None:
    if reps < 30:
        raise ConfigError(f"replication study needs reps >= 30, got {reps}")


def _collect(reps: int, schedule: list[int], outcomes: list[tuple]) -> MonteCarloResult:
    """The ``MonteCarloResult`` of replications ``schedule``, whose
    ``_run_replication`` outcomes are ``outcomes``, aggregated in ascending
    replication id."""
    values: dict[int, Any] = {}
    tracked: dict[int, dict[str, float]] = {}
    failures: list[tuple[int, str]] = []
    for rep, (value, scalars, message) in zip(schedule, outcomes):
        if message is None:
            values[rep], tracked[rep] = value, scalars
        else:
            failures.append((rep, message))
    failures.sort(key=lambda pair: pair[0])
    if not tracked:
        raise ConfigError(f"all {reps} replications failed; first: {failures[0][1]}")
    done = sorted(tracked)
    first_keys = sorted(tracked[done[0]])
    for rep in done:
        if sorted(tracked[rep]) != first_keys:
            raise ConfigError(
                f"replication {rep} tracked {sorted(tracked[rep])}, expected {first_keys}"
            )
    estimates = {
        key: mean_estimate(np.asarray([tracked[rep][key] for rep in done])) for key in first_keys
    }
    return MonteCarloResult(
        estimates=estimates,
        failures=failures,
        partial=len(failures) > 0.05 * reps,
        reps=reps,
        values={rep: values[rep] for rep in done},
    )


def _study_scalars(result: PenaltyRunResult) -> dict[str, float]:
    return {
        "crit_sq": result.certificate.crit_sq.mean,
        "theta": result.certificate.theta.mean,
        "oracle_calls": float(result.state.oracle_calls),
    }


# The code of the library's run_penalty, kept apart from the function: a
# tracer that rebinds every module attribute holding run_penalty leaves it,
# so run_study can tell a substitute by its code
_RUN_PENALTY_CODE = run_penalty.__code__


def run_study(
    problem: ConstrainedProblem, config: PenaltyConfig, reps: int, stream: RandomStream
) -> StudyResult:
    """Run :func:`run_penalty` as replication ``rep`` on ``stream.child(rep)``
    for each ``rep < reps``, and certify the estimates.

    The replications run in groups, one group per worker of the pool that
    :func:`monte_carlo` would start (the whole study in this process where it
    would run there), each group through ``penalty._run_lockstep``, the outer
    driver that ``run_penalty`` runs one replication with: a group's rounds
    move together, and that driver alone decides whether a round's inner
    solves stack (first-order, one constraint row) or run one per
    replication.  A replication that raises comes back as its error, which
    ``failures`` records as ``monte_carlo`` does; none runs twice.  While
    this module's ``run_penalty`` is not the library's own (a test's or a
    tracer's substitute), the study runs one ``run_penalty`` per replication
    through ``monte_carlo`` instead.  Either way records and the multiplier
    mean are assembled in ascending replication id, like the estimates, so
    the result has the same bits under any execution order, grouping and
    number of workers."""
    if getattr(run_penalty, "__code__", None) is _RUN_PENALTY_CODE:
        _check_reps(reps)
        workers = _worker_count(reps)
        groups = [list(range(w, reps, workers)) for w in range(workers)]
        task = functools.partial(_run_group, problem, config, stream)
        outcomes = [out for group in _pool_map(task, groups, workers) for out in group]
        mc = _collect(reps, [rep for group in groups for rep in group], outcomes)
    else:
        mc = monte_carlo(lambda rep, rep_stream: run_penalty(problem, config, rep_stream,
                                                             replication=rep),
                         reps, stream, track=_study_scalars)
    runs = list(mc.values.values())
    lam_mean = np.mean(np.stack([run.certificate.lam for run in runs]), axis=0)
    certificate = certificate_from_estimates(
        config.epsilon, mc.estimates["crit_sq"], mc.estimates["theta"], lam_mean, reps
    )
    return StudyResult(certificate, mc, [r for run in runs for r in run.records])


def _run_group(
    problem: ConstrainedProblem, config: PenaltyConfig, stream: RandomStream, group: list[int]
) -> list[tuple]:
    """The ``_run_replication`` outcomes of the replications in ``group``,
    run together by ``_run_lockstep``: a run that comes back as an error
    raises it there, so a ``SpenError`` or numeric error becomes a failure
    and any other error propagates."""
    runs = dict(zip(group, _run_lockstep(problem, config,
                                         [stream.child(rep) for rep in group], group)))

    def run_fn(rep: int, _: RandomStream) -> PenaltyRunResult:
        if isinstance(runs[rep], Exception):
            raise runs[rep]
        return runs[rep]

    return [_run_replication(run_fn, stream, _study_scalars, rep) for rep in group]


def slope_fit(points: list[tuple[float, float]]) -> SlopeFit:
    """Fit ``log(calls) = intercept + slope*log(1/epsilon)`` by least squares.

    A pure power law ``calls = c * epsilon^(-p)`` yields ``slope = p`` with
    ``r2 = 1``.  Needs at least 3 distinct accuracies.
    """
    eps = np.array([p[0] for p in points], dtype=float)
    if np.unique(eps).size < 3:
        raise ConfigError(f"slope fit needs >= 3 distinct accuracies, got {eps.tolist()}")
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
    """Read a CSV produced by :func:`write_records`; a bad row raises ``ConfigError``."""
    records: list[RunRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ConfigError(f"unexpected CSV header in {path}: {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ConfigError(f"malformed CSV row in {path}: {row}")
            try:
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
            except ValueError as err:
                raise ConfigError(f"{path}, line {reader.line_num}: {err}") from None
    return records
