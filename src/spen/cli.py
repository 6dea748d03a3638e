"""Command-line entry point: `spen <solve|certify|sweep|validate>`."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, SpenError
from .harness import build_problem, run_study, slope_fit, write_records
from .penalty import run_penalty
from .problems import ConstrainedProblem, RandomStream, eval_constraints
# unused here; test_installed_rebinds_every_namespace_and_restores reads it
from .sfo import batch_gradient  # noqa: F401
from .szo import smoothed_reference

__all__ = ["main", "dispatch"]


def _load(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read configuration {path}: {err}") from err
    return parse_config(text)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cmd_solve(config: RunConfig) -> int:
    problem = build_problem(config.problem)
    t0 = time.perf_counter()
    result = run_penalty(problem, config.penalty, RandomStream(seed=config.seed))
    elapsed = time.perf_counter() - t0
    cert = result.certificate
    print(
        f"family={config.problem.family} mode={config.penalty.oracle_mode} "
        f"epsilon={_fmt(config.penalty.epsilon)} seed={config.seed}"
    )
    print(
        f"final: outer_rounds={result.state.k} rho={_fmt(result.state.rho)} "
        f"theta={_fmt(cert.theta.mean)} crit_sq={_fmt(cert.crit_sq.mean)} "
        f"oracle_calls={result.state.oracle_calls}"
    )
    if result.bound is not None:
        print(
            f"bound: n_hat={result.bound.n_hat} rho_bar={_fmt(result.bound.rho_bar)} "
            f"crossed={'yes' if result.crossed_rho_bar else 'no'}"
        )
    print(f"single-run verdict: {'PASS' if cert.verdict else 'FAIL'}")
    print(f"elapsed: {elapsed:.2f}s")
    if config.output is not None:
        write_records(result.records, config.output)
        print(f"records: {config.output}")
    return 0


def _print_certificate(cert, mc) -> None:
    crit, th = cert.crit_sq, cert.theta
    print(
        f"crit_sq: mean={_fmt(crit.mean)} ci95=[{_fmt(crit.ci95_low)}, {_fmt(crit.ci95_high)}] "
        f"target<={_fmt(cert.epsilon)}"
    )
    print(
        f"theta:   mean={_fmt(th.mean)} ci95=[{_fmt(th.ci95_low)}, {_fmt(th.ci95_high)}] "
        f"target<={_fmt(math.sqrt(cert.epsilon))}"
    )
    print(f"multiplier: {np.array2string(cert.lam, precision=6)}")
    if mc.failures:
        print(f"failed replications: {len(mc.failures)}{' (partial)' if mc.partial else ''}")
    print(f"verdict: {'PASS' if cert.verdict else 'FAIL'}")


def _cmd_certify(config: RunConfig) -> int:
    problem = build_problem(config.problem)
    t0 = time.perf_counter()
    study = run_study(problem, config.penalty, config.replications, RandomStream(config.seed))
    elapsed = time.perf_counter() - t0
    cert = study.certificate
    print(
        f"family={config.problem.family} mode={config.penalty.oracle_mode} "
        f"epsilon={_fmt(config.penalty.epsilon)} seed={config.seed} reps={config.replications}"
    )
    _print_certificate(cert, study.mc)
    print(f"elapsed: {elapsed:.2f}s")
    if config.output is not None:
        write_records(study.records, config.output)
        print(f"records: {config.output}")
    return 0 if cert.verdict else 1


def _sweep_output_path(base: str, epsilon: float) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}_eps{epsilon:g}.{ext}"
    return f"{base}_eps{epsilon:g}"


def _cmd_sweep(config: RunConfig) -> int:
    if len(set(config.epsilons)) < 3:
        raise ConfigError(f"sweep needs >= 3 distinct accuracy levels for a slope fit, "
                          f"got {list(config.epsilons)}")
    problem = build_problem(config.problem)
    root = RandomStream(seed=config.seed)
    points = []
    print(
        f"family={config.problem.family} mode={config.penalty.oracle_mode} "
        f"seed={config.seed} reps={config.replications} grid={list(config.epsilons)}"
    )
    for idx, epsilon in enumerate(config.epsilons):
        pcfg = dataclasses.replace(config.penalty, epsilon=epsilon)
        t0 = time.perf_counter()
        study = run_study(problem, pcfg, config.replications, root.child(idx))
        elapsed = time.perf_counter() - t0
        cert = study.certificate
        calls = study.mc.estimates["oracle_calls"].mean
        points.append((epsilon, calls))
        print(
            f"epsilon={_fmt(epsilon)}: mean_calls={_fmt(calls)} "
            f"crit_sq={_fmt(cert.crit_sq.mean)} theta={_fmt(cert.theta.mean)} "
            f"verdict={'PASS' if cert.verdict else 'FAIL'} ({elapsed:.2f}s)"
        )
        if config.output is not None:
            path = _sweep_output_path(config.output, epsilon)
            write_records(study.records, path)
            print(f"records: {path}")
    fit = slope_fit(points)
    print(
        f"slope_fit: slope={fit.slope:.4f} intercept={fit.intercept:.4f} r2={fit.r2:.4f}"
    )
    return 0


def _validate_smoothing(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """Gaussian-smoothing sandwich on the exact objective at random points."""
    if problem.true_objective is None or problem.oracle.value is None:
        return None
    if problem.box is None:
        return None
    lo, hi = problem.box
    l_g = problem.constants.L_g
    if l_g is None:
        return None
    rng = stream.generator()
    mu = 0.01
    for trial in range(5):
        x = lo + (hi - lo) * rng.uniform(0.25, 0.75, size=problem.n)
        # the built-in families' oracles hold the exact objective's values
        sm = smoothed_reference(problem.oracle.value, x, mu, 20000, stream.child(trial))
        diff = sm.mean - problem.true_value_grad(x)[0]
        slack = 4.0 * sm.stderr + 1e-12
        upper = mu**2 * l_g * problem.n / 2.0
        if diff < -slack or diff > upper + slack:
            return (
                f"smoothed value offset {diff:.3e} outside [0, {upper:.3e}] "
                f"(slack {slack:.1e}, trial {trial})"
            )
    return None


def _validate_oracle_stats(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """First and second moments of the gradient oracle at the start point."""
    if problem.oracle.grad is None or problem.true_objective is None:
        return None
    x = problem.x_init
    sigma = problem.oracle.sigma
    draws = 4000
    samples = problem.oracle.gradient_batch(x, draws, stream.generator())
    _, grad = problem.true_value_grad(x)
    err = samples - grad
    mean_err = float(np.linalg.norm(err.mean(axis=0)))
    if sigma == 0.0:
        if mean_err > 1e-12:
            return f"noiseless oracle deviates from the exact gradient by {mean_err:.3e}"
        return None
    if mean_err > 5.0 * sigma / math.sqrt(draws):
        return (
            f"gradient oracle bias {mean_err:.4g} exceeds 5 standard errors "
            f"({5.0 * sigma / math.sqrt(draws):.4g})"
        )
    second = float(np.mean(np.sum(err * err, axis=1)))
    if not 0.7 * sigma**2 <= second <= 1.3 * sigma**2:
        return (
            f"gradient oracle second moment {second:.4g} outside "
            f"[{0.7 * sigma**2:.4g}, {1.3 * sigma**2:.4g}]"
        )
    return None


def _validate_jacobian(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """Central finite differences of the constraint map against its Jacobian."""
    rng = stream.generator()
    h = 1e-6
    for trial in range(10):
        x = np.asarray(problem.x_init, dtype=float) + rng.uniform(-0.5, 0.5, size=problem.n)
        _, jac = eval_constraints(problem, x)
        fd = np.zeros_like(jac)
        for j in range(problem.n):
            e = np.zeros(problem.n)
            e[j] = h
            cp, _ = eval_constraints(problem, x + e)
            cm, _ = eval_constraints(problem, x - e)
            fd[:, j] = (cp - cm) / (2.0 * h)
        scale = max(1.0, float(np.abs(jac).max()))
        err = float(np.abs(fd - jac).max()) / scale
        if err > 1e-4:
            return (
                f"constraint Jacobian disagrees with central finite differences: "
                f"max relative deviation {err:.3e} at trial {trial}"
            )
    return None


def _validate_batch_variance(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """Averaging m oracle draws must shrink the error second moment like 1/m."""
    if problem.oracle.grad is None or problem.true_objective is None:
        return None
    sigma = problem.oracle.sigma
    if sigma == 0.0:
        return None
    x = problem.x_init
    _, grad = problem.true_value_grad(x)
    m = 16
    reps = 1500
    rng = stream.generator()
    sq = np.empty(reps)
    for i in range(reps):
        est = problem.oracle.gradient_batch(x, m, rng).mean(axis=0)
        diff = est - grad
        sq[i] = diff @ diff
    mean_sq = float(sq.mean())
    target = sigma**2 / m
    if not 0.7 * target <= mean_sq <= 1.3 * target:
        return (
            f"batch of {m} draws has error second moment {mean_sq:.4g}, "
            f"expected near {target:.4g}"
        )
    return None


_VALIDATORS = (
    ("smoothing-bounds", _validate_smoothing),
    ("oracle-moments", _validate_oracle_stats),
    ("batch-averaging", _validate_batch_variance),
    ("constraint-jacobian-fd", _validate_jacobian),
)


def _cmd_validate(config: RunConfig) -> int:
    problem = build_problem(config.problem)
    root = RandomStream(seed=config.seed)
    failures = 0
    # count from 1: child(0) fed a since-deleted subsolver check, so draws stay put
    for idx, (name, fn) in enumerate(_VALIDATORS, start=1):
        message = fn(problem, root.child(idx))
        if message is None:
            print(f"[PASS] {name}")
        else:
            failures += 1
            print(f"[FAIL] {name}: {message}")
    print(f"validate: {len(_VALIDATORS) - failures}/{len(_VALIDATORS)} properties hold")
    return 1 if failures else 0


_COMMANDS = dict(solve=_cmd_solve, certify=_cmd_certify, sweep=_cmd_sweep, validate=_cmd_validate)


def dispatch(subcommand: str, config: RunConfig) -> int:
    """Run one subcommand under a validated configuration; returns the exit
    code (0 success/verdict-true, 1 verdict-false or property failure)."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return _COMMANDS[subcommand](config)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spen",
        description=(
            "Penalty methods for equality-constrained stochastic optimization: "
            "run, certify, and measure the experiment harness."
        ),
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out", default=None, help="override [run] output path")
    args = parser.parse_args(argv)
    try:
        config = _load(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, output=args.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        return dispatch(args.subcommand, config)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except SpenError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
