"""Command-line entry point: `spen <solve|certify|sweep|validate>`."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
import time

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, SpenError
from .harness import build_problem, monte_carlo, slope_fit, write_records
from .penalty import certificate_from_estimates, run_penalty
from .problems import ConstrainedProblem, RandomStream, eval_constraints
from .sfo import batch_gradient
from .subsolvers import phi, prox_step, theta
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


def _certify_once(
    config: RunConfig, epsilon: float, records_sink: list, root: RandomStream | None = None
) -> tuple:
    """Run the full driver over all replications at one accuracy level.

    The aggregate certificate averages the per-replication terminal
    residuals and infeasibility measures; its multiplier field is the mean
    terminal multiplier (diagnostic only, the verdict uses the estimates).
    """
    problem = build_problem(config.problem)
    pcfg = dataclasses.replace(config.penalty, epsilon=epsilon)
    if root is None:
        root = RandomStream(seed=config.seed)
    lam_sink: list[np.ndarray] = []

    def run_fn(rep: int, stream: RandomStream):
        result = run_penalty(problem, pcfg, stream, replication=rep)
        records_sink.extend(result.records)
        lam_sink.append(result.certificate.lam)
        return {
            "crit_sq": result.certificate.crit_sq.mean,
            "theta": result.certificate.theta.mean,
            "oracle_calls": float(result.state.oracle_calls),
        }

    mc = monte_carlo(run_fn, config.replications, root)
    lam_mean = np.mean(np.stack(lam_sink), axis=0) if lam_sink else np.zeros(problem.q)
    cert = certificate_from_estimates(
        epsilon, mc.estimates["crit_sq"], mc.estimates["theta"], lam_mean, config.replications
    )
    return cert, mc


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
    records: list = []
    t0 = time.perf_counter()
    cert, mc = _certify_once(config, config.penalty.epsilon, records)
    elapsed = time.perf_counter() - t0
    print(
        f"family={config.problem.family} mode={config.penalty.oracle_mode} "
        f"epsilon={_fmt(config.penalty.epsilon)} seed={config.seed} reps={config.replications}"
    )
    _print_certificate(cert, mc)
    print(f"elapsed: {elapsed:.2f}s")
    if config.output is not None:
        write_records(records, config.output)
        print(f"records: {config.output}")
    return 0 if cert.verdict else 1


def _sweep_output_path(base: str, epsilon: float) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}_eps{epsilon:g}.{ext}"
    return f"{base}_eps{epsilon:g}"


def _cmd_sweep(config: RunConfig) -> int:
    if len(config.epsilons) < 3:
        raise ConfigError(
            f"sweep needs >= 3 accuracy levels for a slope fit, got {list(config.epsilons)}"
        )
    points = []
    print(
        f"family={config.problem.family} mode={config.penalty.oracle_mode} "
        f"seed={config.seed} reps={config.replications} grid={list(config.epsilons)}"
    )
    for idx, epsilon in enumerate(config.epsilons):
        records: list = []
        t0 = time.perf_counter()
        cert, mc = _certify_once(
            config, epsilon, records, RandomStream(seed=config.seed).child(idx)
        )
        elapsed = time.perf_counter() - t0
        calls = mc.estimates["oracle_calls"].mean
        points.append((epsilon, calls))
        print(
            f"epsilon={_fmt(epsilon)}: mean_calls={_fmt(calls)} "
            f"crit_sq={_fmt(cert.crit_sq.mean)} theta={_fmt(cert.theta.mean)} "
            f"verdict={'PASS' if cert.verdict else 'FAIL'} ({elapsed:.2f}s)"
        )
        if config.output is not None:
            path = _sweep_output_path(config.output, epsilon)
            write_records(records, path)
            print(f"records: {path}")
    fit = slope_fit(points)
    print(
        f"slope_fit: slope={fit.slope:.4f} intercept={fit.intercept:.4f} r2={fit.r2:.4f}"
    )
    return 0


def _validate_subsolvers(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """Brute-force equivalence of the prox and measure subsolvers on small
    random instances; a coarse full grid bounds the comparison error."""
    rng = stream.generator()
    for trial in range(20):
        n = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(1.0, 3.0))
        gamma = float(rng.uniform(0.3, 1.0))
        pr = prox_step(np.zeros(n), g, c, jac, rho, gamma)
        attained = (
            g @ pr.d + rho * np.linalg.norm(c + jac @ pr.d) + (pr.d @ pr.d) / (2.0 * gamma)
        )
        radius = gamma * (np.linalg.norm(g) + rho * np.linalg.norm(jac, 2)) + 1e-9
        axes = [np.linspace(-radius, radius, 81)] * n
        best = attained
        for point in itertools.product(*axes):
            d = np.asarray(point)
            val = g @ d + rho * np.linalg.norm(c + jac @ d) + (d @ d) / (2.0 * gamma)
            if val < best:
                best = val
        lip = np.linalg.norm(g) + rho * np.linalg.norm(jac, 2) + 2.0 * radius / gamma
        margin = lip * (radius / 40.0) * math.sqrt(n) + 1e-7
        if attained > best + margin:
            return (
                f"prox step objective {attained:.6g} exceeds grid minimum "
                f"{best:.6g} beyond margin {margin:.2g} (trial {trial})"
            )
        th = theta(c, jac).measure
        ph = phi(g, c, jac, rho).measure
        s_axes = [np.linspace(-1.0, 1.0, 81)] * n
        best_th = np.linalg.norm(c)
        best_ph = rho * np.linalg.norm(c)
        for point in itertools.product(*s_axes):
            s = np.asarray(point)
            if s @ s > 1.0 + 1e-12:
                continue
            r = np.linalg.norm(c + jac @ s)
            if r < best_th:
                best_th = r
            v = g @ s + rho * r
            if v < best_ph:
                best_ph = v
        lip_s = np.linalg.norm(jac, 2)
        margin_th = lip_s * (2.0 / 80.0) * math.sqrt(n) + 1e-7
        if abs(th - (np.linalg.norm(c) - best_th)) > margin_th:
            return f"theta {th:.6g} disagrees with grid value (trial {trial})"
        lip_phi = np.linalg.norm(g) + rho * lip_s
        margin_phi = lip_phi * (2.0 / 80.0) * math.sqrt(n) + 1e-7
        if abs(ph - (rho * np.linalg.norm(c) - best_ph)) > margin_phi:
            return f"phi {ph:.6g} disagrees with grid value (trial {trial})"
    return None


def _validate_smoothing(problem: ConstrainedProblem, stream: RandomStream) -> str | None:
    """Gaussian-smoothing sandwich on the exact objective at random points."""
    if problem.true_objective is None or not problem.oracle.has_value:
        return None
    if problem.box is None:
        return None
    lo, hi = problem.box
    l_g = problem.constants.L_g
    if l_g is None:
        return None
    rng = stream.generator()
    mu = 0.01
    exact = lambda x: problem.true_value_grad(x)[0]
    exact_batch = lambda pts: np.array([exact(p) for p in pts])
    for trial in range(5):
        x = lo + (hi - lo) * rng.uniform(0.25, 0.75, size=problem.n)
        sm = smoothed_reference(exact_batch, x, mu, 20000, stream.child(trial))
        diff = sm.mean - exact(x)
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
    if not problem.oracle.has_gradient or problem.true_objective is None:
        return None
    x = problem.x_init if problem.x_init is not None else np.zeros(problem.n)
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
    x0 = problem.x_init if problem.x_init is not None else np.zeros(problem.n)
    for trial in range(10):
        x = np.asarray(x0, dtype=float) + rng.uniform(-0.5, 0.5, size=problem.n)
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
    if not problem.oracle.has_gradient or problem.true_objective is None:
        return None
    sigma = problem.oracle.sigma
    if sigma == 0.0:
        return None
    x = problem.x_init if problem.x_init is not None else np.zeros(problem.n)
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
    ("subsolver-brute-force", _validate_subsolvers),
    ("smoothing-bounds", _validate_smoothing),
    ("oracle-moments", _validate_oracle_stats),
    ("batch-averaging", _validate_batch_variance),
    ("constraint-jacobian-fd", _validate_jacobian),
)


def _cmd_validate(config: RunConfig) -> int:
    problem = build_problem(config.problem)
    root = RandomStream(seed=config.seed)
    failures = 0
    for idx, (name, fn) in enumerate(_VALIDATORS):
        message = fn(problem, root.child(idx))
        if message is None:
            print(f"[PASS] {name}")
        else:
            failures += 1
            print(f"[FAIL] {name}: {message}")
    print(f"validate: {len(_VALIDATORS) - failures}/{len(_VALIDATORS)} properties hold")
    return 1 if failures else 0


def dispatch(subcommand: str, config: RunConfig) -> int:
    """Run one subcommand under a validated configuration; returns the exit
    code (0 success/verdict-true, 1 verdict-false or property failure)."""
    if subcommand == "solve":
        return _cmd_solve(config)
    if subcommand == "certify":
        return _cmd_certify(config)
    if subcommand == "sweep":
        return _cmd_sweep(config)
    if subcommand == "validate":
        return _cmd_validate(config)
    raise ConfigError(f"unknown subcommand {subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spen",
        description=(
            "Penalty methods for equality-constrained stochastic optimization: "
            "run, certify, and measure the experiment harness."
        ),
    )
    parser.add_argument(
        "subcommand", choices=["solve", "certify", "sweep", "validate"]
    )
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
