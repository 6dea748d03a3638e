"""Acceptance gate: twelve criteria covering subsolver accuracy against
brute-force references, inner-solver guarantees, budget scaling laws,
driver certification, steering invariants, and bitwise determinism.

Each criterion prints one pass/fail line; the suite fails if any
criterion fails.  The heavy replication study backing criteria 9 and 10
runs once and is shared.
"""

import math
import time

import numpy as np
import pytest

from grid_reference import draw_instance, grid_references, prox_objective
from spen import (
    DEFAULT_MEASURE_TOL,
    DEFAULT_PROX_TOL,
    ConstrainedProblem,
    GaussianOracle,
    PenaltyConfig,
    ProblemConstants,
    RandomStream,
    SolverBudget,
    TestProblemSpec,
    build_problem,
    certificate_from_estimates,
    eval_constraints,
    mean_estimate,
    monte_carlo,
    phi,
    prox_step,
    run_penalty,
    sfo_budget,
    sfo_stationarity_bound,
    sigma_tilde_sq,
    slope_fit,
    smoothed_reference,
    solve_nsco_sfo,
    szo_gradient_batch,
    theta,
)
from spen.cli import main as cli_main

PAIR_SLACK = 10.0 * DEFAULT_PROX_TOL
STEER_SLACK = 10.0 * DEFAULT_MEASURE_TOL

REPORT_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_subsolvers_match_grid_reference():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"prox": 0.0, "theta": 0.0, "phi": 0.0}
    for _ in range(500):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        g, c, jac, rho, gamma = draw_instance(rng, n, q)
        pr = prox_step(np.zeros(n), g, c, jac, rho, gamma)
        got = {
            "prox": prox_objective(pr.d, g, c, jac, rho, gamma),
            "theta": theta(c, jac).measure,
            "phi": phi(g, c, jac, rho).measure,
        }
        for key, ref in zip(("prox", "theta", "phi"), grid_references(g, c, jac, rho, gamma)):
            worst[key] = max(worst[key], abs(got[key] - ref))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 120.0
    _report(1, ok, "500 instances vs exhaustive grid, worst |diff| prox/theta/phi = "
                   f"{worst['prox']:.2e}/{worst['theta']:.2e}/{worst['phi']:.2e} "
                   f"(tol 1e-4), {elapsed:.1f}s")


def test_criterion_02_prox_map_nonexpansive_in_gradient():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(10000):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 4))
        x = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.1, 4.0))
        gamma = float(rng.uniform(0.05, 1.8))
        g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
        p1 = prox_step(x, g1, c, jac, rho, gamma).p_gamma
        p2 = prox_step(x, g2, c, jac, rho, gamma).p_gamma
        worst = max(worst, float(np.linalg.norm(p1 - p2) - np.linalg.norm(g1 - g2)))
    elapsed = time.perf_counter() - t0
    ok = worst <= PAIR_SLACK and elapsed < 60.0
    _report(2, ok, f"10^4 gradient pairs, worst expansion excess {worst:.2e} "
                   f"(slack {PAIR_SLACK:.0e}), {elapsed:.1f}s")


def test_criterion_03_prox_descent_inequality():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    # affine composite: <g, P> >= ||P||^2 + (h(c + J d) - h(c))/gamma
    worst_affine = -np.inf
    for _ in range(10000):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 4))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.1, 4.0))
        gamma = float(rng.uniform(0.05, 1.8))
        pr = prox_step(np.zeros(n), g, c, jac, rho, gamma)
        lhs = float(g @ pr.p_gamma)
        rhs = float(pr.p_gamma @ pr.p_gamma) + rho * (
            float(np.linalg.norm(c + jac @ pr.d)) - float(np.linalg.norm(c))
        ) / gamma
        worst_affine = max(worst_affine, rhs - lhs)
    # nonlinear constraints: the curvature term 0.5*gamma*rho*L_J relaxes
    # the squared-norm coefficient
    problem = build_problem(TestProblemSpec("P3", sigma=0.0))
    l_jac = problem.constants.L_J
    worst_curved = -np.inf
    for _ in range(500):
        x = rng.uniform(-2.0, 2.0, size=3)
        g = rng.standard_normal(3) * 3.0
        rho = float(rng.uniform(0.5, 4.0))
        gamma = float(rng.uniform(0.01, 0.2))
        c, jac = eval_constraints(problem, x)
        pr = prox_step(x, g, c, jac, rho, gamma)
        c_new, _ = eval_constraints(problem, pr.x_plus)
        lhs = float(g @ pr.p_gamma)
        rhs = (1.0 - 0.5 * gamma * rho * l_jac) * float(pr.p_gamma @ pr.p_gamma) + rho * (
            float(np.linalg.norm(c_new)) - float(np.linalg.norm(c))
        ) / gamma
        worst_curved = max(worst_curved, rhs - lhs)
    elapsed = time.perf_counter() - t0
    ok = worst_affine <= PAIR_SLACK and worst_curved <= PAIR_SLACK and elapsed < 60.0
    _report(3, ok, f"model decrease, worst violation affine {worst_affine:.2e} / "
                   f"curved {worst_curved:.2e} (slack {PAIR_SLACK:.0e}), {elapsed:.1f}s")


def test_criterion_04_noiseless_monotone_descent():
    # sigma = 0, m = 1: the solver runs the exact prox-gradient recursion,
    # which is replayed here to read f + ||c|| along it.  The recursion
    # reaches a fixed point well before step 200, so the solver's iterate is
    # also compared after 1 and 9 steps, where a wrong step size still shows.
    problem = build_problem(TestProblemSpec("P1", sigma=0.0))
    budget = SolverBudget(n_bar=201, m=1, gamma=1.0 / 1.1, L=1.1)
    stops = (2, 10, 201)
    rng = np.random.default_rng(104)
    violations = 0
    comparisons = 0
    for run in range(50):
        x = rng.uniform(-3.0, 3.0, size=problem.n)
        solver_x = [solve_nsco_sfo(problem, 1.0, x, budget, RandomStream(104).child(run),
                                   stop_index=stop).x_R for stop in stops]
        path = [x]
        values = []
        for _ in range(200):
            f, g = problem.true_value_grad(x)
            c, jac = eval_constraints(problem, x)
            values.append(f + float(np.linalg.norm(c)))
            x = prox_step(x, g, c, jac, 1.0, budget.gamma).x_plus
            path.append(x)
        f_final, _ = problem.true_value_grad(x)
        c_final, _ = eval_constraints(problem, x)
        values.append(f_final + float(np.linalg.norm(c_final)))
        for stop, x_r in zip(stops, solver_x):
            if not np.array_equal(path[stop - 1], x_r):
                violations += 1
        for a, b in zip(values, values[1:]):
            comparisons += 1
            if b > a + 1e-12:
                violations += 1
    ok = violations == 0 and comparisons == 50 * 200
    _report(4, ok, f"sigma=0, m=1: {violations} objective increases or solver iterates "
                   f"at R = {stops} differing from the replay over {comparisons} "
                   f"consecutive steps (50 runs x 200 iterations)")


def test_criterion_05_stationarity_bound_holds():
    problem = build_problem(TestProblemSpec("P1", sigma=0.5))
    d_phi, _ = problem.true_value_grad(problem.x_init)
    budget = sfo_budget(0.5, d_phi, 1.1, 0.5)
    rhs = sfo_stationarity_bound(budget, d_phi, 0.5)
    t0 = time.perf_counter()
    sq = []
    for rep in range(200):
        res = solve_nsco_sfo(problem, 1.0, problem.x_init, budget,
                             RandomStream(105).child(rep))
        c, jac = eval_constraints(problem, res.x_R)
        p = prox_step(res.x_R, res.G_R, c, jac, 1.0, budget.gamma).p_gamma
        sq.append(float(p @ p))
    elapsed = time.perf_counter() - t0
    est = mean_estimate(np.asarray(sq))
    half = est.ci95_high - est.mean
    ok = est.mean <= rhs + half and elapsed < 300.0
    _report(5, ok, f"200 replications: mean residual {est.mean:.4f} <= "
                   f"guaranteed bound {rhs:.4f} + half-width {half:.4f}, {elapsed:.1f}s")


def test_criterion_06_budgets_deliver_epsilon_and_quadratic_order():
    problem = build_problem(TestProblemSpec("P1", n=4, sigma=1.0))
    d_phi, _ = problem.true_value_grad(problem.x_init)
    t0 = time.perf_counter()
    detail = []
    delivered = True
    formula_points = []
    for idx, eps in enumerate((0.4, 0.2, 0.1)):
        budget = sfo_budget(eps, d_phi, 1.1, 1.0)
        formula_points.append((eps, float(budget.n_bar)))
        true_sq, batch_sq = [], []
        for rep in range(60):
            res = solve_nsco_sfo(problem, 1.0, problem.x_init, budget,
                                 RandomStream(106 + idx).child(rep))
            c, jac = eval_constraints(problem, res.x_R)
            _, grad = problem.true_value_grad(res.x_R)
            p_true = prox_step(res.x_R, grad, c, jac, 1.0, budget.gamma).p_gamma
            p_batch = prox_step(res.x_R, res.G_R, c, jac, 1.0, budget.gamma).p_gamma
            true_sq.append(float(p_true @ p_true))
            batch_sq.append(float(p_batch @ p_batch))
        for name, vals in (("true", true_sq), ("batch", batch_sq)):
            est = mean_estimate(np.asarray(vals))
            if est.mean > eps or est.ci95_high > 1.5 * eps:
                delivered = False
            detail.append(f"eps={eps} {name}={est.mean:.3f}(ci{est.ci95_high:.3f})")
    fit = slope_fit(formula_points)
    elapsed = time.perf_counter() - t0
    ok = delivered and abs(fit.slope - 2.0) <= 0.1
    _report(6, ok, f"{'; '.join(detail)}; formula slope {fit.slope:.3f} in 2.0+-0.1, "
                   f"{elapsed:.1f}s")


def test_criterion_07_smoothing_inequalities():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    n, mu, samples = 3, 0.1, 40000
    worst = {"value": -np.inf, "gradient": -np.inf, "second-moment": -np.inf}
    for point in range(20):
        a = rng.standard_normal((n, n))
        h = (a + a.T) / 2.0
        lip = float(np.linalg.norm(h, 2))
        b = rng.standard_normal(n)
        x = rng.uniform(-2.0, 2.0, size=n)
        omega = lambda pts: 0.5 * np.einsum("...i,ij,...j->...", pts, h, pts) + pts @ b
        grad = h @ x + b
        ref = smoothed_reference(omega, x, mu, samples, RandomStream(107).child(point))
        worst["value"] = max(worst["value"],
                             abs(ref.mean - float(omega(x)))
                             - (mu**2 * lip * n / 2.0 + 4.0 * ref.stderr))
        v = RandomStream(107).child(point, 1).generator().standard_normal((samples, n))
        pulls = ((omega(x + mu * v) - float(omega(x))) / mu)[:, None] * v
        g_mc = pulls.mean(axis=0)
        g_se = float(np.linalg.norm(pulls.std(axis=0, ddof=1))) / math.sqrt(samples)
        worst["gradient"] = max(worst["gradient"],
                                float(np.linalg.norm(g_mc - grad))
                                - (mu * lip * (n + 3) ** 1.5 / 2.0 + 4.0 * g_se))
        sq = (pulls**2).sum(axis=1)
        sq_se = float(sq.std(ddof=1)) / math.sqrt(samples)
        bound3 = 2.0 * (n + 4) * float(grad @ grad) + mu**2 * lip**2 * (n + 6) ** 3 / 2.0
        worst["second-moment"] = max(worst["second-moment"],
                                     float(sq.mean()) - (bound3 + 4.0 * sq_se))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 0.0 and elapsed < 120.0
    _report(7, ok, "smoothed value/gradient/second-moment bounds at 20 quadratic "
                   f"points, worst slack-adjusted excess "
                   f"{worst['value']:.2e}/{worst['gradient']:.2e}/"
                   f"{worst['second-moment']:.2e}, {elapsed:.1f}s")


def test_criterion_08_two_point_estimator_moments():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    n, mu, sigma = 4, 0.05, 0.5
    a = np.array([1.2, -0.7, 0.4, 2.0])
    value = lambda x: np.asarray(x, dtype=float) @ a
    problem = ConstrainedProblem(
        n=n, q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, n))),
        oracle=GaussianOracle(value=value, sigma=sigma),
        constants=ProblemConstants(L_g=1.0, sigma=sigma),
    )
    unbiased = True
    for point in range(5):
        x = rng.uniform(-1.0, 1.0, size=n)
        chunk_means = np.stack([
            szo_gradient_batch(problem, x, mu, 1000, RandomStream(108).child(point, i))
            for i in range(100)
        ])
        mean = chunk_means.mean(axis=0)
        se = chunk_means.std(axis=0, ddof=1) / math.sqrt(100)
        if np.any(np.abs(mean - a) > 4.0 * se):
            unbiased = False
    m = 32
    errs = [
        float(np.sum((szo_gradient_batch(problem, np.zeros(n), mu, m,
                                         RandomStream(208).child(i)) - a) ** 2))
        for i in range(2000)
    ]
    bound = sigma_tilde_sq(n, float(np.linalg.norm(a)), sigma, mu, 1.0) / m
    batch_ms = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    ok = unbiased and batch_ms <= 1.2 * bound
    _report(8, ok, f"10^5 draws per point unbiased within 4 SE at 5 points; "
                   f"batch mean-square error {batch_ms:.3f} <= 1.2x bound "
                   f"{1.2 * bound:.3f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def p2_replication_study():
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.1, max_outer=5)
    records = []

    def run_fn(rep, stream):
        res = run_penalty(problem, config, stream, replication=rep)
        records.extend(res.records)
        return {
            "crit_sq": res.certificate.crit_sq.mean,
            "theta": res.certificate.theta.mean,
            "oracle_calls": float(res.state.oracle_calls),
        }

    t0 = time.perf_counter()
    mc = monte_carlo(run_fn, 100, RandomStream(109))
    elapsed = time.perf_counter() - t0
    return config, mc, records, elapsed


def test_criterion_09_driver_certifies_p2(p2_replication_study):
    config, mc, _, elapsed = p2_replication_study
    crit = mc.estimates["crit_sq"]
    th = mc.estimates["theta"]
    cert = certificate_from_estimates(config.epsilon, crit, th, np.zeros(1), mc.reps)
    ok = not mc.failures and cert.verdict and elapsed < 600.0
    _report(9, ok, f"100 replications at epsilon=0.1: verdict {cert.verdict}, "
                   f"crit_sq ci95 upper {crit.ci95_high:.4f} <= 0.1, theta ci95 "
                   f"upper {th.ci95_high:.4f} <= {math.sqrt(config.epsilon):.4f}, "
                   f"{elapsed:.1f}s")


def test_criterion_10_steering_invariants(p2_replication_study):
    config, _, records, _ = p2_replication_study
    by_rep = {}
    for rec in records:
        by_rep.setdefault(rec.replication, []).append(rec)
    increment_violations = 0
    condition_violations = 0
    rounds = 0
    for rep, rows in by_rep.items():
        rows.sort(key=lambda r: r.outer_iter)
        prev_rho = config.rho0
        for rec in rows:
            rounds += 1
            if rec.rho - prev_rho < config.tau - 1e-12:
                increment_violations += 1
            if rec.phi < rec.rho * config.xi * rec.theta - STEER_SLACK:
                condition_violations += 1
            prev_rho = rec.rho
    ok = increment_violations == 0 and condition_violations == 0 and rounds >= 100
    _report(10, ok, f"{rounds} steering decisions: {increment_violations} increment "
                    f"violations, {condition_violations} acceptance-condition "
                    f"violations (slack {STEER_SLACK:.0e})")


def test_criterion_11_call_complexity_sweep():
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    t0 = time.perf_counter()
    points = []
    for idx, eps in enumerate((0.4, 0.2, 0.1)):
        config = PenaltyConfig(epsilon=eps, max_outer=5)

        def run_fn(rep, stream):
            res = run_penalty(problem, config, stream, replication=rep)
            return {"oracle_calls": float(res.state.oracle_calls)}

        mc = monte_carlo(run_fn, 30, RandomStream(111).child(idx))
        points.append((eps, mc.estimates["oracle_calls"].mean))
    fit = slope_fit(points)
    elapsed = time.perf_counter() - t0
    ok = fit.slope <= 3.8 and elapsed < 1800.0
    _report(11, ok, f"mean oracle calls at eps 0.4/0.2/0.1 = "
                    f"{points[0][1]:.0f}/{points[1][1]:.0f}/{points[2][1]:.0f}, "
                    f"fitted order {fit.slope:.3f} <= 3.8, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[problem]\nfamily = P2\nsigma = 0.1\n"
                   "[penalty]\nepsilon = 0.4\nmax_outer = 3\n[run]\nseed = 12\n")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code_a = cli_main(["solve", "--config", str(cfg), "--out", a])
    code_b = cli_main(["solve", "--config", str(cfg), "--out", b])
    capsys.readouterr()
    identical = open(a, "rb").read() == open(b, "rb").read()

    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.4, max_outer=2)

    def run_fn(rep, stream):
        res = run_penalty(problem, config, stream, replication=rep)
        return {"crit_sq": res.certificate.crit_sq.mean,
                "calls": float(res.state.oracle_calls)}

    forward = monte_carlo(run_fn, 30, RandomStream(112))
    perm = list(np.random.default_rng(0).permutation(30))
    permuted = monte_carlo(run_fn, 30, RandomStream(112), order=perm)
    invariant = forward.estimates == permuted.estimates
    ok = code_a == 0 and code_b == 0 and identical and invariant
    _report(12, ok, f"repeated solve byte-identical: {identical}; replication-order "
                    f"permutation leaves aggregates unchanged: {invariant}")
