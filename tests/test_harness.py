"""Tests for problem families, replication harness, slope fits, and CSV I/O."""

import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import spen.cli
from spen import harness
from spen import (
    ConfigError,
    PenaltyConfig,
    RandomStream,
    RunRecord,
    SpenError,
    TestProblemSpec,
    build_problem,
    eval_constraints,
    kkt_residuals,
    monte_carlo,
    read_records,
    slope_fit,
    write_records,
)


def test_families_build_and_reference_solutions_hold():
    for family in ("P1", "P2", "P3", "ROSEN-EQ"):
        prob = build_problem(TestProblemSpec(family, sigma=0.1))
        assert prob.known_solution is not None
        sol = prob.known_solution
        stat, feas = kkt_residuals(prob, sol.x_star, sol.lambda_star)
        assert stat <= 1e-8, f"{family}: stationarity residual {stat}"
        assert feas <= 1e-8, f"{family}: feasibility residual {feas}"
        f_val, _ = prob.true_value_grad(sol.x_star)
        assert abs(f_val - sol.f_star) < 1e-8
        prob.constants.require("L_g", "L_J", "sigma", "f_low",
                               "kappa_g", "kappa_c", "kappa_f", "kappa_J")
        assert prob.x_init is not None and prob.box is not None


def test_every_family_in_the_table_builds_and_unknown_names_list_the_table():
    for family in harness.FAMILIES:
        assert build_problem(TestProblemSpec(family, sigma=0.1)).name == family
    with pytest.raises(ConfigError) as err:
        build_problem(TestProblemSpec("P4"))
    assert str(harness.FAMILIES) in str(err.value)


def test_one_point_values_have_the_bits_of_the_batch():
    for family in harness.FAMILIES:
        prob = build_problem(TestProblemSpec(family, sigma=0.0))
        lo, hi = prob.box
        points = lo + (hi - lo) * np.random.default_rng(0).uniform(size=(10_000, prob.n))
        batch, _ = prob.oracle.value_pair_batch(points, points[:1], None)
        one = np.array([prob.true_value_grad(x)[0] for x in points])
        assert one.tobytes() == batch.tobytes(), family


def test_p1_is_unconstrained_with_exact_trig_gradient():
    prob = build_problem(TestProblemSpec("P1", n=6, sigma=0.0))
    assert (prob.n, prob.q) == (6, 1)
    x = np.linspace(-1.0, 2.0, 6)
    c, jac = eval_constraints(prob, x)
    assert np.all(c == 0.0) and np.all(jac == 0.0)
    g = prob.oracle.gradient_batch(x, 1, np.random.default_rng(0))[0]
    assert np.allclose(g, np.sin(x) + 0.1 * x, atol=1e-14)
    f, grad = prob.true_value_grad(x)
    assert abs(f - ((1.0 - np.cos(x)).sum() + 0.05 * x @ x)) < 1e-12
    assert np.allclose(grad, g, atol=1e-14)


def test_p2_geometry():
    prob = build_problem(TestProblemSpec("P2", sigma=0.0))
    assert (prob.n, prob.q) == (2, 2 - 1)
    c, jac = eval_constraints(prob, np.array([0.7, 0.1]))
    assert abs(c[0] + 0.2) < 1e-14
    assert np.array_equal(jac, np.array([[1.0, 1.0]]))
    sol = prob.known_solution
    assert np.allclose(sol.x_star, [0.5, 0.5], atol=1e-12)
    assert abs(sol.f_star - 0.25) < 1e-12


def test_p3_solution_is_feasible_stationary():
    prob = build_problem(TestProblemSpec("P3", sigma=0.1))
    assert (prob.n, prob.q) == (3, 1)
    sol = prob.known_solution
    c, _ = eval_constraints(prob, sol.x_star)
    assert abs(c[0]) < 1e-10
    assert abs(float(sol.x_star @ sol.x_star) - 1.0) < 1e-10


def test_rosen_eq_solution_on_line():
    prob = build_problem(TestProblemSpec("ROSEN-EQ", sigma=0.1))
    sol = prob.known_solution
    assert abs(sol.x_star.sum() - 1.0) < 1e-12
    # of the line's three stationary points, x_star is the one with least f:
    # no point of a fine grid on the line does better
    t = np.linspace(-3.0, 3.0, 6001)
    line_values = [prob.true_value_grad(np.array([ti, 1.0 - ti]))[0] for ti in t]
    assert sol.f_star <= min(line_values)


def test_debug_family_ships_wrong_jacobian():
    prob = build_problem(TestProblemSpec("DEBUG-BADJAC", sigma=0.0))
    x = np.array([0.3, -0.2])
    c, jac = eval_constraints(prob, x)
    h = 1e-6
    fd = np.zeros((prob.q, prob.n))
    for i in range(prob.n):
        e = np.zeros(prob.n)
        e[i] = h
        fd[:, i] = (prob.constraints(x + e)[0] - prob.constraints(x - e)[0]) / (2.0 * h)
    rel = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
    assert rel > 1e-3


def test_spec_validation():
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P9"))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P2", n=3))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P1", n=0))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P1", sigma=-0.5))


def test_kkt_residuals_zero_at_solution():
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    sol = prob.known_solution
    stat, feas = kkt_residuals(prob, sol.x_star, sol.lambda_star)
    assert stat < 1e-12 and feas < 1e-12
    stat_off, feas_off = kkt_residuals(prob, np.zeros(2), np.zeros(1))
    assert stat_off > 0.1 and feas_off > 0.5


def test_monte_carlo_constant_runs():
    res = monte_carlo(lambda rep, s: {"a": 2.0, "b": -1.0}, 40, RandomStream(0))
    assert res.estimates["a"].mean == 2.0
    assert res.estimates["a"].stderr == 0.0
    assert res.estimates["b"].ci95_low == -1.0
    assert not res.failures and not res.partial and res.reps == 40


def test_monte_carlo_estimates_gaussian_mean():
    def run(rep, stream):
        return {"v": float(stream.generator().normal(3.0, 1.0))}

    res = monte_carlo(run, 400, RandomStream(1))
    est = res.estimates["v"]
    assert est.ci95_low <= 3.0 <= est.ci95_high
    assert 0.03 <= est.stderr <= 0.08


def test_monte_carlo_order_invariance(monkeypatch):
    def run(rep, stream):
        return {"v": float(stream.generator().standard_normal())}

    forward = monte_carlo(run, 50, RandomStream(2))
    rng = np.random.default_rng(0)
    perm = list(rng.permutation(50))
    shuffled = monte_carlo(run, 50, RandomStream(2), order=perm)
    assert forward.estimates["v"] == shuffled.estimates["v"]
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    in_process = monte_carlo(run, 50, RandomStream(2), order=perm)
    assert in_process.estimates == shuffled.estimates
    assert list(in_process.values) == list(shuffled.values) == list(range(50))


def test_run_study_is_independent_of_execution_order(tmp_path, monkeypatch, capsys):
    # `spen certify` run forward, then with the replications run in reverse:
    # a multiplier mean taken in execution order changes its bits here, so
    # the study must assemble its results in replication order
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[problem]\nfamily = P2\nsigma = 0.1\n[penalty]\nepsilon = 0.4\n"
                   "max_outer = 5\n[run]\nreplications = 30\nseed = 3\n")
    run_study, run_penalty, monte_carlo = (
        harness.run_study, harness.run_penalty, harness.monte_carlo)
    studies, executed_lams = [], []

    def capturing_study(*args):
        studies.append(run_study(*args))
        return studies[-1]

    def capturing_penalty(*args, **kwargs):
        result = run_penalty(*args, **kwargs)
        executed_lams.append(result.certificate.lam)
        return result

    def run_certify(name):
        out = tmp_path / f"{name}.csv"
        assert spen.cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return out.read_bytes(), [ln for ln in lines if not ln.startswith(("elapsed", "records"))]

    monkeypatch.setattr(spen.cli, "run_study", capturing_study)
    forward_csv, forward_out = run_certify("forward")
    # the reversed leg runs in this process, where execution order is exact
    # and the multipliers captured on the way are visible
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    monkeypatch.setattr(harness, "run_penalty", capturing_penalty)
    monkeypatch.setattr(harness, "monte_carlo", lambda fn, reps, stream, **kw: monte_carlo(
        fn, reps, stream, order=list(reversed(range(reps))), **kw))
    backward_csv, backward_out = run_certify("backward")

    forward, backward = studies
    assert len(executed_lams) == 30
    in_execution_order = np.mean(np.stack(executed_lams), axis=0)
    assert in_execution_order.tobytes() != backward.certificate.lam.tobytes()
    assert forward.records == backward.records
    assert forward.certificate.lam.tobytes() == backward.certificate.lam.tobytes()
    assert forward.mc.estimates == backward.mc.estimates
    assert forward_csv == backward_csv
    assert forward_out == backward_out


def test_monte_carlo_captures_failures():
    def run(rep, stream):
        if rep % 10 == 3:
            raise SpenError(f"synthetic failure at {rep}")
        return {"v": 1.0}

    res = monte_carlo(run, 40, RandomStream(3))
    assert [rep for rep, _ in res.failures] == [3, 13, 23, 33]
    assert all("synthetic failure" in msg for _, msg in res.failures)
    assert res.partial
    assert res.estimates["v"].count == 36


def test_monte_carlo_survives_numeric_failure():
    def run(rep, stream):
        if rep == 17:
            raise np.linalg.LinAlgError("eigh did not converge")
        return {"v": float(rep)}

    res = monte_carlo(run, 30, RandomStream(4))
    assert res.failures == [(17, "LinAlgError: eigh did not converge")]
    assert not res.partial
    assert res.estimates["v"].count == 29


def test_monte_carlo_survives_math_domain_error():
    def run(rep, stream):
        return {"v": math.sqrt(-1.0) if rep == 5 else float(rep)}

    res = monte_carlo(run, 30, RandomStream(5))
    assert res.failures == [(5, "ValueError: math domain error")]
    assert res.estimates["v"].count == 29


def test_monte_carlo_propagates_programming_errors():
    def run(rep, stream):
        return {"v": float(rep) + ("x" if rep == 5 else 0.0)}

    with pytest.raises(TypeError):
        monte_carlo(run, 30, RandomStream(5))
    assert multiprocessing.active_children() == []


def test_study_in_workers_matches_in_process(monkeypatch):
    # replication 7 fails inside its worker; the patched run_penalty reaches
    # the workers because they are forked after the patch
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.4, max_outer=5)
    run_penalty = harness.run_penalty

    def failing_at_7(problem, config, stream, replication=0):
        if replication == 7:
            raise SpenError("synthetic failure in replication 7")
        return run_penalty(problem, config, stream, replication=replication)

    monkeypatch.setattr(harness, "run_penalty", failing_at_7)
    pooled = harness.run_study(problem, config, 30, RandomStream(19))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    local = harness.run_study(problem, config, 30, RandomStream(19))
    assert pooled.mc.failures == local.mc.failures == [
        (7, "SpenError: synthetic failure in replication 7")
    ]
    assert pooled.records == local.records
    assert pooled.certificate.lam.tobytes() == local.certificate.lam.tobytes()
    assert pooled.mc.estimates == local.mc.estimates


@pytest.mark.skipif(harness._worker_count(30) < 2, reason="needs two usable CPUs")
def test_monte_carlo_runs_replications_in_workers():
    def run(rep, stream):
        # a worker runs any study of its own in its own process
        return {"pid": float(os.getpid()), "workers": float(harness._worker_count(30))}

    res = monte_carlo(run, 30, RandomStream(0))
    pids = {value["pid"] for value in res.values.values()}
    assert float(os.getpid()) not in pids
    assert res.estimates["workers"].mean == 1.0
    assert 1 <= len(pids) <= harness._worker_count(30)
    assert multiprocessing.active_children() == []


def test_import_loads_no_process_machinery():
    # the pool's modules are imported when a study runs, and the zeroth-order
    # draw-ahead's queue when it first starts, so start-up does not pay for them
    src = os.path.dirname(os.path.dirname(spen.cli.__file__))
    code = ("import sys, spen, spen.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'queue')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_monte_carlo_validation():
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0}, 29, RandomStream(0))
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0}, 30, RandomStream(0), order=[0, 1])
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0} if rep else {"w": 1.0}, 30, RandomStream(0))

    def always_fail(rep, stream):
        raise SpenError("broken")

    with pytest.raises(ConfigError, match="all 30 replications failed"):
        monte_carlo(always_fail, 30, RandomStream(0))


def test_slope_fit_exact_power_law():
    pts = [(eps, 100.0 * eps**-2.0) for eps in (0.4, 0.2, 0.1, 0.05)]
    fit = slope_fit(pts)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert abs(np.exp(fit.intercept) - 100.0) < 1e-9


def test_slope_fit_with_noise():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = [(eps, 50.0 * eps**-3.0 * float(rng.uniform(0.9, 1.1)))
               for eps in (0.4, 0.2, 0.1)]
        fit = slope_fit(pts)
        assert abs(fit.slope - 3.0) < 0.3


def test_slope_fit_validation():
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 20.0)])
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 20.0), (-0.1, 30.0)])
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 0.0), (0.1, 30.0)])


def _random_records(rng, count):
    # unique (replication, outer_iter) keys, as produced by real runs
    out = []
    for i in range(count):
        out.append(RunRecord(
            replication=i // 8,
            outer_iter=i % 8 + 1,
            rho=float(rng.uniform(1.0, 100.0)),
            theta=float(rng.uniform(0.0, 2.0)),
            phi=float(rng.uniform(0.0, 5.0)),
            crit_sq=None if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0)),
            oracle_calls=int(rng.integers(1, 10**7)),
        ))
    return out


def test_records_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    records = _random_records(rng, 1000)
    rng.shuffle(records)
    path = str(tmp_path / "records.csv")
    write_records(records, path)
    back = read_records(path)
    assert back == sorted(records, key=lambda r: (r.replication, r.outer_iter))


def test_records_write_is_order_independent(tmp_path):
    rng = np.random.default_rng(6)
    records = _random_records(rng, 100)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_records(records, a)
    shuffled = list(records)
    np.random.default_rng(7).shuffle(shuffled)
    write_records(shuffled, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_records_empty_and_bad_header(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_records([], path)
    assert read_records(path) == []
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(ConfigError):
        read_records(str(bad))
