"""Tests for the penalty outer loop: steering, budgets, bounds, certification."""

import math
import time

import numpy as np
import pytest

from spen import subsolvers
from spen import (
    DEFAULT_MEASURE_TOL,
    BudgetExceeded,
    ConfigError,
    ConstrainedProblem,
    GaussianOracle,
    PenaltyConfig,
    PenaltyState,
    ProblemConstants,
    RandomStream,
    SteeringError,
    SubsolverError,
    TestProblemSpec,
    build_problem,
    certificate_from_estimates,
    mean_estimate,
    outer_iteration_bound,
    run_penalty,
    sfo_budget,
    steer_penalty,
    subproblem_budget_for_rho,
    szo_budget,
)

ALL_ONES = ProblemConstants(L_g=1.0, L_J=1.0, sigma=1.0, f_low=1.0,
                            kappa_g=1.0, kappa_c=1.0, kappa_f=1.0, kappa_J=1.0)


def _fixed_instance_problem(c_val, jac_row):
    """Problem whose constraints are the same affine data at every point."""
    jac = np.asarray(jac_row, dtype=float).reshape(1, -1)
    c = np.asarray(c_val, dtype=float).reshape(1)
    return ConstrainedProblem(
        n=jac.shape[1],
        q=1,
        constraints=lambda x: (c.copy(), jac.copy()),
        oracle=GaussianOracle(grad=lambda x: np.zeros(jac.shape[1])),
    )


def test_penalty_config_validation():
    PenaltyConfig(epsilon=0.5)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=1.0)
    with pytest.raises(ConfigError, match="xi"):
        PenaltyConfig(epsilon=0.5, xi=1.0)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.5, tau=0.0)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.5, rho0=0.5)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.5, max_outer=1)
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.5, oracle_mode="exact")
    with pytest.raises(ConfigError):
        PenaltyConfig(epsilon=0.5, d_tilde=0.0)


def test_steering_jumps_to_sufficient_level():
    # minimal increase fails, the sufficiency bound ||G||/((1-xi)*theta)
    # lands exactly on the acceptance threshold
    prob = _fixed_instance_problem([2.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.array([-2.0]), rho=1.0)
    res = steer_penalty(prob, state, xi=0.5, tau=1.0)
    assert res.rho == 4.0
    assert abs(res.theta - 1.0) < 1e-8
    assert abs(res.phi - 2.0) < 1e-8
    assert res.attempts == 2


def test_steering_accepts_minimal_increase_for_zero_gradient():
    prob = _fixed_instance_problem([2.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.zeros(1), rho=1.0)
    res = steer_penalty(prob, state, xi=0.5, tau=1.0)
    assert res.rho == 2.0
    assert res.attempts == 1


def test_steering_near_feasible_point():
    prob = _fixed_instance_problem([0.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.array([3.0]), rho=2.5)
    res = steer_penalty(prob, state, xi=0.5, tau=0.5)
    assert res.rho == 3.0
    assert res.theta <= 1e-8
    assert res.attempts == 1
    assert np.isfinite(res.phi)


def test_steering_validation():
    prob = _fixed_instance_problem([1.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.zeros(1), rho=1.0)
    with pytest.raises(ConfigError):
        steer_penalty(prob, state, xi=1.5, tau=1.0)
    with pytest.raises(ConfigError):
        steer_penalty(prob, state, xi=0.5, tau=0.0)


def test_steering_doubling_cap(monkeypatch):
    # force the acceptance condition to fail forever to exercise the cap
    import spen.penalty as penalty_mod

    class _Fail:
        measure = -1.0

    monkeypatch.setattr(penalty_mod, "phi", lambda *a, **k: _Fail())
    prob = _fixed_instance_problem([2.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.array([-2.0]), rho=1.0)
    with pytest.raises(SteeringError):
        steer_penalty(prob, state, xi=0.5, tau=1.0)


def test_steering_stops_at_once_on_nan_measure(monkeypatch):
    import spen.penalty as penalty_mod

    class _Nan:
        measure = math.nan

    phi_calls = []
    real_phi = penalty_mod.phi
    monkeypatch.setattr(penalty_mod, "phi", lambda *a, **k: phi_calls.append(1) or _Nan())
    prob = _fixed_instance_problem([2.0], [1.0])
    state = PenaltyState(k=0, x=np.zeros(1), G=np.array([-2.0]), rho=1.0)
    with pytest.raises(SubsolverError, match="phi"):
        steer_penalty(prob, state, xi=0.5, tau=1.0)
    assert len(phi_calls) == 1
    monkeypatch.setattr(penalty_mod, "phi", real_phi)
    monkeypatch.setattr(penalty_mod, "theta", lambda *a, **k: _Nan())
    with pytest.raises(SubsolverError, match="theta"):
        steer_penalty(prob, state, xi=0.5, tau=1.0)


def test_per_level_budget_first_order():
    b = subproblem_budget_for_rho(1.0, 1.0, ALL_ONES, "sfo")
    assert (b.n_bar, b.m) == (6656, 41)
    assert b.gamma == 0.5
    # identity: smoothness L_g + rho*L_J, gap kappa_f + rho*kappa_c - f_low,
    # inner accuracy epsilon/4
    hand = sfo_budget(0.25, 1.0, 2.0, 1.0)
    assert (hand.n_bar, hand.m, hand.gamma) == (b.n_bar, b.m, b.gamma)


def test_per_level_budget_zeroth_order():
    b = subproblem_budget_for_rho(1.0, 1.0, ALL_ONES, "szo", n=1)
    assert (b.n_bar, b.m) == (3940928, 993)
    hand = szo_budget(0.25, 1.0, 2.0, 1.0, 1, 1.0, 1.0)
    assert (hand.n_bar, hand.m) == (b.n_bar, b.m)
    assert abs(b.mu - math.sqrt(1.0 / b.n_bar)) < 1e-15


def test_per_level_budget_grows_with_rho():
    b1 = subproblem_budget_for_rho(1.0, 0.5, ALL_ONES, "sfo")
    b2 = subproblem_budget_for_rho(3.0, 0.5, ALL_ONES, "sfo")
    assert b2.n_bar > b1.n_bar
    assert b2.gamma < b1.gamma


def test_per_level_budget_requires_constants():
    partial = ProblemConstants(L_g=1.0)
    with pytest.raises(ConfigError):
        subproblem_budget_for_rho(1.0, 0.5, partial, "sfo")
    no_kg = ProblemConstants(L_g=1.0, L_J=1.0, sigma=1.0, f_low=0.0,
                             kappa_c=1.0, kappa_f=1.0)
    with pytest.raises(ConfigError):
        subproblem_budget_for_rho(1.0, 0.5, no_kg, "szo", n=2)
    with pytest.raises(ConfigError):
        subproblem_budget_for_rho(1.0, 0.5, ALL_ONES, "exact")


def test_outer_bound_frozen_values():
    ob = outer_iteration_bound(1.0, 0.5, 1.0, 1.0, kappa_g=1.0, L_g=1.0,
                               L_J=1.0, kappa_J=1.0)
    assert ob.n_hat == 818
    assert abs(ob.rho_bar - 817.2191665199114) < 1e-9


def test_outer_bound_scales_and_saturates():
    base = outer_iteration_bound(1.0, 0.5, 1.0, 1.0, kappa_g=1.0, L_g=1.0,
                                 L_J=1.0, kappa_J=1.0)
    small = outer_iteration_bound(0.25, 0.5, 1.0, 1.0, kappa_g=1.0, L_g=1.0,
                                  L_J=1.0, kappa_J=1.0)
    # rho_bar = c_tilde/sqrt(epsilon) grows as epsilon shrinks
    assert small.rho_bar > base.rho_bar
    assert small.n_hat > base.n_hat
    started_high = outer_iteration_bound(1.0, 0.5, 1.0, 818.0, kappa_g=1.0,
                                         L_g=1.0, L_J=1.0, kappa_J=1.0)
    assert started_high.n_hat == 1


def test_run_penalty_record_invariants():
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.4, max_outer=4, tau=1.0)
    result = run_penalty(problem, config, RandomStream(21), replication=3)
    assert 1 <= len(result.records) <= 3
    prev_rho, prev_calls = config.rho0, 0
    for i, rec in enumerate(result.records):
        assert rec.replication == 3
        assert rec.outer_iter == i + 1
        assert rec.rho >= prev_rho + config.tau - 1e-12
        assert rec.phi >= rec.rho * config.xi * rec.theta - 10.0 * DEFAULT_MEASURE_TOL
        assert rec.oracle_calls > prev_calls
        assert rec.crit_sq is not None and rec.crit_sq >= 0.0
        prev_rho, prev_calls = rec.rho, rec.oracle_calls
    assert result.state.oracle_calls == result.records[-1].oracle_calls
    assert result.bound is not None
    assert result.certificate.replications == 1


def test_run_penalty_stops_early_once_rho_crosses_rho_bar():
    # P2's maps with constants whose threshold rho_bar (~29.89) the third
    # round's level crosses: rho = 11, 21, 31 from rho0 = 1 and tau = 10
    p2 = build_problem(TestProblemSpec("P2", sigma=0.0))
    constants = ProblemConstants(L_g=1.0, L_J=1.0, sigma=0.0, f_low=0.0, kappa_g=0.1,
                                 kappa_c=0.0, kappa_f=0.01, kappa_J=0.01)
    problem = ConstrainedProblem(
        n=p2.n, q=p2.q, constraints=p2.constraints, oracle=p2.oracle,
        constants=constants, true_objective=p2.true_objective, x_init=p2.x_init,
    )
    config = PenaltyConfig(epsilon=0.9, xi=0.9, tau=10.0, max_outer=6)
    stopped = run_penalty(problem, config, RandomStream(0))
    assert 21.0 < stopped.bound.rho_bar < 31.0
    assert [rec.rho for rec in stopped.records] == [11.0, 21.0, 31.0]
    assert stopped.crossed_rho_bar
    no_stop = PenaltyConfig(epsilon=0.9, xi=0.9, tau=10.0, max_outer=6, early_stop=False)
    full = run_penalty(problem, no_stop, RandomStream(0))
    assert len(full.records) == 5 and full.crossed_rho_bar
    assert full.records[:3] == stopped.records


def test_run_penalty_deterministic():
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.4, max_outer=3)
    a = run_penalty(problem, config, RandomStream(5))
    b = run_penalty(problem, config, RandomStream(5))
    assert a.records == b.records
    assert np.array_equal(a.state.x, b.state.x)
    assert a.certificate.crit_sq.mean == b.certificate.crit_sq.mean


def test_run_penalty_converges_on_p2():
    problem = build_problem(TestProblemSpec("P2", sigma=0.05))
    config = PenaltyConfig(epsilon=0.2, max_outer=5)
    result = run_penalty(problem, config, RandomStream(0))
    x_star = problem.known_solution.x_star
    assert np.linalg.norm(result.state.x - x_star) < 0.1
    assert result.certificate.crit_sq.mean <= 0.2
    assert result.certificate.theta.mean <= math.sqrt(0.2)
    assert result.certificate.verdict


def _two_constraint_problem():
    """min 0.5*||x - 1||^2 s.t. x1 + x2 + x3 = 1, x1 = x2, from x = (2, 0, -1);
    the solution is (1/3, 1/3, 1/3).  The same problem as the benchmark's Q2."""
    jac = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    ones = np.ones(3)

    def value(x):
        diff = np.asarray(x, dtype=float) - ones
        return 0.5 * np.sum(diff * diff, axis=-1)

    def grad(x):
        return np.asarray(x, dtype=float) - ones

    def constraints(x):
        return np.array([x[0] + x[1] + x[2] - 1.0, x[0] - x[1]]), jac

    return ConstrainedProblem(
        n=3,
        q=2,
        constraints=constraints,
        oracle=GaussianOracle(value=value, grad=grad, sigma=0.1),
        constants=ProblemConstants(
            L_g=1.0, L_J=0.05, sigma=0.1, f_low=0.0, kappa_g=math.sqrt(27.0),
            kappa_c=6.0, kappa_f=13.5, kappa_J=float(np.linalg.norm(jac, 2)),
        ),
        true_objective=lambda x: (float(value(x)), grad(x)),
        x_init=np.array([2.0, 0.0, -1.0]),
        name="Q2",
    )


def test_run_penalty_two_constraints_near_feasible_steering():
    # at this seed steering evaluates phi at a point where c is ~1e-16 and
    # g is ~1e-6 off the row space of J; an iterative phi stalled there
    config = PenaltyConfig(epsilon=0.4, max_outer=5)
    result = run_penalty(_two_constraint_problem(), config, RandomStream(607006))
    assert result.certificate.verdict
    assert np.linalg.norm(result.state.x - 1.0 / 3.0) <= math.sqrt(2.0 * 0.4)


def test_run_penalty_factorizes_each_jacobian_once(monkeypatch):
    # J is constant on this problem: one eigh per distinct step size gamma,
    # one SVD for every theta and phi of the run
    counts = {"eigh": 0, "svd": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    subsolvers._memo.clear()
    problem = _two_constraint_problem()
    config = PenaltyConfig(epsilon=0.4, max_outer=5)
    result = run_penalty(problem, config, RandomStream(11))
    gammas = {subproblem_budget_for_rho(rec.rho, config.epsilon, problem.constants, "sfo",
                                        n=problem.n).gamma for rec in result.records}
    assert len(result.records) == 4 and result.state.oracle_calls > 1000
    assert counts == {"eigh": len(gammas), "svd": 1}


def test_run_penalty_refuses_szo_draws_beyond_physical_memory():
    # ROSEN-EQ's first zeroth-order round at eps = 0.1 has m ~ 2.8e10 value
    # pairs: its batches in flight would take terabytes.  The round raises
    # before it draws anything, rather than running out of memory
    problem = build_problem(TestProblemSpec("ROSEN-EQ", sigma=0.1))
    config = PenaltyConfig(epsilon=0.1, oracle_mode="szo")
    m = subproblem_budget_for_rho(2.0, 0.1, problem.constants, "szo", n=problem.n).m
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        run_penalty(problem, config, RandomStream(0))
    assert time.perf_counter() - start < 1.0
    message = str(err.value)
    assert m > 2e10
    for part in ("outer round 1", "rho=2", f"m={m}", "n=2", f"{3 * 8 * m * 3} bytes"):
        assert part in message


def test_run_penalty_without_exact_objective_uses_surrogate():
    base = build_problem(TestProblemSpec("P2", sigma=0.1))
    blind = ConstrainedProblem(
        n=base.n, q=base.q, constraints=base.constraints, oracle=base.oracle,
        constants=base.constants, true_objective=None, x_init=base.x_init,
    )
    config = PenaltyConfig(epsilon=0.4, max_outer=3)
    result = run_penalty(blind, config, RandomStream(2))
    assert all(rec.crit_sq is None for rec in result.records)
    assert result.certificate.crit_sq.mean >= 0.0


def test_certificate_verdict_logic():
    good = certificate_from_estimates(
        0.25, mean_estimate([0.1, 0.12, 0.08]), mean_estimate([0.3, 0.31, 0.29]),
        np.zeros(1), 3)
    assert good.verdict
    bad_crit = certificate_from_estimates(
        0.25, mean_estimate([0.3, 0.31, 0.29]), mean_estimate([0.1, 0.1, 0.1]),
        np.zeros(1), 3)
    assert not bad_crit.verdict
    bad_theta = certificate_from_estimates(
        0.25, mean_estimate([0.01, 0.01, 0.01]), mean_estimate([0.6, 0.61, 0.59]),
        np.zeros(1), 3)
    assert not bad_theta.verdict
