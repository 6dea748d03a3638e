"""Tests for the first-order budget formulas and inner solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from counting_oracle import CountingGaussianOracle
from prox_reference import prox_q1
from spen import (
    ConfigError,
    ConstrainedProblem,
    DomainError,
    GaussianOracle,
    PenaltyConfig,
    ProblemConstants,
    RandomStream,
    SolverBudget,
    TestProblemSpec,
    build_problem,
    batch_gradient,
    prox_step,
    run_penalty,
    sample_stop_index,
    sfo_budget,
    sfo_stationarity_bound,
    solve_nsco_sfo,
    solve_nsco_szo,
    stopping_pmf,
)
from spen import sfo
from spen.problems import eval_constraints


def _free_problem(n=2, sigma=0.0, L=1.0):
    """Unconstrained quadratic 0.5*L*||x||^2 cast with a vacuous constraint."""
    return ConstrainedProblem(
        n=n,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, n))),
        oracle=GaussianOracle(
            value=lambda x: 0.5 * L * float((np.asarray(x) ** 2).sum(axis=-1)),
            grad=lambda x: L * np.asarray(x, dtype=float),
            sigma=sigma,
        ),
        constants=ProblemConstants(L_g=L, sigma=sigma),
        true_objective=lambda x: (0.5 * L * float(x @ x), L * x),
    )


def _line_problem(sigma):
    """min 0.5*||x||^2 subject to x1 + x2 = 1, with value and gradient oracles."""
    return ConstrainedProblem(
        n=2,
        q=1,
        constraints=lambda x: (np.array([x[0] + x[1] - 1.0]), np.array([[1.0, 1.0]])),
        oracle=GaussianOracle(
            value=lambda x: 0.5 * (np.asarray(x) ** 2).sum(axis=-1),
            grad=lambda x: np.asarray(x, dtype=float),
            sigma=sigma,
        ),
    )


def test_budget_validation():
    with pytest.raises(ConfigError):
        SolverBudget(n_bar=0, m=1, gamma=1.0, L=1.0)
    with pytest.raises(ConfigError):
        SolverBudget(n_bar=10, m=0, gamma=1.0, L=1.0)
    with pytest.raises(ConfigError):
        SolverBudget(n_bar=10, m=1, gamma=0.0, L=1.0)
    with pytest.raises(ConfigError):
        SolverBudget(n_bar=10, m=1, gamma=1.0, L=-1.0)
    with pytest.raises(ConfigError):
        SolverBudget(n_bar=10, m=1, gamma=1.0, L=1.0, mu=0.0)


def test_budget_iterations():
    assert SolverBudget(n_bar=228, m=16, gamma=1.0, L=1.0).iterations == 15
    assert SolverBudget(n_bar=32, m=1, gamma=1.0, L=1.0).iterations == 32
    assert SolverBudget(n_bar=7, m=3, gamma=1.0, L=1.0).iterations == 3


def test_stopping_pmf_uniform_for_constant_step():
    pmf = stopping_pmf(np.full(12, 0.5), 2.0)
    assert np.allclose(pmf, np.full(12, 1.0 / 12.0), atol=1e-15)


def test_stopping_pmf_weights():
    # masses gamma - L*gamma^2/2: (0.5, 0.375) normalize to (4/7, 3/7)
    pmf = stopping_pmf(np.array([1.0, 0.5]), 1.0)
    assert np.allclose(pmf, [4.0 / 7.0, 3.0 / 7.0], atol=1e-15)


def test_stopping_pmf_rejects_bad_steps():
    with pytest.raises(ConfigError):
        stopping_pmf(np.array([]), 1.0)
    with pytest.raises(ConfigError):
        stopping_pmf(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ConfigError):
        stopping_pmf(np.array([2.5]), 1.0)
    with pytest.raises(ConfigError):
        stopping_pmf(np.array([2.0]), 1.0)


def test_sample_stop_index_deterministic_and_in_range():
    pmf = stopping_pmf(np.full(9, 1.0), 1.0)
    stream = RandomStream(3, (1,))
    r1 = sample_stop_index(pmf, stream)
    r2 = sample_stop_index(pmf, stream)
    assert r1 == r2
    assert 1 <= r1 <= 9
    assert sample_stop_index(np.array([1.0, 0.0, 0.0]), RandomStream(0)) == 1


def test_sample_stop_index_frequencies():
    # chi-square goodness of fit against the uniform stopping law
    pmf = stopping_pmf(np.full(8, 1.0), 1.0)
    root = RandomStream(11)
    draws = np.array([sample_stop_index(pmf, root.child(i)) for i in range(10000)])
    counts = np.bincount(draws, minlength=9)[1:]
    _, p = sps.chisquare(counts)
    assert p > 0.001


def test_sfo_budget_frozen_values():
    b = sfo_budget(1.0, 1.0, 1.0, 1.0)
    assert (b.n_bar, b.m) == (228, 16)
    assert b.gamma == 1.0
    noiseless = sfo_budget(1.0, 1.0, 1.0, 0.0)
    assert (noiseless.n_bar, noiseless.m) == (32, 1)


def test_sfo_budget_monotone():
    base = sfo_budget(0.5, 1.0, 1.0, 1.0).n_bar
    assert sfo_budget(0.25, 1.0, 1.0, 1.0).n_bar > base
    assert sfo_budget(0.5, 1.0, 1.0, 2.0).n_bar > base
    assert sfo_budget(0.5, 2.0, 1.0, 1.0).n_bar > base


def test_sfo_budget_validation():
    with pytest.raises(ConfigError):
        sfo_budget(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        sfo_budget(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        sfo_budget(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        sfo_budget(1.0, 1.0, 1.0, -1.0)
    with pytest.raises(ConfigError):
        sfo_budget(1.0, 1.0, 1.0, 1.0, d_tilde=0.0)


def test_sfo_stationarity_bound_value():
    b = SolverBudget(n_bar=228, m=16, gamma=1.0, L=1.0)
    # (d + sigma^2*N*gamma/m) / (N*(gamma - L*gamma^2/2)) with N = 15
    expect = (1.0 + 15.0 / 16.0) / (15.0 * 0.5)
    assert abs(sfo_stationarity_bound(b, 1.0, 1.0) - expect) < 1e-15
    assert sfo_stationarity_bound(b, 1.0, 0.0) < sfo_stationarity_bound(b, 1.0, 1.0)


def test_batch_gradient_exact_and_deterministic():
    prob = _free_problem(sigma=0.0)
    g = batch_gradient(prob, np.array([1.0, -2.0]), 5, RandomStream(0))
    assert np.allclose(g, [1.0, -2.0], atol=1e-15)
    noisy = _free_problem(sigma=0.5)
    a = batch_gradient(noisy, np.ones(2), 8, RandomStream(1, (2,)))
    b = batch_gradient(noisy, np.ones(2), 8, RandomStream(1, (2,)))
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        batch_gradient(prob, np.ones(2), 0, RandomStream(0))


@pytest.mark.parametrize("spec", [TestProblemSpec("P1", n=1, sigma=0.1),
                                  TestProblemSpec("P2", sigma=0.1),
                                  TestProblemSpec("P3", sigma=0.1)],
                         ids=["P1-n1", "P2", "P3"])
def test_batch_gradient_is_iteration_one_of_the_solver(spec):
    # the public estimator draws as the solver's first iteration does, so it
    # is the G_R of a run stopped at R = 1, bit for bit
    prob = build_problem(spec)
    budget = SolverBudget(n_bar=200, m=20, gamma=0.5, L=2.0)
    for seed in range(3):
        stream = RandomStream(seed, (5,))
        got = batch_gradient(prob, prob.x_init, budget.m, stream)
        res = solve_nsco_sfo(prob, 1.0, prob.x_init, budget, stream, stop_index=1)
        assert got.tobytes() == res.G_R.tobytes()


def test_solver_deterministic_given_stream():
    prob = _free_problem(sigma=0.4)
    budget = sfo_budget(0.5, 2.0, 1.0, 0.4)
    r1 = solve_nsco_sfo(prob, 1.0, np.array([2.0, -1.0]), budget, RandomStream(5))
    r2 = solve_nsco_sfo(prob, 1.0, np.array([2.0, -1.0]), budget, RandomStream(5))
    assert r1.R == r2.R
    assert np.array_equal(r1.x_R, r2.x_R)
    assert np.array_equal(r1.G_R, r2.G_R)


def test_solver_call_accounting():
    prob = _free_problem(sigma=0.3)
    budget = sfo_budget(0.5, 1.0, 1.0, 0.3)
    counter = CountingGaussianOracle(prob.oracle)
    counted = replace(prob, oracle=counter)
    res = solve_nsco_sfo(counted, 1.0, np.zeros(2), budget, RandomStream(7))
    assert res.oracle_calls == budget.m * res.R
    assert counter.calls == res.oracle_calls


def test_solver_stop_index_override():
    prob = _free_problem(sigma=0.0)
    budget = SolverBudget(n_bar=50, m=1, gamma=1.0, L=1.0)
    res = solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=13)
    assert res.R == 13
    assert res.oracle_calls == 13
    with pytest.raises(ConfigError):
        solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=51)
    with pytest.raises(ConfigError):
        solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=0)


def test_solver_matches_manual_prox_gradient_loop():
    # sigma = 0, m = 1 reduces to the deterministic prox-gradient recursion
    prob = _free_problem(sigma=0.0, L=2.0)
    budget = SolverBudget(n_bar=40, m=1, gamma=0.5, L=2.0)
    res = solve_nsco_sfo(prob, 1.5, np.array([2.0, -1.0]), budget, RandomStream(3),
                         stop_index=9)
    x = np.array([2.0, -1.0])
    for _ in range(1, 9):
        g = 2.0 * x
        c, jac = eval_constraints(prob, x)
        x = prox_step(x, g, c, jac, 1.5, 0.5).x_plus
    assert np.array_equal(res.x_R, x)
    assert np.array_equal(res.G_R, 2.0 * x)


def test_solver_stop_index_distribution():
    # every index of the uniform stopping law is reachable
    prob = _free_problem(sigma=0.1)
    budget = SolverBudget(n_bar=6, m=1, gamma=1.0, L=1.0)
    seen = set()
    for rep in range(200):
        res = solve_nsco_sfo(prob, 1.0, np.zeros(2), budget, RandomStream(100).child(rep))
        seen.add(res.R)
    assert seen == {1, 2, 3, 4, 5, 6}


def test_solver_converges_noiseless():
    prob = _free_problem(sigma=0.0, L=2.0)
    budget = SolverBudget(n_bar=60, m=1, gamma=0.5, L=2.0)
    res = solve_nsco_sfo(prob, 1.0, np.array([2.0, 2.0]), budget, RandomStream(0),
                         stop_index=60)
    assert np.linalg.norm(res.x_R) < 1e-6


def test_solver_matches_manual_batch_loop():
    # draw layout: R is one uniform integer from stream.child(0); every batch
    # of the run comes, in order, from one generator on stream.child(1)
    prob = _line_problem(sigma=0.3)
    budget = SolverBudget(n_bar=60, m=5, gamma=0.8, L=1.0)
    stream = RandomStream(12)
    x0 = np.array([1.0, -1.0])
    res = solve_nsco_sfo(prob, 1.5, x0, budget, stream)
    assert res.R == int(stream.child(0).generator().integers(1, budget.iterations + 1))
    assert res.R > 2
    rng = stream.child(1).generator()
    x = x0
    for _ in range(1, res.R):
        g = prob.oracle.gradient_batch(x, 5, rng).mean(axis=0)
        c, jac = eval_constraints(prob, x)
        x = prox_step(x, g, c, jac, 1.5, 0.8).x_plus
    assert np.array_equal(res.x_R, x)
    assert np.array_equal(res.G_R, prob.oracle.gradient_batch(x, 5, rng).mean(axis=0))


def test_stop_index_reproduces_random_run():
    prob = _line_problem(sigma=0.3)
    budget = SolverBudget(n_bar=80, m=4, gamma=1.0, L=1.0, mu=0.05)
    x0 = np.array([2.0, 0.0])
    for solver in (solve_nsco_sfo, solve_nsco_szo):
        for rep in range(5):
            stream = RandomStream(21).child(rep)
            free = solver(prob, 1.0, x0, budget, stream)
            fixed = solver(prob, 1.0, x0, budget, stream, stop_index=free.R)
            assert fixed.R == free.R
            assert np.array_equal(fixed.x_R, free.x_R)
            assert np.array_equal(fixed.G_R, free.G_R)


def test_solver_rejects_non_finite_batch():
    calls = []

    def grad(x):
        calls.append(1)
        return np.full(2, np.nan) if len(calls) > 3 else np.asarray(x, dtype=float)

    prob = ConstrainedProblem(
        n=2,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, 2))),
        oracle=GaussianOracle(grad=grad, sigma=0.1),
    )
    budget = SolverBudget(n_bar=50, m=2, gamma=1.0, L=1.0)
    with pytest.raises(DomainError, match="iteration 4"):
        solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=10)


def test_solver_rejects_a_gradient_of_the_wrong_shape():
    # not numpy's bare "shapes not aligned" ValueError from the prox step
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    prob = replace(prob, oracle=GaussianOracle(grad=lambda x: np.zeros(3), sigma=0.1))
    expected = r"at inner iteration 1 has shape \(3,\), expected \(2,\)"
    budget = SolverBudget(n_bar=50, m=5, gamma=1.0, L=1.0)
    with pytest.raises(DomainError, match=expected):
        solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=3)
    with pytest.raises(DomainError, match=expected):
        run_penalty(prob, PenaltyConfig(epsilon=0.9, max_outer=2), RandomStream(7))


def _reference_solve(problem, rho, x0, budget, stream, stop_index):
    # the inner loop written with numpy's plain expressions: sum / m,
    # np.isfinite, a writable copy of the Jacobian every call and the
    # one-row prox formula in full
    rng = stream.child(1).generator()
    x = np.asarray(x0, dtype=float).copy()
    for k in range(1, stop_index + 1):
        g = problem.oracle.gradient_batch(x, budget.m, rng).sum(axis=0) / budget.m
        assert np.isfinite(g).all()
        if k == stop_index:
            return x, g
        c, jac = problem.constraints(x)
        c, jac = np.asarray(c, dtype=float).reshape(-1), np.array(jac, dtype=float)
        x = prox_q1(x, g, c, jac, rho, budget.gamma)[0]


@pytest.mark.parametrize("family, rho", [("P1", 1.0), ("P2", 2.0), ("P3", 3.0)])
def test_solver_matches_the_plain_reference_loop_bit_for_bit(family, rho):
    # P1's zero Jacobian takes the a == 0 prox branch, P2's constant one is
    # shared, and P3's depends on x
    prob = build_problem(TestProblemSpec(family, sigma=0.1))
    L = prob.constants.L_g
    budget = SolverBudget(n_bar=400 * 7, m=7, gamma=1.0 / L, L=L)
    stream = RandomStream(5)
    res = solve_nsco_sfo(prob, rho, prob.x_init, budget, stream, stop_index=300)
    x, g = _reference_solve(prob, rho, prob.x_init, budget, stream, 300)
    assert res.x_R.tobytes() == x.tobytes()
    assert res.G_R.tobytes() == g.tobytes()


def test_solver_takes_integer_gradient_samples():
    # the batch mean divides into a new float array, as sum(axis=0) / m did
    class IntegerSamples:
        def gradient_batch(self, x, m, rng):
            return np.ones((m, 2), dtype=int)

    prob = replace(_free_problem(), oracle=IntegerSamples())
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0)
    res = solve_nsco_sfo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=3)
    assert res.G_R.dtype == np.float64 and np.array_equal(res.G_R, [1.0, 1.0])
    assert np.array_equal(res.x_R, [0.0, 0.0])


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_solve_rows_match_solve_nsco_sfo_row_by_row(rows):
    # lockstep rounds on P3 (x-dependent Jacobian) with their own rho, step,
    # batch size and stream; one or two rows finish in the scalar loop. With
    # the failing oracle, the round whose oracle raises comes back as the
    # error solve_nsco_sfo raises and leaves the others intact. With the
    # refusing constraint, its value comes back with shape (1, 1) once x[0]
    # drops below -0.6, which the stacked checks refuse and eval_constraints
    # takes: while the stack runs only the last row gets there, and every row
    # still has the bits of its own run
    class Failing(GaussianOracle):
        def gradient_batch(self, x, m, rng):
            if rng.bit_generator.seed_seq.spawn_key[0] == 1 and not np.array_equal(x, x0):
                raise DomainError("synthetic failure")
            return super().gradient_batch(x, m, rng)

    def refusing(x):
        c, jac = base.constraints(x)
        refused.append(x[0] < -0.6)
        return (c.reshape(1, 1) if refused[-1] else c), jac

    base, refused = build_problem(TestProblemSpec("P3", sigma=0.1)), []
    x0 = base.x_init
    rounds = [(1.0 + i, x0 + 0.1 * i, SolverBudget(n_bar=300 * (i + 2), m=i % 3 + 1,
                                                    gamma=0.02 + 0.005 * i, L=20.0),
               RandomStream(5, (i,))) for i in range(rows)]
    failing = replace(base, oracle=Failing(base.oracle.value, base.oracle.grad, sigma=0.1))
    for prob in (failing, replace(base, constraints=refusing)):
        got = sfo._solve_rows(prob, rounds)
        for i, (rho, x_init, budget, stream) in enumerate(rounds):
            if i == 1 and prob is failing:
                with pytest.raises(DomainError, match="synthetic") as want:
                    solve_nsco_sfo(prob, rho, x_init, budget, stream)
                assert type(got[i]) is DomainError and str(got[i]) == str(want.value)
                continue
            want = solve_nsco_sfo(prob, rho, x_init, budget, stream)
            assert (got[i].R, got[i].oracle_calls) == (want.R, want.oracle_calls)
            assert got[i].x_R.tobytes() == want.x_R.tobytes()
            assert got[i].G_R.tobytes() == want.G_R.tobytes()
    assert any(refused)


def test_solve_rows_keep_the_bits_of_float32_batches():
    # round 0's oracle answers in float32: its batches are summed in float32,
    # as solve_nsco_sfo sums them, not stacked with the others' in float64
    class Float32ForRound0(GaussianOracle):
        def gradient_batch(self, x, m, rng):
            batch = super().gradient_batch(x, m, rng)
            round_0 = rng.bit_generator.seed_seq.spawn_key[0] == 0
            return batch.astype(np.float32) if round_0 else batch

    base = build_problem(TestProblemSpec("P2", sigma=0.1))
    prob = replace(base, oracle=Float32ForRound0(base.oracle.value, base.oracle.grad, sigma=0.1))
    rounds = [(2.0, base.x_init + 0.1 * i, SolverBudget(n_bar=4000, m=20, gamma=0.05, L=20.0),
               RandomStream(3, (i,))) for i in range(6)]
    got = sfo._solve_rows(prob, rounds)
    for i, (rho, x_init, budget, stream) in enumerate(rounds):
        want = solve_nsco_sfo(prob, rho, x_init, budget, stream)
        assert (got[i].R, got[i].oracle_calls) == (want.R, want.oracle_calls)
        assert got[i].x_R.tobytes() == want.x_R.tobytes()
        assert got[i].G_R.dtype == want.G_R.dtype
        assert got[i].G_R.tobytes() == want.G_R.tobytes()
