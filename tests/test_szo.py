"""Tests for Gaussian-smoothing estimators and the zeroth-order solver."""

import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from counting_oracle import CountingGaussianOracle
from spen import (
    ConfigError,
    ConstrainedProblem,
    DomainError,
    GaussianOracle,
    ProblemConstants,
    RandomStream,
    SolverBudget,
    prox_step,
    sigma_tilde_sq,
    smoothed_reference,
    solve_nsco_szo,
    szo_budget,
    szo_gradient_batch,
)
from spen import szo
from spen.problems import eval_constraints


def _linear_problem(a, sigma=0.0):
    a = np.asarray(a, dtype=float)
    value = lambda x: np.asarray(x, dtype=float) @ a
    return ConstrainedProblem(
        n=a.size,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, a.size))),
        oracle=GaussianOracle(value=value, sigma=sigma),
        constants=ProblemConstants(L_g=1.0, sigma=sigma),
    )


def _quad_problem(h_diag, sigma=0.0):
    h = np.asarray(h_diag, dtype=float)
    value = lambda x: 0.5 * ((np.asarray(x) ** 2) * h).sum(axis=-1)
    return ConstrainedProblem(
        n=h.size,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, h.size))),
        oracle=GaussianOracle(value=value, sigma=sigma),
        constants=ProblemConstants(L_g=float(h.max()), sigma=sigma),
        true_objective=lambda x: (0.5 * float((x**2) @ h), h * x),
    )


def test_two_point_sample_linear_exact():
    # an m=1 batch is one two-point draw: for linear f it is <a, v>*v and
    # the shared noise cancels exactly
    a = np.array([1.0, -2.0, 0.5])
    prob = _linear_problem(a, sigma=1.5)
    stream = RandomStream(4, (2,))
    got = szo_gradient_batch(prob, np.zeros(3), 0.1, 1, stream)
    v = stream.generator().standard_normal(3)
    assert np.allclose(got, (a @ v) * v, atol=1e-10)


def test_two_point_sample_deterministic():
    prob = _linear_problem([2.0, 1.0], sigma=0.7)
    a = szo_gradient_batch(prob, np.ones(2), 0.05, 1, RandomStream(1))
    b = szo_gradient_batch(prob, np.ones(2), 0.05, 1, RandomStream(1))
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        szo_gradient_batch(prob, np.ones(2), 0.0, 1, RandomStream(1))


def test_two_point_sample_unbiased():
    a = np.array([0.8, -1.2])
    prob = _linear_problem(a, sigma=0.3)
    root = RandomStream(9)
    draws = np.stack([
        szo_gradient_batch(prob, np.zeros(2), 0.01, 1, root.child(i))
        for i in range(20000)
    ])
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - a) <= 4.0 * se)


def test_batch_matches_manual_draws():
    a = np.array([1.0, 2.0])
    prob = _linear_problem(a, sigma=0.0)
    stream = RandomStream(6, (3,))
    got = szo_gradient_batch(prob, np.zeros(2), 0.2, 10, stream)
    rng = stream.generator()
    v = rng.standard_normal((10, 2))
    want = (((v @ a))[:, None] * v).mean(axis=0)
    assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(ConfigError):
        szo_gradient_batch(prob, np.zeros(2), 0.2, 0, stream)


def test_smoothed_reference_quadratic_offset():
    # Gaussian smoothing lifts a quadratic by mu^2*tr(H)/2 exactly
    h = np.array([2.0, 1.0, 3.0])
    value = lambda pts: 0.5 * ((np.asarray(pts) ** 2) * h).sum(axis=-1)
    x = np.array([0.5, -1.0, 0.25])
    mu = 0.3
    ref = smoothed_reference(value, x, mu, 200000, RandomStream(2))
    want = value(x) + mu**2 * h.sum() / 2.0
    assert abs(ref.mean - want) <= 5.0 * ref.stderr
    assert ref.stderr > 0.0
    with pytest.raises(ConfigError):
        smoothed_reference(value, x, mu, 1, RandomStream(2))


def test_sigma_tilde_sq_values():
    assert sigma_tilde_sq(1, 1.0, 0.0, 1.0, 1.0) == 2.0 * 5.0 * (1.0 + 25.0)
    want = 2.0 * 7.0 * (4.0 + 0.25 + 0.01 * 4.0 * 49.0)
    assert abs(sigma_tilde_sq(3, 2.0, 0.5, 0.1, 2.0) - want) < 1e-12


def test_szo_budget_frozen_values():
    b = szo_budget(1.0, 1.0, 1.0, 1.0, 1, 1.0, 0.0)
    assert (b.n_bar, b.m) == (19080, 139)
    assert b.gamma == 1.0
    assert abs(b.mu - 1.0 / math.sqrt(19080.0)) < 1e-15


def test_szo_budget_mu_rule_and_monotonicity():
    b = szo_budget(0.5, 2.0, 1.5, 1.0, 3, 1.0, 0.2, d1_tilde=0.7, d2_tilde=1.3)
    assert abs(b.mu - math.sqrt(0.7 / b.n_bar)) < 1e-15
    assert abs(b.gamma - 1.0 / 1.5) < 1e-15
    assert szo_budget(0.25, 1.0, 1.0, 1.0, 1, 1.0, 0.0).n_bar > 19080
    assert szo_budget(1.0, 1.0, 1.0, 1.0, 4, 1.0, 0.0).n_bar > 19080


def test_szo_budget_validation():
    with pytest.raises(ConfigError):
        szo_budget(0.0, 1.0, 1.0, 1.0, 1, 1.0, 0.0)
    with pytest.raises(ConfigError):
        szo_budget(1.0, 1.0, 0.0, 1.0, 1, 1.0, 0.0)
    with pytest.raises(ConfigError):
        szo_budget(1.0, 1.0, 1.0, 1.0, 0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        szo_budget(1.0, 1.0, 1.0, 1.0, 1, -1.0, 0.0)
    with pytest.raises(ConfigError):
        szo_budget(1.0, 1.0, 1.0, 1.0, 1, 1.0, 0.0, d2_tilde=0.0)


def test_szo_solver_requires_smoothing_radius():
    prob = _quad_problem([1.0, 1.0])
    plain = SolverBudget(n_bar=10, m=2, gamma=1.0, L=1.0)
    with pytest.raises(ConfigError):
        solve_nsco_szo(prob, 1.0, np.zeros(2), plain, RandomStream(0))


def test_szo_solver_deterministic_and_counts():
    prob = _quad_problem([1.0, 2.0], sigma=0.2)
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    counter = CountingGaussianOracle(prob.oracle)
    counted = replace(prob, oracle=counter)
    r1 = solve_nsco_szo(counted, 1.0, np.ones(2), budget, RandomStream(8))
    r2 = solve_nsco_szo(prob, 1.0, np.ones(2), budget, RandomStream(8))
    assert r1.R == r2.R
    assert np.array_equal(r1.x_R, r2.x_R)
    assert r1.oracle_calls == 2 * budget.m * r1.R
    assert counter.calls == r1.oracle_calls


def test_szo_solver_matches_manual_loop():
    # every batch of the run comes, in order, from one generator on
    # stream.child(1): directions first, then the shared value noise
    prob = _quad_problem([1.0, 2.0], sigma=0.1)
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    stream = RandomStream(12)
    res = solve_nsco_szo(prob, 1.5, np.array([1.0, -1.0]), budget, stream, stop_index=7)
    rng = stream.child(1).generator()

    def batch(x):
        v = rng.standard_normal((4, 2))
        f_shift, f_base = prob.oracle.value_pair_batch(x + 0.05 * v, np.tile(x, (4, 1)), rng)
        return (((f_shift - f_base) / 0.05)[:, None] * v).mean(axis=0)

    x = np.array([1.0, -1.0])
    for _ in range(1, 7):
        g = batch(x)
        c, jac = eval_constraints(prob, x)
        x = prox_step(x, g, c, jac, 1.5, 0.5).x_plus
    assert np.array_equal(res.x_R, x)
    assert np.array_equal(res.G_R, batch(x))


def test_szo_batch_evaluates_shared_base_once():
    # f(x) is computed once per batch: m + 1 evaluated rows, while the
    # ledger still counts 2m value calls
    rows = []

    def value(xs):
        rows.append(1 if xs.ndim == 1 else xs.shape[0])
        return 0.5 * (xs**2).sum(axis=-1)

    for sigma in (0.0, 0.3):
        for vectorized in (True, False):
            prob = ConstrainedProblem(
                n=2,
                q=1,
                constraints=lambda x: (np.zeros(1), np.zeros((1, 2))),
                oracle=GaussianOracle(value=value, sigma=sigma, vectorized=vectorized),
                constants=ProblemConstants(L_g=1.0, sigma=sigma),
            )
            rows.clear()
            szo_gradient_batch(prob, np.ones(2), 0.1, 5, RandomStream(3))
            assert sum(rows) == 6
            rows.clear()
            budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
            res = solve_nsco_szo(prob, 1.0, np.ones(2), budget, RandomStream(3), stop_index=3)
            assert sum(rows) == 3 * (4 + 1)
            assert res.oracle_calls == 2 * 4 * 3


def test_szo_batch_matches_row_major_reference():
    # the estimator works on an (n, m) copy of its directions, yet it must
    # give the bits of the row-major formula; value still sees (m, n) batches
    m, mu = 300, 0.05
    shapes = []

    def value(xs):
        shapes.append(xs.shape)
        return 0.5 * (xs**2).sum(axis=-1) - np.cos(xs).sum(axis=-1)

    for n in range(1, 6):
        x = np.linspace(-1.0, 1.5, n)
        for sigma in (0.0, 0.3):
            for vectorized in (True, False):
                prob = ConstrainedProblem(
                    n=n,
                    q=1,
                    constraints=lambda x: (np.zeros(1), np.zeros((1, x.size))),
                    oracle=GaussianOracle(value=value, sigma=sigma, vectorized=vectorized),
                    constants=ProblemConstants(L_g=1.0, sigma=sigma),
                )
                stream = RandomStream(14, (n,))
                shapes.clear()
                got = szo_gradient_batch(prob, x, mu, m, stream)
                # m + 1 evaluated rows: the shared base row once
                assert shapes == ([(m, n), (1, n)] if vectorized else [(n,)] * (m + 1))
                rng = stream.generator()
                v = rng.standard_normal((m, n))
                fa, fb = prob.oracle.value_pair_batch(x + mu * v, x[None], rng)
                assert np.array_equal(got, (((fa - fb) / mu)[:, None] * v).mean(axis=0))


def test_szo_solver_rejects_non_finite_batch():
    calls = []

    def value(xs):
        calls.append(1)
        out = 0.5 * (np.asarray(xs) ** 2).sum(axis=-1)
        return np.full_like(out, np.inf) if len(calls) > 4 else out

    prob = ConstrainedProblem(
        n=2,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, 2))),
        oracle=GaussianOracle(value=value, sigma=0.1),
    )
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    with pytest.raises(DomainError, match="iteration 3"):
        solve_nsco_szo(prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=8)


def test_szo_solver_progress_on_quadratic():
    # large batches keep the smoothed estimator accurate enough to descend
    prob = _quad_problem([1.0, 1.0], sigma=0.0)
    budget = SolverBudget(n_bar=4000, m=100, gamma=1.0, L=1.0, mu=1e-3)
    res = solve_nsco_szo(prob, 1.0, np.array([3.0, -2.0]), budget, RandomStream(5),
                         stop_index=40)
    f0 = 0.5 * float(np.array([3.0, -2.0]) @ np.array([3.0, -2.0]))
    fR = 0.5 * float(res.x_R @ res.x_R)
    assert fR < 0.05 * f0


def _draw_ahead_problem(value, sigma=0.1, oracle_cls=GaussianOracle):
    return ConstrainedProblem(
        n=2,
        q=1,
        constraints=lambda x: (np.zeros(1), np.zeros((1, 2))),
        oracle=oracle_cls(value=value, sigma=sigma),
    )


def _helper_alive():
    return any(t.name == "spen-szo-draws" for t in threading.enumerate())


def _quad_value(xs):
    return 0.5 * (np.asarray(xs) ** 2).sum(axis=-1)


def _raised_by(fn):
    """What ``fn()`` raises, run in a thread of its own: a draw thread left
    blocked makes ``fn`` hang, which then fails the test instead of hanging it."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as err:  # handed to the test, which checks it
            raised.append(err)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30.0)
    assert not runner.is_alive()
    assert len(raised) == 1
    return raised[0]


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_szo_draw_ahead_keeps_the_bits_and_leaves_no_thread(monkeypatch, sigma):
    # the helper thread draws each batch's directions and noise in the loop's
    # own order, so the run has the bits of drawing in the calling thread
    baseline = threading.active_count()
    seen = []

    def value(xs):
        seen.append(_helper_alive())
        return _quad_value(xs)

    prob = _draw_ahead_problem(value, sigma)
    budget = SolverBudget(n_bar=400, m=50, gamma=0.5, L=2.0, mu=0.05)
    runs = {}
    for spare in (True, False):
        monkeypatch.setattr(szo, "_spare_cpu", lambda spare=spare: spare)
        seen.clear()
        runs[spare] = solve_nsco_szo(prob, 1.0, np.ones(2), budget, RandomStream(4), stop_index=6)
        assert any(seen) == spare
        assert threading.active_count() == baseline
    assert np.array_equal(runs[True].x_R, runs[False].x_R)
    assert np.array_equal(runs[True].G_R, runs[False].G_R)


class _ScriptedGenerator:
    """A generator whose ``standard_normal`` first calls ``hook(draw_number)``."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.draws = inner, hook, 0

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)

    def standard_normal(self, size):
        self.draws += 1
        self.hook(self.draws)
        return self.inner.standard_normal(size)


def _script_generators(monkeypatch, hook):
    plain = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: _ScriptedGenerator(plain(self), hook))


@pytest.mark.parametrize("helper", ["blocked on the full queue", "in the middle of a draw"])
def test_szo_draw_ahead_stops_its_thread_on_a_domain_error(monkeypatch, helper):
    monkeypatch.setattr(szo, "_spare_cpu", lambda: True)
    baseline = threading.active_count()
    blocked = helper == "blocked on the full queue"
    # two draws per batch: from the fourth batch on, each draw is slow
    _script_generators(monkeypatch, lambda draw: None if blocked or draw < 7 else time.sleep(0.2))
    calls = []

    def value(xs):
        calls.append(_helper_alive())
        if len(calls) > 4:
            if blocked:
                # let the helper run ahead until it blocks on the full queue
                time.sleep(0.05)
            return np.full(np.shape(xs)[0], np.inf)
        return _quad_value(xs)

    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    err = _raised_by(lambda: solve_nsco_szo(
        _draw_ahead_problem(value), 1.0, np.ones(2), budget, RandomStream(0), stop_index=8))
    assert isinstance(err, DomainError) and "iteration 3" in str(err)
    # the helper had later batches to draw when the run stopped
    assert calls[-1]
    assert threading.active_count() == baseline


def test_szo_draw_ahead_raises_the_thread_error_in_the_caller(monkeypatch):
    monkeypatch.setattr(szo, "_spare_cpu", lambda: True)
    baseline = threading.active_count()
    raised, where = MemoryError("no room for the batch"), []

    def hook(draw):
        # the third normal draw, iteration 2's directions, fails
        if draw == 3:
            where.append(threading.current_thread().name)
            raise raised

    _script_generators(monkeypatch, hook)
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    err = _raised_by(lambda: solve_nsco_szo(
        _draw_ahead_problem(_quad_value), 1.0, np.ones(2), budget, RandomStream(0),
        stop_index=8))
    assert err is raised
    assert where == ["spen-szo-draws"]
    assert threading.active_count() == baseline


class _WiderNoise(GaussianOracle):
    def value_pair_batch(self, xs_a, xs_b, rng):
        rng.standard_normal(xs_a.shape[0] + 1)
        return super().value_pair_batch(xs_a, xs_b, rng)


class _NoNoiseDrawn(GaussianOracle):
    def value_pair_batch(self, xs_a, xs_b, rng):
        return self._value(xs_a), np.repeat(self._value(xs_b), xs_a.shape[0])


@pytest.mark.parametrize("oracle_cls, stop_index, message", [
    (_WiderNoise, 8, "where the run draws"),
    # with one iteration the unused noise shows only when the run ends
    (_NoNoiseDrawn, 1, "short of a batch"),
])
def test_szo_draw_ahead_rejects_a_changed_draw_pattern(monkeypatch, oracle_cls, stop_index,
                                                       message):
    # the draws are made in GaussianOracle's pattern; an oracle that draws
    # otherwise would silently move bits, so the run fails instead, also
    # where the calling thread draws
    baseline = threading.active_count()
    prob = _draw_ahead_problem(_quad_value, oracle_cls=oracle_cls)
    budget = SolverBudget(n_bar=40, m=4, gamma=0.5, L=2.0, mu=0.05)
    for spare in (True, False):
        monkeypatch.setattr(szo, "_spare_cpu", lambda spare=spare: spare)
        err = _raised_by(lambda: solve_nsco_szo(
            prob, 1.0, np.ones(2), budget, RandomStream(0), stop_index=stop_index))
        assert isinstance(err, RuntimeError) and message in str(err)
        assert threading.active_count() == baseline
