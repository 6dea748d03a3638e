"""Tests for random streams, stochastic oracles, and problem containers."""

import dataclasses
import warnings

import numpy as np
import pytest

from spen import (
    ConfigError,
    ConstrainedProblem,
    DomainError,
    GaussianOracle,
    OracleKindError,
    PenaltyConfig,
    ProblemConstants,
    RandomStream,
    TestProblemSpec,
    build_problem,
    eval_constraints,
    run_penalty,
)


def _quad_problem(sigma=0.0, with_true=True):
    """min 0.5*||x||^2 subject to x1 + x2 = 1."""
    value = lambda x: 0.5 * float((np.asarray(x) ** 2).sum(axis=-1))
    grad = lambda x: np.asarray(x, dtype=float)
    cons = lambda x: (np.array([x[0] + x[1] - 1.0]), np.array([[1.0, 1.0]]))
    return ConstrainedProblem(
        n=2,
        q=1,
        constraints=cons,
        oracle=GaussianOracle(value=lambda x: 0.5 * float((np.asarray(x) ** 2).sum(axis=-1))
                              if np.asarray(x).ndim == 1
                              else 0.5 * (np.asarray(x) ** 2).sum(axis=-1),
                              grad=grad, sigma=sigma),
        constants=ProblemConstants(L_g=1.0, sigma=sigma),
        true_objective=(lambda x: (0.5 * float(x @ x), x.copy())) if with_true else None,
    )


def test_stream_repeatable():
    for seed in (0, 1, 17, 2**31):
        a = RandomStream(seed).generator().standard_normal(8)
        b = RandomStream(seed).generator().standard_normal(8)
        assert np.array_equal(a, b)


def test_stream_children_differ():
    root = RandomStream(42)
    draws = [root.child(i).generator().standard_normal(4) for i in range(6)]
    draws.append(root.generator().standard_normal(4))
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_stream_child_path_composition():
    root = RandomStream(7)
    assert root.child(1, 2) == root.child(1).child(2)
    assert root.child(3).path == (3,)
    a = root.child(1, 2).generator().standard_normal(4)
    b = root.child(1).child(2).generator().standard_normal(4)
    assert np.array_equal(a, b)


def test_stream_order_independent():
    # generators are built from scratch, so sibling draws never interact
    root = RandomStream(5)
    first = root.child(2).generator().standard_normal(3)
    root.child(1).generator().standard_normal(1000)
    second = root.child(2).generator().standard_normal(3)
    assert np.array_equal(first, second)


def test_stream_immutable():
    with pytest.raises(Exception):
        RandomStream(0).seed = 1


def test_oracle_noiseless_exact():
    orc = GaussianOracle(value=lambda x: (x * x).sum(axis=-1), grad=lambda x: 2.0 * x, sigma=0.0)
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0])
    assert np.array_equal(orc.gradient_batch(x, 1, rng), np.array([[2.0, -4.0]]))
    fa, fb = orc.value_pair_batch(x[None], np.zeros((1, 2)), rng)
    assert fa[0] == 5.0 and fb[0] == 0.0


def test_oracle_gradient_second_moment():
    # mean squared deviation of one gradient draw equals sigma^2 by design
    sigma = 0.7
    orc = GaussianOracle(grad=lambda x: np.zeros(5), sigma=sigma)
    rng = np.random.default_rng(3)
    draws = orc.gradient_batch(np.zeros(5), 4000, rng)
    msq = float((draws**2).sum(axis=1).mean())
    assert 0.9 * sigma**2 <= msq <= 1.1 * sigma**2


def test_oracle_batch_mean_variance_scaling():
    sigma, m = 0.8, 16
    orc = GaussianOracle(grad=lambda x: np.zeros(4), sigma=sigma)
    rng = np.random.default_rng(11)
    errs = []
    for _ in range(1500):
        bm = orc.gradient_batch(np.zeros(4), m, rng).mean(axis=0)
        errs.append(float(bm @ bm))
    msq = float(np.mean(errs))
    assert 0.85 * sigma**2 / m <= msq <= 1.15 * sigma**2 / m


def test_oracle_value_noise_level():
    sigma = 0.5
    orc = GaussianOracle(value=lambda xs: np.zeros(len(xs)), sigma=sigma)
    rng = np.random.default_rng(9)
    vals, _ = orc.value_pair_batch(np.zeros((4000, 2)), np.zeros((4000, 2)), rng)
    assert abs(vals.mean()) < 5.0 * sigma / np.sqrt(4000)
    assert 0.9 * sigma**2 <= vals.var() <= 1.1 * sigma**2


def test_value_pair_shares_noise():
    # paired draws share one noise realization, so differences are exact
    orc = GaussianOracle(value=lambda xs: xs[:, 0], sigma=2.0)
    rng = np.random.default_rng(1)
    xa, xb = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    fa, fb = orc.value_pair_batch(xa, xb, rng)
    assert np.allclose(fa - fb, xa[:, 0] - xb[:, 0], rtol=0.0, atol=1e-12)


def test_value_pair_batch_matches_loop():
    value = lambda x: (np.asarray(x) ** 3).sum(axis=-1)
    vec = GaussianOracle(value=value, sigma=0.4)
    rng = np.random.default_rng(2)
    xa = rng.standard_normal((6, 3))
    xb = rng.standard_normal((6, 3))
    fa1, fb1 = vec.value_pair_batch(xa, xb, np.random.default_rng(77))
    # the loop reference: one point at a time, plus the batch's shared noise
    e = 0.4 * np.random.default_rng(77).standard_normal(6)
    fa2 = np.array([float(value(row)) for row in xa]) + e
    fb2 = np.array([float(value(row)) for row in xb]) + e
    assert np.allclose(fa1, fa2, atol=1e-12)
    assert np.allclose(fb1, fb2, atol=1e-12)
    # row-wise noise cancels in the difference
    exact = value(xa) - value(xb)
    assert np.allclose(fa1 - fb1, exact, atol=1e-12)
    # one second row shared by every pair: same draws, outputs still (m,)
    for sigma in (0.4, 0.0):
        orc = GaussianOracle(value=value, sigma=sigma)
        fa3, fb3 = orc.value_pair_batch(xa, xb[:1], np.random.default_rng(77))
        fa4, fb4 = orc.value_pair_batch(xa, np.tile(xb[0], (6, 1)), np.random.default_rng(77))
        assert fb3.shape == (6,)
        assert np.array_equal(fa3, fa4)
        assert np.array_equal(fb3, fb4)
    with pytest.raises(DomainError):
        vec.value_pair_batch(xa, xb[:2], np.random.default_rng(77))


def test_value_pair_batch_rejects_a_value_of_the_wrong_shape():
    # a value written for one point, not for an (m, n) batch, fails naming
    # the shape the batch needs instead of a bare reshape error
    xs = np.zeros((50, 2))
    for value in (lambda x: 0.0, lambda xs: np.zeros((50, 2))):
        orc = GaussianOracle(value=value, sigma=0.1)
        with pytest.raises(DomainError, match=r"expected \(50,\)"):
            orc.value_pair_batch(xs, xs[:1], np.random.default_rng(0))


def test_oracle_kind_errors():
    grad_only = GaussianOracle(grad=lambda x: x)
    value_only = GaussianOracle(value=lambda x: 0.0)
    rng = np.random.default_rng(0)
    with pytest.raises(OracleKindError):
        grad_only.value_pair_batch(np.zeros((3, 2)), np.zeros((3, 2)), rng)
    with pytest.raises(OracleKindError):
        value_only.gradient_batch(np.zeros(2), 3, rng)
    with pytest.raises(ConfigError):
        GaussianOracle(grad=lambda x: x, sigma=-0.1)


def test_eval_constraints_shapes():
    prob = _quad_problem()
    c, jac = eval_constraints(prob, np.array([0.25, 0.5]))
    assert c.shape == (1,) and jac.shape == (1, 2)
    assert abs(c[0] + 0.25) < 1e-15
    with pytest.raises(DomainError):
        eval_constraints(prob, np.zeros(3))


def test_eval_constraints_rejects_bad_returns():
    bad_c = ConstrainedProblem(
        n=2, q=1,
        constraints=lambda x: (np.array([1.0, 2.0]), np.ones((1, 2))),
        oracle=GaussianOracle(grad=lambda x: x),
    )
    with pytest.raises(DomainError):
        eval_constraints(bad_c, np.zeros(2))
    bad_j = ConstrainedProblem(
        n=2, q=1,
        constraints=lambda x: (np.array([1.0]), np.ones((2, 2))),
        oracle=GaussianOracle(grad=lambda x: x),
    )
    with pytest.raises(DomainError):
        eval_constraints(bad_j, np.zeros(2))
    nan_c = ConstrainedProblem(
        n=2, q=1,
        constraints=lambda x: (np.array([np.nan]), np.ones((1, 2))),
        oracle=GaussianOracle(grad=lambda x: x),
    )
    with pytest.raises(DomainError):
        eval_constraints(nan_c, np.zeros(2))


def test_eval_constraints_passes_huge_finite_values_without_a_warning():
    # a numpy sum of squares of these values overflows with a RuntimeWarning,
    # an error under this suite's settings
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, jac = eval_constraints(prob, np.array([1e200, 0.0]))
    assert c[0] == 1e200 and np.array_equal(jac, [[1.0, 1.0]])


@pytest.mark.parametrize("c, jac, message", [
    ([np.nan], [[1.0, 1.0]], "constraint component 0 is non-finite at the queried point"),
    ([-np.inf], [[1.0, 1.0]], "constraint component 0 is non-finite at the queried point"),
    ([1e308], [[1e308, np.inf]], r"Jacobian entry \(0, 1\) is non-finite at the queried point"),
    ([0.0], [[np.nan, 1.0]], r"Jacobian entry \(0, 0\) is non-finite at the queried point"),
])
def test_eval_constraints_names_the_non_finite_entry(c, jac, message):
    prob = ConstrainedProblem(
        n=2, q=1,
        constraints=lambda x: (np.array(c), np.array(jac)),
        oracle=GaussianOracle(grad=lambda x: x),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            eval_constraints(prob, np.zeros(2))


@pytest.mark.parametrize("family", ["P1", "P2", "DEBUG-BADJAC", "ROSEN-EQ"])
def test_constant_jacobians_are_shared_and_read_only(family):
    prob = build_problem(TestProblemSpec(family, sigma=0.1))
    _, jac = eval_constraints(prob, prob.x_init)
    _, again = eval_constraints(prob, prob.x_init + 0.5)
    assert again is jac and not jac.flags.writeable
    with pytest.raises(ValueError):
        jac[0, 0] = 7.0


def test_true_value_grad_requires_exact_objective():
    prob = _quad_problem(with_true=False)
    with pytest.raises(OracleKindError):
        prob.true_value_grad(np.zeros(2))


def test_start_point_defaults_to_the_origin():
    prob = _quad_problem()
    assert prob.x_init.dtype == np.float64
    assert np.array_equal(prob.x_init, np.zeros(2))


def test_problem_arrays_are_read_only_copies():
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.9, max_outer=2)
    before = run_penalty(prob, config, RandomStream(4)).records[0]
    with pytest.raises(ValueError):
        prob.x_init[0] = 9.0
    with pytest.raises(ValueError):
        prob.box[1][0] = -5.0
    assert run_penalty(prob, config, RandomStream(4)).records[0] == before
    assert not _quad_problem().x_init.flags.writeable
    # the caller's own arrays are copied, not frozen
    start, lo, hi = np.ones(2), -np.ones(2), np.ones(2)
    copied = dataclasses.replace(_quad_problem(), x_init=start, box=(lo, hi))
    start[0] = lo[0] = hi[0] = 7.0
    assert np.array_equal(copied.x_init, np.ones(2))
    assert np.array_equal(copied.box[0], -np.ones(2)) and np.array_equal(copied.box[1], np.ones(2))


def test_constants_are_frozen():
    prob = _quad_problem(sigma=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.constants.sigma = 5.0
    assert prob.constants.sigma == 0.1


def test_constants_require():
    consts = ProblemConstants(L_g=1.0)
    consts.require("L_g")
    with pytest.raises(ConfigError, match="L_J"):
        consts.require("L_g", "L_J")
    with pytest.raises(ConfigError):
        ProblemConstants(L_g=-1.0).require("L_g")
    with pytest.raises(ConfigError):
        ProblemConstants(sigma=-0.5).require("sigma")
