"""Tests for the prox step and the theta/phi ball subproblems."""

import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grid_reference import draw_instance, grid_references, prox_objective
from phi_reference import phi as phi_iterative
from prox_reference import dual_ball_quadratic, prox_from_dual, prox_q1
from spen import (
    DEFAULT_PROX_TOL,
    SubsolverError,
    phi,
    prox_step,
    theta,
)
from spen import subsolvers
from spen.subsolvers import _ball_point, _secular_root


def test_prox_unconstrained_direction():
    # with a zero Jacobian the step is plain gradient descent
    g = np.array([1.0, 2.0])
    pr = prox_step(np.zeros(2), g, np.array([0.7]), np.zeros((1, 2)), 2.0, 0.5)
    assert np.allclose(pr.d, [-0.5, -1.0], atol=1e-14)
    assert np.allclose(pr.p_gamma, g, atol=1e-14)
    assert np.allclose(pr.x_plus, [-0.5, -1.0], atol=1e-14)


def test_prox_interior_dual():
    pr = prox_step(np.zeros(1), np.zeros(1), np.array([1.0]), np.array([[1.0]]), 2.0, 1.0)
    assert abs(pr.lam[0] - 1.0) < 1e-12
    assert abs(pr.d[0] + 1.0) < 1e-12
    assert pr.gap <= DEFAULT_PROX_TOL


def test_prox_boundary_dual():
    # the unconstrained dual maximizer lies outside the rho-ball
    pr = prox_step(np.zeros(1), np.zeros(1), np.array([3.0]), np.array([[1.0]]), 1.0, 1.0)
    assert abs(pr.lam[0] - 1.0) < 1e-12
    assert abs(pr.d[0] + 1.0) < 1e-12
    v = prox_objective(pr.d, np.zeros(1), np.array([3.0]), np.array([[1.0]]), 1.0, 1.0)
    assert abs(v - 2.5) < 1e-12


def test_prox_boundary_dual_q2():
    g = np.zeros(2)
    c = np.array([0.6, 0.8])
    pr = prox_step(np.zeros(2), g, c, np.eye(2), 1.0, 0.5)
    assert np.allclose(pr.lam, [0.6, 0.8], atol=1e-10)
    assert np.allclose(pr.d, [-0.3, -0.4], atol=1e-10)


def test_prox_stationarity_and_dual_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.1, 4.0))
        gamma = float(rng.uniform(0.1, 2.0))
        pr = prox_step(rng.standard_normal(n), g, c, jac, rho, gamma)
        assert np.linalg.norm(pr.lam) <= rho + 1e-10
        resid = g + jac.T @ pr.lam + pr.d / gamma
        assert np.linalg.norm(resid) < 1e-10
        assert pr.gap <= DEFAULT_PROX_TOL
        # the reported gap is the primal-dual difference of the returned pair
        r = g + jac.T @ pr.lam
        dual = float(pr.lam @ c) - 0.5 * gamma * float(r @ r)
        assert abs(prox_objective(pr.d, g, c, jac, rho, gamma) - dual - pr.gap) < 1e-9


def test_prox_matches_grid():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g, c, jac, rho, gamma = draw_instance(rng, n, q)
        pr = prox_step(np.zeros(n), g, c, jac, rho, gamma)
        attained = prox_objective(pr.d, g, c, jac, rho, gamma)
        assert abs(attained - grid_references(g, c, jac, rho, gamma)[0]) < 1e-4


def test_prox_nonexpansive_in_gradient():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        x = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.1, 3.0))
        gamma = float(rng.uniform(0.1, 1.5))
        g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
        p1 = prox_step(x, g1, c, jac, rho, gamma).p_gamma
        p2 = prox_step(x, g2, c, jac, rho, gamma).p_gamma
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(g1 - g2) + 1e-9


def test_prox_descent_inequality():
    # model decrease: <g, P> >= ||P||^2 + (h(c + J d) - h(c))/gamma
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.1, 3.0))
        gamma = float(rng.uniform(0.1, 1.5))
        pr = prox_step(np.zeros(n), g, c, jac, rho, gamma)
        lhs = float(g @ pr.p_gamma)
        h_new = rho * float(np.linalg.norm(c + jac @ pr.d))
        h_old = rho * float(np.linalg.norm(c))
        rhs = float(pr.p_gamma @ pr.p_gamma) + (h_new - h_old) / gamma
        assert lhs >= rhs - 1e-9


def test_prox_rejects_bad_parameters():
    with pytest.raises(SubsolverError):
        prox_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((1, 1)), 1.0, 0.0)
    with pytest.raises(SubsolverError):
        prox_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((1, 1)), -1.0, 1.0)


def test_prox_nan_gradient_raises():
    g = np.array([np.nan, 1.0])
    with pytest.raises(SubsolverError):
        prox_step(np.zeros(2), g, np.array([0.5]), np.array([[1.0, 1.0]]), 1.0, 0.5)
    with pytest.raises(SubsolverError):
        prox_step(np.zeros(2), g, np.array([0.5, 0.1]), np.eye(2), 1.0, 0.5)
    # a zero Jacobian row takes the other branch of the scalar dual
    with pytest.raises(SubsolverError):
        prox_step(np.zeros(2), g, np.array([0.5]), np.zeros((1, 2)), 1.0, 0.5)


def _q2_prox_instance(rng):
    # q in 2..4 and n in 1..5; half the Jacobians are products of a
    # small-integer factor and a Gaussian one, so rank deficiency and q > n
    # are common; the dual scales like 1/(gamma*scale), so rho spans well
    # inside to far outside the least-norm dual
    q, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    if rng.random() < 0.5:
        jac = rng.standard_normal((q, n))
    else:
        rank = int(rng.integers(0, min(q, n) + 1))
        jac = rng.integers(-3, 4, (q, rank)).astype(float) @ rng.standard_normal((rank, n))
    jac = scale * jac
    g = scale * rng.standard_normal(n)
    c = scale * rng.uniform(0.0, 2.0) * rng.standard_normal(q)
    gamma = float(rng.uniform(0.05, 2.0))
    rho = float(10.0 ** rng.uniform(-1.0, 2.0)) / (gamma * scale)
    return rng.standard_normal(n), g, c, jac, rho, gamma


def test_prox_q2_matches_reference_bit_for_bit():
    rng = np.random.default_rng(20)
    interior = boundary = 0
    for _ in range(2400):
        x, g, c, jac, rho, gamma = _q2_prox_instance(rng)
        pr = prox_step(x, g, c, jac, rho, gamma)
        lam = dual_ball_quadratic(gamma * (jac @ jac.T), c - gamma * (jac @ g), rho)
        norm_lam = float(np.linalg.norm(lam))
        # the reference's secular root can stop short of a tiny root; its
        # dual is then pulled back onto the sphere
        if norm_lam > rho * (1.0 + 1e-14):
            lam = lam * (rho / norm_lam)
        x_plus, d, p_gamma, primal, dual = prox_from_dual(x, g, c, jac, rho, gamma, lam)
        got, want = (pr.lam, pr.d, pr.p_gamma, pr.x_plus), (lam, d, p_gamma, x_plus)
        if np.linalg.matrix_rank(jac) == jac.shape[0]:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            # the library counts eigenvalues at the floor as zero in the
            # secular equation, the reference keeps them
            for a, b in zip(got, want):
                assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, float(np.linalg.norm(b)))
        assert abs(pr.gap - (primal - dual)) <= 1e-12 * max(1.0, abs(primal))
        if norm_lam < rho * (1.0 - 1e-9):
            interior += 1
        else:
            boundary += 1
    # a singular J J' with c outside its range forces the boundary
    assert interior > 300 and boundary > 300


def _q1_prox_row(draw, n):
    # a zero row takes the a == 0 branch; rho = 0 and subnormal radii pin
    # the dual to (almost) nothing
    entries = st.floats(-10.0, 10.0)
    zero_row = draw(st.booleans())
    j = np.zeros(n) if zero_row else draw(arrays(np.float64, n, elements=entries))
    x, g = (draw(arrays(np.float64, n, elements=entries)) for _ in range(2))
    c = draw(arrays(np.float64, 1, elements=entries))
    rho = draw(st.one_of(st.just(0.0), st.floats(0.01, 100.0),
                         st.floats(0.0, 2.2250738585072014e-308, exclude_min=True)))
    return x, g, c, j[None], rho, draw(st.floats(0.05, 2.0))


@st.composite
def _q1_prox_instances(draw):
    return _q1_prox_row(draw, draw(st.integers(1, 10)))


@st.composite
def _q1_prox_stacks(draw):
    # up to 12 rows of one n, each with its own rho and gamma; sometimes all
    # rows share one Jacobian, passed once as (1, 1, n)
    n = draw(st.integers(1, 10))
    rows = [_q1_prox_row(draw, n) for _ in range(draw(st.integers(0, 12)))]
    if rows and draw(st.booleans()):
        rows = [row[:3] + (rows[0][3],) + row[4:] for row in rows]
        return n, rows, rows[0][3][None]
    return n, rows, np.array([row[3] for row in rows]).reshape(len(rows), 1, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_q1_prox_stacks())
def test_prox_rows_match_prox_step_bit_for_bit(stack):
    # every row of the stacked kernel is the scalar call on that row: the
    # same x_plus, lam and gap bits, and ok exactly where the call returns
    n, rows, jac = stack
    x, g, c = (np.array([row[i] for row in rows]).reshape(len(rows), size)
               for i, size in enumerate((n, n, 1)))
    with np.errstate(all="ignore"):
        x_plus, lam, gap, ok = subsolvers._prox_rows(
            x, g, c, jac, [row[4] for row in rows], [row[5] for row in rows])
    assert x_plus.shape == (len(rows), n) and lam.shape == (len(rows), 1)
    assert len(gap) == len(ok) == len(rows)
    for i, row in enumerate(rows):
        try:
            pr = prox_step(*row)
        except SubsolverError:
            assert not ok[i]
            continue
        assert ok[i]
        assert x_plus[i].tobytes() == pr.x_plus.tobytes()
        assert lam[i].tobytes() == pr.lam.tobytes()
        assert gap[i] == pr.gap and np.signbit(gap[i]) == np.signbit(pr.gap)


def test_aligned_rows_start_every_row_on_16_bytes():
    # rows of three entries alternate alignment in a plain stack; the copy
    # puts every row on a 16-byte boundary and keeps the values. Even rows,
    # rows of one entry and a single row are returned as they are
    for shape in ((5, 3), (4, 1, 3), (3, 7)):
        a = np.arange(float(np.prod(shape))).reshape(shape)
        rows = subsolvers._aligned_rows(a)
        assert rows.tobytes() == a.tobytes()
        assert all(row.ctypes.data % 16 == 0 for row in (rows if rows.ndim == 2 else rows[:, 0]))
    for shape in ((5, 2), (5, 1), (1, 1, 3)):
        a = np.ones(shape)
        assert subsolvers._aligned_rows(a) is a


def test_prox_rows_refuse_an_overflowing_row_and_keep_the_others():
    # row 1's step overflows to inf, its gap is NaN and prox_step raises;
    # the kernel marks that row, and the rows around it keep prox_step's bits
    rows = [(np.zeros(2), np.array([1.0, -2.0]), np.array([0.5]), np.array([[1.0, 1.0]]), 3.0, 0.5),
            (np.zeros(2), np.array([1e300, 1e300]), np.array([0.5]), np.array([[0.0, 1e300]]),
             1e300, 1e300),
            (np.ones(2), np.array([0.2, 0.1]), np.array([-0.5]), np.array([[2.0, 0.0]]), 0.0, 0.9)]
    with np.errstate(all="ignore"):
        x_plus, lam, gap, ok = subsolvers._prox_rows(
            np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]), np.array([r[3] for r in rows]),
            [r[4] for r in rows], [r[5] for r in rows])
    assert ok == [True, False, True]
    with pytest.raises(SubsolverError), np.errstate(all="ignore"):
        prox_step(*rows[1])
    for i in (0, 2):
        pr = prox_step(*rows[i])
        assert x_plus[i].tobytes() == pr.x_plus.tobytes() and lam[i].tobytes() == pr.lam.tobytes()
        assert gap[i] == pr.gap


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_q1_prox_instances())
def test_prox_q1_matches_reference_bit_for_bit(instance):
    # the one-row kernel flattens c with ravel and fills its result without
    # the dataclass's generated __init__; every output keeps the reference bits
    want = prox_q1(*instance)
    if not want[-1] <= DEFAULT_PROX_TOL:
        with pytest.raises(SubsolverError):
            prox_step(*instance)
        return
    pr = prox_step(*instance)
    for got, ref in zip((pr.x_plus, pr.d, pr.lam, pr.p_gamma), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert pr.gap == want[-1] and np.signbit(pr.gap) == np.signbit(want[-1])


def test_prox_result_is_still_a_frozen_dataclass():
    pr = prox_step(np.zeros(2), np.ones(2), np.array([0.5]), np.array([[1.0, 1.0]]), 1.0, 0.5)
    assert [f.name for f in dataclasses.fields(pr)] == ["x_plus", "d", "lam", "p_gamma", "gap"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        pr.gap = 1.0
    moved = dataclasses.replace(pr, gap=0.0)
    assert moved.gap == 0.0 and moved.x_plus is pr.x_plus
    assert moved == dataclasses.replace(pr, gap=0.0)


@st.composite
def _unit_prox_instances(draw):
    q, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(q, n)))
    left = draw(arrays(np.float64, (q, rank), elements=_SMALL_INTS))
    right = draw(arrays(np.float64, (rank, n), elements=st.floats(-1.0, 1.0)))
    unit = st.floats(-1.0, 1.0)
    g = draw(arrays(np.float64, n, elements=unit))
    c = draw(arrays(np.float64, q, elements=unit))
    rho = draw(st.one_of(st.just(0.0), st.floats(0.01, 4.0), _TINY_RADII))
    gamma = draw(st.floats(0.05, 2.0))
    return g, c, left @ right, rho, gamma


# radii so small that ||beta||/rho is above 1e100 or overflows: subnormal,
# and normal ones from 1e-150, where the test's own squares do not underflow
_TINY_RADII = st.one_of(
    st.floats(0.0, 2.2250738585072014e-308, exclude_min=True),
    st.floats(-150.0, -100.0).map(lambda e: 10.0**e),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unit_prox_instances())
def test_prox_q2_certificate_properties(instance):
    g, c, jac, rho, gamma = instance
    pr = prox_step(np.zeros(g.size), g, c, jac, rho, gamma)
    # ||lam/rho||: for a subnormal rho the squares in ||lam|| underflow to 0
    if rho > 0.0:
        assert np.linalg.norm(pr.lam / rho) <= 1.0 + 1e-14
    else:
        assert not pr.lam.any()
    assert np.linalg.norm(g + jac.T @ pr.lam + pr.d / gamma) < 1e-10
    assert 0.0 <= pr.gap <= DEFAULT_PROX_TOL


def test_prox_q2_subnormal_rho_keeps_dual_in_ball():
    # rotating the dual back from the eigenbasis rounds each entry to the
    # subnormal grid: unscaled, lam came out as (1e-323, 0), twice rho
    jac = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    pr = prox_step(np.zeros(3), np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.5]), jac, 5e-324, 1.0)
    assert np.abs(pr.lam).max() <= 5e-324
    assert np.linalg.norm(pr.lam / 5e-324) <= 1.0 + 1e-14


def test_dual_ball_quadratic_stays_in_ball():
    # the least-norm dual overshoots the radius by one ulp and the secular
    # root is ~1e-21, below any step floor that is absolute in nu
    jac = np.array([[5e-4, 1e-3], [5e-4, 1e-3]])
    c = np.array([0.001118033988749895] * 2)
    pr = prox_step(np.zeros(2), c, np.zeros(2), jac.T, 1.0, 1.0)
    assert np.linalg.norm(pr.lam) <= 1.0


_TINY_TO_LARGE = st.floats(-20.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def _secular_instances(draw):
    # weights with exact zeros, beta entries from 1e-20 to 1e2, and a root:
    # beta is nonzero where w is zero, or the least-norm point leaves the ball
    n = draw(st.integers(1, 5))
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), _TINY_TO_LARGE)))
    sign = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    beta = sign * draw(arrays(np.float64, n, elements=_TINY_TO_LARGE))
    radius = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    zero = w == 0.0
    assume(zero.any() or np.linalg.norm(beta / np.where(zero, 1.0, w)) > radius)
    return w, beta, radius


_HARD_ROOTS = [
    (np.array([1.0, 0.0]), np.array([0.5, 1e-20]), 1.0),
    (np.array([0.0, 1.0]), np.array([1e-12, 0.999]), 1.0),
    # a root where nu**3 underflows
    (np.array([0.0, 2.0]), np.array([1e-120, 0.0]), 1.0),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(_HARD_ROOTS), _secular_instances()))
def test_secular_root_is_accurate_for_tiny_roots(instance):
    # the first root is 1.15e-20: a step floor absolute in nu stops at
    # 5.6e-17 and leaves the point at norm 0.50000003
    w, beta, radius = instance
    nu = _secular_root(w, beta, radius)
    assert abs(np.linalg.norm(beta / (w + nu)) - radius) <= 1e-14 * radius
    y, _ = _ball_point(w, beta, radius)
    assert np.linalg.norm(y) <= radius * (1.0 + 1e-14)


def test_theta_closed_forms():
    assert abs(theta(np.array([2.0]), np.array([[1.0]])).measure - 1.0) < 1e-10
    assert abs(theta(np.array([0.5]), np.array([[1.0]])).measure - 0.5) < 1e-10
    assert abs(theta(np.array([3.0, 4.0]), np.eye(2)).measure - 1.0) < 1e-8
    assert abs(theta(np.array([0.3, 0.4]), np.eye(2)).measure - 0.5) < 1e-8
    assert theta(np.zeros(2), np.eye(2)).measure == 0.0
    assert theta(np.array([1.0]), np.zeros((1, 2))).measure == 0.0
    # a Jacobian far below unit scale is not mistaken for zero: s = (0, -1)
    tiny = theta(np.array([0.0, 1e-3]), 1e-8 * np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert abs(tiny.measure - (1e-3 - np.hypot(1e-8, 1e-3 - 1e-8))) < 1e-15


def test_theta_nan_constraint_raises():
    with pytest.raises(SubsolverError, match="theta input c has a non-finite entry"):
        theta(np.array([np.nan, 1.0]), np.eye(2))
    with pytest.raises(SubsolverError, match="theta input c has a non-finite entry"):
        theta(np.array([np.inf]), np.ones((1, 2)))
    with pytest.raises(SubsolverError, match="theta input jac has a non-finite entry"):
        theta(np.array([0.5, 1.0]), np.array([[1.0, np.nan], [0.0, 1.0]]))


_SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_SMALL_INTS = st.integers(-3, 3).map(float)


@st.composite
def _theta_instances(draw):
    # J = scale * (L @ R) with small-integer factors: the rank is exact,
    # with no near-singular noise, and q > n, zero rows and c in range(J)
    # all occur
    q, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(q, n)))
    left = draw(arrays(np.float64, (q, rank), elements=_SMALL_INTS))
    right = draw(arrays(np.float64, (rank, n), elements=_SMALL_INTS))
    jac = draw(_SCALES) * (left @ right)
    if draw(st.booleans()):
        jac[draw(st.integers(0, q - 1))] = 0.0
    kind = draw(st.sampled_from(["free", "reachable", "zero"]))
    if kind == "free":
        c = draw(_SCALES) * draw(arrays(np.float64, q, elements=_SMALL_INTS))
    elif kind == "reachable":
        # c = J s0 with ||s0|| <= 1, often exactly on the unit sphere
        s0 = draw(arrays(np.float64, n, elements=_SMALL_INTS))
        c = jac @ (s0 / max(1.0, float(np.linalg.norm(s0))))
    else:
        c = np.zeros(q)
    return c, jac


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_theta_instances())
def test_theta_exact_solve_properties(instance):
    c, jac = instance
    r = theta(c, jac)
    assert r.gap <= 1e-8
    upper = min(float(np.linalg.norm(c)), float(np.linalg.norm(jac, 2)))
    assert 0.0 <= r.measure <= upper + 1e-7
    assert np.linalg.norm(r.s_star) <= 1.0 + 1e-12


def test_theta_exact_on_hard_instances():
    # c = J s0 with ||s0|| = 1: the minimizer sits on the unit sphere and
    # the residual vanishes
    c = np.array([141.42135623730948, 212.13203435596424])
    jac = np.array([[0.0, -100.0, 0.0, 100.0], [300.0, 0.0, 0.0, 300.0]])
    r = theta(c, jac)
    assert abs(r.measure - np.linalg.norm(c)) < 1e-9
    assert np.linalg.norm(r.s_star) <= 1.0 + 1e-12
    # singular values 1.9e4, 4.3e-3 and ~1e-19: forming J'J would square the
    # condition number and lose the middle direction
    c = np.array([0.07608186526484836, 0.5920954627099382, -0.1345537951199049])
    jac = np.array([
        [5000.213314959913, 9135.52290200634, 16032.490331484863],
        [0.00027592395605318575, -0.008408308946858425, -0.011398700485239388],
        [0.00026777349432192694, -0.0005775395850889268, -0.0006116784979754924],
    ])
    r = theta(c, jac)
    assert abs(r.measure - 0.008807431578686575) < 1e-10
    assert np.linalg.norm(r.s_star) <= 1.0 + 1e-12


def test_theta_range_and_gap():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        r = theta(c, jac)
        upper = min(float(np.linalg.norm(c)), float(np.linalg.norm(jac, 2)))
        assert -1e-10 <= r.measure <= upper + 1e-7
        assert r.gap >= 0.0


def test_theta_matches_grid():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g, c, jac, rho, gamma = draw_instance(rng, n, q)
        assert abs(theta(c, jac).measure - grid_references(g, c, jac, rho, gamma)[1]) < 1e-4


def test_phi_closed_forms():
    # gradient pointing away from the constraint descent direction
    assert abs(phi(np.array([-2.0]), np.array([2.0]), np.array([[1.0]]), 4.0).measure - 2.0) < 1e-8
    # zero Jacobian: the inner minimum is -||g|| regardless of c
    r = phi(np.array([3.0, 4.0]), np.array([1.0]), np.zeros((1, 2)), 2.0)
    assert abs(r.measure - 5.0) < 1e-8


def test_phi_reduces_to_theta_at_zero_gradient():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.5, 3.0))
        a = phi(np.zeros(n), c, jac, rho).measure
        b = rho * theta(c, jac).measure
        assert abs(a - b) < 2e-7 * max(1.0, rho)


def test_phi_within_gradient_norm_of_scaled_theta():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q)
        jac = rng.standard_normal((q, n))
        rho = float(rng.uniform(0.5, 3.0))
        diff = phi(g, c, jac, rho).measure - rho * theta(c, jac).measure
        assert abs(diff) <= np.linalg.norm(g) + 1e-6


def test_phi_matches_grid():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g, c, jac, rho, gamma = draw_instance(rng, n, q)
        assert abs(phi(g, c, jac, rho).measure - grid_references(g, c, jac, rho, gamma)[2]) < 1e-4


def test_phi_near_parallel_gradient_regression():
    # cancellation case: g numerically parallel to the single Jacobian row
    g = np.array([0.43047083298286987])
    c = np.array([0.23633556226355537])
    jac = np.array([[1.0347281289959045]])
    rho = 2.9312888860897304
    r = phi(g, c, jac, rho)
    assert abs(r.measure - 0.7910888669507788) < 1e-7
    assert r.gap <= 1e-8
    # exactly parallel multiples in higher dimension: the optimum lies on
    # the axis spanned by j, so a 1-d sweep over that axis is exhaustive
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        j = rng.standard_normal((1, n))
        beta = float(rng.uniform(-2.0, 2.0))
        g = beta * j[0]
        c = rng.standard_normal(1)
        rho = float(rng.uniform(0.5, 3.0))
        r = phi(g, c, j, rho)
        nj = float(np.linalg.norm(j[0]))
        # piecewise linear in the axis coordinate: minimum at the kink or
        # at an endpoint, so three exact evaluations suffice
        cands = [-1.0, 1.0, float(np.clip(-c[0] / nj, -1.0, 1.0))]
        vals = [beta * nj * u + rho * abs(c[0] + nj * u) for u in cands]
        best = rho * abs(c[0]) - min(vals)
        assert abs(r.measure - best) < 1e-8


def test_phi_nan_gradient_raises():
    with pytest.raises(SubsolverError, match="phi input g has a non-finite entry"):
        phi(np.array([np.nan, 1.0]), np.array([0.5]), np.array([[1.0, 1.0]]), 2.0)
    with pytest.raises(SubsolverError, match="phi input g has a non-finite entry"):
        phi(np.array([np.nan, 1.0]), np.array([0.5, 0.1]), np.eye(2), 2.0)
    with pytest.raises(SubsolverError, match="phi input c has a non-finite entry"):
        phi(np.zeros(2), np.array([0.5, np.inf]), np.eye(2), 2.0)
    with pytest.raises(SubsolverError, match="phi input jac has a non-finite entry"):
        phi(np.zeros(2), np.array([0.5]), np.array([[np.nan, 1.0]]), 2.0)


def test_phi_rejects_negative_rho():
    with pytest.raises(SubsolverError):
        phi(np.zeros(1), np.zeros(1), np.zeros((1, 1)), -1.0)


@st.composite
def _phi_instances(draw):
    # J = scale * (L @ R) with small-integer factors as for theta, q = 1
    # and J = 0 (rank 0) included; g is free, in range(J') or zero, and c
    # is free, reachable (c = J s0 with ||s0|| near 1) or zero
    q, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(q, n)))
    left = draw(arrays(np.float64, (q, rank), elements=_SMALL_INTS))
    right = draw(arrays(np.float64, (rank, n), elements=_SMALL_INTS))
    jac = draw(_SCALES) * (left @ right)
    # entries are 0 or of magnitude 1e-9 to 1, so tiny but normal
    # components (g nearly in range(J'), say) occur
    unit = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-9.0, 0.0))
    unit = unit.map(lambda p: p[0] * 10.0 ** p[1])
    g_kind = draw(st.sampled_from(["free", "range", "zero"]))
    if g_kind == "free":
        g = draw(_SCALES) * draw(arrays(np.float64, n, elements=unit))
    elif g_kind == "range":
        g = jac.T @ (draw(_SCALES) * draw(arrays(np.float64, q, elements=unit)))
    else:
        g = np.zeros(n)
    c_kind = draw(st.sampled_from(["free", "reachable", "zero"]))
    if c_kind == "free":
        c = draw(_SCALES) * draw(arrays(np.float64, q, elements=unit))
    elif c_kind == "reachable":
        s0 = draw(arrays(np.float64, n, elements=_SMALL_INTS))
        radius = draw(st.sampled_from([1.0, 0.999, 1.001]))
        c = jac @ (radius * s0 / max(1.0, float(np.linalg.norm(s0))))
    else:
        c = np.zeros(q)
    rho = draw(st.one_of(st.just(0.0), _SCALES))
    return g, c, jac, rho


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_phi_instances())
def test_phi_exact_solve_properties(instance):
    g, c, jac, rho = instance
    r = phi(g, c, jac, rho)
    assert r.gap <= 1e-8
    assert np.linalg.norm(r.s_star) <= 1.0 + 1e-12
    assert r.value == float(g @ r.s_star) + rho * np.linalg.norm(c + jac @ r.s_star)
    assert r.measure >= 0.0


# (g, c, rho) of phi calls made while steering on the benchmark's
# two-constraint problem, whose Jacobian is _Q2_JAC (q2-sfo-solve op seeds
# 607006, 1101010, 1103011, 1103019 and 1109022); c is ~1e-16 and g lies
# ~1e-6 off the row space of J, where a primal-dual iteration stalled at
# duality gaps 1e-6..3e-6
_Q2_JAC = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
_Q2_NULL = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
_STALLED_PHI_CALLS = [
    ([-0.6449447801390822, -0.6640893602806227, -0.6545157852924184],
     [-4.440892098500626e-16, 5.551115123125783e-17], 4.0),
    ([-0.6893787868798468, -0.6623418305887473, -0.6758438674405001],
     [0.0, 1.1102230246251565e-16], 3.0),
    ([-0.6441202278501238, -0.6560345257125804, -0.6500719591354888],
     [2.220446049250313e-16, -5.551115123125783e-17], 5.0),
    ([-0.6711437626332575, -0.6783830886979331, -0.6747454552712002],
     [0.0, 1.1102230246251565e-16], 3.0),
    ([-0.651189269376639, -0.686718820482408, -0.6689368401214895],
     [0.0, 5.551115123125783e-17], 5.0),
]


@pytest.mark.parametrize("g, c, rho", _STALLED_PHI_CALLS)
def test_phi_formerly_stalled_calls(g, c, rho):
    g, c = np.array(g), np.array(c)
    r = phi(g, c, _Q2_JAC, rho)
    assert r.gap <= 1e-8
    # J has full row rank and c ~ 0: s* moves along null(J) against g
    want = rho * np.linalg.norm(c) + abs(float(g @ _Q2_NULL))
    assert abs(r.measure - want) < 1e-15


def test_phi_gradient_nearly_in_row_space():
    # g = -J' lam + eps*n with n spanning null(J), c = 0 and ||lam|| < rho:
    # s* = -n and the measure is eps exactly, however small eps is
    rng = np.random.default_rng(11)
    for exponent in range(-14, -2):
        for _ in range(20):
            eps = 10.0 ** (exponent + rng.random())
            g = -_Q2_JAC.T @ rng.uniform(-2.0, 2.0, 2) + eps * _Q2_NULL
            r = phi(g, np.zeros(2), _Q2_JAC, float(rng.uniform(3.0, 20.0)))
            assert r.gap <= 1e-14
            assert abs(r.measure - eps) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_tiny_gradient_does_not_overflow():
    # the secular weights sv^2/mu reach ~1e195 here, so a Newton step's
    # (w + nu)**3 overflowed; g ~ 0 leaves theta's measure:
    # rho*(||c|| - min_t ||(t, 1 + t)||) = 1 - sqrt(1/2)
    r = phi(1.6e-195 * np.ones(2), np.array([0.0, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0)
    assert r.gap <= 1e-8
    assert abs(r.measure - (1.0 - np.sqrt(0.5))) <= 1e-15


def test_phi_matches_iterative_reference():
    # the iterative solvers this exact solve replaced: golden section for
    # q = 1 and a primal-dual loop for q >= 2
    rng = np.random.default_rng(12)
    compared = 0
    while compared < 400:
        q, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(q, n) + 1))
        jac = rng.integers(-3, 4, (q, rank)).astype(float) @ rng.standard_normal((rank, n))
        g = rng.standard_normal(n)
        c = rng.standard_normal(q) if rng.random() < 0.5 else jac @ rng.standard_normal(n)
        rho = float(rng.uniform(0.1, 4.0))
        try:
            ref = phi_iterative(g, c, jac, rho)
        except SubsolverError:
            continue
        compared += 1
        r = phi(g, c, jac, rho)
        assert ref.value - ref.gap - 1e-10 <= r.value <= ref.value + 1e-10


def _ball_outputs(x, g, c, jac, rho, gamma):
    pr = prox_step(x, g, c, jac, rho, gamma)
    th = theta(c, jac)
    ph = phi(g, c, jac, rho)
    return [pr.x_plus, pr.d, pr.lam, pr.p_gamma, pr.gap,
            th.s_star, th.value, th.gap, ph.s_star, ph.value, ph.gap]


def test_factorization_memo_is_history_independent():
    # every call must give the bits of the same call with no remembered
    # factorization, whatever was factorized before it
    rng = np.random.default_rng(30)
    x, g, c = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2)
    j1 = rng.standard_normal((2, 3))
    j2 = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1: J J' has a zero eigenvalue
    j1_t = np.ascontiguousarray(j1.T).T  # j1's values, transposed strides
    assert np.array_equal(j1_t, j1) and j1_t.strides != j1.strides
    mutated = j1.copy()
    steps = [(j1, 0.5), (j2, 0.5), (j1, 0.5), (j1_t, 0.5), (j1, 0.25), (j1, 0.25)]
    subsolvers._memo.clear()
    for jac, gamma in steps + [(mutated, 0.25)]:
        warm = _ball_outputs(x, g, c, jac, 1.5, gamma)
        subsolvers._memo.clear()
        cold = _ball_outputs(x, g, c, jac, 1.5, gamma)
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    # the memo now holds the factorizations of `mutated`: change it in place
    before = _ball_outputs(x, g, c, mutated, 1.5, 0.25)
    mutated[1, 2] += 0.5
    warm = _ball_outputs(x, g, c, mutated, 1.5, 0.25)
    subsolvers._memo.clear()
    cold = _ball_outputs(x, g, c, mutated, 1.5, 0.25)
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert not np.array_equal(warm[2], before[2])


def test_factorization_memo_stores_read_only_arrays():
    subsolvers._memo.clear()
    jac = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    prox_step(np.zeros(3), np.ones(3), np.ones(2), jac, 1.0, 0.5)
    theta(np.ones(2), jac)
    stored = [a for entry in subsolvers._memo.values() for a in entry[1:]
              if isinstance(a, np.ndarray)]
    assert len(stored) == 5  # w, Q and U, sv, V'
    for a in stored:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_factorization_memo_stores_nothing_on_failure(monkeypatch):
    subsolvers._memo.clear()

    def fail(a):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    jac = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        prox_step(np.zeros(3), np.ones(3), np.ones(2), jac, 1.0, 0.5)
    with pytest.raises(np.linalg.LinAlgError):
        theta(np.ones(2), jac)
    assert not subsolvers._memo


class _SwitchingMemo(dict):
    """A memo on which every read after the first within one subsolver call
    first refactorizes another Jacobian, as a thread switched in at that
    point would."""

    def __init__(self, switch):
        super().__init__()
        self.switch = switch
        self.reads = 0

    def _read(self):
        self.reads += 1
        if self.reads > 1 and self.switch is not None:
            switch, self.switch = self.switch, None  # its own reads don't switch
            try:
                switch()
            finally:
                self.switch = switch

    def get(self, key, default=None):
        self._read()
        return super().get(key, default)

    def __getitem__(self, key):
        self._read()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._read()
        return super().__contains__(key)


def test_factorization_memo_survives_a_switch_between_reads(monkeypatch):
    # deterministic form of the race the threaded test below can rarely hit:
    # an entry read in two steps could pair one Jacobian's key with another's
    # factors; the one-tuple entry is read once per call
    rng = np.random.default_rng(32)
    x, g, c = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2)
    jac, other = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))

    def switch():
        prox_step(x, g, c, other, 1.5, 0.3)
        theta(c, other)

    memo = _SwitchingMemo(switch)
    for fn, args in ((prox_step, (x, g, c, jac, 1.5, 0.5)), (theta, (c, jac)),
                     (phi, (g, c, jac, 1.5))):
        monkeypatch.setattr(subsolvers, "_memo", {})
        cold = fn(*args)
        monkeypatch.setattr(subsolvers, "_memo", memo)
        for _ in range(2):  # a miss or a hit, then a hit
            memo.reads = 0
            warm = fn(*args)
            for field in dataclasses.fields(cold):
                assert np.array_equal(getattr(warm, field.name), getattr(cold, field.name))


def test_factorization_memo_under_threads():
    # threads that replace the memo's entries under one another still get
    # the bits of a cold call: an entry is read and written as one tuple
    rng = np.random.default_rng(31)
    cases = [(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2),
              rng.standard_normal((2, 3)), float(rng.uniform(0.1, 1.0))) for _ in range(6)]
    want = []
    for x, g, c, jac, gamma in cases:
        subsolvers._memo.clear()
        want.append(_ball_outputs(x, g, c, jac, 1.5, gamma))
    mismatches, errors = [], []

    def work(offset):
        try:
            for i in range(150):
                k = (i * (offset + 1) + offset) % len(cases)
                x, g, c, jac, gamma = cases[k]
                got = _ball_outputs(x, g, c, jac, 1.5, gamma)
                if not all(np.array_equal(a, b) for a, b in zip(got, want[k])):
                    mismatches.append(k)
        except Exception as err:  # reported below, not lost in the thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches


@settings(max_examples=500, deadline=None, derandomize=True)
@given(arrays(np.float64, st.integers(1, 300),
              elements=st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)))
def test_norm_has_the_bits_of_the_plain_sum_of_squares(v):
    # wherever the sum of squares is finite, the overflow-safe norm is the
    # plain one, on contiguous and strided vectors, short and past the
    # lengths where BLAS kernels unroll their sums
    for w in (v, np.repeat(v, 2)[::2], np.repeat(v, 3)[1::3]):
        assert subsolvers._norm(w).hex() == math.sqrt(w.dot(w)).hex()


def test_norm_of_huge_finite_vectors_is_finite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = subsolvers._norm(np.array([1e200, 1e200]))
        top = subsolvers._norm(np.array([1e308, -1e308]))
        assert math.isinf(subsolvers._norm(np.array([np.inf, 1e200])))
        assert math.isnan(subsolvers._norm(np.array([np.nan, 1e200])))
    assert huge == pytest.approx(1.4142135623730951e200, rel=1e-15)
    assert top == pytest.approx(1.4142135623730951e308, rel=1e-15)
