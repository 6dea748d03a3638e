"""Reference prox steps: the straightforward versions the library's lean
kernels must reproduce bit for bit.

With one constraint row, :func:`prox_q1` is the scalar-dual formula written
out in full.  With more, the reference solves the dual
``max_{||lam|| <= rho} <lam, b> - lam' A lam / 2`` with
``A = gamma*J J'`` and ``b = c - gamma*J g`` by an eigendecomposition (the
least-norm stationary point if it lies in the ball, else the root of the
secular equation), builds ``d = -gamma*(g + J' lam)``, and evaluates the
primal and dual objectives separately.  The one-row products and every norm
use the library's fixed-order product ``np.add.reduce(a * b, -1)``, which
sums in the same order on every BLAS kernel.
"""

import math

import numpy as np


def dot(a, b):
    """The fixed-order product ``np.add.reduce(a * b, -1)``."""
    return np.add.reduce(a * b, -1)


def norm(v):
    return math.sqrt(dot(v, v))


def prox_q1(x, g, c, jac, rho, gamma):
    """``(x_plus, d, lam, p_gamma, gap)`` of the one-row prox step."""
    j = jac[0]
    c0 = float(c[0])
    a = gamma * float(dot(j, j))
    b = c0 - gamma * float(dot(j, g))
    if a > 0.0:
        lam0 = min(max(b / a, -rho), rho)
    else:
        lam0 = math.copysign(rho, b) if b != 0.0 else 0.0
    p_gamma = g + lam0 * j
    d = -gamma * p_gamma
    t = c0 + float(dot(j, d))
    gap = rho * abs(t) - lam0 * t
    return x + d, d, np.array([lam0]), p_gamma, gap


def secular_root(w, beta, radius):
    norm_b = norm(beta)
    if norm_b == 0.0:
        return 0.0
    hi = norm_b / radius
    lo = 0.0
    nu = hi / 2.0
    for _ in range(200):
        denom = w + nu
        lam_norm_sq = float(np.sum((beta / denom) ** 2))
        lam_norm = np.sqrt(lam_norm_sq)
        if lam_norm > radius:
            lo = nu
        else:
            hi = nu
        f = 1.0 / lam_norm - 1.0 / radius
        if abs(f) <= 1e-15 / radius:
            break
        fp = float(np.sum(beta**2 / denom**3)) / (lam_norm_sq * lam_norm)
        nu_new = nu - f / fp
        if not (lo < nu_new < hi):
            nu_new = 0.5 * (lo + hi)
        if abs(nu_new - nu) <= 1e-16 * max(1.0, nu):
            nu = nu_new
            break
        nu = nu_new
    return nu


def dual_ball_quadratic(a_mat, b, radius):
    if radius == 0.0:
        return np.zeros(b.size)
    w, q_mat = np.linalg.eigh(a_mat)
    w = np.maximum(w, 0.0)
    beta = q_mat.T @ b
    w_top = float(w[-1])
    mask = w > max(w_top, 1.0) * 1e-14
    lam_ln = q_mat @ np.where(mask, beta / np.where(mask, w, 1.0), 0.0)
    resid = norm(a_mat @ lam_ln - b)
    scale = norm(b) + w_top * norm(lam_ln) + 1.0
    if resid <= 1e-11 * scale and norm(lam_ln) <= radius:
        return lam_ln
    nu = secular_root(w, beta, radius)
    if nu == 0.0:
        return lam_ln * (radius / max(norm(lam_ln), 1e-300))
    return q_mat @ (beta / (w + nu))


def prox_from_dual(x, g, c, jac, rho, gamma, lam):
    """``(x_plus, d, p_gamma, primal, dual)`` for the dual point ``lam``."""
    p_gamma = g + jac.T @ lam
    d = -gamma * p_gamma
    primal = float(g @ d + rho * norm(c + jac @ d) + d @ d / (2.0 * gamma))
    dual = float(lam @ c - 0.5 * gamma * (p_gamma @ p_gamma))
    return x + d, d, p_gamma, primal, dual
