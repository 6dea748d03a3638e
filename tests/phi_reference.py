"""Reference phi: the iterative solvers the library's exact solve replaced.

``phi(g, c, jac, rho)`` evaluates ``rho*||c|| - min_{||s||<=1} <g, s> +
rho*||c + J s||``.  With one constraint it runs golden section on the
primal (along the constraint row and its complement) and on the dual;
for ``q >= 2`` it runs a primal-dual hybrid gradient loop on the saddle
form ``min_s max_{||lam||<=rho} <g, s> + <lam, c + J s>``.  Either way the
duality gap of the best pair certifies the value, and a gap above ``tol``
raises ``SubsolverError``.
"""

import numpy as np

from spen import SubsolverError
from spen.subsolvers import BallSubproblemResult

MAX_ITERS = 100_000


def proj_ball(v, radius):
    nv = float(np.linalg.norm(v))
    if nv <= radius:
        return v
    return v * (radius / nv)


def golden_section(fn, lo, hi, iters=96):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def phi_q1(g, c, jac, rho, tol):
    j = jac[0]
    nj = float(np.linalg.norm(j))
    c0 = float(c[0])
    norm_g = float(np.linalg.norm(g))
    if nj == 0.0:
        s = -g / norm_g if norm_g > 0.0 else np.zeros(g.size)
        value = float(g @ s) + rho * abs(c0)
        return BallSubproblemResult(s, value, 0.0, max(rho * abs(c0) - value, 0.0))
    a = float(g @ j) / nj**2
    g_perp = g - a * j
    b = float(np.linalg.norm(g_perp))

    def objective_t(t):
        r = np.sqrt(max(1.0 - (t / nj) ** 2, 0.0))
        return a * t - b * r + rho * abs(c0 + t)

    t_star = golden_section(objective_t, -nj, nj)
    for cand in (t_star, float(np.clip(-c0, -nj, nj)), -nj, nj, 0.0):
        if -nj <= cand <= nj and objective_t(cand) < objective_t(t_star):
            t_star = cand
    radial = np.sqrt(max(1.0 - (t_star / nj) ** 2, 0.0))
    s = (t_star / nj**2) * j
    if b > 1e-12 * max(norm_g, 1.0):
        u = g_perp - (float(g_perp @ j) / nj**2) * j
        u_norm = float(np.linalg.norm(u))
        if u_norm > 0.0:
            s = s - radial * (u / u_norm)
    value = float(g @ s) + rho * abs(c0 + float(j @ s))

    def neg_dual(lam):
        return -(lam * c0 - float(np.linalg.norm(g + lam * j)))

    lam_star = golden_section(neg_dual, -rho, rho)
    dual_val = -neg_dual(lam_star)
    gap = max(value - dual_val, 0.0)
    if not (gap <= tol):
        raise SubsolverError(f"phi subsolver stalled at duality gap {gap:.3e}", gap=gap)
    return BallSubproblemResult(s, value, gap, max(rho * abs(c0) - value, 0.0))


def phi(g, c, jac, rho, tol=1e-8):
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    q, n = jac.shape
    if q == 1:
        return phi_q1(g, c, jac, rho, tol)

    jn = float(np.linalg.norm(jac, 2)) if np.any(jac) else 0.0
    step = 1.0 / jn if jn > 0.0 else 1.0
    rho_c = rho * float(np.linalg.norm(c))

    def primal(s):
        return float(g @ s) + rho * float(np.linalg.norm(c + jac @ s))

    def dual(lam):
        return float(lam @ c) - float(np.linalg.norm(g + jac.T @ lam))

    s = np.zeros(n)
    lam = np.zeros(q)
    s_bar = s.copy()
    best_p, best_s = primal(s), s
    best_d = dual(lam)
    for it in range(1, MAX_ITERS + 1):
        lam = proj_ball(lam + step * (c + jac @ s_bar), rho)
        s_new = proj_ball(s - step * (g + jac.T @ lam), 1.0)
        s_bar = 2.0 * s_new - s
        s = s_new
        if it % 25 == 0:
            p_now = primal(s)
            if p_now < best_p:
                best_p, best_s = p_now, s.copy()
            d_now = dual(lam)
            if d_now > best_d:
                best_d = d_now
            if not (best_p - best_d > tol):
                break
    gap = max(best_p - best_d, 0.0)
    if not (gap <= tol):
        raise SubsolverError(f"phi subsolver stalled at duality gap {gap:.3e}", gap=gap)
    return BallSubproblemResult(best_s, best_p, gap, max(rho_c - best_p, 0.0))
