"""Convex ball subproblems behind the composite prox step and criticality measures.

Three deterministic building blocks live here:

* :func:`prox_step` solves the proximal linearization
  ``min_u <g, u-x> + rho*||c + J(u-x)|| + ||u-x||^2/(2*gamma)``
  through its dual, a concave quadratic over the radius-``rho`` ball, with
  the closed-form gap ``rho*||t|| - <lam, t>``, ``t = c + J(u-x)``.
* :func:`theta` evaluates the infeasibility stationarity measure
  ``||c|| - min_{||s||<=1} ||c + J s||``.
* :func:`phi` evaluates the penalty steering measure
  ``rho*||c|| - min_{||s||<=1} ( <g, s> + rho*||c + J s|| )``.

All three are exact up to rounding, through the secular equation of a
ball-constrained quadratic, and return a duality-gap certificate so
callers never have to trust iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SubsolverError

__all__ = [
    "ProxResult",
    "BallSubproblemResult",
    "prox_step",
    "theta",
    "phi",
]

DEFAULT_PROX_TOL = 1e-10
DEFAULT_MEASURE_TOL = 1e-8


@dataclass(frozen=True)
class ProxResult:
    """Solution of one proximal step.

    ``x_plus`` is the new point, ``d = x_plus - x`` the step, ``lam`` the
    dual vector (``||lam|| <= rho``), ``p_gamma = (x - x_plus)/gamma`` the
    generalized gradient, and ``gap`` the certified duality gap.
    """

    x_plus: np.ndarray
    d: np.ndarray
    lam: np.ndarray
    p_gamma: np.ndarray
    gap: float


@dataclass(frozen=True)
class BallSubproblemResult:
    """Result of minimizing a convex objective over a norm ball.

    ``value`` is the attained inner minimum, ``gap`` a certified bound on
    its suboptimality, and ``measure`` the derived quantity (theta or phi)
    clamped at zero.
    """

    s_star: np.ndarray
    value: float
    gap: float
    measure: float


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, the same bits as ``np.linalg.norm``."""
    return math.sqrt(v.dot(v))


def _secular_root(w: np.ndarray, beta: np.ndarray, radius: float) -> float:
    """Solve sum(beta^2/(w+nu)^2) = radius^2 for nu > 0.

    Standard trust-region secular equation with PSD eigenvalues ``w``;
    the root is bracketed in (0, ||beta||/radius] and polished by a
    safeguarded Newton iteration on 1/||lam(nu)|| - 1/radius.
    """
    norm_b = _norm(beta)
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


def _dual_ball_quadratic(a_mat: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """Maximize <b, lam> - 0.5*lam' A lam over ||lam|| <= radius, A PSD.

    Interior solutions use the least-norm stationary point; boundary
    solutions come from the secular equation in the eigenbasis of A.
    """
    if radius == 0.0:
        return np.zeros(b.size)
    w, q_mat = np.linalg.eigh(a_mat)
    # eigenvalues ascend, so the smallest decides both the clip and the mask
    if w[0] < 0.0:
        w = np.maximum(w, 0.0)
    beta = q_mat.T @ b
    w_top = float(w[-1])
    floor = max(w_top, 1.0) * 1e-14
    if w[0] > floor:
        lam_ln = q_mat @ (beta / w)
    else:
        mask = w > floor
        lam_ln = q_mat @ np.where(mask, beta / np.where(mask, w, 1.0), 0.0)
    resid = _norm(a_mat @ lam_ln - b)
    norm_ln = _norm(lam_ln)
    if resid <= 1e-11 * (_norm(b) + w_top * norm_ln + 1.0) and norm_ln <= radius:
        return lam_ln
    nu = _secular_root(w, beta, radius)
    if nu == 0.0:
        return lam_ln * (radius / max(norm_ln, 1e-300))
    lam = q_mat @ (beta / (w + nu))
    # more than rounding outside the ball: the root stopped short
    norm_lam = _norm(lam)
    return lam * (radius / norm_lam) if norm_lam > radius * (1.0 + 1e-14) else lam


def prox_step(
    x: np.ndarray,
    g: np.ndarray,
    c: np.ndarray,
    jac: np.ndarray,
    rho: float,
    gamma: float,
    tol: float = DEFAULT_PROX_TOL,
) -> ProxResult:
    """Proximal step of the linearized exact-penalty model.

    Solves ``min_d <g, d> + rho*||c + J d|| + ||d||^2/(2*gamma)`` exactly
    through the dual ``max_{||lam|| <= rho} <lam, c> - (gamma/2)*||g + J' lam||^2``
    and recovers ``d = -gamma*(g + J' lam)``.

    Parameters
    ----------
    x : ndarray, shape (n,)
        Current point (only used to report ``x_plus = x + d``).
    g : ndarray, shape (n,)
        Gradient estimate at ``x``.
    c, jac : ndarray
        Constraint value ``(q,)`` and Jacobian ``(q, n)`` at ``x``.
    rho : float
        Penalty parameter, ``>= 0``.
    gamma : float
        Step size, ``> 0``.
    tol : float
        Acceptable duality gap for the returned step.

    Returns
    -------
    ProxResult
        With stationarity ``g + J' lam + d/gamma = 0`` holding exactly by
        construction and ``gap <= tol`` certified.

    Raises
    ------
    SubsolverError
        If the certified gap exceeds ``tol`` or is not a number.

    Notes
    -----
    As ``d`` is built from ``lam``, primal minus dual is exactly the gap
    ``rho*||t|| - <lam, t>`` for the linearized residual ``t = c + J d``,
    a certificate since ``||lam|| <= rho``.  With one constraint row ``j``
    the dual is the scalar ``lam = clip(b/a, -rho, rho)`` with
    ``a = gamma*||j||^2`` and ``b = c - gamma*<j, g>``.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    if gamma <= 0.0:
        raise SubsolverError(f"prox step size must be > 0, got {gamma}")
    if rho < 0.0:
        raise SubsolverError(f"penalty parameter must be >= 0, got {rho}")

    if jac.shape[0] == 1:
        j = jac[0]
        c0 = float(c[0])
        a = gamma * float(j.dot(j))
        b = c0 - gamma * float(j.dot(g))
        if a > 0.0:
            lam0 = min(max(b / a, -rho), rho)
        else:
            lam0 = math.copysign(rho, b) if b != 0.0 else 0.0
        p_gamma = g + lam0 * j
        d = -gamma * p_gamma
        t = c0 + float(j.dot(d))
        gap = rho * abs(t) - lam0 * t
        lam = np.array([lam0])
    else:
        lam = _dual_ball_quadratic(gamma * (jac @ jac.T), c - gamma * (jac @ g), rho)
        p_gamma = g + jac.T @ lam
        d = -gamma * p_gamma
        t = c + jac @ d
        gap = max(rho * _norm(t) - float(lam.dot(t)), 0.0)
    if not (gap <= tol):
        raise SubsolverError(f"prox duality gap {gap:.3e} exceeds tolerance {tol:.3e}", gap=gap)
    return ProxResult(np.asarray(x, dtype=float) + d, d, lam, p_gamma, gap)


def _theta_q1(c: np.ndarray, jac: np.ndarray, tol: float) -> BallSubproblemResult:
    # single constraint: the inner product ranges over [-||j||, ||j||]
    j = jac[0]
    nj = float(np.linalg.norm(j))
    c0 = float(c[0])
    if nj == 0.0:
        return BallSubproblemResult(np.zeros(j.size), abs(c0), 0.0, 0.0)
    t = float(np.clip(-c0, -nj, nj))
    s = (t / nj**2) * j
    value = abs(c0 + t)
    measure = max(abs(c0) - value, 0.0)
    return BallSubproblemResult(s, value, 0.0, measure)


def _require_finite(measure: str, **arrays: np.ndarray) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise SubsolverError(f"{measure} input {name} has a non-finite entry")


def theta(c: np.ndarray, jac: np.ndarray, tol: float = DEFAULT_MEASURE_TOL) -> BallSubproblemResult:
    """Infeasibility stationarity measure ``||c|| - min_{||s||<=1} ||c + J s||``.

    The inner problem, minimizing the squared residual ``||c + J s||^2``
    over the unit ball, is a ball-constrained PSD quadratic.  It is solved
    exactly in the singular basis of ``J``: the least-norm minimizer when
    it lies in the ball, else the boundary point from the secular
    equation.  Working with the singular values of ``J`` rather than the
    eigenvalues of ``J'J`` keeps directions with singular values down to
    ``1e-14`` of the largest.  The reported ``gap``, a Frank-Wolfe bound
    mapped to the norm scale, bounds the error of ``value`` (the attained
    residual norm), and the measure is clamped to be nonnegative.  Raises
    ``SubsolverError`` on a non-finite input or a gap above ``tol``.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    _require_finite("theta", c=c, jac=jac)
    if jac.shape[0] == 1:
        return _theta_q1(c, jac, tol)

    # with J = U diag(sv) V', minimize ||c + U diag(sv) t||^2 over
    # ||t|| <= 1 and set s = V t; sv below 1e-14 of the largest is noise
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    gam = u.T @ c
    keep = sv > sv[0] * 1e-14
    t = np.where(keep, -gam / np.where(keep, sv, 1.0), 0.0)
    if float(np.linalg.norm(t)) > 1.0:
        beta = np.where(keep, -sv * gam, 0.0)
        t = beta / (sv**2 + _secular_root(sv**2, beta, 1.0))
    s = vt.T @ t
    r = c + jac @ s
    qv = float(r @ r)
    grad = 2.0 * (jac.T @ r)
    # Frank-Wolfe gap on the squared objective, mapped to the norm scale
    fw = max(float(grad @ s) + float(np.linalg.norm(grad)), 0.0)
    value = math.sqrt(qv)
    gap = value - math.sqrt(max(qv - fw, 0.0))
    if not (gap <= tol):
        raise SubsolverError(
            f"theta subsolver value gap {gap:.3e} exceeds tolerance {tol:.3e}", gap=gap
        )
    return BallSubproblemResult(s, value, gap, max(float(np.linalg.norm(c)) - value, 0.0))


def phi(
    g: np.ndarray,
    c: np.ndarray,
    jac: np.ndarray,
    rho: float,
    tol: float = DEFAULT_MEASURE_TOL,
) -> BallSubproblemResult:
    """Penalty steering measure of the linearized model.

    Evaluates ``rho*||c|| - min_{||s||<=1} ( <g, s> + rho*||c + J s|| )``
    exactly, for any number of constraints.  With ``mu*||s||^2/2`` added
    (``mu > 0``) this is the prox problem at ``gamma = 1/mu``, whose dual
    ``lam(mu)`` has ball multiplier ``nu``: ``s(mu)`` solves
    ``g + J' lam + mu*s = 0`` and ``c + J s = (nu/mu)*lam``, which the
    singular basis of ``J`` turns into sums without cancellation, and
    ``nu/mu`` is a root of the secular equation.  ``||s(mu)||`` does not
    increase with ``mu``; a regula falsi (Illinois, bisecting when the
    bracket fails to halve) finds ``||s(mu)|| = 1`` in
    ``(0, ||g|| + rho*||J||_F]``.  At ``mu = 0`` the least-norm minimizer
    of ``||g + J' lam||``, moved within null(J') towards ``c`` out to the
    sphere, gives ``s`` in closed form: the optimum if ``g`` lies in the
    row space of ``J`` and ``s`` fits the ball, else the search's seed.

    ``gap`` is ``P(s) - D(lam)``, ``D(lam) = <lam, c> - ||g + J' lam||``, for
    the best points seen (``s`` scaled into the ball); a negative ``rho``, a
    non-finite input or a gap above ``tol`` raises ``SubsolverError``.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    if rho < 0.0:
        raise SubsolverError(f"penalty parameter must be >= 0, got {rho}")
    _require_finite("phi", g=g, c=c, jac=jac)
    if rho == 0.0:  # the constraint term vanishes
        c, jac = np.zeros(1), np.zeros((1, g.size))
    # J = U diag(sv) V'; as in theta, sv below 1e-14 of the largest is zero
    u, sv, vt = np.linalg.svd(jac)
    k = int(np.count_nonzero(sv > sv[0] * 1e-14))
    sig, w = sv[:k], sv[:k] ** 2
    gt, ct = vt @ g, u.T @ c
    g_r, g_n, c_r, c_n = gt[:k], gt[k:], ct[:k], ct[k:]
    best_p, best_s, best_d = math.inf, np.zeros(g.size), -math.inf

    def offer(mu, ratio):
        # record the path point at mu with nu/mu = ratio; return ||s(mu)||
        nonlocal best_p, best_s, best_d
        lam = u @ np.concatenate((
            (mu * c_r - sig * g_r) / (ratio * mu + w),
            c_n / ratio if ratio > 0.0 else np.zeros(c_n.size),
        ))
        # s is -g_n/mu along null(J), and in the row space of J it solves
        # c + J s = ratio*lam: a solve and one refinement step
        s = vt[k:].T @ (g_n / -mu) if mu > 0.0 else np.zeros(g.size)
        for _ in range(2):
            s -= vt[:k].T @ ((u[:, :k].T @ (c + jac @ s - ratio * lam)) / sig)
        norm_s = _norm(s)
        s = s / max(norm_s, 1.0)
        p = float(g @ s) + rho * _norm(c + jac @ s)
        if p < best_p:
            best_p, best_s = p, s
        best_d = max(best_d, float(lam @ c) - _norm(g + jac.T @ lam))
        return norm_s

    # mu = 0: lam0 = U(-g_r/sig), plus the slack of the ball along c_n
    slack_sq = rho * rho - float(g_r @ (g_r / w))
    done, guess = False, 0.0
    if slack_sq > 0.0 or (slack_sq == 0.0 and not c_n.any()):
        norm_s0 = offer(0.0, _norm(c_n) / math.sqrt(slack_sq) if c_n.any() else 0.0)
        done = norm_s0 <= 1.0 and not g_n.any()
        if norm_s0 < 1.0:
            # the root if the mu = 0 point held: ||g_n||/mu fills the ball
            guess = _norm(g_n) / math.sqrt(1.0 - norm_s0 * norm_s0)
    lo, f_lo, f_hi, side, width = 0.0, -1.0, 0.0, 0, math.inf
    mu = hi = (_norm(g) + rho * _norm(jac.ravel())) or 1.0
    for _ in range(0 if done else 200):
        # nu/mu is 0 while the least-norm dual fits the ball
        beta = np.concatenate((c_r - sig * g_r / mu, c_n))
        if not c_n.any() and _norm(beta[:k] * (mu / w)) <= rho:
            norm_s = offer(mu, 0.0)
        else:
            norm_s = offer(mu, _secular_root(np.append(w / mu, 0.0 * c_n), beta, rho))
        f = 1.0 / norm_s - 1.0 if norm_s > 0.0 else 0.0  # s = 0 is optimal
        if f > 0.0:
            hi, f_hi = mu, f
            if side > 0:
                f_lo *= 0.5
            side = 1
        elif f < 0.0:
            lo, f_lo = mu, f
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:  # a root, or NaN
            break
        mu = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if hi - lo > 0.5 * width:  # a bracket that did not halve is bisected
            mu = 0.5 * (lo + hi)
        width = hi - lo
        if lo < guess < hi:
            mu, guess = guess, 0.0
        if not lo < mu < hi:
            break
    gap = max(best_p - best_d, 0.0)
    if not (gap <= tol):
        raise SubsolverError(f"phi duality gap {gap:.3e} exceeds tolerance {tol:.3e}", gap=gap)
    return BallSubproblemResult(best_s, best_p, gap, max(rho * _norm(c) - best_p, 0.0))
