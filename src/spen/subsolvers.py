"""Convex ball subproblems behind the composite prox step and criticality measures.

Three deterministic building blocks live here:

* :func:`prox_step` solves the proximal linearization
  ``min_u <g, u-x> + rho*||c + J(u-x)|| + ||u-x||^2/(2*gamma)``.
* :func:`theta` evaluates the infeasibility stationarity measure
  ``||c|| - min_{||s||<=1} ||c + J s||``.
* :func:`phi` evaluates the penalty steering measure
  ``rho*||c|| - min_{||s||<=1} ( <g, s> + rho*||c + J s|| )``.

Each one maximizes a concave diagonal quadratic over a ball, in a basis
from ``J``, with the one exact routine :func:`_ball_point` (the secular
equation of a ball-constrained quadratic).  Each returns a primal-dual gap
as a certificate, so callers never have to trust iteration counts.

The factorizations behind them are remembered, one of each kind: the
eigenbasis of ``gamma*J J'`` that :func:`prox_step` uses with two or more
constraint rows, and the SVD of ``J`` that :func:`theta` and :func:`phi`
share.  The last one is reused while its inputs repeat: the same ``gamma``
(prox only) and a ``J`` with the same shape, strides and bits.  A penalty
round runs thousands of prox steps at one ``gamma``, and with linear
constraints ``J`` never changes, so a round factorizes once.  A miss
computes the factorization as before, plus a copy of ``J``'s bytes for
the key, about a microsecond in all.
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


def _as_jacobian(jac) -> np.ndarray:
    """``np.atleast_2d`` of ``jac`` as floats, without its call overhead
    (about a microsecond) when ``jac`` already has two axes."""
    jac = np.asarray(jac, dtype=float)
    return jac if jac.ndim >= 2 else np.atleast_2d(jac)


def _secular_root(w: np.ndarray, beta: np.ndarray, radius: float) -> float:
    """Solve sum(beta^2/(w+nu)^2) = radius^2 for nu > 0.

    Standard trust-region secular equation with PSD eigenvalues ``w``;
    the root is bracketed in (0, ||beta||/radius] and polished by a
    safeguarded Newton iteration on 1/||lam(nu)|| - 1/radius, which stops
    on a step below 1e-16 of ``nu``, so tiny roots are found as accurately
    as large ones.
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
        nu_new = 0.5 * (lo + hi)
        # below 1e-100 nu**3 underflows, and above 1e100 denom**3 can
        # overflow (huge weights): bisect
        if nu > 1e-100 and denom.max() < 1e100:
            fp = float(np.sum(beta**2 / denom**3)) / (lam_norm_sq * lam_norm)
            step = nu - f / fp
            if lo < step < hi:
                nu_new = step
        if abs(nu_new - nu) <= 1e-16 * nu:
            nu = nu_new
            break
        nu = nu_new
    return nu


def _ball_point(w: np.ndarray, beta: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """Maximize ``<beta, y> - sum(w*y**2)/2`` over ``||y|| <= radius``, ``w >= 0``.

    Returns ``(y, nu)``, ``nu`` the multiplier of the ball.  If ``beta``
    vanishes where ``w`` does (to 1e-14 of ``||beta||``) and the least-norm
    stationary point fits the ball, that point is ``y`` and ``nu = 0``.
    Otherwise ``y = beta/(w + nu)`` with ``nu`` the root of the secular
    equation ``||y|| = radius``, which puts ``y`` on the sphere to rounding.
    """
    if radius == 0.0:
        return np.zeros(beta.size), 0.0
    if np.count_nonzero(w) == w.size:
        y, stray = beta / w, False
    else:
        zero = w == 0.0
        y = np.where(zero, 0.0, beta / np.where(zero, 1.0, w))
        stray = _norm(beta[zero]) > 1e-14 * _norm(beta)
    norm_y = _norm(y)
    if norm_y <= radius and not stray:
        return y, 0.0
    radius, norm_b = float(radius), _norm(beta)
    if radius < 1e-100 or norm_b > 1e100 * radius:
        # the secular iteration cubes ||y|| ~ radius and the root, which is
        # up to ||beta||/radius (a ratio that overflows outright for a
        # subnormal radius): solve for y/radius instead, the same problem
        # with beta and the ball scaled to unit norm, whose root
        # nu*radius/||beta|| is at most 1
        w_unit, beta_unit = w * (radius / norm_b), beta / norm_b
        nu = float(_secular_root(w_unit, beta_unit, 1.0))
        return beta_unit / (w_unit + nu) * radius, nu * (norm_b / radius)
    nu = _secular_root(w, beta, radius)
    if nu == 0.0:
        return y * (radius / max(norm_y, 1e-300)), 0.0
    return beta / (w + nu), nu


# The last factorization of each kind, as ``kind -> (key, *factors)``.
# The key holds the inputs' bits, so a hit returns what the factorization
# would compute again.  Each entry is replaced as one tuple, so threads at
# worst both compute it; the stored arrays are read-only.
_memo: dict[str, tuple] = {}


def _prox_eigenbasis(jac: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis ``(w, Q)`` of ``gamma*J J'``, eigenvalues ascending;
    those at the rounding floor are set to zero."""
    key = (gamma, jac.shape, jac.strides, jac.tobytes())
    entry = _memo.get("eigh")
    if entry is None or entry[0] != key:
        w, q_mat = np.linalg.eigh(gamma * (jac @ jac.T))
        floor = max(float(w[-1]), 1.0) * 1e-14
        if w[0] <= floor:
            w = np.where(w > floor, w, 0.0)
        w.setflags(write=False)
        q_mat.setflags(write=False)
        entry = _memo["eigh"] = (key, w, q_mat)
    return entry[1:]


def _singular_basis(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD ``J = U diag(sv) V'`` and the rank ``k``: singular values at
    or below 1e-14 of the largest are taken as zero."""
    key = (jac.shape, jac.strides, jac.tobytes())
    entry = _memo.get("svd")
    if entry is None or entry[0] != key:
        u, sv, vt = np.linalg.svd(jac)
        for a in (u, sv, vt):
            a.setflags(write=False)
        entry = _memo["svd"] = (key, u, sv, vt, int(np.count_nonzero(sv > sv[0] * 1e-14)))
    return entry[1:]


def prox_step(
    x: np.ndarray,
    g: np.ndarray,
    c: np.ndarray,
    jac: np.ndarray,
    rho: float,
    gamma: float,
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

    Returns
    -------
    ProxResult
        With stationarity ``g + J' lam + d/gamma = 0`` holding exactly by
        construction and ``gap <= DEFAULT_PROX_TOL`` certified.

    Raises
    ------
    SubsolverError
        If the certified gap exceeds ``DEFAULT_PROX_TOL`` or is not a
        number.

    Notes
    -----
    As ``d`` is built from ``lam``, primal minus dual is exactly the gap
    ``rho*||t|| - <lam, t>`` for the linearized residual ``t = c + J d``,
    a certificate since ``||lam|| <= rho``.  With one constraint row ``j``
    the dual is the scalar ``lam = clip(b/a, -rho, rho)`` with
    ``a = gamma*||j||^2`` and ``b = c - gamma*<j, g>``.  With more rows the
    eigenbasis of ``gamma*J J'`` is computed once and reused while
    ``gamma`` and ``J``'s shape, strides and bits repeat, so a loop at one
    step size with a constant ``J`` (linear constraints) pays one ``eigh``;
    when either changes, a call costs what it did without the reuse, plus
    about a microsecond to key and store the new basis.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = _as_jacobian(jac)
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
        # in the eigenbasis of gamma*J J' the dual is a ball quadratic
        # ndarray.dot: the bits of @ at about half its dispatch cost
        w, q_mat = _prox_eigenbasis(jac, gamma)
        lam = q_mat.dot(_ball_point(w, q_mat.T.dot(c - gamma * jac.dot(g)), rho)[0])
        if rho > 0.0:
            # rotating y rounds each entry; for a subnormal rho that grid is
            # coarse enough to leave lam well outside the ball.  ||lam/rho||,
            # unlike ||lam||, does not underflow there.  Scaling rounds to the
            # same grid, so each entry then steps one ulp toward zero, below
            # its exact scaled value: (5e-324, 5e-324) at rho = 5e-324 has no
            # nearer point in the ball than 0
            ratio = _norm(lam / rho)
            if ratio > 1.0 + 1e-14:
                lam = np.nextafter(lam / ratio, 0.0)
        p_gamma = g + jac.T.dot(lam)
        d = -gamma * p_gamma
        t = c + jac.dot(d)
        gap = max(rho * _norm(t) - float(lam.dot(t)), 0.0)
    _check_gap("prox", gap, DEFAULT_PROX_TOL)
    return ProxResult(np.asarray(x, dtype=float) + d, d, lam, p_gamma, gap)


def _theta_q1(c: np.ndarray, jac: np.ndarray) -> BallSubproblemResult:
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


def _check_gap(name: str, gap: float, tol: float) -> None:
    if not (gap <= tol):  # also rejects a NaN gap
        raise SubsolverError(f"{name} duality gap {gap:.3e} exceeds tolerance {tol:.3e}", gap=gap)


def _require_finite(measure: str, **arrays: np.ndarray) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise SubsolverError(f"{measure} input {name} has a non-finite entry")


def theta(c: np.ndarray, jac: np.ndarray) -> BallSubproblemResult:
    """Infeasibility stationarity measure ``||c|| - min_{||s||<=1} ||c + J s||``.

    With ``J = U diag(sv) V'`` and ``t = V's``, minimizing ``||c + J s||^2/2``
    over the unit ball is the ball quadratic with weights ``sv^2`` and
    linear term ``-sv*U'c``, solved exactly by :func:`_ball_point`; singular
    values down to 1e-14 of the largest are kept.  ``value`` is the attained
    residual norm ``||r||``, ``r = c + J s``, and ``gap`` is ``phi``'s
    primal-dual gap at ``g = 0``, ``rho = 1``: ``||r|| - D(lam)`` with
    ``D(lam) = <lam, c> - ||J' lam||`` at the better of ``lam = 0`` and
    ``lam = r/||r||``.  The measure is clamped to be nonnegative.  Raises
    ``SubsolverError`` on a non-finite input or a gap above
    ``DEFAULT_MEASURE_TOL``.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = _as_jacobian(jac)
    _require_finite("theta", c=c, jac=jac)
    if jac.shape[0] == 1:
        return _theta_q1(c, jac)

    u, sv, vt, k = _singular_basis(jac)
    sig = sv[:k]
    s = vt[:k].T @ _ball_point(sig**2, -sig * (u[:, :k].T @ c), 1.0)[0]
    r = c + jac @ s
    value = _norm(r)
    # lam = 0 gives D = 0; when r is at rounding level, r/||r|| is noise
    dual = (float(r @ c) - _norm(jac.T @ r)) / value if value > 0.0 else 0.0
    gap = max(value - max(dual, 0.0), 0.0)
    _check_gap("theta", gap, DEFAULT_MEASURE_TOL)
    return BallSubproblemResult(s, value, gap, max(float(np.linalg.norm(c)) - value, 0.0))


def phi(g: np.ndarray, c: np.ndarray, jac: np.ndarray, rho: float) -> BallSubproblemResult:
    """Penalty steering measure of the linearized model.

    Evaluates ``rho*||c|| - min_{||s||<=1} ( <g, s> + rho*||c + J s|| )``
    exactly, for any number of constraints.  With ``mu*||s||^2/2`` added
    (``mu > 0``) this is the prox problem at ``gamma = 1/mu``, whose dual
    ``lam(mu)`` has ball multiplier ``nu``: ``s(mu)`` solves
    ``g + J' lam + mu*s = 0`` and ``c + J s = (nu/mu)*lam``, which the
    singular basis of ``J`` turns into sums without cancellation.  In that
    basis the dual is a ball quadratic with weights ``sv^2/mu`` (zero on
    null(J')), and :func:`_ball_point` returns ``nu/mu`` as its ball
    multiplier.  ``||s(mu)||`` does not increase with ``mu``; a regula
    falsi (Illinois, bisecting when the bracket fails to halve) finds
    ``||s(mu)|| = 1`` in ``(0, ||g|| + rho*||J||_F]``.  At ``mu = 0`` the
    least-norm minimizer of ``||g + J' lam||``, moved within null(J')
    towards ``c`` out to the sphere, gives ``s`` in closed form: the optimum
    if ``g`` lies in the row space of ``J`` and ``s`` fits the ball, else
    the search's seed.

    ``gap`` is ``P(s) - D(lam)``, ``D(lam) = <lam, c> - ||g + J' lam||``, for
    the best points seen (``s`` scaled into the ball); a negative ``rho``, a
    non-finite input or a gap above ``DEFAULT_MEASURE_TOL`` raises
    ``SubsolverError``.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    jac = _as_jacobian(jac)
    if rho < 0.0:
        raise SubsolverError(f"penalty parameter must be >= 0, got {rho}")
    _require_finite("phi", g=g, c=c, jac=jac)
    if rho == 0.0:  # the constraint term vanishes
        c, jac = np.zeros(1), np.zeros((1, g.size))
    u, sv, vt, k = _singular_basis(jac)
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
        # nu/mu is the ball multiplier of the prox dual at gamma = 1/mu
        beta = np.concatenate((c_r - sig * g_r / mu, c_n))
        norm_s = offer(mu, _ball_point(np.append(w / mu, 0.0 * c_n), beta, rho)[1])
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
    _check_gap("phi", gap, DEFAULT_MEASURE_TOL)
    return BallSubproblemResult(best_s, best_p, gap, max(rho * _norm(c) - best_p, 0.0))
