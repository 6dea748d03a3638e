"""Shared helpers: brute-force grid references for the ball subproblems.

The reference evaluates each inner minimum by exhaustive search over a
uniform grid on the unit ball. Grid spacing per dimension is chosen so a
full sweep stays affordable; random instances are rescaled so that the
grid coverage error (Lipschitz constant times half the cell diagonal)
stays below ``COVER_BUDGET``, far inside the comparison tolerances the
tests use. Grids are cached per dimension and reused across instances.
"""

import math

import numpy as np

GRID_SPACING = {1: 1.0e-3, 2: 1.5e-3, 3: 1.6e-2}
COVER_BUDGET = 4.0e-5
CHUNK_POINTS = 32768

_GRID_CACHE: dict[int, np.ndarray] = {}


def unit_ball_grid(n: int) -> np.ndarray:
    """All points of the uniform grid on [-1, 1]^n with norm <= 1, one per
    column: shape (n, M)."""
    if n not in GRID_SPACING:
        raise ValueError(f"no grid spacing declared for dimension {n}")
    if n not in _GRID_CACHE:
        delta = GRID_SPACING[n]
        axis = np.linspace(-1.0, 1.0, 2 * round(1.0 / delta) + 1)
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = (pts * pts).sum(axis=1) <= 1.0 + 1e-12
        _GRID_CACHE[n] = np.ascontiguousarray(pts[keep].T)
    return _GRID_CACHE[n]


def cover_radius(n: int) -> float:
    """Half cell diagonal: every ball point is within this of a grid point."""
    return GRID_SPACING[n] * math.sqrt(n) / 2.0


def draw_instance(rng: np.random.Generator, n: int, q: int):
    """Random (g, c, jac, rho, gamma) rescaled for the grid coverage budget.

    Rescaling multiplies g, c and J by a common factor, which scales the
    theta/phi measures and the prox objective linearly, so agreement with
    the grid reference at the rescaled instance certifies the solvers at
    the same relative accuracy.
    """
    g = rng.standard_normal(n)
    c = rng.standard_normal(q)
    jac = rng.standard_normal((q, n))
    rho = float(rng.uniform(0.5, 3.0))
    gamma = float(rng.uniform(0.3, 1.0))
    lip = float(np.linalg.norm(g)) + rho * float(np.linalg.norm(jac, 2))
    alpha = min(1.0, COVER_BUDGET / (cover_radius(n) * lip))
    return alpha * g, alpha * c, alpha * jac, rho, gamma


def prox_objective(d, g, c, jac, rho, gamma):
    return float(g @ d) + rho * float(np.linalg.norm(c + jac @ d)) + float(d @ d) / (2.0 * gamma)


def grid_references(g, c, jac, rho, gamma) -> tuple[float, float, float]:
    """``(prox, theta, phi)`` by exhaustive search, from one sweep of the grid.

    theta is ``||c||`` minus the grid minimum of ``||c + J s||``, phi is
    ``rho*||c||`` minus that of ``<g, s> + rho*||c + J s||``, and prox is the
    minimum prox-model value.  The prox minimizer satisfies
    ``||d|| <= gamma*(||g|| + rho*||J||)``, so its grid is the unit-ball grid
    stretched by that radius.  One product of ``[g'; J]`` with the grid,
    taken ``CHUNK_POINTS`` points at a time, serves all three.
    """
    pts = unit_ball_grid(jac.shape[1])
    radius = gamma * (float(np.linalg.norm(g)) + rho * float(np.linalg.norm(jac, 2)))
    mat = np.vstack((g, jac))
    col = c[:, None]
    prox = theta = phi = math.inf
    for start in range(0, pts.shape[1], CHUNK_POINTS):
        chunk = pts[:, start:start + CHUNK_POINTS]
        prod = mat @ chunk
        lin, img = prod[0], prod[1:]
        res = np.sqrt(((col + img) ** 2).sum(axis=0))
        theta = min(theta, float(res.min()))
        phi = min(phi, float((lin + rho * res).min()))
        model = (
            radius * lin
            + rho * np.sqrt(((col + radius * img) ** 2).sum(axis=0))
            + radius * radius * (chunk * chunk).sum(axis=0) / (2.0 * gamma)
        )
        prox = min(prox, float(model.min()))
    norm_c = float(np.linalg.norm(c))
    return prox, norm_c - theta, rho * norm_c - phi
