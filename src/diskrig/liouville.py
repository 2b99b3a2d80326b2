"""Dirichlet solver for the curvature equation Lap u = -kappa(z) e^(2u).

Solves for u = log density on a disk of radius R < 1 with finite
boundary data, via damped Newton on a second-order finite-difference
system.  The Cartesian grid is masked to the disk; stencil legs that
cross the circle are shortened to end exactly on it (Shortley-Weller),
which keeps the scheme second order up to the boundary.  A factored
variant Lap log v = -kappa |z - xi|^(2 alpha) v^2 handles densities with
one prescribed zero.

The solver doubles as a factory for variable-curvature test metrics:
``make_pinched_metric`` wraps a solution in a Pseudometric whose pinch
bounds come from the requested curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import RectBivariateSpline

from .metric import MetricError, Pseudometric
from .numerics import DiskrigError

DEFAULT_N = 129
AHLFORS_MARGIN = 0.5


class LiouvilleError(DiskrigError, RuntimeError):
    """Raised when the nonlinear solve cannot be completed."""


@dataclass(frozen=True)
class DirichletProblem:
    """Curvature equation data on the disk |z| < R.

    ``kappa`` maps complex points to curvature values (vectorized),
    ``pinch`` declares its bounds, ``boundary`` maps angles to log-density
    Dirichlet data on |z| = R.  ``zero_factor`` = (xi, alpha) switches to
    the factored equation for a density with a zero of order alpha at xi;
    the boundary data then describes log(density / |z - xi|^alpha).
    """

    R: float
    kappa: Callable
    pinch: tuple[float, float]
    boundary: Callable
    zero_factor: tuple[complex, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise MetricError("construction radius must lie in (0, 1)")
        if self.pinch[0] > self.pinch[1] or self.pinch[1] > -4.0 + 1e-12:
            raise MetricError("curvature pinch must satisfy low <= high <= -4")


@dataclass
class LiouvilleSolution:
    problem: DirichletProblem
    xs: np.ndarray
    ys: np.ndarray
    u: np.ndarray               # 2D, NaN outside the disk
    mask: np.ndarray
    residual_history: list[float]
    iterations: int
    converged: bool

    @property
    def h(self) -> float:
        return float(self.xs[1] - self.xs[0])


def hyperbolic_log_density(z):
    return -np.log(1.0 - np.abs(z) ** 2)


def poincare_problem(R: float = 0.9) -> DirichletProblem:
    """Constant curvature -4 with exact hyperbolic boundary data."""
    return DirichletProblem(
        R=R,
        kappa=lambda z: np.full(np.shape(z), -4.0),
        pinch=(-4.0, -4.0),
        boundary=lambda theta: np.full(np.shape(theta), -np.log(1.0 - R**2)),
    )


def radial_pinched_kappa(z):
    """The variable-curvature test profile -4 - |z|^2, pinched in [-5, -4]."""
    return -4.0 - np.abs(z) ** 2


def pinched_problem(R: float = 0.9) -> DirichletProblem:
    return DirichletProblem(
        R=R,
        kappa=radial_pinched_kappa,
        pinch=(-5.0, -4.0),
        boundary=lambda theta: np.full(np.shape(theta), -np.log(1.0 - R**2)),
    )


def _one_sided_weights(a: float, h: float, depth: int) -> np.ndarray:
    """Weights at offsets (a, 0, -h, ..., -depth*h) for u''(0).

    Used where a stencil leg is shortened to the circle crossing at
    distance a; the extra inner nodes cancel the low-order terms a plain
    three-point unequal-arm formula would leave (local accuracy
    O(h^(depth-1))).
    """
    xs = np.array([a, 0.0] + [-k * h for k in range(1, depth + 1)])
    m = np.vstack([xs**p / math.factorial(p) for p in range(depth + 2)])
    rhs = np.zeros(depth + 2)
    rhs[2] = 1.0
    return np.linalg.solve(m, rhs)


def _assemble(problem: DirichletProblem, n: int):
    """Disk-masked finite differences, fourth order in the interior.

    Interior nodes with all eight neighbors inside get the compact
    nine-point operator (which equals Lap + h^2/12 Lap^2 to O(h^4) and is
    paired in the solver with the matching h^2/12 Lap F source term).
    Nodes near the circle use shortened legs ending exactly on it, with a
    cubic-fit four-point arm where an extra inner node is available.

    Returns (xs, ys, mask, A, b, L5, compact_mask, pts): A acts on
    interior unknowns, b collects boundary contributions, L5 is the
    five-point Laplacian on the compact rows (zero elsewhere) for the
    source correction.
    """
    R = problem.R
    xs = np.linspace(-R, R, n)
    ys = np.linspace(-R, R, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = X**2 + Y**2 < R**2 * (1.0 - 1e-14)
    idx = -np.ones((n, n), dtype=int)
    idx[inside] = np.arange(int(inside.sum()))
    n_unknown = int(inside.sum())

    rows, cols, vals = [], [], []
    l5_rows, l5_cols, l5_vals = [], [], []
    b = np.zeros(n_unknown)
    pts = (X + 1j * Y)[inside]
    compact_mask = np.zeros(n_unknown, dtype=bool)

    def boundary_value(x, y):
        return float(problem.boundary(np.arctan2(y, x)))

    def inb(pi, pj):
        return 0 <= pi < n and 0 <= pj < n and inside[pi, pj]

    ii, jj = np.nonzero(inside)
    for i, j in zip(ii, jj):
        k = idx[i, j]
        x, y = xs[i], ys[j]
        neighbors8 = [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)]
        if all(inb(pi, pj) for pi, pj in neighbors8):
            compact_mask[k] = True
            # nine-point compact operator
            for (di, dj), w in (((1, 0), 4.0), ((-1, 0), 4.0), ((0, 1), 4.0),
                                ((0, -1), 4.0), ((1, 1), 1.0), ((1, -1), 1.0),
                                ((-1, 1), 1.0), ((-1, -1), 1.0)):
                rows.append(k); cols.append(idx[i + di, j + dj])
                vals.append(w / (6.0 * h**2))
            rows.append(k); cols.append(k); vals.append(-20.0 / (6.0 * h**2))
            # matching five-point Laplacian for the source correction
            for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                l5_rows.append(k); l5_cols.append(idx[i + di, j + dj])
                l5_vals.append(1.0 / h**2)
            l5_rows.append(k); l5_cols.append(k); l5_vals.append(-4.0 / h**2)
            continue

        # boundary-layer node: per-axis shortened legs
        for axis in (0, 1):
            step = (1, 0) if axis == 0 else (0, 1)
            arms = []
            for sgn in (-1.0, 1.0):
                nb = (i + int(sgn) * step[0], j + int(sgn) * step[1])
                if inb(*nb):
                    arms.append((1.0, idx[nb], None))
                else:
                    other = y if axis == 0 else x
                    base = x if axis == 0 else y
                    cross = sgn * np.sqrt(max(R**2 - other**2, 0.0))
                    frac = min(max((cross - base) / (sgn * h), 1e-6), 1.0)
                    gx, gy = (cross, y) if axis == 0 else (x, cross)
                    arms.append((frac, -1, boundary_value(gx, gy)))
            (tm, km, gm), (tp, kp, gp) = arms

            def inner_chain(sgn, depth):
                chain = []
                for d in range(1, depth + 1):
                    nb = (i + int(sgn) * d * step[0], j + int(sgn) * d * step[1])
                    if not inb(*nb):
                        return None
                    chain.append(idx[nb])
                return chain

            short_sgn = None
            if km >= 0 and kp < 0:
                short_sgn, frac, gval = -1, tp, gp
            elif kp >= 0 and km < 0:
                short_sgn, frac, gval = 1, tm, gm

            handled = False
            if short_sgn is not None:
                for depth in (3, 2):
                    chain = inner_chain(short_sgn, depth)
                    if chain is not None:
                        w = _one_sided_weights(frac * h, h, depth)
                        rows.append(k); cols.append(k); vals.append(w[1])
                        for d, kk in enumerate(chain):
                            rows.append(k); cols.append(kk)
                            vals.append(w[2 + d])
                        b[k] += w[0] * gval
                        handled = True
                        break
            if not handled:
                # plain unequal-arm formula (both legs short, or sliver)
                wm = 2.0 / (tm * (tm + tp)) / h**2
                wp = 2.0 / (tp * (tm + tp)) / h**2
                wc = -2.0 / (tm * tp) / h**2
                rows.append(k); cols.append(k); vals.append(wc)
                if km >= 0:
                    rows.append(k); cols.append(km); vals.append(wm)
                else:
                    b[k] += wm * gm
                if kp >= 0:
                    rows.append(k); cols.append(kp); vals.append(wp)
                else:
                    b[k] += wp * gp

    A = sp.csr_matrix((vals, (rows, cols)), shape=(n_unknown, n_unknown))
    L5 = sp.csr_matrix((l5_vals, (l5_rows, l5_cols)),
                       shape=(n_unknown, n_unknown))
    return xs, ys, inside, A, b, L5, compact_mask, pts


def solve(problem: DirichletProblem, n: int = DEFAULT_N, max_iter: int = 40,
          tol: float = 1e-10) -> LiouvilleSolution:
    """Damped Newton iteration on the finite-difference curvature system.

    The initial iterate is the harmonic extension of the boundary data;
    steps are halved until the residual decreases, and iterates are
    clamped below the extremal-density ceiling (log hyperbolic density
    plus a margin) to keep the exponential term controlled.
    """
    if n < 64:
        raise MetricError("grid resolution must be at least 64 per side")
    xs, ys, inside, A, b, L5, compact, pts = _assemble(problem, n)
    h_grid = float(xs[1] - xs[0])
    kv = np.asarray(problem.kappa(pts), dtype=float)
    if problem.zero_factor is not None:
        xi, alpha = problem.zero_factor
        kv = kv * np.abs(pts - xi) ** (2.0 * alpha)
        cap = hyperbolic_log_density(pts) + AHLFORS_MARGIN \
            - alpha * np.log(np.maximum(np.abs(pts - xi), 1e-300))
    else:
        cap = hyperbolic_log_density(pts) + AHLFORS_MARGIN

    # source operator I + h^2/12 L5 completes the compact rows to O(h^4)
    source_op = (sp.identity(len(pts), format="csr")
                 + (h_grid**2 / 12.0) * L5)

    u = spla.spsolve(A, -b)
    u = np.minimum(u, cap)

    def residual(uv):
        return A @ uv + b + source_op @ (kv * np.exp(2.0 * uv))

    # row-scaled norm: stencil legs shortened to nearly nothing produce
    # rows of size 2/(theta h^2), so an unscaled max norm is meaningless
    row_scale = np.maximum(np.asarray(np.abs(A).sum(axis=1)).ravel(), 1.0)

    def scaled_norm(res):
        return float(np.max(np.abs(res) / row_scale))

    res = residual(u)
    res_norm = scaled_norm(res)
    history = [res_norm]
    converged = res_norm <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        jac = A + source_op @ sp.diags(2.0 * kv * np.exp(2.0 * u))
        delta = spla.spsolve(jac.tocsc(), -res)
        step = 1.0
        while step >= 1.0 / 64.0:
            trial = np.minimum(u + step * delta, cap)
            trial_res = residual(trial)
            trial_norm = scaled_norm(trial_res)
            if trial_norm < res_norm:
                break
            step *= 0.5
        else:
            if res_norm <= 1e-9:
                break  # at the rounding floor, accept
            raise LiouvilleError(
                f"Newton stalled at iteration {it}; residual history {history}")
        u, res, res_norm = trial, trial_res, trial_norm
        history.append(res_norm)
        converged = res_norm <= tol
    if not converged and res_norm > 1e-9:
        raise LiouvilleError(
            f"no convergence in {max_iter} iterations; residual history {history}")

    U = np.full((n, n), np.nan)
    U[inside] = u
    return LiouvilleSolution(problem=problem, xs=xs, ys=ys, u=U, mask=inside,
                             residual_history=history, iterations=it,
                             converged=True)


def _filled_grid(sol: LiouvilleSolution) -> np.ndarray:
    """Replace exterior NaNs by radial continuation of the boundary data."""
    U = sol.u.copy()
    n = len(sol.xs)
    X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    outside = ~sol.mask
    theta = np.arctan2(Y[outside], X[outside])
    U[outside] = np.asarray(sol.problem.boundary(theta), dtype=float)
    return U


def solution_interpolator(sol: LiouvilleSolution):
    """Bicubic interpolant of log density over the solved disk."""
    U = _filled_grid(sol)
    return RectBivariateSpline(sol.xs, sol.ys, U, kx=3, ky=3, s=0)


def make_pinched_metric(kappa: Callable | None = None,
                        pinch: tuple[float, float] = (-5.0, -4.0),
                        R_construct: float = 0.9, n: int = DEFAULT_N,
                        boundary: Callable | None = None) -> Pseudometric:
    """Wrap a solved variable-curvature density as a Pseudometric.

    Defaults to the -4 - |z|^2 profile with hyperbolic boundary data.
    The density is a bicubic interpolant valid on |z| <= 0.95 R; its
    curvature provider is the target curvature function itself, which
    the solve enforces up to the Newton tolerance (finite-difference
    self-consistency is exercised separately in the tests).
    """
    if kappa is None:
        kappa = radial_pinched_kappa
    if boundary is None:
        boundary = (lambda theta:
                    np.full(np.shape(theta), -np.log(1.0 - R_construct**2)))
    problem = DirichletProblem(R=R_construct, kappa=kappa, pinch=pinch,
                               boundary=boundary)
    sol = solve(problem, n=n)
    spline = solution_interpolator(sol)
    r_valid = 0.95 * R_construct

    def density(z):
        za = np.asarray(z)
        if np.any(np.abs(za) > r_valid + 1e-12):
            raise MetricError(
                f"constructed metric only valid on |z| <= {r_valid:.4g}")
        return np.exp(spline.ev(np.real(za), np.imag(za)))

    return Pseudometric(density=density, zeros=(), curvature=kappa,
                        pinch=pinch, name=f"pinched(c={-pinch[0]:g})",
                        domain_radius=r_valid)
