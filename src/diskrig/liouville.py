"""Dirichlet solver for the curvature equation Lap u = -kappa(z) e^(2u).

Solves for u = log density on a disk of radius R < 1 with finite
boundary data, by Chebyshev-Fourier collocation in polar coordinates
(Trefethen, Spectral Methods in MATLAB, SIAM 2000, program 29): N + 1
Chebyshev points in r on [-1, 1], N odd so that no node sits at the
centre, and M Fourier points in theta.  A point at -r is the point at r
turned by pi, so the unknowns are the (N - 1)/2 positive interior radii
times M angles.  Damped Newton solves the dense collocation system from
the harmonic start.  The Chebyshev and Fourier coefficient tails of the
solution estimate its error (Aurentz & Trefethen, ACM TOMS 43, 2017).

One interpolant, barycentric in r and trigonometric in theta
(``PolarInterpolant``), gives both the samples on the n x n grid and the
density of ``make_pinched_metric``.  The module needs numpy alone.

The solver doubles as a factory for a variable-curvature test metric:
``make_pinched_metric`` wraps the solution of ``pinched_problem`` in a
Pseudometric whose pinch bounds are that problem's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metric import MetricError, Pseudometric
from .numerics import DiskrigError

DEFAULT_N = 129
#: Newton tolerance on the row-scaled max-norm residual; ``solve`` also
#: accepts a stalled iteration at the rounding floor 1e-9 above it
NEWTON_TOL = 1e-10
#: Newton stops once a step moves no value of u by more than this
STEP_TOL = 1e-13
#: Newton steps ``solve`` takes before it refuses
NEWTON_MAX_ITER = 40
AHLFORS_MARGIN = 0.5
#: largest Chebyshev degree: there the flat problem's error is 1e-13, the
#: rounding floor the off-centre test problem reaches from N = 47 on
N_MAX = 61
#: largest error estimate ``solve`` accepts: a density error of at most
#: 5e-4 (acceptance criterion 5) on |z| < R = 0.9, where the density is at
#: most 1 / (1 - R^2) and a density error is the density times the error of u
ESTIMATE_TOL = 5e-4 * (1.0 - 0.9**2)
#: points the interpolant evaluates at a time
BLOCK = 2048


class LiouvilleError(DiskrigError, RuntimeError):
    """Raised when the nonlinear solve cannot be completed."""


@dataclass(frozen=True)
class DirichletProblem:
    """Curvature equation data on the disk |z| < R.

    ``kappa`` maps complex points to curvature values (vectorized),
    ``pinch`` declares its bounds, ``boundary`` maps angles to log-density
    Dirichlet data on |z| = R.
    """

    R: float
    kappa: Callable
    pinch: tuple[float, float]
    boundary: Callable

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise MetricError("construction radius must lie in (0, 1)")
        if not self.pinch[0] <= self.pinch[1] <= -4.0 + 1e-12:     # NaN too
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
    step_sizes: list[float]         # accepted damping of each Newton step
    resolution: tuple[int, int]     # (N, M): Chebyshev degree, Fourier points
    error_estimate: float           # coefficient tails of u, in r and theta
    values: np.ndarray              # u at the N + 1 Chebyshev x M Fourier nodes


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


def resolution(n: int) -> tuple[int, int]:
    """(N, M) for an n x n sample grid: N the odd number nearest
    6 log2(n) - 13, at most ``N_MAX``, and M = N + 1.

    n = 65, 97, 129, 257 and 513 get N = 23, 27, 29, 35 and 41, so the
    error at the sample nodes falls from each to the next (at one (N, M)
    the n = 257 nodes include the n = 129 ones, and the error could only
    grow).  M sets the error of a non-radial solution: with M = N - 5 the
    off-centre test problem's is 70 times larger at n = 129, for a quarter
    less time.
    """
    N = min(2 * math.floor((6.0 * math.log2(n) - 13.0) / 2.0) + 1, N_MAX)
    return N, N + 1


def _cheb(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points cos(j pi / N), j = 0..N, and their differentiation
    matrix (Trefethen 2000, cheb.m)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[[0, N]] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def _laplacian(R: float, N: int, M: int):
    """The collocation Laplacian on |z| < R: (L, B, r) with L acting on
    the unknowns u[i, k] at radius R r_i, angle 2 pi k / M (flattened
    i-major), and B the two boundary columns, at angle theta_k and at
    theta_k + pi."""
    x, D = _cheb(N)
    half = (N - 1) // 2
    r = x[1:half + 1]
    # u_rr + u_r / r on the positive radii, against all N + 1 points; the
    # point at x_j < 0 is radius -x_j at angle + pi
    radial = (D @ D + D / x[:, None])[1:half + 1] / R**2
    dt = 2.0 * np.pi / M
    k = np.arange(1, M)
    column = np.concatenate([[-np.pi**2 / (3.0 * dt**2) - 1.0 / 6.0],
                             0.5 * (-1.0) ** (k + 1) / np.sin(k * dt / 2.0) ** 2])
    idx = np.arange(M)
    d2t = column[np.abs(idx[:, None] - idx[None, :])]
    turn = np.roll(np.eye(M), M // 2, axis=1)      # (turn u)_k = u_(k + M/2)
    L = (np.kron(radial[:, 1:half + 1], np.eye(M))
         + np.kron(radial[:, N - 1:half:-1], turn)
         + np.kron(np.diag(1.0 / (R * r) ** 2), d2t))
    return L, radial[:, [0, N]], r


def _load(problem: DirichletProblem, pts: np.ndarray, angles: np.ndarray):
    """A problem's data at the nodes: boundary values g at ``angles``,
    curvature kv and the iterate ceiling at ``pts``.

    Refuses the first non-finite boundary value, naming its angle, and the
    first node where kappa is not finite or lies outside the declared
    pinch: such data would otherwise surface only as a stalled Newton
    iteration."""
    g = np.asarray(problem.boundary(angles), dtype=float)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise MetricError(f"boundary value {g[bad[0]]} at angle "
                          f"{angles[bad[0]]} is not finite")
    kv = np.asarray(problem.kappa(pts), dtype=float)
    low, high = problem.pinch
    bad = np.flatnonzero(~np.isfinite(kv) | (kv < low) | (kv > high))
    if bad.size:
        k = bad[0]
        cause = ("is not finite" if not np.isfinite(kv[k])
                 else f"lies outside the declared pinch [{low:g}, {high:g}]")
        raise MetricError(f"curvature {kv[k]} at node {pts[k]} {cause}")
    return g, kv, hyperbolic_log_density(pts) + AHLFORS_MARGIN


def _newton(L: np.ndarray, b: np.ndarray, kv: np.ndarray, cap: np.ndarray):
    """Damped Newton on L u + b + kv e^(2u) = 0 from min(L^-1 (-b), cap).
    Returns (u, residual history, step sizes, iterations)."""
    row_scale = np.abs(L).sum(axis=1)

    def residual(uv):
        return L @ uv + b + kv * np.exp(2.0 * uv)

    def scaled_norm(res):
        return float(np.max(np.abs(res) / row_scale))

    u = np.minimum(np.linalg.solve(L, -b), cap)
    res = residual(u)
    res_norm = scaled_norm(res)
    history = [res_norm]
    step_sizes: list[float] = []
    diagonal = np.arange(len(u))
    converged = False
    it = 0
    while not converged and it < NEWTON_MAX_ITER:
        it += 1
        J = L.copy()
        J[diagonal, diagonal] += 2.0 * kv * np.exp(2.0 * u)
        delta = np.linalg.solve(J, -res)
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
        converged = float(np.max(np.abs(trial - u))) <= STEP_TOL
        u, res, res_norm = trial, trial_res, trial_norm
        history.append(res_norm)
        step_sizes.append(step)
    if not converged and res_norm > 1e-9:
        raise LiouvilleError(
            f"no convergence in {NEWTON_MAX_ITER} iterations; "
            f"residual history {history}")
    return u, history, step_sizes, it


def _tails(values: np.ndarray) -> float:
    """Chebyshev tail plus Fourier tail of u on the (N + 1) x M nodes.

    The Chebyshev coefficients of each angle's diameter come from its
    even extension; their tail is the largest |a_N-1| + |a_N| over the
    angles (the two cover both parities: a radial u is even in r).  The
    Fourier tail is the largest, over the radii, of the amplitudes at the
    two highest wavenumbers M/2 - 1 and M/2."""
    N, M = values.shape[0] - 1, values.shape[1]
    even = np.concatenate([values, values[N - 1:0:-1]])
    cheb = np.abs(np.fft.rfft(even, axis=0)[N - 1:N + 1].real) / N
    cheb[1] /= 2.0
    fourier = np.abs(np.fft.rfft(values, axis=1)[:, M // 2 - 1:]) / M
    fourier[:, 0] *= 2.0
    return float(np.max(cheb.sum(axis=0)) + np.max(fourier.sum(axis=1)))


def solve(problem: DirichletProblem, n: int = DEFAULT_N) -> LiouvilleSolution:
    """Damped Newton iteration on the Chebyshev-Fourier collocation system,
    sampled on the n x n grid over [-R, R]^2.

    n sets the resolution (N, M) = ``resolution(n)``.  The first iterate
    is the harmonic extension of the boundary data.  Each Newton system
    L + diag(2 kappa e^(2u)) is solved densely; steps are halved until the
    row-scaled max-norm residual decreases, and iterates are clamped below
    the extremal-density ceiling (log hyperbolic density plus a margin) to
    keep the exponential term controlled.  The iteration stops once a step
    moves u by at most ``STEP_TOL``, a bound in the units of u's error
    rather than of the residual; the row-scaled residual is then at its
    rounding floor near 1e-16, far below ``NEWTON_TOL``.  It refuses after
    ``NEWTON_MAX_ITER`` steps.  Problem data that is not finite, or
    curvature outside the declared pinch, is refused before the first step
    (``_load``), and a solution whose coefficient tails (``_tails``)
    exceed ``ESTIMATE_TOL`` is refused after the last: such data is not
    resolved at this n.
    """
    if n < 64:
        raise MetricError("grid resolution must be at least 64 per side")
    R = problem.R
    N, M = resolution(n)
    L, boundary_columns, r = _laplacian(R, N, M)
    angles = 2.0 * np.pi * np.arange(M) / M
    pts = (R * r[:, None] * np.exp(1j * angles)).ravel()
    g, kv, cap = _load(problem, pts, angles)
    turned = np.roll(g, -(M // 2))
    b = (np.outer(boundary_columns[:, 0], g)
         + np.outer(boundary_columns[:, 1], turned)).ravel()
    u, history, step_sizes, it = _newton(L, b, kv, cap)
    interior = u.reshape(len(r), M)
    values = np.concatenate([[g], interior,
                             np.roll(interior[::-1], -(M // 2), axis=1), [turned]])
    estimate = _tails(values)
    if not estimate <= ESTIMATE_TOL:
        raise LiouvilleError(
            f"error estimate {estimate:.3e} exceeds {ESTIMATE_TOL:.3e}: the "
            f"data is not resolved by N = {N}, M = {M}")
    xs = np.linspace(-R, R, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    mask = X**2 + Y**2 < R**2 * (1.0 - 1e-14)
    sol = LiouvilleSolution(problem=problem, xs=xs, ys=xs.copy(),
                            u=np.full((n, n), np.nan), mask=mask,
                            residual_history=history, iterations=it,
                            step_sizes=step_sizes, resolution=(N, M),
                            error_estimate=estimate, values=values)
    sol.u[mask] = solution_interpolator(sol).ev(X[mask], Y[mask])
    return sol


class PolarInterpolant:
    """u on |z| <= R from its values at the Chebyshev x Fourier nodes:
    barycentric in r over [-1, 1] (Berrut & Trefethen, SIAM Rev. 46,
    2004), trigonometric in theta, the highest wavenumber M/2 taken as a
    cosine.  A point outside the disk takes the value on the circle at
    its angle."""

    def __init__(self, R: float, values: np.ndarray):
        N, M = values.shape[0] - 1, values.shape[1]
        self.R = R
        self.x = np.cos(np.pi * np.arange(N + 1) / N)
        self.w = (-1.0) ** np.arange(N + 1)
        self.w[[0, N]] *= 0.5
        coef = np.fft.rfft(values, axis=1) / M
        coef[:, 1:M // 2] *= 2.0
        # barycentric numerator weights, real and imaginary parts side by side
        self.coef = self.w[:, None] * np.hstack([coef.real, coef.imag])

    def ev(self, x, y) -> np.ndarray:
        """Values at the points (x, y), in the broadcast shape of x and y,
        ``BLOCK`` points at a time."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        z = (x + 1j * y).ravel()
        out = np.empty(z.shape)
        waves = self.coef.shape[1] // 2
        for start in range(0, z.size, BLOCK):
            zb = z[start:start + BLOCK]
            d = np.minimum(np.abs(zb) / self.R, 1.0)[:, None] - self.x
            hit = d == 0.0
            q = 1.0 / np.where(hit, 1.0, d)
            on_node = hit.any(axis=1)
            q[on_node] = hit[on_node]       # at a node, its value alone
            # e^(i k theta) for k = 0 .. M/2, by repeated multiplication
            turn = np.ones((zb.size, waves), dtype=complex)
            turn[:, 1:] = np.exp(1j * np.angle(zb))[:, None]
            np.cumprod(turn, axis=1, out=turn)
            num = q @ self.coef
            out[start:start + BLOCK] = (
                np.sum(num[:, :waves] * turn.real - num[:, waves:] * turn.imag, axis=1)
                / (q @ self.w))
        return out.reshape(x.shape)


def solution_interpolator(sol: LiouvilleSolution) -> PolarInterpolant:
    """The interpolant of log density over the solved disk."""
    return PolarInterpolant(sol.problem.R, sol.values)


def make_pinched_metric(n: int = DEFAULT_N) -> Pseudometric:
    """Wrap the solved density of ``pinched_problem(0.9)`` as a Pseudometric.

    The curvature is the -4 - |z|^2 profile, pinched in [-5, -4], and the
    boundary data is hyperbolic, -log(1 - 0.9^2) on the whole circle.
    n sets the collocation resolution, ``resolution(n)``.  The density is
    the solution's polar interpolant, valid on |z| <= 0.95 R; its
    curvature provider is the target curvature function itself, which
    the solve enforces at the collocation nodes (finite-difference
    self-consistency is exercised separately in the tests).
    """
    problem = pinched_problem(0.9)
    interpolant = solution_interpolator(solve(problem, n=n))
    r_valid = 0.95 * problem.R

    def density(z):
        za = np.asarray(z)
        if np.any(np.abs(za) > r_valid + 1e-12):
            raise MetricError(
                f"constructed metric only valid on |z| <= {r_valid:.4g}")
        return np.exp(interpolant.ev(np.real(za), np.imag(za)))

    return Pseudometric(density=density, zeros=(), curvature=problem.kappa,
                        pinch=problem.pinch,
                        name=f"pinched(c={-problem.pinch[0]:g})",
                        domain_radius=r_valid)
