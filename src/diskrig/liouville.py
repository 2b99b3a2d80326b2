"""Dirichlet solver for the curvature equation Lap u = -kappa(z) e^(2u).

Solves for u = log density on a disk of radius R < 1 with finite
boundary data, via damped Newton on finite differences masked to the
disk.  One rule gives the rows: the compact nine-point stencil where all
eight neighbors lie inside, else per axis the u'' weights on the offsets
at hand, legs that cross the circle ending exactly on it
(Shortley-Weller).  The discrete Laplacian is factored once per grid
(R, n), for every solve on it, by SuperLU in nested-dissection order
(George 1973; blocks of at most 32 unknowns keep their natural order).
``splu`` takes no caller's column order, so A is permuted beforehand and
factored with the NATURAL order, partial pivoting kept.  The two most
recently used grids and their factors are kept.  The factor gives
the harmonic start and preconditions GMRES on every Newton system
(Newton-Krylov).  A factored variant Lap log v = -kappa |z - xi|^(2 alpha)
v^2 handles one prescribed zero.

The solver doubles as a factory for a variable-curvature test metric:
``make_pinched_metric`` wraps the solution of ``pinched_problem`` in a
Pseudometric whose pinch bounds are that problem's.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import RectBivariateSpline

from .metric import MetricError, Pseudometric
from .numerics import DiskrigError

DEFAULT_N = 129
#: Newton tolerance on the row-scaled max-norm residual; ``solve`` also
#: accepts a stalled iteration at the rounding floor 1e-9 above it
NEWTON_TOL = 1e-10
#: Newton steps ``solve`` takes before it refuses
NEWTON_MAX_ITER = 40
AHLFORS_MARGIN = 0.5
# GMRES on each Newton system: relative 2-norm residual, Krylov basis size
# and restart cycles.  A step of the bundled problems takes 5 to 11
# iterations at n = 65 to 513, so one cycle normally suffices; the spare
# cycles absorb a restart when the updated residual misses the target.
GMRES_RTOL = 1e-8
GMRES_RESTART = 60
GMRES_MAXITER = 5


class LiouvilleError(DiskrigError, RuntimeError):
    """Raised when the nonlinear solve cannot be completed."""


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in this process.

    Found through /proc/self/maps; empty where that file is missing or no
    OpenBLAS is loaded (other BLAS libraries are left as they are)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    controls = []
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # mapped file since deleted or replaced
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                controls.append((get, put))
                break
    return tuple(controls)


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved: list[int] = []


@contextlib.contextmanager
def _single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore it.

    GMRES makes BLAS dot and gemv calls on vectors of 10^4 to 10^5
    entries between sparse triangular solves.  OpenBLAS splits them over
    its threads, and its idle worker then spins between calls: on 2 vCPUs
    a solve at n = 129 used 0.52 s of CPU in 0.27 s, no faster than on one
    thread, and its time followed the load on the second CPU.  Concurrent
    solves share one saved thread count, restored when the last leaves."""
    global _blas_users
    controls = _openblas_thread_controls()
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved[:] = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for (_, put), count in zip(controls, _blas_saved):
                    put(count)


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
    step_sizes: list[float]         # accepted damping of each Newton step
    krylov_iterations: list[int]    # GMRES iterations of each Newton step


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


# compact nine-point stencil (over 6 h^2) and five-point Laplacian (over h^2)
NINE_POINT = {(0, 0): -20.0, (1, 0): 4.0, (-1, 0): 4.0, (0, 1): 4.0, (0, -1): 4.0,
              (1, 1): 1.0, (1, -1): 1.0, (-1, 1): 1.0, (-1, -1): 1.0}
FIVE_POINT = {(0, 0): -4.0, (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}


def _second_derivative_weights(offsets: list[float]) -> np.ndarray:
    """Weights w with sum_j w_j u(offsets[j]) = u''(0) for every polynomial
    u of degree < len(offsets).

    These are Fornberg's finite-difference weights on arbitrary offsets
    (Math. Comp. 51, 1988), taken here from the moment equations.
    """
    x = np.asarray(offsets)
    m = np.vstack([x**p / math.factorial(p) for p in range(len(x))])
    return np.linalg.solve(m, np.eye(len(x))[2])


#: the problem-independent system of one (R, n) grid; b_rows, b_weights and
#: b_angles: row, weight and angle of each circle point a boundary row reads;
#: a_inverse: the LinearOperator y -> A^-1 y
_Grid = collections.namedtuple("_Grid", "xs ys inside pts A L5 source_op row_scale "
                               "b_rows b_weights b_angles a_inverse")
_grid_lock = threading.Lock()
#: grids kept, least recently used first
_grid_slot: collections.OrderedDict[tuple[float, int], _Grid] = collections.OrderedDict()
#: how many grids ``_grid`` keeps
GRID_SLOTS = 2
#: largest block of unknowns that nested dissection leaves in natural order
ND_LEAF = 32


def _nested_dissection(inside: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the unknowns of a grid mask (George, SIAM
    J. Numer. Anal. 10, 1973): p[k] is the unknown placed k-th.

    The index box is split at the middle line of its longer side, the two
    halves are ordered first, recursively, and the separator line last.  A
    block of at most ``ND_LEAF`` unknowns keeps the natural (row-major)
    order of ``inside``.
    """
    number = np.full(inside.shape, -1)
    number[inside] = np.arange(np.count_nonzero(inside))
    order = []

    def dissect(block):
        if np.count_nonzero(block >= 0) <= ND_LEAF:
            order.append(np.sort(block[block >= 0]))
            return
        if block.shape[0] < block.shape[1]:
            block = block.T     # split the longer side; numbers are unchanged
        mid = block.shape[0] // 2
        dissect(block[:mid])
        dissect(block[mid + 1:])
        order.append(block[mid][block[mid] >= 0])

    dissect(number)
    return np.concatenate(order)


def _grid(R: float, n: int) -> _Grid:
    """The read-only system of (R, n), built once.  The ``GRID_SLOTS`` most
    recently used grids are kept, and the least recent is dropped before
    another grid is built: at most ``GRID_SLOTS`` factors are alive at
    a time, counting the one being built.

    A is factored once, by SuperLU with partial pivoting, in the
    nested-dissection order of its unknowns.  ``splu`` takes no column
    permutation of the caller's, so the rows and columns of A are permuted
    beforehand and factored with ``permc_spec="NATURAL"``; ``a_inverse``
    permutes a right-hand side in and the solution back out.
    """
    key = (float(R), int(n))
    with _grid_lock:
        if key in _grid_slot:
            _grid_slot.move_to_end(key)
        else:
            while len(_grid_slot) >= GRID_SLOTS:
                _grid_slot.popitem(last=False)
            grid = _assemble(*key)      # factored once its temporaries are freed
            p = _nested_dissection(grid.inside)
            lu = spla.splu(grid.A[p][:, p].tocsc(), permc_spec="NATURAL")

            def solve_a(rhs):
                out = np.empty_like(rhs)
                out[p] = lu.solve(rhs[p])
                return out

            _grid_slot[key] = grid._replace(a_inverse=spla.LinearOperator(
                grid.A.shape, matvec=solve_a, dtype=float))
        return _grid_slot[key]


def _assemble(R: float, n: int) -> _Grid:
    """Disk-masked finite differences, fourth order in the interior.

    A node whose eight neighbors all lie inside gets the compact
    nine-point operator (which equals Lap + h^2/12 Lap^2 to O(h^4) and is
    paired in the solver with the matching h^2/12 Lap F source term).
    These rows, and the five-point rows of L5, come from one index array
    per stencil offset.  Every other node is in the boundary layer: along
    each axis its row takes u'' from one weight solve on the offsets at
    hand, which are, on each side, the neighbor or the leg shortened to
    end exactly on the circle (Shortley-Weller), and, where exactly one
    leg is short, up to three nodes on the far side.

    A acts on interior unknowns, the b_ arrays give their boundary
    contributions (``_load``), L5 is the five-point Laplacian on
    the compact rows (zero elsewhere) for the source correction.  The
    factor is left to ``_grid``.
    """
    xs = np.linspace(-R, R, n)
    ys = np.linspace(-R, R, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = X**2 + Y**2 < R**2 * (1.0 - 1e-14)
    n_unknown = int(inside.sum())
    pts = (X + 1j * Y)[inside]
    idx = -np.ones((n, n), dtype=int)   # unknown number of each node, -1 outside
    idx[inside] = np.arange(n_unknown)
    core = inside[1:-1, 1:-1]           # no node on the edge of the grid is inside

    def neighbor(di, dj):
        return idx[1 + di:n - 1 + di, 1 + dj:n - 1 + dj][core]

    compact = np.all([neighbor(*d) >= 0 for d in NINE_POINT], axis=0)

    def stencil(weights, denom):
        rows = np.flatnonzero(compact)
        return (np.repeat([w / denom for w in weights.values()], rows.size),
                (np.tile(rows, len(weights)),
                 np.concatenate([neighbor(*d)[compact] for d in weights])))

    vals, (rows, cols) = stencil(NINE_POINT, 6.0 * h**2)
    layer_vals, layer_rows, layer_cols = [], [], []
    b_weights, b_rows, b_angles = [], [], []
    for k, (i, j) in zip(np.flatnonzero(~compact), np.argwhere(inside)[~compact]):
        for di, dj in ((1, 0), (0, 1)):
            along, across = (xs[i], ys[j]) if di else (ys[j], xs[i])
            legs = []   # (offset, unknown number or -1, angle of the circle point)
            for s in (-1, 1):
                kk = idx[i + s * di, j + s * dj]
                if kk >= 0:
                    legs.append((s * h, kk, None))
                    continue
                cross = s * np.sqrt(max(R**2 - across**2, 0.0))
                frac = min(max((cross - along) / (s * h), 1e-6), 1.0)
                angle = np.arctan2(across, cross) if di else np.arctan2(cross, across)
                legs.append((s * frac * h, -1, angle))
            legs.sort(key=lambda leg: leg[1] >= 0)      # a short leg first
            nodes = [legs[0], (0.0, k, None), legs[1]]
            if legs[0][1] < 0 <= legs[1][1]:
                s = 1 if legs[1][0] > 0 else -1
                for d in (2, 3):
                    kk = idx[i + s * d * di, j + s * d * dj]
                    if kk < 0:
                        break
                    nodes.append((s * d * h, kk, None))
            weights = _second_derivative_weights([off for off, _, _ in nodes])
            for w, (_, kk, angle) in zip(weights, nodes):
                if kk >= 0:
                    layer_vals.append(w); layer_rows.append(k); layer_cols.append(kk)
                else:
                    b_weights.append(w); b_rows.append(k); b_angles.append(angle)

    shape = (n_unknown, n_unknown)
    A = sp.csr_matrix((np.concatenate([vals, layer_vals]),
                       (np.concatenate([rows, layer_rows]),
                        np.concatenate([cols, layer_cols]))), shape=shape)
    L5 = sp.csr_matrix(stencil(FIVE_POINT, h**2), shape=shape)
    # source operator I + h^2/12 L5 completes the compact rows to O(h^4)
    source_op = sp.identity(n_unknown, format="csr") + (h**2 / 12.0) * L5
    # row-scaled norm: stencil legs shortened to nearly nothing produce
    # rows of size 2/(theta h^2), so an unscaled max norm is meaningless
    row_scale = np.maximum(np.asarray(np.abs(A).sum(axis=1)).ravel(), 1.0)
    grid = _Grid(xs, ys, inside, pts, A, L5, source_op, row_scale,
                 np.asarray(b_rows), np.asarray(b_weights), np.asarray(b_angles),
                 a_inverse=None)
    sparse = [a for m in (A, L5, source_op) for a in (m.data, m.indices, m.indptr)]
    for a in (xs, ys, inside, pts, row_scale, grid.b_rows, grid.b_weights,
              grid.b_angles, *sparse):
        a.flags.writeable = False
    return grid


def _load(grid: _Grid, problem: DirichletProblem):
    """A problem's part: boundary vector b, curvature kv, iterate ceiling."""
    pts = grid.pts
    g = np.asarray(problem.boundary(grid.b_angles), dtype=float)
    b = np.bincount(grid.b_rows, weights=grid.b_weights * g, minlength=len(pts))
    kv = np.asarray(problem.kappa(pts), dtype=float)
    cap = hyperbolic_log_density(pts) + AHLFORS_MARGIN
    if problem.zero_factor is not None:
        xi, alpha = problem.zero_factor
        kv = kv * np.abs(pts - xi) ** (2.0 * alpha)
        cap = cap - alpha * np.log(np.maximum(np.abs(pts - xi), 1e-300))
    return b, kv, cap


def solve(problem: DirichletProblem, n: int = DEFAULT_N) -> LiouvilleSolution:
    """Damped Newton-Krylov iteration on the finite-difference curvature system.

    ``A`` is factored once per grid (``_grid``), in nested-dissection
    order with leaves of at most 32 unknowns: permuted beforehand, since
    ``splu`` takes no caller's order, and factored with NATURAL.  The
    factor gives the initial iterate, the harmonic extension of the
    boundary data, and right-preconditions GMRES on every Newton system
    J = A + (I + h^2/12 L5) diag(2 kappa e^(2u)), which differs from A
    only by that scaling (Newton-Krylov: Knoll & Keyes, J. Comput. Phys.
    193, 2004).  Each Newton step is solved to ``GMRES_RTOL`` relative
    residual in the 2-norm, with OpenBLAS held to one thread.  Steps are
    halved until the residual decreases, and iterates are clamped below
    the extremal-density ceiling (log hyperbolic density plus a margin)
    to keep the exponential term controlled.  The iteration stops at
    ``NEWTON_TOL`` and refuses after ``NEWTON_MAX_ITER`` steps.
    """
    if n < 64:
        raise MetricError("grid resolution must be at least 64 per side")
    grid = _grid(problem.R, n)
    A, source_op, a_inverse = grid.A, grid.source_op, grid.a_inverse
    b, kv, cap = _load(grid, problem)
    u = np.minimum(a_inverse @ -b, cap)

    def residual(uv):
        return A @ uv + b + source_op @ (kv * np.exp(2.0 * uv))

    def scaled_norm(res):
        return float(np.max(np.abs(res) / grid.row_scale))

    res = residual(u)
    res_norm = scaled_norm(res)
    history = [res_norm]
    step_sizes: list[float] = []
    krylov_iterations: list[int] = []
    converged = res_norm <= NEWTON_TOL
    it = 0
    while not converged and it < NEWTON_MAX_ITER:
        it += 1
        diag = 2.0 * kv * np.exp(2.0 * u)
        jac = spla.LinearOperator(A.shape, dtype=float,
                                  matvec=lambda v: A @ v + source_op @ (diag * v))
        # right preconditioning: GMRES minimizes |J A^-1 y + res|, the
        # residual of the Newton system itself at delta = A^-1 y
        inner: list[float] = []
        with _single_threaded_blas():
            y, info = spla.gmres(jac @ a_inverse, -res, rtol=GMRES_RTOL, atol=0.0,
                                 restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
                                 callback=inner.append, callback_type="pr_norm")
        delta = a_inverse @ y
        if info != 0:
            lin_res = np.linalg.norm(jac @ delta + res) / np.linalg.norm(res)
            raise LiouvilleError(
                f"GMRES did not converge at Newton step {it} (info {info}): "
                f"relative residual {lin_res:.3e} after {len(inner)} iterations")
        krylov_iterations.append(len(inner))
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
        step_sizes.append(step)
        converged = res_norm <= NEWTON_TOL
    if not converged and res_norm > 1e-9:
        raise LiouvilleError(
            f"no convergence in {NEWTON_MAX_ITER} iterations; "
            f"residual history {history}")

    U = np.full((n, n), np.nan)
    U[grid.inside] = u
    # copies: the grid's arrays are shared with every later solve on it
    return LiouvilleSolution(problem=problem, xs=grid.xs.copy(),
                             ys=grid.ys.copy(), u=U, mask=grid.inside.copy(),
                             residual_history=history, iterations=it,
                             step_sizes=step_sizes,
                             krylov_iterations=krylov_iterations)


def _filled_grid(sol: LiouvilleSolution) -> np.ndarray:
    """Replace exterior NaNs by radial continuation of the boundary data."""
    U = sol.u.copy()
    X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    outside = ~sol.mask
    theta = np.arctan2(Y[outside], X[outside])
    U[outside] = np.asarray(sol.problem.boundary(theta), dtype=float)
    return U


def solution_interpolator(sol: LiouvilleSolution):
    """Bicubic interpolant of log density over the solved disk."""
    U = _filled_grid(sol)
    return RectBivariateSpline(sol.xs, sol.ys, U, kx=3, ky=3, s=0)


def make_pinched_metric(n: int = DEFAULT_N) -> Pseudometric:
    """Wrap the solved density of ``pinched_problem(0.9)`` as a Pseudometric.

    The curvature is the -4 - |z|^2 profile, pinched in [-5, -4], and the
    boundary data is hyperbolic, -log(1 - 0.9^2) on the whole circle.
    The density is a bicubic interpolant valid on |z| <= 0.95 R; its
    curvature provider is the target curvature function itself, which
    the solve enforces up to the Newton tolerance (finite-difference
    self-consistency is exercised separately in the tests).
    """
    problem = pinched_problem(0.9)
    spline = solution_interpolator(solve(problem, n=n))
    r_valid = 0.95 * problem.R

    def density(z):
        za = np.asarray(z)
        if np.any(np.abs(za) > r_valid + 1e-12):
            raise MetricError(
                f"constructed metric only valid on |z| <= {r_valid:.4g}")
        return np.exp(spline.ev(np.real(za), np.imag(za)))

    return Pseudometric(density=density, zeros=(), curvature=problem.kappa,
                        pinch=problem.pinch,
                        name=f"pinched(c={-problem.pinch[0]:g})",
                        domain_radius=r_valid)
