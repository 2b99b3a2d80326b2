"""Dirichlet solver for the curvature equation Lap u = -kappa(z) e^(2u).

Solves for u = log density on a disk of radius R < 1 with finite
boundary data, via damped Newton on finite differences masked to the
disk.  One rule gives the rows: the compact nine-point stencil where all
eight neighbors lie inside, else per axis the u'' weights on the offsets
at hand, legs that cross the circle ending exactly on it
(Shortley-Weller).  The discrete Laplacian is factored once per grid
(R, n), for every solve on it, by SuperLU in nested-dissection order
(George 1973; blocks of at most 32 unknowns keep their natural order),
A permuted beforehand (``_grid``).  The two most recently used grids and
their factors are kept.  The factor gives the harmonic start and
right-preconditions GMRES, one factor solve per iteration, on every
Newton system (Newton-Krylov), each solved only to an Eisenstat-Walker
forcing term (inexact Newton); odd n >= ``NESTED_MIN`` start from the
solve on the nested grid of (n + 1)/2 instead.  A factored variant
Lap log v = -kappa |z - xi|^(2 alpha) v^2 handles one prescribed zero.

Solutions are interpolated by the not-a-knot bicubic spline
(``BicubicInterpolant``, FITPACK's interpolating spline), in numpy:
besides numpy the module needs only ``scipy.sparse``,
``scipy.sparse.linalg`` and ``scipy.linalg``.

The solver doubles as a factory for a variable-curvature test metric:
``make_pinched_metric`` wraps the solution of ``pinched_problem`` in a
Pseudometric whose pinch bounds are that problem's.
"""

from __future__ import annotations

import cmath
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
from scipy.linalg import get_lapack_funcs, solve_triangular

from .metric import MetricError, Pseudometric
from .numerics import DiskrigError

DEFAULT_N = 129
#: Newton tolerance on the row-scaled max-norm residual; ``solve`` also
#: accepts a stalled iteration at the rounding floor 1e-9 above it
NEWTON_TOL = 1e-10
#: Newton steps ``solve`` takes before it refuses
NEWTON_MAX_ITER = 40
AHLFORS_MARGIN = 0.5
# GMRES on each Newton system: the least relative 2-norm residual asked of
# it (the floor of the forcing terms), Krylov basis size and restart
# cycles.  Under the forcing terms a step of the bundled problems takes 1
# to 8 iterations at n = 65 to 513, so one cycle normally suffices; the
# spare cycles absorb a restart when the updated residual misses the target.
GMRES_RTOL = 1e-8
GMRES_RESTART = 60
GMRES_MAXITER = 5
#: largest forcing term, and the first: the relative residual asked of GMRES
#: on the first Newton system (Eisenstat & Walker's eta_max)
ETA_MAX = 0.1
#: smallest odd n whose solve starts from the nested coarse solve
NESTED_MIN = 257


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
    A non-finite xi, and an alpha that is not finite and nonnegative, are
    refused.
    """

    R: float
    kappa: Callable
    pinch: tuple[float, float]
    boundary: Callable
    zero_factor: tuple[complex, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise MetricError("construction radius must lie in (0, 1)")
        if not self.pinch[0] <= self.pinch[1] <= -4.0 + 1e-12:     # NaN too
            raise MetricError("curvature pinch must satisfy low <= high <= -4")
        if self.zero_factor is not None:
            xi, alpha = self.zero_factor
            if not cmath.isfinite(xi):
                raise MetricError(f"zero factor location must be finite, got {xi}")
            if not (math.isfinite(alpha) and alpha >= 0.0):
                raise MetricError(f"zero factor order must be finite and "
                                  f"nonnegative, got {alpha}")


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
    forcing: list[float]            # relative residual asked of each step's GMRES
    start: str | int = "harmonic"   # first iterate, or the coarse n it came from
    coarse_difference: float | None = None  # nested: max |u_n - u_m| on shared nodes


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


#: the problem-independent system of one (R, n) grid; b_rows, b_weights and
#: b_angles: row, weight and angle of each circle point a boundary row reads;
#: a_inverse: the function y -> A^-1 y
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

            def a_inverse(rhs):
                out = np.empty_like(rhs)
                out[p] = lu.solve(rhs[p])
                return out

            _grid_slot[key] = grid._replace(a_inverse=a_inverse)
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
    leg is short, up to three nodes on the far side.  The weights of all
    these stencils are solved for in one batch per stencil size.

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
    stencils = []   # (row, [(offset, unknown number or -1, angle)]) per axis
    for k, (i, j) in zip(np.flatnonzero(~compact), np.argwhere(inside)[~compact]):
        for di, dj in ((1, 0), (0, 1)):
            along, across = (xs[i], ys[j]) if di else (ys[j], xs[i])
            legs = []   # the angle is that of the circle point, NaN at a node
            for s in (-1, 1):
                kk = idx[i + s * di, j + s * dj]
                if kk >= 0:
                    legs.append((s * h, kk, np.nan))
                    continue
                cross = s * np.sqrt(max(R**2 - across**2, 0.0))
                frac = min(max((cross - along) / (s * h), 1e-6), 1.0)
                angle = np.arctan2(across, cross) if di else np.arctan2(cross, across)
                legs.append((s * frac * h, -1, angle))
            legs.sort(key=lambda leg: leg[1] >= 0)      # a short leg first
            nodes = [legs[0], (0.0, k, np.nan), legs[1]]
            if legs[0][1] < 0 <= legs[1][1]:
                s = 1 if legs[1][0] > 0 else -1
                for d in (2, 3):
                    kk = idx[i + s * d * di, j + s * d * dj]
                    if kk < 0:
                        break
                    nodes.append((s * d * h, kk, np.nan))
            stencils.append((k, nodes))
    # Fornberg's weights for u''(0) on each stencil's offsets x_j (Math.
    # Comp. 51, 1988), from the moment equations sum_j w_j x_j^p / p! =
    # delta_p2, p < len(x): one batched solve per stencil size
    weights = {}
    for size in {len(nodes) for _, nodes in stencils}:
        which = [s for s, (_, nodes) in enumerate(stencils) if len(nodes) == size]
        x = np.array([[off for off, _, _ in stencils[s][1]] for s in which])
        moments = np.stack([x**p / math.factorial(p) for p in range(size)], axis=1)
        rhs = np.zeros((len(which), size, 1))
        rhs[:, 2] = 1.0
        weights.update(zip(which, np.linalg.solve(moments, rhs)[..., 0]))
    entries = [(w, k, kk, angle) for s, (k, nodes) in enumerate(stencils)
               for w, (_, kk, angle) in zip(weights[s], nodes)]
    w, k, kk, angle = map(np.array, zip(*entries))
    layer = kk >= 0

    shape = (n_unknown, n_unknown)
    A = sp.csr_matrix((np.concatenate([vals, w[layer]]),
                       (np.concatenate([rows, k[layer]]),
                        np.concatenate([cols, kk[layer]]))), shape=shape)
    L5 = sp.csr_matrix(stencil(FIVE_POINT, h**2), shape=shape)
    # source operator I + h^2/12 L5 completes the compact rows to O(h^4)
    source_op = sp.identity(n_unknown, format="csr") + (h**2 / 12.0) * L5
    # row-scaled norm: stencil legs shortened to nearly nothing produce
    # rows of size 2/(theta h^2), so an unscaled max norm is meaningless
    row_scale = np.maximum(np.asarray(np.abs(A).sum(axis=1)).ravel(), 1.0)
    grid = _Grid(xs, ys, inside, pts, A, L5, source_op, row_scale,
                 k[~layer], w[~layer], angle[~layer], a_inverse=None)
    sparse = [a for m in (A, L5, source_op) for a in (m.data, m.indices, m.indptr)]
    for a in (xs, ys, inside, pts, row_scale, grid.b_rows, grid.b_weights,
              grid.b_angles, *sparse):
        a.flags.writeable = False
    return grid


def _load(grid: _Grid, problem: DirichletProblem):
    """A problem's part: boundary vector b, curvature kv, iterate ceiling.

    Refuses the first non-finite boundary value, naming its angle, and the
    first grid node where kappa is not finite or lies outside the declared
    pinch, before the zero factor: such data would otherwise surface only
    as a failed GMRES or a stalled Newton iteration."""
    pts = grid.pts
    g = np.asarray(problem.boundary(grid.b_angles), dtype=float)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise MetricError(f"boundary value {g[bad[0]]} at angle "
                          f"{grid.b_angles[bad[0]]} is not finite")
    b = np.bincount(grid.b_rows, weights=grid.b_weights * g, minlength=len(pts))
    kv = np.asarray(problem.kappa(pts), dtype=float)
    low, high = problem.pinch
    bad = np.flatnonzero(~np.isfinite(kv) | (kv < low) | (kv > high))
    if bad.size:
        k = bad[0]
        cause = ("is not finite" if not np.isfinite(kv[k])
                 else f"lies outside the declared pinch [{low:g}, {high:g}]")
        raise MetricError(f"curvature {kv[k]} at node {pts[k]} {cause}")
    cap = hyperbolic_log_density(pts) + AHLFORS_MARGIN
    if problem.zero_factor is not None:
        xi, alpha = problem.zero_factor
        kv = kv * np.abs(pts - xi) ** (2.0 * alpha)
        cap = cap - alpha * np.log(np.maximum(np.abs(pts - xi), 1e-300))
    return b, kv, cap


def _gmres(jac, a_inverse, rhs, rtol):
    """GMRES(``GMRES_RESTART``) for jac(delta) = rhs from 0, right-preconditioned
    by ``a_inverse``, in at most ``GMRES_MAXITER`` cycles.  It keeps each
    z_j = a_inverse(v_j) (Saad's flexible form, SIAM J. Sci. Comput. 14,
    1993), so delta = Z c needs no further solve, and the true residual
    that ends a cycle costs matvecs only.  Returns (delta,
    |rhs - jac(delta)| / |rhs|, iterations)."""
    lartg = get_lapack_funcs("lartg", dtype=float)
    rhs_norm = np.linalg.norm(rhs)
    delta, r, iterations = np.zeros_like(rhs), rhs, 0
    for _ in range(GMRES_MAXITER):
        g = np.zeros(GMRES_RESTART + 1)
        g[0] = np.linalg.norm(r)
        H = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        V, Z, rotations = [r * (1.0 / g[0])], [], []
        for j in range(GMRES_RESTART):     # Arnoldi, modified Gram-Schmidt
            Z.append(a_inverse(V[j]))
            w = jac(Z[j])
            w_norm = np.linalg.norm(w)
            for k, v in enumerate(V):
                H[k, j] = v @ w
                w -= H[k, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            breakdown = H[j + 1, j] <= np.finfo(float).eps * w_norm   # delta exact
            if not breakdown:
                V.append(w * (1.0 / H[j + 1, j]))
            for k, (c, s) in enumerate(rotations):
                H[k:k + 2, j] = (c * H[k, j] + s * H[k + 1, j],
                                 c * H[k + 1, j] - s * H[k, j])
            c, s, H[j, j] = lartg(H[j, j], H[j + 1, j])
            rotations.append((c, s))
            g[j:j + 2] = c * g[j], -s * g[j]
            iterations += 1
            if abs(g[j + 1]) <= rtol * rhs_norm or breakdown:
                break
        delta += solve_triangular(H[:j + 1, :j + 1], g[:j + 1]) @ np.array(Z)
        r = rhs - jac(delta)
        if np.linalg.norm(r) / rhs_norm <= rtol or breakdown:
            break
    return delta, float(np.linalg.norm(r) / rhs_norm), iterations


def solve(problem: DirichletProblem, n: int = DEFAULT_N) -> LiouvilleSolution:
    """Damped Newton-Krylov iteration on the finite-difference curvature system.

    ``A`` is factored once per grid (``_grid``), and the factor
    right-preconditions GMRES (``_gmres``) on every Newton system
    J = A + (I + h^2/12 L5) diag(2 kappa e^(2u)), which differs from A
    only by that scaling (Newton-Krylov: Knoll & Keyes, J. Comput. Phys.
    193, 2004).  Newton system k is solved, with OpenBLAS held to one
    thread, to a relative 2-norm residual eta_k, Eisenstat & Walker's
    choice 2 (SIAM J. Sci. Comput. 17, 1996) on the scaled residual norms
    |F_k|: eta_0 = ``ETA_MAX``, then eta_k = 0.9 (|F_k| / |F_k-1|)^2,
    kept at least 0.9 eta_k-1^2 where that exceeds 0.1, and clipped to
    [``GMRES_RTOL``, ``ETA_MAX``].  Far from the root a step asks little
    of GMRES; near it, where Newton converges quadratically, eta_k falls
    with the residual.  Steps are halved until the residual decreases,
    and iterates are clamped below the extremal-density ceiling (log
    hyperbolic density plus a margin) to keep the exponential term
    controlled.  The iteration stops at ``NEWTON_TOL`` and refuses after
    ``NEWTON_MAX_ITER`` steps.  Problem data that is not finite, or
    curvature outside the declared pinch, is refused before the first
    step (``_load``), and before any coarse solve.

    The first iterate is the harmonic extension of the boundary data, but
    an odd n >= ``NESTED_MIN`` nests the grid of m = (n + 1)/2 (h = 2R/(n - 1)):
    the same problem is solved there from its harmonic start, and its
    bicubic interpolant on the fine nodes starts the fine iteration
    (nested iteration: Brandt, Math. Comp. 31, 1977).
    ``start`` records m, and ``coarse_difference`` max |u_n - u_m| on the
    shared nodes, which estimates the discretization error.
    """
    if n < 64:
        raise MetricError("grid resolution must be at least 64 per side")
    grid = _grid(problem.R, n)
    data = _load(grid, problem)
    if n < NESTED_MIN or n % 2 == 0:
        return _newton(grid, problem, data)
    m = (n + 1) // 2
    coarse_grid = _grid(problem.R, m)
    coarse = _newton(coarse_grid, problem, _load(coarse_grid, problem))
    u0 = solution_interpolator(coarse).ev(grid.pts.real, grid.pts.imag)
    sol = _newton(grid, problem, data, u0)
    sol.start = m
    # u is NaN outside the disk, so the max runs over the shared nodes
    sol.coarse_difference = float(np.nanmax(np.abs(sol.u[::2, ::2] - coarse.u)))
    return sol


def _newton(grid: _Grid, problem: DirichletProblem, data: tuple,
            u0: np.ndarray | None = None) -> LiouvilleSolution:
    """``solve``'s iteration on one grid with data = ``_load(grid, problem)``,
    from min(u0, cap), or from the harmonic start where u0 is None."""
    A, source_op, a_inverse = grid.A, grid.source_op, grid.a_inverse
    b, kv, cap = data
    u = np.minimum(a_inverse(-b) if u0 is None else u0, cap)

    def residual(uv):
        return A @ uv + b + source_op @ (kv * np.exp(2.0 * uv))

    def scaled_norm(res):
        return float(np.max(np.abs(res) / grid.row_scale))

    res = residual(u)
    res_norm = scaled_norm(res)
    history = [res_norm]
    step_sizes: list[float] = []
    krylov_iterations: list[int] = []
    forcing: list[float] = []
    converged = res_norm <= NEWTON_TOL
    it = 0
    while not converged and it < NEWTON_MAX_ITER:
        it += 1
        eta = ETA_MAX
        if forcing:     # Eisenstat-Walker choice 2, gamma = 0.9, alpha = 2
            eta = 0.9 * (history[-1] / history[-2]) ** 2
            if 0.9 * forcing[-1] ** 2 > 0.1:    # binds only if ETA_MAX > 1/3
                eta = max(eta, 0.9 * forcing[-1] ** 2)
            eta = min(max(eta, GMRES_RTOL), ETA_MAX)
        diag = 2.0 * kv * np.exp(2.0 * u)

        def jac(v):
            return A @ v + source_op @ (diag * v)

        with _single_threaded_blas():
            delta, lin_res, inner = _gmres(jac, a_inverse, -res, eta)
        if not lin_res <= eta:
            raise LiouvilleError(
                f"GMRES did not converge at Newton step {it} in {GMRES_MAXITER} "
                f"cycles: relative residual {lin_res:.3e} after {inner} "
                f"iterations, forcing term {eta:.3e}")
        krylov_iterations.append(inner)
        forcing.append(eta)
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

    U = np.full(grid.inside.shape, np.nan)
    U[grid.inside] = u
    # copies: the grid's arrays are shared with every later solve on it
    return LiouvilleSolution(problem=problem, xs=grid.xs.copy(),
                             ys=grid.ys.copy(), u=U, mask=grid.inside.copy(),
                             residual_history=history, iterations=it,
                             step_sizes=step_sizes,
                             krylov_iterations=krylov_iterations,
                             forcing=forcing)


def _cubic_weights(xs: np.ndarray, x: np.ndarray):
    """Interval and weights of the points x in a cubic spline on the
    increasing nodes xs.

    With node values y and node second derivatives M, the spline on
    [xs[i], xs[i + 1]] is, at t = (x - xs[i]) / h and t' = 1 - t,
    t' y_i + t y_i+1 + h^2/6 ((t'^3 - t') M_i + (t^3 - t) M_i+1).  Returns
    i and the weights [[t', t], [of M_i, of M_i+1]], shape (2, 2, len(x)).
    A point outside [xs[0], xs[-1]] takes the value at the nearer end, as
    in FITPACK.
    """
    x = np.clip(x, xs[0], xs[-1])
    i = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    t = (x - xs[i]) / h
    tc = 1.0 - t
    return i, np.array([[tc, t], [h**2 / 6.0 * (tc**3 - tc), h**2 / 6.0 * (t**3 - t)]])


class BicubicInterpolant:
    """The not-a-knot bicubic spline through the values U on the grid
    xs x xs (uniform nodes): FITPACK's interpolating bicubic spline
    (``s = 0``), which is the not-a-knot cubic along each axis.

    The not-a-knot cubic through y has node second derivatives M = D y,
    from continuity of its first derivative at the inner nodes,
    M_i-1 + 4 M_i + M_i+1 = 6 (y_i-1 - 2 y_i + y_i+1) / h^2, and of its
    third at the second and last-but-one node, M_0 - 2 M_1 + M_2 = 0
    (de Boor, A Practical Guide to Splines, 1978).  One n x n operator D
    serves both axes, so U, D U, U D^T and D U D^T are all the spline
    keeps.
    """

    def __init__(self, xs: np.ndarray, U: np.ndarray):
        n = len(xs)
        if U.shape != (n, n):
            raise MetricError(f"values must be {n} x {n} over xs x xs, got {U.shape}")
        second = np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)
        T, S = second + 6.0 * np.eye(n), 6.0 / (xs[1] - xs[0]) ** 2 * second
        T[0], T[-1], S[0], S[-1] = second[1], second[-2], 0.0, 0.0
        self.xs, self.U, self.D = xs, U, np.linalg.solve(T, S)
        DU = self.D @ U
        # [kind along x][kind along y], a kind being value or second derivative
        self.coef = np.array([[U, U @ self.D.T], [DU, DU @ self.D.T]])

    def ev(self, x, y) -> np.ndarray:
        """Values at the points (x, y), in the broadcast shape of x and y:
        the 16 terms of each point's cell, for all points at once."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        n = len(self.xs)
        i, wx = _cubic_weights(self.xs, x.ravel())
        j, wy = _cubic_weights(self.xs, y.ravel())
        # [kind x, kind y] by [corner (i + p, j + q)], for every point
        corners = i * n + j + np.array([0, 1, n, n + 1])[:, None]
        cell = np.take(self.coef.reshape(4, n * n), corners, axis=1)
        w = (wx[:, None, :, None] * wy[None, :, None, :]).reshape(4, 4, -1)
        return np.einsum("abk,abk->k", cell, w).reshape(x.shape)


def solution_interpolator(sol: LiouvilleSolution) -> BicubicInterpolant:
    """Bicubic interpolant of log density over the solved disk; exterior
    nodes take the boundary value at their angle (radial continuation)."""
    U = sol.u.copy()
    X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    outside = ~sol.mask
    U[outside] = np.asarray(sol.problem.boundary(np.arctan2(Y[outside], X[outside])),
                            dtype=float)
    # every grid the solver builds has ys == xs, so the spline takes xs only
    return BicubicInterpolant(sol.xs, U)


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
