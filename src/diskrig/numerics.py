"""Shared numerical substrate.

Sample rings, quadrature over disks in polar coordinates about a pole
of the integrand, five-point finite-difference Laplacians with optional
Richardson extrapolation, and least-squares fitting of boundary
asymptotic rates (the machinery that turns a qualitative little-o
statement into a numeric verdict).

The quadrature builds its nodes on the fly, in blocks of whole rays of
about BLOCK_NODES nodes, from the cached radial rule of its resolution;
no node or value array of a whole grid is cached or built, whatever the
grid.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

#: Extrapolated limits below this threshold count as vanishing; values
#: growing beyond its reciprocal count as divergent.
TOL_VANISH = 1e-3


class DiskrigError(Exception):
    """Base of every error the library raises on input it refuses."""


class NumericsError(DiskrigError, ValueError):
    """Raised on invalid quadrature/fitting input."""


class Verdict(Enum):
    VANISHES = "VANISHES"
    BOUNDED_NONZERO = "BOUNDED_NONZERO"
    DIVERGES = "DIVERGES"


@dataclass(frozen=True)
class RateReport:
    """Fitted boundary asymptotic of a sampled quantity.

    ``samples`` holds (t, value) pairs with t increasing toward 1; the
    fit is of value / (1-t)**exponent_tested against (1-t) on the half
    of the samples closest to the boundary.  ``fitted_limit`` is the
    extrapolated value at t = 1.
    """

    exponent_tested: float
    samples: tuple[tuple[float, float], ...]
    fitted_limit: float
    fitted_slope: float
    verdict: Verdict


@dataclass(frozen=True)
class PolarGrid:
    """Resolution and disk of a quadrature rule on |z - center| < radius.

    quadrature_disk puts the rule's polar coordinates about a pole of
    the integrand: n_t rays from the pole, each clipped at the circle,
    with n_r Gauss-Legendre nodes on each ray.  The grid itself holds
    no nodes.
    """

    center: complex
    radius: float
    n_r: int
    n_t: int

    def __post_init__(self):
        for name in ("n_r", "n_t"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise NumericsError(f"grid {name} must be an integer, "
                                    f"got {getattr(self, name)!r}")
        if not cmath.isfinite(self.center):
            raise NumericsError(f"grid center must be finite, got {self.center!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise NumericsError(f"grid radius must be finite and positive, "
                                f"got {self.radius!r}")
        if self.n_r < 2 or self.n_t < 4:
            raise NumericsError("need n_r >= 2 and n_t >= 4")


def polar_points(radii, n_t: int, phase: float) -> np.ndarray:
    """n_t points on each circle |z| = r for r in radii, at the angles
    2 pi (j + phase) / n_t, j = 0, ..., n_t - 1: radius-major, one ring
    after another."""
    return np.outer(radii, np.exp(2j * np.pi * (np.arange(n_t) + phase) / n_t)).ravel()


#: Nodes per block of whole rays that quadrature_disk hands the
#: integrand (one ray when a ray alone has more): the block's
#: temporaries stay in cache and no whole-grid node array is built.
BLOCK_NODES = 16384


@functools.lru_cache(maxsize=8)
def _ray_rule(n_r: int):
    """Nodes u^2 and weights 2 u^3 du of the radial rule on [0, 1]:
    Gauss-Legendre in u, with rho = u^2 on a ray of unit length."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    u = 0.5 * (x + 1.0)
    return u * u, u**3 * w


def quadrature_disk(grid: PolarGrid, f: Callable, pole: complex) -> float:
    """Integrate f over the grid's disk, in polar coordinates about pole.

    The rule puts n_t rays from the pole at the midpoints of equal
    angular cells, each clipped at the circle at rho_max, and n_r nodes
    rho = rho_max u^2 on each, u Gauss-Legendre on [0, 1].  The area
    element rho drho = 2 rho_max^2 u^3 du damps a logarithmic pole of f
    at the pole to u^3 log u, and no node lies on the pole.  The pole
    must lie inside the disk.

    The rays are walked in blocks of about BLOCK_NODES nodes, and f is
    called once per block, on its node array: f must act elementwise.
    Raises NumericsError naming the first node, ray by ray from the
    pole out, where f is not finite.
    """
    pole = complex(pole)
    d = pole - complex(grid.center)
    if not abs(d) < grid.radius:
        raise NumericsError(f"pole {pole} must lie inside the grid's disk "
                            f"|z - {grid.center}| < {grid.radius}")
    c = grid.radius**2 - abs(d) ** 2
    u2, wu = _ray_rule(grid.n_r)
    n_t = grid.n_t
    step = max(1, BLOCK_NODES // grid.n_r)
    total = 0.0
    for start in range(0, n_t, step):
        phi = 2.0 * np.pi / n_t * (np.arange(start, min(start + step, n_t)) + 0.5)
        ray = np.exp(1j * phi)
        # rho_max solves rho^2 + 2 b rho = c; for b > 0 in the form
        # that keeps its digits
        b = np.real(d.conjugate() * ray)
        s = np.abs(b) + np.sqrt(c + b * b)
        rho_max = np.where(b > 0, c / s, s)
        pts = (pole + np.outer(rho_max * ray, u2)).ravel()
        block = np.asarray(f(pts), dtype=float)
        if block.shape != pts.shape:
            raise NumericsError(f"integrand returned shape {block.shape} on "
                                f"{pts.shape} nodes; it must act elementwise")
        bad = ~np.isfinite(block)
        if np.any(bad):
            raise NumericsError(f"integrand not finite at node {pts[np.argmax(bad)]}")
        total += float(rho_max**2 @ (block.reshape(-1, grid.n_r) @ wu))
    return total * 2.0 * np.pi / n_t


def laplacian_fd(u: Callable, z, h: float, richardson: bool = False):
    """Five-point Laplacian of a real-valued function of a complex point.

    O(h^2) accurate; with ``richardson`` the step is halved once and the
    two estimates combined to O(h^4).  u is called once per stencil
    offset, on z shifted by it, so a scalar z hands u scalars and an
    array z hands it arrays.  Raises NumericsError naming the first
    stencil point where u is not finite.
    """
    if h <= 0:
        raise NumericsError("step h must be positive")

    def sample(p):
        v = np.asarray(u(p), dtype=float)
        bad = ~np.isfinite(v)
        if np.any(bad):
            raise NumericsError(
                f"stencil value not finite at {np.ravel(p)[np.argmax(bad)]}")
        return v

    def five_point(step: float):
        return (sample(z + step) + sample(z - step) + sample(z + 1j * step)
                + sample(z - 1j * step) - 4.0 * sample(z)) / step**2

    coarse = five_point(h)
    if not richardson:
        return coarse[()]
    fine = five_point(h / 2.0)
    return ((4.0 * fine - coarse) / 3.0)[()]


def dyadic_ts(k_min: int = 4, k_max: int = 20) -> np.ndarray:
    """Dyadic approach to the boundary: t_k = 1 - 2^-k, in [0, 1) for
    0 <= k <= 53 (1 - 2^-54 rounds to 1)."""
    if not 0 <= k_min <= k_max <= 53:
        raise NumericsError(f"need 0 <= k_min <= k_max <= 53, got k_min = "
                            f"{k_min} and k_max = {k_max}")
    return 1.0 - 2.0 ** (-np.arange(k_min, k_max + 1, dtype=float))


def _noise_onset(g: np.ndarray) -> int:
    """Index after which scaled samples are rounding-noise dominated.

    For a genuine boundary expansion the consecutive differences of the
    scaled values shrink geometrically along a dyadic ladder; division of
    cancellation residue by a vanishing power makes them grow instead.
    The onset is the first difference that has regrown a factor 32 above
    the smallest difference seen so far.  Returns len(g) when the whole
    ladder is usable.
    """
    d = np.abs(np.diff(g))
    if d.size == 0:
        return len(g)
    running_min = np.inf
    for k in range(d.size):
        if k > 0 and d[k] > 32.0 * running_min:
            return k + 1
        running_min = min(running_min, d[k])
    return len(g)


def _trimmed_linear_fit(eps_t: np.ndarray, g_t: np.ndarray) -> tuple[float, float]:
    """Least squares of g against (1, eps) with outlier trimming.

    Points deviating from the median of g by more than 8x the median
    absolute deviation are discarded before the fit (isolated rounding
    flukes survive the noise-onset cut).  The rule is homogeneous in g,
    which keeps the fit scale-equivariant.
    """
    med = float(np.median(g_t))
    dev = np.abs(g_t - med)
    mad = float(np.median(dev))
    thresh = 8.0 * mad + 1e-12 * float(np.max(np.abs(g_t)))
    keep = dev <= thresh
    if keep.sum() < 4:
        keep = np.argsort(dev) < 4
    e, gv = eps_t[keep], g_t[keep]
    design = np.column_stack([np.ones_like(e), e])
    coef, *_ = np.linalg.lstsq(design, gv, rcond=None)
    return float(coef[0]), float(coef[1])


def fit_boundary_rate(ts, values, exponent: float) -> RateReport:
    """Decide how value(t) behaves relative to (1-t)**exponent as t -> 1,
    from the samples values[i] at ts[i], two 1-D arrays of one length.

    The scaled quantity g = value / (1-t)**exponent is fitted linearly
    against (1-t) on the boundary-nearest half of the samples, after
    dropping any trailing stretch where rounding noise has taken over
    (see _noise_onset).  The extrapolated limit at t = 1 yields the
    verdict: VANISHES below TOL_VANISH = 1e-3, DIVERGES when |g| grows
    beyond 1/TOL_VANISH on that same cut tail, BOUNDED_NONZERO otherwise.
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != vs.shape:
        raise NumericsError(f"need two 1-D sample arrays of one length, got "
                            f"shapes {ts.shape} and {vs.shape}")
    if ts.size < 5:
        raise NumericsError("need at least 5 samples for a rate fit")
    if np.any(np.diff(ts) <= 0) or ts[-1] >= 1.0:
        raise NumericsError("samples must have t strictly increasing toward 1")
    if not np.all(np.isfinite(vs)):
        raise NumericsError("sample values must be finite")
    if not math.isfinite(exponent):
        raise NumericsError(f"rate exponent must be finite, got {exponent}")

    eps = 1.0 - ts
    g = vs / eps**exponent
    cut = _noise_onset(g)
    usable_e, usable_g = eps[:cut], g[:cut]
    half = len(usable_g) // 2
    if len(usable_g) - half < 4:
        half = max(0, len(usable_g) - 4)
    eps_t, g_t = usable_e[half:], usable_g[half:]
    limit, slope = _trimmed_linear_fit(eps_t, g_t)

    abs_tail = np.abs(g_t)
    growing = np.all(np.diff(abs_tail) > 0)
    if abs(limit) > 1.0 / TOL_VANISH or (growing and abs_tail[-1] > 1.0 / TOL_VANISH):
        verdict = Verdict.DIVERGES
    elif abs(limit) <= TOL_VANISH:
        verdict = Verdict.VANISHES
    else:
        verdict = Verdict.BOUNDED_NONZERO
    return RateReport(exponent_tested=float(exponent),
                      samples=tuple(zip(ts.tolist(), vs.tolist())),
                      fitted_limit=limit,
                      fitted_slope=slope,
                      verdict=verdict)
