"""Shared numerical substrate.

Polar-grid quadrature over disks, five-point finite-difference Laplacians
with optional Richardson extrapolation, and least-squares fitting of
boundary asymptotic rates (the machinery that turns a qualitative
little-o statement into a numeric verdict).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

#: Extrapolated limits below this threshold count as vanishing; values
#: growing beyond its reciprocal count as divergent.
TOL_VANISH = 1e-3

#: Nodes closer than this to a declared singular point get perturbed.
COINCIDENCE_TOL = 1e-12


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
    """Tensor quadrature grid on the disk |z - center| < radius.

    Gauss-Legendre in the squared radial variable, trapezoid in angle.
    Node weights are positive and sum to the disk area.
    """

    center: complex = 0j
    radius: float = 1.0
    n_r: int = 64
    n_t: int = 128

    def __post_init__(self):
        if self.radius <= 0:
            raise NumericsError("grid radius must be positive")
        if self.n_r < 2 or self.n_t < 4:
            raise NumericsError("need n_r >= 2 and n_t >= 4")

    def nodes(self, avoid: complex | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (points, weights).

        If ``avoid`` is given, any node within COINCIDENCE_TOL of it is
        moved along its ring by half an angular cell, so integrable
        singularities at that point never get sampled exactly and the
        node keeps its radius (it stays inside the disk).
        """
        pts, w, r = _grid_nodes(complex(self.center), float(self.radius),
                                self.n_r, self.n_t)
        if avoid is None:
            return pts, w
        # a node within COINCIDENCE_TOL of avoid lies on a ring whose radius
        # is within COINCIDENCE_TOL of |avoid - center| (triangle
        # inequality); the slack also absorbs the rounding of both moduli
        rho = abs(avoid - self.center)
        slack = 4.0 * COINCIDENCE_TOL + 1e-14 * (abs(self.center) + self.radius)
        first = int(np.searchsorted(r, rho - slack, side="left")) * self.n_t
        stop = int(np.searchsorted(r, rho + slack, side="right")) * self.n_t
        hit = np.flatnonzero(np.abs(pts[first:stop] - avoid) < COINCIDENCE_TOL) + first
        if hit.size:
            pts = pts.copy()
            pts[hit] = (self.center
                        + (pts[hit] - self.center) * np.exp(1j * np.pi / self.n_t))
        return pts, w


# cached apart from the nodes: the rule depends on n_r alone
@functools.lru_cache(maxsize=8)
def _gauss_rule(n_r: int):
    return np.polynomial.legendre.leggauss(n_r)


@functools.lru_cache(maxsize=32)
def _grid_nodes(center: complex, radius: float, n_r: int, n_t: int):
    # Gauss-Legendre in u = r^2 on [0, R^2]: area element is du dtheta / 2.
    x, w = _gauss_rule(n_r)
    u = 0.5 * radius**2 * (x + 1.0)
    wu = 0.5 * radius**2 * w
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    wt = 2.0 * np.pi / n_t
    r = np.sqrt(u)
    pts = center + np.outer(r, np.exp(1j * theta)).ravel()
    weights = 0.5 * wt * np.repeat(wu, n_t)
    return pts, weights, r


def quadrature_disk(grid: PolarGrid, f: Callable, avoid: complex | None = None) -> float:
    """Integrate f over the grid's disk: sum of w_i * f(node_i).

    f is called once, on the node array, and must act elementwise.
    Raises NumericsError naming the offending node if f is not finite
    somewhere on the grid.
    """
    pts, w = grid.nodes(avoid=avoid)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != pts.shape:
        raise NumericsError(f"integrand returned shape {vals.shape} on "
                            f"{pts.shape} nodes; it must act elementwise")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = pts[np.argmax(bad)]
        raise NumericsError(f"integrand not finite at node {node}")
    return float(w @ vals)


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


def fit_boundary_rate(samples: Sequence[tuple[float, float]],
                      exponent: float) -> RateReport:
    """Decide how value(t) behaves relative to (1-t)**exponent as t -> 1.

    The scaled quantity g = value / (1-t)**exponent is fitted linearly
    against (1-t) on the boundary-nearest half of the samples, after
    dropping any trailing stretch where rounding noise has taken over
    (see _noise_onset).  The extrapolated limit at t = 1 yields the
    verdict: VANISHES below TOL_VANISH = 1e-3, DIVERGES when |g| grows
    beyond 1/TOL_VANISH on that same cut tail, BOUNDED_NONZERO otherwise.
    """
    samples = [(float(t), float(v)) for t, v in samples]
    if len(samples) < 5:
        raise NumericsError("need at least 5 samples for a rate fit")
    ts = np.array([s[0] for s in samples])
    vs = np.array([s[1] for s in samples])
    if np.any(np.diff(ts) <= 0) or ts[-1] >= 1.0:
        raise NumericsError("samples must have t strictly increasing toward 1")
    if not np.all(np.isfinite(vs)):
        raise NumericsError("sample values must be finite")

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
                      samples=tuple(samples),
                      fitted_limit=limit,
                      fitted_slope=slope,
                      verdict=verdict)
