"""Conformal pseudometrics on the unit disk.

A pseudometric is a nonnegative density with declared isolated zeros
(location and order), an optional exact curvature provider, and optional
curvature pinching bounds.  The module supplies the hyperbolic density,
pullbacks under holomorphic self-maps, the extremal constant-curvature
density with a prescribed zero, scalings and subharmonic-weight variants,
numeric curvature, the domination relation, the extended quotient of two
densities across shared zeros, and a zero-order estimator.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .holomap import HoloMap, critical_points, is_constant, preimages
from .numerics import DiskrigError, laplacian_fd, polar_points

ZERO_MATCH_TOL = 1e-9
QUOTIENT_LIMIT_RADIUS = 1e-4
QUOTIENT_LIMIT_ANGLES = 32
CURVATURE_H = 1e-3
NEAR_BOUNDARY_CUTOFF = 0.999
#: Absolute accuracy of a numeric curvature that ``curvature`` returns.
CURVATURE_TOL = 1e-4
#: Absolute roundoff assumed in one computed sample of the regular part
#: of log density (a few ulp of logs up to about 20 in magnitude).
LOG_DENSITY_NOISE = 4e-15
#: Sum of |stencil weights| (times h^2) of the Richardson combination
#: (4 L(h/2) - L(h)) / 3 of five-point Laplacians.
RICHARDSON_WEIGHT = 128.0 / 3.0


class MetricError(DiskrigError, ValueError):
    """Raised on invalid pseudometric input."""


class DominationError(MetricError):
    """Raised when a required domination relation fails structurally."""


@dataclass(frozen=True)
class ZeroRecord:
    """An isolated zero: density(z) ~ const * |z - location|**order."""

    location: complex
    order: float

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order > 0):
            raise MetricError(f"zero order must be finite and positive, got {self.order}")
        if not abs(self.location) < 1.0:
            raise MetricError(f"zero location {self.location} must lie inside the disk")


@dataclass(frozen=True)
class Pseudometric:
    """Conformal pseudometric: density, declared zeros, curvature data.

    ``curvature`` is an exact provider (callable) or None, meaning the
    curvature must be obtained by finite differences of log density.
    ``pinch`` declares bounds (c_low, c_high) with c_low <= kappa <= c_high.
    ``domain_radius`` restricts evaluation for densities that only exist
    on a sub-disk (numerically constructed metrics).
    """

    density: Callable
    zeros: tuple[ZeroRecord, ...] = ()
    curvature: Callable | None = None
    pinch: tuple[float, float] | None = None
    name: str = "metric"
    domain_radius: float = 1.0

    def __post_init__(self):
        locs = [z.location for z in self.zeros]
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                if abs(locs[i] - locs[j]) < ZERO_MATCH_TOL:
                    raise MetricError("zero locations must be pairwise distinct")
        if self.pinch is not None and not self.pinch[0] <= self.pinch[1]:
            raise MetricError(f"pinch bounds {self.pinch} out of order or NaN")
        if not 0.0 < self.domain_radius <= 1.0:
            raise MetricError(f"domain radius {self.domain_radius} must lie in (0, 1]")

    @property
    def has_exact_curvature(self) -> bool:
        return self.curvature is not None

    def zero_at(self, xi: complex) -> ZeroRecord | None:
        for rec in self.zeros:
            if abs(rec.location - xi) < ZERO_MATCH_TOL:
                return rec
        return None

    def without_exact_curvature(self) -> "Pseudometric":
        """Copy with the curvature provider stripped (forces FD paths)."""
        return dataclasses.replace(self, curvature=None)


@dataclass(frozen=True)
class _ConstCurvature:
    """Curvature provider of a metric of constant curvature ``value``;
    pullback and scale read the value instead of composing the map."""

    value: float

    def __call__(self, z):
        return np.full(np.shape(z), self.value)


def poincare() -> Pseudometric:
    """The hyperbolic density 1/(1-|z|^2); curvature identically -4."""

    def density(z):
        return 1.0 / (1.0 - np.abs(z) ** 2)

    return Pseudometric(density=density, zeros=(),
                        curvature=_ConstCurvature(-4.0),
                        pinch=(-4.0, -4.0), name="poincare")


def pullback(f: HoloMap, mu: Pseudometric) -> Pseudometric:
    """Pullback density mu(f(z)) |f'(z)| with its induced zero set.

    Zeros sit at critical points of f (order = multiplicity of the
    critical point) and at preimages of zeros of mu; a preimage hit with
    local valence m of a zero of order beta carries order m*beta + m - 1.
    """
    if is_constant(f):
        raise MetricError("pullback under a constant map is degenerate")
    if mu.domain_radius < 1.0:
        raise MetricError("pullback requires a base metric on the full disk")

    def density(z):
        w, dw = f.jet(z)
        return mu.density(w) * np.abs(dw)

    contributions: dict[complex, float] = {}

    def _add(loc: complex, order: float):
        for known in contributions:
            if abs(known - loc) < ZERO_MATCH_TOL:
                contributions[known] = max(contributions[known], order)
                return
        contributions[loc] = order

    for loc, mult in critical_points(f):
        _add(loc, float(mult))
    for rec in mu.zeros:
        # a preimage of multiplicity m (the local valence) contributes
        # m * order + (m - 1), which subsumes any critical point there
        for loc, m in preimages(f, rec.location):
            _add(loc, m * rec.order + (m - 1))

    zeros = tuple(ZeroRecord(loc, order) for loc, order in contributions.items())
    curvature = mu.curvature
    if curvature is not None and not isinstance(curvature, _ConstCurvature):
        def curvature(z):  # noqa: F811
            return mu.curvature(f.eval(z))

    return Pseudometric(density=density, zeros=zeros, curvature=curvature,
                        pinch=mu.pinch, name=f"pullback({mu.name})")


def mu_max(beta: float) -> Pseudometric:
    """Largest curvature -4 pseudometric with a zero of order beta at 0:
    density (1+beta) |z|^beta / (1 - |z|^(2(1+beta)))."""
    if beta <= 0:
        raise MetricError("beta must be positive")

    def density(z):
        r = np.abs(z)
        return (1.0 + beta) * r**beta / (1.0 - r ** (2.0 * (1.0 + beta)))

    return Pseudometric(density=density, zeros=(ZeroRecord(0j, beta),),
                        curvature=_ConstCurvature(-4.0), pinch=(-4.0, -4.0),
                        name=f"mu_max({beta})")


def scale(t: float, mu: Pseudometric) -> Pseudometric:
    """Density t * mu; curvature scales as kappa / t^2."""
    if not 0.0 < t <= 1.0:
        raise MetricError("scale factor must lie in (0, 1]")

    def density(z):
        return t * mu.density(z)

    curvature = None
    if isinstance(mu.curvature, _ConstCurvature):
        curvature = _ConstCurvature(mu.curvature.value / t**2)
    elif mu.curvature is not None:
        def curvature(z):  # noqa: F811
            return mu.curvature(z) / t**2

    pinch = None
    if mu.pinch is not None:
        pinch = (mu.pinch[0] / t**2, mu.pinch[1] / t**2)
    return Pseudometric(density=density, zeros=mu.zeros, curvature=curvature,
                        pinch=pinch, name=f"scale({t},{mu.name})",
                        domain_radius=mu.domain_radius)


def exp_weight(s: Callable, lap_s: Callable, name: str) -> Pseudometric:
    """Density e^{s(z)} / (1-|z|^2) for a smooth subharmonic weight s <= 0,
    with the exact curvature kappa = -e^{-2s} (lap(s) (1-|z|^2)^2 + 4) from
    the Laplacian lap_s of the weight; it is <= -4 whenever lap(s) >= 0
    and s <= 0.
    """

    def density(z):
        return np.exp(s(z)) / (1.0 - np.abs(z) ** 2)

    def curvature(z):
        w2 = (1.0 - np.abs(z) ** 2) ** 2
        return -np.exp(-2.0 * s(z)) * (lap_s(z) * w2 + 4.0)

    return Pseudometric(density=density, zeros=(), curvature=curvature,
                        pinch=None, name=name)


# ---------------------------------------------------------------------------
# curvature


def _regular_log_density(mu: Pseudometric, w):
    """log density - sum(order * log|w - a|) over the declared zeros a:
    smooth at the zeros, and its Laplacian is that of log density off
    them because the subtracted term is harmonic there."""
    v = np.log(np.asarray(mu.density(w), dtype=float))
    for rec in mu.zeros:
        v = v - rec.order * np.log(np.abs(w - rec.location))
    return v


def curvature_grid(mu: Pseudometric, zs) -> np.ndarray:
    """Gauss curvature -Lap(log density)/density^2 at a point or an array
    of points.

    Uses the exact provider when available, otherwise the
    Richardson-extrapolated five-point Laplacian of the regular part of
    log density at step h = CURVATURE_H.  A numeric result is accurate to
    CURVATURE_TOL or the call raises a MetricError naming the first
    refused point: at |z| > 0.999 (finite differences degrade there),
    when the stencil comes within 2h of a declared zero, when the
    roundoff floor, which grows like 1/(h density)^2, exceeds the
    tolerance, and when halving h moves the value by more than half the
    tolerance.
    """
    if mu.curvature is not None:
        return np.asarray(mu.curvature(zs), dtype=float)
    zs = np.asarray(zs, dtype=complex)

    def refuse(bad, why: str, *per_point) -> None:
        """Raise for the first point where ``bad`` holds; ``why`` is
        formatted with the values of ``per_point`` there."""
        bad = np.ravel(bad)
        if bad.any():
            i = int(bad.argmax())
            raise MetricError(f"numeric curvature at {complex(zs.flat[i])} "
                              + why.format(*(np.ravel(v)[i] for v in per_point)))

    h = CURVATURE_H
    refuse(np.abs(zs) > min(NEAR_BOUNDARY_CUTOFF, mu.domain_radius - 2 * h),
           "is refused: near-boundary finite differences degrade; move the "
           "sample point inward")
    for rec in mu.zeros:
        refuse(np.abs(zs - rec.location) < 2.0 * h, "is refused: the stencil "
               f"touches the zero at {rec.location}; use a larger offset")
    d = np.asarray(mu.density(zs), dtype=float)
    floor = RICHARDSON_WEIGHT * LOG_DENSITY_NOISE / (h * d) ** 2
    refuse(floor > CURVATURE_TOL, "is lost in roundoff: density {:.3e} gives "
           f"a roundoff floor {{:.1e}} > {CURVATURE_TOL:g}; use a larger "
           "offset from the zeros or a larger step h", d, floor)
    regular = functools.partial(_regular_log_density, mu)
    lap = laplacian_fd(regular, zs, h, richardson=True)
    drift = np.abs(laplacian_fd(regular, zs, h / 2.0, richardson=True) - lap) / d**2
    refuse(drift > CURVATURE_TOL / 2.0, "does not settle: halving the step h "
           f"moves it by {{:.1e}} > {CURVATURE_TOL / 2.0:g}", drift)
    return -lap / d**2


def curvature_source(mu: Pseudometric, zs) -> np.ndarray:
    """The source kappa density^2 = -Lap(log density) on an array of points:
    exact provider times density^2, or else the plain five-point Laplacian
    of the regular part of log density at step CURVATURE_H.  Nothing is
    divided by density^2, so no roundoff floor applies."""
    if mu.curvature is not None:
        return (np.asarray(mu.curvature(zs), dtype=float)
                * np.asarray(mu.density(zs), dtype=float) ** 2)
    return -laplacian_fd(functools.partial(_regular_log_density, mu),
                         np.asarray(zs), CURVATURE_H)


# ---------------------------------------------------------------------------
# domination and quotients


def require_structural_domination(lam: Pseudometric, mu: Pseudometric) -> None:
    """Every zero of mu must appear among lam's zeros with order >= mu's."""
    for rec in mu.zeros:
        match = lam.zero_at(rec.location)
        if match is None or match.order < rec.order - 1e-12:
            raise DominationError(
                f"not dominated: zero of order {rec.order} at {rec.location} "
                "has no matching zero in the candidate metric")


def _limit_quotient(lam: Pseudometric, mu: Pseudometric, rec: ZeroRecord,
                    lam_order: float) -> float:
    if lam_order > rec.order + 1e-12:
        return 0.0
    ring = rec.location + polar_points([QUOTIENT_LIMIT_RADIUS],
                                       QUOTIENT_LIMIT_ANGLES, 0.0)
    vals = np.asarray(lam.density(ring), dtype=float) / \
        np.asarray(mu.density(ring), dtype=float)
    return float(np.mean(vals))


def quotient(lam: Pseudometric, mu: Pseudometric, z):
    """Extended value of lam/mu at z (continuous across zeros of mu).

    Off zeros of mu this is the plain density ratio.  At a zero of mu of
    order beta where lam carries order alpha >= beta, the value is 0 for
    alpha > beta and the angular average of the ratio on a small ring for
    alpha = beta.  Elementwise over an array of points.
    """
    require_structural_domination(lam, mu)
    z = np.asarray(z)
    out = np.zeros(z.shape)
    on_zero = np.zeros(z.shape, dtype=bool)
    for rec in mu.zeros:
        hit = (np.abs(z - rec.location) < ZERO_MATCH_TOL) & ~on_zero
        if np.any(hit):
            lam_rec = lam.zero_at(rec.location)
            lam_order = lam_rec.order if lam_rec is not None else 0.0
            out[hit] = _limit_quotient(lam, mu, rec, lam_order)
            on_zero |= hit
    np.divide(np.asarray(lam.density(z), dtype=float),
              np.asarray(mu.density(z), dtype=float), out=out, where=~on_zero)
    return out[()]


@dataclass(frozen=True)
class DominationReport:
    passed: bool
    curvature_violations: tuple
    quotient_violations: tuple
    n_checked: int


def default_disk_grid(r_max: float = 0.9,
                      avoid: Sequence[complex] = ()) -> np.ndarray:
    """Sample points in the disk, 9 radii from 0.08 to r_max times 16
    angles, keeping those more than 0.02 from each given location."""
    pts = polar_points(np.linspace(0.08, r_max, 9), 16, 0.31)
    keep = np.ones(pts.shape, dtype=bool)
    for a in avoid:
        keep &= np.abs(pts - a) > 0.02
    return pts[keep]


def check_domination(lam: Pseudometric, mu: Pseudometric) -> DominationReport:
    """Sampled verification of lam <= mu in the domination order:
    kappa_lam <= kappa_mu + 1e-3 (1e-10 when both curvatures are exact)
    and 0 <= lam/mu <= 1 + 1e-7 on the default disk grid, capped at 0.93
    of either metric's domain radius and clear of both metrics' zeros."""
    require_structural_domination(lam, mu)
    avoid = [r.location for r in lam.zeros] + [r.location for r in mu.zeros]
    r_cap = min(0.9, lam.domain_radius * 0.93, mu.domain_radius * 0.93)
    grid = default_disk_grid(r_max=r_cap, avoid=avoid)

    qv = []
    q = quotient(lam, mu, grid)
    bad_q = (q < -1e-7) | (q > 1.0 + 1e-7)
    for z, val in zip(grid[bad_q], q[bad_q]):
        qv.append((complex(z), float(val)))

    cv = []
    k_lam = curvature_grid(lam, grid)
    k_mu = curvature_grid(mu, grid)
    # exact-vs-exact comparisons need no finite-difference slack
    tol_c = 1e-10 if (lam.has_exact_curvature and mu.has_exact_curvature) \
        else 1e-3
    bad_c = k_lam > k_mu + tol_c
    for z, a, b in zip(grid[bad_c], k_lam[bad_c], k_mu[bad_c]):
        cv.append((complex(z), float(a), float(b)))

    return DominationReport(passed=not qv and not cv,
                            curvature_violations=tuple(cv),
                            quotient_violations=tuple(qv),
                            n_checked=int(grid.size))


# ---------------------------------------------------------------------------
# zero orders


def zero_order(mu: Pseudometric, xi: complex) -> float:
    """Estimate the order of a zero at xi from the growth of the density.

    Least-squares slope of mean log density, over 16 angles, against log
    radius over the radii 10^-2 .. 10^-5.  Returns 0 for points where the
    density does not vanish.  Raises if the per-decade slopes disagree by
    more than 0.05 (no clean power behavior).
    """
    xi = complex(xi)
    if float(mu.density(xi)) > 1e-8:
        return 0.0
    radii = 10.0 ** (-np.arange(2, 6, dtype=float))
    mean_logs = []
    for r in radii:
        vals = np.asarray(mu.density(xi + polar_points([r], 16, 0.17)), dtype=float)
        if np.any(vals <= 0.0):
            raise MetricError("density not positive on a punctured neighborhood")
        mean_logs.append(float(np.mean(np.log(vals))))
    logs = np.array(mean_logs)
    logr = np.log(radii)
    per_decade = np.diff(logs) / np.diff(logr)
    if np.max(per_decade) - np.min(per_decade) > 0.05:
        raise MetricError(
            f"zero order estimate did not converge (slope spread "
            f"{np.max(per_decade) - np.min(per_decade):.3g})")
    design = np.column_stack([np.ones_like(logr), logr])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(coef[1])
