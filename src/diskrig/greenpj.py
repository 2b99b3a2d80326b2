"""Green potentials and the Poisson-Jensen decomposition on sub-disks.

For the disk of radius R the Green's function is
g_R(z, w) = -log |R (z - w) / (R^2 - conj(w) z)|.  A log density with
curvature <= -4 splits on |z| < R into three parts: the weighted Green
terms of its zeros, the least harmonic majorant of the log density
(computed as the Poisson integral of its values on |xi| = R), and an
area Green potential of the curvature source.  The module assembles the
decomposition, reports the reconstruction residual, and checks the
quotient bound that the split implies for dominated pairs of metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (Pseudometric, ZeroRecord, curvature_source, quotient,
                     require_structural_domination)
from .numerics import DiskrigError, PolarGrid, polar_points, quadrature_disk

CIRCLE_ZERO_TOL = 1e-9
POINT_COINCIDENCE_TOL = 1e-14
#: largest reconstruction residual a decomposition passes with
PJ_TOL = 1e-3
#: (n_r, n_t) of the pole-centred rule of green_mean and pj_decompose
#: when no grid is given
RESOLUTION = (64, 128)


class GreenPJError(DiskrigError, ValueError):
    """Raised on invalid potential-theory input."""


def green(R: float, z: complex, w) -> float | np.ndarray:
    """Green's function of the disk |z| < R; symmetric, positive,
    vanishing as w tends to the rim.  Vectorized over w: a numpy scalar
    for a single point, an array for an array."""
    if abs(z) >= R:
        raise GreenPJError(f"first argument must lie inside the disk; z = {z}")
    w = np.asarray(w)
    outside = np.abs(w) >= R
    if np.any(outside):
        raise GreenPJError(f"second argument must lie inside the disk; "
                           f"w = {complex(w.flat[np.argmax(outside)])}")
    dist = np.abs(z - w)
    pole = dist < POINT_COINCIDENCE_TOL
    if np.any(pole):
        raise GreenPJError(f"Green's function has a logarithmic pole at w = z; "
                           f"w = {complex(w.flat[np.argmax(pole)])}")
    return -np.log(R * dist / np.abs(R**2 - np.conj(w) * z))


def _require_covering(grid: PolarGrid, R: float) -> None:
    if abs(grid.center) > 1e-15 or abs(grid.radius - R) > 1e-12:
        raise GreenPJError(f"grid must cover the disk of radius {R} about 0: {grid}")


def green_mean(R: float, z: complex, grid: PolarGrid | None = None) -> float:
    """(1/2pi) * area integral of g_R(z, .) over the disk.

    Equals (R^2 - |z|^2)/4 exactly; the quadrature value is returned so
    the identity can be used as an error gauge for the rule, which builds
    the kernel from its own polar coordinates and no node array.
    """
    if grid is None:
        grid = PolarGrid(0j, R, *RESOLUTION)
    _require_covering(grid, R)
    total = quadrature_disk(grid, None, z)
    return total / (2.0 * math.pi)


def harmonic_majorant(lam: Pseudometric, R: float, z: complex) -> float:
    """Least harmonic majorant of log density on |z| < R.

    Computed as the Poisson integral of the boundary values on |xi| = R,
    by the trapezoid rule on 512 equispaced points, which is valid
    because catalog densities are continuous and positive there.  The
    value never exceeds log(1/(1-R^2)) for curvature <= -4
    densities; that ceiling is asserted.
    """
    if abs(z) >= R:
        raise GreenPJError("evaluation point must lie inside the disk")
    for rec in lam.zeros:
        if abs(abs(rec.location) - R) < CIRCLE_ZERO_TOL:
            raise GreenPJError(
                f"zero at {rec.location} sits on the circle |xi| = {R}; "
                "perturb the radius")
    ring = polar_points([R], 512, 0.0)
    vals = np.log(np.asarray(lam.density(ring), dtype=float))
    pk = (R**2 - abs(z) ** 2) / np.abs(ring - z) ** 2
    value = float(np.mean(pk * vals))
    ceiling = -math.log1p(-(R**2))
    if value > ceiling + 1e-9:
        raise GreenPJError(
            f"majorant {value} exceeds the curvature ceiling {ceiling}")
    return value


@dataclass(frozen=True)
class PJDecomposition:
    R: float
    zero_terms: tuple[tuple[ZeroRecord, float], ...]
    majorant_value: float
    potential_value: float
    reconstructed_log_density: float
    log_density: float

    @property
    def residual(self) -> float:
        return abs(self.reconstructed_log_density - self.log_density)

    @property
    def passed(self) -> bool:
        return self.residual <= PJ_TOL


def pj_decompose(lam: Pseudometric, R: float, z: complex,
                 grid: PolarGrid | None = None) -> PJDecomposition:
    """Assemble log density(z) from zeros, majorant, and Green potential.

    log lam(z) = -sum_j alpha_j g_R(z, xi_j) + h_R(z)
                 + (1/2pi) * integral of g_R(z, w) kappa(w) lam(w)^2 dA_w.

    The area integral is the grid's Green potential of the source about
    z, the kernel's logarithmic pole (numerics.quadrature_disk).
    Requires declared pinch bounds with kappa <= -4 and a grid on the
    disk of radius R about 0 (one of RESOLUTION when none is given); z
    must stay away from the zeros and the zeros away from the circle.
    """
    if lam.pinch is None or lam.pinch[1] > -4.0 + 1e-12:
        raise GreenPJError("decomposition needs declared pinch bounds with "
                           "curvature <= -4")
    if abs(z) >= R:
        raise GreenPJError("evaluation point must lie inside the disk")
    for rec in lam.zeros:
        if abs(z - rec.location) < 1e-6:
            raise GreenPJError("evaluation point too close to a zero")
    if grid is None:
        grid = PolarGrid(0j, R, *RESOLUTION)
    _require_covering(grid, R)

    zero_terms = []
    for rec in lam.zeros:
        if abs(rec.location) < R:
            zero_terms.append((rec, -rec.order * green(R, z, rec.location)))

    majorant = harmonic_majorant(lam, R, z)
    potential = quadrature_disk(
        grid, lambda w: curvature_source(lam, w), z) / (2.0 * math.pi)

    log_density = math.log(float(lam.density(z)))
    reconstructed = sum(t for _, t in zero_terms) + majorant + potential
    return PJDecomposition(R=R, zero_terms=tuple(zero_terms),
                           majorant_value=majorant,
                           potential_value=potential,
                           reconstructed_log_density=reconstructed,
                           log_density=log_density)


@dataclass(frozen=True)
class QuotientBoundReport:
    lhs: float
    rhs: float
    passed: bool
    details: dict


def zero_quotient_bound(lam: Pseudometric, mu: Pseudometric, r: float,
                        xi: complex, z: complex) -> QuotientBoundReport:
    """Green-potential bound on the log quotient of a dominated pair:

        log(lam/mu)(z) <= -(alpha - beta) g_r(z, xi) + r^2 c_r / (4 (1-r^2)^2)

    with alpha, beta the declared orders at xi and c_r = -mu.pinch[0] the
    curvature floor magnitude of mu; mu without pinch bounds is refused.
    The bound passes with a slack of 1e-9.
    """
    require_structural_domination(lam, mu)
    if abs(xi) >= r or abs(z) >= r:
        raise GreenPJError("xi and z must lie inside the disk of radius r")
    if mu.pinch is None:
        raise GreenPJError("the bound needs pinch bounds declared on mu")
    c_r = -mu.pinch[0]
    lam_rec = lam.zero_at(xi)
    mu_rec = mu.zero_at(xi)
    alpha = lam_rec.order if lam_rec is not None else 0.0
    beta = mu_rec.order if mu_rec is not None else 0.0
    q = quotient(lam, mu, z)
    lhs = math.log(q) if q > 0 else -math.inf
    rhs = -(alpha - beta) * green(r, z, xi) + r**2 * c_r / (4.0 * (1.0 - r**2) ** 2)
    return QuotientBoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs + 1e-9,
                               details={"alpha": alpha, "beta": beta,
                                        "c_r": c_r})
