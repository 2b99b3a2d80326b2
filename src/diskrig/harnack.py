"""Boundary Harnack inequality, Hopf-type strictness, and rate scanners.

The central estimate verified here: for dominated pseudometrics lam <= mu
with kappa_mu pinched in [-c, -4],

    log(lam/mu)(z) <= C_r / (1-r^2)^(c/2)
                      * max_{|xi|=r} log(lam/mu)(xi) * (1-|z|^2)^(c/2)

on each annulus r <= |z| < 1, with the explicit constant C_r = e^(1-1/r^2).
The proof devices are exposed as checkable objects: the annulus barrier
v_r(z) = (1-|z|^2)^(c/2) e^((1-|z|^2)/r^2) with its differential
inequality, and the cubic whose positivity on [r^2, 1] drives it.  On top
sit the boundary rigidity scanners (quotient-to-one rates along boundary
paths) and the two-rate check behind the classical cubic-order boundary
Schwarz lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holomap import (Blaschke, HoloMap, Monomial, certify_selfmap, disk_jet, f_eps,
                      invariant_derivative)
from .metric import (MetricError, Pseudometric, check_domination, mu_max,
                     poincare, pullback, quotient, scale)
from .numerics import (DiskrigError, RateReport, dyadic_ts, fit_boundary_rate,
                       laplacian_fd, polar_points)

INEQ_TOL = 1e-7
#: slack of the Golusin bound
GOLUSIN_TOL = 1e-9
ANNULUS_CAP = 0.9995


class HarnackError(DiskrigError, ValueError):
    """Raised on invalid checker input."""


@dataclass(frozen=True)
class InequalityReport:
    """Generic sampled-inequality report: max violation and witness."""

    passed: bool
    max_violation: float
    witness: complex
    n_checked: int
    details: dict | None = None


def harnack_constant(r: float) -> float:
    """The explicit annulus constant e^(1 - 1/r^2)."""
    if not 0.0 < r < 1.0:
        raise HarnackError("r must lie in (0, 1)")
    return math.exp(1.0 - 1.0 / r**2)


# ---------------------------------------------------------------------------
# proof devices: the annulus barrier and its cubic


def _require_pinching(c: float) -> None:
    """Refuse a pinching constant c that is not finite and >= 4 (NaN too)."""
    if not 4.0 <= c < math.inf:
        raise HarnackError(f"c must be finite and >= 4, got {c}")


def barrier_v(r: float, c: float, z: complex) -> float:
    """Barrier (1-|z|^2)^(c/2) e^((1-|z|^2)/r^2), vanishing on |z| = 1."""
    if not 0.0 < r < 1.0:
        raise HarnackError("r must lie in (0, 1)")
    _require_pinching(c)
    s = 1.0 - np.abs(z) ** 2
    if np.any(s < 0):
        raise HarnackError("barrier defined on the closed disk only")
    return s ** (c / 2.0) * np.exp(s / r**2)


def barrier_cubic(c: float, r: float):
    """The cubic f with (Lap v_r / v_r)(1-|z|^2)^2 = f(|z|^2).

    Closed-form endpoint values: f(r^2) = 2c + c(c-4) r^2 and
    f(1) = (c-2) c; on [r^2, 1] it stays >= 2c.
    """
    r2, r4 = r**2, r**4

    def f(x):
        return (4.0 * x**3
                - 4.0 * (2.0 + (1.0 + c) * r2) * x**2
                + (4.0 + 4.0 * (2.0 + c) * r2 + c**2 * r4) * x
                - 2.0 * r2 * (2.0 + c * r2)) / r4

    return f


def cubic_check(c: float, r: float) -> InequalityReport:
    """Endpoint identities and the lower bound f >= 2c on [r^2, 1], sampled
    at 400 equispaced points."""
    _require_pinching(c)
    if not 0.0 < r < 1.0:
        raise HarnackError("r must lie in (0, 1)")
    f = barrier_cubic(c, r)
    at_r2 = f(r**2)
    at_one = f(1.0)
    id_r2 = 2.0 * c + c * (c - 4.0) * r**2
    id_one = (c - 2.0) * c
    xs = np.linspace(r**2, 1.0, 400)
    vals = f(xs)
    min_val = float(np.min(vals))
    witness = complex(xs[int(np.argmin(vals))])
    passed = (abs(at_r2 - id_r2) < 1e-9 and abs(at_one - id_one) < 1e-9
              and min_val >= 2.0 * c - 1e-9)
    return InequalityReport(passed=passed,
                            max_violation=max(2.0 * c - min_val,
                                              abs(at_r2 - id_r2),
                                              abs(at_one - id_one)),
                            witness=witness, n_checked=xs.size,
                            details={"f_at_r2": at_r2, "f_at_r2_closed": id_r2,
                                     "f_at_1": at_one, "f_at_1_closed": id_one,
                                     "min_on_interval": min_val})


def _worst_violation(viol: np.ndarray, grid: np.ndarray) -> tuple[float, complex]:
    """The largest violation over a grid and the point where it occurs."""
    worst = int(np.argmax(viol))
    return float(viol[worst]), complex(grid[worst])


def verify_barrier_pde(r: float, c: float) -> InequalityReport:
    """Check Lap v_r >= 2c v_r / (1-|z|^2)^2 at 12 radii from r + 0.01 to
    0.99 times 8 angles, with the Richardson-extrapolated five-point
    Laplacian at step 1e-4, up to a violation of 1e-5."""
    grid = polar_points(np.linspace(r + 0.01, 0.99, 12), 8, 0.0)
    lap = laplacian_fd(lambda w: barrier_v(r, c, w), grid, 1e-4, richardson=True)
    viol = 2.0 * c * barrier_v(r, c, grid) / (1.0 - np.abs(grid) ** 2) ** 2 - lap
    worst, witness = _worst_violation(viol, grid)
    return InequalityReport(passed=worst <= 1e-5, max_violation=worst,
                            witness=witness, n_checked=int(grid.size))


# ---------------------------------------------------------------------------
# the Harnack checker itself


def check_harnack(lam: Pseudometric, mu: Pseudometric, c: float,
                  r: float) -> InequalityReport:
    """Verify the boundary Harnack inequality at 14 radii from r to the cap
    min(0.9995, 0.97 times either domain radius) times 16 angles, up to a
    violation of INEQ_TOL; the witness is the worst point.

    Requires mu to carry an exact curvature provider with pinch bounds
    inside [-c, -4], and r below the cap; domination of lam by mu is
    checked next and a failure raises before any Harnack sampling
    happens.  The maximum over |xi| = r is taken over 180 equispaced
    points.
    """
    if not 0.0 < r < 1.0:
        raise HarnackError("r must lie in (0, 1)")
    _require_pinching(c)
    if not mu.has_exact_curvature or mu.pinch is None:
        raise HarnackError("dominating metric needs exact curvature with "
                           "declared pinch bounds")
    if mu.pinch[0] < -c - 1e-12 or mu.pinch[1] > -4.0 + 1e-12:
        raise HarnackError(f"pinch bounds {mu.pinch} not inside [-{c}, -4]")
    cap = min(ANNULUS_CAP, 0.97 * lam.domain_radius, 0.97 * mu.domain_radius)
    if r >= cap:
        raise HarnackError(f"r = {r} must lie below the annulus cap {cap:.6g}")
    dom = check_domination(lam, mu)
    if not dom.passed:
        raise MetricError(f"domination fails before the Harnack check: "
                          f"{len(dom.quotient_violations)} quotient and "
                          f"{len(dom.curvature_violations)} curvature violations")

    grid = polar_points(np.linspace(r, cap, 14), 16, 0.23)
    circle = polar_points([r], 180, 0.0)
    inner_max = float(np.max(np.log(quotient(lam, mu, circle))))
    coeff = harnack_constant(r) / (1.0 - r**2) ** (c / 2.0)

    q = quotient(lam, mu, grid)
    with np.errstate(divide="ignore"):
        lhs = np.log(q)
    rhs = coeff * inner_max * (1.0 - np.abs(grid) ** 2) ** (c / 2.0)
    worst, witness = _worst_violation(lhs - rhs, grid)
    return InequalityReport(passed=worst <= INEQ_TOL, max_violation=worst,
                            witness=witness, n_checked=int(grid.size))


def check_golusin(lam: Pseudometric) -> InequalityReport:
    """Constant-curvature sharpening of the extremal bound.

    For densities with curvature exactly -4 (pullbacks, extremal-zero
    densities, the hyperbolic density itself):

        lam(z)/lam_D(z) <= (lam(0) + m(z)) / (1 + lam(0) m(z)),
        m(z) = 2|z| / (1 + |z|^2).

    It is sampled at 12 radii from 0.05 to 0.95 times 12 angles and passes
    up to a violation of GOLUSIN_TOL.  Raises for metrics without exact
    curvature -4, where the bound is known to fail in general.
    """
    if not lam.has_exact_curvature:
        raise HarnackError("bound requires curvature exactly -4; "
                           "this metric has no exact provider")
    probe = np.array([0.11 + 0.07j, -0.4 + 0.31j, 0.62j, 0.55 - 0.21j])
    if np.max(np.abs(np.asarray(lam.curvature(probe), dtype=float) + 4.0)) > 1e-10:
        raise HarnackError("bound requires curvature exactly -4")
    grid = polar_points(np.linspace(0.05, 0.95, 12), 12, 0.23)
    lam0 = float(lam.density(0j))
    hyp = poincare()
    m = 2.0 * np.abs(grid) / (1.0 + np.abs(grid) ** 2)
    bound = (lam0 + m) / (1.0 + lam0 * m)
    ratio = np.asarray(lam.density(grid), dtype=float) / \
        np.asarray(hyp.density(grid), dtype=float)
    worst, witness = _worst_violation(ratio - bound, grid)
    return InequalityReport(passed=worst <= GOLUSIN_TOL, max_violation=worst,
                            witness=witness, n_checked=int(grid.size),
                            details={"lam0": lam0})


# ---------------------------------------------------------------------------
# rigidity rate scanners


def rigidity_scan(lam: Pseudometric, mu: Pseudometric, c: float,
                  angle: float = 0.0) -> RateReport:
    """Fit (lam/mu - 1) / (1-|z|)^(c/2) along the ray at ``angle``, on the
    dyadic ladder |z| = 1 - 2^-k of ``dyadic_ts()``.

    A c that is not finite and >= 4 is refused, and domination lam <= mu
    is checked before the scan.  A VANISHES verdict certifies
    the rigidity hypothesis numerically (identity of the metrics
    predicted); BOUNDED_NONZERO or DIVERGES means the hypothesis fails at
    this pinching exponent.
    """
    _require_pinching(c)
    if not check_domination(lam, mu).passed:
        raise MetricError("rigidity scan requires domination lam <= mu")
    ts = dyadic_ts()
    q = np.asarray(quotient(lam, mu, ts * np.exp(1j * angle)), dtype=float)
    return fit_boundary_rate(ts, q - 1.0, c / 2.0)


def identity_spot_check(lam: Pseudometric, mu: Pseudometric) -> InequalityReport:
    """Spot check of the identity a VANISHES scan predicts.

    A numeric rate can certify the hypothesis, not the conclusion; this
    samples |quotient - 1| at 10 radii from 0.05 to 0.9 times 12 angles,
    so the predicted coincidence of the metrics is checked rather than
    asserted.  It passes up to 1e-6.
    """
    grid = polar_points(np.linspace(0.05, 0.9, 10), 12, 0.23)
    worst, witness = _worst_violation(np.abs(quotient(lam, mu, grid) - 1.0), grid)
    return InequalityReport(passed=worst <= 1e-6, max_violation=worst,
                            witness=witness, n_checked=int(grid.size))


def boundary_schwarz_scan(f: HoloMap, jet: tuple | None = None) -> RateReport:
    """Invariant-derivative-to-one rate for a self-map along the positive
    radius, on the ladder of ``dyadic_ts()``.  ``jet`` is (f(t), f'(t)) on
    that ladder, when the caller has walked it already."""
    ts = dyadic_ts()
    z = ts + 0j
    w, dw = disk_jet(f, z) if jet is None else jet
    deficit = invariant_derivative(z, w, dw) - 1.0
    return fit_boundary_rate(ts, deficit, 2.0)


def burns_krantz_check(f: HoloMap) -> tuple[RateReport, RateReport]:
    """Two radial rates behind the cubic-order boundary Schwarz lemma.

    Returns (rate of |f(t) - t| at exponent 3, rate of f^h(t) - 1 at
    exponent 2), both on the ladder of ``dyadic_ts()``: when the first
    vanishes the second must as well.
    """
    ok, mx = certify_selfmap(f)
    if not ok:
        raise HarnackError(f"map is not a certified self-map (max modulus {mx})")
    ts = dyadic_ts()
    jet = disk_jet(f, ts + 0j)      # one walk of the ladder serves both rates
    displacement = fit_boundary_rate(ts, np.abs(jet[0] - ts), 3.0)
    return displacement, boundary_schwarz_scan(f, jet=jet)


# ---------------------------------------------------------------------------
# built-in catalog of dominated pairs


@dataclass(frozen=True)
class HarnackCase:
    name: str
    lam: Pseudometric
    mu: Pseudometric
    c: float
    r: float


def build_catalog(liouville_n: int = 97) -> list[HarnackCase]:
    """Dominated (lam, mu) pairs with correct pinching exponents.

    Includes scaled hyperbolic densities, pullbacks under polynomial and
    Blaschke self-maps, extremal-zero densities, and a variable-curvature
    metric with c = 5, solved on the n = ``liouville_n`` grid.
    """
    from .liouville import make_pinched_metric

    hyp = poincare()
    pinched = make_pinched_metric(n=liouville_n)
    return [
        HarnackCase("equal", hyp, hyp, 4.0, 0.5),
        HarnackCase("scaled-poincare", scale(0.9, hyp), hyp, 4.0, 0.5),
        HarnackCase("zsquare-pullback", pullback(Monomial(2), hyp), hyp, 4.0, 0.5),
        HarnackCase("cubic-perturbation", pullback(f_eps(1.0 / 12.0), hyp),
                    hyp, 4.0, 0.5),
        HarnackCase("blaschke-pullback",
                    pullback(Blaschke((0.3 + 0.2j, -0.4j)), hyp), hyp, 4.0, 0.5),
        HarnackCase("extremal-zero-0.5", mu_max(0.5), hyp, 4.0, 0.5),
        HarnackCase("extremal-zero-2", mu_max(2.0), hyp, 4.0, 0.5),
        HarnackCase("nested-extremal", mu_max(2.0), mu_max(1.0), 4.0, 0.5),
        HarnackCase("pinched-scaled", scale(0.9, pinched), pinched, 5.0, 0.5),
    ]


def run_catalog(liouville_n: int = 97) -> list[tuple[HarnackCase, InequalityReport]]:
    return [(case, check_harnack(case.lam, case.mu, case.c, case.r))
            for case in build_catalog(liouville_n)]
