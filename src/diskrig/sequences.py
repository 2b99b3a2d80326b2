"""Sequence-level rigidity: counterexample families, the dichotomy scan,
the sequential boundary Schwarz-Pick check, and zero-order tracking.

Two classical failure modes block a naive sequential extremal-density
lemma, and both are constructible here: curvatures escaping to -infinity
at a point (subharmonic-weight family) and zeros that fade away while
drifting (moving-zero family).  The dichotomy scan classifies a sequence
of dominated pseudometrics as locally-uniformly convergent to the
dominating metric or as carrying fading zeros; the zero tracker verifies
the order limits that domination forces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .holomap import (Automorphism, HoloMap, certify_selfmap, disk_jet,
                      hyperbolic_derivative, invariant_derivative)
from .metric import (DominationError, Pseudometric, check_domination,
                     exp_weight, mu_max, poincare, pullback, quotient)
from .numerics import DiskrigError, Verdict, fit_boundary_rate, polar_points

MAX_FACTORIAL_N = 170
COMPACT_GRID_RADIUS = 0.8
UNIFORM_TOL = 0.05
#: largest gap between the tracked zero order and its limit that passes
ORDER_TOL = 1e-2
DICHOTOMY_VERDICTS = ("UNIFORM_CONVERGENCE", "FADING_ZEROS", "INCONCLUSIVE")
SCHWARZ_PICK_CLASSES = ("automorphism-like", "constant-like", "indeterminate")


class SequenceError(DiskrigError, ValueError):
    """Raised on invalid sequence input."""


@dataclass(frozen=True)
class MetricSequence:
    """A pseudometric for every index n; each member declares its zeros."""

    generator: Callable[[int], Pseudometric]
    description: str = ""

    def metric(self, n: int) -> Pseudometric:
        return self.generator(n)


# ---------------------------------------------------------------------------
# the two counterexample families


def factorial_weight(n: int) -> Callable:
    """The radial weight -1 - 1/n! + (|z|^2 + 1/n!)^(1/n), negative and
    subharmonic on the disk; flat near the rim, pinched at the origin."""
    if n < 1:
        raise SequenceError("index must be >= 1")
    if n > MAX_FACTORIAL_N:
        raise SequenceError("1/n! underflows double precision beyond 170")
    c = 1.0 / math.factorial(n)

    def s(z):
        return -1.0 - c + (np.abs(z) ** 2 + c) ** (1.0 / n)

    return s


def factorial_weight_laplacian(n: int) -> Callable:
    """Closed-form Laplacian of the factorial weight.

    For s = g(|z|^2) with g(t) = (t + c)^(1/n) - 1 - c one has
    Lap s = 4 (g'(t) + t g''(t)) = (4/n) (t + c)^(1/n - 2) (c + t/n).
    """
    c = 1.0 / math.factorial(n)

    def lap(z):
        t = np.abs(z) ** 2
        return 4.0 / n * (t + c) ** (1.0 / n - 2.0) * (c + t / n)

    return lap


def weighted_family(n: int) -> Pseudometric:
    """Member n of the subharmonic-weight family e^(s_n) / (1-|z|^2).

    Curvature stays <= -4 but is unbounded below at the origin as n
    grows; the density converges to the hyperbolic one away from 0 while
    the value at 0 stabilizes a factor e below it.
    """
    return exp_weight(factorial_weight(n), factorial_weight_laplacian(n),
                      name=f"weighted[{n}]")


def moving_zero_metric(order: float, zero: complex) -> Pseudometric:
    """Pullback of the extremal density with a zero of the given order
    under the involution exchanging 0 and ``zero``: a curvature -4
    pseudometric with one zero of that order at ``zero``."""
    if not 0.0 < order < 1.0:
        raise SequenceError("zero order must lie in (0, 1)")
    if zero == 0:
        raise SequenceError("the moving zero must be away from the origin")
    return pullback(Automorphism(zero), mu_max(order))


def moving_zero_family(n: int) -> Pseudometric:
    """Member n: order 1/n at the point exp(-sqrt(n)) on the positive axis.

    Orders fade like 1/n while the zeros drift to the origin slowly
    enough that the density value at 0 still tends to the hyperbolic one.
    """
    if n < 2:
        raise SequenceError("family starts at n = 2")
    return moving_zero_metric(1.0 / n, math.exp(-math.sqrt(n)) + 0j)


def weighted_sequence() -> MetricSequence:
    return MetricSequence(weighted_family, "subharmonic-weight family")


def moving_zero_sequence() -> MetricSequence:
    return MetricSequence(moving_zero_family, "fading moving-zero family")


# ---------------------------------------------------------------------------
# dichotomy scan


@dataclass(frozen=True)
class DichotomyReport:
    verdict: str                       # one of DICHOTOMY_VERDICTS
    ns: tuple[int, ...]
    sup_deviation: tuple[float, ...]   # sup over the compact grid of |q_n - 1|
    hypothesis_ok: bool
    largest_n: int
    notes: str = ""


def _compact_grid() -> np.ndarray:
    radii = np.linspace(0.0, COMPACT_GRID_RADIUS, 7)
    return np.concatenate([[0j], polar_points(radii[1:], 12, 0.41)])


def dichotomy_scan(seq: MetricSequence, mu: Pseudometric, c: float,
                   sample_points: Callable[[int], complex]) -> DichotomyReport:
    """Classify a dominated sequence: quotients to 1 locally uniformly,
    or zeros of fading order accumulating at an interior point.

    Members n = 2, 4, ..., 64 are checked, the hypothesis at the point
    ``sample_points(n)`` of each.  The sup deviation is taken over a
    fixed compact grid (|z| <= COMPACT_GRID_RADIUS = 0.8) augmented with
    the declared zero locations of each member, so the non-uniformity
    caused by a drifting zero cannot slip between fixed grid points.  The
    convergence threshold at the largest index is a documented choice
    (UNIFORM_TOL = 0.05); the verdict always names that index.
    """
    ns = (2, 4, 8, 16, 32, 64)
    compact_grid = _compact_grid()
    samples = [complex(sample_points(n)) for n in ns]

    sups = []
    hyp_vals = []
    member_zeros = []
    for n, z_n in zip(ns, samples):
        lam = seq.metric(n)
        member_zeros.append(lam.zeros)
        dom = check_domination(lam, mu)
        if not dom.passed:
            raise DominationError(f"domination fails at index n = {n}")
        pts = compact_grid
        extra = [r.location for r in lam.zeros
                 if abs(r.location) <= COMPACT_GRID_RADIUS]
        if extra:
            pts = np.concatenate([pts, np.asarray(extra)])
        q = quotient(lam, mu, pts)
        sups.append(float(np.max(np.abs(q - 1.0))))
        hyp_vals.append(abs(quotient(lam, mu, z_n) - 1.0))

    # hypothesis: quotient at the sample points tends to 1.  Boundary
    # sequences get the full rate fit; interior ones a trend check.
    ts = np.abs(np.asarray(samples))
    if np.all(np.diff(ts) > 0) and ts[-1] > 0.9:
        rate = fit_boundary_rate(ts, hyp_vals, c / 2.0)
        hypothesis_ok = rate.verdict is Verdict.VANISHES
    else:
        hypothesis_ok = hyp_vals[-1] <= max(0.2, 0.8 * hyp_vals[0]) and \
            hyp_vals[-1] <= sorted(hyp_vals)[len(hyp_vals) // 2]

    sup_arr = np.asarray(sups)
    decreasing = np.all(np.diff(sup_arr) <= 1e-12)
    if not hypothesis_ok:
        verdict = "INCONCLUSIVE"
        notes = "hypothesis rate not verified"
    elif decreasing and sup_arr[-1] <= UNIFORM_TOL:
        verdict = "UNIFORM_CONVERGENCE"
        notes = ""
    else:
        orders = []
        locs = []
        for zs in member_zeros:
            if not zs:
                orders = []
                break
            rec = min(zs, key=lambda r: r.order)
            orders.append(rec.order)
            locs.append(rec.location)
        fading = (len(orders) == len(ns)
                  and all(b <= a + 1e-12 for a, b in zip(orders, orders[1:]))
                  and orders[-1] <= 0.1
                  and abs(locs[-1] - locs[-2]) < 0.2)
        if fading:
            verdict = "FADING_ZEROS"
            notes = f"orders fade to {orders[-1]:.4g}"
        else:
            verdict = "INCONCLUSIVE"
            notes = "no uniform convergence and no fading zero path detected"
    return DichotomyReport(verdict=verdict, ns=ns,
                           sup_deviation=tuple(sups),
                           hypothesis_ok=hypothesis_ok,
                           largest_n=ns[-1], notes=notes)


# ---------------------------------------------------------------------------
# sequential boundary Schwarz-Pick


@dataclass(frozen=True)
class SequentialSchwarzPickReport:
    hypothesis_ok: bool
    hypothesis_limit: float
    sup_invariant_deviation: tuple[float, ...]
    uniform_ok: bool
    classification: str        # one of SCHWARZ_PICK_CLASSES
    largest_n: int


def sequential_schwarz_pick(maps: Callable[[int], HoloMap],
                            points: Callable[[int], complex]
                            ) -> SequentialSchwarzPickReport:
    """Check the sequential boundary rigidity signature for self-maps.

    Members n = 2, 4, ..., 256 are checked.  Hypothesis: the invariant
    derivative at z_n approaches 1 faster than (1-|z_n|)^2.  Conclusion
    tested: the invariant derivative tends to 1 uniformly on the compact
    grid (|z| <= COMPACT_GRID_RADIUS), and the maps either stay spread
    out (automorphism-like limit) or degenerate to a unimodular constant
    (modulus to 1 on the grid).
    """
    ns = tuple(2**k for k in range(1, 9))
    pts = _compact_grid()

    ts, hyp = [], []
    sups = []
    min_mod = []
    for n in ns:
        f = maps(n)
        ok, mx = certify_selfmap(f)
        if not ok:
            raise SequenceError(f"member {n} is not a self-map (max {mx})")
        z_n = complex(points(n))
        ts.append(abs(z_n))
        hyp.append(float(hyperbolic_derivative(f, z_n)) - 1.0)
        w, dw = disk_jet(f, pts)
        sups.append(float(np.max(np.abs(invariant_derivative(pts, w, dw) - 1.0))))
        min_mod.append(float(np.min(np.abs(w))))

    if all(b > a for a, b in zip(ts, ts[1:])) and ts[-1] > 0.9:
        rate = fit_boundary_rate(ts, hyp, 2.0)
        hypothesis_ok = rate.verdict is Verdict.VANISHES
        hyp_limit = rate.fitted_limit
    else:
        hyp_limit = abs(hyp[-1])
        hypothesis_ok = hyp_limit <= 1e-6

    uniform_ok = bool(np.all(np.diff(sups) <= 1e-9) and sups[-1] <= 1e-6)
    if not hypothesis_ok:
        classification = "indeterminate"
    elif min_mod[-1] >= 0.8 and min_mod[-1] >= min_mod[0]:
        classification = "constant-like"
    elif min_mod[-1] <= 0.5:
        classification = "automorphism-like"
    else:
        classification = "indeterminate"
    return SequentialSchwarzPickReport(hypothesis_ok=hypothesis_ok,
                                       hypothesis_limit=hyp_limit,
                                       sup_invariant_deviation=tuple(sups),
                                       uniform_ok=uniform_ok,
                                       classification=classification,
                                       largest_n=ns[-1])


# ---------------------------------------------------------------------------
# zero-order tracking


@dataclass(frozen=True)
class ZeroTrackReport:
    kind: str                  # "order-limit" (shared zero) | "fading" (drifting zero)
    orders: tuple[float, ...]
    locations: tuple[complex, ...]
    target: float
    final_gap: float
    passed: bool
    largest_n: int


def zero_rigidity_track(seq: MetricSequence, mu: Pseudometric,
                        points: Callable[[int], complex], xi: complex,
                        ns: Sequence[int] = tuple(2**k for k in range(1, 8)),
                        ) -> ZeroTrackReport:
    """Track declared zero orders of a dominated sequence near xi.

    Requires the quotients at the tracked points to approach 1 (the
    rigidity hypothesis: |quotient - 1| at the largest index at most 0.15
    and at most twice its value at the first); raises otherwise.  When xi
    is a shared zero of every member, the member orders must converge to
    mu's order there; when the members' zeros drift toward xi while
    staying distinct from it, their orders must fade to 0.  Both limits are asserted at the
    largest index within ORDER_TOL.
    """
    ns = tuple(ns)
    hyp = []
    orders = []
    locs = []
    for n in ns:
        lam = seq.metric(n)
        dom = check_domination(lam, mu)
        if not dom.passed:
            raise DominationError(f"domination fails at index n = {n}")
        z_n = complex(points(n))
        hyp.append(abs(quotient(lam, mu, z_n) - 1.0))
        zs = lam.zeros
        if not zs:
            orders.append(0.0)
            locs.append(complex(xi))
            continue
        rec = min(zs, key=lambda r: abs(r.location - xi))
        orders.append(rec.order)
        locs.append(rec.location)

    if hyp[-1] > 0.15 or hyp[-1] > 2.0 * hyp[0] + 1e-12:
        raise SequenceError(
            f"rigidity hypothesis fails: |quotient - 1| = {hyp[-1]:.3g} "
            f"at n = {ns[-1]}")

    shared = all(abs(l - xi) < 1e-9 for l in locs)
    mu_rec = mu.zero_at(xi)
    if shared:
        target = mu_rec.order if mu_rec is not None else 0.0
        kind = "order-limit"
    else:
        if not all(abs(b - xi) <= abs(a - xi) + 1e-12
                   for a, b in zip(locs, locs[1:])):
            raise SequenceError("zero locations do not approach the target point")
        target = 0.0
        kind = "fading"
    final_gap = abs(orders[-1] - target)
    return ZeroTrackReport(kind=kind, orders=tuple(orders),
                           locations=tuple(locs), target=target,
                           final_gap=final_gap,
                           passed=final_gap <= ORDER_TOL,
                           largest_n=ns[-1])


# ---------------------------------------------------------------------------
# extremal family witness


def extremal_family_witness(a: float, z: complex) -> tuple[np.ndarray, float]:
    """One-sided witness that densities with curvature <= -4 and value
    at most ``a`` at the origin still reach the hyperbolic density at
    every other point.

    Evaluates the extremal-zero densities of fading order 2^-k,
    k = 0, ..., 10, at z (each has value 0 <= a at the origin, so all
    belong to the constrained family) and returns (running maxima,
    hyperbolic target).  The cap ``a`` does
    not bound the supremum away from the target.
    """
    if not 0.0 < a <= 1.0:
        raise SequenceError("cap must lie in (0, 1]")
    z = complex(z)
    if z == 0:
        raise SequenceError("the witness is only claimed away from the origin")
    vals = np.array([float(mu_max(2.0 ** -k).density(z)) for k in range(11)])
    running = np.maximum.accumulate(vals)
    target = float(poincare().density(z))
    if np.any(vals > target + 1e-9):
        raise SequenceError("a family member exceeds the extremal ceiling")
    return running, target
