"""Kobayashi geometry of the unit ball of C^N in closed form.

The infinitesimal metric, the distance, tangential/normal splittings at
the sphere, affine-slice complex geodesics, and the boundary condition
checkers for self-maps: the two-sided distance band, the near-boundary
metric comparison ratio, the geodesic rate characterization, and the
three-condition rigidity signature (tangential cluster, projected
differential boundedness, and the metric-preservation rate along a slice).

Distance normalization: K(0, r e_1) = arctanh r, matching a disk of
curvature -4; every N = 1 quantity then agrees with the disk modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import RateReport, Verdict, dyadic_ts, fit_boundary_rate

SELFMAP_SLACK = 1e-10
BOUNDARY_TOL = 1e-12


class BallError(ValueError):
    """Raised on invalid ball-geometry input."""


def herm(v, w) -> complex:
    """Standard Hermitian product sum v_j conj(w_j)."""
    return complex(np.sum(np.asarray(v) * np.conj(np.asarray(w))))


def norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v)))


def _as_vec(z) -> np.ndarray:
    v = np.asarray(z, dtype=complex)
    if v.ndim != 1:
        raise BallError("points and vectors must be one-dimensional")
    return v


# ---------------------------------------------------------------------------
# metric and distance


def kobayashi_metric(z, v) -> float:
    """Infinitesimal metric of the ball:
    sqrt((1-|z|^2)|v|^2 + |<v,z>|^2) / (1-|z|^2).  For N = 1 this is
    |v| / (1-|z|^2)."""
    z, v = _as_vec(z), _as_vec(v)
    zz = norm(z) ** 2
    if zz >= 1.0:
        raise BallError("point must lie in the open ball")
    s = 1.0 - zz
    return math.sqrt(s * norm(v) ** 2 + abs(herm(v, z)) ** 2) / s


def kobayashi_distance(z, w) -> float:
    """Distance normalized so K(0, r e_1) = arctanh r.

    arctanh of the Moebius invariant m, with q = 1 - m^2 =
    (1-|z|^2)(1-|w|^2) / |1 - <z,w>|^2; symmetric and
    automorphism-invariant.  q is formed directly, never as 1 - m^2,
    and arctanh m = (1/2) log((1+m)^2 / q), so the distance keeps its
    digits up to the sphere.
    """
    z, w = _as_vec(z), _as_vec(w)
    nz, nw = norm(z), norm(w)
    if nz >= 1.0 or nw >= 1.0:
        raise BallError("points must lie in the open ball")
    q = min((1.0 - nz) * (1.0 + nz) * (1.0 - nw) * (1.0 + nw)
            / abs(1.0 - herm(z, w)) ** 2, 1.0)
    m = math.sqrt(1.0 - q)
    return 0.5 * math.log((1.0 + m) ** 2 / q)


def boundary_distance(z) -> float:
    return 1.0 - norm(z)


def distance_band(z, p0=None) -> float:
    """K(p0, z) + (1/2) log delta(z); bounded as z approaches the sphere."""
    z = _as_vec(z)
    if p0 is None:
        p0 = np.zeros(z.shape, dtype=complex)
    return kobayashi_distance(p0, z) + 0.5 * math.log(boundary_distance(z))


# ---------------------------------------------------------------------------
# tangential / normal splitting at the sphere


def tangential_projection(p, v) -> np.ndarray:
    """Projection of v onto the complex tangent space at p: v - <v,p> p."""
    p, v = _as_vec(p), _as_vec(v)
    if abs(norm(p) - 1.0) > BOUNDARY_TOL:
        raise BallError("projection base point must lie on the sphere")
    return v - herm(v, p) * p

def normal_decomposition(z, v) -> tuple[np.ndarray, np.ndarray]:
    """Split v at the closest sphere point pi(z) = z/|z|.

    Returns (normal part <v,p> p, tangential part v - <v,p> p); the two
    are Hermitian-orthogonal.  Undefined at the center.
    """
    z, v = _as_vec(z), _as_vec(v)
    if norm(z) == 0.0:
        raise BallError("closest boundary point undefined at the center")
    p = z / norm(z)
    normal = herm(v, p) * p
    return normal, v - normal


# ---------------------------------------------------------------------------
# maps of the ball


class MultiPoly:
    """Polynomial in N complex variables: exponent tuple -> coefficient."""

    def __init__(self, n_vars: int, terms: dict):
        self.n_vars = n_vars
        self.terms = {tuple(k): complex(c) for k, c in terms.items()}
        for k in self.terms:
            if len(k) != n_vars or any(e < 0 for e in k):
                raise BallError(f"bad exponent tuple {k}")

    def eval(self, z) -> complex:
        z = _as_vec(z)
        total = 0j
        for expo, c in self.terms.items():
            term = c
            for zj, e in zip(z, expo):
                term *= zj**e
            total += term
        return total

    def partial(self, i: int) -> "MultiPoly":
        out = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            out[tuple(new)] = out.get(tuple(new), 0j) + c * expo[i]
        return MultiPoly(self.n_vars, out)


class BallMap:
    """Base for holomorphic maps of the ball with exact differential."""

    n_vars: int

    def eval(self, z) -> np.ndarray:
        raise NotImplementedError

    def differential(self, z, v) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, z):
        return self.eval(z)


class PolyBallMap(BallMap):
    def __init__(self, components: Sequence[MultiPoly]):
        comps = list(components)
        if not comps:
            raise BallError("need at least one component")
        self.n_vars = comps[0].n_vars
        if any(c.n_vars != self.n_vars for c in comps):
            raise BallError("component arities differ")
        self.components = comps
        self._partials = [[c.partial(i) for i in range(self.n_vars)]
                          for c in comps]

    def eval(self, z):
        return np.array([c.eval(z) for c in self.components])

    def differential(self, z, v):
        v = _as_vec(v)
        out = []
        for row in self._partials:
            out.append(sum(row[i].eval(z) * v[i] for i in range(self.n_vars)))
        return np.array(out)


def parse_ball_map(text: str) -> PolyBallMap:
    """Parse polynomial components from coefficient lists.

    Components are separated by '|'; each is a whitespace list of
    ``e1,...,eN:coeff`` terms (an empty component is the zero
    polynomial).  Example for (z1^2, 0): ``2,0:1 |``.
    """
    comps_text = [c.strip() for c in text.split("|")]
    n_vars = None
    comps = []
    for comp in comps_text:
        terms = {}
        for token in comp.split():
            expo_text, _, coeff_text = token.partition(":")
            if not coeff_text:
                raise BallError(f"bad polynomial term {token!r}")
            expo = tuple(int(e) for e in expo_text.split(","))
            if n_vars is None:
                n_vars = len(expo)
            elif len(expo) != n_vars:
                raise BallError("inconsistent exponent arities")
            terms[expo] = terms.get(expo, 0j) + complex(coeff_text)
        comps.append(terms)
    if n_vars is None:
        raise BallError("map has no nonzero term to infer the arity from")
    if len(comps) != n_vars:
        raise BallError(f"need {n_vars} components, got {len(comps)}")
    return PolyBallMap([MultiPoly(n_vars, t) for t in comps])


def serialize_ball_map(F: PolyBallMap) -> str:
    parts = []
    for comp in F.components:
        terms = sorted(comp.terms.items())
        parts.append(" ".join(
            f"{','.join(str(e) for e in expo)}:{c}" for expo, c in terms))
    return " | ".join(parts)


def identity_map(n: int) -> PolyBallMap:
    comps = []
    for i in range(n):
        expo = tuple(1 if j == i else 0 for j in range(n))
        comps.append(MultiPoly(n, {expo: 1.0}))
    return PolyBallMap(comps)


def embedded_power_map(n: int, k: int = 2) -> PolyBallMap:
    """(z_1^k, 0, ..., 0): the disk power map in the first slot."""
    comps = [MultiPoly(n, {tuple(k if j == 0 else 0 for j in range(n)): 1.0})]
    for _ in range(n - 1):
        comps.append(MultiPoly(n, {}))
    return PolyBallMap(comps)


class BallAutomorphism(BallMap):
    """U phi_a with phi_a the Moebius involution exchanging 0 and a."""

    def __init__(self, a, unitary=None):
        self.a = _as_vec(a)
        self.n_vars = len(self.a)
        if norm(self.a) >= 1.0:
            raise BallError("automorphism parameter must lie inside the ball")
        self.unitary = (np.eye(self.n_vars, dtype=complex)
                        if unitary is None else np.asarray(unitary, dtype=complex))
        if not np.allclose(self.unitary @ self.unitary.conj().T,
                           np.eye(self.n_vars), atol=1e-12):
            raise BallError("second factor must be unitary")
        self._s = math.sqrt(1.0 - norm(self.a) ** 2)

    def _moebius(self, z):
        z = _as_vec(z)
        a, s = self.a, self._s
        aa = norm(a) ** 2
        if aa == 0.0:
            return -z
        proj = (herm(z, a) / aa) * a
        orth = z - proj
        return (a - proj - s * orth) / (1.0 - herm(z, a))

    def _moebius_diff(self, z, v):
        z, v = _as_vec(z), _as_vec(v)
        a, s = self.a, self._s
        aa = norm(a) ** 2
        if aa == 0.0:
            return -v
        den = 1.0 - herm(z, a)
        proj_v = (herm(v, a) / aa) * a
        lin = proj_v + s * (v - proj_v)
        num = self._moebius(z) * den     # a - proj(z) - s orth(z)
        return (-lin * den + num * herm(v, a)) / den**2

    def eval(self, z):
        return self.unitary @ self._moebius(z)

    def differential(self, z, v):
        return self.unitary @ self._moebius_diff(z, v)


def random_automorphism(n: int, rng: np.random.Generator) -> BallAutomorphism:
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    a *= rng.uniform(0.1, 0.8) / norm(a)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return BallAutomorphism(a, q)


def certify_ball_map(F: BallMap, n_samples: int = 2000,
                     seed: int = 7) -> tuple[bool, float]:
    """Sample |F| on the sphere; self-maps stay within 1 + 1e-10."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        p = rng.normal(size=F.n_vars) + 1j * rng.normal(size=F.n_vars)
        p /= norm(p)
        worst = max(worst, norm(F.eval(p)))
    return worst <= 1.0 + SELFMAP_SLACK, worst


# ---------------------------------------------------------------------------
# affine-slice complex geodesics


@dataclass(frozen=True)
class GeodesicSlice:
    """Affine parametrization of (C v + p) intersected with the ball.

    phi(zeta) = p + (w0 + rho eta zeta) v with phi(1) = p; the image is a
    complex geodesic, so k(phi(zeta); phi'(zeta)) (1 - |zeta|^2) = 1.
    """

    p: tuple
    v: tuple
    w0: complex
    rho: float
    eta: complex

    def __call__(self, zeta: complex) -> np.ndarray:
        return (np.asarray(self.p, dtype=complex)
                + (self.w0 + self.rho * self.eta * zeta)
                * np.asarray(self.v, dtype=complex))

    eval = __call__

    def deriv(self, zeta: complex) -> np.ndarray:
        return self.rho * self.eta * np.asarray(self.v, dtype=complex)


def geodesic_slice(p, v) -> GeodesicSlice:
    """Slice geodesic through the sphere point p in direction v.

    Requires <v, p> != 0 (a complex-tangential direction produces an
    empty or degenerate slice).
    """
    p, v = _as_vec(p), _as_vec(v)
    if abs(norm(p) - 1.0) > BOUNDARY_TOL:
        raise BallError("slice base point must lie on the sphere")
    a = herm(v, p)
    if abs(a) < 1e-12:
        raise BallError("direction is complex-tangential; slice degenerates")
    vv = norm(v) ** 2
    w0 = -np.conj(a) / vv
    rho = abs(a) / vv
    eta = np.conj(a) / abs(a)
    return GeodesicSlice(p=tuple(p), v=tuple(v), w0=complex(w0),
                         rho=float(rho), eta=complex(eta))


# ---------------------------------------------------------------------------
# near-boundary comparison ratio


def metric_comparison_ratio(z, v) -> float:
    """Kobayashi metric over the splitting-based comparison quantity
    sqrt(|v_tan| / (2 delta) + |v_norm|^2 / (4 delta^2)); bounded between
    constants near the sphere."""
    z, v = _as_vec(z), _as_vec(v)
    delta = boundary_distance(z)
    if norm(z) == 0.0 or delta >= 0.2:
        raise BallError("comparison ratio is a near-boundary quantity "
                        "(need 0 < delta < 0.2)")
    normal, tangential = normal_decomposition(z, v)
    comparison = math.sqrt(norm(tangential) / (2.0 * delta)
                           + norm(normal) ** 2 / (4.0 * delta**2))
    return kobayashi_metric(z, v) / comparison


# ---------------------------------------------------------------------------
# geodesic rate characterization for analytic discs


@dataclass(frozen=True)
class DiscMap:
    """Analytic disc into the ball with polynomial components."""

    coeff_rows: tuple[tuple[complex, ...], ...]   # ascending, one per component

    def eval(self, zeta: complex) -> np.ndarray:
        return np.array([np.polynomial.polynomial.polyval(zeta, np.array(row))
                         for row in self.coeff_rows])

    def deriv(self, zeta: complex) -> np.ndarray:
        return np.array([np.polynomial.polynomial.polyval(
            zeta, np.polynomial.polynomial.polyder(np.array(row)))
            for row in self.coeff_rows])


@dataclass(frozen=True)
class GeodesicCheckReport:
    verdict: str        # GEODESIC | NOT_GEODESIC
    rate: RateReport
    isometry_at_zero: float
    projection_bounded: bool


def geodesic_boundary_check(f, k_min: int = 3, k_max: int = 14,
                            tol_iso: float = 1e-6) -> GeodesicCheckReport:
    """Boundary infinitesimal characterization of complex geodesics.

    Along r = 1 - 2^-k the quantity k(f(r); f'(r)) - 1/(1-r^2) must be
    o(1-r), the projected derivative must stay bounded, and the isometry
    normalization k(f(0); f'(0)) = 1 must hold.
    """
    rs = dyadic_ts(k_min, k_max)
    deficits = []
    proj_norms = []
    for r in rs:
        z = f.eval(complex(r))
        if norm(z) >= 1.0:
            raise BallError("disc image escapes the ball")
        dz = f.deriv(complex(r))
        deficits.append((r, kobayashi_metric(z, dz) - 1.0 / (1.0 - r**2)))
        if norm(z) > 0.5:
            proj_norms.append(norm(tangential_projection(z / norm(z), dz)))
    rate = fit_boundary_rate(deficits, 1.0)
    iso0 = kobayashi_metric(f.eval(0j), f.deriv(0j))
    bounded = (not proj_norms) or max(proj_norms) <= 10.0 * (1.0 + min(proj_norms))
    is_geo = (rate.verdict is Verdict.VANISHES
              and abs(iso0 - 1.0) <= tol_iso and bounded)
    return GeodesicCheckReport(verdict="GEODESIC" if is_geo else "NOT_GEODESIC",
                               rate=rate, isometry_at_zero=float(iso0),
                               projection_bounded=bounded)


# ---------------------------------------------------------------------------
# the three-condition rigidity signature


@dataclass(frozen=True)
class RigidityConditionsReport:
    tangential_cluster_ok: bool      # condition on tangential sequences
    projection_bounded: bool         # projected-differential boundedness
    metric_rate: RateReport          # preservation rate along the slice
    tangential_details: tuple
    projection_sup: float

    @property
    def all_pass(self) -> bool:
        return (self.tangential_cluster_ok and self.projection_bounded
                and self.metric_rate.verdict is Verdict.VANISHES)


def tangential_directions(n: int, count: int = 16, seed: int = 3) -> list[np.ndarray]:
    """Unit vectors in the complex tangent space at e_1."""
    if n < 2:
        return []
    out = []
    if n == 2:
        for j in range(count):
            out.append(np.array([0.0, np.exp(2j * np.pi * j / count)]))
        return out
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        w /= norm(w)
        out.append(np.concatenate([[0.0 + 0j], w]))
    return out


def ball_rigidity_check(F: BallMap, v, k_min: int = 3, k_max: int = 16,
                        n_directions: int = 16) -> RigidityConditionsReport:
    """Boundary rigidity signature of a self-map at e_1.

    Checks, along the slice geodesic through e_1 in direction v (which
    must have nonzero first component):
      - metric preservation k(F(z); dF(v)) = k(z; v) + o(delta(z)),
      - boundedness of the tangential projection of dF(v) at the image
        boundary point when |F| tends to 1,
      - for tangential approach sequences in 16 directions, clustering
        of the image at the sphere.
    """
    n = F.n_vars
    v = _as_vec(v)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if abs(v[0]) < 1e-12:
        raise BallError("slice direction must have nonzero first component")
    v = v / norm(v)
    phi = geodesic_slice(e1, v)

    ts = dyadic_ts(k_min, k_max)
    samples = []
    proj_vals = []
    for t in ts:
        z = phi(complex(t))
        w = F.eval(z)
        dv = F.differential(z, v)
        delta = boundary_distance(z)
        diff = kobayashi_metric(w, dv) - kobayashi_metric(z, v)
        samples.append((1.0 - delta, diff))
        if norm(w) > 0.9:
            proj_vals.append(norm(tangential_projection(w / norm(w), dv)))
    rate = fit_boundary_rate(samples, 1.0)
    proj_sup = max(proj_vals) if proj_vals else 0.0
    head = proj_vals[: max(1, len(proj_vals) // 2)] if proj_vals else [0.0]
    bounded = proj_sup <= max(5.0, 3.0 * float(np.median(head)) + 5.0)

    tang_details = []
    tang_ok = True
    if n >= 2:
        ss = 2.0 ** (-np.arange(2, 13, dtype=float))
        for tau in tangential_directions(n, n_directions):
            gaps = []
            for s in ss:
                z = (1.0 - s**1.5) * e1 + s * tau
                if norm(z) >= 1.0:
                    continue
                gaps.append(1.0 - norm(F.eval(z)))
            ok = gaps[-1] <= 0.05 and gaps[-1] <= 0.5 * gaps[0] + 1e-15
            tang_ok = tang_ok and ok
            tang_details.append((tuple(tau), gaps[-1], ok))
    return RigidityConditionsReport(tangential_cluster_ok=tang_ok,
                                    projection_bounded=bounded,
                                    metric_rate=rate,
                                    tangential_details=tuple(tang_details),
                                    projection_sup=proj_sup)
