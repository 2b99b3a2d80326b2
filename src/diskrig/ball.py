"""Kobayashi geometry of the unit ball of C^N in closed form.

The infinitesimal metric, the distance, tangential/normal splittings at
the sphere, analytic discs with polynomial components (the affine-slice
complex geodesics are the degree-1 ones), and the boundary condition
checkers for self-maps: the two-sided distance band, the near-boundary
metric comparison ratio, the geodesic rate characterization, and the
three-condition rigidity signature (tangential cluster, projected
differential boundedness, and the metric-preservation rate along a slice).

Distance normalization: K(0, r e_1) = arctanh r, matching a disk of
curvature -4; every N = 1 quantity then agrees with the disk modules.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import (DiskrigError, RateReport, Verdict, dyadic_ts, fit_boundary_rate,
                       polar_points)

SELFMAP_SLACK = 1e-10
BOUNDARY_TOL = 1e-12


class BallError(DiskrigError, ValueError):
    """Raised on invalid ball-geometry input."""


def herm(v, w):
    """Standard Hermitian product sum v_j conj(w_j) over the last axis."""
    return np.sum(np.asarray(v) * np.conj(np.asarray(w)), axis=-1)


def norm(v):
    """Euclidean norm over the last axis, summed as np.linalg.norm sums one
    vector (BLAS dots of the real and of the imaginary parts), bit for bit."""
    v = np.asarray(v)
    return np.sqrt(_dot(v.real) + _dot(v.imag))


def _dot(x):
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _finite(name: str, a: np.ndarray) -> np.ndarray:
    """``a``, refused with a BallError naming its first non-finite entry."""
    if not np.all(np.isfinite(a)):
        i = np.argwhere(~np.isfinite(a))[0]
        raise BallError(f"{name}[{', '.join(map(str, i))}] = {complex(a[tuple(i)])} "
                        f"is not finite")
    return a


def _as_vec(z, name: str) -> np.ndarray:
    """The finite complex vector ``z``; BallError naming ``name`` otherwise."""
    v = np.asarray(z, dtype=complex)
    if v.ndim != 1:
        raise BallError(f"{name} must be one-dimensional")
    return _finite(name, v)


def _as_points(*, n: int | None = None, **arrays) -> Sequence[np.ndarray]:
    """Finite points and vectors of C^N, given by name, broadcast to one
    complex shape (..., N), with N = n when given; BallError for any other
    shapes or a non-finite entry, naming the argument."""
    out = [np.asarray(a, dtype=complex) for a in arrays.values()]
    shapes = [a.shape for a in out]
    lengths = {s[-1] if s else 0 for s in shapes} | ({n} if n else set())
    if len(lengths) != 1 or 0 in lengths:
        raise BallError(f"shapes {shapes} are not (..., N) with one N")
    for name, a in zip(arrays, out):
        _finite(name, a)
    try:
        return np.broadcast_arrays(*out)
    except ValueError as exc:
        raise BallError(f"shapes {shapes} do not broadcast") from exc


# ---------------------------------------------------------------------------
# metric and distance
#
# Squares are np.square and moduli np.abs, never ** or abs(): numpy's scalar
# arithmetic rounds differently from its array loops, and one point must give,
# bit for bit, what it gives inside a batch.


def kobayashi_metric(z, v):
    """Infinitesimal metric of the ball:
    sqrt((1-|z|^2)|v|^2 + |<v,z>|^2) / (1-|z|^2), over points and vectors
    of shape (..., N).  For N = 1 this is |v| / (1-|z|^2)."""
    z, v = _as_points(z=z, v=v)
    zz = np.square(norm(z))
    if np.any(zz >= 1.0):
        raise BallError("point must lie in the open ball")
    s = 1.0 - zz
    return np.sqrt(s * np.square(norm(v)) + np.square(np.abs(herm(v, z)))) / s


def kobayashi_distance(z, w):
    """Distance normalized so K(0, r e_1) = arctanh r, between points of
    shape (..., N).

    arctanh of the Moebius invariant m, with q = 1 - m^2 =
    (1-|z|^2)(1-|w|^2) / |1 - <z,w>|^2; symmetric and
    automorphism-invariant.  q is formed directly, never as 1 - m^2,
    and arctanh m = (1/2) log((1+m)^2 / q), so the distance keeps its
    digits up to the sphere.
    """
    z, w = _as_points(z=z, w=w)
    nz, nw = norm(z), norm(w)
    if np.any(nz >= 1.0) or np.any(nw >= 1.0):
        raise BallError("points must lie in the open ball")
    q = np.minimum((1.0 - nz) * (1.0 + nz) * (1.0 - nw) * (1.0 + nw)
                   / np.square(np.abs(1.0 - herm(z, w))), 1.0)
    m = np.sqrt(1.0 - q)
    return 0.5 * np.log(np.square(1.0 + m) / q)


def boundary_distance(z):
    return 1.0 - norm(z)


def distance_band(z):
    """K(0, z) + (1/2) log delta(z) over points of shape (..., N);
    bounded as z approaches the sphere."""
    (z,) = _as_points(z=z)
    return (kobayashi_distance(np.zeros(z.shape, dtype=complex), z)
            + 0.5 * np.log(boundary_distance(z)))


# ---------------------------------------------------------------------------
# tangential / normal splitting at the sphere


def normal_decomposition(z, v) -> tuple[np.ndarray, np.ndarray]:
    """Split v at the closest sphere point pi(z) = z/|z|, over points and
    vectors of shape (..., N).

    Returns (normal part <v,p> p, tangential part v - <v,p> p, the
    projection onto the complex tangent space at p); the two are
    Hermitian-orthogonal.  Undefined at the center.
    """
    z, v = _as_points(z=z, v=v)
    nz = norm(z)
    if np.any(nz == 0.0):
        raise BallError("closest boundary point undefined at the center")
    p = z / nz[..., None]
    normal = herm(v, p)[..., None] * p
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

    def eval(self, z):
        """Values at points of shape (..., n_vars): an array of shape (...)."""
        (z,) = _as_points(z=z, n=self.n_vars)
        coords = np.moveaxis(z, -1, 0)
        total = np.zeros(z.shape[:-1], dtype=complex)
        for expo, c in self.terms.items():
            term = c
            for zj, e in zip(coords, expo):
                term = term * zj**e
            total = total + term
        return total[()]

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
    """Base for holomorphic maps of the ball with exact differential;
    eval and differential map points and vectors of shape (..., N)."""

    n_vars: int

    def eval(self, z) -> np.ndarray:
        raise NotImplementedError

    def differential(self, z, v) -> np.ndarray:
        raise NotImplementedError


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
        return np.stack([c.eval(z) for c in self.components], axis=-1)

    def differential(self, z, v):
        z, v = _as_points(z=z, v=v, n=self.n_vars)
        vs = np.moveaxis(v, -1, 0)
        return np.stack([sum(row[i].eval(z) * vs[i] for i in range(self.n_vars))
                         for row in self._partials], axis=-1)


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
            try:
                expo = tuple(int(e) for e in expo_text.split(","))
                coeff = complex(coeff_text)
            except ValueError as exc:
                raise BallError(f"bad polynomial term {token!r}: {exc}") from exc
            if not cmath.isfinite(coeff):
                raise BallError(f"bad polynomial term {token!r}: coefficient "
                                f"{coeff} is not finite")
            if n_vars is None:
                n_vars = len(expo)
            elif len(expo) != n_vars:
                raise BallError("inconsistent exponent arities")
            terms[expo] = terms.get(expo, 0j) + coeff
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


def embedded_power_map(n: int, k: int = 2) -> PolyBallMap:
    """(z_1^k, 0, ..., 0): the disk power map in the first slot."""
    comps = [MultiPoly(n, {tuple(k if j == 0 else 0 for j in range(n)): 1.0})]
    for _ in range(n - 1):
        comps.append(MultiPoly(n, {}))
    return PolyBallMap(comps)


class BallAutomorphism(BallMap):
    """U phi_a with phi_a the Moebius involution exchanging 0 and a."""

    def __init__(self, a, unitary=None):
        self.a = _as_vec(a, "a")
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
        a, s = self.a, self._s
        aa = norm(a) ** 2
        if aa == 0.0:
            return -z
        za = herm(z, a)[..., None]
        proj = (za / aa) * a
        orth = z - proj
        return (a - proj - s * orth) / (1.0 - za)

    def _moebius_diff(self, z, v):
        a, s = self.a, self._s
        aa = norm(a) ** 2
        if aa == 0.0:
            return -v
        den = 1.0 - herm(z, a)[..., None]
        va = herm(v, a)[..., None]
        proj_v = (va / aa) * a
        lin = proj_v + s * (v - proj_v)
        num = self._moebius(z) * den     # a - proj(z) - s orth(z)
        return (-lin * den + num * va) / den**2

    def eval(self, z):
        (z,) = _as_points(z=z, n=self.n_vars)
        return (self.unitary @ self._moebius(z)[..., None])[..., 0]

    def differential(self, z, v):
        z, v = _as_points(z=z, v=v, n=self.n_vars)
        return (self.unitary @ self._moebius_diff(z, v)[..., None])[..., 0]


def random_automorphism(n: int, rng: np.random.Generator) -> BallAutomorphism:
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    a *= rng.uniform(0.1, 0.8) / norm(a)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return BallAutomorphism(a, q)


def certify_ball_map(F: BallMap, seed: int = 7) -> tuple[bool, float]:
    """Sample |F| at 2000 random points of the sphere; self-maps stay
    within 1 + 1e-10."""
    # per sample, N real parts then N imaginary parts of the stream
    draws = np.random.default_rng(seed).normal(size=(2000, 2, F.n_vars))
    p = draws[:, 0] + 1j * draws[:, 1]
    p /= norm(p)[:, None]
    worst = float(np.max(norm(F.eval(p)), initial=0.0))
    return worst <= 1.0 + SELFMAP_SLACK, worst


# ---------------------------------------------------------------------------
# analytic discs and affine-slice complex geodesics


@dataclass(frozen=True)
class DiscMap:
    """Analytic disc into the ball with polynomial components; an array of
    zeta gives points of shape zeta.shape + (N,)."""

    coeff_rows: tuple[tuple[complex, ...], ...]   # ascending, one per component

    def __call__(self, zeta) -> np.ndarray:
        return np.stack([np.polynomial.polynomial.polyval(zeta, np.array(row))
                         for row in self.coeff_rows], axis=-1)

    def deriv(self, zeta) -> np.ndarray:
        return np.stack([np.polynomial.polynomial.polyval(
            zeta, np.polynomial.polynomial.polyder(np.array(row)))
            for row in self.coeff_rows], axis=-1)


def geodesic_slice(p, v) -> DiscMap:
    """Slice geodesic through the sphere point p in direction v: the
    degree-1 disc phi(zeta) = p + (w0 + rho eta zeta) v onto (C v + p) in
    the ball, with one row (p_j + w0 v_j, rho eta v_j) per component.

    phi(1) = p, and the image is a complex geodesic, so
    k(phi(zeta); phi'(zeta)) (1 - |zeta|^2) = 1.  Requires p and v of one
    length and <v, p> != 0 (a complex-tangential direction produces an
    empty or degenerate slice).
    """
    p, v = _as_vec(p, "p"), _as_vec(v, "v")
    if len(p) != len(v):
        raise BallError(f"slice point and direction have lengths {len(p)} and {len(v)}")
    if abs(norm(p) - 1.0) > BOUNDARY_TOL:
        raise BallError("slice base point must lie on the sphere")
    a = herm(v, p)
    if abs(a) < 1e-12:
        raise BallError("direction is complex-tangential; slice degenerates")
    vv = norm(v) ** 2
    w0 = -np.conj(a) / vv
    rho = abs(a) / vv
    eta = np.conj(a) / abs(a)
    return DiscMap(tuple((complex(pj + w0 * vj), complex(rho * eta * vj))
                         for pj, vj in zip(p, v)))


# ---------------------------------------------------------------------------
# near-boundary comparison ratio


def metric_comparison_ratio(z, v):
    """Kobayashi metric over the splitting-based comparison quantity
    sqrt(|v_tan| / (2 delta) + |v_norm|^2 / (4 delta^2)), over points and
    vectors of shape (..., N); bounded between constants near the sphere."""
    z, v = _as_points(z=z, v=v)
    delta = boundary_distance(z)
    if np.any(delta >= 0.2):
        raise BallError("comparison ratio is a near-boundary quantity "
                        "(need 0 < delta < 0.2)")
    normal, tangential = normal_decomposition(z, v)
    comparison = np.sqrt(norm(tangential) / (2.0 * delta)
                         + np.square(norm(normal)) / (4.0 * np.square(delta)))
    return kobayashi_metric(z, v) / comparison


# ---------------------------------------------------------------------------
# geodesic rate characterization for analytic discs


@dataclass(frozen=True)
class GeodesicCheckReport:
    verdict: str        # GEODESIC | NOT_GEODESIC
    rate: RateReport
    isometry_at_zero: float
    projection_bounded: bool


def geodesic_boundary_check(f) -> GeodesicCheckReport:
    """Boundary infinitesimal characterization of complex geodesics.

    Along r = 1 - 2^-k, k = 3, ..., 14, the quantity
    k(f(r); f'(r)) - 1/(1-r^2) must be o(1-r), the projected derivative
    must stay bounded, and the isometry normalization k(f(0); f'(0)) = 1
    must hold to 1e-6.
    """
    rs = dyadic_ts(3, 14)
    z = f(rs + 0j)
    nz = norm(z)
    if np.any(nz >= 1.0):
        raise BallError("disc image escapes the ball")
    dz = f.deriv(rs + 0j)
    deficits = kobayashi_metric(z, dz) - 1.0 / (1.0 - rs**2)
    rate = fit_boundary_rate(rs, deficits, 1.0)
    far = nz > 0.5
    proj_norms = norm(normal_decomposition(z[far], dz[far])[1])
    iso0 = kobayashi_metric(f(0j), f.deriv(0j))
    bounded = bool(proj_norms.size == 0
                   or proj_norms.max() <= 10.0 * (1.0 + proj_norms.min()))
    is_geo = (rate.verdict is Verdict.VANISHES
              and abs(iso0 - 1.0) <= 1e-6 and bounded)
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


def tangential_directions(n: int) -> np.ndarray:
    """16 unit vectors in the complex tangent space at e_1, shape (16, n):
    equispaced phases for n = 2, normal draws of seed 3 for n > 2, and
    none for n = 1."""
    if n < 2:
        return np.empty((0, n), dtype=complex)
    if n == 2:
        w = polar_points([1.0], 16, 0.0)[:, None]
    else:
        draws = np.random.default_rng(3).normal(size=(16, 2, n - 1))
        w = draws[:, 0] + 1j * draws[:, 1]
        w /= norm(w)[:, None]
    return np.concatenate([np.zeros((16, 1), dtype=complex), w], axis=1)


def ball_rigidity_check(F: BallMap, v) -> RigidityConditionsReport:
    """Boundary rigidity signature of a self-map at e_1.

    Checks, along the slice geodesic through e_1 in direction v (which
    must have nonzero first component), at zeta = 1 - 2^-k, k = 3, ..., 16:
      - metric preservation k(F(z); dF(v)) = k(z; v) + o(delta(z)),
      - boundedness of the tangential projection of dF(v) at the image
        boundary point when |F| tends to 1,
      - for tangential approach sequences in the 16 directions of
        ``tangential_directions`` (none for N = 1), clustering of the
        image at the sphere.
    """
    n = F.n_vars
    v = _as_vec(v, "v")
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if abs(v[0]) < 1e-12:
        raise BallError("slice direction must have nonzero first component")
    v = v / norm(v)
    phi = geodesic_slice(e1, v)

    z = phi(dyadic_ts(3, 16) + 0j)
    w = F.eval(z)
    dv = F.differential(z, v)
    diff = kobayashi_metric(w, dv) - kobayashi_metric(z, v)
    rate = fit_boundary_rate(1.0 - boundary_distance(z), diff, 1.0)
    near = norm(w) > 0.9
    proj_vals = norm(normal_decomposition(w[near], dv[near])[1])
    proj_sup = float(proj_vals.max()) if proj_vals.size else 0.0
    head = proj_vals[: max(1, proj_vals.size // 2)] if proj_vals.size else [0.0]
    bounded = proj_sup <= max(5.0, 3.0 * float(np.median(head)) + 5.0)

    # z = (1 - s^1.5) e1 + s tau has |z|^2 = 1 - 2 s^1.5 + s^2 + s^3 < 1
    taus = tangential_directions(n)
    ss = 2.0 ** (-np.arange(2, 13, dtype=float))[:, None]
    gaps = 1.0 - norm(F.eval((1.0 - ss**1.5) * e1 + ss * taus[:, None, :]))
    oks = (gaps[:, -1] <= 0.05) & (gaps[:, -1] <= 0.5 * gaps[:, 0] + 1e-15)
    return RigidityConditionsReport(
        tangential_cluster_ok=bool(np.all(oks)), projection_bounded=bounded,
        metric_rate=rate, projection_sup=proj_sup,
        tangential_details=tuple((tuple(tau), float(gap), bool(ok))
                                 for tau, gap, ok in zip(taus, gaps[:, -1], oks)))
