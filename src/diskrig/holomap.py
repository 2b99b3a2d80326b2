"""Exact algebra of holomorphic self-maps of the unit disk.

Maps are immutable expression trees over identity, constants, monomials,
polynomials, disk automorphisms, finite Blaschke products, compositions,
sums, and scalar multiples.  Evaluation and differentiation are exact
closed-form tree operations (no numerical differentiation), which is what
lets boundary quantities be divided by (1-|z|)^2 without noise.  A node
defines one walk of the tree, ``jet``, which returns the value and the
derivative together; ``eval`` is its value.  A point's value does not
depend on the array it is in: every product of a node constant and an
array is taken as array times constant, whatever the array's size.

Maps are named in flat config files by a prefix notation, read by
``parse_map``.  Grammar (tokens are whitespace separated, complex
literals use Python syntax like ``0.3+0.1j``)::

    map := "id"
         | "const" C
         | "zpow" K                   monomial z^K
         | "poly" N C0 ... C(N-1)     ascending coefficients
         | "auto" A THETA             e^{i THETA} (A - z)/(1 - conj(A) z)
         | "blaschke" N A1 ... AN THETA
         | "compose" map map          outer first
         | "sum" map map
         | "scale" C map
         | "feps" EPS                 z - EPS (z - 1)^3
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import DiskrigError, polar_points

POLE_TOL = 1e-14
SELFMAP_SLACK = 1e-12
ROOT_CLUSTER_TOL = 1e-7
INTERIOR_MARGIN = 1e-9


class HoloMapError(DiskrigError, ValueError):
    """Raised on invalid evaluation (poles, non-self-maps, bad input)."""


class HoloMap:
    """Base class; nodes implement jet (elementwise) and rational."""

    def eval(self, z):
        """f(z), the value of the one walk ``jet``."""
        return self.jet(z)[0]

    def jet(self, z):
        """(f(z), f'(z)) from one walk of the tree."""
        raise NotImplementedError

    def rational(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (P, Q) ascending coefficient arrays with self = P/Q."""
        raise NotImplementedError


def _finite(node: str, name: str, value, cast):
    """``value`` as a plain ``cast`` number, refused unless finite."""
    value = cast(value)
    if not cmath.isfinite(value):
        raise HoloMapError(f"{node} parameter {name} = {value} is not finite")
    return value


@dataclass(frozen=True)
class Identity(HoloMap):
    def jet(self, z):
        return z, np.ones(np.shape(z), dtype=complex)[()]

    def rational(self):
        return np.array([0, 1], dtype=complex), np.array([1], dtype=complex)


@dataclass(frozen=True)
class Const(HoloMap):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _finite("const", "value", self.value, complex))

    def jet(self, z):
        shape = np.shape(z)
        return np.full(shape, self.value)[()], np.zeros(shape, dtype=complex)[()]

    def rational(self):
        return np.array([self.value], dtype=complex), np.array([1], dtype=complex)


@dataclass(frozen=True)
class Monomial(HoloMap):
    power: int

    def __post_init__(self):
        try:
            power = operator.index(self.power)
        except TypeError:
            raise HoloMapError(f"zpow parameter power = {self.power!r} "
                               f"is not an integer") from None
        if power < 0:
            raise HoloMapError("monomial power must be nonnegative")
        object.__setattr__(self, "power", power)

    def jet(self, z):
        # k z^(k-1), with z^0 standing in for z^-1 when k = 0
        z = np.asarray(z)
        return z**self.power, z ** max(self.power - 1, 0) * self.power

    def rational(self):
        p = np.zeros(self.power + 1, dtype=complex)
        p[-1] = 1.0
        return p, np.array([1], dtype=complex)


@dataclass(frozen=True)
class Poly(HoloMap):
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise HoloMapError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(_finite("poly", "coefficient", c, complex)
                                                for c in self.coeffs))

    def jet(self, z):
        coeffs = np.array(self.coeffs)
        return npoly.polyval(z, coeffs), npoly.polyval(z, npoly.polyder(coeffs))

    def rational(self):
        return np.array(self.coeffs, dtype=complex), np.array([1], dtype=complex)


def _moebius_factor(a: complex, z):
    """(a - z)/(1 - conj(a) z) and its denominator, refused where that
    vanishes."""
    z = np.asarray(z)
    den = 1.0 - np.conj(a) * z
    if np.any(np.abs(den) < POLE_TOL):
        raise HoloMapError(f"pole of automorphism factor (a={a}) hit")
    return (a - z) / den, den


@dataclass(frozen=True)
class Automorphism(HoloMap):
    """Disk automorphism e^{i theta} (a - z)/(1 - conj(a) z), |a| < 1."""

    a: complex
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _finite("auto", "a", self.a, complex))
        object.__setattr__(self, "theta", _finite("auto", "theta", self.theta, float))
        if abs(self.a) >= 1.0:
            raise HoloMapError("automorphism parameter must satisfy |a| < 1")

    def jet(self, z):
        f, den = _moebius_factor(self.a, z)
        phase = cmath.exp(1j * self.theta)
        f *= phase
        return f, (abs(self.a) ** 2 - 1.0) / den**2 * phase

    def rational(self):
        ph = cmath.exp(1j * self.theta)
        num = np.array([ph * self.a, -ph], dtype=complex)
        den = np.array([1.0, -np.conj(self.a)], dtype=complex)
        return num, den


@dataclass(frozen=True)
class Blaschke(HoloMap):
    """Finite Blaschke product e^{i theta} prod_j (a_j - z)/(1 - conj(a_j) z)."""

    zeros: tuple[complex, ...]
    theta: float = 0.0

    def __post_init__(self):
        zs = tuple(_finite("blaschke", "zero", a, complex) for a in self.zeros)
        if any(abs(a) >= 1.0 for a in zs):
            raise HoloMapError("Blaschke zeros must have modulus < 1")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "theta", _finite("blaschke", "theta", self.theta, float))

    def jet(self, z):
        # the product rule, d = d f + df value, one factor at a time: no
        # division, so a zero of one factor stays safe
        value = np.full(np.shape(z), cmath.exp(1j * self.theta))
        d = np.zeros(np.shape(z), dtype=complex)
        for k, a in enumerate(self.zeros):
            f, den = _moebius_factor(a, z)
            df = (abs(a) ** 2 - 1.0) / den**2 * value
            if k:
                d *= f
                df += d
            d = df
            value *= f
        return value[()], d[()]

    def rational(self):
        num = np.array([cmath.exp(1j * self.theta)], dtype=complex)
        den = np.array([1.0], dtype=complex)
        for a in self.zeros:
            num = npoly.polymul(num, np.array([a, -1.0], dtype=complex))
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)], dtype=complex))
        return num, den


@dataclass(frozen=True)
class Compose(HoloMap):
    outer: HoloMap
    inner: HoloMap

    def jet(self, z):
        w, dw = self.inner.jet(z)
        value, d = self.outer.jet(w)
        return value, d * dw

    def rational(self):
        p, q = self.outer.rational()
        r, s = self.inner.rational()
        return _compose_rational(p, q, r, s)


@dataclass(frozen=True)
class Sum(HoloMap):
    left: HoloMap
    right: HoloMap

    def jet(self, z):
        lv, ld = self.left.jet(z)
        rv, rd = self.right.jet(z)
        return lv + rv, ld + rd

    def rational(self):
        p, q = self.left.rational()
        r, s = self.right.rational()
        num = npoly.polyadd(npoly.polymul(p, s), npoly.polymul(r, q))
        return num, npoly.polymul(q, s)


@dataclass(frozen=True)
class Scaled(HoloMap):
    factor: complex
    inner: HoloMap

    def __post_init__(self):
        object.__setattr__(self, "factor", _finite("scale", "factor", self.factor, complex))

    def jet(self, z):
        value, d = self.inner.jet(z)
        return value * self.factor, d * self.factor

    def rational(self):
        p, q = self.inner.rational()
        return self.factor * p, q


def _poly_pow_table(p: np.ndarray, n: int) -> list[np.ndarray]:
    table = [np.array([1.0 + 0j])]
    for _ in range(n):
        table.append(npoly.polymul(table[-1], p))
    return table


def _compose_rational(p, q, r, s):
    """(P/Q) o (R/S) as a rational pair."""
    n = max(len(p), len(q)) - 1
    rp = _poly_pow_table(r, n)
    sp = _poly_pow_table(s, n)
    num = np.array([0j])
    den = np.array([0j])
    for k, c in enumerate(p):
        num = npoly.polyadd(num, c * npoly.polymul(rp[k], sp[n - k]))
    for k, c in enumerate(q):
        den = npoly.polyadd(den, c * npoly.polymul(rp[k], sp[n - k]))
    return num, den


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.array([0j])
    keep = np.abs(c) > 1e-13 * scale
    last = int(np.max(np.nonzero(keep))) if np.any(keep) else 0
    return c[: last + 1]


def _derivative_numerator(f: HoloMap) -> np.ndarray:
    """p'q - pq', trimmed, for f = p/q with p and q trimmed."""
    p, q = map(_trim, f.rational())
    return _trim(npoly.polysub(npoly.polymul(npoly.polyder(p), q),
                               npoly.polymul(p, npoly.polyder(q))))


def is_constant(f: HoloMap) -> bool:
    dnum = _derivative_numerator(f)
    return len(dnum) == 1 and abs(dnum[0]) < 1e-13


def cluster_roots(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Group nearly equal roots into (location, multiplicity) pairs: a root
    joins a cluster within ROOT_CLUSTER_TOL * max(1, |first root|) of its
    first root."""
    clusters: list[list[complex]] = []
    for r in roots:
        for group in clusters:
            if abs(r - group[0]) < ROOT_CLUSTER_TOL * max(1.0, abs(group[0])):
                group.append(r)
                break
        else:
            clusters.append([complex(r)])
    return [(complex(np.mean(g)), len(g)) for g in clusters]


def critical_points(f: HoloMap) -> list[tuple[complex, int]]:
    """Zeros of f' strictly inside the unit disk, with multiplicities."""
    dnum = _derivative_numerator(f)
    if len(dnum) == 1:
        return []
    roots = npoly.polyroots(dnum)
    inside = roots[np.abs(roots) < 1.0 - INTERIOR_MARGIN]
    return cluster_roots(inside)


def preimages(f: HoloMap, w: complex) -> list[tuple[complex, int]]:
    """Solutions of f(z) = w strictly inside the unit disk."""
    p, q = map(_trim, f.rational())
    shifted = _trim(npoly.polysub(p, w * np.asarray(q)))
    if len(shifted) == 1:
        return []
    roots = npoly.polyroots(shifted)
    inside = roots[np.abs(roots) < 1.0 - INTERIOR_MARGIN]
    return cluster_roots(inside)


# ---------------------------------------------------------------------------
# convenience constructors


def rotation(phi: float) -> HoloMap:
    return Scaled(cmath.exp(1j * phi), Identity())


def f_eps(eps: float) -> HoloMap:
    """The cubic boundary perturbation z - eps (z-1)^3 of the identity."""
    return Poly((eps, 1.0 - 3.0 * eps, 3.0 * eps, -eps))


# ---------------------------------------------------------------------------
# the operations of the module contract


_CIRCLE = polar_points([1.0], 4096, 0.0)
_CIRCLE.flags.writeable = False


def certify_selfmap(f: HoloMap) -> tuple[bool, float]:
    """Sample |f| at the 4096 equispaced points of the unit circle in
    ``_CIRCLE``; the maximum principle makes boundary sampling sufficient.
    Returns (verdict, max modulus found)."""
    vals = np.abs(f.eval(_CIRCLE))
    max_mod = float(np.max(vals))
    return max_mod <= 1.0 + SELFMAP_SLACK, max_mod


def disk_jet(f: HoloMap, z):
    """``f.jet(z)`` at points of the open disk.  Raises HoloMapError naming
    the first point with |z| >= 1 before the map is evaluated."""
    z = np.asarray(z)
    outside = np.abs(z) >= 1.0
    if np.any(outside):
        raise HoloMapError(f"hyperbolic derivative needs |z| < 1; "
                           f"z = {complex(z.flat[np.argmax(outside)])}")
    return f.jet(z)


def invariant_derivative(z, w, dw):
    """(1-|z|^2) |dw| / (1-|w|^2) from the jet (w, dw) = (f(z), f'(z)),
    elementwise.  Raises HoloMapError naming the first point with |w| >= 1."""
    z = np.asarray(z)
    w_mod = np.abs(w)
    escaped = w_mod >= 1.0
    if np.any(escaped):
        i = np.argmax(escaped)
        raise HoloMapError(f"|f(z)| = {np.ravel(w_mod)[i]} >= 1 at interior point "
                           f"z = {complex(z.flat[i])}: not a self-map")
    return (1.0 - np.abs(z) ** 2) * np.abs(dw) / (1.0 - w_mod**2)


def hyperbolic_derivative(f: HoloMap, z):
    """(1-|z|^2) |f'(z)| / (1-|f(z)|^2), the invariant derivative, elementwise.
    Raises HoloMapError naming the first point with |z| >= 1 or |f(z)| >= 1."""
    return invariant_derivative(z, *disk_jet(f, z))


# ---------------------------------------------------------------------------
# the text grammar


def parse_map(text: str) -> HoloMap:
    tokens = text.split()
    f, rest = _parse_tokens(tokens)
    if rest:
        raise HoloMapError(f"trailing tokens in map expression: {rest}")
    return f


def _take(tokens: list[str], cast=complex, count: int = 1) -> tuple[list, list[str]]:
    """``count`` tokens read by ``cast`` (complex, int or float), and the rest."""
    if not 0 <= count <= len(tokens):
        raise HoloMapError(f"map expression needs {count} more tokens, "
                           f"has {len(tokens)}")
    values = []
    for token in tokens[:count]:
        try:
            values.append(cast(token))
        except ValueError as exc:
            raise HoloMapError(f"bad {cast.__name__} literal {token!r}") from exc
    return values, tokens[count:]


def _parse_tokens(tokens: list[str]) -> tuple[HoloMap, list[str]]:
    if not tokens:
        raise HoloMapError("empty map expression")
    head, rest = tokens[0], tokens[1:]
    if head == "id":
        return Identity(), rest
    if head == "const":
        (c,), rest = _take(rest)
        return Const(c), rest
    if head == "zpow":
        (k,), rest = _take(rest, int)
        return Monomial(k), rest
    if head == "poly":
        (n,), rest = _take(rest, int)
        coeffs, rest = _take(rest, complex, n)
        return Poly(tuple(coeffs)), rest
    if head == "auto":
        (a,), rest = _take(rest)
        (theta,), rest = _take(rest, float)
        return Automorphism(a, theta), rest
    if head == "blaschke":
        (n,), rest = _take(rest, int)
        zeros, rest = _take(rest, complex, n)
        (theta,), rest = _take(rest, float)
        return Blaschke(tuple(zeros), theta), rest
    if head in ("compose", "sum"):
        first, rest = _parse_tokens(rest)
        second, rest = _parse_tokens(rest)
        return (Compose if head == "compose" else Sum)(first, second), rest
    if head == "scale":
        (c,), rest = _take(rest)
        inner, rest = _parse_tokens(rest)
        return Scaled(c, inner), rest
    if head == "feps":
        (eps,), rest = _take(rest, float)
        return f_eps(eps), rest
    raise HoloMapError(f"unknown map constructor {head!r}")
