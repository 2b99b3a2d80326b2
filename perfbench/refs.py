"""Reference values computed apart from diskrig, and the checks that use them.

Every check is an ``Expect``: a value the program produced, the value or
bound it must meet, and the tolerance.  ``Expect.perturbed`` moves the
program's value just past the tolerance; the self-check asserts that each
check accepts the real value and rejects the perturbed one.

References come from closed forms or from 60-digit mpmath evaluation of
the maps' own formulas.  Nothing here imports diskrig; mpmath is imported
where a reference needs it, so the set-up time does not include it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Dyadic depth of the reference point t = 1 - 2^-40 for boundary limits.
REF_DEPTH = 40


@dataclass(frozen=True)
class Expect:
    """One correctness check on one output of the program.

    kind "close": |got - want| <= tol.
    kind "le":    got <= want (a bound; any slack is folded into want).
    kind "eq":    got == want (verdict strings, booleans, byte digests).
    """

    label: str
    got: object
    want: object
    tol: float = 0.0
    kind: str = "close"

    def ok(self) -> bool:
        if self.kind == "eq":
            return self.got == self.want
        got = float(self.got)
        if not math.isfinite(got):
            return False
        if self.kind == "le":
            return got <= float(self.want)
        return abs(got - float(self.want)) <= self.tol

    def perturbed(self) -> "Expect":
        """The same check on a value just past its tolerance."""
        if self.kind == "eq":
            if isinstance(self.want, bool):
                return replace(self, got=not self.want)
            if isinstance(self.want, str):
                return replace(self, got=self.want + "~")
            return replace(self, got=self.want + 1)
        want = float(self.want)
        if self.kind == "le":
            return replace(self, got=want + max(abs(want), 1e-300))
        return replace(self, got=want + 1.5 * self.tol)

    def describe(self) -> str:
        return f"{self.label}: got {self.got!r}, want {self.want!r} " \
               f"({self.kind}, tol {self.tol:g})"


def close(label: str, got, want, rtol: float = 0.0, atol: float = 0.0) -> Expect:
    return Expect(label, got, want, tol=rtol * abs(float(want)) + atol)


def at_most(label: str, got, bound) -> Expect:
    return Expect(label, got, bound, kind="le")


def equal(label: str, got, want) -> Expect:
    return Expect(label, got, want, kind="eq")


# ---------------------------------------------------------------------------
# disk self-maps: specs, and their evaluation in mpmath
#
# A spec is a plain tuple, so the benchmark builds the program's map and
# the reference from the same seeded description:
#   ("blaschke", (a_1, ..., a_d), theta)   e^{i theta} prod (a - z)/(1 - conj(a) z)
#   ("feps", eps)                          z - eps (z - 1)^3
#   ("zpow", k)                            z^k
#   ("compose", outer, inner)              outer(inner(z))


def _eval(spec, z):
    """(f(z), f'(z)) in mpmath at the current working precision."""
    import mpmath

    kind = spec[0]
    if kind == "blaschke":
        zeros, theta = spec[1], spec[2]
        facs, dfacs = [], []
        for a in zeros:
            a = mpmath.mpc(a)
            den = 1 - mpmath.conj(a) * z
            facs.append((a - z) / den)
            dfacs.append((abs(a) ** 2 - 1) / den ** 2)
        rot = mpmath.expj(mpmath.mpf(theta))
        value = rot * mpmath.fprod(facs)
        deriv = 0
        for j, d in enumerate(dfacs):
            deriv += d * mpmath.fprod(f for k, f in enumerate(facs) if k != j)
        return value, rot * deriv
    if kind == "feps":
        eps = mpmath.mpf(spec[1])
        return z - eps * (z - 1) ** 3, 1 - 3 * eps * (z - 1) ** 2
    if kind == "zpow":
        k = spec[1]
        return z ** k, k * z ** (k - 1)
    if kind == "compose":
        w, dw = _eval(spec[2], z)
        v, dv = _eval(spec[1], w)
        return v, dv * dw
    raise ValueError(f"unknown map spec {spec!r}")


def invariant_deficit_limit(spec) -> float:
    """(f^h(t) - 1)/(1 - t)^2 at t = 1 - 2^-40, in 60-digit arithmetic.

    f^h(t) = (1 - t^2)|f'(t)| / (1 - |f(t)|^2); the value agrees with the
    boundary limit up to O(2^-40).
    """
    import mpmath

    with mpmath.workdps(60):
        s = mpmath.mpf(2) ** -REF_DEPTH
        t = 1 - s
        w, dw = _eval(spec, mpmath.mpc(t))
        fh = (1 - t * t) * abs(dw) / (1 - abs(w) ** 2)
        return float((fh - 1) / s ** 2)


def pullback_density(spec, z: complex) -> float:
    """Density of the Poincare pullback, |f'(z)| / (1 - |f(z)|^2)."""
    import mpmath

    with mpmath.workdps(40):
        w, dw = _eval(spec, mpmath.mpc(z))
        return float(abs(dw) / (1 - abs(w) ** 2))


def blaschke_degree(spec) -> int | None:
    """Degree of a spec built only from Blaschke products, else None."""
    if spec[0] == "blaschke":
        return len(spec[1])
    if spec[0] == "compose":
        outer, inner = blaschke_degree(spec[1]), blaschke_degree(spec[2])
        return None if outer is None or inner is None else outer * inner
    return None


# ---------------------------------------------------------------------------
# closed forms


def feps_deficit_limit(eps: float) -> float:
    """f_eps^h(1 - s) = 1 - 2 eps s^2 + O(s^3), so the limit is -2 eps."""
    return -2.0 * eps


def ball_power_rate_limit(k: int) -> float:
    """Rate of k(F(z); dF(e1)) - k(z; e1) over delta along t e1, F = z1^k.

    For w = t^k e1 and dF(e1) = k t^(k-1) e1 the ball metric reduces to
    the disk one, so the difference is k t^(k-1)/(1 - t^(2k)) - 1/(1 - t^2);
    its ratio to delta = 1 - t at delta = 2^-40 (k = 2 gives -1/4 exactly
    in the limit).
    """
    import mpmath

    with mpmath.workdps(60):
        d = mpmath.mpf(2) ** -REF_DEPTH
        t = 1 - d
        diff = k * t ** (k - 1) / (1 - t ** (2 * k)) - 1 / (1 - t * t)
        return float(diff / d)


def rim_distance(delta: float) -> float:
    """K((1-delta) e1, -(1-delta) e1) = log((2 - delta)/delta)."""
    import mpmath

    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        return float(mpmath.log((2 - d) / d))


def green_mean(R: float, z: complex) -> float:
    """(1/2pi) * area integral of the Green's function: (R^2 - |z|^2)/4."""
    return (R * R - abs(z) ** 2) / 4.0
