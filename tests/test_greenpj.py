import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diskrig import greenpj as gp
from diskrig import holomap as hm
from diskrig import metric as mt
from diskrig.numerics import PolarGrid, quadrature_disk

P = mt.poincare()

inner = st.complex_numbers(max_magnitude=0.7, allow_infinity=False,
                           allow_nan=False)


def potential_radial(lam, R, z):
    """(1/2pi) * integral of g_R(z, w) s(|w|) dA for a radial source s,
    as the one-dimensional integral of s(t) t log(R / max(t, |z|)) over
    [0, R]: the mean of g_R(z, .) on the circle |w| = t is
    log(R / max(t, |z|)).  An oracle for pj_decompose's potential term
    that shares no quadrature node with it."""
    r = abs(z)

    def f(t):
        s = float(mt.curvature_source(lam, np.array([complex(t)]))[0])
        return s * t * math.log(R / max(t, r))

    return quad(f, 0.0, R, points=[r], epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def quadrature_nodes(grid, pole):
    """The nodes quadrature_disk hands its integrand, in order.  The
    grid's disk is |w| < R, so the Green potential of 1 it returns must
    be 2 pi times the Green mean (R^2 - |pole|^2) / 4, to within the
    rule's error, which falls like n_r^-8."""
    seen = []
    val = quadrature_disk(grid, lambda w: seen.append(w.copy()) or np.ones(w.shape),
                          pole)
    exact = (grid.radius**2 - abs(pole) ** 2) / 4.0
    assert val / (2.0 * math.pi) == pytest.approx(
        exact, rel=max(1e-12, 1e-8 * (16 / grid.n_r) ** 8))
    return np.concatenate(seen)


class TestGreen:
    def test_central_value(self):
        assert gp.green(1.0, 0j, 0.5 + 0j) == pytest.approx(math.log(2.0))

    @given(inner, inner)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_positivity(self, z, w):
        if abs(z - w) < 1e-6:
            return
        a = gp.green(1.0, z, w)
        b = gp.green(1.0, w, z)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        assert a > 0.0

    def test_rotation_invariance_exact(self):
        rot = np.exp(0.7j)
        for z, w in [(0.3 + 0j, 0.1 - 0.4j), (0.5j, -0.2 + 0.2j)]:
            assert gp.green(0.9, rot * z, rot * w) == \
                pytest.approx(gp.green(0.9, z, w), rel=1e-14)

    def test_boundary_vanishing(self):
        vals = [gp.green(1.0, 0.3 + 0j, r * np.exp(0.4j))
                for r in (0.9, 0.99, 0.999)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2e-3

    def test_pole_rejected(self):
        with pytest.raises(gp.GreenPJError, match="pole"):
            gp.green(1.0, 0.2 + 0j, 0.2 + 0j)

    @pytest.mark.parametrize("R, z", [(0.9, 0.4 + 0j), (0.5, 0.1 - 0.2j)])
    def test_bitwise_equal_to_one_expression(self, R, z):
        # the denominator is evaluated first to save memory; every value
        # must still equal the one-expression form bit for bit
        rng = np.random.default_rng(5)
        w = (R * np.sqrt(rng.uniform(size=4000))
             * np.exp(2j * np.pi * rng.uniform(size=4000)))
        w = w[np.abs(w - z) >= 1e-6]
        expected = -np.log(R * np.abs(z - w) / np.abs(R**2 - np.conj(w) * z))
        assert np.array_equal(gp.green(R, z, w), expected)

    @pytest.mark.parametrize("n_r, n_t", [(8, 16), (220, 440)])
    def test_bitwise_equal_to_one_expression_on_a_grid(self, n_r, n_t):
        # in-place passes on the work arrays, one expression here; the
        # larger grid is past the size where numpy reuses temporaries
        R, z = 0.9, 0.4 - 0.1j
        w = quadrature_nodes(PolarGrid(0j, R, n_r, n_t), z)
        before = w.copy()
        expected = -np.log(R * np.abs(z - w) / np.abs(R**2 - np.conj(w) * z))
        assert np.array_equal(gp.green(R, z, w), expected)
        assert np.array_equal(w, before)

    @pytest.mark.parametrize("n_r, n_t", [(64, 128), (220, 440)])
    @pytest.mark.parametrize("R, z", [(0.9, 0.4 - 0.1j), (0.5, -0.3j), (1.0, 0j),
                                      (0.8, 0.79 + 0j)])
    def test_kernel_of_the_rule_is_green(self, R, z, n_r, n_t):
        # the rule builds g_R(z, .) from its own polar coordinates; an
        # integrand divided by green on the nodes gives back the plain
        # area integral: pi R^2 for 1 and pi R^4 / 2 for |w|^2
        grid = PolarGrid(0j, R, n_r, n_t)
        area = quadrature_disk(grid, lambda w: 1.0 / gp.green(R, z, w), z)
        square = quadrature_disk(grid, lambda w: np.abs(w) ** 2 / gp.green(R, z, w), z)
        assert area == pytest.approx(math.pi * R**2, rel=1e-12)
        assert square == pytest.approx(math.pi * R**4 / 2.0, rel=1e-12)

    def test_scalar_gives_a_numpy_scalar(self):
        val = gp.green(0.9, 0.4 + 0j, 0.1j)
        assert isinstance(val, np.float64)
        assert val == gp.green(0.9, 0.4 + 0j, np.array([0.1j]))[0]

    def test_refusals_name_the_point(self):
        w = np.array([0.1, 0.2j, 0.95 + 0j, 1.5])
        with pytest.raises(gp.GreenPJError, match=r"w = \(0\.95\+0j\)"):
            gp.green(0.9, 0.4 + 0j, w)
        with pytest.raises(gp.GreenPJError, match=r"pole.*w = \(0\.4-0\.1j\)"):
            gp.green(0.9, 0.4 - 0.1j, np.array([0.1, 0.4 - 0.1j, 0.5j]))
        with pytest.raises(gp.GreenPJError, match=r"z = \(0\.9\+0j\)"):
            gp.green(0.9, 0.9 + 0j, 0.1)


class TestGreenMean:
    @pytest.mark.parametrize("R,z", [(1.0, 0j), (1.0, 0.6 + 0j), (0.5, 0j),
                                     (0.8, 0.3 + 0.2j), (0.5, 0.2 + 0j),
                                     (0.5, 0.1 - 0.3j), (0.9, 0.3 + 0j),
                                     (0.9, -0.5 + 0.6j)])
    def test_matches_closed_form(self, R, z):
        # on the default resolution
        val = gp.green_mean(R, z)
        assert val == pytest.approx((R**2 - abs(z) ** 2) / 4.0, abs=1e-12)

    @pytest.mark.parametrize("R, z", [(0.5, 0.2 + 0j), (0.9, 0.3 + 0j)])
    def test_default_resolution_is_declared_once(self, R, z):
        grid = PolarGrid(0j, R, *gp.RESOLUTION)
        assert gp.green_mean(R, z) == gp.green_mean(R, z, grid)
        assert gp.pj_decompose(P, R, z) == gp.pj_decompose(P, R, z, grid)

    def test_memory_stays_two_values_per_node(self):
        # a 900 x 1800 grid: whole-grid weights or integrand values would
        # take 13 MB each, whole-grid nodes 26 MB; the ray blocks take
        # about 1 MB of temporaries
        grid = PolarGrid(0j, 0.9, 900, 1800)
        tracemalloc.start()
        try:
            gp.green_mean(0.9, 0.3, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_grid_kept_after_use(self):
        tracemalloc.start()
        try:
            for k in range(12):
                R = 0.41 + 0.04 * k
                gp.green_mean(R, 0.3, PolarGrid(0j, R, 900, 1800))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 2 * 2**20


class TestMajorant:
    def test_hyperbolic_at_center(self):
        # rotational symmetry makes the integral the boundary value
        val = gp.harmonic_majorant(P, 0.5, 0j)
        assert val == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_scaling_shifts_additively(self):
        base = gp.harmonic_majorant(P, 0.6, 0.2 + 0.1j)
        scaled = gp.harmonic_majorant(mt.scale(0.9, P), 0.6, 0.2 + 0.1j)
        assert scaled - base == pytest.approx(math.log(0.9), abs=1e-12)

    def test_ceiling_over_catalog(self):
        R = 0.7
        ceiling = math.log(1.0 / (1.0 - R**2))
        for lam in (P, mt.pullback(hm.Monomial(2), P), mt.mu_max(0.5),
                    mt.scale(0.8, P)):
            val = gp.harmonic_majorant(lam, R, 0.25 - 0.1j)
            assert val <= ceiling + 1e-9

    def test_zero_on_circle_rejected(self):
        lam = mt.mu_max(1.0)
        shifted = mt.pullback(hm.Automorphism(0.6 + 0j), lam)
        with pytest.raises(gp.GreenPJError, match="perturb"):
            gp.harmonic_majorant(shifted, 0.6, 0j)


class TestDecomposition:
    def test_hyperbolic_no_zero_terms(self):
        dec = gp.pj_decompose(P, 0.9, 0.3 + 0j)
        assert dec.zero_terms == ()
        assert dec.residual <= 1e-3

    def test_square_pullback(self):
        lam = mt.pullback(hm.Monomial(2), P)
        dec = gp.pj_decompose(lam, 0.9, 0.4 + 0j)
        assert len(dec.zero_terms) == 1
        rec, val = dec.zero_terms[0]
        assert rec.order == pytest.approx(1.0)
        assert val == pytest.approx(-gp.green(0.9, 0.4 + 0j, 0j), rel=1e-12)
        assert dec.log_density == pytest.approx(math.log(0.8 / (1 - 0.4**4)))
        assert dec.residual <= 1e-3

    def test_extremal_zero(self):
        dec = gp.pj_decompose(mt.mu_max(0.5), 0.8, 0.5 + 0j)
        assert dec.zero_terms[0][0].order == pytest.approx(0.5)
        assert dec.residual <= 1e-3

    def test_residual_decreases_under_doubling(self):
        lam = mt.pullback(hm.Monomial(2), P)
        zs = [0.3 + 0j, 0.21 + 0.33j, -0.4 + 0.1j]
        coarse = max(gp.pj_decompose(lam, 0.9, z,
                                     grid=PolarGrid(0j, 0.9, 60, 120)).residual
                     for z in zs)
        fine = max(gp.pj_decompose(lam, 0.9, z,
                                   grid=PolarGrid(0j, 0.9, 120, 240)).residual
                   for z in zs)
        assert coarse / fine >= 3.0

    @pytest.mark.parametrize("lam, tol", [(P, 1e-12), (mt.scale(0.7, P), 1e-12),
                                          (mt.mu_max(1.5), 1e-8)],
                             ids=["poincare", "scaled", "mu_max-1.5"])
    @pytest.mark.parametrize("R, z", [(0.8, 0.3 + 0j), (0.9, -0.2 + 0.4j)])
    def test_potential_matches_radial_oracle(self, lam, tol, R, z):
        # the source of mu_max(1.5) is not smooth at its zero at 0
        dec = gp.pj_decompose(lam, R, z)
        assert dec.potential_value == pytest.approx(potential_radial(lam, R, z),
                                                    rel=0.0, abs=tol)

    def test_finite_difference_source(self):
        # zeros off the origin: the source from the unguarded grid
        # curvature gave residuals 2e-3 to 1.2 at these radii
        lam = mt.pullback(hm.Blaschke((0.3 + 0.2j, -0.4j)), P)
        for R in (0.5, 0.8, 0.9):
            dec = gp.pj_decompose(lam.without_exact_curvature(), R, 0.1 + 0.2j)
            assert dec.residual <= 1e-3

    @pytest.mark.parametrize("grid", [PolarGrid(0j, 0.6, 220, 440),
                                      PolarGrid(0.1j, 0.7, 220, 440)])
    def test_grid_that_misses_the_disk_refused(self, grid):
        # these gave residuals 0.581 and 0.419, read as a failed split
        lam = mt.pullback(hm.Monomial(2), P)
        with pytest.raises(gp.GreenPJError, match="grid must cover"):
            gp.pj_decompose(lam, 0.9, 0.4 + 0j, grid=grid)
        with pytest.raises(gp.GreenPJError, match="grid must cover"):
            gp.green_mean(0.9, 0.4 + 0j, grid)

    def test_requires_pinch(self):
        s = lambda z: np.zeros(np.shape(z)) if np.ndim(z) else 0.0
        with pytest.raises(gp.GreenPJError, match="pinch"):
            # the zero weight is its own Laplacian
            gp.pj_decompose(mt.exp_weight(s, s, "flat"), 0.9, 0.3 + 0j)


class TestQuotientBound:
    def test_square_pullback_at_shared_zero(self):
        lam = mt.pullback(hm.Monomial(2), P)
        rep = gp.zero_quotient_bound(lam, P, 0.8, 0j, 0.4 + 0j)
        assert rep.passed
        assert rep.details["alpha"] == pytest.approx(1.0)
        assert rep.details["beta"] == 0.0

    def test_equal_metrics_trivial(self):
        rep = gp.zero_quotient_bound(P, P, 0.8, 0.1 + 0j, 0.3 + 0j)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs > 0.0
        assert rep.passed

    def test_nested_extremal_orders(self):
        rep = gp.zero_quotient_bound(mt.mu_max(2.0), mt.mu_max(1.0),
                                     0.8, 0j, 0.35 + 0j)
        assert rep.passed
        assert rep.details["alpha"] - rep.details["beta"] == pytest.approx(1.0)

    def test_domination_required(self):
        with pytest.raises(mt.DominationError):
            gp.zero_quotient_bound(P, mt.mu_max(1.0), 0.8, 0j, 0.3 + 0j)

    def test_mu_without_pinch_refused(self):
        # c_r is read from mu's pinch bounds, so mu must declare them
        with pytest.raises(gp.GreenPJError, match="pinch"):
            gp.zero_quotient_bound(P, dataclasses.replace(P, pinch=None), 0.8,
                                   0j, 0.3 + 0j)
