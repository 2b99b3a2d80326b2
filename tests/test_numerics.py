import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrig.numerics import (COINCIDENCE_TOL, NumericsError, PolarGrid, Verdict,
                              dyadic_ts, fit_boundary_rate, laplacian_fd,
                              quadrature_disk)


class TestPolarGrid:
    def test_weights_positive_and_sum_to_area(self):
        for grid in (PolarGrid(0j, 1.0, 16, 32), PolarGrid(0.2 + 0.1j, 0.7, 40, 64)):
            pts, w = grid.nodes()
            assert np.all(w > 0)
            area = math.pi * grid.radius**2
            assert abs(w.sum() - area) <= 1e-12 * area

    def test_nodes_strictly_inside(self):
        grid = PolarGrid(0.1j, 0.9, 24, 48)
        pts, _ = grid.nodes()
        assert np.all(np.abs(pts - grid.center) < grid.radius)

    def test_invalid_parameters(self):
        with pytest.raises(NumericsError):
            PolarGrid(0j, -1.0, 8, 16)
        with pytest.raises(NumericsError):
            PolarGrid(0j, 1.0, 1, 16)

    def test_avoid_perturbs_coincident_node(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        pts, _ = grid.nodes()
        target = complex(pts[37])
        moved, _ = grid.nodes(avoid=target)
        assert np.min(np.abs(moved - target)) > 1e-12

    @staticmethod
    def avoid_cases(grid):
        """A node on each ring, a point 1e-13 off a node, the center and
        a point off the grid."""
        pts, _ = grid.nodes()
        on_rings = [complex(pts[i * grid.n_t + (3 * i) % grid.n_t])
                    for i in range(grid.n_r)]
        return on_rings + [complex(pts[5]) + 1e-13j, grid.center,
                           grid.center + 0.37 * grid.radius * np.exp(0.2j)]

    @pytest.mark.parametrize("grid", [PolarGrid(0j, 1.0, 8, 16),
                                      PolarGrid(0.2 + 0.1j, 0.7, 12, 24),
                                      PolarGrid(-3.0 + 4.0j, 2.5, 10, 20)],
                             ids=["unit", "shifted", "far-center"])
    def test_moved_nodes_are_the_full_scan_hits(self, grid):
        # the test only scans rings near |avoid - center|; the nodes it
        # moves must be exactly those a scan of every node finds
        pts, _ = grid.nodes()
        for target in self.avoid_cases(grid):
            full_scan = np.flatnonzero(np.abs(pts - target) < COINCIDENCE_TOL)
            moved, _ = grid.nodes(avoid=target)
            assert np.array_equal(np.flatnonzero(moved != pts), full_scan)

    @pytest.mark.parametrize("ring", ["first", "middle", "last"])
    def test_moved_node_keeps_its_ring(self, ring):
        grid = PolarGrid(0.1 - 0.2j, 0.8, 20, 40)
        i = {"first": 0, "middle": 10, "last": 19}[ring] * grid.n_t + 7
        pts, _ = grid.nodes()
        moved, _ = grid.nodes(avoid=complex(pts[i]))
        radius = abs(moved[i] - grid.center)
        assert radius < grid.radius
        assert radius == pytest.approx(abs(pts[i] - grid.center), rel=1e-15)
        # half an angular cell from the node, so midway between two nodes
        step = np.angle((moved[i] - grid.center) / (pts[i] - grid.center))
        assert step == pytest.approx(np.pi / grid.n_t, rel=1e-12)

    def test_cached_nodes_not_written(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        before = grid.nodes()[0].copy()
        grid.nodes(avoid=complex(before[20]))
        assert np.array_equal(grid.nodes()[0], before)


class TestQuadrature:
    def test_constant_gives_disk_area(self):
        grid = PolarGrid(0j, 1.0, 32, 64)
        val = quadrature_disk(grid, lambda z: np.ones_like(np.real(z)))
        assert abs(val - math.pi) <= 1e-12 * math.pi

    def test_radial_square_moment(self):
        # oracle: 2 pi * int_0^1 r^3 dr = pi/2
        grid = PolarGrid(0j, 1.0, 32, 64)
        val = quadrature_disk(grid, lambda z: np.abs(z) ** 2)
        assert abs(val - math.pi / 2.0) <= 1e-12

    def test_log_potential_mean(self):
        # (1/2pi) * integral of -log|w| over the unit disk equals 1/4
        grid = PolarGrid(0j, 1.0, 400, 64)
        val = quadrature_disk(grid, lambda z: -np.log(np.abs(z)), avoid=0j)
        assert abs(val / (2.0 * math.pi) - 0.25) <= 1e-6

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_exact_for_radial_polynomials(self, k):
        # |w|^(2k) has exact value 2 pi / (2k + 2); Gauss nodes in r^2 are
        # exact through degree n_r - 1 in the radial variable
        n_r = 16
        grid = PolarGrid(0j, 1.0, n_r, 32)
        val = quadrature_disk(grid, lambda z, k=k: np.abs(z) ** (2 * k))
        exact = 2.0 * math.pi / (2.0 * k + 2.0)
        assert abs(val - exact) <= 1e-10 * exact

    def test_nonfinite_integrand_names_node(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericsError, match="not finite"):
                quadrature_disk(grid, lambda z: 1.0 / (np.abs(z) - np.abs(z)))


    def test_integrand_called_once_on_all_nodes(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        with pytest.raises(TypeError):
            quadrature_disk(grid, lambda z: math.exp(abs(z)))
        with pytest.raises(NumericsError, match="elementwise"):
            quadrature_disk(grid, lambda z: 1.0)


class TestLaplacian:
    def test_quadratic(self):
        val = laplacian_fd(lambda z: z.real**2, 0.3 + 0.1j, 1e-3)
        assert abs(val - 2.0) <= 1e-6

    def test_hyperbolic_log_density(self):
        # oracle: Lap log(1/(1-|z|^2)) = 4/(1-|z|^2)^2, forced by constant
        # curvature -4 of the hyperbolic density
        u = lambda z: math.log(1.0 / (1.0 - abs(z) ** 2))
        val = laplacian_fd(u, 0.5 + 0j, 1e-3, richardson=True)
        assert abs(val - 4.0 / 0.5625) <= 1e-4

    def test_harmonic(self):
        val = laplacian_fd(lambda z: (z**3).real, 0.2 + 0.4j, 1e-3)
        assert abs(val) <= 1e-6

    def test_second_order_step_scaling(self):
        # halving h cuts the error by 4 within 25 percent
        u = lambda z: math.exp(z.real) * math.cos(z.imag) + z.real**4
        exact = 12.0 * 0.3**2  # the harmonic part drops out
        e1 = abs(laplacian_fd(u, 0.3 + 0.2j, 2e-2) - exact)
        e2 = abs(laplacian_fd(u, 0.3 + 0.2j, 1e-2) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_richardson_improves(self):
        u = lambda z: math.cos(2 * z.real) * math.cosh(z.imag)
        exact = -3.0 * math.cos(0.6) * math.cosh(0.1)
        plain = abs(laplacian_fd(u, 0.3 + 0.05j, 1e-2) - exact)
        rich = abs(laplacian_fd(u, 0.3 + 0.05j, 1e-2, richardson=True) - exact)
        assert rich < plain


    @pytest.mark.parametrize("richardson", [False, True])
    def test_array_matches_pointwise(self, richardson):
        u = lambda z: np.log(1.0 / (1.0 - np.abs(z) ** 2)) + np.real(z) ** 3
        zs = np.array([[0.3 + 0.1j, -0.5j], [0.05 - 0.6j, 0.7 + 0j]])
        vals = laplacian_fd(u, zs, 1e-3, richardson=richardson)
        assert vals.shape == zs.shape
        for z, val in zip(zs.ravel(), vals.ravel()):
            assert val == laplacian_fd(u, complex(z), 1e-3, richardson=richardson)


class TestRateFit:
    def test_cubic_value_vanishes_at_exponent_two(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate([(t, (1 - t) ** 3) for t in ts], 2.0)
        assert rep.verdict is Verdict.VANISHES

    def test_linear_value_diverges_at_exponent_two(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate([(t, (1 - t)) for t in ts], 2.0)
        assert rep.verdict is Verdict.DIVERGES

    def test_matched_exponent_recovers_constant(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate([(t, 3.7 * (1 - t) ** 2 + (1 - t) ** 3) for t in ts], 2.0)
        assert rep.verdict is Verdict.BOUNDED_NONZERO
        assert rep.fitted_limit == pytest.approx(3.7, rel=1e-6)

    def test_requires_five_samples(self):
        with pytest.raises(NumericsError):
            fit_boundary_rate([(0.9, 1.0)] * 4, 2.0)

    def test_requires_increasing_t(self):
        with pytest.raises(NumericsError):
            fit_boundary_rate([(0.9, 1.0), (0.8, 1.0), (0.95, 1.0),
                               (0.96, 1.0), (0.97, 1.0)], 2.0)

    @given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda s: abs(s) > 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, s):
        ts = dyadic_ts(4, 14)
        base = [(t, (1 - t) ** 2 * (1.0 + (1 - t))) for t in ts]
        a = fit_boundary_rate(base, 2.0).fitted_limit
        b = fit_boundary_rate([(t, s * v) for t, v in base], 2.0).fitted_limit
        assert b == pytest.approx(s * a, rel=1e-12, abs=1e-300)

    def test_samples_recorded_sorted(self):
        ts = dyadic_ts(4, 10)
        rep = fit_boundary_rate([(t, (1 - t) ** 2) for t in ts], 2.0)
        recorded = [t for t, _ in rep.samples]
        assert recorded == sorted(recorded)
