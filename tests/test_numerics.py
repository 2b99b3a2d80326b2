import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrig import numerics
from diskrig.numerics import (NumericsError, PolarGrid, Verdict, _ray_rule, dyadic_ts,
                              fit_boundary_rate, laplacian_fd, polar_points,
                              quadrature_disk)


def rule(grid, pole):
    """Every node and weight of the pole-centred rule, from its
    definition: n_t rays at the midpoints of equal angular cells, each
    clipped where |pole + rho e - center| = radius, and n_r nodes
    rho = rho_max u^2 on it, u Gauss-Legendre on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(grid.n_r)
    u = (x + 1.0) / 2.0
    e = np.exp(2j * np.pi * (np.arange(grid.n_t) + 0.5) / grid.n_t)
    d = pole - grid.center
    b = np.real(np.conj(d) * e)
    rho_max = -b + np.sqrt(b * b + grid.radius**2 - abs(d) ** 2)
    nodes = pole + np.outer(rho_max * e, u**2)
    weights = np.outer(rho_max**2, u**3 * w) * 2.0 * np.pi / grid.n_t
    return nodes.ravel(), weights.ravel()


def green(grid, pole, w):
    """The Green's function of the grid's disk, from its definition."""
    d = pole - grid.center
    return -np.log(grid.radius * np.abs(pole - w)
                   / np.abs(grid.radius**2 - np.conj(w - grid.center) * d))


def potential(grid, f, pole):
    """(1/2pi) * the integral of f g(pole, .) over the grid's disk."""
    return quadrature_disk(grid, f, pole) / (2.0 * math.pi)


def moment(grid, k):
    """|w - center|^(2k); k None stands for no integrand."""
    return None if k is None else lambda w: np.abs(w - grid.center) ** (2 * k)


def exact_potential(grid, pole, k):
    """(1/2pi) * the integral of |w - center|^(2k) g(pole, w): the solution
    u = (R^(2k+2) - |w - center|^(2k+2)) / (2k+2)^2 of -Lap u = |w - center|^(2k)
    that vanishes on the circle, at the pole; k None gives the Green mean
    (R^2 - |pole - center|^2) / 4, the value at k = 0."""
    k = 0 if k is None else k
    r = abs(pole - grid.center)
    return (grid.radius ** (2 * k + 2) - r ** (2 * k + 2)) / (2 * k + 2) ** 2


def nodes_of(grid, pole):
    """The nodes quadrature_disk hands its integrand, in order."""
    seen = []

    def f(w):
        seen.append(w.copy())
        return np.ones(w.shape)

    quadrature_disk(grid, f, pole)
    return np.concatenate(seen)


#: the moments k = 0..3 with the kernel alone (None) first
MOMENTS = [None, 0, 1, 2, 3]
CENTRED = PolarGrid(0j, 1.0, 64, 128)
OFF_CENTRE = PolarGrid(0.2 + 0.1j, 0.7, 64, 128)


class TestPolarGrid:
    @pytest.mark.parametrize("n_r", [16, 40, 64])
    def test_weights_positive_and_green_mean_converges(self, n_r):
        # the radial weights 2 u^3 du integrate 2 u^3 over [0, 1] to 1/2;
        # with the kernel's u^3 log u the Green mean converges like n_r^-8
        u2, wu = _ray_rule(n_r)
        assert np.all(wu > 0) and np.all((0 < u2) & (u2 < 1))
        assert abs(wu.sum() - 0.5) <= 1e-14
        for grid in (PolarGrid(0j, 1.0, n_r, 32), PolarGrid(0.2 + 0.1j, 0.7, n_r, 64)):
            for pole in (grid.center, grid.center + 0.6 * grid.radius * np.exp(2j)):
                exact = exact_potential(grid, pole, None)
                val = potential(grid, None, pole)
                assert abs(val - exact) <= 1e-8 * (16 / n_r) ** 8 * exact

    @pytest.mark.parametrize("pole", [0.1j, 0.5 - 0.3j, -0.7 + 0.1j])
    def test_nodes_strictly_inside(self, pole):
        grid = PolarGrid(0.1j, 0.9, 24, 48)
        pts = nodes_of(grid, pole)
        assert pts.size == grid.n_r * grid.n_t
        assert np.all(np.abs(pts - grid.center) < grid.radius)
        assert np.all(pts != pole)

    @pytest.mark.parametrize("angle", [0.0, 1.0, math.pi / 2, 3.0])
    def test_pole_near_the_rim_keeps_nodes_inside_and_off_it(self, angle):
        # rays towards the near rim are 1e-4 long, the others up to 2R;
        # the Green potentials are about 1e-4 R / 2 and still closed-form
        grid = PolarGrid(0.2 - 0.1j, 0.8, 64, 128)
        pole = grid.center + (grid.radius - 1e-4) * np.exp(1j * angle)
        pts = nodes_of(grid, pole)
        assert np.all(np.abs(pts - grid.center) < grid.radius)
        assert np.min(np.abs(pts - pole)) > 0.0
        for k in MOMENTS:
            exact = exact_potential(grid, pole, k)
            assert abs(potential(grid, moment(grid, k), pole) - exact) <= 1e-8 * exact

    def test_invalid_parameters(self):
        with pytest.raises(NumericsError):
            PolarGrid(0j, -1.0, 8, 16)
        with pytest.raises(NumericsError):
            PolarGrid(0j, 1.0, 1, 16)

    @pytest.mark.parametrize("args, field", [
        ((0j, math.nan, 8, 8), "radius"), ((0j, math.inf, 8, 8), "radius"),
        ((complex(math.nan, 0.0), 1.0, 8, 8), "center"),
        ((complex(0.0, -math.inf), 1.0, 8, 8), "center"),
        ((0j, 1.0, 8.5, 8), "n_r"), ((0j, 1.0, 8, 16.5), "n_t"),
        ((0j, 1.0, 8, 16.0), "n_t")])
    def test_malformed_field_named(self, args, field):
        with pytest.raises(NumericsError, match=f"grid {field} must be"):
            PolarGrid(*args)

    def test_numpy_integer_sizes_accepted(self):
        grid = PolarGrid(0j, 1.0, np.int64(64), np.int32(16))
        assert potential(grid, None, 0.3j) == \
            pytest.approx(exact_potential(grid, 0.3j, None), rel=1e-12)


class TestQuadrature:
    @pytest.mark.parametrize("k", MOMENTS)
    def test_centred_pole(self, k):
        # about the center the kernel is -log u^2 on every ray
        val = potential(CENTRED, moment(CENTRED, k), 0j)
        assert val == pytest.approx(exact_potential(CENTRED, 0j, k), rel=1e-12)

    @pytest.mark.parametrize("k", MOMENTS)
    @pytest.mark.parametrize("pole", [0.3 - 0.1j, -0.5j, 0.25 + 0.6j])
    def test_off_centre_pole(self, pole, k):
        # the rays' lengths rho_max and the kernel are smooth and periodic
        # in the angle
        val = potential(CENTRED, moment(CENTRED, k), pole)
        assert val == pytest.approx(exact_potential(CENTRED, pole, k), rel=1e-12)

    @pytest.mark.parametrize("k", MOMENTS)
    @pytest.mark.parametrize("pole", [0j, 0.3 - 0.1j, -0.5j, 0.25 + 0.6j])
    def test_off_centre_grid(self, pole, k):
        pole = OFF_CENTRE.center + OFF_CENTRE.radius * pole
        val = potential(OFF_CENTRE, moment(OFF_CENTRE, k), pole)
        assert val == pytest.approx(exact_potential(OFF_CENTRE, pole, k), rel=1e-12)

    def test_log_potential_at_the_centre(self):
        # (1/2pi) * integral of g(0, w) (-log|w|) over the unit disk is
        # the integral of r log^2 r over [0, 1], 1/4; the area element
        # damps the pole at 0 to u^3 log^2 u
        grid = PolarGrid(0j, 1.0, 64, 8)
        assert abs(potential(grid, lambda z: -np.log(np.abs(z)), 0j) - 0.25) <= 1e-12

    def test_finite_integrand_times_kernel_overflow_refused(self):
        # f g overflows where g > 1.8, next to the pole: the first node of
        # the first ray
        grid = PolarGrid(0j, 1.0, 8, 16)
        first = nodes_of(grid, 0.2j)[0]
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError,
                               match=re.escape(f"not finite at node {first}")):
                quadrature_disk(grid, lambda z: np.full(z.shape, 1e308), 0.2j)

    @pytest.mark.parametrize("pole", [0.5 + 0.9j, 1.3 + 0.1j, -0.8 + 1.0j,
                                      complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_pole_on_or_outside_the_disk_refused(self, pole):
        # the grid's circle is |z - (0.5 + 0.1j)| = 0.8
        grid = PolarGrid(0.5 + 0.1j, 0.8, 8, 16)
        for f in (None, lambda w: np.ones(w.shape)):
            with pytest.raises(NumericsError,
                               match=re.escape(f"pole {pole} must lie inside")):
                quadrature_disk(grid, f, pole)

    def test_nonfinite_integrand_names_node(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericsError, match="not finite"):
                quadrature_disk(grid, lambda z: 1.0 / (np.abs(z) - np.abs(z)), 0j)

    def test_integrand_called_on_node_arrays(self):
        grid = PolarGrid(0j, 1.0, 8, 16)
        with pytest.raises(TypeError):
            quadrature_disk(grid, lambda z: math.exp(abs(z)), 0j)
        with pytest.raises(NumericsError, match="elementwise"):
            quadrature_disk(grid, lambda z: 1.0, 0j)


#: a ray longer than a block of BLOCK_NODES = 64 (every block is one ray),
#: and three rays to a block with a short last block (rays 9 of 10)
SMALL_BLOCK = 64
BLOCK_GRIDS = [PolarGrid(0.1 - 0.2j, 0.8, SMALL_BLOCK + 4, 4),
               PolarGrid(0j, 0.9, SMALL_BLOCK // 3, 10)]
#: inside both grids' disks, and the pole of the kernel and the integrand below
POLE = 0.05j


def integrand(w):
    return np.log(np.abs(w - POLE)) * np.cos(3.0 * np.real(w)) + np.imag(w) ** 2


@pytest.fixture
def small_blocks(monkeypatch):
    # blocks of the real size need rays of 16384 nodes, whose
    # Gauss-Legendre rule alone would take gigabytes to compute
    monkeypatch.setattr(numerics, "BLOCK_NODES", SMALL_BLOCK)


@pytest.mark.usefixtures("small_blocks")
class TestRayBlocks:
    """quadrature_disk walks the rays in blocks; the sum must equal one
    dot product of the weights with f g on every node of the rule."""

    @staticmethod
    def rays_per_block(grid):
        return max(1, SMALL_BLOCK // grid.n_r)

    @pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=["long-ray", "short-last"])
    @pytest.mark.parametrize("f", [None, integrand], ids=["kernel", "integrand"])
    def test_equals_one_dot_over_all_nodes(self, grid, f):
        assert grid.n_t % self.rays_per_block(grid) != 0 or grid.n_r > SMALL_BLOCK
        pts, weights = rule(grid, POLE)
        values = green(grid, POLE, pts) * (1.0 if f is None else f(pts))
        assert quadrature_disk(grid, f, POLE) == \
            pytest.approx(float(weights @ values), rel=1e-13)

    @pytest.mark.parametrize("grid", BLOCK_GRIDS + [PolarGrid(0j, 1.0, 8, 4)],
                             ids=["long-ray", "short-last", "one-block"])
    def test_integrand_gets_whole_ray_blocks(self, grid):
        seen = []

        def f(w):
            seen.append(w.copy())
            return np.ones(w.shape)

        quadrature_disk(grid, f, POLE)
        assert all(b.size % grid.n_r == 0 for b in seen)
        assert all(b.size <= max(SMALL_BLOCK, grid.n_r) for b in seen)
        assert max(b.size for b in seen) == \
            min(grid.n_t, self.rays_per_block(grid)) * grid.n_r
        assert np.allclose(np.concatenate(seen), rule(grid, POLE)[0],
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=["long-ray", "short-last"])
    def test_first_bad_node_named_from_a_later_block(self, grid):
        # bad values in the last block and, earlier, in the second
        pts = nodes_of(grid, POLE)
        first = self.rays_per_block(grid) * grid.n_r + 5
        bad = np.zeros(pts.size, dtype=bool)
        bad[[first, pts.size - 2]] = True

        def f(w):
            return np.where(np.isin(w, pts[bad]), np.nan, 1.0)

        with pytest.raises(NumericsError,
                           match=re.escape(f"not finite at node {pts[first]}")):
            quadrature_disk(grid, f, POLE)

    def test_shape_mismatch_refused(self):
        grid = BLOCK_GRIDS[1]
        with pytest.raises(NumericsError, match="elementwise"):
            quadrature_disk(grid, lambda w: np.ones(grid.n_r), POLE)


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


class TestPolarPoints:
    @pytest.mark.parametrize("phase", [0.0, 0.23, 0.5])
    def test_radius_major_at_the_stated_angles(self, phase):
        radii = [0.1, 0.5, 0.9]
        pts = polar_points(radii, 6, phase)
        want = [r * cmath.exp(2j * math.pi * (j + phase) / 6)
                for r in radii for j in range(6)]
        assert pts.shape == (18,)
        np.testing.assert_allclose(pts, want, rtol=0, atol=1e-15)


class TestRateFit:
    def test_cubic_value_vanishes_at_exponent_two(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate(ts, (1 - ts) ** 3, 2.0)
        assert rep.verdict is Verdict.VANISHES

    def test_linear_value_diverges_at_exponent_two(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate(ts, 1 - ts, 2.0)
        assert rep.verdict is Verdict.DIVERGES

    def test_matched_exponent_recovers_constant(self):
        ts = dyadic_ts()
        rep = fit_boundary_rate(ts, 3.7 * (1 - ts) ** 2 + (1 - ts) ** 3, 2.0)
        assert rep.verdict is Verdict.BOUNDED_NONZERO
        assert rep.fitted_limit == pytest.approx(3.7, rel=1e-6)

    def test_requires_five_samples(self):
        with pytest.raises(NumericsError):
            fit_boundary_rate([0.9] * 4, [1.0] * 4, 2.0)

    def test_requires_increasing_t(self):
        with pytest.raises(NumericsError):
            fit_boundary_rate([0.9, 0.8, 0.95, 0.96, 0.97], [1.0] * 5, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_refused(self, exponent):
        ts = dyadic_ts()
        with pytest.raises(NumericsError, match="rate exponent must be finite"):
            fit_boundary_rate(ts, (1 - ts) ** 2, exponent)

    @given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda s: abs(s) > 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, s):
        ts = dyadic_ts(4, 14)
        base = (1 - ts) ** 2 * (1.0 + (1 - ts))
        a = fit_boundary_rate(ts, base, 2.0).fitted_limit
        b = fit_boundary_rate(ts, s * base, 2.0).fitted_limit
        assert b == pytest.approx(s * a, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("ladder", [(-2, 20), (4, 54)])
    def test_ladder_leaving_the_open_disk_refused(self, ladder):
        # 1 - 2^-k is -3 at k = -2 and rounds to 1 at k = 54
        with pytest.raises(NumericsError, match="k_max <= 53"):
            dyadic_ts(*ladder)

    def test_samples_recorded_sorted(self):
        ts = dyadic_ts(4, 10)
        rep = fit_boundary_rate(ts, (1 - ts) ** 2, 2.0)
        recorded = [t for t, _ in rep.samples]
        assert recorded == sorted(recorded)

    def test_samples_recorded_as_float_pairs(self):
        ts = dyadic_ts(4, 10)
        rep = fit_boundary_rate(ts, (1 - ts) ** 2, 2.0)
        assert rep.samples == tuple((float(t), float((1 - t) ** 2)) for t in ts)
        assert all(type(t) is float and type(v) is float for t, v in rep.samples)

    @pytest.mark.parametrize("ts, values", [
        (dyadic_ts(4, 10), (1 - dyadic_ts(4, 11)) ** 2),
        (dyadic_ts(4, 10)[:, None], (1 - dyadic_ts(4, 10))[:, None]),
        (dyadic_ts(4, 10), np.zeros((7, 2))),
    ], ids=["lengths", "two-dimensional", "value-shape"])
    def test_mismatched_shapes_refused(self, ts, values):
        with pytest.raises(NumericsError, match="1-D sample arrays"):
            fit_boundary_rate(ts, values, 2.0)
