import math

import numpy as np
import pytest

from diskrig import liouville as lv
from diskrig import metric as mt


def solution_points(sol):
    X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    return (X + 1j * Y)[sol.mask]


def density_error_vs_hyperbolic(sol):
    pts = solution_points(sol)
    exact = 1.0 / (1.0 - np.abs(pts) ** 2)
    return float(np.max(np.abs(np.exp(sol.u[sol.mask]) - exact)))


def compact_nodes(mask):
    """Unknowns whose eight grid neighbors all lie inside the disk."""
    n = mask.shape[0]
    padded = np.pad(mask, 1)
    ok = mask.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ok &= padded[1 + di:n + 1 + di, 1 + dj:n + 1 + dj]
    return ok[mask]


class TestAssembly:
    @pytest.mark.parametrize("n", [64, 65, 97])
    def test_rows_exact_on_a_quadratic(self, n):
        # every row, compact or boundary-layer, is exact on quadratics:
        # A u + b = Lap u = 2 - 4 = -2 with u = x^2 - 2y^2 + xy + 3x
        R = 0.9

        def quad(x, y):
            return x**2 - 2.0 * y**2 + x * y + 3.0 * x

        prob = lv.DirichletProblem(
            R=R, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
            boundary=lambda th: quad(R * np.cos(th), R * np.sin(th)))
        xs, ys, mask, A, b, L5, pts = lv._assemble(prob, n)
        u = quad(pts.real, pts.imag)
        row_sum = np.asarray(abs(A).sum(axis=1)).ravel()
        assert np.all(np.abs(A @ u + b + 2.0) <= 1e-12 * row_sum)

        # L5 is the five-point Laplacian on the compact rows, zero elsewhere
        h = xs[1] - xs[0]
        compact = compact_nodes(mask)
        per_row = np.diff(L5.indptr)
        assert np.all(per_row[compact] == 5) and np.all(per_row[~compact] == 0)
        assert np.all(L5.diagonal()[compact] == -4.0 / h**2)
        off_diagonal = L5.data[L5.data > 0]
        assert off_diagonal.size == 4 * compact.sum()
        assert np.all(off_diagonal == 1.0 / h**2)
        assert np.all(np.abs(L5 @ u + 2.0)[compact] <= 1e-12 * 8.0 / h**2)


class TestSolve:
    def test_hyperbolic_recovery_coarse(self):
        sol = lv.solve(lv.poincare_problem(0.9), n=65)
        assert sol.converged
        assert density_error_vs_hyperbolic(sol) <= 5e-3

    def test_grid_refinement_at_least_threefold(self):
        e_coarse = density_error_vs_hyperbolic(
            lv.solve(lv.poincare_problem(0.9), n=65))
        e_fine = density_error_vs_hyperbolic(
            lv.solve(lv.poincare_problem(0.9), n=129))
        assert e_coarse / e_fine >= 3.0

    def test_residual_monotone_after_damped_start(self):
        for problem in (lv.poincare_problem(0.9), lv.pinched_problem(0.9)):
            sol = lv.solve(problem, n=65)
            tail = sol.residual_history[3:]
            assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_comparison_principle(self):
        # more negative curvature produces the smaller solution
        flat = lv.solve(lv.poincare_problem(0.9), n=65)
        pinched = lv.solve(lv.pinched_problem(0.9), n=65)
        diff = pinched.u[pinched.mask] - flat.u[flat.mask]
        assert np.max(diff) <= 1e-6
        assert np.min(diff) < -1e-3   # strictly smaller somewhere

    def test_factored_zero_recovery(self):
        # unique solution with the extremal-zero boundary data recovers
        # the factored density 2/(1-|z|^4)
        R = 0.8
        logv = math.log(2.0 / (1.0 - R**4))
        prob = lv.DirichletProblem(
            R=R,
            kappa=lambda z: np.full(np.shape(z), -4.0) if np.ndim(z) else -4.0,
            pinch=(-4.0, -4.0),
            boundary=lambda th: np.full(np.shape(th), logv) if np.ndim(th) else logv,
            zero_factor=(0j, 1.0))
        sol = lv.solve(prob, n=97)
        pts = solution_points(sol)
        exact = 2.0 / (1.0 - np.abs(pts) ** 4)
        err = np.max(np.abs(np.exp(sol.u[sol.mask]) - exact))
        assert err <= 5e-4

    def test_pinched_solution_below_hyperbolic(self):
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        pts = solution_points(sol)
        hyp = 1.0 / (1.0 - np.abs(pts) ** 2)
        assert np.all(np.exp(sol.u[sol.mask]) <= hyp + 1e-9)

    def test_resolution_floor(self):
        with pytest.raises(mt.MetricError):
            lv.solve(lv.poincare_problem(0.9), n=32)

    def test_iteration_budget_error(self):
        with pytest.raises(lv.LiouvilleError, match="residual history"):
            lv.solve(lv.poincare_problem(0.9), n=65, max_iter=1, tol=1e-14)


class TestPinchedMetric:
    def test_flat_curvature_reproduces_hyperbolic(self):
        m = lv.make_pinched_metric(
            kappa=lambda z: np.full(np.shape(z), -4.0) if np.ndim(z) else -4.0,
            pinch=(-4.0, -4.0), n=97)
        grid = mt.default_disk_grid(r_max=0.8)
        hyp = 1.0 / (1.0 - np.abs(grid) ** 2)
        assert np.max(np.abs(np.asarray(m.density(grid)) - hyp)) <= 1e-3

    def test_sampled_curvature_within_pinch(self):
        m = lv.make_pinched_metric(n=97)
        numeric = m.without_exact_curvature()
        for z in (0.2 + 0.1j, -0.4 + 0.3j, 0.5j, 0.3 - 0.3j):
            val = mt.curvature(numeric, z, h=1e-3)
            assert -5.0 - 5e-3 <= val <= -4.0 + 5e-3

    def test_pinch_sets_rate_exponent(self):
        m = lv.make_pinched_metric(n=97)
        c = -m.pinch[0]
        assert c / 2.0 == pytest.approx(2.5)

    def test_domain_enforced(self):
        m = lv.make_pinched_metric(n=97, R_construct=0.9)
        with pytest.raises(mt.MetricError, match="valid"):
            m.density(0.95 + 0j)
