import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from diskrig import cli
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


def factored_zero_problem():
    """Curvature -4 with a simple zero at 0: the density 2|z|/(1-|z|^4)."""
    R = 0.8
    logv = math.log(2.0 / (1.0 - R**4))
    return lv.DirichletProblem(
        R=R,
        kappa=lambda z: np.full(np.shape(z), -4.0) if np.ndim(z) else -4.0,
        pinch=(-4.0, -4.0),
        boundary=lambda th: np.full(np.shape(th), logv) if np.ndim(th) else logv,
        zero_factor=(0j, 1.0))


def direct_newton(problem, n, max_iter=40, tol=1e-10):
    """Reference: the same damped Newton iteration with a direct sparse
    solve of every Newton system.  Returns (u on the unknowns, iterations)."""
    grid = lv._grid(problem.R, n)
    xs, A, L5, pts = grid.xs, grid.A, grid.L5, grid.pts
    b, _, _ = lv._load(grid, problem)
    h = xs[1] - xs[0]
    kv = np.asarray(problem.kappa(pts), dtype=float)
    cap = lv.hyperbolic_log_density(pts) + lv.AHLFORS_MARGIN
    if problem.zero_factor is not None:
        xi, alpha = problem.zero_factor
        kv = kv * np.abs(pts - xi) ** (2.0 * alpha)
        cap = cap - alpha * np.log(np.maximum(np.abs(pts - xi), 1e-300))
    source_op = sp.identity(len(pts), format="csr") + (h**2 / 12.0) * L5
    row_scale = np.maximum(np.asarray(abs(A).sum(axis=1)).ravel(), 1.0)

    def residual(uv):
        return A @ uv + b + source_op @ (kv * np.exp(2.0 * uv))

    def scaled_norm(res):
        return float(np.max(np.abs(res) / row_scale))

    u = np.minimum(spla.spsolve(A.tocsc(), -b), cap)
    res = residual(u)
    res_norm = scaled_norm(res)
    it = 0
    while res_norm > tol and it < max_iter:
        it += 1
        jac = A + source_op @ sp.diags(2.0 * kv * np.exp(2.0 * u))
        delta = spla.spsolve(jac.tocsc(), -res)
        step = 1.0
        while step >= 1.0 / 64.0:
            trial = np.minimum(u + step * delta, cap)
            trial_res = residual(trial)
            if scaled_norm(trial_res) < res_norm:
                break
            step *= 0.5
        else:
            assert res_norm <= 1e-9, "reference Newton stalled"
            break
        u, res, res_norm = trial, trial_res, scaled_norm(trial_res)
    return u, it


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
        grid = lv._grid(R, n)
        xs, mask, A, L5, pts = grid.xs, grid.inside, grid.A, grid.L5, grid.pts
        b, _, _ = lv._load(grid, prob)
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

    @pytest.mark.parametrize("R, n", [(0.9, 64), (0.9, 65), (0.5, 128), (0.9, 257)])
    def test_layer_rows_meet_the_moment_equations(self, R, n):
        # along each axis, the weights w_j of a boundary-layer row on the
        # offsets x_j meet sum_j w_j x_j^p / p! = delta_p2 for 0 < p < the
        # stencil size; p = 0 holds for the row, whose node both axes share
        grid = lv._grid(R, n)
        compact = np.diff(grid.L5.indptr) > 0
        for k in np.flatnonzero(~compact):
            z0 = grid.pts[k]
            row = slice(grid.A.indptr[k], grid.A.indptr[k + 1])
            w = list(grid.A.data[row])
            d = list(grid.pts[grid.A.indices[row]] - z0)
            circle = grid.b_rows == k
            for angle, wb in zip(grid.b_angles[circle], grid.b_weights[circle]):
                # the circle point on the row's horizontal or vertical line
                c, s = R * math.cos(angle), R * math.sin(angle)
                if abs(s - z0.imag) < abs(c - z0.real):
                    d.append(math.copysign(math.sqrt(R**2 - z0.imag**2), c) - z0.real)
                else:
                    d.append(1j * (math.copysign(math.sqrt(R**2 - z0.real**2), s)
                                   - z0.imag))
                w.append(wb)
            w, d = np.array(w), np.array(d, dtype=complex)
            assert abs(w.sum()) <= 1e-12 * np.abs(w).sum()
            for along, across in ((d.real, d.imag), (d.imag, d.real)):
                axis = across == 0.0
                for p in range(1, np.count_nonzero(axis)):
                    terms = w[axis] * along[axis] ** p / math.factorial(p)
                    assert abs(terms.sum() - (p == 2)) <= 1e-12 * np.abs(terms).sum()


class TestInterpolant:
    def test_reproduces_a_bicubic_polynomial(self):
        xs = np.linspace(-0.9, 0.9, 65)
        coef = np.random.default_rng(3).standard_normal((4, 4))

        def poly(x, y):
            return np.polynomial.polynomial.polyval2d(x, y, coef)

        X, Y = np.meshgrid(xs, xs, indexing="ij")
        spline = lv.BicubicInterpolant(xs, poly(X, Y))
        x, y = np.random.default_rng(4).uniform(-0.9, 0.9, (2, 500))
        assert np.max(np.abs(spline.ev(x, y) - poly(x, y))) <= 1e-12
        # the shape of ev is that of x and y broadcast, 0-d for a point
        assert spline.ev(0.1, 0.2).shape == ()
        assert spline.ev(x[:, None], y[None, :4]).shape == (500, 4)

    def test_refuses_values_off_the_square_grid(self):
        xs = np.linspace(-0.9, 0.9, 65)
        with pytest.raises(lv.MetricError, match="65 x 65"):
            lv.BicubicInterpolant(xs, np.zeros((65, 64)))

    def test_matches_fitpack_on_the_pinched_solution(self):
        from scipy.interpolate import RectBivariateSpline

        sol = lv.solve(lv.pinched_problem(0.9), n=97)
        spline = lv.solution_interpolator(sol)
        fitpack = RectBivariateSpline(sol.xs, sol.ys, spline.U, kx=3, ky=3, s=0)
        X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
        x, y = np.random.default_rng(5).uniform(-0.9, 0.9, (2, 2000))
        for px, py in ((X.ravel(), Y.ravel()), (x, y)):
            assert np.max(np.abs(spline.ev(px, py) - fitpack.ev(px, py))) <= 1e-13
        # the exterior fill is the boundary value at each node's angle
        assert np.array_equal(spline.U[sol.mask], sol.u[sol.mask])
        assert np.all(spline.U[~sol.mask] == sol.problem.boundary(np.zeros(1)))


class TestSolve:
    def test_hyperbolic_recovery_coarse(self):
        sol = lv.solve(lv.poincare_problem(0.9), n=65)
        assert sol.residual_history[-1] <= lv.NEWTON_TOL
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
        sol = lv.solve(factored_zero_problem(), n=97)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa, boundary, match", [
        (-4.0, np.nan, r"boundary value nan at angle \S+ is not finite"),
        (np.inf, -math.log(1.0 - 0.81), r"curvature inf at node \S+ is not finite"),
        (4.0, -math.log(1.0 - 0.81),
         r"curvature 4\.0 at node \S+ lies outside the declared pinch \[-4, -4\]"),
    ])
    def test_bad_problem_data_refused_before_any_step(self, kappa, boundary, match,
                                                      monkeypatch):
        # kappa takes its value near 0 only; the boundary on the upper half
        def gmres(*args, **kwargs):
            raise AssertionError("GMRES called on refused data")

        monkeypatch.setattr(lv, "_gmres", gmres)
        problem = lv.DirichletProblem(
            R=0.9,
            kappa=lambda z: np.where(np.abs(z) < 0.1, kappa, -4.0),
            pinch=(-4.0, -4.0),
            boundary=lambda th: np.where(np.sin(th) > 0.0, boundary,
                                         -math.log(1.0 - 0.81)))
        with pytest.raises(mt.MetricError, match=match):
            lv.solve(problem, n=65)

    @pytest.mark.parametrize("pinch", [(-4.0, -5.0), (-3.0, -3.0),
                                       (np.nan, -4.0), (-5.0, np.nan)])
    def test_malformed_pinch_refused(self, pinch):
        with pytest.raises(mt.MetricError, match="pinch must satisfy"):
            lv.DirichletProblem(R=0.9, kappa=lv.radial_pinched_kappa, pinch=pinch,
                                boundary=lambda th: np.zeros(np.shape(th)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("zero_factor, match", [
        ((np.nan, 1.0), r"zero factor location must be finite, got nan"),
        ((complex(0.1, np.inf), 1.0), r"zero factor location must be finite, got \(0\.1\+infj\)"),
        ((0j, np.nan), r"zero factor order must be finite and nonnegative, got nan"),
        ((0j, np.inf), r"zero factor order must be finite and nonnegative, got inf"),
        ((0j, -1.0), r"zero factor order must be finite and nonnegative, got -1\.0"),
    ], ids=["nan-xi", "inf-xi", "nan-alpha", "inf-alpha", "negative-alpha"])
    def test_malformed_zero_factor_refused_before_any_step(self, zero_factor, match,
                                                           monkeypatch):
        def gmres(*args, **kwargs):
            raise AssertionError("GMRES called on refused data")

        monkeypatch.setattr(lv, "_gmres", gmres)
        with pytest.raises(mt.MetricError, match=match):
            lv.solve(lv.DirichletProblem(
                R=0.8, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
                boundary=lambda th: np.zeros(np.shape(th)), zero_factor=zero_factor),
                n=65)

    def test_iteration_budget_error(self, monkeypatch):
        monkeypatch.setattr(lv, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(lv, "NEWTON_TOL", 1e-14)
        with pytest.raises(lv.LiouvilleError, match="residual history"):
            lv.solve(lv.poincare_problem(0.9), n=65)


PROBLEMS = {"poincare": lambda: lv.poincare_problem(0.9),
            "pinched": lambda: lv.pinched_problem(0.9),
            "factored-zero": factored_zero_problem}


class TestNewtonKrylov:
    def test_one_factorization_and_no_direct_solve(self, monkeypatch):
        calls = {"splu": 0, "spsolve": 0}

        def counted(name):
            fn = getattr(spla, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lv.spla, name, counted(name))
        lv._grid_slot.clear()
        lv.solve(lv.poincare_problem(0.9), n=65)
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        assert sol.iterations >= 3
        assert calls == {"splu": 1, "spsolve": 0}

    @pytest.mark.parametrize("n", [65, 97])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_direct_newton(self, name, n, monkeypatch):
        # every Newton system solved to GMRES_RTOL: the Krylov machinery
        # against direct solves, step for step
        monkeypatch.setattr(lv, "ETA_MAX", lv.GMRES_RTOL)
        problem = PROBLEMS[name]()
        u_ref, it_ref = direct_newton(problem, n)
        sol = lv.solve(problem, n=n)
        assert sol.iterations == it_ref
        assert np.max(np.abs(sol.u[sol.mask] - u_ref)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_default_forcing_within_stopping_rule_bound(self, name):
        # the stopping rule leaves |F_j(u)| <= NEWTON_TOL row_scale_j, so to
        # first order |u - u_root|_i <= NEWTON_TOL sum_j |J^-1|_ij row_scale_j
        # with J the Jacobian at the root, whatever the forcing terms were
        problem, n = PROBLEMS[name](), 65
        u_root, _ = direct_newton(problem, n, tol=1e-14)
        sol = lv.solve(problem, n=n)
        grid = lv._grid(problem.R, n)
        _, kv, _ = lv._load(grid, problem)
        jac = grid.A + grid.source_op @ sp.diags(2.0 * kv * np.exp(2.0 * u_root))
        bound = lv.NEWTON_TOL * np.max(np.abs(np.linalg.inv(jac.toarray()))
                                       @ grid.row_scale)
        assert sol.residual_history[-1] <= lv.NEWTON_TOL
        assert np.max(np.abs(sol.u[sol.mask] - u_root)) <= bound

    def test_forcing_saves_krylov_iterations(self, monkeypatch):
        problem = lv.pinched_problem(0.9)
        forced = lv.solve(problem, n=97)
        monkeypatch.setattr(lv, "ETA_MAX", lv.GMRES_RTOL)
        fixed = lv.solve(problem, n=97)
        assert fixed.forcing == [lv.GMRES_RTOL] * fixed.iterations
        assert sum(forced.krylov_iterations) < sum(fixed.krylov_iterations)
        assert abs(forced.iterations - fixed.iterations) <= 1

    def test_step_and_krylov_records(self):
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        assert len(sol.step_sizes) == len(sol.residual_history) - 1
        assert len(sol.krylov_iterations) == sol.iterations
        assert all(0.0 < s <= 1.0 for s in sol.step_sizes)
        assert all(1 <= k <= lv.GMRES_RESTART for k in sol.krylov_iterations)
        assert len(sol.forcing) == sol.iterations
        assert sol.forcing[0] == lv.ETA_MAX
        # Eisenstat-Walker choice 2 from the recorded residuals
        hist = sol.residual_history
        for k in range(1, sol.iterations):
            want = min(max(0.9 * (hist[k] / hist[k - 1]) ** 2, lv.GMRES_RTOL),
                       lv.ETA_MAX)
            assert sol.forcing[k] == want

    def test_gmres_failure_names_the_step(self, monkeypatch):
        # a Krylov solve that returns delta = 0 and its true residual
        def failing(jac, a_inverse, rhs, rtol):
            return np.zeros_like(rhs), 1.0, 7

        monkeypatch.setattr(lv, "_gmres", failing)
        with pytest.raises(lv.LiouvilleError,
                           match=r"Newton step 1 .*relative residual 1\.000e\+00 "
                                 r"after 7 iterations, forcing term 1\.000e-01"):
            lv.solve(lv.poincare_problem(0.9), n=65)

    def test_exhausted_gmres_refused_with_its_true_residual(self, monkeypatch):
        # one cycle of one iteration cannot meet the first forcing term: the
        # refusal reports the residual of the step GMRES returned
        monkeypatch.setattr(lv, "GMRES_RESTART", 1)
        monkeypatch.setattr(lv, "GMRES_MAXITER", 1)
        problem = lv.poincare_problem(0.9)
        grid = lv._grid(0.9, 65)
        b, kv, cap = lv._load(grid, problem)
        u = np.minimum(grid.a_inverse(-b), cap)
        res = grid.A @ u + b + grid.source_op @ (kv * np.exp(2.0 * u))
        z = grid.a_inverse(-res)
        jz = grid.A @ z + grid.source_op @ (2.0 * kv * np.exp(2.0 * u) * z)
        # one iteration: the multiple c z that minimizes |J (c z) + res|
        c = -(jz @ res) / (jz @ jz)
        want = np.linalg.norm(c * jz + res) / np.linalg.norm(res)
        assert want > lv.ETA_MAX
        with pytest.raises(lv.LiouvilleError, match=r"Newton step 1 in 1 cycles: "
                           r"relative residual (\S+) after 1 iterations") as err:
            lv.solve(problem, n=65)
        got = float(err.value.args[0].split("relative residual ")[1].split()[0])
        assert got == pytest.approx(want, rel=1e-3)

    def test_gmres_runs_on_one_blas_thread(self, monkeypatch):
        controls = lv._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        before = [get() for get, _ in controls]
        seen = []
        gmres = lv._gmres

        def recording(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return gmres(*args, **kwargs)

        monkeypatch.setattr(lv, "_gmres", recording)
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        assert seen == [[1] * len(controls)] * sol.iterations
        assert [get() for get, _ in controls] == before

    def test_blas_threads_restored_after_gmres_failure(self, monkeypatch):
        controls = lv._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        before = [get() for get, _ in controls]
        monkeypatch.setattr(lv, "_gmres", lambda jac, a_inverse, rhs, rtol:
                            (np.zeros_like(rhs), 1.0, 1))
        with pytest.raises(lv.LiouvilleError):
            lv.solve(lv.poincare_problem(0.9), n=65)
        assert [get() for get, _ in controls] == before


def counting_factor_solves(monkeypatch, R, n):
    """Count the applications of the (R, n) grid's factor from now on."""
    grid = lv._grid(R, n)
    calls = []

    def counted(rhs):
        calls.append(1)
        return grid.a_inverse(rhs)

    monkeypatch.setitem(lv._grid_slot, (float(R), n),
                        grid._replace(a_inverse=counted))
    return calls


class TestFactorSolves:
    @pytest.mark.parametrize("n", [65, 97])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_one_factor_solve_per_krylov_iteration(self, name, n, monkeypatch):
        # the harmonic start, then one solve per GMRES iteration: no solve to
        # recover the step and none to check the residual
        problem = PROBLEMS[name]()
        calls = counting_factor_solves(monkeypatch, problem.R, n)
        sol = lv.solve(problem, n=n)
        assert sol.start == "harmonic" and sol.coarse_difference is None
        assert len(calls) == 1 + sum(sol.krylov_iterations)


class TestNestedStart:
    def test_flat_n257_starts_from_the_coarse_solve(self, monkeypatch):
        problem = lv.poincare_problem(0.9)
        coarse = lv.solve(problem, n=129)
        fine_calls = counting_factor_solves(monkeypatch, 0.9, 257)
        coarse_calls = counting_factor_solves(monkeypatch, 0.9, 129)
        sol = lv.solve(problem, n=257)
        assert sol.start == 129
        assert sol.iterations <= 3
        assert sol.residual_history[-1] <= lv.NEWTON_TOL
        # no farther from 1/(1 - |z|^2) than the harmonic start left it
        assert density_error_vs_hyperbolic(sol) <= 2.0633e-5
        assert len(fine_calls) == sum(sol.krylov_iterations)
        assert len(coarse_calls) == 1 + sum(coarse.krylov_iterations)
        # the difference to the coarse solution bounds the true error of u
        pts = solution_points(sol)
        error = np.max(np.abs(sol.u[sol.mask] - lv.hyperbolic_log_density(pts)))
        shared = sol.mask[::2, ::2] & coarse.mask
        assert sol.coarse_difference == np.max(np.abs(sol.u[::2, ::2][shared]
                                                      - coarse.u[shared]))
        assert sol.coarse_difference >= error

    @pytest.mark.parametrize("n", [129, 256])
    def test_smaller_or_even_grids_keep_the_harmonic_start(self, n):
        sol = lv.solve(lv.poincare_problem(0.9), n=n)
        assert sol.start == "harmonic" and sol.coarse_difference is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_data_refused_before_the_coarse_solve(self, monkeypatch):
        # only the node h of the fine grid, which the coarse grid lacks,
        # carries the bad curvature; no Newton step runs on either grid
        def gmres(*args, **kwargs):
            raise AssertionError("GMRES called on refused data")

        monkeypatch.setattr(lv, "_gmres", gmres)
        h = 1.8 / 256
        problem = lv.DirichletProblem(
            R=0.9, kappa=lambda z: np.where(np.abs(z - h) < 0.1 * h, np.inf, -4.0),
            pinch=(-4.0, -4.0),
            boundary=lambda th: np.full(np.shape(th), -math.log(1.0 - 0.81)))
        with pytest.raises(mt.MetricError, match=r"curvature inf at node \(0\.0070"):
            lv.solve(problem, n=257)


class TestGridCache:
    def test_cached_solve_bitwise_equal_to_fresh(self):
        problem = lv.pinched_problem(0.9)
        lv.solve(lv.poincare_problem(0.9), n=65)        # fills the slot
        cached = lv.solve(problem, n=65)
        lv._grid_slot.clear()
        fresh = lv.solve(problem, n=65)
        assert np.array_equal(cached.u, fresh.u, equal_nan=True)
        assert cached.residual_history == fresh.residual_history

    def test_two_most_recent_grids_kept_in_order(self):
        lv._grid_slot.clear()
        lv._grid(0.9, 65)
        lv._grid(0.9, 97)
        assert list(lv._grid_slot) == [(0.9, 65), (0.9, 97)]
        lv._grid(0.9, 65)                   # a reuse makes it the most recent
        assert list(lv._grid_slot) == [(0.9, 97), (0.9, 65)]
        lv._grid(0.8, 65)                   # a third grid drops the least recent
        assert list(lv._grid_slot) == [(0.9, 65), (0.8, 65)]

    def test_least_recent_dropped_before_a_third_is_built(self, monkeypatch):
        lv._grid_slot.clear()
        lv._grid(0.9, 65)
        lv._grid(0.9, 97)
        assemble, kept_while_building = lv._assemble, []

        def spied(*args):
            kept_while_building.append(list(lv._grid_slot))
            return assemble(*args)

        monkeypatch.setattr(lv, "_assemble", spied)
        lv._grid(0.8, 65)
        assert kept_while_building == [[(0.9, 97)]]
        assert list(lv._grid_slot) == [(0.9, 97), (0.8, 65)]

    def test_alternating_grids_factored_once_each(self, monkeypatch):
        lv._grid_slot.clear()
        splu, factorizations = spla.splu, []

        def counted(*args, **kwargs):
            factorizations.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(lv.spla, "splu", counted)
        for n in (65, 97, 65, 97):
            lv.solve(lv.pinched_problem(0.9), n=n)
        assert len(factorizations) == 2

    def test_rebuilt_grid_solves_bitwise_equal(self):
        problem = lv.pinched_problem(0.9)
        lv._grid_slot.clear()
        first = lv.solve(problem, n=65)
        lv._grid(0.9, 97)
        lv._grid(0.8, 65)
        assert (0.9, 65) not in lv._grid_slot
        rebuilt = lv.solve(problem, n=65)
        assert np.array_equal(first.u, rebuilt.u, equal_nan=True)
        assert first.residual_history == rebuilt.residual_history

    def test_solution_arrays_are_its_own(self):
        problem = lv.pinched_problem(0.9)
        first = lv.solve(problem, n=65)
        before = first.u.copy()
        for arr in (first.xs, first.ys, first.u):
            arr[...] = 0.0
        first.mask[...] = False
        second = lv.solve(problem, n=65)
        assert np.array_equal(second.u, before, equal_nan=True)
        assert second.mask.any() and second.xs[1] - second.xs[0] > 0.0
        grid = lv._grid(0.9, 65)
        with pytest.raises(ValueError, match="read-only"):
            grid.xs[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            grid.A.data[0] = 0.0

    def test_threads_share_one_factorization(self, monkeypatch):
        # four threads on two cores, flat and pinched on one grid, switching
        # often: the grid is built once and every u is the sequential one
        problems = [lv.poincare_problem(0.9), lv.pinched_problem(0.9)] * 2
        sequential = [lv.solve(p, n=65).u for p in problems[:2]] * 2
        lv._grid_slot.clear()
        splu, factorizations = spla.splu, []

        def counted(*args, **kwargs):
            factorizations.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(lv.spla, "splu", counted)
        results = [None] * len(problems)

        def work(k):
            results[k] = lv.solve(problems[k], n=65).u

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(factorizations) == 1
        for got, want in zip(results, sequential):
            assert np.array_equal(got, want, equal_nan=True)

    def test_report_independent_of_earlier_solves(self, tmp_path):
        text = "command = liouville-solve\nkappa = pinched-5\nn = 97\nout = lv.json\n"
        lv._grid_slot.clear()
        assert cli.run(cli.parse_config(text), out_dir=tmp_path / "a") == 0
        lv._grid_slot.clear()
        lv.make_pinched_metric(n=97)
        assert cli.run(cli.parse_config(text), out_dir=tmp_path / "b") == 0
        assert ((tmp_path / "a" / "lv.json").read_bytes()
                == (tmp_path / "b" / "lv.json").read_bytes())


class TestNestedDissection:
    @pytest.mark.parametrize("n", [64, 65, 97, 129])
    @pytest.mark.parametrize("R", [0.5, 0.9])
    def test_each_unknown_once(self, R, n):
        xs = np.linspace(-R, R, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        inside = X**2 + Y**2 < R**2 * (1.0 - 1e-14)
        p = lv._nested_dissection(inside)
        assert np.array_equal(np.sort(p), np.arange(np.count_nonzero(inside)))

    def test_grid_solve_inverts_A_in_original_order(self):
        lv._grid_slot.clear()
        grid = lv._grid(0.9, 97)
        r = np.random.default_rng(7).standard_normal(grid.A.shape[0])
        back = grid.A @ grid.a_inverse(r)
        assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)

    def test_less_fill_than_minimum_degree(self, monkeypatch):
        splu, factors = spla.splu, []

        def kept(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(lv.spla, "splu", kept)
        lv._grid_slot.clear()
        grid = lv._grid(0.9, 257)
        lv._grid_slot.clear()
        mmd = splu(grid.A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        (nd,) = factors
        assert nd.L.nnz + nd.U.nnz < mmd.L.nnz + mmd.U.nnz


class TestPinchedMetric:
    def test_flat_curvature_reproduces_hyperbolic(self):
        # the interpolated density the metric wraps, here of a constant -4 solve
        spline = lv.solution_interpolator(lv.solve(lv.poincare_problem(0.9), n=97))
        grid = mt.default_disk_grid(r_max=0.8)
        hyp = 1.0 / (1.0 - np.abs(grid) ** 2)
        assert np.max(np.abs(np.exp(spline.ev(grid.real, grid.imag)) - hyp)) <= 1e-3

    def test_sampled_curvature_within_pinch(self):
        m = lv.make_pinched_metric(n=97)
        numeric = m.without_exact_curvature()
        vals = mt.curvature_grid(numeric, np.array([0.2 + 0.1j, -0.4 + 0.3j,
                                                    0.5j, 0.3 - 0.3j]))
        assert np.all((-5.0 - 5e-3 <= vals) & (vals <= -4.0 + 5e-3))

    def test_pinch_sets_rate_exponent(self):
        m = lv.make_pinched_metric(n=97)
        c = -m.pinch[0]
        assert c / 2.0 == pytest.approx(2.5)

    def test_domain_enforced(self):
        m = lv.make_pinched_metric(n=97)
        with pytest.raises(mt.MetricError, match="valid"):
            m.density(0.95 + 0j)
