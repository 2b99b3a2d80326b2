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
    def test_matches_direct_newton(self, name, n):
        problem = PROBLEMS[name]()
        u_ref, it_ref = direct_newton(problem, n)
        sol = lv.solve(problem, n=n)
        assert sol.iterations == it_ref
        assert np.max(np.abs(sol.u[sol.mask] - u_ref)) <= 1e-12

    def test_step_and_krylov_records(self):
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        assert len(sol.step_sizes) == len(sol.residual_history) - 1
        assert len(sol.krylov_iterations) == sol.iterations
        assert all(0.0 < s <= 1.0 for s in sol.step_sizes)
        assert all(1 <= k <= lv.GMRES_RESTART for k in sol.krylov_iterations)

    def test_gmres_failure_names_the_step(self, monkeypatch):
        def failing(op, rhs, **kwargs):
            return np.zeros_like(rhs), 1

        monkeypatch.setattr(lv.spla, "gmres", failing)
        with pytest.raises(lv.LiouvilleError,
                           match=r"Newton step 1 .*relative residual 1\.000e\+00"):
            lv.solve(lv.poincare_problem(0.9), n=65)

    def test_gmres_runs_on_one_blas_thread(self, monkeypatch):
        controls = lv._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        before = [get() for get, _ in controls]
        seen = []
        gmres = spla.gmres

        def recording(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return gmres(*args, **kwargs)

        monkeypatch.setattr(lv.spla, "gmres", recording)
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        assert seen == [[1] * len(controls)] * sol.iterations
        assert [get() for get, _ in controls] == before

    def test_blas_threads_restored_after_gmres_failure(self, monkeypatch):
        controls = lv._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        before = [get() for get, _ in controls]
        monkeypatch.setattr(lv.spla, "gmres",
                            lambda op, rhs, **kwargs: (np.zeros_like(rhs), 1))
        with pytest.raises(lv.LiouvilleError):
            lv.solve(lv.poincare_problem(0.9), n=65)
        assert [get() for get, _ in controls] == before


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
        back = grid.A @ (grid.a_inverse @ r)
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
