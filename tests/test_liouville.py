import math
import sys
import threading

import numpy as np
import pytest

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
        def newton(*args, **kwargs):
            raise AssertionError("Newton called on refused data")

        monkeypatch.setattr(lv, "_newton", newton)
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

    def test_iteration_budget_error(self, monkeypatch):
        monkeypatch.setattr(lv, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(lv, "NEWTON_TOL", 1e-14)
        with pytest.raises(lv.LiouvilleError, match="residual history"):
            lv.solve(lv.poincare_problem(0.9), n=65)


#: centre and radius of the disk whose hyperbolic metric is the off-centre
#: exact solution
OFF_CENTRE, OFF_RADIUS = 0.3 + 0.2j, 1.5


def off_centre_log_density(z):
    """log of the curvature -4 density of |z - c| < r0, not radial on |z| < R."""
    return np.log(OFF_RADIUS / (OFF_RADIUS**2 - np.abs(z - OFF_CENTRE) ** 2))


def off_centre_problem(R=0.9):
    return lv.DirichletProblem(
        R=R, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
        boundary=lambda th: off_centre_log_density(R * np.exp(1j * th)))


def u_error(sol, exact):
    return float(np.max(np.abs(sol.u[sol.mask] - exact(solution_points(sol)))))


SIZES = (65, 97, 129, 257, 513)
#: max |e^u - 1/(1 - |z|^2)| on the flat problem, and max |u - u_exact| on
#: the off-centre one, of the fourth-order finite-difference solver that
#: preceded the collocation, at the sample nodes of each n in SIZES
FD_FLAT_DENSITY_ERROR = (1.87e-3, 5.41e-4, 2.22e-4, 2.06e-5, 1.59e-6)
FD_OFF_CENTRE_ERROR = (2.76e-5, 6.83e-6, 2.31e-6, 1.73e-7, 1.17e-8)


@pytest.fixture(scope="module")
def exact_solves():
    """{name: [(solution, true error of u)] over SIZES} for both exact problems."""
    return {name: [(sol, u_error(sol, exact)) for sol in
                   (lv.solve(problem, n=n) for n in SIZES)]
            for name, problem, exact in (
                ("flat", lv.poincare_problem(0.9), lv.hyperbolic_log_density),
                ("off-centre", off_centre_problem(), off_centre_log_density))}


class TestCollocation:
    def test_resolution_follows_n(self):
        assert [lv.resolution(n) for n in (64,) + SIZES] == [
            (23, 24), (23, 24), (27, 28), (29, 30), (35, 36), (41, 42)]
        assert lv.resolution(10**6) == (lv.N_MAX, lv.N_MAX + 1)

    def test_flat_error_falls_strictly_below_finite_differences(self, exact_solves):
        errors = [density_error_vs_hyperbolic(sol) for sol, _ in exact_solves["flat"]]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(e < fd for e, fd in zip(errors, FD_FLAT_DENSITY_ERROR))

    def test_off_centre_error_falls_strictly_below_finite_differences(self,
                                                                      exact_solves):
        errors = [err for _, err in exact_solves["off-centre"]]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(e < fd for e, fd in zip(errors, FD_OFF_CENTRE_ERROR))

    @pytest.mark.parametrize("name", ["flat", "off-centre"])
    def test_estimate_within_tenfold_of_the_true_error(self, exact_solves, name):
        for sol, err in exact_solves[name]:
            assert err / 10.0 <= sol.error_estimate <= 10.0 * err

    def test_newton_reaches_the_rounding_floor(self, exact_solves):
        for sols in exact_solves.values():
            for sol, _ in sols:
                assert sol.iterations <= 10
                assert sol.residual_history[-1] <= 1e-14

    def test_boundary_jump_refused_by_its_estimate(self):
        problem = lv.DirichletProblem(
            R=0.9, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
            boundary=lambda th: np.sign(np.cos(th)))
        with pytest.raises(lv.LiouvilleError, match=r"error estimate \S+ exceeds"):
            lv.solve(problem, n=129)

    def test_interpolant_keeps_node_values(self):
        # the node at -r and angle theta is the point at r and theta + pi
        sol = lv.solve(off_centre_problem(), n=65)
        N, M = sol.resolution
        r = np.cos(np.pi * np.arange(N + 1) / N)
        z = 0.9 * r[:, None] * np.exp(2j * np.pi * np.arange(M) / M)
        got = lv.solution_interpolator(sol).ev(z.real, z.imag)
        assert np.max(np.abs(got - sol.values)) <= 1e-14


def nodes(R, N, M):
    """The collocation nodes R x_j e^(i theta_k), j = 0..N, k = 0..M-1."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    return R * x[:, None] * np.exp(2j * np.pi * np.arange(M) / M)


def boundary_load(B, g):
    """The boundary columns B applied to data g at the angles theta_k; the
    second column's node is the circle point at theta_k + pi."""
    M = len(g)
    return (np.outer(B[:, 0], g) + np.outer(B[:, 1], np.roll(g, -(M // 2)))).ravel()


def quadratic(x, y):
    """Lap = 2 - 4 = -2."""
    return x**2 - 2.0 * y**2 + x * y + 3.0 * x


class TestChebyshev:
    @pytest.mark.parametrize("N", [5, 11, 23, 41, 61])
    def test_differentiates_polynomials_of_degree_n_exactly(self, N):
        x, D = lv._cheb(N)
        assert x[0] == 1.0 and x[N] == -1.0 and np.all(np.diff(x) < 0.0)
        assert np.min(np.abs(x)) > 0.0            # N odd: no node at the centre
        p = np.polynomial.chebyshev.Chebyshev(
            np.random.default_rng(N).standard_normal(N + 1))
        want = p.deriv()(x)
        assert np.max(np.abs(D @ p(x) - want)) <= 1e-13 * np.max(np.abs(want))


class TestLaplacian:
    @pytest.mark.parametrize("n", [64, 65, 97])
    @pytest.mark.parametrize("R", [0.5, 0.9])
    def test_exact_on_a_quadratic(self, R, n):
        N, M = lv.resolution(n)
        L, B, r = lv._laplacian(R, N, M)
        assert L.shape == ((N - 1) // 2 * M,) * 2 and B.shape == ((N - 1) // 2, 2)
        angles = 2.0 * np.pi * np.arange(M) / M
        pts = (R * r[:, None] * np.exp(1j * angles)).ravel()
        b = boundary_load(B, quadratic(R * np.cos(angles), R * np.sin(angles)))
        u = quadratic(pts.real, pts.imag)
        scale = np.abs(L).sum(axis=1) + np.repeat(np.abs(B).sum(axis=1), M)
        assert np.max(np.abs(L @ u + b + 2.0) / scale) <= 1e-14

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_annihilates_harmonic_polynomials(self, k, part):
        # Re z^k and Im z^k, of degree k <= N in r and k < M/2 in theta
        R = 0.9
        N, M = lv.resolution(65)
        L, B, r = lv._laplacian(R, N, M)
        angles = 2.0 * np.pi * np.arange(M) / M
        pts = (R * r[:, None] * np.exp(1j * angles)).ravel()
        take = getattr(np, part)
        b = boundary_load(B, take((R * np.exp(1j * angles)) ** k))
        scale = np.abs(L).sum(axis=1) + np.repeat(np.abs(B).sum(axis=1), M)
        assert np.max(np.abs(L @ take(pts**k) + b) / scale) <= 1e-14

    def test_spectral_accuracy_on_a_smooth_field(self):
        # u = e^x sin 2y, Lap u = -3 u: not a polynomial, so the error falls
        # with n rather than vanishing
        R, errors = 0.9, []
        for n in (65, 129, 257):
            N, M = lv.resolution(n)
            L, B, r = lv._laplacian(R, N, M)
            angles = 2.0 * np.pi * np.arange(M) / M
            pts = (R * r[:, None] * np.exp(1j * angles)).ravel()
            circle = R * np.exp(1j * angles)
            b = boundary_load(B, np.exp(circle.real) * np.sin(2.0 * circle.imag))
            u = np.exp(pts.real) * np.sin(2.0 * pts.imag)
            errors.append(np.max(np.abs(L @ u + b + 3.0 * u)))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-7


class TestPolarInterpolant:
    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reproduces_a_polynomial(self, seed, n):
        # total degree 6 in x and y: degree 6 in r, wavenumber 6 < M/2
        R = 0.9
        coef = np.random.default_rng(seed).standard_normal((7, 7))
        coef = np.triu(coef[::-1])[::-1]

        def poly(x, y):
            return np.polynomial.polynomial.polyval2d(x, y, coef)

        z = nodes(R, *lv.resolution(n))
        spline = lv.PolarInterpolant(R, poly(z.real, z.imag))
        rng = np.random.default_rng(10 + seed)
        w = np.append(R * np.sqrt(rng.uniform(0.0, 1.0, 1000))
                      * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000)), 0.0)
        assert np.max(np.abs(spline.ev(w.real, w.imag) - poly(w.real, w.imag))) <= 1e-13

    def test_shape_of_ev_is_that_of_its_points(self):
        spline = lv.solution_interpolator(lv.solve(lv.pinched_problem(0.9), n=65))
        x, y = np.random.default_rng(4).uniform(-0.6, 0.6, (2, 500))
        assert spline.ev(0.1, 0.2).shape == ()
        assert spline.ev(x[:, None], y[None, :4]).shape == (500, 4)
        assert spline.ev(x[:, None], y[None, :4])[7, 2] == pytest.approx(
            spline.ev(x[7], y[2]), abs=1e-15)

    def test_blocks_agree_with_one_pass(self, monkeypatch):
        sol = lv.solve(lv.pinched_problem(0.9), n=65)
        spline = lv.solution_interpolator(sol)
        X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
        whole = spline.ev(X, Y)
        monkeypatch.setattr(lv, "BLOCK", 7)
        assert np.max(np.abs(spline.ev(X, Y) - whole)) <= 1e-14
        assert np.array_equal(whole[sol.mask], sol.u[sol.mask])

    def test_outside_the_disk_takes_the_circle_value(self):
        sol = lv.solve(off_centre_problem(), n=65)
        spline = lv.solution_interpolator(sol)
        th = np.linspace(0.0, 2.0 * np.pi, 50)
        on_circle = spline.ev(0.9 * np.cos(th), 0.9 * np.sin(th))
        assert np.max(np.abs(spline.ev(1.3 * np.cos(th), 1.3 * np.sin(th))
                             - on_circle)) <= 1e-14
        # between the angles theta_k, the trigonometric interpolant of the data
        at_nodes = 2.0 * np.pi * np.arange(sol.resolution[1]) / sol.resolution[1]
        assert np.max(np.abs(spline.ev(0.9 * np.cos(at_nodes), 0.9 * np.sin(at_nodes))
                             - sol.problem.boundary(at_nodes))) <= 1e-13


def conjugate_off_centre_problem(R=0.9):
    """The off-centre problem reflected in the real axis."""
    centre = OFF_CENTRE.conjugate()
    return lv.DirichletProblem(
        R=R, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
        boundary=lambda th: np.log(OFF_RADIUS / (
            OFF_RADIUS**2 - np.abs(R * np.exp(1j * th) - centre) ** 2)))


PROBLEMS = {"flat": lambda: lv.poincare_problem(0.9),
            "pinched": lambda: lv.pinched_problem(0.9),
            "off-centre": off_centre_problem}


class TestSymmetry:
    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("name", ["flat", "pinched"])
    def test_radial_data_gives_a_radial_solution(self, name, n):
        sol = lv.solve(PROBLEMS[name](), n=n)
        assert np.max(np.abs(sol.values - sol.values[:, :1])) <= 1e-13
        u = np.where(sol.mask, sol.u, 0.0)
        for mirrored in (u.T, u[::-1], u[:, ::-1]):
            assert np.max(np.abs(u - mirrored)) <= 1e-13

    @pytest.mark.parametrize("n", [65, 97, 129])
    def test_conjugate_data_gives_the_conjugate_solution(self, n):
        sol = lv.solve(off_centre_problem(), n=n)
        conj = lv.solve(conjugate_off_centre_problem(), n=n)
        M = sol.resolution[1]
        assert np.max(np.abs(conj.values - sol.values[:, -np.arange(M) % M])) <= 1e-13


class TestNewton:
    @pytest.mark.parametrize("n", [65, 97, 129, 257])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_node_values_meet_the_collocation_equations(self, name, n):
        problem = PROBLEMS[name]()
        sol = lv.solve(problem, n=n)
        N, M = sol.resolution
        assert sol.values.shape == (N + 1, M)
        L, B, r = lv._laplacian(problem.R, N, M)
        z = nodes(problem.R, N, M)
        half = (N - 1) // 2
        # the first and last rows are the boundary data; a row at -r is the
        # row at r turned by pi
        angles = 2.0 * np.pi * np.arange(M) / M
        assert np.array_equal(sol.values[0], problem.boundary(angles))
        assert np.array_equal(sol.values[N], np.roll(sol.values[0], -(M // 2)))
        assert np.array_equal(sol.values[N - 1:half:-1],
                              np.roll(sol.values[1:half + 1], -(M // 2), axis=1))
        u = sol.values[1:half + 1].ravel()
        kv = problem.kappa(z[1:half + 1].ravel())
        res = L @ u + boundary_load(B, sol.values[0]) + kv * np.exp(2.0 * u)
        assert np.max(np.abs(res) / np.abs(L).sum(axis=1)) <= 1e-14

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_step_records(self, name):
        sol = lv.solve(PROBLEMS[name](), n=65)
        assert len(sol.residual_history) == sol.iterations + 1
        assert len(sol.step_sizes) == sol.iterations
        assert all(0.0 < s <= 1.0 for s in sol.step_sizes)
        assert sol.residual_history[-1] <= lv.NEWTON_TOL

    def test_stops_on_the_step_size(self, monkeypatch):
        full = lv.solve(lv.pinched_problem(0.9), n=65)
        monkeypatch.setattr(lv, "STEP_TOL", 1e-3)
        early = lv.solve(lv.pinched_problem(0.9), n=65)
        assert early.iterations < full.iterations
        assert early.residual_history == full.residual_history[:early.iterations + 1]


class TestEstimate:
    @pytest.mark.parametrize("n", SIZES)
    def test_boundary_jump_refused_at_every_n(self, n):
        problem = lv.DirichletProblem(
            R=0.9, kappa=lambda z: np.full(np.shape(z), -4.0), pinch=(-4.0, -4.0),
            boundary=lambda th: np.sign(np.cos(th)))
        N, M = lv.resolution(n)
        with pytest.raises(lv.LiouvilleError,
                           match=rf"exceeds \S+: the data is not resolved by "
                                 rf"N = {N}, M = {M}"):
            lv.solve(problem, n=n)

    @pytest.mark.parametrize("n", [65, 257])
    def test_estimate_over_the_tolerance_refused(self, n, monkeypatch):
        estimate = lv.solve(lv.pinched_problem(0.9), n=n).error_estimate
        monkeypatch.setattr(lv, "ESTIMATE_TOL", estimate / 2.0)
        with pytest.raises(lv.LiouvilleError,
                           match=rf"error estimate {estimate:.3e} exceeds"):
            lv.solve(lv.pinched_problem(0.9), n=n)

    def test_tails_of_a_low_degree_field_vanish(self):
        z = nodes(0.9, 23, 24)
        assert lv._tails(quadratic(z.real, z.imag) + np.real(z**9)) <= 1e-14

    @pytest.mark.parametrize("top", ["T_N-1", "T_N", "cos (M/2-1) theta",
                                     "cos M/2 theta"])
    def test_tails_read_each_top_coefficient(self, top):
        N, M = 23, 24
        x = np.cos(np.pi * np.arange(N + 1) / N)[:, None]
        theta = 2.0 * np.pi * np.arange(M) / M
        field = {"T_N-1": np.cos((N - 1) * np.arccos(x)) + 0.0 * theta,
                 "T_N": np.cos(N * np.arccos(x)) + 0.0 * theta,
                 "cos (M/2-1) theta": np.cos((M // 2 - 1) * theta) + 0.0 * x,
                 "cos M/2 theta": np.cos(M // 2 * theta) + 0.0 * x}[top]
        assert lv._tails(0.25 * field) == pytest.approx(0.25, abs=1e-14)


class TestIndependence:
    def test_repeated_solve_bitwise_equal(self):
        problem = lv.pinched_problem(0.9)
        first = lv.solve(problem, n=65)
        lv.solve(lv.poincare_problem(0.8), n=97)
        again = lv.solve(problem, n=65)
        assert np.array_equal(first.u, again.u, equal_nan=True)
        assert np.array_equal(first.values, again.values)
        assert first.residual_history == again.residual_history

    def test_solution_arrays_are_its_own(self):
        problem = lv.pinched_problem(0.9)
        first = lv.solve(problem, n=65)
        before = first.u.copy()
        for arr in (first.xs, first.ys, first.u, first.values):
            arr[...] = 0.0
        first.mask[...] = False
        second = lv.solve(problem, n=65)
        assert np.array_equal(second.u, before, equal_nan=True)
        assert second.mask.any() and second.xs[1] - second.xs[0] > 0.0

    def test_threads_give_the_sequential_solutions(self):
        problems = [lv.poincare_problem(0.9), lv.pinched_problem(0.9)] * 2
        sequential = [lv.solve(p, n=65).u for p in problems[:2]] * 2
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
        for got, want in zip(results, sequential):
            assert np.array_equal(got, want, equal_nan=True)

    def test_report_independent_of_earlier_solves(self, tmp_path):
        text = "command = liouville-solve\nkappa = pinched-5\nn = 97\nout = lv.json\n"
        assert cli.run(cli.parse_config(text), out_dir=tmp_path / "a") == 0
        lv.make_pinched_metric(n=129)
        assert cli.run(cli.parse_config(text), out_dir=tmp_path / "b") == 0
        assert ((tmp_path / "a" / "lv.json").read_bytes()
                == (tmp_path / "b" / "lv.json").read_bytes())


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
