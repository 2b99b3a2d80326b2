"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k>: PASS|FAIL`` line.  Two clauses
assert constants derived from the paper's examples rather than read off
a run:

  - criterion 2: for the cubic family f_eps(z) = z - eps (z - 1)^3 and
    s = 1 - t, the closed form gives f_eps^h(1 - s) = 1 - 2 eps s^2 +
    O(s^3), so the radial asymptote of 1 - f_eps^h is 2*eps.  The
    constant eps itself is the Burns-Krantz displacement
    |f(t) - t| = eps (1 - t)^3, not the constant of the invariant
    deficit.
  - criterion 6: the weighted family has density exp(-1 - 1/n! +
    (n!)^(-1/n)) at the origin.  Stirling's bound n! > sqrt(2 pi n)
    (n/e)^n gives (n!)^(-1/n) < e/n, so the gap to 1/e closes like 1/n:
    n times the gap rises through 0.909, 0.942, 0.963, 0.978, 0.987 at
    n = 10, 20, 40, 80, 160 (the gap at n = 20 is 4.7e-2).
"""

import math
import time

import numpy as np

from diskrig import ball as bl
from diskrig import greenpj as gp
from diskrig import harnack as hk
from diskrig import holomap as hm
from diskrig import liouville as lv
from diskrig import metric as mt
from diskrig import sequences as sq
from diskrig.numerics import PolarGrid, Verdict, dyadic_ts, fit_boundary_rate

P = mt.poincare()


def announce(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} ({elapsed:.2f}s) - {detail}",
          flush=True)


def test_criterion_1_schwarz_pick_exactness():
    t0 = time.perf_counter()
    fh = hm.hyperbolic_derivative(hm.Monomial(2), 0.5 + 0j)
    exact_ok = abs(fh - 0.8) <= 1e-12
    rep = hk.rigidity_scan(mt.pullback(hm.Monomial(2), P), P, 4.0)
    limit_ok = (rep.verdict is Verdict.BOUNDED_NONZERO
                and abs(rep.fitted_limit + 0.5) <= 0.02 * 0.5)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and limit_ok and elapsed < 1.0
    announce(1, ok, f"f^h(0.5) = {fh!r}; scan limit {rep.fitted_limit:.6f}",
             elapsed)
    assert exact_ok
    assert limit_ok
    assert elapsed < 1.0


def test_criterion_2_cubic_family_thresholds():
    t0 = time.perf_counter()
    clauses = {}

    ok_cert, _ = hm.certify_selfmap(hm.f_eps(0.25))
    bad_cert, _ = hm.certify_selfmap(hm.f_eps(0.26))
    clauses["selfmap flip 0.25/0.26"] = ok_cert and not bad_cert

    below = hm.critical_points(hm.f_eps(1.0 / 12.0 - 1e-4))
    root_ok = not below
    for eps in (1.0 / 12.0 + 1e-4, 0.11, 0.2):
        crit = hm.critical_points(hm.f_eps(eps))
        expected = 1.0 - 1.0 / math.sqrt(3.0 * eps)
        root_ok = root_ok and len(crit) == 1 and \
            abs(crit[0][0] - expected) <= 1e-9
    clauses["interior critical point appears exactly above 1/12"] = root_ok

    asymptote_ok = True
    fitted = {}
    for eps in (1.0 / 12.0, 1.0 / 20.0):
        ts = dyadic_ts()
        rep = fit_boundary_rate(
            ts, 1.0 - hm.hyperbolic_derivative(hm.f_eps(eps), ts + 0j), 2.0)
        fitted[eps] = rep.fitted_limit
        asymptote_ok = asymptote_ok and \
            abs(rep.fitted_limit - 2.0 * eps) <= 0.05 * (2.0 * eps)
    clauses["radial asymptote fits 2*eps within 5%"] = asymptote_ok

    elapsed = time.perf_counter() - t0
    ok = all(clauses.values()) and elapsed < 5.0
    detail = "; ".join(f"{name}: {'ok' if v else 'FAILED'}"
                       for name, v in clauses.items())
    announce(2, ok, detail + f"; fitted limits {fitted}", elapsed)
    assert elapsed < 5.0
    for name, value in clauses.items():
        assert value, (f"{name}: fitted limits {fitted}; the closed form "
                       f"1 - f_eps^h(1 - s) = 2 eps s^2 + O(s^3) is derived "
                       f"in README.md")


def test_criterion_3_harnack_suite():
    t0 = time.perf_counter()
    results = hk.run_catalog(liouville_n=97)
    catalog_ok = all(rep.passed for _, rep in results)
    cubic_ok = True
    for c in (4.0, 5.0, 8.0):
        for r in (0.3, 0.5, 0.7):
            rep = hk.cubic_check(c, r)
            cubic_ok = cubic_ok and rep.passed and \
                abs(rep.details["f_at_r2"] - (2 * c + c * (c - 4) * r**2)) <= 1e-9 \
                and abs(rep.details["f_at_1"] - (c - 2) * c) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = catalog_ok and cubic_ok and elapsed < 30.0
    worst = max(rep.max_violation for _, rep in results)
    announce(3, ok, f"catalog of {len(results)} pairs, worst violation "
                    f"{worst:.2e}; cubic identities exact", elapsed)
    assert catalog_ok
    assert cubic_ok
    assert elapsed < 30.0


def test_criterion_4_poisson_jensen():
    t0 = time.perf_counter()
    pairs = [(1.0, 0j), (1.0, 0.6 + 0j), (1.0, 0.3 + 0.4j),
             (0.8, 0j), (0.8, 0.5 + 0j), (0.8, -0.2 + 0.3j),
             (0.5, 0j), (0.5, 0.2 + 0j), (0.5, 0.1 - 0.3j)]
    mean_ok = True
    worst_mean = 0.0
    for R, z in pairs:
        err = abs(gp.green_mean(R, z) - (R**2 - abs(z) ** 2) / 4.0)
        worst_mean = max(worst_mean, err)
        mean_ok = mean_ok and err <= 1e-5

    cases = [(P, 0.9, 0.3 + 0j), (mt.pullback(hm.Monomial(2), P), 0.9, 0.4 + 0j),
             (mt.mu_max(0.5), 0.8, 0.5 + 0j)]
    resid_ok = True
    ratio_ok = True
    for lam, R, z in cases:
        dec = gp.pj_decompose(lam, R, z)
        resid_ok = resid_ok and dec.residual <= 1e-3
        zs = [z, z * np.exp(0.9j), 0.45 * z + 0.1]
        coarse = max(gp.pj_decompose(lam, R, w,
                                     grid=PolarGrid(0j, R, 60, 120)).residual
                     for w in zs)
        fine = max(gp.pj_decompose(lam, R, w,
                                   grid=PolarGrid(0j, R, 120, 240)).residual
                   for w in zs)
        ratio_ok = ratio_ok and coarse / fine >= 3.0
    elapsed = time.perf_counter() - t0
    ok = mean_ok and resid_ok and ratio_ok and elapsed < 60.0
    announce(4, ok, f"green mean worst {worst_mean:.2e}; residuals <= 1e-3; "
                    f"doubling ratio >= 3", elapsed)
    assert mean_ok
    assert resid_ok
    assert ratio_ok
    assert elapsed < 60.0


def test_criterion_5_liouville_solver():
    t0 = time.perf_counter()
    sol = lv.solve(lv.poincare_problem(0.9), n=128)
    X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    pts = (X + 1j * Y)[sol.mask]
    exact = 1.0 / (1.0 - np.abs(pts) ** 2)
    recovery = float(np.max(np.abs(np.exp(sol.u[sol.mask]) - exact)))
    recovery_ok = recovery <= 5e-4

    flat = lv.solve(lv.poincare_problem(0.9), n=97)
    pinched = lv.solve(lv.pinched_problem(0.9), n=97)
    ordering = float(np.max(pinched.u[pinched.mask] - flat.u[flat.mask]))
    ordering_ok = ordering <= 1e-6

    elapsed = time.perf_counter() - t0
    ok = recovery_ok and ordering_ok and elapsed < 120.0
    announce(5, ok, f"128x128 recovery {recovery:.2e} (<= 5e-4); "
                    f"comparison ordering {ordering:.2e} (<= 1e-6)", elapsed)
    assert recovery_ok
    assert ordering_ok
    assert elapsed < 120.0


def test_criterion_6_sequences():
    t0 = time.perf_counter()
    clauses = {}

    scaled_gaps = [n * (float(sq.weighted_family(n).density(0j)) - 1.0 / math.e)
                   for n in (10, 20, 40, 80, 160)]
    clauses["weighted family at origin: n*(v_n - 1/e) in [0.9, 1], "
            "nondecreasing for n=10..160"] = \
        all(0.9 <= g <= 1.0 for g in scaled_gaps) and \
        all(a <= b for a, b in zip(scaled_gaps, scaled_gaps[1:]))

    r = float(sq.weighted_family(64).density(0.8 + 0j)) / \
        float(P.density(0.8 + 0j))
    clauses["ratio at |z|=0.8 reaches 1 within 1e-2"] = abs(r - 1.0) <= 1e-2

    rep = sq.dichotomy_scan(sq.moving_zero_sequence(), P, 4.0, lambda n: 0j)
    orders_ok = True
    for n in (4, 16, 64):
        m = sq.moving_zero_family(n)
        est = mt.zero_order(m, m.zeros[0].location)
        orders_ok = orders_ok and abs(est - 1.0 / n) <= 1e-3
    clauses["moving-zero ladder verdict FADING_ZEROS"] = \
        rep.verdict == "FADING_ZEROS"
    clauses["estimated orders 1/n within 1e-3 up to n=64"] = orders_ok

    seq = sq.MetricSequence(lambda n: mt.mu_max(1.0 + 1.0 / n), "orders")
    track = sq.zero_rigidity_track(seq, mt.mu_max(1.0), lambda n: 0.5 + 0j, 0j,
                                   ns=(2, 4, 8, 16, 32, 64))
    clauses["order track |beta_64 - 1| <= 0.02"] = \
        abs(track.orders[-1] - 1.0) <= 0.02

    elapsed = time.perf_counter() - t0
    ok = all(clauses.values()) and elapsed < 60.0
    detail = "; ".join(f"{k}: {'ok' if v else 'FAILED'}"
                       for k, v in clauses.items())
    announce(6, ok, detail + "; n*(v_n - 1/e) = "
                             + ", ".join(f"{g:.4f}" for g in scaled_gaps),
             elapsed)
    assert elapsed < 60.0
    for name, value in clauses.items():
        assert value, (f"{name}: n*(v_n - 1/e) = {scaled_gaps}; the origin "
                       f"value approaches 1/e like 1/n, see README.md")


def test_criterion_7_ball():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_iso = 0.0
    for n in (2, 3):
        for _ in range(10):
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
            p /= bl.norm(p)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            if abs(bl.herm(v, p)) < 0.1:
                v = v + p
            sl = bl.geodesic_slice(p, v)
            for _ in range(10):
                zeta = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                val = bl.kobayashi_metric(sl(zeta), sl.deriv(zeta))
                worst_iso = max(worst_iso, abs(val * (1 - abs(zeta) ** 2) - 1))
    iso_ok = worst_iso <= 1e-10

    band_ok = all(abs(bl.distance_band((1.0 - d) * np.eye(3)[0].astype(complex)))
                  <= 0.7 for d in (1e-1, 1e-2, 1e-3, 1e-4))

    auto_ok = True
    for _ in range(5):
        A = bl.random_automorphism(2, rng)
        rep = bl.ball_rigidity_check(A, np.array([1.0, 0.0]))
        auto_ok = auto_ok and rep.all_pass and \
            rep.metric_rate.verdict is Verdict.VANISHES

    rep = bl.ball_rigidity_check(bl.embedded_power_map(2), np.array([1.0, 0.0]))
    square_ok = (rep.metric_rate.verdict is Verdict.BOUNDED_NONZERO
                 and abs(rep.metric_rate.fitted_limit + 0.25) <= 0.1 * 0.25)

    elapsed = time.perf_counter() - t0
    ok = iso_ok and band_ok and auto_ok and square_ok and elapsed < 30.0
    announce(7, ok, f"isometry worst {worst_iso:.1e}; band <= 0.7; "
                    f"5 automorphisms all-pass; square slope "
                    f"{rep.metric_rate.fitted_limit:.4f}", elapsed)
    assert iso_ok
    assert band_ok
    assert auto_ok
    assert square_ok
    assert elapsed < 30.0


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    failures = {}

    # Ahlfors-Schwarz bound: curvature <= -4 densities stay below the
    # hyperbolic one (1000 samples: random metric from a randomized pool
    # at a random point)
    count = 0
    bad = 0
    while count < 1000:
        kind = rng.integers(0, 4)
        if kind == 0:
            lam = mt.mu_max(float(rng.uniform(0.1, 3.0)))
        elif kind == 1:
            a = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
            lam = mt.pullback(hm.Blaschke((complex(a),)), P)
        elif kind == 2:
            lam = mt.scale(float(rng.uniform(0.1, 1.0)), P)
        else:
            lam = mt.pullback(hm.f_eps(float(rng.uniform(0.01, 0.25))), P)
        z = rng.uniform(-0.67, 0.67) + 1j * rng.uniform(-0.67, 0.67)
        count += 1
        if float(lam.density(z)) > float(P.density(z)) + 1e-9:
            bad += 1
    failures["ahlfors"] = bad

    # Schwarz-Pick bound for certified self-maps (1000 samples)
    bad = 0
    maps = [hm.Blaschke(tuple(rng.uniform(-0.55, 0.55, size=2)
                              + 1j * rng.uniform(-0.55, 0.55, size=2)))
            for _ in range(40)]
    maps += [hm.f_eps(e) for e in rng.uniform(0.01, 0.25, size=10)]
    for i in range(1000):
        f = maps[i % len(maps)]
        z = rng.uniform(-0.67, 0.67) + 1j * rng.uniform(-0.67, 0.67)
        if hm.hyperbolic_derivative(f, complex(z)) > 1.0 + 1e-12:
            bad += 1
    failures["schwarz-pick"] = bad

    # Hopf strictness: a dominated quotient strictly below one somewhere is
    # strictly below one at all 1000 sampled points
    bad = 0
    pts = (rng.uniform(-0.67, 0.67, 1000)
           + 1j * rng.uniform(-0.67, 0.67, 1000))
    for lam in (mt.scale(0.9, P), mt.pullback(hm.Monomial(2), P),
                mt.mu_max(0.5), mt.pullback(hm.f_eps(0.2), P)):
        q = np.asarray(mt.quotient(lam, P, pts), dtype=float)
        if np.any(q < 1.0 - 1e-6) and not np.all(q < 1.0):
            bad += 1
    failures["hopf"] = bad

    # dichotomy exclusivity: the scan's two classifying predicates (sup of
    # |q - 1| over the zero-augmented grid small, vs fading zero orders)
    # never hold together on the same family member (1000 draws): any
    # declared zero pins a grid point where the quotient is 0
    bad = 0
    base_grid = np.concatenate([[0j],
                                0.5 * np.exp(2j * np.pi * np.arange(6) / 6)])
    for _ in range(1000):
        if rng.uniform() < 0.5:
            lam = mt.scale(float(rng.uniform(0.5, 1.0)), P)
        else:
            alpha = float(rng.uniform(0.005, 0.9))
            zeta = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(zeta) < 1e-3:
                lam = mt.mu_max(alpha)
            else:
                lam = mt.pullback(hm.Automorphism(zeta), mt.mu_max(alpha))
        pts = np.concatenate([base_grid,
                              [r.location for r in lam.zeros]]) \
            if lam.zeros else base_grid
        q = np.asarray(mt.quotient(lam, P, pts), dtype=float)
        uniform_like = float(np.max(np.abs(q - 1.0))) <= 0.06
        fading_like = bool(lam.zeros) and \
            min(r.order for r in lam.zeros) <= 0.1
        if uniform_like and fading_like:
            bad += 1
    failures["dichotomy-exclusivity"] = bad

    # one-variable agreement between the ball closed forms and the disk
    # modules (1000 samples)
    bad = 0
    for _ in range(1000):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v) < 1e-3:
            continue
        lhs = bl.kobayashi_metric([z], [v])
        if abs(lhs - abs(v) * float(P.density(z))) > 1e-10 * lhs:
            bad += 1
        w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
        moved = abs(complex(hm.Automorphism(z).eval(w)))
        if abs(bl.kobayashi_distance([z], [w]) - math.atanh(moved)) > 1e-10:
            bad += 1
    failures["ball-disk-agreement"] = bad

    elapsed = time.perf_counter() - t0
    total = sum(failures.values())
    announce(8, total == 0, f"failure counts {failures}", elapsed)
    assert total == 0, failures
