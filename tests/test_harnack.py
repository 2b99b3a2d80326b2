import dataclasses
import math

import numpy as np
import pytest

from diskrig import harnack as hk
from diskrig import holomap as hm
from diskrig import metric as mt
from diskrig.numerics import Verdict, dyadic_ts, fit_boundary_rate

P = mt.poincare()


class TestConstants:
    def test_annulus_constant_values(self):
        assert hk.harnack_constant(0.5) == pytest.approx(math.exp(-3.0))
        assert hk.harnack_constant(1.0 / math.sqrt(2.0)) == \
            pytest.approx(math.exp(-1.0))
        assert hk.harnack_constant(0.999999) == pytest.approx(1.0, abs=1e-5)

    def test_annulus_constant_domain(self):
        with pytest.raises(hk.HarnackError):
            hk.harnack_constant(1.0)


class TestBarrier:
    def test_vanishes_on_rim(self):
        assert hk.barrier_v(0.5, 4.0, 1.0 + 0j) == 0.0

    def test_direct_value(self):
        # (1 - 0.25)^2 * exp(0.75 / 0.25)
        assert hk.barrier_v(0.5, 4.0, 0.5 + 0j) == \
            pytest.approx(0.5625 * math.exp(3.0), rel=1e-12)

    def test_pde_inequality_on_annulus(self):
        rep = hk.verify_barrier_pde(0.5, 4.0)
        assert rep.passed

    def test_pde_inequality_higher_pinching(self):
        rep = hk.verify_barrier_pde(0.4, 6.0)
        assert rep.passed

    def test_barrier_matches_cubic(self):
        # cross-check: (Lap v / v)(1-|z|^2)^2 equals the cubic at |z|^2
        from diskrig.numerics import laplacian_fd
        r, c = 0.5, 5.0
        f = hk.barrier_cubic(c, r)
        for z in (0.55 + 0j, 0.3 + 0.6j, 0.8j):
            lap = laplacian_fd(lambda w: hk.barrier_v(r, c, w), z, 1e-4,
                               richardson=True)
            lhs = lap / hk.barrier_v(r, c, z) * (1 - abs(z) ** 2) ** 2
            assert lhs == pytest.approx(f(abs(z) ** 2), rel=1e-5)


class TestAnnulusCap:
    def test_r_at_or_beyond_the_cap_refused(self):
        # the annulus runs from r to 0.97 times the smaller domain radius,
        # here 0.485, so r = 0.5 leaves nothing to sample
        mu = dataclasses.replace(P, domain_radius=0.5)
        with pytest.raises(hk.HarnackError, match=r"r = 0\.5 .* cap 0\.485"):
            hk.check_harnack(P, mu, 4.0, 0.5)


class TestCubic:
    @pytest.mark.parametrize("c", [4.0, 5.0, 8.0])
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_endpoint_identities_exact(self, c, r):
        rep = hk.cubic_check(c, r)
        assert rep.passed
        assert rep.details["f_at_r2"] == pytest.approx(
            2 * c + c * (c - 4) * r**2, abs=1e-9)
        assert rep.details["f_at_1"] == pytest.approx((c - 2) * c, abs=1e-9)

    def test_c4_endpoints_are_eight(self):
        rep = hk.cubic_check(4.0, 0.62)
        assert rep.details["f_at_r2"] == pytest.approx(8.0)
        assert rep.details["f_at_1"] == pytest.approx(8.0)

    def test_minimum_bound_c6(self):
        rep = hk.cubic_check(6.0, 0.5)
        assert rep.details["min_on_interval"] >= 12.0


class TestCheckHarnack:
    def test_equal_metrics_both_sides_zero(self):
        rep = hk.check_harnack(P, P, 4.0, 0.5)
        assert rep.passed
        assert abs(rep.max_violation) <= 1e-12

    def test_pass_names_its_worst_point(self):
        # lhs - rhs = log 0.9 (1 - C (1-|z|^2)^2) with C < 1 is largest,
        # and still negative, on the inner circle |z| = r of the annulus
        rep = hk.check_harnack(mt.scale(0.9, P), P, 4.0, 0.5)
        coeff = hk.harnack_constant(0.5) / (1.0 - 0.5**2) ** 2
        assert rep.passed
        assert abs(rep.witness) == pytest.approx(0.5, abs=1e-12)
        assert rep.max_violation == pytest.approx(
            math.log(0.9) * (1.0 - coeff * (1.0 - 0.5**2) ** 2), rel=1e-12)

    def test_scaled(self):
        rep = hk.check_harnack(mt.scale(0.9, P), P, 4.0, 0.5)
        assert rep.passed

    def test_square_pullback(self):
        rep = hk.check_harnack(mt.pullback(hm.Monomial(2), P), P, 4.0, 0.5)
        assert rep.passed

    def test_full_catalog(self):
        for case in hk.build_catalog():
            rep = hk.check_harnack(case.lam, case.mu, case.c, case.r)
            assert rep.passed, case.name

    def test_broken_domination_trips_guard_first(self):
        base = mt.pullback(hm.Monomial(2), P)

        def bumped(z, _d=base.density):
            vals = np.asarray(_d(z), dtype=float)
            ring = (np.abs(z) > 0.85) & (np.abs(z) < 0.95)
            return np.where(ring, 1.01 * vals, vals)

        lam = dataclasses.replace(base, density=bumped)
        with pytest.raises(mt.MetricError, match="domination"):
            hk.check_harnack(lam, P, 4.0, 0.5)

    def test_needs_exact_curvature(self):
        with pytest.raises(hk.HarnackError, match="exact curvature"):
            hk.check_harnack(P, P.without_exact_curvature(), 4.0, 0.5)

    def test_hopf_dichotomy_sampled(self):
        # strict inequality somewhere forces it everywhere (off the zeros)
        grid = mt.default_disk_grid(r_max=0.9, avoid=[0j])
        for lam in (mt.scale(0.9, P), mt.pullback(hm.Monomial(2), P),
                    mt.mu_max(0.5), mt.pullback(hm.f_eps(0.2), P)):
            q = np.asarray(mt.quotient(lam, P, grid), dtype=float)
            if np.any(q < 1.0 - 1e-6):
                assert np.all(q < 1.0)


class TestGolusin:
    def test_hyperbolic_density_itself(self):
        rep = hk.check_golusin(P)
        assert rep.passed
        assert rep.details["lam0"] == pytest.approx(1.0)

    def test_square_pullback_meets_bound_with_equality(self):
        lam = mt.pullback(hm.Monomial(2), P)
        rep = hk.check_golusin(lam)
        assert rep.passed
        # lam(0) = 0 turns the bound into the invariant-derivative formula,
        # attained identically
        assert rep.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_automorphism_pullback(self):
        rep = hk.check_golusin(mt.pullback(hm.Automorphism(0.3), P))
        assert rep.passed

    def test_requires_constant_curvature(self):
        s = lambda z: -(np.abs(z) ** 2) * 0 - 0.1
        with pytest.raises(hk.HarnackError):
            hk.check_golusin(mt.exp_weight(s, lambda z: 0.0 * s(z), "weight")
                             .without_exact_curvature())


class TestRigidityScan:
    def test_square_map_rate(self):
        rep = hk.rigidity_scan(mt.pullback(hm.Monomial(2), P), P, 4.0)
        assert rep.verdict is Verdict.BOUNDED_NONZERO
        assert rep.fitted_limit == pytest.approx(-0.5, rel=0.02)

    def test_cubic_family_rate(self):
        # pointwise oracle for the scaled deficit at a clean dyadic point
        eps = 1.0 / 12.0
        f = hm.f_eps(eps)
        t0 = 1.0 - 2.0**-12
        oracle = (hm.hyperbolic_derivative(f, t0 + 0j) - 1.0) / (1.0 - t0) ** 2
        assert oracle == pytest.approx(-2.0 * eps, rel=1e-3)
        rep = hk.rigidity_scan(mt.pullback(f, P), P, 4.0)
        assert rep.verdict is Verdict.BOUNDED_NONZERO
        assert rep.fitted_limit == pytest.approx(-2.0 * eps, rel=0.02)

    def test_automorphism_vanishes(self):
        rep = hk.rigidity_scan(mt.pullback(hm.Automorphism(0.4 - 0.2j), P),
                               P, 4.0)
        assert rep.verdict is Verdict.VANISHES

    def test_rounding_noise_is_not_divergence(self):
        # the deficit of an automorphism is rounding noise over (1-t)^2; a
        # divergence test on the raw tail, not the noise-cut one, calls this
        # DIVERGES with a fitted limit of 8.3e-11
        f = hm.Blaschke((-0.648080352110346 + 0.2214859936577993j,),
                        0.739227338617312)
        rep = hk.rigidity_scan(mt.pullback(f, P), P, 4.0)
        assert abs(rep.fitted_limit) < 1e-9
        assert rep.verdict is Verdict.VANISHES

    def test_seeded_automorphisms_all_vanish(self):
        # degree-1 Blaschke products, zero area-uniform in |a| < 0.7 and
        # rotation uniform; a divergence test on the raw tail calls 12 of
        # these 1000 DIVERGES
        rng = np.random.default_rng(0)
        n = 1000
        zeros = 0.7 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        thetas = 2.0 * np.pi * rng.random(n)
        wrong = []
        for a, theta in zip(zeros, thetas):
            f = hm.Blaschke((complex(a),), float(theta))
            verdicts = (hk.rigidity_scan(mt.pullback(f, P), P, 4.0).verdict,
                        hk.boundary_schwarz_scan(f).verdict)
            if verdicts != (Verdict.VANISHES, Verdict.VANISHES):
                wrong.append((f, verdicts))
        assert wrong == []

    def test_vanishing_prediction_spot_checked(self):
        lam = mt.pullback(hm.Automorphism(0.4 - 0.2j), P)
        assert hk.rigidity_scan(lam, P, 4.0).verdict is Verdict.VANISHES
        spot = hk.identity_spot_check(lam, P)
        assert spot.passed
        # a genuinely different pair fails the spot check even though its
        # scan might look flat on a short ladder
        bad = hk.identity_spot_check(mt.scale(0.99, P), P)
        assert not bad.passed

    def test_boundary_schwarz_scan_matches(self):
        rep = hk.boundary_schwarz_scan(hm.Monomial(2))
        assert rep.fitted_limit == pytest.approx(-0.5, rel=0.02)


class TestBurnsKrantz:
    def test_identity_both_vanish(self):
        disp, inv = hk.burns_krantz_check(hm.Identity())
        assert disp.verdict is Verdict.VANISHES
        assert inv.verdict is Verdict.VANISHES

    def test_cubic_family_both_bounded(self):
        eps = 1.0 / 12.0
        disp, inv = hk.burns_krantz_check(hm.f_eps(eps))
        assert disp.verdict is Verdict.BOUNDED_NONZERO
        # |f(t) - t| = eps (1-t)^3 exactly on the radius
        assert disp.fitted_limit == pytest.approx(eps, rel=1e-6)
        assert inv.verdict is Verdict.BOUNDED_NONZERO

    def test_quartic_perturbation_scan(self):
        # scan c downward from 1/8 until the boundary certification passes;
        # the map z - c(1-z)^4 exceeds modulus 1 near z = -1 for every
        # usable c, so the scan bottoms out at the identity and both rates
        # vanish, which is the content of the cubic-order rigidity
        c = 1.0 / 8.0
        chosen = None
        while c > 1e-16:
            f = hm.Poly((-c, 1 + 4 * c, -6 * c, 4 * c, -c))
            if hm.certify_selfmap(f)[0]:
                chosen = f
                break
            c /= 2.0
        assert chosen is not None
        assert c < 1e-12   # only the (numerically) trivial member passes
        disp, inv = hk.burns_krantz_check(chosen)
        assert disp.verdict is Verdict.VANISHES
        assert inv.verdict is Verdict.VANISHES

    def test_non_selfmap_rejected(self):
        with pytest.raises(hk.HarnackError):
            hk.burns_krantz_check(hm.Scaled(1.5, hm.Identity()))

    def test_one_jet_per_ladder(self, monkeypatch):
        # the circle certification and one walk over the 17 ladder points,
        # which gives both rates exactly as the two separate walks did
        a = 0.3 + 0.4j
        f = hm.Automorphism(a, np.angle((1.0 - np.conj(a)) / (a - 1.0)))
        ts = dyadic_ts()
        separate = (fit_boundary_rate(ts, np.abs(f.eval(ts + 0j) - ts), 3.0),
                    hk.boundary_schwarz_scan(f))
        jet, shapes = hm.Automorphism.jet, []

        def counted(self, z):
            shapes.append(np.shape(z))
            return jet(self, z)

        monkeypatch.setattr(hm.Automorphism, "jet", counted)
        assert hk.burns_krantz_check(f) == separate
        assert shapes == [hm._CIRCLE.shape, ts.shape]

    def test_seeded_automorphisms_fixing_one(self):
        # e^{i theta} (a - z)/(1 - conj(a) z) fixes 1 when
        # e^{i theta} = (1 - conj(a))/(a - 1); its invariant derivative is
        # identically 1, so the second rate vanishes whatever the first does
        rng = np.random.default_rng(6)
        n = 300
        zeros = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        wrong = []
        for a in zeros:
            f = hm.Automorphism(a, np.angle((1.0 - np.conj(a)) / (a - 1.0)))
            assert abs(f.eval(1.0 + 0j) - 1.0) < 1e-12
            disp, inv = hk.burns_krantz_check(f)
            implied = disp.verdict is not Verdict.VANISHES or \
                inv.verdict is Verdict.VANISHES
            if inv.verdict is not Verdict.VANISHES or not implied:
                wrong.append((f, disp.verdict, inv.verdict))
        assert wrong == []
