import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskrig import holomap as hm
from diskrig import metric as mt
from diskrig import sequences as sq

P = mt.poincare()

inner_points = st.complex_numbers(max_magnitude=0.8, allow_infinity=False,
                                  allow_nan=False)


class TestPoincare:
    def test_values(self):
        assert float(P.density(0j)) == 1.0
        assert float(P.density(0.5 + 0j)) == pytest.approx(4.0 / 3.0)

    def test_exact_curvature(self):
        for z in (0j, 0.3 + 0.2j, -0.7j):
            assert float(mt.curvature_grid(P, z)) == -4.0


class TestPullback:
    def test_identity_leaves_density(self):
        pb = mt.pullback(hm.Identity(), P)
        zs = np.array([0.1 + 0.2j, -0.5j, 0.7 + 0j])
        assert np.allclose(pb.density(zs), P.density(zs), atol=1e-15)

    def test_square_map(self):
        pb = mt.pullback(hm.Monomial(2), P)
        z = 0.5 + 0j
        # direct substitution: 2|z| / (1 - |z|^4)
        assert float(pb.density(z)) == pytest.approx(2 * 0.5 / (1 - 0.5**4))
        assert len(pb.zeros) == 1
        assert pb.zeros[0].location == pytest.approx(0.0, abs=1e-12)
        assert pb.zeros[0].order == pytest.approx(1.0)

    def test_automorphism_invariance(self):
        pb = mt.pullback(hm.Automorphism(0.4 - 0.3j, 0.9), P)
        zs = np.array([0.1 + 0.2j, -0.5j, 0.7 + 0j, 0.05 - 0.85j])
        assert np.allclose(pb.density(zs), P.density(zs), atol=1e-12)
        assert pb.zeros == ()

    def test_constant_rejected(self):
        with pytest.raises(mt.MetricError):
            mt.pullback(hm.Const(0.2), P)

    def test_preimage_zero_order(self):
        # pulling the extremal zero of order 1 at 0 back under z^2 puts a
        # zero of order 2*1 + 1 = 3 at the origin
        pb = mt.pullback(hm.Monomial(2), mt.mu_max(1.0))
        assert len(pb.zeros) == 1
        assert pb.zeros[0].order == pytest.approx(3.0)

    @given(st.sampled_from([hm.Monomial(2), hm.Automorphism(0.3 + 0.2j),
                            hm.Blaschke((0.2j, -0.3))]),
           st.sampled_from([hm.Automorphism(-0.2 + 0.5j), hm.Monomial(3)]),
           inner_points)
    @settings(max_examples=40, deadline=None)
    def test_functoriality(self, f, g, z):
        lhs = mt.pullback(hm.Compose(f, g), P)
        rhs = mt.pullback(g, mt.pullback(f, P))
        assert float(lhs.density(z)) == pytest.approx(float(rhs.density(z)),
                                                      rel=1e-12, abs=1e-12)


class TestMuMax:
    def test_value(self):
        assert float(mt.mu_max(1.0).density(0.5 + 0j)) == \
            pytest.approx(2 * 0.5 / (1 - 0.5**4))

    def test_coincides_with_square_pullback(self):
        rng = np.random.default_rng(11)
        pb = mt.pullback(hm.Monomial(2), P)
        mm = mt.mu_max(1.0)
        pts = rng.uniform(-0.65, 0.65, 100) + 1j * rng.uniform(-0.65, 0.65, 100)
        assert np.allclose(pb.density(pts), mm.density(pts), atol=1e-12)

    def test_numeric_curvature_minus_four(self):
        mm = mt.mu_max(1.0).without_exact_curvature()
        assert float(mt.curvature_grid(mm, 0.3 + 0.2j)) == pytest.approx(-4.0, abs=1e-5)

    def test_invalid_order(self):
        with pytest.raises(mt.MetricError):
            mt.mu_max(0.0)


class TestRefusedFields:
    @pytest.mark.parametrize("order", [0.0, -1.0, math.nan, math.inf])
    def test_zero_order(self, order):
        with pytest.raises(mt.MetricError, match="finite and positive"):
            mt.ZeroRecord(0.1j, order)

    @pytest.mark.parametrize("location", [1.0, complex(math.nan, 0.0),
                                          complex(0.0, math.inf)])
    def test_zero_location(self, location):
        with pytest.raises(mt.MetricError, match="must lie inside the disk"):
            mt.ZeroRecord(location, 1.0)

    @pytest.mark.parametrize("pinch", [(-4.0, -5.0), (math.nan, -4.0),
                                       (-4.0, math.nan), (math.nan, math.nan)])
    def test_pinch(self, pinch):
        with pytest.raises(mt.MetricError, match="pinch"):
            mt.Pseudometric(P.density, pinch=pinch)

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_domain_radius(self, radius):
        with pytest.raises(mt.MetricError, match="domain radius"):
            mt.Pseudometric(P.density, domain_radius=radius)


class TestScaleAndWeight:
    def test_scale_identity(self):
        m = mt.scale(1.0, P)
        assert float(m.density(0.3j)) == float(P.density(0.3j))

    def test_scaled_curvature(self):
        m = mt.scale(0.5, P)
        assert float(mt.curvature_grid(m, 0.2 + 0.1j)) == -16.0

    def test_weight_value(self):
        # member 3 of the weighted family: s(z) = -1 - 1/6 + (|z|^2 + 1/6)^(1/3)
        m = sq.weighted_family(3)
        assert float(m.density(0j)) == pytest.approx(
            math.exp(-1 - 1 / 6 + (1 / 6) ** (1 / 3)))

    def test_invalid_scale(self):
        with pytest.raises(mt.MetricError):
            mt.scale(1.5, P)


class CountingMap:
    """A map that counts the points its value is taken at (not a HoloMap
    subclass, which the node tests enumerate)."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def jet(self, z):
        self.points += np.size(z)
        return self.f.jet(z)

    def eval(self, z):
        return self.jet(z)[0]

    def rational(self):
        return self.f.rational()


ZS = np.array([0.0, 0.3 - 0.2j, -0.55j, 0.1 + 0.7j])


class TestConstantCurvature:
    """Pullbacks and scalings of a constant-curvature metric carry the
    constant: they take no map value, and give the composed bits."""

    @pytest.mark.parametrize("base", [P, mt.mu_max(1.0), mt.scale(0.7, P)],
                             ids=["poincare", "mu_max", "scale"])
    @pytest.mark.parametrize("z", [ZS, ZS[1]], ids=["array", "scalar"])
    def test_pullback_takes_no_map_value(self, base, z):
        f = CountingMap(hm.Blaschke((0.3 + 0.2j, -0.4j), 0.5))
        pb = mt.pullback(f, base)
        f.points = 0
        got = pb.curvature(z)
        assert f.points == 0
        composed = base.curvature(f.f.eval(z))
        assert np.array_equal(got, composed) and np.shape(got) == np.shape(composed)

    @pytest.mark.parametrize("t", [0.3, 0.7, 1.0])
    def test_scale_of_a_pullback_divides_the_constant(self, t):
        f = CountingMap(hm.Monomial(2))
        g = CountingMap(hm.Automorphism(0.4 - 0.3j, 0.9))
        nested = mt.scale(t, mt.pullback(g, mt.scale(0.8, mt.pullback(f, P))))
        f.points = g.points = 0
        got = nested.curvature(ZS)
        assert f.points == 0 and g.points == 0
        assert np.array_equal(got, np.full(ZS.shape, -4.0) / 0.8**2 / t**2)
        assert mt.curvature_grid(nested, ZS).tolist() == got.tolist()

    def test_pinch_alone_is_not_a_constant(self):
        # a provider that is not the constant one is composed, whatever
        # the pinch bounds declare
        base = mt.Pseudometric(density=P.density, curvature=lambda z: -4.0 - 0.0 * np.abs(z),
                               pinch=(-4.0, -4.0), name="declared")
        f = CountingMap(hm.Monomial(2))
        pb = mt.scale(0.5, mt.pullback(f, base))
        f.points = 0
        assert np.array_equal(pb.curvature(ZS), np.full(ZS.shape, -16.0))
        assert f.points == ZS.size


class TestCurvature:
    @pytest.mark.parametrize("wrap", [lambda m: mt.pullback(hm.Monomial(2), m),
                                      lambda m: mt.scale(0.5, m)],
                             ids=["pullback", "scale"])
    def test_curvature_provider_takes_one_point(self, wrap):
        # a second argument once replaced the map or base curvature
        with pytest.raises(TypeError):
            wrap(P).curvature(0.3 + 0j, hm.Monomial(3))

    def test_pullback_exact_composition(self):
        pb = mt.pullback(hm.f_eps(1.0 / 12.0), P)
        assert float(mt.curvature_grid(pb, 0.4 + 0j)) == pytest.approx(-4.0, abs=1e-12)

    def test_pullback_numeric(self):
        pb = mt.pullback(hm.f_eps(1.0 / 12.0), P).without_exact_curvature()
        assert float(mt.curvature_grid(pb, 0.4 + 0j)) == pytest.approx(-4.0, abs=1e-4)

    def test_near_boundary_refused(self):
        with pytest.raises(mt.MetricError, match="near-boundary"):
            mt.curvature_grid(P.without_exact_curvature(), 0.9995 + 0j)

    def test_stencil_near_zero_refused(self):
        mm = mt.mu_max(0.5).without_exact_curvature()
        with pytest.raises(mt.MetricError, match="larger offset"):
            mt.curvature_grid(mm, 1e-4 + 0j)

    def test_regular_part_near_zero(self):
        # differencing log density itself near the zero of order 1/2 gave
        # -21.8 at 0.005 and -4.035 at 0.01
        mm = mt.mu_max(0.5).without_exact_curvature()
        for z in (0.005 + 0j, 0.01 + 0j):
            assert float(mt.curvature_grid(mm, z)) == pytest.approx(-4.0, abs=1e-4)
        # the unguarded grid path gave +12.0 on the square pullback at 0.05
        pb = mt.pullback(hm.Monomial(2), P).without_exact_curvature()
        vals = mt.curvature_grid(pb, np.array([0.05 + 0j, 0.05j, 0.3 - 0.2j]))
        assert vals == pytest.approx(-4.0, abs=1e-4)

    def test_roundoff_floor_refused(self):
        pb = mt.pullback(hm.Monomial(2), P).without_exact_curvature()
        with pytest.raises(mt.MetricError, match="roundoff floor"):
            mt.curvature_grid(pb, 0.0025 + 0j)
        # a grid is refused at its first point below the floor; the
        # unguarded grid path returned +1.7e4 and +1.0e7 here
        for z in (0.0156 + 0j, 0.005 + 0.001j):
            with pytest.raises(mt.MetricError, match="roundoff floor") as err:
                mt.curvature_grid(pb, np.array([0.3 + 0j, z]))
            assert f"at {z}" in str(err.value)
        pb = mt.pullback(hm.Blaschke((0.3, -0.2j)), P).without_exact_curvature()
        crit = pb.zeros[0].location
        with pytest.raises(mt.MetricError, match="roundoff floor"):
            mt.curvature_grid(pb, crit + 0.0025)

    def test_unsettled_value_refused(self):
        # the regular part of mu_max(1/2) contains -log(1 - |z|^3), which
        # is not smooth at its zero
        mm = mt.mu_max(0.5).without_exact_curvature()
        with pytest.raises(mt.MetricError, match="does not settle"):
            mt.curvature_grid(mm, 0.003 + 0j)

    @given(st.sampled_from([hm.Monomial(2), hm.Automorphism(0.4j),
                            hm.Blaschke((0.3, -0.2j))]),
           inner_points)
    @example(hm.Monomial(2), 0.015625 + 0j)
    @example(hm.Monomial(2), 0.005 + 0.001j)
    @settings(max_examples=30, deadline=None)
    def test_pullback_invariance(self, f, z):
        # curvature of a pullback at z equals the base curvature at f(z)
        pb = mt.pullback(f, P).without_exact_curvature()
        try:
            val = float(mt.curvature_grid(pb, z))
        except mt.MetricError:
            return
        assert val == pytest.approx(-4.0, abs=1e-4)


class TestQuotient:
    def test_equal_metrics(self):
        assert mt.quotient(P, P, 0.4 + 0.3j) == pytest.approx(1.0)

    def test_shared_zero_limit(self):
        pb = mt.pullback(hm.Monomial(2), P)
        assert mt.quotient(pb, mt.mu_max(1.0), 0j) == pytest.approx(1.0, abs=1e-8)

    def test_scaled(self):
        m = mt.scale(0.9, P)
        assert mt.quotient(m, P, 0.22 - 0.5j) == pytest.approx(0.9)

    def test_strictly_deeper_zero_gives_zero(self):
        lam = mt.pullback(hm.Monomial(2), mt.mu_max(1.0))   # order 3 at 0
        assert mt.quotient(lam, mt.mu_max(1.0), 0j) == 0.0

    def test_not_dominated_raises(self):
        with pytest.raises(mt.DominationError, match="not dominated"):
            mt.quotient(P, mt.mu_max(1.0), 0.3 + 0j)

    def test_array_input(self):
        pb = mt.pullback(hm.Monomial(2), P)
        pts = np.array([0j, 0.5 + 0j, 0.3j])
        q = mt.quotient(pb, mt.mu_max(1.0), pts)
        assert q.shape == pts.shape
        assert q[0] == pytest.approx(1.0, abs=1e-8)
        assert q[1] == pytest.approx(1.0)


class TestZeroOrder:
    def test_extremal_orders(self):
        assert mt.zero_order(mt.mu_max(1.0), 0j) == pytest.approx(1.0, abs=1e-3)
        assert mt.zero_order(mt.mu_max(0.37), 0j) == pytest.approx(0.37, abs=1e-3)

    def test_positive_density_gives_zero(self):
        assert mt.zero_order(P, 0.3 + 0.1j) == 0.0

    @given(st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_matches_critical_multiplicity(self, k):
        # z^(k+1) has a critical point of multiplicity k at the origin
        pb = mt.pullback(hm.Monomial(k + 1), P)
        assert mt.zero_order(pb, 0j) == pytest.approx(float(k), abs=1e-3)


class TestDomination:
    def test_square_pullback_under_hyperbolic(self):
        rep = mt.check_domination(mt.pullback(hm.Monomial(2), P), P)
        assert rep.passed

    def test_oversized_quotient_fails(self):
        rep = mt.check_domination(P, mt.scale(0.9, P))
        assert not rep.passed
        assert rep.quotient_violations

    def test_finite_difference_domination_off_origin_zeros(self):
        # the unguarded grid curvature reported 9 false violations here
        lam = mt.pullback(hm.Blaschke((0.3 + 0.2j, -0.4j)), P)
        rep = mt.check_domination(lam.without_exact_curvature(), P)
        assert rep.passed

    def test_cubic_family_dominated(self):
        rep = mt.check_domination(mt.pullback(hm.f_eps(1.0 / 12.0), P), P)
        assert rep.passed

    def test_ahlfors_bound_sampled(self):
        # every constructed density with curvature <= -4 stays below the
        # hyperbolic one
        grid = mt.default_disk_grid(r_max=0.93)
        hyp = np.asarray(P.density(grid), dtype=float)
        for lam in (mt.pullback(hm.Blaschke((0.4, -0.2j)), P),
                    mt.mu_max(0.7), mt.scale(0.35, P),
                    mt.pullback(hm.f_eps(0.2), P)):
            vals = np.asarray(lam.density(grid), dtype=float)
            assert np.all(vals <= hyp + 1e-9)
