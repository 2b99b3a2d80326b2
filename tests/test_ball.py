import math
import warnings

import numpy as np
import pytest

from diskrig import ball as bl
from diskrig import holomap as hm
from diskrig.numerics import Verdict

e1_2 = np.array([1.0, 0.0], dtype=complex)
e1_3 = np.array([1.0, 0.0, 0.0], dtype=complex)


def random_interior(rng, n, r_max=0.9):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z * rng.uniform(0.0, r_max) / bl.norm(z)


class TestMetric:
    def test_center(self):
        assert bl.kobayashi_metric([0, 0], [0.3, 0.4]) == pytest.approx(0.5)

    def test_one_dimensional_reduction(self):
        assert bl.kobayashi_metric([0.5], [1.0]) == pytest.approx(4.0 / 3.0)

    def test_tangential_direction_through_slice_center(self):
        # oracle: the affine disc {(0.5, w)} has radius sqrt(0.75) and is a
        # geodesic centered at the base point, so the metric there is
        # 1/sqrt(0.75)
        assert bl.kobayashi_metric([0.5, 0.0], [0.0, 1.0]) == \
            pytest.approx(1.0 / math.sqrt(0.75))

    def test_interior_only(self):
        with pytest.raises(bl.BallError):
            bl.kobayashi_metric([1.0, 0.0], [1.0, 0.0])


class TestDistance:
    def test_radial_normalization(self):
        assert bl.kobayashi_distance([0, 0], [0.6, 0]) == \
            pytest.approx(math.atanh(0.6))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            z, w, u = (random_interior(rng, 3) for _ in range(3))
            dzw = bl.kobayashi_distance(z, w)
            assert dzw == pytest.approx(bl.kobayashi_distance(w, z), abs=1e-12)
            assert dzw <= bl.kobayashi_distance(z, u) + \
                bl.kobayashi_distance(u, w) + 1e-12

    @pytest.mark.parametrize("delta", [1e-8, 1e-10, 1e-13])
    def test_rim_distance_keeps_digits(self, delta):
        # K(x e1, -x e1) = log((1+x)/(1-x)); 1 - x is exact in floating
        # point, so the reference carries full precision
        x = 1.0 - delta
        z = np.array([x, 0.0])
        exact = math.log((1.0 + x) / (1.0 - x))
        assert bl.kobayashi_distance(z, -z) == pytest.approx(exact, rel=1e-12)

    def test_band_is_bounded_to_tiny_delta(self):
        # K(0, z) + (1/2) log delta(z) = (1/2) log(1 + |z|), inside [0, 0.7]
        for d in (1e-1, 1e-2, 1e-3, 1e-4):
            val = bl.distance_band((1.0 - d) * e1_3)
            assert 0.0 <= val <= 0.7

    def test_automorphism_invariance(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            A = bl.random_automorphism(n, rng)
            for _ in range(10):
                z, w = random_interior(rng, n), random_interior(rng, n)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                assert bl.kobayashi_distance(A.eval(z), A.eval(w)) == \
                    pytest.approx(bl.kobayashi_distance(z, w), abs=1e-10)
                assert bl.kobayashi_metric(A.eval(z), A.differential(z, v)) == \
                    pytest.approx(bl.kobayashi_metric(z, v), abs=1e-10,
                                  rel=1e-10)


class TestSplitting:
    def test_projection_kills_normal_direction(self):
        out = bl.normal_decomposition(e1_2, np.array([0.3 + 0.1j, 0.7j]))[1]
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(0.7j)

    def test_projection_of_base_point_vanishes(self):
        assert bl.norm(bl.normal_decomposition(e1_3, e1_3)[1]) == 0.0

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = random_interior(rng, 3, 0.8)
            if bl.norm(z) < 1e-3:
                continue
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            normal, tang = bl.normal_decomposition(z, v)
            assert abs(bl.herm(normal, tang)) <= 1e-12
            assert bl.norm(normal) ** 2 + bl.norm(tang) ** 2 == \
                pytest.approx(bl.norm(v) ** 2, rel=1e-12)

    def test_center_rejected(self):
        with pytest.raises(bl.BallError):
            bl.normal_decomposition(np.zeros(2), np.array([1.0, 0.0]))


class TestSlices:
    def test_diameter(self):
        sl = bl.geodesic_slice(e1_2, e1_2)
        assert np.allclose(sl(0.3 + 0j), [0.3, 0.0])

    def test_normalization_at_one(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            p = random_interior(rng, n, 1.0)
            p /= bl.norm(p)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            if abs(bl.herm(v, p)) < 0.1:
                v = v + p
            sl = bl.geodesic_slice(p, v)
            assert bl.norm(sl(1.0 + 0j) - p) <= 1e-12

    def test_isometry_identity(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for n in (2, 3):
            for _ in range(10):
                p = random_interior(rng, n, 1.0)
                p /= bl.norm(p)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                if abs(bl.herm(v, p)) < 0.1:
                    v = v + p
                sl = bl.geodesic_slice(p, v)
                for _ in range(10):
                    zeta = complex(rng.uniform(-0.7, 0.7),
                                   rng.uniform(-0.7, 0.7))
                    val = bl.kobayashi_metric(sl(zeta), sl.deriv(zeta))
                    worst = max(worst, abs(val * (1 - abs(zeta) ** 2) - 1.0))
        assert worst <= 1e-10

    def test_nontangential_approach(self):
        sl = bl.geodesic_slice(e1_2, np.array([1.0, 1.0]) / math.sqrt(2))
        ratios = [bl.boundary_distance(sl(t)) / (1.0 - t)
                  for t in (0.9, 0.99, 0.999)]
        assert all(0.25 <= r <= 4.0 for r in ratios)

    def test_tangential_direction_rejected(self):
        with pytest.raises(bl.BallError, match="tangential"):
            bl.geodesic_slice(e1_2, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("v", [[1.0, 0.0, 0.0], [1.0]])
    def test_direction_of_another_length_rejected(self, v):
        with pytest.raises(bl.BallError, match=f"lengths 2 and {len(v)}"):
            bl.geodesic_slice(e1_2, np.array(v))

    def test_slice_is_a_degree_one_disc(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        sl = bl.geodesic_slice(e1_2, v)
        assert isinstance(sl, bl.DiscMap)
        assert all(len(row) == 2 for row in sl.coeff_rows)
        zeta = np.array([0.3 - 0.2j, -0.5j])
        assert np.all(sl.deriv(zeta) == sl.deriv(0j))


class TestComparisonRatio:
    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
    def test_normal_and_tangential(self, delta):
        z = (1.0 - delta) * e1_2
        assert bl.metric_comparison_ratio(z, e1_2) == pytest.approx(1.0, abs=0.1)
        assert 0.5 <= bl.metric_comparison_ratio(z, np.array([0.0, 1.0])) <= 2.0
        mixed = np.array([1.0, 1.0]) / math.sqrt(2)
        assert 0.25 <= bl.metric_comparison_ratio(z, mixed) <= 4.0

    def test_normal_ratio_tends_to_one(self):
        vals = [bl.metric_comparison_ratio((1 - d) * e1_2, e1_2)
                for d in (0.1, 0.01, 0.001, 0.0001)]
        gaps = [abs(v - 1.0) for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_far_from_boundary_rejected(self):
        with pytest.raises(bl.BallError):
            bl.metric_comparison_ratio(0.5 * e1_2, e1_2)


class TestGeodesicCheck:
    def test_linear_disc(self):
        rep = bl.geodesic_boundary_check(bl.DiscMap(((0j, 1.0 + 0j), (0j,))))
        assert rep.verdict == "GEODESIC"

    def test_affine_slice(self):
        sl = bl.geodesic_slice(e1_2, np.array([1.0, 1.0]) / math.sqrt(2))
        rep = bl.geodesic_boundary_check(sl)
        assert rep.verdict == "GEODESIC"
        assert rep.rate.verdict is Verdict.VANISHES

    def test_squared_disc_rejected_with_linear_deficit(self):
        rep = bl.geodesic_boundary_check(bl.DiscMap(((0j, 0j, 1.0 + 0j), (0j,))))
        assert rep.verdict == "NOT_GEODESIC"
        assert rep.rate.verdict is Verdict.BOUNDED_NONZERO
        assert rep.rate.fitted_limit == pytest.approx(-0.25, rel=0.01)

    def test_escaping_disc_rejected(self):
        with pytest.raises(bl.BallError, match="escapes"):
            bl.geodesic_boundary_check(bl.DiscMap(((0j, 1.5 + 0j), (0j,))))


class TestRigiditySignature:
    def test_identity_all_pass(self):
        rep = bl.ball_rigidity_check(bl.parse_ball_map("1,0:1 | 0,1:1"), e1_2)
        assert rep.all_pass

    def test_automorphisms_all_pass_with_zero_deficit(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            A = bl.random_automorphism(2, rng)
            rep = bl.ball_rigidity_check(A, e1_2)
            assert rep.all_pass
            assert rep.metric_rate.verdict is Verdict.VANISHES

    def test_embedded_square_map(self):
        rep = bl.ball_rigidity_check(bl.embedded_power_map(2), e1_2)
        assert rep.tangential_cluster_ok
        assert rep.projection_bounded
        assert rep.metric_rate.verdict is Verdict.BOUNDED_NONZERO
        assert rep.metric_rate.fitted_limit == pytest.approx(-0.25, rel=0.1)
        assert not rep.all_pass

    def test_tangential_slice_direction_rejected(self):
        with pytest.raises(bl.BallError):
            bl.ball_rigidity_check(bl.parse_ball_map("1,0:1 | 0,1:1"),
                                   np.array([0.0, 1.0]))


class TestSchwarzPick:
    def test_decreasing_property_random_maps(self):
        rng = np.random.default_rng(8)
        maps = [bl.embedded_power_map(2),
                bl.PolyBallMap([bl.MultiPoly(2, {(0, 1): 1.0}),
                                bl.MultiPoly(2, {(1, 1): 1.0})]),
                bl.random_automorphism(2, rng)]
        for F in maps:
            ok, _ = bl.certify_ball_map(F)
            assert ok
            for _ in range(30):
                z = random_interior(rng, 2, 0.85)
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                lhs = bl.kobayashi_metric(F.eval(z), F.differential(z, v))
                rhs = bl.kobayashi_metric(z, v)
                assert lhs <= rhs + 1e-10

    def test_non_selfmap_detected(self):
        F = bl.PolyBallMap([bl.MultiPoly(2, {(1, 0): 2.0}),
                            bl.MultiPoly(2, {(0, 1): 0.0})])
        ok, mx = bl.certify_ball_map(F)
        assert not ok and mx > 1.5


class TestMapSerialization:
    def test_round_trip(self):
        F = bl.PolyBallMap([bl.MultiPoly(2, {(2, 0): 1.0, (0, 1): 0.5j}),
                            bl.MultiPoly(2, {(1, 1): -0.25})])
        text = bl.serialize_ball_map(F)
        G = bl.parse_ball_map(text)
        rng = np.random.default_rng(12)
        for _ in range(10):
            z = random_interior(rng, 2, 0.8)
            assert np.allclose(G.eval(z), F.eval(z), atol=1e-15)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.allclose(G.differential(z, v), F.differential(z, v),
                               atol=1e-14)

    def test_embedded_power_text(self):
        F = bl.parse_ball_map("2,0:1 |")
        z = np.array([0.4 + 0.1j, 0.2j])
        assert np.allclose(F.eval(z), [(0.4 + 0.1j) ** 2, 0.0])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(bl.BallError, match="components"):
            bl.parse_ball_map("2,0:1")
        with pytest.raises(bl.BallError, match="arities"):
            bl.parse_ball_map("2,0:1 | 0,0,1:1 | 1,0,0:1")


class TestOneDimensionalAgreement:
    def test_metric_matches_disk_density(self):
        from diskrig import metric as mt
        P = mt.poincare()
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.45, 0.45))
            if abs(z) >= 0.95:
                continue
            assert bl.kobayashi_metric([z], [1.0]) == \
                pytest.approx(float(P.density(z)), rel=1e-10)

    def test_distance_matches_automorphism_modulus(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            t = hm.Automorphism(z) if abs(z) < 1 else None
            moved = abs(complex(t.eval(w)))
            assert bl.kobayashi_distance([z], [w]) == \
                pytest.approx(math.atanh(min(moved, 1 - 1e-16)), abs=1e-10)

    def test_invariant_derivative_matches(self):
        f = hm.Monomial(2)
        for t in (0.3, 0.5, 0.7):
            z = np.array([t + 0j])
            v = np.array([1.0 + 0j])
            fz = np.array([complex(f.eval(t + 0j))])
            dfv = np.array([complex(f.jet(t + 0j)[1])])
            ratio = bl.kobayashi_metric(fz, dfv) / bl.kobayashi_metric(z, v)
            assert ratio == pytest.approx(hm.hyperbolic_derivative(f, t + 0j),
                                          rel=1e-12)


# -- one evaluation path for points and arrays ------------------------------

MAPS = [
    bl.parse_ball_map("1,0:1 | 0,1:1"),
    bl.embedded_power_map(3),
    bl.PolyBallMap([bl.MultiPoly(2, {(0, 1): 0.5, (2, 0): 0.25j}),
                    bl.MultiPoly(2, {(1, 1): 0.5, (0, 0): 0.1})]),
    bl.random_automorphism(2, np.random.default_rng(13)),
    bl.random_automorphism(3, np.random.default_rng(14)),
]


def batch(n, seed=21, shape=(4, 5)):
    """Points of shape shape + (n,) with |z| <= 0.8, and vectors beside them."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
    z *= rng.uniform(0.1, 0.8, size=shape + (1,)) / np.linalg.norm(z, axis=-1,
                                                                   keepdims=True)
    return z, rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))


def assert_pointwise(out, single, shape):
    """An array result against the results point by point, to 1e-15
    relative (numpy's array loops may round differently from its scalar
    arithmetic)."""
    assert out.shape == shape
    np.testing.assert_allclose(out, np.reshape(single, shape), rtol=1e-15, atol=0)


class TestArrayEvaluation:
    @pytest.mark.parametrize("F", MAPS, ids=lambda F: type(F).__name__)
    def test_map_matches_pointwise(self, F):
        z, v = batch(F.n_vars)
        pairs = list(zip(z.reshape(-1, F.n_vars), v.reshape(-1, F.n_vars)))
        assert_pointwise(F.eval(z), [F.eval(p) for p, _ in pairs], z.shape)
        assert_pointwise(F.differential(z, v),
                         [F.differential(p, u) for p, u in pairs], z.shape)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_matches_pointwise(self, n):
        z, v = batch(n)
        single = [bl.kobayashi_metric(p, u)
                  for p, u in zip(z.reshape(-1, n), v.reshape(-1, n))]
        assert_pointwise(bl.kobayashi_metric(z, v), single, z.shape[:-1])
        # one vector against many points broadcasts
        assert_pointwise(bl.kobayashi_metric(z, v[0, 0]),
                         [bl.kobayashi_metric(p, v[0, 0]) for p in z.reshape(-1, n)],
                         z.shape[:-1])

    @pytest.mark.parametrize("call", [
        lambda: MAPS[1].eval(np.zeros((4, 2))),
        lambda: MAPS[0].eval(0.3),
        lambda: MAPS[3].differential(np.zeros(2), np.ones(3)),
        lambda: bl.kobayashi_metric(np.zeros((4, 2)), np.ones((3, 2))),
        lambda: bl.normal_decomposition(e1_2, np.ones(3)),
    ], ids=["arity", "no-last-axis", "vector-length", "leading-axes",
            "projection-length"])
    def test_wrong_shape_is_ball_error(self, call):
        with pytest.raises(bl.BallError):
            call()

    @pytest.mark.parametrize("F", MAPS + [
        bl.PolyBallMap([bl.MultiPoly(2, {(1, 0): 2.0}), bl.MultiPoly(2, {})])],
        ids=lambda F: type(F).__name__)
    def test_certify_matches_pointwise_loop(self, F):
        certified, worst = bl.certify_ball_map(F, seed=5)
        rng = np.random.default_rng(5)
        loop_worst = 0.0
        for _ in range(2000):
            p = rng.normal(size=F.n_vars) + 1j * rng.normal(size=F.n_vars)
            p /= bl.norm(p)
            loop_worst = max(loop_worst, bl.norm(F.eval(p)))
        assert certified == (loop_worst <= 1.0 + bl.SELFMAP_SLACK)
        assert worst == pytest.approx(loop_worst, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_geometry_batch_equals_per_point_bit_for_bit(self, n):
        z, v = batch(n)
        w = z[::-1, ::-1] * 0.9
        rng = np.random.default_rng(22)
        # near-sphere points for the comparison ratio: 1e-4 <= delta <= 0.19
        near = z / bl.norm(z)[..., None] * (
            1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.19), size=z.shape[:-1] + (1,)))
        flat = [a.reshape(-1, n) for a in (z, w, v, near)]
        cases = [
            (bl.kobayashi_distance, (z, w), zip(flat[0], flat[1])),
            (bl.distance_band, (z,), zip(flat[0])),
            (bl.metric_comparison_ratio, (near, v), zip(flat[3], flat[2])),
        ]
        for fn, args, points in cases:
            out = fn(*args)
            assert out.shape == z.shape[:-1]
            single = [fn(*p) for p in points]
            assert all(isinstance(s, np.float64) for s in single)
            assert np.array_equal(out.ravel(), single), fn.__name__
        normal, tangential = bl.normal_decomposition(z, v)
        for k, (p, u) in enumerate(zip(flat[0], flat[2])):
            one = bl.normal_decomposition(p, u)
            assert np.array_equal(normal.reshape(-1, n)[k], one[0])
            assert np.array_equal(tangential.reshape(-1, n)[k], one[1])

    def test_batch_refusal_covers_every_point(self):
        z = np.array([[0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(bl.BallError):
            bl.kobayashi_distance(z, np.zeros(2))
        with pytest.raises(bl.BallError):
            bl.normal_decomposition(np.array([[0.5, 0.0], [0.0, 0.0]]), e1_2)
        with pytest.raises(bl.BallError):
            bl.metric_comparison_ratio(np.array([[0.95, 0.0], [0.5, 0.0]]), e1_2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, -np.inf)])
    def test_non_finite_entry_named(self, bad):
        z = np.array([[0.5, 0.0], [0.1, bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(bl.BallError, match=r"z\[1, 1\] = .* is not finite"):
                bl.kobayashi_metric(z, e1_2)
            with pytest.raises(bl.BallError, match=r"w\[1, 1\] = .* is not finite"):
                bl.kobayashi_distance(np.zeros(2), z)
            with pytest.raises(bl.BallError, match=r"v\[1\] = .* is not finite"):
                bl.geodesic_slice(e1_2, np.array([1.0, bad]))
            with pytest.raises(bl.BallError, match=r"a\[1\] = .* is not finite"):
                bl.BallAutomorphism(np.array([0.1, bad]))
            with pytest.raises(bl.BallError, match=r"'1,1:.*': coefficient .* is not finite"):
                bl.parse_ball_map(f"2,0:1 | 1,1:{complex(bad)}")
