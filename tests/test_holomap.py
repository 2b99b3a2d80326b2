import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrig import holomap as hm

# -- strategies --------------------------------------------------------------

inner_points = st.complex_numbers(max_magnitude=0.85, allow_infinity=False,
                                  allow_nan=False)


@st.composite
def leaf_maps(draw):
    kind = draw(st.sampled_from(["id", "mono", "auto", "blaschke", "poly"]))
    if kind == "id":
        return hm.Identity()
    if kind == "mono":
        return hm.Monomial(draw(st.integers(min_value=1, max_value=4)))
    if kind == "auto":
        a = draw(st.complex_numbers(max_magnitude=0.8, allow_infinity=False,
                                    allow_nan=False))
        return hm.Automorphism(a, draw(st.floats(0, 6.28)))
    if kind == "blaschke":
        zeros = draw(st.lists(st.complex_numbers(max_magnitude=0.7,
                                                 allow_infinity=False,
                                                 allow_nan=False),
                              min_size=1, max_size=3))
        return hm.Blaschke(tuple(zeros), draw(st.floats(0, 6.28)))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=0.3,
                                              allow_infinity=False,
                                              allow_nan=False),
                           min_size=1, max_size=4))
    return hm.Poly(tuple(coeffs))


@st.composite
def tree_maps(draw, depth=2):
    if depth == 0:
        return draw(leaf_maps())
    kind = draw(st.sampled_from(["leaf", "compose", "sum", "scale"]))
    if kind == "leaf":
        return draw(leaf_maps())
    if kind == "compose":
        outer = draw(tree_maps(depth=depth - 1))
        # keep the inner map disk-valued so evaluation stays in-domain
        inner = draw(st.sampled_from([
            hm.Automorphism(0.3 + 0.2j), hm.Monomial(2),
            hm.Scaled(0.5, hm.Identity())]))
        return hm.Compose(outer, inner)
    if kind == "sum":
        return hm.Sum(hm.Scaled(0.4, draw(tree_maps(depth=depth - 1))),
                      hm.Scaled(0.4, draw(tree_maps(depth=depth - 1))))
    return hm.Scaled(draw(st.complex_numbers(max_magnitude=1.5,
                                             allow_infinity=False,
                                             allow_nan=False)),
                     draw(tree_maps(depth=depth - 1)))


@st.composite
def certified_selfmaps(draw):
    """Maps guaranteed to send the disk into itself."""
    kind = draw(st.sampled_from(["blaschke", "auto", "scaled-blaschke",
                                 "cubic", "composed"]))
    if kind == "blaschke":
        zeros = draw(st.lists(st.complex_numbers(max_magnitude=0.7,
                                                 allow_infinity=False,
                                                 allow_nan=False),
                              min_size=1, max_size=3))
        return hm.Blaschke(tuple(zeros), draw(st.floats(0, 6.28)))
    if kind == "auto":
        a = draw(st.complex_numbers(max_magnitude=0.8, allow_infinity=False,
                                    allow_nan=False))
        return hm.Automorphism(a, draw(st.floats(0, 6.28)))
    if kind == "scaled-blaschke":
        c = draw(st.floats(min_value=0.05, max_value=1.0))
        return hm.Scaled(c, hm.Blaschke((draw(st.complex_numbers(
            max_magnitude=0.6, allow_infinity=False, allow_nan=False)),)))
    if kind == "cubic":
        return hm.f_eps(draw(st.floats(min_value=0.01, max_value=0.25)))
    return hm.Compose(hm.Blaschke((0.2 - 0.3j,)),
                      hm.Automorphism(draw(st.complex_numbers(
                          max_magnitude=0.7, allow_infinity=False,
                          allow_nan=False))))


def central_difference(f, z, h=1e-6):
    return (f.eval(z + h) - f.eval(z - h)) / (2.0 * h)


# -- evaluation and derivatives ----------------------------------------------

class TestEval:
    def test_identity(self):
        assert hm.Identity().eval(0.3j) == 0.3j

    def test_cubic_family_fixes_one(self):
        assert hm.f_eps(0.25).eval(1.0 + 0j) == pytest.approx(1.0)

    def test_double_zero_blaschke_is_square(self):
        b = hm.Blaschke((0j, 0j))
        zs = np.array([0.5 + 0j, 0.3 - 0.2j, -0.7j])
        assert np.allclose(b.eval(zs), zs**2, atol=1e-15)

    def test_automorphism_pole_raises(self):
        t = hm.Automorphism(0.5 + 0j)
        with pytest.raises(hm.HoloMapError, match="pole"):
            t.eval(2.0 + 0j)

    def test_rational_form_matches_eval(self):
        f = hm.Compose(hm.Blaschke((0.3 + 0.2j, -0.1j)), hm.Monomial(2))
        p, q = f.rational()
        for z in (0.4 + 0.1j, -0.2 + 0.6j, 0.05j):
            direct = complex(f.eval(z))
            rational = complex(np.polynomial.polynomial.polyval(z, p)
                               / np.polynomial.polynomial.polyval(z, q))
            assert direct == pytest.approx(rational, abs=1e-12)


class TestDerivative:
    def test_square(self):
        assert hm.Monomial(2).jet(0.5 + 0j)[1] == pytest.approx(1.0)

    def test_cubic_family_boundary_critical_point(self):
        # f'(z) = 1 - 3 eps (z-1)^2 vanishes at z = -1 exactly when eps = 1/12
        f = hm.f_eps(1.0 / 12.0)
        assert abs(f.jet(-1.0 + 0j)[1]) <= 1e-15

    def test_central_automorphism(self):
        assert hm.Automorphism(0j).jet(0j)[1] == pytest.approx(-1.0)

    @given(tree_maps(), inner_points)
    @settings(max_examples=60, deadline=None)
    def test_matches_central_differences(self, f, z):
        try:
            exact = complex(f.jet(z)[1])
        except hm.HoloMapError:
            return
        numeric = central_difference(f, z)
        assert exact == pytest.approx(numeric, rel=1e-5, abs=1e-5)

    @given(tree_maps(), st.sampled_from([hm.Automorphism(0.25 - 0.4j),
                                         hm.Monomial(3),
                                         hm.Scaled(0.6, hm.Identity())]),
           inner_points)
    @settings(max_examples=60, deadline=None)
    def test_chain_rule_exact(self, f, g, z):
        composed = hm.Compose(f, g)
        try:
            lhs = complex(composed.jet(z)[1])
            rhs = complex(f.jet(g.eval(z))[1]) * complex(g.jet(z)[1])
        except hm.HoloMapError:
            return
        assert lhs == rhs  # same tree operations, bit-for-bit
        numeric = central_difference(composed, z)
        assert lhs == pytest.approx(numeric, rel=1e-5, abs=2e-5)


# -- certification and the invariant derivative --------------------------------

class TestCertify:
    def test_cubic_threshold(self):
        ok, _ = hm.certify_selfmap(hm.f_eps(0.25))
        assert ok
        ok, mx = hm.certify_selfmap(hm.f_eps(0.26))
        assert not ok and mx > 1.0 + 1e-12

    def test_blaschke_boundary_modulus_one(self):
        ok, mx = hm.certify_selfmap(hm.Blaschke((0.5 + 0.1j, -0.3j, 0.2)))
        assert ok
        assert mx == pytest.approx(1.0, abs=1e-12)


class TestHyperbolicDerivative:
    def test_automorphism_is_isometry(self):
        t = hm.Automorphism(0.37 - 0.21j, 1.3)
        for z in (0j, 0.5 + 0.2j, -0.8j, 0.95 + 0j):
            assert hm.hyperbolic_derivative(t, z) == pytest.approx(1.0, abs=1e-12)

    def test_square_map_value(self):
        assert hm.hyperbolic_derivative(hm.Monomial(2), 0.5 + 0j) == \
            pytest.approx(0.8, abs=1e-12)

    def test_critical_point_gives_zero(self):
        assert hm.hyperbolic_derivative(hm.Monomial(2), 0j) == 0.0

    def test_non_selfmap_rejected(self):
        f = hm.Scaled(3.0, hm.Identity())
        with pytest.raises(hm.HoloMapError, match="not a self-map"):
            hm.hyperbolic_derivative(f, 0.5 + 0j)

    @given(certified_selfmaps(), inner_points)
    @settings(max_examples=80, deadline=None)
    def test_schwarz_pick_bound(self, f, z):
        assert hm.hyperbolic_derivative(f, z) <= 1.0 + 1e-12

    @given(certified_selfmaps(), certified_selfmaps(), inner_points)
    @settings(max_examples=60, deadline=None)
    def test_composition_submultiplicative(self, f, g, z):
        w = complex(g.eval(z))
        lhs = hm.hyperbolic_derivative(hm.Compose(f, g), z)
        rhs = hm.hyperbolic_derivative(f, w) * hm.hyperbolic_derivative(g, z)
        assert lhs <= rhs + 1e-12


# -- zero finding ---------------------------------------------------------------

class TestRoots:
    def test_interior_critical_point_appears_above_threshold(self):
        eps = 1.0 / 12.0 + 1e-3
        crit = hm.critical_points(hm.f_eps(eps))
        assert len(crit) == 1
        loc, mult = crit[0]
        assert mult == 1
        assert loc == pytest.approx(1.0 - 1.0 / math.sqrt(3.0 * eps), abs=1e-9)

    def test_no_interior_critical_point_below_threshold(self):
        assert hm.critical_points(hm.f_eps(1.0 / 12.0 - 1e-3)) == []

    def test_square_critical_point_at_zero(self):
        crit = hm.critical_points(hm.Monomial(2))
        assert len(crit) == 1
        assert crit[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_blaschke_double_zero_multiplicity(self):
        crit = hm.critical_points(hm.Blaschke((0.3 + 0j, 0.3 + 0j)))
        assert any(abs(loc - 0.3) < 1e-7 and mult >= 1 for loc, mult in crit)

    def test_preimages(self):
        pre = hm.preimages(hm.Monomial(2), 0.25 + 0j)
        locs = sorted(round(loc.real, 9) for loc, _ in pre)
        assert locs == [-0.5, 0.5]

    def test_constant_detection(self):
        assert hm.is_constant(hm.Const(0.3 + 0.1j))
        assert hm.is_constant(hm.Compose(hm.Const(0.2), hm.Monomial(3)))
        assert not hm.is_constant(hm.Monomial(1))


# -- the text grammar -----------------------------------------------------------

class TestSerialization:
    TEXTS = [
        ("id", hm.Identity()),
        ("const 0.3-0.25j", hm.Const(0.3 - 0.25j)),
        ("zpow 4", hm.Monomial(4)),
        ("poly 3 0.1 0.2+0.3j -0.05", hm.Poly((0.1, 0.2 + 0.3j, -0.05))),
        ("auto 0.3+0.1j 0.7", hm.Automorphism(0.3 + 0.1j, 0.7)),
        ("blaschke 2 0.2j -0.4+0.1j 1.1", hm.Blaschke((0.2j, -0.4 + 0.1j), 1.1)),
        ("compose zpow 2 auto 0.5 0.0", hm.Compose(hm.Monomial(2), hm.Automorphism(0.5))),
        ("sum scale 0.3 id const 0.1j",
         hm.Sum(hm.Scaled(0.3, hm.Identity()), hm.Const(0.1j))),
        ("scale 0.5+0.5j blaschke 1 0.1 0.0", hm.Scaled(0.5 + 0.5j, hm.Blaschke((0.1,)))),
    ]
    CASES = [f for _, f in TEXTS]

    @pytest.mark.parametrize("text, f", TEXTS, ids=[type(f).__name__ for f in CASES])
    def test_round_trip(self, text, f):
        assert hm.parse_map(text) == f

    def test_feps_shorthand(self):
        f = hm.parse_map("feps 0.25")
        assert complex(f.eval(1.0 + 0j)) == pytest.approx(1.0)

    def test_unknown_token_rejected(self):
        with pytest.raises(hm.HoloMapError):
            hm.parse_map("wavelet 3")

    @pytest.mark.parametrize("text", ["zpow", "zpow x", "auto 0.3 x", "feps",
                                      "blaschke 2 0.1", "poly 1000000000000 0.1"])
    def test_missing_or_malformed_token_rejected(self, text):
        with pytest.raises(hm.HoloMapError):
            hm.parse_map(text)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(hm.HoloMapError):
            hm.parse_map("id id")

    def test_rotation_helper(self):
        r = hm.rotation(math.pi / 2)
        assert complex(r.eval(0.5 + 0j)) == pytest.approx(0.5j)


# -- one evaluation path for points and arrays ------------------------------

POINTS = np.array([[0.3 + 0.1j, -0.2j, 0.55 + 0j, -0.4 + 0.35j],
                   [0.05 - 0.6j, 0.7 + 0.2j, -0.65 + 0j, 0.1 + 0.1j]])


def assert_pointwise(out, single, exact):
    """An array result against the results point by point: bit for bit
    where no rounding happens, else to 1e-15 relative (numpy's array
    loops may round differently from its scalar arithmetic)."""
    assert np.shape(out) == POINTS.shape
    assert all(np.ndim(s) == 0 and isinstance(s, (float, complex)) for s in single)
    single = np.reshape(single, POINTS.shape)
    if exact:
        np.testing.assert_array_equal(out, single)
    else:
        np.testing.assert_allclose(out, single, rtol=1e-15, atol=0)


class TestArrayEvaluation:
    NODES = TestSerialization.CASES + [hm.Monomial(0)]

    @pytest.mark.parametrize("method", ["eval", "deriv"])
    @pytest.mark.parametrize("f", NODES, ids=lambda f: type(f).__name__)
    def test_node_matches_pointwise(self, f, method):
        exact = isinstance(f, (hm.Identity, hm.Const)) or f == hm.Monomial(0)
        part = f.eval if method == "eval" else (lambda z: f.jet(z)[1])
        assert_pointwise(part(POINTS), [part(complex(z)) for z in POINTS.ravel()],
                         exact)

    @pytest.mark.parametrize("f", [
        hm.Identity(), hm.Monomial(3), hm.f_eps(1.0 / 12.0),
        hm.Automorphism(0.3 + 0.1j, 0.7), hm.Blaschke((0.2j, -0.4 + 0.1j), 1.1),
        hm.Compose(hm.Blaschke((0.2 - 0.3j,)), hm.Scaled(0.5, hm.Identity())),
    ], ids=lambda f: type(f).__name__)
    def test_hyperbolic_derivative_matches_pointwise(self, f):
        assert_pointwise(hm.hyperbolic_derivative(f, POINTS),
                         [hm.hyperbolic_derivative(f, complex(z))
                          for z in POINTS.ravel()], isinstance(f, hm.Identity))

    def test_refusal_names_the_point_outside(self):
        zs = np.array([0.1, 0.5j, 1.0 + 0j, 0.2, 2.0])
        with pytest.raises(hm.HoloMapError, match=r"\|z\| < 1; z = \(1\+0j\)"):
            hm.hyperbolic_derivative(hm.Monomial(2), zs)
        # the point outside is named before the map is evaluated, even
        # where the map has its pole there
        with pytest.raises(hm.HoloMapError, match=r"\|z\| < 1; z = \(2\+0j\)"):
            hm.hyperbolic_derivative(hm.Automorphism(0.5), np.array([0.1, 2.0]))

    def test_refusal_names_the_point_that_escapes(self):
        f = hm.Scaled(3.0, hm.Identity())
        with pytest.raises(hm.HoloMapError,
                           match=r"z = 0.5j: not a self-map"):
            hm.hyperbolic_derivative(f, np.array([[0.1, 0.2j], [0.5j, 0.9]]))


# -- value and derivative from one walk of the tree --------------------------

def rational_derivative(f, z):
    p, q = f.rational()
    dp, dq = np.polynomial.polynomial.polyder(p), np.polynomial.polynomial.polyder(q)
    pv = np.polynomial.polynomial.polyval
    return (pv(z, dp) * pv(z, q) - pv(z, p) * pv(z, dq)) / pv(z, q) ** 2


def disk_sample(n, seed=7, radius=0.85):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def assert_jet(f, z):
    value, d = f.jet(z)
    np.testing.assert_array_equal(value, f.eval(z))
    assert np.shape(value) == np.shape(d) == np.shape(z)
    np.testing.assert_allclose(d, rational_derivative(f, z), rtol=1e-12, atol=1e-12)


class TestJet:
    NODES = TestSerialization.CASES + [hm.Monomial(0), hm.Blaschke((), 0.4),
                                       hm.Scaled(0.6 - 0.1j, hm.Automorphism(0.2, 1.0))]
    # past the size where numpy computes `a * <temporary>` in place
    LARGE = disk_sample(20_000)

    @pytest.mark.parametrize("f", NODES, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("z", [0.3 - 0.2j, POINTS, LARGE],
                             ids=["scalar", "points", "large"])
    def test_value_is_eval_and_derivative_is_exact(self, f, z):
        assert_jet(f, z)

    @given(tree_maps(), inner_points)
    @settings(max_examples=60, deadline=None)
    def test_trees(self, f, z):
        try:
            f.eval(z)
        except hm.HoloMapError:
            return
        assert_jet(f, z)
        assert_jet(f, z * np.array([1.0, 0.5j, -0.25]))

    def test_jet_is_the_one_derivative(self):
        nodes = set(hm.HoloMap.__subclasses__())
        assert nodes == {type(f) for f in self.NODES}
        assert all("jet" in vars(cls) and "rational" in vars(cls) for cls in nodes)
        assert not any("eval" in vars(cls) for cls in nodes)
        assert not any(hasattr(cls, name) for cls in nodes for name in ("deriv", "to_text"))


# -- a point's value does not depend on the array it is in -------------------

def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBatchIndependence:
    """numpy computes ``c * <temporary>`` in place as ``<temporary> * c``
    once the array holds 16,384 complex points or more, and the complex
    product is not commutative in its last bit; every node fixes the order
    of each product of a constant and an array, so these agree bitwise."""
    K = 1_000
    LARGE = disk_sample(20_000)

    def assert_batch_free(self, f, z):
        value, d = f.jet(z)
        assert_bitwise(value, f.eval(z))
        for part in (slice(0, self.K), slice(self.K + 3, 2 * self.K + 3)):
            assert_bitwise(f.eval(z)[part], f.eval(z[part]))
            small_value, small_d = f.jet(z[part])
            assert_bitwise(value[part], small_value)
            assert_bitwise(d[part], small_d)

    @pytest.mark.parametrize("f", TestJet.NODES + [
        hm.Scaled(0.6 + 0.2j, hm.Blaschke((0.3,))),
        hm.Blaschke((0.3 - 0.2j, 0.1j, -0.5), 2.0)],
        ids=lambda f: type(f).__name__)
    def test_node(self, f):
        self.assert_batch_free(f, self.LARGE)

    @given(tree_maps())
    @settings(max_examples=40, deadline=None)
    def test_trees(self, f):
        try:
            f.eval(self.LARGE)
        except hm.HoloMapError:
            return
        self.assert_batch_free(f, self.LARGE)

    def test_inputs_are_not_written(self):
        z = self.LARGE.copy()
        for f in TestJet.NODES:
            f.eval(z)
            f.jet(z)
        assert_bitwise(z, self.LARGE)


# -- node parameters are plain, finite numbers -------------------------------

def stored_numbers(f):
    """The numbers a node stores, its subtrees left out."""
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            if not isinstance(v, hm.HoloMap):
                yield v


class TestParameters:
    @pytest.mark.parametrize("f, text", [
        (hm.Automorphism(np.float64(0.3), np.float64(0.5)), "auto 0.3 0.5"),
        (hm.Blaschke((np.complex128(0.2j),), np.float64(0.5)), "blaschke 1 0.2j 0.5"),
        (hm.Scaled(np.float64(0.5), hm.Identity()), "scale 0.5 id"),
        (hm.Const(np.float32(0.25)), "const 0.25"),
        (hm.Monomial(np.int64(3)), "zpow 3"),
    ], ids=["auto", "blaschke", "scale", "const", "zpow"])
    def test_numpy_numbers_serialize_plainly(self, f, text):
        numbers = list(stored_numbers(f))
        assert numbers
        assert all(type(v) in (complex, float, int) for v in numbers)
        assert hm.parse_map(text) == f

    @pytest.mark.parametrize("make, named", [
        (lambda: hm.Automorphism(0.3, float("nan")), "auto parameter theta"),
        (lambda: hm.Automorphism(complex("nan+0j")), "auto parameter a"),
        (lambda: hm.Automorphism(0.3, np.inf), "auto parameter theta"),
        (lambda: hm.Blaschke((0.1, complex(0, np.inf))), "blaschke parameter zero"),
        (lambda: hm.Blaschke((0.1,), np.nan), "blaschke parameter theta"),
        (lambda: hm.Poly((0.1, np.nan)), "poly parameter coefficient"),
        (lambda: hm.Const(np.inf), "const parameter value"),
        (lambda: hm.Scaled(np.nan, hm.Identity()), "scale parameter factor"),
        (lambda: hm.parse_map("auto 0.3 nan"), "auto parameter theta"),
    ], ids=["auto-theta-nan", "auto-a-nan", "auto-theta-inf", "blaschke-zero",
            "blaschke-theta", "poly", "const", "scale", "parsed"])
    def test_non_finite_refused_naming_the_node(self, make, named):
        with pytest.raises(hm.HoloMapError, match=f"{named} = .* is not finite"):
            make()

    @pytest.mark.parametrize("power", [2.5, "3", np.float64(2.0), None])
    def test_non_integer_power_refused_naming_the_node(self, power):
        with pytest.raises(hm.HoloMapError,
                           match="zpow parameter power = .* is not an integer"):
            hm.Monomial(power)
