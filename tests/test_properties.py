"""Cross-module randomized invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrig import ball as bl
from diskrig import harnack as hk
from diskrig import holomap as hm
from diskrig import metric as mt
from diskrig.numerics import Verdict, dyadic_ts, fit_boundary_rate

P = mt.poincare()

disk_pts = st.complex_numbers(max_magnitude=0.8, allow_infinity=False,
                              allow_nan=False)
blaschke_zeros = st.lists(st.complex_numbers(max_magnitude=0.6,
                                             allow_infinity=False,
                                             allow_nan=False),
                          min_size=1, max_size=4)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_rate_verdict_tracks_exponent_gap(p, q):
    ts = dyadic_ts(4, 16)
    rep = fit_boundary_rate(ts, (1 - ts) ** p, float(q))
    if p > q:
        assert rep.verdict is Verdict.VANISHES
    elif p == q:
        assert rep.verdict is Verdict.BOUNDED_NONZERO
        assert rep.fitted_limit == pytest.approx(1.0, rel=1e-6)
    elif q - p >= 2:
        assert rep.verdict is Verdict.DIVERGES


@given(blaschke_zeros, st.floats(0, 6.28), disk_pts)
@settings(max_examples=120, deadline=None)
def test_blaschke_schwarz_pick(zeros, theta, z):
    f = hm.Blaschke(tuple(zeros), theta)
    assert hm.hyperbolic_derivative(f, z) <= 1.0 + 1e-12


@given(blaschke_zeros, st.floats(0, 6.28))
@settings(max_examples=60, deadline=None)
def test_blaschke_pullback_below_hyperbolic(zeros, theta):
    lam = mt.pullback(hm.Blaschke(tuple(zeros), theta), P)
    grid = mt.default_disk_grid(r_max=0.9)
    assert np.all(np.asarray(lam.density(grid), dtype=float)
                  <= np.asarray(P.density(grid), dtype=float) + 1e-9)


@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0), disk_pts)
@settings(max_examples=80, deadline=None)
def test_nested_extremal_domination(beta, bump, z):
    # a deeper zero of the extremal density is dominated by a shallower one
    lam = mt.mu_max(beta + bump)
    mu = mt.mu_max(beta)
    q = mt.quotient(lam, mu, z)
    assert -1e-12 <= q <= 1.0 + 1e-9


@given(st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_quadratic_weight_curvature_cap(c):
    # s = c(|z|^2 - 1) is subharmonic and nonpositive: curvature <= -4
    s = lambda z, c=c: c * (np.abs(z) ** 2 - 1.0)
    lap = lambda z, c=c: np.full(np.shape(z), 4.0 * c) if np.ndim(z) else 4.0 * c
    lam = mt.exp_weight(s, lap, "quadratic")
    grid = mt.default_disk_grid(r_max=0.9)
    assert np.all(np.asarray(lam.curvature(grid), dtype=float) <= -4.0 + 1e-12)
    assert np.all(np.asarray(lam.density(grid), dtype=float)
                  <= np.asarray(P.density(grid), dtype=float) + 1e-9)


@given(st.complex_numbers(max_magnitude=0.55, allow_infinity=False,
                          allow_nan=False),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_zero_order_matches_branching(a, k):
    # a k-fold Blaschke factor branches with multiplicity k - 1 + ... at a;
    # the pullback's declared order must match the log-log estimate
    f = hm.Blaschke((a,) * (k + 1))
    lam = mt.pullback(f, P)
    rec = lam.zero_at(a)
    assume(rec is not None)
    est = mt.zero_order(lam, rec.location)
    assert est == pytest.approx(rec.order, abs=2e-3)


@given(st.floats(min_value=0.25, max_value=0.75),
       st.sampled_from([4.0, 5.0, 6.0, 8.0]))
@settings(max_examples=25, deadline=None)
def test_harnack_scaled_family_any_annulus(r, c):
    mu = P if c == 4.0 else mt.scale(math.sqrt(4.0 / c), P)
    rep = hk.check_harnack(mt.scale(0.9, mu), mu, c, r)
    assert rep.passed


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_ball_automorphism_preserves_metric(n, seed):
    rng = np.random.default_rng(seed)
    A = bl.random_automorphism(n, rng)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z *= rng.uniform(0.0, 0.9) / bl.norm(z)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    lhs = bl.kobayashi_metric(A.eval(z), A.differential(z, v))
    assert lhs == pytest.approx(bl.kobayashi_metric(z, v), rel=1e-10)


@given(st.complex_numbers(max_magnitude=0.85, allow_infinity=False,
                          allow_nan=False),
       st.complex_numbers(max_magnitude=2.0, allow_infinity=False,
                          allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_one_variable_ball_equals_disk(z, v):
    assume(abs(v) > 1e-6)
    lhs = bl.kobayashi_metric([z], [v])
    rhs = abs(v) * float(P.density(z))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@given(st.lists(st.complex_numbers(max_magnitude=0.5, allow_infinity=False,
                                   allow_nan=False),
                min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_serialization_preserves_semantics(zeros):
    f = hm.Compose(hm.Blaschke(tuple(zeros), 0.4), hm.Automorphism(0.2 - 0.1j))
    text = (f"compose blaschke {len(zeros)} {' '.join(map(repr, zeros))} 0.4 "
            f"auto 0.2-0.1j 0.0")
    assert hm.parse_map(text) == f
