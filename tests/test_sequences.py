import math

import numpy as np
import pytest

from diskrig import holomap as hm
from diskrig import metric as mt
from diskrig import sequences as sq

P = mt.poincare()


class TestWeightedFamily:
    def test_weight_value_at_origin(self):
        # direct evaluation: s_3(0) = -1 - 1/6 + (1/6)^(1/3)
        m = sq.weighted_family(3)
        assert float(m.density(0j)) == pytest.approx(
            math.exp(-1.0 - 1.0 / 6.0 + (1.0 / 6.0) ** (1.0 / 3.0)))

    def test_origin_value_trend_toward_inverse_e(self):
        # frozen: exp(-1 - 1/20! + (1/20!)^(1/20)) = 0.4149566...; the
        # approach to 1/e is O(1/n) since (n!)^(-1/n) < e/n, so the n = 20
        # value still sits 4.7e-2 away from the limit
        v20 = float(sq.weighted_family(20).density(0j))
        assert v20 == pytest.approx(0.414957, abs=1e-6)
        gaps = [abs(float(sq.weighted_family(n).density(0j)) - 1.0 / math.e)
                for n in (10, 20, 40, 80, 160)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_ratio_away_from_origin(self):
        # frozen: ratio at |z| = 0.8 equals exp(0.64^(1/40) - 1) at n = 40
        # (the 1/40! terms are below double precision); it first enters the
        # 1e-2 band at n = 46
        r40 = float(sq.weighted_family(40).density(0.8 + 0j)) / \
            float(P.density(0.8 + 0j))
        assert r40 == pytest.approx(math.exp(0.64 ** (1.0 / 40.0) - 1.0),
                                    abs=1e-12)
        r64 = float(sq.weighted_family(64).density(0.8 + 0j)) / \
            float(P.density(0.8 + 0j))
        assert abs(r64 - 1.0) <= 1e-2

    def test_curvature_escapes_at_origin(self):
        vals = [float(sq.weighted_family(n).curvature(0j)) for n in (5, 10, 15)]
        assert vals[0] < -100.0
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_curvature_at_most_minus_four(self):
        m = sq.weighted_family(3)
        grid = mt.default_disk_grid(r_max=0.9)
        assert np.all(np.asarray(m.curvature(grid)) <= -4.0 + 1e-3)

    def test_exact_laplacian_matches_fd(self):
        from diskrig.numerics import laplacian_fd
        s = sq.factorial_weight(4)
        lap = sq.factorial_weight_laplacian(4)
        for z in (0.3 + 0.1j, -0.5j, 0.7 + 0.2j):
            fd = laplacian_fd(lambda w: float(s(w)), z, 1e-4, richardson=True)
            assert fd == pytest.approx(float(lap(z)), rel=1e-5)

    def test_factorial_ceiling(self):
        with pytest.raises(sq.SequenceError):
            sq.weighted_family(171)


class TestMovingZeroFamily:
    def test_origin_value_approaches_one_with_spec_parameters(self):
        # the op accepts arbitrary (order, zero); with |z_n| chosen so
        # |z_n|^(1/n) -> 1 the origin value tends to the hyperbolic one
        vals = []
        for n in (4, 16, 64):
            zn = math.exp(-1.0 / (n * math.sqrt(n)))
            m = sq.moving_zero_metric(1.0 / n, zn + 0j)
            vals.append(float(m.density(0j)))
        assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)
        assert vals[-1] == pytest.approx(1.0, abs=2e-3)

    def test_ladder_origin_value_approaches_one(self):
        gaps = [abs(float(sq.moving_zero_family(n).density(0j)) - 1.0)
                for n in (4, 16, 64)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_pointwise_limit(self):
        m = sq.moving_zero_family(64)
        assert float(m.density(0.5 + 0j)) == pytest.approx(4.0 / 3.0, abs=5e-3)

    def test_declared_zero(self):
        m = sq.moving_zero_family(8)
        assert len(m.zeros) == 1
        assert m.zeros[0].order == pytest.approx(1.0 / 8.0)
        assert m.zeros[0].location == pytest.approx(math.exp(-math.sqrt(8.0)),
                                                    abs=1e-12)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_estimated_order_matches_declared(self, n):
        m = sq.moving_zero_family(n)
        est = mt.zero_order(m, m.zeros[0].location)
        assert est == pytest.approx(1.0 / n, abs=1e-3)


class TestDichotomy:
    def test_constant_automorphism_sequence_uniform(self):
        seq = sq.MetricSequence(
            lambda n: mt.pullback(hm.Automorphism(0.3 + 0.1j), P), "constant")
        rep = sq.dichotomy_scan(seq, P, 4.0, lambda n: 0j)
        assert rep.verdict == "UNIFORM_CONVERGENCE"

    def test_scale_ladder_uniform(self):
        seq = sq.MetricSequence(lambda n: mt.scale(1.0 - 1.0 / n, P), "scales")
        rep = sq.dichotomy_scan(seq, P, 4.0, lambda n: 0.1 + 0.2j)
        assert rep.verdict == "UNIFORM_CONVERGENCE"
        assert rep.sup_deviation[-1] == pytest.approx(1.0 / 64.0, abs=1e-12)

    def test_moving_zero_ladder_fading(self):
        rep = sq.dichotomy_scan(sq.moving_zero_sequence(), P, 4.0, lambda n: 0j)
        assert rep.verdict == "FADING_ZEROS"
        assert rep.largest_n == 64

    def test_verdicts_are_exclusive(self):
        # a report carries exactly one verdict; across the catalog the two
        # definite verdicts never describe the same family
        reports = [
            sq.dichotomy_scan(sq.moving_zero_sequence(), P, 4.0, lambda n: 0j),
            sq.dichotomy_scan(sq.MetricSequence(
                lambda n: mt.scale(1.0 - 1.0 / n, P), "scales"),
                P, 4.0, lambda n: 0.1j),
        ]
        for rep in reports:
            assert rep.verdict in ("UNIFORM_CONVERGENCE", "FADING_ZEROS",
                                   "INCONCLUSIVE")
        assert reports[0].verdict != reports[1].verdict

    def test_boundary_ladder_constant_sequence_uniform(self):
        # sample points 1 - 1/n approach the rim: the hypothesis is decided
        # by the boundary rate fit, which vanishes for the quotient 1
        seq = sq.MetricSequence(lambda n: P, "hyperbolic")
        rep = sq.dichotomy_scan(seq, P, 4.0, lambda n: 1.0 - 1.0 / n)
        assert rep.hypothesis_ok
        assert rep.verdict == "UNIFORM_CONVERGENCE"

    def test_boundary_ladder_scaled_sequence_inconclusive(self):
        # the quotient stays 0.9, so its deviation does not vanish at the rim
        seq = sq.MetricSequence(lambda n: mt.scale(0.9, P), "scaled")
        rep = sq.dichotomy_scan(seq, P, 4.0, lambda n: 1.0 - 1.0 / n)
        assert not rep.hypothesis_ok
        assert rep.verdict == "INCONCLUSIVE"

    def test_domination_failure_names_index(self):
        seq = sq.MetricSequence(lambda n: P, "hyperbolic")
        with pytest.raises(mt.DominationError, match="n = 2"):
            sq.dichotomy_scan(seq, mt.scale(0.9, P), 4.0, lambda n: 0j)


class TestSequentialSchwarzPick:
    def test_rotations(self):
        rep = sq.sequential_schwarz_pick(lambda n: hm.rotation(1.0 / n),
                                         lambda n: 1.0 - 1.0 / n)
        assert rep.hypothesis_ok
        assert rep.uniform_ok
        assert rep.classification == "automorphism-like"

    def test_shrinking_automorphisms_degenerate(self):
        rep = sq.sequential_schwarz_pick(
            lambda n: hm.Automorphism(1.0 - 1.0 / n),
            lambda n: 1.0 - 1.0 / n)
        assert rep.hypothesis_ok
        assert rep.classification == "constant-like"

    def test_square_map_hypothesis_fails(self):
        rep = sq.sequential_schwarz_pick(lambda n: hm.Monomial(2),
                                         lambda n: 1.0 - 1.0 / n)
        assert not rep.hypothesis_ok
        assert rep.classification == "indeterminate"

    def test_fixed_interior_point_rotations(self):
        # one interior point for every n: the trend check replaces the fit
        rep = sq.sequential_schwarz_pick(lambda n: hm.rotation(1.0 / n),
                                         lambda n: 0.5)
        assert rep.hypothesis_ok
        assert rep.hypothesis_limit <= 1e-6

    def test_fixed_interior_point_square_map(self):
        # z^2 at 0.5: (1 - 1/4) 2 (1/2) / (1 - 1/16) = 0.8
        rep = sq.sequential_schwarz_pick(lambda n: hm.Monomial(2),
                                         lambda n: 0.5)
        assert not rep.hypothesis_ok
        assert rep.hypothesis_limit == pytest.approx(0.2, abs=1e-12)

    def test_one_jet_per_point_set(self, monkeypatch):
        # per member: the circle certification, the hypothesis point and one
        # walk over the compact grid for both the deviation and the modulus
        def member(n):
            return hm.Automorphism(1.0 - 1.0 / n)

        def points(n):
            return 1.0 - 1.0 / n

        jet, shapes = hm.Automorphism.jet, []

        def counted(self, z):
            shapes.append(np.shape(z))
            return jet(self, z)

        monkeypatch.setattr(hm.Automorphism, "jet", counted)
        rep = sq.sequential_schwarz_pick(member, points)
        assert rep.classification == "constant-like"
        assert shapes == [hm._CIRCLE.shape, (), sq._compact_grid().shape] * 8


class TestZeroTracking:
    def test_shared_zero_orders_converge(self):
        seq = sq.MetricSequence(lambda n: mt.mu_max(1.0 + 1.0 / n), "orders")
        rep = sq.zero_rigidity_track(seq, mt.mu_max(1.0), lambda n: 0.5 + 0j, 0j)
        assert rep.kind == "order-limit"
        assert rep.target == 1.0
        assert rep.passed
        # the n = 64 entry sits within 0.02 of the limit order
        assert abs(rep.orders[5] - 1.0) <= 0.02

    def test_fading_orders(self):
        rep = sq.zero_rigidity_track(sq.moving_zero_sequence(), P,
                                     lambda n: 0j, 0j)
        assert rep.kind == "fading"
        assert rep.passed

    def test_constant_sequence_trivial(self):
        seq = sq.MetricSequence(lambda n: mt.mu_max(1.0), "constant")
        rep = sq.zero_rigidity_track(seq, mt.mu_max(1.0), lambda n: 0.5 + 0j, 0j)
        assert rep.passed
        assert set(rep.orders) == {1.0}

    def test_hypothesis_failure_raises(self):
        seq = sq.MetricSequence(lambda n: mt.scale(0.5, P), "half")
        with pytest.raises(sq.SequenceError, match="hypothesis"):
            sq.zero_rigidity_track(seq, P, lambda n: 0.3 + 0j, 0j)


class TestMemberBuilds:
    def test_one_build_per_index(self):
        built = []

        def counted(n):
            built.append(n)
            return sq.moving_zero_family(n)

        seq = sq.MetricSequence(counted, "counted moving-zero family")
        rep = sq.dichotomy_scan(seq, P, 4.0, lambda n: 0j)
        assert rep.verdict == "FADING_ZEROS"
        assert built == [2, 4, 8, 16, 32, 64]
        built.clear()
        assert sq.zero_rigidity_track(seq, P, lambda n: 0j, 0j).passed
        assert built == [2, 4, 8, 16, 32, 64, 128]


class TestExtremalWitness:
    def test_running_max_reaches_hyperbolic(self):
        running, target = sq.extremal_family_witness(1.0, 0.5 + 0j)
        assert target == pytest.approx(4.0 / 3.0)
        assert target - running[-1] <= 1e-2
        assert np.all(np.diff(running) >= 0)

    def test_cap_does_not_matter(self):
        r1, t = sq.extremal_family_witness(1.0, 0.5 + 0j)
        r2, _ = sq.extremal_family_witness(0.5, 0.5 + 0j)
        assert r1[-1] == r2[-1]

    def test_members_respect_extremal_ceiling(self):
        running, target = sq.extremal_family_witness(1.0, 0.3 - 0.4j)
        assert np.all(running <= target + 1e-9)

    def test_origin_rejected(self):
        with pytest.raises(sq.SequenceError):
            sq.extremal_family_witness(1.0, 0j)
