import pytest

from cpdg import lyapunov
from cpdg.closedform import ConditionError
from cpdg.graph import build_finite, grow_bgw, deterministic, TreeCaps
from cpdg.kernels import KernelSpec
from cpdg.lyapunov import (LINEAR_WEIGHT, WeightFunction, check_conditions,
                           f_value, supermartingale_trace)

STAR5 = build_finite([(0, i) for i in range(1, 6)])


def regular_tree(degree, depth):
    edges = []
    last = [0]
    nxt = 1
    for level in range(depth):
        new = []
        for v in last:
            kids = degree if level == 0 else degree - 1
            for _ in range(kids):
                edges.append((v, nxt))
                new.append(nxt)
                nxt += 1
        last = new
    return build_finite(edges)


class TestCheckConditions:
    def test_theta_hand_value(self):
        # K = 1, v_min = 2, lam = 0.1: theta = 0.105 + 0.04 - 1 = -0.855
        rep = lyapunov.LyapunovReport(K=1.0, v_min=2.0, lam=None, theta=None,
                                      lambda_star=0.0, weighted_ratio_max=1.0,
                                      damping_sum_max=1.0)
        assert rep.theta_at(0.1) == pytest.approx(-0.855)

    def test_theta_at_zero_rate(self):
        g = build_finite([(0, 1), (1, 2)])
        rep = check_conditions(g, KernelSpec(alpha=1.0, nu=3.0), LINEAR_WEIGHT, lam=0.0)
        assert rep.theta == pytest.approx(-min(rep.v_min / 2.0, 1.0))
        assert rep.theta < 0

    def test_regular_tree_condition_constant(self):
        # alpha = 1.1 product-style kernel with linear weights stays below kappa
        g = regular_tree(3, 4)
        spec = KernelSpec(alpha=1.1, sigma=1.0, kappa=1.0)
        rep = check_conditions(g, spec, LINEAR_WEIGHT)
        assert rep.weighted_ratio_max <= spec.kappa + 1e-12
        assert rep.lambda_star > 0

    def test_lambda_star_positive_and_sign_change(self):
        rep = check_conditions(STAR5, KernelSpec(alpha=1.2, sigma=1.0), LINEAR_WEIGHT)
        assert rep.lambda_star > 0
        assert rep.theta_at(rep.lambda_star) == pytest.approx(0.0, abs=1e-12)
        assert rep.theta_at(rep.lambda_star / 2) < 0
        assert rep.theta_at(rep.lambda_star * 2) > 0

    def test_weight_below_one_rejected(self):
        bad = WeightFunction("power", beta=-1.0)  # W(d) = 1/d
        with pytest.raises(ConditionError, match=">= 1"):
            check_conditions(STAR5, KernelSpec(alpha=1.0), bad)

    def test_lazy_graph_rejected(self):
        g = grow_bgw(deterministic(2), seed=1, caps=TreeCaps(100, 10))
        with pytest.raises(ConditionError):
            check_conditions(g, KernelSpec(alpha=1.0), LINEAR_WEIGHT)


class TestFValue:
    def test_empty_configuration(self):
        assert f_value(set(), (), STAR5, KernelSpec(alpha=1.0), 1.0, LINEAR_WEIGHT) == 0.0

    def test_single_isolated_infected(self):
        got = f_value({0}, (), STAR5, KernelSpec(alpha=1.0), 1.0, LINEAR_WEIGHT)
        assert got == pytest.approx(5.0)  # W(d) * (1 + 0) with degree 5

    def test_one_revealed_edge_both_healthy(self):
        g = build_finite([(0, 1)])
        spec = KernelSpec(alpha=0.0, nu=1.0)  # v = 1 everywhere
        w = WeightFunction("constant")
        got = f_value(set(), [(0, 1)], g, spec, 1.0, w)
        assert got == pytest.approx(6.0)  # 2 * (R + 2Q) = 2 * 3

    def test_dominates_infected_count(self):
        got = f_value({0, 3}, [(0, 1)], STAR5, KernelSpec(alpha=0.5), 0.7, LINEAR_WEIGHT)
        assert got >= 2.0


class TestTrace:
    spec = KernelSpec(alpha=1.2, sigma=1.0)

    def test_decay_bound_holds(self):
        rep = check_conditions(STAR5, self.spec, LINEAR_WEIGHT)
        trace = supermartingale_trace(STAR5, self.spec, rep.lambda_star / 2,
                                      LINEAR_WEIGHT, [0.5, 1.0, 2.0], 3000, seed=5)
        assert trace.asserted and trace.passed

    def test_report_only_when_theta_positive(self):
        rep = check_conditions(STAR5, self.spec, LINEAR_WEIGHT)
        trace = supermartingale_trace(STAR5, self.spec, rep.lambda_star * 3,
                                      LINEAR_WEIGHT, [0.5], 500, seed=6)
        assert not trace.asserted and trace.passed is None

    def test_f0_counts_initial_weights(self):
        rep = check_conditions(STAR5, self.spec, LINEAR_WEIGHT)
        trace = supermartingale_trace(STAR5, self.spec, rep.lambda_star / 2,
                                      LINEAR_WEIGHT, [0.5], 200, seed=7)
        assert trace.f0 == pytest.approx(5.0)
