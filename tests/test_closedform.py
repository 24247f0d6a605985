import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from cpdg import closedform as cf
from cpdg.graph import deterministic, geometric
from cpdg.kernels import KernelSpec

from _oracles import simulate_edge_race, simulate_geometric_sum

rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBgTransition:
    def test_stationarity_long_run(self):
        assert cf.bg_transition(0.3, 2.0, True, 1e9) == pytest.approx(0.3)
        assert cf.bg_transition(0.3, 2.0, False, 1e9) == pytest.approx(0.3)

    def test_zero_elapsed(self):
        assert cf.bg_transition(0.7, 1.0, True, 0.0) == 1.0
        assert cf.bg_transition(0.7, 1.0, False, 0.0) == 0.0

    def test_hand_value(self):
        assert cf.bg_transition(0.5, 1.0, False, math.log(2)) == pytest.approx(0.25)

    @settings(max_examples=200, deadline=None)
    @given(probs, rates, st.booleans(),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_chapman_kolmogorov(self, p, v, state, s1, s2):
        q1 = cf.bg_transition(p, v, state, s1)
        # compose: P(open at s1+s2) = q1 * P(open->open, s2) + (1-q1) * P(closed->open, s2)
        composed = (q1 * cf.bg_transition(p, v, True, s2)
                    + (1.0 - q1) * cf.bg_transition(p, v, False, s2))
        direct = cf.bg_transition(p, v, state, s1 + s2)
        assert composed == pytest.approx(direct, abs=1e-12)


class TestEdgeLaw:
    def test_transmission_hand_values(self):
        assert cf.transmission_prob(1, 1, 1) == pytest.approx(0.25)
        assert cf.transmission_prob(2, 3, 1 / 3) == pytest.approx(0.25)
        assert cf.transmission_prob(1, 1, 0.0) == 0.0

    def test_ab_identities_random(self):
        rng = random.Random(0)
        for _ in range(10_000):
            lam = rng.uniform(0.05, 20)
            v = rng.uniform(0.05, 20)
            p = rng.random()
            law = cf.EdgeLaw.from_rates(lam, v, p)
            assert law.a + law.b == pytest.approx(lam + v, rel=1e-10)
            assert law.a * law.b == pytest.approx(lam * v * p, rel=1e-10, abs=1e-12)
            assert law.a >= law.b >= 0.0

    def test_tail_boundaries(self):
        law = cf.EdgeLaw.from_rates(1.0, 4.0, 0.5)
        assert cf.transmission_time_tail(law, 0.0) == pytest.approx(1.0)
        assert cf.transmission_time_tail(law, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_tail_monte_carlo(self):
        # simulate the raw open/close/infect race; compare the conditional tail
        law = cf.EdgeLaw.from_rates(1.0, 4.0, 0.5)
        gen = np.random.default_rng(42)
        win, t_inf = simulate_edge_race(1.0, 4.0, 0.5, 200_000, gen)
        times = t_inf[win]
        for t in (0.5, 1.0, 2.0):
            emp = float((times > t).mean())
            se = math.sqrt(emp * (1 - emp) / times.size)
            assert abs(emp - cf.transmission_time_tail(law, t)) < 3 * se

    def test_repeated_root_confluent_limit(self):
        # p = 1, lam = v collapses a and b; limit must match nearby laws
        law_eq = cf.EdgeLaw.from_rates(1.0, 1.0, 1.0)
        assert law_eq.a == pytest.approx(law_eq.b)
        near = cf.EdgeLaw.from_rates(1.0, 1.0 + 1e-7, 1.0)
        for t in (0.3, 1.0, 2.5):
            assert cf.transmission_time_tail(law_eq, t) == pytest.approx(
                cf.transmission_time_tail(near, t), rel=1e-5)
        # and against numerical integration of the two-exponential density
        a = law_eq.a
        for t in (0.5, 1.5):
            dens = lambda s: (a + 1.0) ** 2 * s * math.exp(-(a + 1.0) * s)
            expect, _ = integrate.quad(dens, t, math.inf)
            assert cf.transmission_time_tail(law_eq, t) == pytest.approx(expect, rel=1e-9)

    def test_tail_integral_vs_laplace_derivative(self):
        # E[T | win] two ways: integrate the tail, or differentiate the
        # transform of the geometric-sum construction at theta = 1
        lam, v, p = 0.8, 2.5, 0.4
        law = cf.EdgeLaw.from_rates(lam, v, p)
        mean_tail, _ = integrate.quad(lambda t: cf.transmission_time_tail(law, t), 0, math.inf)
        alpha, beta = p * v, (1 - p) * v + lam
        q = lam / (lam + (1 - p) * v)
        h = 1e-6
        log_deriv = (math.log(cf.geom_exp_laplace(alpha, beta, q, 1 + h))
                     - math.log(cf.geom_exp_laplace(alpha, beta, q, 1 - h))) / (2 * h)
        assert mean_tail == pytest.approx(-log_deriv, rel=1e-6)


class TestLaplace:
    def test_total_mass(self):
        assert cf.geom_exp_laplace(2.0, 3.0, 0.4, 0.0) == 1.0

    def test_hand_value(self):
        assert cf.geom_exp_laplace(1, 1, 1, 1) == pytest.approx(0.25)

    def test_against_direct_sampler(self):
        gen = np.random.default_rng(9)
        t = simulate_geometric_sum(2.0, 3.0, 0.4, 200_000, gen)
        emp = np.exp(-t)
        se = emp.std() / math.sqrt(emp.size)
        assert abs(emp.mean() - cf.geom_exp_laplace(2.0, 3.0, 0.4, 1.0)) < 3 * se


class TestLowerBoundRate:
    def test_boundaries(self):
        assert cf.lower_bound_rate(1.0, 1.0, 0.0) == 0.0
        assert cf.lower_bound_rate(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_hand_value_and_bounds(self):
        a = cf.lower_bound_rate(1.0, 4.0, 0.5)
        assert a == pytest.approx((5 - math.sqrt(17)) / 2)
        assert 0.4 <= a <= 0.8

    @settings(max_examples=300, deadline=None)
    @given(rates, rates, probs)
    def test_rate_bounds_hold(self, lam, v, p):
        a = cf.lower_bound_rate(lam, v, p)
        lvp = lam * v * p / (lam + v)
        assert lvp - 1e-12 <= a <= 2 * lvp + 1e-12

    def test_fast_update_limit_monotone(self):
        lam, p = 0.7, 0.3
        values = [cf.lower_bound_rate(lam, v, p) for v in (1, 10, 100, 1000, 10000)]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert values[-1] == pytest.approx(lam * p, rel=1e-3)


class TestPathBound:
    def test_gamma_from_numeric_maximization(self):
        # gamma maximizes 4 theta + 2 log(1 - theta) on (0, 1)
        res = optimize.minimize_scalar(lambda th: -(4 * th + 2 * math.log1p(-th)),
                                       bounds=(1e-9, 1 - 1e-9), method="bounded")
        assert cf.GAMMA == pytest.approx(-res.fun, rel=1e-8)

    def test_single_edge_value(self):
        spec = KernelSpec(alpha=0.0, kappa=1.0)  # p = 1, v = 1
        bound = cf.path_lower_bound([1, 1], 1.0, spec)
        expect = (1 - math.exp(-cf.GAMMA)) * 0.25
        assert bound.probability == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.1146645, abs=5e-7)

    def test_vanishes_with_lambda(self):
        spec = KernelSpec(alpha=0.5, sigma=1.0)
        assert cf.path_lower_bound([3, 3, 3], 1e-9, spec).probability < 1e-8

    def test_empty_path_rejected(self):
        with pytest.raises(cf.ConditionError):
            cf.path_lower_bound([3], 0.5, KernelSpec(alpha=0.5))


class TestStarConstants:
    def test_window_constant_speed(self):
        sc = cf.star_constants(100, 4, 0.3, KernelSpec(alpha=0.5, eta=0.0, nu=1.0),
                               deterministic(2))
        assert sc.window == pytest.approx(0.5)

    def test_low_degree_mass_deterministic(self):
        sc = cf.star_constants(100, 4, 0.3, KernelSpec(alpha=0.5), deterministic(2))
        assert sc.low_degree_mass == 1.0  # P(offspring <= 3) = 1

    def test_threshold_chain(self):
        # kappa=1, alpha=1/2, sigma=0, N=1e4, L=4, c=0.15:
        # c_L = 0.15 e^-4, threshold = c_L * 1e4 * 1e-2
        sc = cf.star_constants(10_000, 4, 0.3, KernelSpec(alpha=0.5, sigma=0.0),
                               deterministic(2))
        assert sc.p_edge == pytest.approx(0.01)
        assert sc.stability_const == pytest.approx(0.15 * math.exp(-4))
        assert sc.threshold == pytest.approx(0.15 * math.exp(-4) * 100)
        assert sc.threshold == pytest.approx(0.2747, abs=2e-4)

    def test_prune_level_too_low(self):
        with pytest.raises(cf.ConditionError, match="prune level"):
            cf.star_constants(100, 1, 0.3, KernelSpec(alpha=0.5), deterministic(2))

    def test_window_from_speed_law(self):
        # T = 1 / (1 + v(n, L)) with v = nu n^eta at the star centre
        kern = KernelSpec(alpha=0.5, eta=0.5, nu=2.0)
        sc = cf.star_constants(100, 4, 0.3, kern, deterministic(2))
        assert sc.window == pytest.approx(1.0 / 21.0)

    def test_kickstart_flagged(self):
        # 2 lam T < 1 is the kick-start condition, (3/2) lam T < 1 local survival
        kern = KernelSpec(alpha=0.3, eta=0.0)
        sc = cf.star_constants(100, 4, 1.1, kern, deterministic(2))
        assert sc.local_ok and not sc.kick_ok
        assert not cf.star_constants(100, 4, 5.0, kern, deterministic(2)).local_ok

    def test_survival_windows_grow_with_lambda(self):
        # k_bar = floor(e^{delta lam^2 T^2 N p / 4}) and S = T k_bar; at N = 12
        # the exponent is ~1e-5, so both rates give a single window
        kern = KernelSpec(alpha=0.2, sigma=0.0, eta=0.0, nu=1.0)
        dist = geometric(0.5, k0=1)
        small, big = (cf.star_constants(12, 4, lam, kern, dist) for lam in (0.30, 0.45))
        assert small.survival_windows == big.survival_windows == 1
        small, big = (cf.star_constants(10**8, 4, lam, kern, dist) for lam in (0.30, 0.45))
        assert 1 < small.survival_windows < big.survival_windows
        expo = big.delta * 0.45 ** 2 * big.window ** 2 * 10**8 * big.p_edge / 4.0
        assert big.survival_windows == math.floor(math.exp(expo))
        assert big.survival_span == big.window * big.survival_windows


class TestPhaseClassifier:
    def test_spec_examples(self):
        res = cf.phase_classify(1.2, 1.0, 0.0, "power_law")
        assert res.regime == cf.SUBCRITICAL
        res = cf.phase_classify(0.3, 1.0, 0.1, "power_law")
        assert res.regime == cf.NO_PHASE_TRANSITION
        res = cf.phase_classify(0.6, 1.0, 0.3, "power_law")
        assert res.regime == cf.SUBCRITICAL
        assert res.lambda2_finite

    def test_comparison_route_needs_min_one(self):
        with_zero = cf.phase_classify(0.3, 1.0, 0.8, "power_law", offspring_min_one=False)
        without = cf.phase_classify(0.3, 1.0, 0.8, "power_law", offspring_min_one=True)
        assert with_zero.regime == cf.FINITE_CRITICAL
        assert without.regime == cf.NO_PHASE_TRANSITION

    def test_stretched_shifts_boundaries(self):
        assert cf.phase_classify(0.7, 1.0, -0.5, "power_law").regime == cf.NO_PHASE_TRANSITION
        # the same point with a stretched tail falls outside every region
        res = cf.phase_classify(0.7, 1.0, -0.5, "stretched", tail_param=0.5)
        assert res.regime == cf.UNKNOWN
        # below 1 - beta the finite-critical conclusion still applies
        res = cf.phase_classify(0.45, 0.0, 0.4, "stretched", tail_param=0.5)
        assert res.regime == cf.FINITE_CRITICAL

    def test_unknown_region(self):
        res = cf.phase_classify(1.5, 1.0, -0.5, "power_law")
        assert res.regime == cf.UNKNOWN
