import math

import numpy as np
import pytest
from scipy import stats

from cpdg import oracle
from cpdg.engine import (WAIT_AND_SEE, Caps, Simulation, run_coupled, run_coupled_lambda,
                         run_waitandsee_dominating)
from cpdg.graph import build_finite
from cpdg.kernels import KernelSpec
from cpdg.rng import replica_seed

from _oracles import random_connected_graph

SPEC = KernelSpec(alpha=0.4, sigma=1.0, nu=1.0)
CAPS = Caps(horizon=60.0, max_events=200_000)


class TestInitialConditionMonotonicity:
    def test_equal_inits_identical(self):
        g = build_finite([(0, 1), (0, 2), (0, 3)])
        for seed in range(50):
            small, big, violation = run_coupled(g, SPEC, 1.0, {0}, {0}, CAPS, seed)
            assert not violation
            assert small == big

    def test_full_star_dominates_root(self):
        g = build_finite([(0, 1), (0, 2), (0, 3)])
        for seed in range(200):
            small, big, violation = run_coupled(g, SPEC, 1.2, {0}, {0, 1, 2, 3}, CAPS, seed)
            assert not violation
            if big.extinct and small.extinct:
                assert small.time <= big.time + 1e-12

    def test_subset_rejected(self):
        g = build_finite([(0, 1)])
        with pytest.raises(ValueError):
            run_coupled(g, SPEC, 1.0, {0, 1}, {0}, CAPS, 1)

    def test_random_sweep(self):
        for gseed in range(5):
            g = random_connected_graph(6, seed=gseed)
            for seed in range(100):
                small, big, violation = run_coupled(
                    g, SPEC, 1.0, {0}, {0, g.n_vertices - 1}, CAPS, replica_seed(gseed, seed))
                assert not violation


class TestLambdaMonotonicity:
    def test_thinned_small_rate_contained(self):
        for gseed in range(4):
            g = random_connected_graph(5, seed=gseed + 50)
            for seed in range(150):
                small, big, violation = run_coupled_lambda(
                    g, SPEC, 0.6, 1.5, {0}, CAPS, replica_seed(gseed + 10, seed))
                assert not violation
                if big.extinct and small.extinct:
                    assert small.time <= big.time + 1e-12

    def test_both_rates_zero(self):
        g = build_finite([(0, 1), (0, 2)])
        small, big, violation = run_coupled_lambda(g, SPEC, 0.0, 0.0, {0}, CAPS, 1)
        assert not violation
        assert small == big and small.peak_infected == 1

    def test_rate_order_enforced(self):
        g = build_finite([(0, 1)])
        with pytest.raises(ValueError):
            run_coupled_lambda(g, SPEC, 2.0, 1.0, {0}, CAPS, 1)


class TestWaitAndSeeDomination:
    def test_lambda_zero_equal_sets(self):
        g = build_finite([(0, 1), (1, 2)])
        for seed in range(50):
            cpdg, ws, violation = run_waitandsee_dominating(g, SPEC, 0.0, {0}, CAPS, seed)
            assert not violation
            assert cpdg.time == ws.time  # only the shared recovery moves either

    def test_ws_extinction_implies_cpdg_extinct(self):
        g = build_finite([(0, 1), (0, 2), (1, 3)])
        for seed in range(300):
            cpdg, ws, violation = run_waitandsee_dominating(g, SPEC, 0.9, {0}, CAPS, seed)
            assert not violation
            if ws.extinct:
                assert cpdg.extinct
                assert cpdg.time <= ws.time + 1e-12

    def test_random_sweep(self):
        for gseed in range(5):
            g = random_connected_graph(5, seed=gseed + 99)
            for seed in range(100):
                _, _, violation = run_waitandsee_dominating(
                    g, SPEC, 1.1, {0}, CAPS, replica_seed(gseed + 30, seed))
                assert not violation


class TestMarginalLaws:
    """Each side of a coupled run keeps the law of its own process.

    Mean extinction times on the 3-star against the exact chain (within 4
    SE), and the wait-and-see side against `Simulation`'s wait-and-see
    process by a two-sample KS test.
    """

    STAR3 = build_finite([(0, 1), (0, 2), (0, 3)])
    KERNEL = KernelSpec(alpha=0.5, sigma=1.0, nu=1.5)
    LONG = Caps(horizon=1e4)
    N = 6000

    def exact_mean(self, lam, init):
        model = oracle.build_exact(self.STAR3, self.KERNEL, lam)
        return oracle.extinction_stats(model, oracle.initial_distribution(model, init)).mean_time

    def assert_mean(self, records, lam, init):
        times = np.array([r.time for r in records])
        assert all(r.extinct for r in records)
        exact = self.exact_mean(lam, init)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - exact) <= 4.0 * se, (times.mean(), exact, se)

    def test_nested_initial_sets(self):
        runs = [run_coupled(self.STAR3, self.KERNEL, 1.0, {0}, {0, 1, 2, 3}, self.LONG,
                            replica_seed(101, i)) for i in range(self.N)]
        self.assert_mean([r[0] for r in runs], 1.0, [0])
        self.assert_mean([r[1] for r in runs], 1.0, [0, 1, 2, 3])

    def test_thinned_rates(self):
        runs = [run_coupled_lambda(self.STAR3, self.KERNEL, 0.6, 1.5, {0}, self.LONG,
                                   replica_seed(102, i)) for i in range(self.N)]
        self.assert_mean([r[0] for r in runs], 0.6, [0])
        self.assert_mean([r[1] for r in runs], 1.5, [0])

    def test_wait_and_see_sides(self):
        runs = [run_waitandsee_dominating(self.STAR3, self.KERNEL, 1.0, {0}, self.LONG,
                                          replica_seed(103, i)) for i in range(self.N)]
        self.assert_mean([r[0] for r in runs], 1.0, [0])
        coupled = [r[1].time for r in runs]
        assert all(r[1].extinct for r in runs)
        alone = [Simulation(self.STAR3, self.KERNEL, 1.0, WAIT_AND_SEE, {0}, self.LONG,
                            replica_seed(104, i)).run().time for i in range(self.N)]
        assert stats.ks_2samp(coupled, alone).pvalue > 1e-3
