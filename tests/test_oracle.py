import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply, spsolve

from cpdg import engine, oracle
from cpdg.engine import CPDG, Caps, Simulation
from cpdg.graph import build_finite, grow_bgw, deterministic, TreeCaps
from cpdg.kernels import KernelSpec
from cpdg.rng import replica_seed

from _oracles import build_exact_loop

K2 = build_finite([(0, 1)])
STAR3 = build_finite([(0, 1), (0, 2), (0, 3)])
PATH4 = build_finite([(0, 1), (1, 2), (2, 3)])
TRIANGLE = build_finite([(0, 1), (1, 2), (0, 2)])
PATH6 = build_finite([(i, i + 1) for i in range(5)])
CYCLE6 = build_finite([(i, (i + 1) % 6) for i in range(6)])
SPEC = KernelSpec(alpha=0.5, sigma=1.0, kappa=1.0, eta=0.0, nu=1.0)


class TestBuildExact:
    def test_k2_state_count(self):
        model = oracle.build_exact(K2, SPEC, 1.0)
        assert model.n_states == 8

    def test_generator_rows_sum_to_zero(self):
        for edges in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]):
            model = oracle.build_exact(build_finite(edges), SPEC, 1.3)
            rows = np.asarray(model.generator.sum(axis=1)).ravel()
            assert np.abs(rows).max() < 1e-12

    def test_extinct_class_closed(self):
        model = oracle.build_exact(STAR3, SPEC, 1.0)
        q = model.generator.tocoo()
        c_bits, _ = model.split_bits(np.arange(model.n_states))
        for i, j, val in zip(q.row, q.col, q.data):
            if c_bits[i] == 0 and val > 0:
                assert c_bits[j] == 0  # no infections out of the empty class

    def test_state_cap(self):
        with pytest.raises(oracle.StateCapExceeded):
            oracle.build_exact(K2, SPEC, 1.0, state_cap=4)

    def test_lazy_rejected(self):
        g = grow_bgw(deterministic(2), seed=1, caps=TreeCaps(100, 10))
        with pytest.raises(oracle.StateCapExceeded):
            oracle.build_exact(g, SPEC, 1.0)

    # lam = 0 drops every infection, alpha = 0 opens every edge for good
    # (close rate 0) and a zero custom p never opens one (open rate 0)
    @pytest.mark.parametrize("graph", [K2, STAR3, PATH4, TRIANGLE, CYCLE6],
                             ids=["K2", "3-star", "4-path", "triangle", "cycle-6"])
    @pytest.mark.parametrize("spec,lam", [
        (SPEC, 1.3), (SPEC, 0.0), (KernelSpec(alpha=0.0), 0.7),
        (KernelSpec(alpha=0.5, nu=2.5, custom_p=lambda dx, dy: 0.0 if dx == dy else 0.4), 1.1),
    ], ids=["lam1.3", "lam0", "p1", "p0"])
    def test_matches_loop_assembly(self, graph, spec, lam):
        model = oracle.build_exact(graph, spec, lam)
        ref = build_exact_loop(graph, spec, lam)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(model.generator, name), getattr(ref.generator, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        assert model.uniformization_rate == ref.uniformization_rate


class TestTransient:
    def test_time_zero_is_init(self):
        model = oracle.build_exact(K2, SPEC, 1.0)
        init = oracle.initial_distribution(model, [0])
        assert oracle.transient_prob(model, init, 0.0, lambda c, b: (c & 1) == 1) == 1.0

    def test_pure_death_matches_exponential(self):
        model = oracle.build_exact(K2, SPEC, 0.0)
        init = oracle.initial_distribution(model, [0])
        for t in (0.3, 1.0, 2.5):
            p = oracle.transient_prob(model, init, t, lambda c, b: c != 0)
            assert abs(p - math.exp(-t)) < 1e-9

    def test_stationary_background_marginal(self):
        model = oracle.build_exact(STAR3, SPEC, 1.0)
        init = oracle.initial_distribution(model, [0])
        for t in (0.0, 0.7, 2.0):
            for j in range(3):
                p = oracle.transient_prob(model, init, t,
                                          lambda c, b, j=j: (b >> j & 1) == 1)
                assert p == pytest.approx(model.p_open[j], abs=1e-9)

    def test_long_horizon_meets_tolerance(self):
        # mu = 2e4 uniformization steps: Poisson weights from a running log
        # recursion drift by about 5e-11 here, so only accurate weights give
        # a law within the default tol of 1e-12
        model = oracle.build_exact(K2, KernelSpec(alpha=0.5, sigma=1.0, nu=50), 1.0)
        init = oracle.initial_distribution(model, [0])
        t = 2e4 / model.uniformization_rate
        dist = oracle.transient_distribution(model, init, t)
        ref = expm_multiply((model.generator.T * t).tocsr(), init)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert np.abs(dist - ref).sum() < 1e-12

    def test_lost_mass_raises(self):
        # a generator whose rows do not sum to zero (a killed chain) loses
        # mass at every step; the law must not come back short without a word
        leak = oracle.ExactModel(n_vertices=1, edges=(), p_open=np.zeros(0), lam=0.0,
                                 generator=-sparse.identity(2, format="csr"),
                                 uniformization_rate=1.0)
        with pytest.raises(oracle.UniformizationError, match="lost"):
            oracle.transient_distribution(leak, np.array([0.0, 1.0]), 1.0)

    def test_monotone_in_lambda(self):
        init_template = None
        probs = []
        for lam in (0.2, 0.6, 1.0, 1.8, 3.0):
            model = oracle.build_exact(STAR3, SPEC, lam)
            init = oracle.initial_distribution(model, [0])
            probs.append(oracle.transient_prob(model, init, 1.0, lambda c, b: c != 0))
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_cross_oracle_k2_alive(self):
        model = oracle.build_exact(K2, SPEC, 1.0)
        init = oracle.initial_distribution(model, [0])
        exact = oracle.transient_prob(model, init, 1.0, lambda c, b: c != 0)
        n = 50_000
        alive = 0
        for i in range(n):
            sim = Simulation(K2, SPEC, 1.0, CPDG, {0}, Caps(horizon=1.5),
                             seed=replica_seed(11, i))
            sim.run(snapshot_times=[1.0])
            alive += len(sim.snapshots[0][1]) > 0
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(alive / n - exact) < 3 * se


class TestExtinctionStats:
    def test_single_infected_vertex_mean_one(self):
        model = oracle.build_exact(K2, SPEC, 0.0)
        init = oracle.initial_distribution(model, [0])
        st = oracle.extinction_stats(model, init)
        assert st.p_extinct == pytest.approx(1.0, abs=1e-10)
        assert st.mean_time == pytest.approx(1.0, abs=1e-10)

    def test_always_extinct(self):
        for lam in (0.5, 2.0):
            model = oracle.build_exact(STAR3, SPEC, lam)
            init = oracle.initial_distribution(model, [0])
            st = oracle.extinction_stats(model, init)
            assert st.p_extinct == pytest.approx(1.0, abs=1e-9)

    def test_mean_time_against_monte_carlo(self):
        model = oracle.build_exact(K2, KernelSpec(alpha=0.0), 1.0)
        init = oracle.initial_distribution(model, [0])
        st = oracle.extinction_stats(model, init)
        n = 50_000
        times = np.empty(n)
        for i in range(n):
            rec = engine.run_replica(K2, KernelSpec(alpha=0.0), 1.0, CPDG, {0},
                                     Caps(horizon=500.0), seed=replica_seed(12, i))
            times[i] = rec.time
        se = times.std() / math.sqrt(n)
        assert abs(times.mean() - st.mean_time) < 3 * se

    @pytest.mark.parametrize("graph", [PATH6, CYCLE6], ids=["path-6", "cycle-6"])
    def test_krylov_matches_direct(self, graph, monkeypatch):
        for lam in (0.75, 1.25, 4.0, 8.0):
            model = oracle.build_exact(graph, SPEC, lam)
            init = oracle.initial_distribution(model, [0])
            krylov = oracle.extinction_stats(model, init)
            assert krylov.n_transient_reachable > oracle.DIRECT_MAX
            with monkeypatch.context() as m:
                m.setattr(oracle, "DIRECT_MAX", model.n_states)
                direct = oracle.extinction_stats(model, init)
            assert krylov.mean_time == pytest.approx(direct.mean_time, rel=1e-9, abs=0.0)
            assert krylov.p_extinct == pytest.approx(direct.p_extinct, rel=1e-9, abs=0.0)

    def test_failed_krylov_falls_back_to_direct(self, monkeypatch):
        # every Krylov pass returns 1.1 times the exact step, so each pass cuts
        # the true residual only tenfold and none reaches the gate: the LU
        # answer must come back, not the last Krylov one
        model = oracle.build_exact(STAR3, SPEC, 1.25)
        init = oracle.initial_distribution(model, [0])
        direct = oracle.extinction_stats(model, init)
        calls = []

        def off_by_a_tenth(a, b, **kwargs):
            calls.append(b.size)
            return 1.1 * spsolve(a.tocsc(), b), 0

        monkeypatch.setattr(oracle, "DIRECT_MAX", 0)
        monkeypatch.setattr(oracle, "bicgstab", off_by_a_tenth)
        st = oracle.extinction_stats(model, init)
        # both right-hand sides, every pass
        assert calls == [st.n_transient_reachable] * (2 * oracle.KRYLOV_PASSES)
        assert (st.mean_time, st.p_extinct) == (direct.mean_time, direct.p_extinct)
