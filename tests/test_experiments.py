import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from _oracles import stable_star_reference, star_attempt_reference
from cpdg import engine, experiments
from cpdg.closedform import star_constants
from cpdg.experiments import (BGWGraphSpec, ExperimentError, FiniteGraphSpec,
                              estimate_survival, path_graph_with_degree,
                              path_transmission, stable_star_frequency,
                              star_survival, wilson_interval)
from cpdg.graph import TreeCaps, deterministic, geometric, power_law
from cpdg.kernels import KernelSpec
from cpdg.rng import TAG_EXPERIMENT, mix

K2_SPEC = FiniteGraphSpec(edges=((0, 1),))
STAR_SPEC = FiniteGraphSpec(edges=((0, 1), (0, 2), (0, 3)))


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6
        assert wilson_interval(0, 10)[0] == pytest.approx(0.0, abs=1e-12)
        assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            wilson_interval(0, 0)


class TestEstimateSurvival:
    def test_zero_rate_never_survives(self):
        est, _ = estimate_survival(K2_SPEC, KernelSpec(alpha=0.5), 0.0,
                                   horizon=50.0, replicas=300, seed=1)
        assert est.alive_at_horizon == 0
        assert est.extinct == 300

    def test_counts_partition_replicas(self):
        est, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.0,
                                   horizon=5.0, replicas=500, seed=2)
        assert est.extinct + est.alive_at_horizon + est.censored == 500

    def test_closed_edges_leave_pure_death(self):
        # p = 0: survival at the horizon is the chance the root never recovers
        spec = KernelSpec(alpha=0.0, custom_p=lambda a, b: 0.0)
        horizon = 3.0
        est, _ = estimate_survival(K2_SPEC, spec, 2.0, horizon=horizon,
                                   replicas=20_000, seed=3)
        expect = math.exp(-horizon)
        se = math.sqrt(expect * (1 - expect) / est.replicas)
        assert abs(est.p_alive - expect) < 3 * se

    def test_deterministic_reruns(self):
        a, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.2,
                                 horizon=8.0, replicas=400, seed=9)
        b, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.2,
                                 horizon=8.0, replicas=400, seed=9)
        assert a == b

    def test_bgw_spec_draws_fresh_trees(self):
        spec = BGWGraphSpec(dist=geometric(0.4, k0=1), caps=TreeCaps(2000, 50))
        est, recs = estimate_survival(spec, KernelSpec(alpha=0.6, sigma=1.0), 0.8,
                                      horizon=4.0, replicas=300, seed=4,
                                      collect_records=True)
        assert len(recs) == 300
        assert est.extinct + est.alive_at_horizon + est.censored == 300

    def test_finite_spec_builds_its_graph_once(self):
        spec = FiniteGraphSpec(edges=((0, 1), (1, 2)))
        (g1, init1), (g2, init2) = spec.build(0), spec.build(1)
        assert g1 is g2
        assert init1 == init2 == {0} and init1 is not init2
        assert spec == FiniteGraphSpec(edges=((0, 1), (1, 2)))

    def test_threads_do_not_change_results(self):
        est1, recs1 = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.0,
                                        horizon=5.0, replicas=400, seed=21,
                                        collect_records=True, threads=1)
        est2, recs2 = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.0,
                                        horizon=5.0, replicas=400, seed=21,
                                        collect_records=True, threads=2)
        assert est1 == est2
        assert recs1 == recs2

    @pytest.mark.parametrize("threads, replicas, cores, workers", [
        (100_000, 6, 4, 4),  # bounded by the cores
        (100_000, 3, 4, 3),  # bounded by the chunks: one replica each
        (2, 50, 4, 2),       # as asked
    ])
    def test_pool_size_bounded(self, monkeypatch, threads, replicas, cores, workers):
        import multiprocessing
        sizes = []

        class SerialPool:
            """Stands in for multiprocessing.Pool without starting processes."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        est, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.0, horizon=1.0,
                                   replicas=replicas, seed=7, threads=threads)
        assert sizes == [workers]
        serial, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), 1.0, horizon=1.0,
                                      replicas=replicas, seed=7)
        assert est == serial

    def test_parallel_rejects_unpicklable_kernel(self):
        spec = KernelSpec(alpha=0.0, custom_p=lambda a, b: 0.5)
        with pytest.raises(ExperimentError, match="picklable"):
            estimate_survival(K2_SPEC, spec, 1.0, 2.0, 50, seed=1, threads=2)

    def test_monotone_in_lambda(self):
        # survival proportion non-decreasing along a rate grid, within 3 SE
        values = []
        for j, lam in enumerate((0.3, 0.8, 1.5, 2.5, 4.0)):
            est, _ = estimate_survival(STAR_SPEC, KernelSpec(alpha=0.3), lam,
                                       horizon=10.0, replicas=4000, seed=11)
            values.append(est)
        for a, b in zip(values, values[1:]):
            slack = 3 * math.sqrt(a.se_alive ** 2 + b.se_alive ** 2)
            assert a.p_alive <= b.p_alive + slack


def two_sample_chi2(a, b):
    """p of a two-sample chi-squared test on integer samples; neighbouring
    values are pooled until each cell holds at least 10 of the two samples'
    values together."""
    values, counts = np.unique(np.concatenate((a, b)), return_counts=True)
    edges, pooled = [], 0
    for v, c in zip(values, counts):
        if pooled >= 10:
            edges.append(v)
            pooled = 0
        pooled += c
    if pooled < 10 and edges:
        edges.pop()  # the last cell joins the one before it
    if not edges:
        return 1.0
    table = [np.bincount(np.searchsorted(edges, x, side="right"), minlength=len(edges) + 1)
             for x in (a, b)]
    return float(stats.chi2_contingency(table).pvalue)


class TestStars:
    kernel = KernelSpec(alpha=0.2, sigma=0.0, kappa=1.0, eta=0.0, nu=1.0)

    def test_stability_frequency_beats_bound(self):
        rep = stable_star_frequency(500, 4, self.kernel, deterministic(2),
                                    replicas=400, seed=8)
        se = math.sqrt(max(rep.frequency * (1 - rep.frequency), 1e-9) / rep.replicas)
        assert rep.frequency >= rep.bound - 3 * se

    @pytest.mark.parametrize("dist, kernel", [
        (deterministic(2), KernelSpec(alpha=0.2, sigma=0.0)),  # one degree class
        # three classes with different p and none of degree 1
        (geometric(0.3, 1), KernelSpec(alpha=0.5, sigma=1.0, kappa=3.0, nu=2.0)),
    ])
    def test_count_chain_matches_per_child_sampler(self, dist, kernel):
        n, windows, t_cell, traces = 30, 20, 0.15, 3000
        chain = experiments._stable_star_chain(n, 4, kernel, dist, t_cell)
        new = np.array([experiments._good_counts(n, chain, windows,
                                                 np.random.default_rng([1, i]), -1)
                        for i in range(traces)])
        ref = np.array([stable_star_reference(n, kernel, dist, 4, t_cell, windows,
                                              np.random.default_rng([2, i]))
                        for i in range(traces)])
        assert new.shape == ref.shape == (traces, windows + 1)
        samples = [(f"window {k}", new[:, k], ref[:, k]) for k in (0, 1, 2, windows)]
        samples += [("minimum", new.min(axis=1), ref.min(axis=1)),
                    ("windows <= 1", (new <= 1).sum(axis=1), (ref <= 1).sum(axis=1))]
        for label, a, b in samples:
            assert two_sample_chi2(a, b) > 1e-3, label

    def test_frequency_matches_per_child_sampler(self):
        # end to end at a point where the stable star often fails (frequency
        # about 0.7), so a sampler that always reports it stable fails here
        n, kernel, dist, replicas = 600, KernelSpec(alpha=0.4, sigma=0.5), geometric(0.3, 1), 1000
        rep = stable_star_frequency(n, 4, kernel, dist, replicas=replicas, seed=21)
        sc = star_constants(n, 4, 1.0, kernel, dist)
        ref = sum(int(stable_star_reference(n, kernel, dist, 4, sc.window, sc.stable_windows,
                                            np.random.default_rng([3, i])).min() > sc.threshold)
                  for i in range(replicas))
        assert 0.5 < ref / replicas < 0.9
        pooled = (rep.stable + ref) / (2 * replicas)
        z = (rep.stable - ref) / replicas / math.sqrt(pooled * (1 - pooled) * 2 / replicas)
        assert 2 * stats.norm.sf(abs(z)) > 1e-3, (rep.frequency, ref / replicas)

    def test_stable_horizon_cap(self):
        # 1.9e75 stable windows at n = 1e6; the sampler refuses before drawing
        with pytest.raises(ExperimentError, match=r"n=1000000 .* cap of 16384"):
            stable_star_frequency(10**6, 4, self.kernel, deterministic(2),
                                  replicas=1, seed=1)
        # star survival censors such a star without drawing its background
        (rr,) = star_survival([10**5], 4, 0.4, self.kernel, deterministic(2),
                              replicas=1, seed=1).records[0].replicas
        assert rr.outcome == engine.CAP and rr.good_trace == ()

    def test_survival_records_consistent(self):
        rep = star_survival([30, 60], 4, 0.4, self.kernel, deterministic(2),
                            replicas=80, seed=9, max_windows=2048)
        for rec in rep.records:
            for rr in rec.replicas:
                # stable flag recomputable from the stored trace + constants
                assert rr.stable == (min(rr.good_trace) > rec.constants.threshold)
        assert len(rep.mann_whitney_p) == 1

    def test_zero_rate_median_is_order_one(self):
        rep = star_survival([100], 4, 1e-9, self.kernel, deterministic(2),
                            replicas=60, seed=10, max_windows=512)
        # no infections: extinction once the root recovers
        assert rep.medians[0] < 5.0

    def test_local_survival_guard(self):
        with pytest.raises(ExperimentError):
            star_survival([100], 4, 3.0, self.kernel, deterministic(2),
                          replicas=10, seed=11)

    @staticmethod
    def background(n, kernel, dist, sc, k_max, seed):
        deg = dist.sample_array(np.random.default_rng(mix(seed, 1)), n) + 1
        deg = deg[deg <= sc.degree_bound]
        return deg, experiments._StarBackground(n, kernel, deg, sc.window, k_max,
                                                np.random.default_rng(mix(seed, 3)))

    def test_flat_background_matches_per_child_loops(self):
        # power_law(2.5) gives children of several degrees, drops some (and at
        # n=1 sometimes all); eta and nu make their update rates differ
        lam = 1.0
        seen = set()
        for dist, n, eta, nu, k_max in itertools.product(
                (deterministic(2), power_law(2.5)), (1, 2, 5, 50, 400), (0.0, 0.5),
                (1.0, 3.0), (4, 256)):
            kernel = replace(self.kernel, eta=eta, nu=nu)
            # the constants only set T and the thresholds; they need n >= 4
            sc = star_constants(max(n, 4), 4, lam, kernel, dist)
            # seed 31 makes power_law(2.5) drop the only child of n=1
            for seed in ((0, 1, 31) if n < 50 else (0,)):
                deg, bg = self.background(n, kernel, dist, sc, k_max, seed)
                new, _ = experiments._star_attempt(sc, lam, bg, random.Random(mix(seed, 4)))
                ref = star_attempt_reference(n, sc, lam, kernel, deg, deg.size,
                                             np.random.default_rng(mix(seed, 3)),
                                             random.Random(mix(seed, 4)), k_max,
                                             sc.stable_windows)
                assert new == ref, (dist, n, eta, nu, k_max, seed)
                seen.add((deg.size == 0, ref is None))
        assert seen == {(False, False), (False, True), (True, False)}

    def test_extended_background_replays_the_race(self):
        # an attempt the shorter background decides comes out the same on
        # the extended one
        kernel = replace(self.kernel, eta=0.5, nu=3.0)
        sc = star_constants(50, 4, 1.0, kernel, power_law(2.5))
        decided = 0
        for seed in range(40):
            _, bg = self.background(50, kernel, power_law(2.5), sc, 8, seed)
            first, t_safe = experiments._star_attempt(sc, 1.0, bg, random.Random(seed))
            bg.extend(16, np.random.default_rng(mix(seed, 3, 16)))
            again, _ = experiments._star_attempt(sc, 1.0, bg, random.Random(seed))
            if first is not None and first.extinction_time < t_safe:
                decided += 1
                assert again == first
        assert 0 < decided < 40

    def test_first_background_length_keeps_the_law(self, monkeypatch):
        # at these parameters ~90 % of replicas outlive 16 windows, so the law
        # rests on the retries; accepting a retry's race unchecked pulled
        # extinction times down
        samples = []
        for first in (16, 1024):
            monkeypatch.setattr(experiments, "_FIRST_WINDOWS", first)
            rep = star_survival([1000], 4, 1.2, self.kernel, deterministic(2),
                                replicas=150, seed=first)
            samples.append([r.extinction_time for r in rep.records[0].replicas])
        assert stats.ks_2samp(*samples).pvalue > 1e-3

    def test_trace_covers_the_stable_windows(self):
        # 412 stable windows outgrow the first background's 16; the flag
        # must be judged on all of them, or the replica censored
        args = ([15000], 4, 0.05, KernelSpec(alpha=0.2, sigma=0.0), deterministic(2))
        rec = star_survival(*args, replicas=1, seed=1).records[0]
        assert rec.constants.stable_windows == 412
        (rr,) = rec.replicas
        assert len(rr.good_trace) == 413
        assert rr.stable == (min(rr.good_trace) > rec.constants.threshold)
        (rr,) = star_survival(*args, replicas=1, seed=1, max_windows=300).records[0].replicas
        assert rr.outcome == engine.CAP and rr.good_trace == ()


class TestPath:
    def test_graph_has_prescribed_degrees(self):
        g = path_graph_with_degree(4, 3)
        for v in range(5):
            assert g.degree(v) == 3

    def test_single_edge_rate_sanity(self):
        spec = KernelSpec(alpha=0.0, custom_p=lambda a, b: 0.4)
        rep = path_transmission([1], 3, 0.5, spec, replicas=20_000, seed=12)
        pt = rep.points[0]
        # bounded below by the closed-start bound, and the bound holds
        assert pt.bound <= pt.wilson[1]
        assert pt.p_hat > pt.bound

    def test_decay_roughly_geometric(self):
        spec = KernelSpec(alpha=0.0, custom_p=lambda a, b: 0.4)
        rep = path_transmission([1, 2, 3], 3, 0.7, spec, replicas=8000, seed=13)
        ps = [pt.p_hat for pt in rep.points]
        assert ps[0] > ps[1] > ps[2] > 0


class TestPenalisedComparison:
    def test_orderings_and_gap(self):
        # the static lower-bound process never beats the CPDG (within 3
        # combined SE) as the update speed grows; the CPDG runs on the thinned
        # background, which has no update events, so large nu is affordable
        spec = FiniteGraphSpec(edges=((0, 1), (1, 2), (2, 3)))
        kernel, lam, horizon, replicas = KernelSpec(alpha=0.4, sigma=1.0), 1.5, 8.0, 3000
        pen, _ = estimate_survival(spec, kernel, lam, horizon, replicas,
                                   mix(14, TAG_EXPERIMENT, 0), variant=engine.PENALISED)
        for j, nu in enumerate([1.0, 10.0, 100.0]):
            kern = replace(kernel, nu=nu)
            cp, _ = estimate_survival(spec, kern, lam, horizon, replicas,
                                      mix(14, TAG_EXPERIMENT, 2 * j + 1), bg_mode="thinned")
            lo, _ = estimate_survival(spec, kern, lam, horizon, replicas,
                                      mix(14, TAG_EXPERIMENT, 2 * j + 2),
                                      variant=engine.LOWER_BOUND)
            assert lo.p_alive <= cp.p_alive + 3.0 * math.sqrt(cp.se_alive ** 2 + lo.se_alive ** 2)
        # the fast-update gap to the penalised limit at the largest nu is small
        assert abs(cp.p_alive - pen.p_alive) < 0.08

    def test_p_one_matches_classical(self):
        spec = KernelSpec(alpha=0.0)
        caps = engine.Caps(horizon=300.0)
        a = [engine.run_replica(spec_g, spec, 0.9, engine.CPDG, {0}, caps, seed=s).time
             for spec_g in [STAR_SPEC.build(0)[0]] for s in range(8000)]
        b = [engine.run_replica(spec_g, spec, 0.9, engine.PENALISED, {0}, caps, seed=s + 10**6).time
             for spec_g in [STAR_SPEC.build(0)[0]] for s in range(8000)]
        assert stats.ks_2samp(a, b).pvalue > 0.001
