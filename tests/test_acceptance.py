"""Acceptance suite: every release gate runs here at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s; pytest
reports failures either way). Statistical gates use 3 standard errors or the
stated test p-values; runtime budgets are asserted.
"""

import csv
import io
import json
import math
import os
import time

import numpy as np
import pytest

from cpdg import cli, closedform, experiments, kernels, lyapunov, oracle
from cpdg.engine import CPDG, Caps, Simulation, run_coupled, run_waitandsee_dominating
from cpdg.graph import build_finite, deterministic, power_law
from cpdg.kernels import KernelSpec, PercolatedOffspring
from cpdg.rng import replica_seed

from _oracles import (random_connected_graph, simulate_edge_race, simulate_geometric_sum,
                      tv_distance)

HERE = os.path.dirname(__file__)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class TestCriterion1EdgeLaw:
    def test_transmission_probability_and_tail(self):
        t0 = time.monotonic()
        gen = np.random.default_rng(1001)
        n = 1_000_000
        worst_z = 0.0
        for _ in range(10):
            lam = float(gen.uniform(0.5, 2.5))
            v = float(gen.uniform(0.5, 2.5))
            p = float(gen.uniform(0.2, 1.0))
            win, t_inf = simulate_edge_race(lam, v, p, n, gen)
            p_expect = closedform.transmission_prob(lam, v, p)
            se = math.sqrt(p_expect * (1 - p_expect) / n)
            z = abs(win.mean() - p_expect) / se
            worst_z = max(worst_z, z)
            assert z < 3, f"P(win) off by {z:.2f} SE at (lam={lam:.3f}, v={v:.3f}, p={p:.3f})"
            law = closedform.EdgeLaw.from_rates(lam, v, p)
            times = t_inf[win]
            for t in (0.5, 1.0, 2.0):
                tail = closedform.transmission_time_tail(law, t)
                emp = float((times > t).mean())
                se_t = math.sqrt(max(tail * (1 - tail), 1e-12) / times.size)
                zt = abs(emp - tail) / se_t
                worst_z = max(worst_z, zt)
                assert zt < 3, f"tail at {t} off by {zt:.2f} SE"
        elapsed = time.monotonic() - t0
        report(1, elapsed < 30.0,
               f"10 triples x 1e6 edge races, worst |z| = {worst_z:.2f}, {elapsed:.1f}s (< 30s)")


class TestCriterion2Laplace:
    def test_geometric_sum_transform(self):
        t0 = time.monotonic()
        gen = np.random.default_rng(2002)
        n = 1_000_000
        worst_z = 0.0
        for _ in range(5):
            alpha = float(gen.uniform(0.5, 3.0))
            beta = float(gen.uniform(0.5, 3.0))
            q = float(gen.uniform(0.2, 1.0))
            total = simulate_geometric_sum(alpha, beta, q, n, gen)
            emp = np.exp(-total)
            expect = closedform.geom_exp_laplace(alpha, beta, q, 1.0)
            z = abs(emp.mean() - expect) / (emp.std() / math.sqrt(n))
            worst_z = max(worst_z, z)
            assert z < 3, f"transform off by {z:.2f} SE at ({alpha:.3f},{beta:.3f},{q:.3f})"
        elapsed = time.monotonic() - t0
        report(2, elapsed < 30.0,
               f"5 triples x 1e6 geometric sums, worst |z| = {worst_z:.2f}, {elapsed:.1f}s (< 30s)")


class TestCriterion3OracleEquivalence:
    def test_tv_and_mean_extinction(self):
        t0 = time.monotonic()
        spec = KernelSpec(alpha=0.5, sigma=1.0, kappa=1.0, eta=0.0, nu=1.0)
        graphs = {"K2": build_finite([(0, 1)]),
                  "3-star": build_finite([(0, 1), (0, 2), (0, 3)])}
        n = 1_000_000
        details = []
        for name, g in graphs.items():
            model = oracle.build_exact(g, spec, 1.0)
            init = oracle.initial_distribution(model, [0])
            exact = oracle.transient_distribution(model, init, 1.0, tol=1e-12)
            ext = oracle.extinction_stats(model, init)
            counts = {}
            times = np.empty(n)
            caps = Caps(horizon=2000.0)
            for i in range(n):
                sim = Simulation(g, spec, 1.0, CPDG, {0}, caps, seed=replica_seed(33, i))
                rec = sim.run(snapshot_times=[1.0])
                _, infected, open_edges = sim.snapshots[0]
                idx = model.encode(infected, open_edges)
                counts[idx] = counts.get(idx, 0) + 1
                times[i] = rec.time
            tv = tv_distance(counts, exact, n)
            assert tv < 5e-3, f"{name}: TV {tv:.5f} >= 5e-3"
            se = times.std() / math.sqrt(n)
            z = abs(times.mean() - ext.mean_time) / se
            assert z < 3, f"{name}: mean extinction off by {z:.2f} SE"
            details.append(f"{name}: TV={tv:.4f}, mean-ext z={z:.2f}")
        elapsed = time.monotonic() - t0
        report(3, elapsed < 300.0, "; ".join(details) + f", {elapsed:.0f}s (< 300s)")


class TestCriterion4Couplings:
    def test_zero_violations(self):
        t0 = time.monotonic()
        spec = KernelSpec(alpha=0.4, sigma=1.0)
        caps = Caps(horizon=80.0, max_events=500_000)
        runs = 0
        for gseed in range(10):
            g = random_connected_graph(3 + gseed % 4, seed=gseed)
            full = set(range(g.n_vertices))
            for s in range(1000):
                seed = replica_seed(gseed + 400, s)
                _, _, viol_a = run_coupled(g, spec, 1.0, {0}, full, caps, seed)
                assert not viol_a, f"initial-condition violation: graph {gseed} seed {s}"
                _, _, viol_b = run_waitandsee_dominating(g, spec, 1.0, {0}, caps, seed)
                assert not viol_b, f"wait-and-see violation: graph {gseed} seed {s}"
                runs += 2
        elapsed = time.monotonic() - t0
        report(4, elapsed < 120.0,
               f"{runs} coupled runs, zero containment violations, {elapsed:.0f}s (< 120s)")


class TestCriterion5Supermartingale:
    def test_decay_envelope(self):
        t0 = time.monotonic()
        g = build_finite([(0, i) for i in range(1, 6)])  # 6-vertex star
        spec = KernelSpec(alpha=1.2, sigma=1.0)
        rep = lyapunov.check_conditions(g, spec, lyapunov.LINEAR_WEIGHT)
        lam = rep.lambda_star / 2
        trace = lyapunov.supermartingale_trace(g, spec, lam, lyapunov.LINEAR_WEIGHT,
                                               [0.5, 1.0, 2.0, 4.0], 10_000, seed=55)
        assert trace.asserted
        assert trace.passed, f"decay bound violated: mean {trace.mean_f} vs {trace.bound}"
        elapsed = time.monotonic() - t0
        margins = [b + 3 * s - m for m, s, b in zip(trace.mean_f, trace.se_f, trace.bound)]
        report(5, elapsed < 120.0,
               f"theta={trace.theta:.4f} at lam={lam:.4f}, slack min {min(margins):.4f}, "
               f"{elapsed:.0f}s (< 120s)")


class TestCriterion6RateBounds:
    def test_bounds_and_limit(self):
        t0 = time.monotonic()
        gen = np.random.default_rng(606)
        for _ in range(10_000):
            lam = float(gen.uniform(0.01, 20.0))
            v = float(gen.uniform(0.01, 20.0))
            p = float(gen.uniform(0.0, 1.0))
            a = closedform.lower_bound_rate(lam, v, p)
            lvp = lam * v * p / (lam + v)
            assert lvp - 1e-12 <= a <= 2 * lvp + 1e-12
        lam, p = 0.9, 0.35
        seq = [closedform.lower_bound_rate(lam, v, p) for v in (1, 10, 100, 1000, 10000)]
        assert all(x < y for x, y in zip(seq, seq[1:]))
        assert seq[-1] < lam * p
        assert seq[-1] == pytest.approx(lam * p, rel=1e-3)
        elapsed = time.monotonic() - t0
        report(6, elapsed < 1.0,
               f"1e4 random triples inside the bounds; a(nu) increasing to lam*p, {elapsed:.2f}s (< 1s)")


class TestCriterion7StableStar:
    def test_frequency_beats_bound(self):
        t0 = time.monotonic()
        spec = KernelSpec(alpha=0.2, sigma=0.0, kappa=1.0, eta=0.0, nu=1.0)
        dist = deterministic(2)
        details = []
        for n in (1000, 10_000):
            rep = experiments.stable_star_frequency(n, 4, spec, dist,
                                                    replicas=10_000, seed=707)
            se = math.sqrt(max(rep.frequency * (1 - rep.frequency), 1e-12) / rep.replicas)
            ok = rep.frequency >= rep.bound - 3 * se
            assert ok, f"N={n}: frequency {rep.frequency:.4f} below bound {rep.bound:.4f} - 3 SE"
            details.append(f"N={n}: freq={rep.frequency:.4f} >= bound={rep.bound:.4f}")
        elapsed = time.monotonic() - t0
        report(7, elapsed < 600.0, "; ".join(details) + f", {elapsed:.0f}s (< 600s)")


class TestCriterion8StarOrdering:
    def test_median_extinction_increases(self):
        t0 = time.monotonic()
        spec = KernelSpec(alpha=0.2, sigma=0.0, kappa=1.0, eta=0.0, nu=1.0)
        rep = experiments.star_survival([50, 100, 200, 400], 4, 0.4, spec,
                                        deterministic(2), replicas=1000, seed=808)
        assert all(a < b for a, b in zip(rep.medians, rep.medians[1:])), rep.medians
        assert all(p < 0.01 for p in rep.mann_whitney_p), rep.mann_whitney_p
        elapsed = time.monotonic() - t0
        meds = ", ".join(f"{m:.2f}" for m in rep.medians)
        ps = ", ".join(f"{p:.2g}" for p in rep.mann_whitney_p)
        report(8, elapsed < 600.0,
               f"medians [{meds}] increasing, one-sided p [{ps}] all < 0.01, {elapsed:.0f}s (< 600s)")


class TestCriterion9PathBound:
    def test_bound_below_upper_confidence_limit(self):
        t0 = time.monotonic()
        spec = KernelSpec(alpha=0.0, kappa=1.0, eta=0.0, nu=1.0,
                          custom_p=lambda a, b: 0.4)
        rep = experiments.path_transmission([1, 2, 3, 4, 5], 3, 0.5, spec,
                                            replicas=100_000, seed=909)
        for pt in rep.points:
            assert pt.bound <= pt.wilson[1], (
                f"r={pt.r}: bound {pt.bound:.3g} above UCL {pt.wilson[1]:.3g}")
        elapsed = time.monotonic() - t0
        pts = ", ".join(f"r={p.r}: {p.bound:.2g}<={p.p_hat:.2g}" for p in rep.points)
        report(9, elapsed < 600.0,
               f"{pts}; log-linear R2={rep.log_r2:.3f}, {elapsed:.0f}s (< 600s)")


class TestCriterion10PercolatedTail:
    def test_hill_estimate(self):
        t0 = time.monotonic()
        pd = PercolatedOffspring(power_law(2.5, 1), KernelSpec(alpha=0.5, sigma=1.0))
        gen = np.random.default_rng(1010)
        samples = kernels.sample_zeta_p_array(pd, gen, 1_000_000)
        est = kernels.tail_exponent_estimate(samples)
        assert est.reliable, est.note
        assert 3.5 <= est.exponent <= 4.5, est.exponent
        elapsed = time.monotonic() - t0
        report(10, elapsed < 120.0,
               f"Hill pmf exponent {est.exponent:.3f} in 4.0 +- 0.5 "
               f"({est.tail_points} tail points), {elapsed:.0f}s (< 120s)")


class TestCriterion11PhaseTable:
    def test_truth_table(self):
        with open(os.path.join(HERE, "data", "phase_truth_table.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            res = closedform.phase_classify(
                float(row["alpha"]), float(row["sigma"]), float(row["eta"]),
                row["tail"],
                tail_param=float(row["tail_param"]) if row["tail_param"] else None,
                offspring_min_one=row["offspring_min_one"] == "True")
            assert res.regime == row["expected_regime"], row
            assert res.lambda2_finite == (row["expected_lambda2_finite"] == "True"), row
            assert res.rule == row["rule"], row
        report(11, True, "20-point regime truth table matches exactly")


class TestCriterion12Determinism:
    def test_byte_identical_artifacts(self, tmp_path):
        configs = [
            ("simulate", {"graph": {"kind": "finite", "edges": [[0, 1], [0, 2], [0, 3]]},
                          "kernel": {"alpha": 0.5}, "lambda": 1.0, "horizon": 2.0,
                          "replicas": 2000, "records": True, "seed": 12}),
            ("star", {"kernel": {"alpha": 0.2, "sigma": 0.0},
                      "dist": {"kind": "deterministic", "d": 2},
                      "n_values": [200], "degree_bound": 4, "replicas": 300,
                      "stability_only": True, "seed": 12}),
        ]
        for sub, cfg in configs:
            config = cli.parse_config(json.dumps(cfg), sub)
            dirs = [tmp_path / f"{sub}-a", tmp_path / f"{sub}-b"]
            for d in dirs:
                rc = cli.dispatch(config, out_dir=str(d), stream=io.StringIO())
                assert rc == 0
            names = sorted(os.listdir(dirs[0]))
            assert names == sorted(os.listdir(dirs[1]))
            for name in names:
                a = (dirs[0] / name).read_bytes()
                b = (dirs[1] / name).read_bytes()
                assert a == b, f"{sub}/{name} differs between reruns"
        report(12, True, "reruns of two experiment configs are byte-identical")
