import math
import random

import numpy as np
import pytest
from scipy import stats

from cpdg import graph
from cpdg.graph import (DistributionError, GraphError, TreeCaps, TreeCapExceeded,
                        build_finite, deterministic, geometric,
                        grow_bgw, load_edge_list, power_law,
                        stretched_exponential, tabulated)


class TestBuildFinite:
    def test_single_edge(self):
        g = build_finite([(0, 1)])
        assert g.n_vertices == 2
        assert [g.degree(v) for v in range(2)] == [1, 1]

    def test_star(self):
        g = build_finite([(0, 1), (0, 2), (0, 3)])
        assert [g.degree(v) for v in range(4)] == [3, 1, 1, 1]

    def test_path(self):
        g = build_finite([(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_rejections(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_finite([(0, 0)])
        with pytest.raises(GraphError, match="duplicate"):
            build_finite([(0, 1), (1, 0)])
        with pytest.raises(GraphError, match="disconnected"):
            build_finite([(0, 1), (2, 3)])

    def test_adjacency_symmetric(self):
        g = build_finite([(0, 1), (1, 2), (0, 2)])
        for u in range(3):
            for w in g.neighbors(u):
                assert u in g.neighbors(w)


class TestDistributions:
    def test_deterministic(self):
        d = deterministic(2)
        assert d.pmf_at(2) == 1.0
        assert d.pmf_at(3) == 0.0
        assert d.mean == 2.0

    def test_pmf_normalizes(self):
        for dist in (power_law(2.5), geometric(0.3), stretched_exponential(0.5),
                     tabulated([1, 2, 3])):
            total = dist.pmf.sum() + (1.0 - dist.head_mass if dist.tail else 0.0)
            assert abs(total - 1.0) < 1e-12

    def test_power_law_moments(self):
        d = power_law(2.5, 1)
        # E[z] = zeta(1.5)/zeta(2.5)
        expect = 2.6123753486854883 / 1.3414872572509171
        assert d.mean == pytest.approx(expect, rel=1e-9)
        assert power_law(1.8).mean == math.inf

    def test_power_law_sampling_matches_pmf(self):
        d = power_law(2.5, 1)
        gen = np.random.default_rng(7)
        zs = d.sample_array(gen, 100_000)
        mean = zs.mean()
        se = zs.std() / math.sqrt(zs.size)
        assert abs(mean - d.mean) < 3 * se

    def test_mean_below_and_prob_le(self):
        d = geometric(0.5, 1)  # P(k) = 2^-k on k >= 1
        assert d.mean_below(3) == pytest.approx(0.5 + 2 * 0.25)
        assert d.prob_le(2) == pytest.approx(0.75)
        assert d.prob_le(0) == 0.0

    def test_bad_parameters(self):
        with pytest.raises(DistributionError):
            power_law(1.0)
        with pytest.raises(DistributionError):
            power_law(2.5, k0=0)
        with pytest.raises(DistributionError):
            stretched_exponential(1.5)
        with pytest.raises(DistributionError):
            tabulated([])


class TestBGW:
    def test_deterministic_two(self):
        g = grow_bgw(deterministic(2), seed=1, caps=TreeCaps(1000, 50))
        assert g.degree(0) == 2
        for child in g.children(0):
            assert g.degree(child) == 3

    def test_zero_offspring_single_vertex(self):
        g = grow_bgw(deterministic(0), seed=1, caps=TreeCaps(10, 5))
        assert g.degree(0) == 0
        assert g.children(0) == []
        assert g.n_vertices == 1

    def test_reproducible(self):
        a = grow_bgw(power_law(2.5), seed=99, caps=TreeCaps(10_000, 100))
        b = grow_bgw(power_law(2.5), seed=99, caps=TreeCaps(10_000, 100))
        frontier = [0]
        for _ in range(50):
            if not frontier:
                break
            v = frontier.pop(0)
            assert a.offspring_count(v) == b.offspring_count(v)
            frontier.extend(a.children(v))
            b.children(v)

    def test_root_offspring_mean(self):
        # empirical mean of the root draw across trees matches the pmf mean
        d = power_law(2.5, 1)
        draws = []
        for i in range(100_000):
            g = graph.GraphView.bgw(d, tree_seed=i, caps=TreeCaps(10, 1))
            draws.append(g.offspring_count(0))
        draws = np.asarray(draws, dtype=float)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - d.mean) < 3 * se

    def test_order_independence(self):
        # expanding vertices in different orders gives the same tree; a
        # vertex is identified by its root path of child indices
        def collect(order_seed):
            g = grow_bgw(geometric(0.4, k0=1), seed=31, caps=TreeCaps(100_000, 30))
            rng = random.Random(order_seed)
            path = {0: ()}
            frontier = [0]
            seen = {}

            def expand(v):
                seen[path[v]] = g.offspring_count(v)
                for i, child in enumerate(g.children(v)):
                    path[child] = path[v] + (i,)
                    frontier.append(child)

            for _ in range(200):
                if not frontier:
                    break
                expand(frontier.pop(rng.randrange(len(frontier))))
            # expand everything remaining breadth-first for a full comparison
            while frontier:
                v = frontier.pop(0)
                if len(path[v]) < 6:
                    expand(v)
                else:
                    seen[path[v]] = g.offspring_count(v)
            return seen

        runs = [collect(s) for s in (1, 2, 3)]
        common = set(runs[0]) & set(runs[1]) & set(runs[2])
        assert len(common) > 10
        for key in common:
            assert runs[0][key] == runs[1][key] == runs[2][key]

    def test_degree_law_chi_square(self):
        # degree of a fixed non-root vertex follows offspring + 1
        d = geometric(0.45, 0)
        counts = {}
        n = 10_000
        made = 0
        for i in range(3 * n):
            g = grow_bgw(d, seed=1000 + i, caps=TreeCaps(100, 5))
            kids = g.children(0)
            if not kids:
                continue
            deg = g.degree(kids[0])
            counts[deg] = counts.get(deg, 0) + 1
            made += 1
            if made == n:
                break
        max_bin = 8
        obs = np.zeros(max_bin + 1)
        for deg, c in counts.items():
            obs[min(deg - 1, max_bin)] += c  # offspring = degree - 1
        expected = np.array([d.pmf_at(k) for k in range(max_bin)])
        expected = np.append(expected, 1.0 - expected.sum()) * made
        res = stats.chisquare(obs, expected)
        assert res.pvalue > 0.001

    def test_caps_enforced(self):
        g = grow_bgw(deterministic(3), seed=5, caps=TreeCaps(max_vertices=10, max_depth=100))
        with pytest.raises(TreeCapExceeded):
            frontier = [0]
            while frontier:
                frontier.extend(g.children(frontier.pop()))
        assert g.truncated

    def test_depth_cap(self):
        g = grow_bgw(deterministic(1), seed=5, caps=TreeCaps(max_vertices=10_000, max_depth=3))
        v = 0
        with pytest.raises(TreeCapExceeded):
            for _ in range(10):
                v = g.children(v)[0]


class TestConditionedRoot:
    def test_forced_value(self):
        # the law never draws 5, so only the forcing can give the root 5 children;
        # every other vertex keeps its drawn offspring count
        g = graph.GraphView.bgw(deterministic(2), 1, TreeCaps(100, 10), forced_root_count=5)
        assert g.degree(0) == 5
        child = g.children(0)[0]
        assert g.offspring_count(child) == 2
        assert g.degree(child) == 3

    def test_forced_large_degree_every_replica(self):
        for seed in range(20):
            g = graph.GraphView.bgw(power_law(2.5), seed, TreeCaps(1000, 10),
                                    forced_root_count=100)
            assert g.offspring_count(0) == 100
            for child in g.children(0)[:3]:
                assert g.degree(child) >= 1


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        g = build_finite([(0, 1), (0, 2), (2, 3)])
        path = tmp_path / "g.txt"
        path.write_text(f"#vertices {g.n_vertices}\n"
                        + "".join(f"{u} {v}\n" for u, v in g.edges()))
        h = load_edge_list(str(path))
        assert h.n_vertices == g.n_vertices
        assert h.edges() == g.edges()

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#vertices 5\n0 1\n")
        with pytest.raises(GraphError, match="header"):
            load_edge_list(str(path))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(GraphError, match="absent.txt"):
            load_edge_list(str(path))

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#vertices 3\n0 1\n0 1 2\n")
        with pytest.raises(GraphError, match=r"bad\.txt:3: "):
            load_edge_list(str(path))
