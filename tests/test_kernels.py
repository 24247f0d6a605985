import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cpdg.graph import deterministic, power_law
from cpdg.kernels import (KernelError, KernelSpec, PercolatedOffspring, edge_law,
                          load_kernel_table, p_value, p_value_array,
                          sample_zeta_p_array, tail_exponent_estimate, v_value)

from _oracles import sample_mixed_binomial_array, sample_zeta_p

degrees = st.integers(min_value=1, max_value=10**6)


class TestPValue:
    def test_product_kernel_example(self):
        assert p_value(KernelSpec(alpha=1.0, sigma=1.0), 2, 3) == pytest.approx(1 / 6)

    def test_no_penalisation(self):
        for sigma in (0.0, 0.5, 1.0):
            assert p_value(KernelSpec(alpha=0.0, sigma=sigma), 17, 123) == 1.0

    def test_maximum_kernel_example(self):
        assert p_value(KernelSpec(alpha=1.0, sigma=0.0), 2, 5) == pytest.approx(1 / 5)

    def test_capped_at_one(self):
        assert p_value(KernelSpec(alpha=0.5, kappa=100.0), 1, 1) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(degrees, degrees)
    def test_symmetry(self, a, b):
        spec = KernelSpec(alpha=0.7, sigma=0.4, kappa=1.3, eta=0.5, nu=2.0)
        assert p_value(spec, a, b) == p_value(spec, b, a)
        assert v_value(spec, a, b) == v_value(spec, b, a)

    @settings(max_examples=200, deadline=None)
    @given(degrees, degrees, degrees)
    def test_monotone_nonincreasing(self, a, b, c):
        spec = KernelSpec(alpha=0.9, sigma=0.6)
        lo, hi = min(b, c), max(b, c)
        assert p_value(spec, a, hi) <= p_value(spec, a, lo) + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(degrees, degrees)
    def test_ranges(self, a, b):
        spec = KernelSpec(alpha=2.0, sigma=1.0, kappa=0.7, eta=-1.0, nu=0.5)
        assert 0.0 <= p_value(spec, a, b) <= 1.0
        assert v_value(spec, a, b) > 0.0

    def test_vectorized_matches_scalar(self):
        spec = KernelSpec(alpha=0.8, sigma=0.3, kappa=2.0)
        dx = np.array([1, 5, 9, 100])
        dy = np.array([7, 5, 2, 1])
        vec = p_value_array(spec, dx, dy)
        for i in range(dx.size):
            assert vec[i] == pytest.approx(p_value(spec, int(dx[i]), int(dy[i])))


class TestVValue:
    def test_constant_speed(self):
        assert v_value(KernelSpec(alpha=1.0, nu=1.0, eta=0.0), 3, 99) == 1.0

    def test_hand_values(self):
        assert v_value(KernelSpec(alpha=0.0, nu=2.0, eta=1.0), 3, 5) == pytest.approx(10.0)
        assert v_value(KernelSpec(alpha=0.0, nu=1.0, eta=-1.0), 4, 2) == pytest.approx(0.25)

    def test_monotone_by_eta_sign(self):
        up = KernelSpec(alpha=0.0, eta=0.7)
        down = KernelSpec(alpha=0.0, eta=-0.7)
        assert v_value(up, 1, 10) <= v_value(up, 1, 20)
        assert v_value(down, 1, 10) >= v_value(down, 1, 20)

    @pytest.mark.parametrize("nu, eta", [(1.0, 1000.0), (1e308, 0.5), (1.0, -1000.0),
                                         (1.0, -645.0)])
    def test_rate_outside_normal_floats_rejected(self, nu, eta):
        # 3^1000 overflows and 3^-1000 underflows to 0; 1e308 * sqrt(3) and
        # 3^-645 ~ 1e-308 are floats, but their reciprocals are not normal
        spec = KernelSpec(alpha=0.5, nu=nu, eta=eta)
        with pytest.raises(KernelError, match="update rate"):
            v_value(spec, 1, 3)
        assert v_value(KernelSpec(alpha=0.5, eta=eta), 1, 1) == 1.0  # 1^eta


class TestEdgeLaw:
    """The (p, v) memo gives p_value and v_value and leaves the spec's value alone."""

    @pytest.mark.parametrize("spec", [
        KernelSpec(alpha=0.5, sigma=0.3, eta=0.5, nu=2.0),
        KernelSpec(alpha=1.0, custom_p={(1, 2): 0.5, (2, 2): 0.25}),  # unhashable table
        KernelSpec(alpha=1.0, custom_p=lambda a, b: a / (a + 2 * b)),  # not symmetric
    ])
    def test_memo_matches_direct_values(self, spec):
        before = (repr(spec), dataclasses.asdict(spec))
        for dx, dy in [(1, 2), (2, 1), (2, 2), (1, 2)]:
            assert edge_law(spec, dx, dy) == (p_value(spec, dx, dy), v_value(spec, dx, dy))
        assert (repr(spec), dataclasses.asdict(spec)) == before
        assert spec == dataclasses.replace(spec)

    def test_table_miss_still_raises(self):
        spec = KernelSpec(alpha=1.0, custom_p={(1, 2): 0.5})
        for _ in range(2):
            with pytest.raises(KernelError, match="no entry"):
                edge_law(spec, 3, 3)


class TestKernelTable(object):
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# n m p\n1 2 0.5\n2 2 0.25\n")
        table = load_kernel_table(str(path))
        spec = KernelSpec(alpha=1.0, custom_p=table)
        assert p_value(spec, 2, 1) == 0.5
        with pytest.raises(KernelError, match="no entry"):
            p_value(spec, 3, 3)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(KernelError, match="absent.txt"):
            load_kernel_table(str(path))

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# n m p\n1 1\n")
        with pytest.raises(KernelError, match=r"table\.txt:2: "):
            load_kernel_table(str(path))


class TestPercolatedOffspring:
    def test_no_thinning(self):
        pd = PercolatedOffspring(deterministic(4), KernelSpec(alpha=0.0))
        rng = random.Random(1)
        assert all(sample_zeta_p(pd, rng) == 4 for _ in range(50))

    def test_full_thinning(self):
        # kappa -> 0 drives p to 0 and zeta_p with it
        pd = PercolatedOffspring(deterministic(4), KernelSpec(alpha=1.0, kappa=1e-12))
        rng = random.Random(1)
        assert all(sample_zeta_p(pd, rng) == 0 for _ in range(50))

    def test_binomial_oracle(self):
        # constant offspring d and constant p = c gives Binomial(d, c)
        c = 0.37
        pd = PercolatedOffspring(deterministic(6), KernelSpec(alpha=0.0, kappa=c))
        gen = np.random.default_rng(5)
        zs = sample_zeta_p_array(pd, gen, 100_000)
        mean = zs.mean()
        se = zs.std() / math.sqrt(zs.size)
        assert abs(mean - 6 * c) < 3 * se
        var = zs.var()
        assert abs(var - 6 * c * (1 - c)) < 4 * math.sqrt(2.0 / zs.size) * var

    def test_scalar_matches_array_in_distribution(self):
        pd = PercolatedOffspring(power_law(2.5), KernelSpec(alpha=0.5, sigma=1.0))
        rng = random.Random(3)
        scal = np.array([sample_zeta_p(pd, rng) for _ in range(20_000)])
        gen = np.random.default_rng(4)
        vec = sample_zeta_p_array(pd, gen, 20_000)
        assert stats.ks_2samp(scal, vec).pvalue > 0.001

    def test_mixed_binomial_identity(self):
        # two-stage sampler vs direct mixed Binomial(z, E[p(z', z)])
        pd = PercolatedOffspring(power_law(2.5), KernelSpec(alpha=0.5, sigma=1.0))
        gen = np.random.default_rng(11)
        two_stage = sample_zeta_p_array(pd, gen, 100_000)
        direct = sample_mixed_binomial_array(pd, gen, 100_000)
        assert stats.ks_2samp(two_stage, direct).pvalue > 0.001


class TestTailEstimate:
    def test_known_power_law(self):
        gen = np.random.default_rng(2)
        zs = power_law(2.5, 1).sample_array(gen, 1_000_000)
        est = tail_exponent_estimate(zs)
        assert est.reliable
        assert 2.2 <= est.exponent <= 2.8

    def test_exponential_unreliable(self):
        gen = np.random.default_rng(3)
        xs = np.ceil(gen.exponential(5.0, 100_000)).astype(np.int64)
        est = tail_exponent_estimate(xs)
        assert not est.reliable

    def test_needs_enough_samples(self):
        with pytest.raises(KernelError):
            tail_exponent_estimate(np.ones(100, dtype=np.int64))
