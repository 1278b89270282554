import math

import numpy as np
import pytest
from scipy import stats as sps

from tvdpm.diagnostics import BrokenNoiseKernel
from tvdpm.kernels import (
    GaussianAR1,
    GaussianKnownVar,
    NormalInverseGamma,
    StaticKernel,
    SymmetricDirichlet,
    sample_base,
)
from tvdpm.partitions import sample_categorical

from .oracles import AtomicGaussianModel, FiniteAtomic


class TestBaseMeasures:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NormalInverseGamma(0.0, -1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            GaussianKnownVar(0.0, 0.0)
        with pytest.raises(ValueError):
            SymmetricDirichlet(0.0, 10)
        with pytest.raises(ValueError):
            FiniteAtomic(())

    def test_atomic_weights_normalize(self):
        fa = FiniteAtomic((0.0, 1.0), (2.0, 6.0))
        assert fa.weights == (0.25, 0.75)

    def test_dirichlet_concentrates_when_smooth(self, rng):
        base = SymmetricDirichlet(theta_v=10_000.0, vocab_size=2)
        draws = np.array([sample_base(base, rng)[0] for _ in range(20_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_nig_mean_component_symmetric(self, rng):
        base = NormalInverseGamma(0.0, 0.1, 2.0, 1.0)
        means = np.array([sample_base(base, rng)[0] for _ in range(100_000)])
        se = means.std() / math.sqrt(len(means))
        assert abs(means.mean()) < 3 * se

    def test_gaussian_known_var_ks(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        draws = np.array([sample_base(base, rng) for _ in range(10_000)])
        assert sps.kstest(draws, sps.norm.cdf).pvalue > 0.01

    def test_atomic_sampling(self, rng):
        # the test-only atomic model draws from its base given no data
        model = AtomicGaussianModel(FiniteAtomic((-1.0, 2.0), (0.2, 0.8)), 1.0)
        draws = [model.posterior_sample_from_stats(model.empty_stats(), rng) for _ in range(20_000)]
        frac = sum(d == 2.0 for d in draws) / len(draws)
        assert abs(frac - 0.8) < 3 * math.sqrt(0.16 / 20_000)

    def test_atomic_draws_equal_numpy_choice(self):
        # the shared categorical draw picks what rng.choice(p=...) picked,
        # from the same single uniform
        gen = np.random.default_rng(0)
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(20):
            k = int(gen.integers(1, 12))
            w = gen.exponential(size=k) + 1e-3
            p = tuple((w / w.sum()).tolist())
            for _ in range(500):
                assert sample_categorical(p, a) == b.choice(k, p=p)
        assert a.bit_generator.state == b.bit_generator.state


class TestTransitions:
    def test_static_identity(self, rng):
        assert StaticKernel().transition(3.7, rng) == 3.7

    def test_phi_zero_regenerates(self, rng):
        kernel = GaussianAR1(0.0, GaussianKnownVar(0.0, 1.0))
        draws = np.array([kernel.transition(50.0, rng) for _ in range(10_000)])
        assert sps.kstest(draws, sps.norm.cdf).pvalue > 0.01

    def test_chain_marginal_stationary(self, rng):
        kernel = GaussianAR1(0.9, GaussianKnownVar(0.0, 1.0))
        terminal = np.empty(10_000)
        for i in range(10_000):
            u = sample_base(kernel.base, rng)
            for _ in range(100):
                u = kernel.transition(u, rng)
            terminal[i] = u
        assert sps.kstest(terminal, sps.norm.cdf).pvalue > 0.01

    def test_one_step_correlation_is_phi(self, rng):
        kernel = GaussianAR1(0.6, GaussianKnownVar(0.0, 1.0))
        n = 100_000
        u0 = np.array([sample_base(kernel.base, rng) for _ in range(n)])
        u1 = np.array([kernel.transition(x, rng) for x in u0])
        corr = np.corrcoef(u0, u1)[0, 1]
        se = (1 - 0.6**2) / math.sqrt(n)
        assert abs(corr - 0.6) < 3 * se

    def test_phi_validated(self):
        with pytest.raises(ValueError):
            GaussianAR1(1.5, GaussianKnownVar(0.0, 1.0))

    @pytest.mark.parametrize("kind", [GaussianAR1, BrokenNoiseKernel], ids=["ar1", "broken-noise"])
    def test_array_steps_as_float_calls(self, kind):
        # one call on m values equals m float calls draw for draw, and
        # leaves the generator where they leave it
        kernel = kind(0.7, GaussianKnownVar(0.4, 1.3))
        u = np.random.default_rng(3).normal(size=(4, 5))
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        stepped = kernel.transition(u, a)
        one_by_one = [kernel.transition(x, b) for x in u.ravel().tolist()]
        assert isinstance(stepped, np.ndarray) and stepped.shape == u.shape
        assert stepped.ravel().tolist() == one_by_one
        assert all(type(x) is float for x in one_by_one)
        assert a.bit_generator.state == b.bit_generator.state

    def test_static_returns_its_input(self, rng):
        state = rng.bit_generator.state
        u = np.arange(6.0).reshape(2, 3)
        assert StaticKernel().transition(u, rng) is u
        assert rng.bit_generator.state == state
