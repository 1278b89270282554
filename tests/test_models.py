import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from tvdpm.kernels import GaussianKnownVar, NormalInverseGamma, SymmetricDirichlet
from tvdpm.models import (
    GaussianModel,
    KnownVarGaussianModel,
    ObservationBatch,
    DataError,
    TopicModel,
    log_sum_exp_array,
    read_corpus,
    read_observation_batches,
    stats_of,
    student_t_logpdf,
)

from .oracles import (
    AtomicGaussianModel,
    FiniteAtomic,
    atomic_log_marginal,
    atomic_predictive_logp,
    dirichlet_predictive_k2,
    nig_posterior_mean_of_mean,
    nig_prior_predictive,
    parameter_log_density,
)

NIG = NormalInverseGamma(0.0, 0.1, 2.0, 1.0)


class TestObservationBatch:
    def test_requires_data(self):
        with pytest.raises(ValueError):
            ObservationBatch(1, ())

    def test_n(self):
        assert ObservationBatch(1, (1.0, 2.0)).n == 2


class TestGaussianLogLikelihood:
    def test_peak_value(self):
        model = GaussianModel(NIG)
        var = 0.49
        assert model.log_likelihood(1.3, (1.3, var)) == pytest.approx(
            -0.5 * math.log(2 * math.pi * var)
        )

    def test_one_sigma_offset(self):
        model = GaussianModel(NIG)
        peak = model.log_likelihood(0.0, (0.0, 4.0))
        assert model.log_likelihood(2.0, (0.0, 4.0)) == pytest.approx(peak - 0.5)


class TestGaussianPosterior:
    def test_empty_cluster_params_are_prior(self):
        model = GaussianModel(NIG)
        assert model._posterior_params(model.empty_stats()) == (0.0, 0.1, 2.0, 1.0)

    def test_posterior_mean_formula_and_simulation(self, rng):
        model = GaussianModel(NIG)
        mu_n, kappa_n, _, _ = model._posterior_params([1, 1.0, 1.0])
        assert mu_n == pytest.approx((0.1 * 0.0 + 1.0) / 1.1)
        stats = stats_of(model, [1.0])
        draws = np.array([model.posterior_sample_from_stats(stats, rng)[0] for _ in range(100_000)])
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - mu_n) < 3 * se

    def test_posterior_mean_matches_quadrature(self):
        model = GaussianModel(NIG)
        mu_n, _, _, _ = model._posterior_params([1, 1.0, 1.0])
        oracle = nig_posterior_mean_of_mean(1.0, 0.0, 0.1, 2.0, 1.0)
        assert mu_n == pytest.approx(oracle, abs=1e-6)

    def test_strong_prior_pins_mean(self, rng):
        model = GaussianModel(NormalInverseGamma(2.0, 1e12, 4.0, 1.0))
        stats = stats_of(model, [-5.0])
        draws = np.array([model.posterior_sample_from_stats(stats, rng)[0] for _ in range(2_000)])
        assert abs(draws.mean() - 2.0) < 1e-4


class TestWithoutScipy:
    """The package's log-gamma and log-sum-exp, pinned against scipy's."""

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.5, 7.0, 30.0, 1e4])
    def test_student_t_logpdf_matches_gammaln(self, df, rng):
        x = rng.normal(0.0, 5.0, size=200)
        loc = rng.normal(0.0, 1.0, size=200)
        scale = rng.uniform(0.05, 4.0, size=200)
        z = (x - loc) / scale
        want = (
            gammaln((df + 1.0) / 2.0)
            - gammaln(df / 2.0)
            - 0.5 * np.log(df * np.pi)
            - np.log(scale)
            - (df + 1.0) / 2.0 * np.log1p(z * z / df)
        )
        got = student_t_logpdf(x, df, loc, scale)
        assert got.shape == x.shape
        # the two log-gammas cancel, so the tolerance is relative to them
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * (gammaln((df + 1.0) / 2.0) + 1.0))

    def test_log_sum_exp_equals_scipy_bit_for_bit(self, rng):
        cases = [np.array([2.5]), np.array([-np.inf, -1.0, -np.inf]), np.array([3.0, 3.0, 3.0])]
        for _ in range(2_000):
            n = int(rng.integers(1, 600))
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), size=n)
            tied = rng.random(n) < rng.uniform(0.0, 0.5)
            a[tied] = a.max()
            cases.append(a)
            b = a.copy()
            b[rng.random(n) < 0.5] = -np.inf
            b[rng.integers(n)] = rng.normal()  # at least one finite entry
            cases.append(b)
        for a in cases:
            assert log_sum_exp_array(a) == float(logsumexp(a))

    def test_log_sum_exp_of_nothing_alive_is_not_finite(self):
        # smc.advance raises DegeneracyError on a non-finite normaliser
        assert log_sum_exp_array(np.full(4, -np.inf)) == -np.inf
        assert math.isnan(log_sum_exp_array(np.array([0.0, np.nan])))


class TestGaussianPredictive:
    def test_empty_cluster_matches_quadrature(self):
        model = GaussianModel(NIG)
        for z in (-2.0, -0.5, 0.0, 1.0, 3.0):
            oracle = nig_prior_predictive(z, 0.0, 0.1, 2.0, 1.0)
            assert math.exp(model.predictive_logp(stats_of(model, []), z)) == pytest.approx(
                oracle, abs=1e-6
            )

    def test_consistency_with_posterior_sampling(self, rng):
        model = GaussianModel(NIG)
        cluster = [0.4, 1.1, 0.7]
        z = 0.9
        stats = stats_of(model, cluster)
        n_draws = 1_000_000
        total = 0.0
        for _ in range(n_draws):
            u = model.posterior_sample_from_stats(stats, rng)
            total += math.exp(model.log_likelihood(z, u))
        mc = total / n_draws
        assert abs(mc - math.exp(model.predictive_logp(stats, z))) / mc < 0.01

    def test_exchangeability(self):
        model = GaussianModel(NIG)
        a = model.predictive_logp(stats_of(model, [1.0, -2.0, 0.5]), 0.3)
        b = model.predictive_logp(stats_of(model, [0.5, 1.0, -2.0]), 0.3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_predictive_grid_matches_scalar(self):
        model = GaussianModel(NIG)
        grid = np.array([-1.0, 0.0, 2.0])
        vals = model.predictive_grid(model.empty_stats(), grid)
        for g, v in zip(grid, vals):
            assert v == pytest.approx(math.exp(model.predictive_logp(stats_of(model, []), g)))


class TestTopicModel:
    def make(self, theta_v=0.5, K=4):
        return TopicModel(SymmetricDirichlet(theta_v, K))

    def test_uniform_point_loglik(self):
        model = self.make()
        y = np.full(4, 0.25)
        assert model.log_likelihood(2, y) == pytest.approx(math.log(0.25))

    def test_degenerate_point_gives_neg_inf(self):
        model = self.make()
        y = np.array([1.0, 0.0, 0.0, 0.0])
        assert model.log_likelihood(1, y) == -math.inf

    def test_empty_predictive_uniform(self):
        model = self.make()
        assert model.predictive_logp(stats_of(model, []), 3) == pytest.approx(math.log(0.25))

    def test_counts_formula(self):
        model = self.make(theta_v=0.5, K=4)
        obs = [0, 0, 1, 2, 0]
        for w in range(4):
            n_w = obs.count(w)
            expected = (n_w + 0.5 / 4) / (len(obs) + 0.5)
            assert math.exp(model.predictive_logp(stats_of(model, obs), w)) == pytest.approx(expected)

    def test_matches_simplex_quadrature_k2(self):
        model = TopicModel(SymmetricDirichlet(0.7, 2))
        obs = [0, 1, 0, 0]
        for w in (0, 1):
            oracle = dirichlet_predictive_k2(w, (3, 1), 0.7)
            assert math.exp(model.predictive_logp(stats_of(model, obs), w)) == pytest.approx(oracle, abs=1e-9)

    def test_predictive_normalizes(self):
        model = self.make(theta_v=1.3, K=7)
        obs = [0, 0, 3, 5]
        total = sum(math.exp(model.predictive_logp(stats_of(model, obs), w)) for w in range(7))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_consistency_with_posterior_sampling(self, rng):
        model = self.make(theta_v=0.5, K=4)
        obs = [0, 1, 1, 3]
        stats = stats_of(model, obs)
        n_draws = 1_000_000
        draws = rng.dirichlet(stats[0] + model._alpha, size=n_draws)
        mc = draws[:, 2].mean()
        assert abs(mc - math.exp(model.predictive_logp(stats, 2))) / mc < 0.01

    @settings(max_examples=30, deadline=None)
    @given(obs=st.lists(st.integers(0, 3), max_size=10), w=st.integers(0, 3))
    def test_predictive_positive(self, obs, w):
        model = self.make()
        assert math.exp(model.predictive_logp(stats_of(model, obs), w)) > 0


class TestKnownVarGaussian:
    def test_gaussian_base_posterior(self, rng):
        # kappa0 = obs_var / sigma0^2 = 1 -> posterior mean z/2
        model = KnownVarGaussianModel(GaussianKnownVar(0.0, 1.0), 1.0)
        stats = stats_of(model, [3.0])
        draws = np.array([model.posterior_sample_from_stats(stats, rng) for _ in range(100_000)])
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.5) < 3 * se
        assert draws.var() == pytest.approx(0.5, rel=0.05)

    def test_atomic_predictive_small_bayes(self):
        # two atoms: exact Bayes worked out longhand
        model = AtomicGaussianModel(FiniteAtomic((0.0, 2.0)), 1.0)
        z0 = 1.9

        def phi(z, m):
            return math.exp(-0.5 * (z - m) ** 2) / math.sqrt(2 * math.pi)

        post0 = phi(z0, 0.0) / (phi(z0, 0.0) + phi(z0, 2.0))
        expected = post0 * phi(0.5, 0.0) + (1 - post0) * phi(0.5, 2.0)
        assert math.exp(model.predictive_logp(stats_of(model, [z0]), 0.5)) == pytest.approx(expected)

    def test_atomic_posterior_sampling(self, rng):
        model = AtomicGaussianModel(FiniteAtomic((0.0, 2.0)), 1.0)
        stats = stats_of(model, [1.9])
        draws = [model.posterior_sample_from_stats(stats, rng) for _ in range(20_000)]

        def phi(z, m):
            return math.exp(-0.5 * (z - m) ** 2) / math.sqrt(2 * math.pi)

        p2 = phi(1.9, 2.0) / (phi(1.9, 0.0) + phi(1.9, 2.0))
        frac = sum(d == 2.0 for d in draws) / len(draws)
        assert abs(frac - p2) < 3 * math.sqrt(p2 * (1 - p2) / 20_000)

    def test_stats_add_remove_roundtrip(self):
        model = KnownVarGaussianModel(GaussianKnownVar(0.0, 1.0), 1.0)
        stats = model.empty_stats()
        model.stats_add(stats, 1.0)
        model.stats_add(stats, -0.5)
        model.stats_remove(stats, 1.0)
        expected = model.empty_stats()
        model.stats_add(expected, -0.5)
        assert stats == pytest.approx(expected)

    def test_base_validation(self):
        with pytest.raises(TypeError):
            KnownVarGaussianModel(NIG, 1.0)
        # the atomic base is the test-only AtomicGaussianModel's
        with pytest.raises(TypeError, match="GaussianKnownVar"):
            KnownVarGaussianModel(FiniteAtomic((0.0, 2.0)), 1.0)
        with pytest.raises(ValueError):
            KnownVarGaussianModel(GaussianKnownVar(0.0, 1.0), 0.0)


def _replay(model, observations):
    """Sum of sequential predictives, each observation scored against the
    statistics of those before it."""
    stats, out = model.empty_stats(), 0.0
    for z in observations:
        out += model.predictive_logp(stats, z)
        model.stats_add(stats, z)
    return out


class TestLogMarginal:
    MODELS = {
        "nig": (GaussianModel(NIG), lambda rng, n: [float(x) for x in rng.normal(1.0, 2.0, n)]),
        "known-var": (
            KnownVarGaussianModel(GaussianKnownVar(0.5, 2.0), 0.7),
            lambda rng, n: [float(x) for x in rng.normal(1.0, 2.0, n)],
        ),
        "atomic": (
            AtomicGaussianModel(FiniteAtomic((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3)), 0.8),
            lambda rng, n: [float(x) for x in rng.normal(0.5, 1.5, n)],
        ),
        "topic": (
            TopicModel(SymmetricDirichlet(2.0, 7)),
            lambda rng, n: [int(w) for w in rng.integers(0, 7, n)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_replay_after_adds_and_removes(self, name, rng):
        model, draw = self.MODELS[name]
        assert model.log_marginal(model.empty_stats()) == pytest.approx(0.0, abs=1e-12)
        for n in (1, 2, 7, 40):
            kept, dropped = draw(rng, n), draw(rng, 5)
            stats = model.empty_stats()
            for z in dropped[:3] + kept[: n // 2] + dropped[3:] + kept[n // 2:]:
                model.stats_add(stats, z)
            for z in dropped:
                model.stats_remove(stats, z)
            exact = _replay(model, kept)
            assert model.log_marginal(stats) == pytest.approx(exact, rel=1e-10)
            # negative control: one observation more is seen
            assert model.log_marginal(stats) != pytest.approx(_replay(model, kept + dropped[:1]), rel=1e-6)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_bayes_identity_at_posterior_draws(self, name, rng):
        # likelihood x base / posterior at any parameter is the marginal: the
        # identity that lets the filter weigh a newborn box by its closed-form
        # marginal instead of its base-over-posterior ratio
        model, draw = self.MODELS[name]
        observations = draw(rng, 12)
        stats = model.empty_stats()
        for i, z in enumerate(observations, 1):
            model.stats_add(stats, z)
            seen = observations[:i]
            for _ in range(3):
                u = model.posterior_sample_from_stats(stats, rng)

                def identity(obs):
                    return (
                        sum(model.log_likelihood(x, u) for x in obs)
                        + parameter_log_density(model, model.empty_stats(), u)
                        - parameter_log_density(model, stats, u)
                    )

                assert identity(seen) == pytest.approx(model.log_marginal(stats), rel=1e-10, abs=1e-10)
                # negative control: one observation left out of the likelihood
                assert identity(seen[:-1]) != pytest.approx(model.log_marginal(stats), rel=1e-6)

    def test_topic_predictive_same_float_as_numpy_scalars(self):
        model = TopicModel(SymmetricDirichlet(2.0, 7))
        stats = stats_of(model, [0, 3, 3, 6, 3, 1])
        counts, total = stats
        for w in range(7):
            old = float(math.log(counts[w] + model._alpha) - math.log(total + model.base.theta_v))
            assert model.predictive_logp(stats, w) == old


class TestAtomicClosedForm:
    """The atomic base's closed form on [count, sum, sum of squares] against
    per-observation, per-atom log-likelihood sums."""

    BASE = FiniteAtomic((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3))
    SIGMA = 0.8
    PROBES = (-2.5, 0.3, 1.9)

    def _worst_relative_error(self, model, n, rng):
        """Largest relative error of `log_marginal` and `predictive_logp`
        against the oracle, after adding n kept and 5 dropped observations
        interleaved and removing the dropped ones."""
        kept, dropped = rng.normal(0.5, 1.5, n).tolist(), rng.normal(0.5, 1.5, 5).tolist()
        stats = model.empty_stats()
        for z in dropped[:3] + kept[: n // 2] + dropped[3:] + kept[n // 2:]:
            model.stats_add(stats, z)
        for z in dropped:
            model.stats_remove(stats, z)
        pairs = [(model.log_marginal(stats), atomic_log_marginal(kept, self.BASE, self.SIGMA))]
        pairs += [
            (model.predictive_logp(stats, z), atomic_predictive_logp(kept, z, self.BASE, self.SIGMA))
            for z in self.PROBES
        ]
        return max(abs(got - want) / abs(want) for got, want in pairs)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_equals_per_observation_sums(self, n, rng):
        model = AtomicGaussianModel(self.BASE, self.SIGMA)
        assert self._worst_relative_error(model, n, rng) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_wrong_sigma_fails_the_pin(self, n, rng):
        # negative control: the oracle keeps sigma, the model is 1% off
        model = AtomicGaussianModel(self.BASE, 1.01 * self.SIGMA)
        assert self._worst_relative_error(model, n, rng) > 1e-6


def _stacked_locations(name, gen, m=60):
    """(model, m locations as floats/tuples/vectors, the same stacked, observations)."""
    if name == "nig":
        locs = [(float(mu), float(v)) for mu, v in zip(gen.normal(0, 3, m), gen.gamma(2.0, 1.5, m))]
        return GaussianModel(NIG), locs, np.array(locs), gen.normal(0, 4, 8).tolist()
    if name in ("known-var", "atomic"):
        if name == "known-var":
            model = KnownVarGaussianModel(GaussianKnownVar(0.0, 2.0), 0.7)
        else:
            model = AtomicGaussianModel(FiniteAtomic((-2.0, 0.0, 2.0)), 0.7)
        locs = gen.normal(0, 3, m).tolist()
        return model, locs, np.array(locs), gen.normal(0, 4, 8).tolist()
    K = 6
    stacked = gen.dirichlet(np.full(K, 0.5), size=m)
    stacked[3, 2] = 0.0  # a word the topic never emits
    return TopicModel(SymmetricDirichlet(2.0, K)), list(stacked), stacked, list(range(K))


class TestStackedLogLikelihood:
    """`log_likelihood(z, U)` on m stacked locations against m float calls."""

    @pytest.mark.parametrize("name", ["nig", "known-var", "atomic", "topic"])
    def test_equals_float_calls(self, name):
        model, locs, stacked, observations = _stacked_locations(name, np.random.default_rng(41))
        for z in observations:
            got = model.log_likelihood(z, stacked)
            assert got.shape == (len(locs),)
            want = [model.log_likelihood(z, u) for u in locs]
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        if name == "topic":
            assert model.log_likelihood(2, stacked)[3] == -math.inf == model.log_likelihood(2, locs[3])


class TestReaders:
    def test_observation_batches(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text('{"t": 2, "values": [0.5]}\n{"t": 1, "values": [1.0, 2.0]}\n')
        batches = read_observation_batches(p)
        assert [b.time for b in batches] == [1, 2]
        assert batches[0].values == (1.0, 2.0)

    def test_corpus_roundtrip(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        vocab = tmp_path / "vocab.txt"
        data.write_text('{"t": 1, "words": [0, 2, 1]}\n')
        vocab.write_text("alpha\nbeta\ngamma\n")
        batches, tokens = read_corpus(data, vocab)
        assert tokens == ["alpha", "beta", "gamma"]
        assert batches[0].values == (0, 2, 1)

    def test_corpus_word_out_of_range(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        vocab = tmp_path / "vocab.txt"
        data.write_text('{"t": 1, "words": [5]}\n')
        vocab.write_text("a\nb\n")
        with pytest.raises(DataError, match=r"\[5\]"):
            read_corpus(data, vocab)
