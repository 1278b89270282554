import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from tvdpm.kernels import GaussianAR1, GaussianKnownVar, NormalInverseGamma, StaticKernel
from tvdpm.models import GaussianModel, KnownVarGaussianModel, ObservationBatch
from tvdpm.smc import (
    DegeneracyError,
    FilterConfig,
    Particle,
    ParticlePopulation,
    RhoWalk,
    advance,
    ess,
    estimate_alive_mass,
    estimate_density,
    estimate_rho,
    init_particles,
    resample,
    run_filter,
    systematic_indices,
)
from tvdpm.urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    apply_policy,
)

NIG = NormalInverseGamma(0.0, 0.1, 2.0, 1.0)


def make_population(particles, weights, seed=0):
    rng = np.random.default_rng(seed)
    streams = rng.spawn(len(particles) + 1)
    with np.errstate(divide="ignore"):  # zero weights are legitimate here
        log_w = np.log(np.asarray(weights, dtype=float))
    return ParticlePopulation(
        particles=particles,
        log_weights=log_w,
        rngs=streams[:-1],
        resample_rng=streams[-1],
    )


def particle_with(boxes, locations, theta=1.0, rho=None):
    s = UrnState.empty(theta)
    s.boxes.update(boxes)
    s.next_label = max(boxes, default=0) + 1
    return Particle(urn=s, locations=dict(locations), rho=rho)


class TestInit:
    def test_single_particle(self, rng):
        cfg = FilterConfig(n_particles=1, theta=1.0, policy=UniformDeletion(0.5))
        pop = init_particles(cfg, rng)
        assert pop.n == 1 and pop.weights()[0] == pytest.approx(1.0)

    def test_thousand_particles(self, rng):
        cfg = FilterConfig(n_particles=1000, theta=1.0, policy=UniformDeletion(0.5))
        pop = init_particles(cfg, rng)
        assert np.allclose(pop.weights(), 1e-3)
        assert all(p.urn.boxes == {} for p in pop.particles)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(n_particles=0, theta=1.0, policy=UniformDeletion(0.5))
        with pytest.raises(ValueError):
            FilterConfig(n_particles=1, theta=1.0, policy=UniformDeletion(0.5), proposal="x")
        with pytest.raises(ValueError):
            FilterConfig(
                n_particles=1, theta=1.0, policy=UniformDeletion(0.5), ess_threshold_fraction=0.0
            )


class TestEss:
    def test_values(self):
        assert ess([0.5, 0.5]) == pytest.approx(2.0)
        assert ess([1.0, 0.0]) == pytest.approx(1.0)
        assert ess(np.full(64, 1 / 64)) == pytest.approx(64.0)


class TestResample:
    def test_equal_weights_identity(self):
        parts = [particle_with({i + 1: 1}, {i + 1: (0.0, 1.0)}) for i in range(4)]
        pop = make_population(parts, [0.25] * 4)
        before = [p.urn.boxes for p in pop.particles]
        resample(pop)
        assert [p.urn.boxes for p in pop.particles] == before
        assert np.allclose(pop.weights(), 0.25)

    def test_degenerate_weights(self):
        parts = [particle_with({1: 1}, {1: (0.0, 1.0)}), particle_with({2: 9}, {2: (0.0, 1.0)})]
        pop = make_population(parts, [1.0, 0.0])
        resample(pop)
        assert all(p.urn.boxes == {1: 1} for p in pop.particles)

    def test_offspring_unbiased(self, rng):
        n_mc = 100_000
        weights = np.array([0.75, 0.25])
        count_first = 0
        count_sq = 0
        for _ in range(n_mc):
            idx = systematic_indices(weights, rng)
            c = int((idx == 0).sum())
            count_first += c
            count_sq += c * c
        mean = count_first / n_mc
        se = math.sqrt(max(count_sq / n_mc - mean**2, 1e-12) / n_mc)
        assert abs(mean - 1.5) < 3 * se

    def test_resample_copies_are_independent(self):
        parts = [particle_with({1: 1}, {1: (0.0, 1.0)}), particle_with({2: 9}, {2: (0.0, 1.0)})]
        pop = make_population(parts, [1.0, 0.0])
        resample(pop)
        pop.particles[0].urn.boxes[99] = 1
        assert 99 not in pop.particles[1].urn.boxes


class TestRhoWalk:
    def test_mean_preserved(self, rng):
        walk = RhoWalk(a_rho=1000.0, rho0=0.5)
        draws = np.array([walk.sample(0.7, rng) for _ in range(100_000)])
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - 0.7) < 3 * se

    def test_variance_formula(self, rng):
        walk = RhoWalk(a_rho=1000.0, rho0=0.5)
        rho = 0.7
        draws = np.array([walk.sample(rho, rng) for _ in range(100_000)])
        target = rho**2 * (1 - rho) / (1000.0 + rho)
        sample_var = draws.var()
        centered = (draws - draws.mean()) ** 2
        se_var = centered.std() / math.sqrt(len(draws))
        assert abs(sample_var - target) < 3 * se_var

    def test_resolve_policy_substitutes(self):
        # the walk value passed at apply time acts as the leaf's fixed rho
        pol = MixturePolicy(0.98, UniformDeletion(None), SizeBiasedDeletion())
        fixed = MixturePolicy(0.98, UniformDeletion(0.6), SizeBiasedDeletion())
        state = UrnState(theta=1.0, boxes={1: 30, 2: 20, 3: 10}, next_label=4)
        walked = apply_policy(state, pol, np.random.default_rng(5), 0.6)
        assert walked.boxes == apply_policy(state, fixed, np.random.default_rng(5)).boxes
        assert walked.boxes != apply_policy(state, pol, np.random.default_rng(5), 0.9).boxes
        with pytest.raises(ValueError):
            apply_policy(state, UniformDeletion(None), np.random.default_rng(5))


class TestAdvance:
    def test_single_particle_weight_stays_one(self, rng):
        cfg = FilterConfig(n_particles=1, theta=1.0, policy=UniformDeletion(0.9))
        pop = init_particles(cfg, rng)
        model = GaussianModel(NIG)
        for t in range(1, 4):
            advance(pop, ObservationBatch(t, (0.3,)), model, StaticKernel(), cfg)
            assert pop.weights()[0] == pytest.approx(1.0)

    def test_prior_proposal_increment_is_likelihood_product(self, rng):
        # Eq-9 bookkeeping: with prior proposals every ratio cancels and the
        # increment is exactly the data likelihood at the sampled locations
        # (resampling disabled so slots keep their identity)
        cfg = FilterConfig(
            n_particles=3,
            theta=1.5,
            policy=UniformDeletion(0.8),
            proposal="prior",
            ess_threshold_fraction=1e-9,
        )
        pop = init_particles(cfg, rng)
        model = GaussianModel(NIG)
        batch = ObservationBatch(1, (0.4, -0.2))
        advance(pop, batch, model, StaticKernel(), cfg)
        expected = []
        for particle in pop.particles:
            # from an empty urn the first value opens box 1 and the second
            # joins it or opens box 2
            labels = sorted(particle.urn.boxes)
            assert particle.urn.total_mass == 2 and labels[0] == 1
            expected.append(
                sum(
                    model.log_likelihood(z, particle.locations[lab])
                    for z, lab in zip(batch.values, [labels[0], labels[-1]])
                )
            )
        expected = np.array(expected)
        assert np.allclose(pop.log_weights, expected - logsumexp(expected), rtol=0, atol=1e-10)

    def test_weights_normalized_after_advance(self, rng):
        cfg = FilterConfig(n_particles=50, theta=1.0, policy=UniformDeletion(0.9))
        pop = init_particles(cfg, rng)
        model = GaussianModel(NIG)
        for t in range(1, 6):
            advance(pop, ObservationBatch(t, (float(t) * 0.1,)), model, StaticKernel(), cfg)
            assert math.fsum(pop.weights()) == pytest.approx(1.0, abs=1e-9)
            n_eff = ess(pop.weights())
            assert 1.0 <= n_eff <= pop.n + 1e-9

    def test_locations_match_boxes(self, rng):
        cfg = FilterConfig(n_particles=20, theta=1.0, policy=UniformDeletion(0.5))
        pop = init_particles(cfg, rng)
        model = GaussianModel(NIG)
        for t in range(1, 8):
            advance(pop, ObservationBatch(t, (0.5, -1.0)), model, StaticKernel(), cfg)
            for p in pop.particles:
                assert set(p.locations) == set(p.urn.boxes)

    def test_particle_urns_follow_batches(self, rng):
        # the proposal adds each unit to the particle's own urn: ages and
        # counts agree, and the window keeps units born at t-2 .. t
        cfg = FilterConfig(
            n_particles=10,
            theta=1.0,
            policy=ComposePolicy([SlidingWindow(2), UniformDeletion(0.8)]),
        )
        pop = init_particles(cfg, rng)
        model = GaussianModel(NIG)
        for t in range(1, 9):
            advance(pop, ObservationBatch(t, (0.5 * t, -1.0)), model, StaticKernel(), cfg)
            for p in pop.particles:
                urn = p.urn
                assert urn.time == t
                assert set(urn.births) == set(urn.boxes)
                for lab, cells in urn.births.items():
                    assert sum(cells.values()) == urn.boxes[lab]
                    assert all(t - 2 <= birth <= t for birth in cells)

    def test_degeneracy_detected(self, rng):
        class HopelessModel(KnownVarGaussianModel):
            def log_likelihood(self, z, u):
                return -math.inf

        model = HopelessModel(GaussianKnownVar(0.0, 1.0), 1.0)
        cfg = FilterConfig(n_particles=4, theta=1.0, policy=UniformDeletion(0.9), proposal="prior")
        pop = init_particles(cfg, rng)
        with pytest.raises(DegeneracyError) as err:
            advance(pop, ObservationBatch(5, (0.0,)), model, StaticKernel(), cfg)
        assert err.value.time_index == 5

    def test_ar1_kernel_with_known_var_model(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        model = KnownVarGaussianModel(base, 0.5)
        cfg = FilterConfig(n_particles=30, theta=1.0, policy=UniformDeletion(0.9))
        pop = init_particles(cfg, rng)
        kernel = GaussianAR1(0.9, base)
        for t in range(1, 6):
            advance(pop, ObservationBatch(t, (0.2,)), model, kernel, cfg)
        assert math.fsum(pop.weights()) == pytest.approx(1.0, abs=1e-9)

    def test_ar1_rejected_for_nig_model(self, rng):
        cfg = FilterConfig(n_particles=2, theta=1.0, policy=UniformDeletion(0.9))
        pop = init_particles(cfg, rng)
        kernel = GaussianAR1(0.9, GaussianKnownVar(0.0, 1.0))
        with pytest.raises(ValueError):
            advance(pop, ObservationBatch(1, (0.0,)), GaussianModel(NIG), kernel, cfg)


class TestEstimators:
    def test_alive_mass_single(self):
        pop = make_population([particle_with({1: 2, 2: 3}, {1: (0, 1), 2: (0, 1)})], [1.0])
        assert estimate_alive_mass(pop) == pytest.approx(5.0)

    def test_alive_mass_weighted(self):
        parts = [
            particle_with({1: 4}, {1: (0, 1)}),
            particle_with({1: 8}, {1: (0, 1)}),
        ]
        pop = make_population(parts, [0.25, 0.75])
        assert estimate_alive_mass(pop) == pytest.approx(7.0)

    def test_rho_estimates(self):
        parts = [
            particle_with({1: 1}, {1: (0, 1)}, rho=0.8),
            particle_with({1: 1}, {1: (0, 1)}, rho=1.0),
        ]
        pop = make_population(parts, [0.5, 0.5])
        assert estimate_rho(pop) == pytest.approx(0.9)

    def test_rho_disabled(self):
        pop = make_population([particle_with({1: 1}, {1: (0, 1)})], [1.0])
        with pytest.raises(ValueError):
            estimate_rho(pop)

    def test_density_empty_urn_is_prior_predictive(self):
        model = GaussianModel(NIG)
        pop = make_population([particle_with({}, {}, theta=3.0)], [1.0])
        # the df-2 prior predictive is heavy-tailed: the grid must reach far
        # out before it covers the mass
        grid = np.linspace(-30, 30, 1201)
        est = estimate_density(pop, grid, model)
        assert np.allclose(est.values, model.predictive_grid(model.empty_stats(), grid))
        assert np.trapezoid(est.values, est.grid) == pytest.approx(1.0, abs=0.02)

    def test_density_huge_box_dominates(self):
        model = GaussianModel(NIG)
        pop = make_population(
            [particle_with({1: 10_000_000}, {1: (0.0, 1.0)}, theta=3.0)], [1.0]
        )
        grid = np.linspace(-8, 8, 401)
        est = estimate_density(pop, grid, model)
        target = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(est.values - target)) < 1e-4

    def test_density_rejects_topic_model(self):
        from tvdpm.kernels import SymmetricDirichlet
        from tvdpm.models import TopicModel

        pop = make_population([particle_with({}, {})], [1.0])
        with pytest.raises(ValueError):
            estimate_density(pop, np.linspace(-1, 1, 5), TopicModel(SymmetricDirichlet(0.5, 4)))

    def test_density_integral_experiment_style(self, rng):
        model = GaussianModel(NIG)
        cfg = FilterConfig(n_particles=100, theta=3.0, policy=UniformDeletion(0.95))
        pop = init_particles(cfg, rng)
        data = rng.normal(0.0, 1.0, size=30)
        for t, z in enumerate(data, start=1):
            advance(pop, ObservationBatch(t, (float(z),)), model, StaticKernel(), cfg)
        grid = np.linspace(-10, 10, 400)
        est = estimate_density(pop, grid, model)
        assert abs(np.trapezoid(est.values, est.grid) - 1.0) < 0.02


class TestExactFilterAgreement:
    def test_single_cluster_smoke(self, rng):
        # small version of the acceptance criterion
        model = GaussianModel(NIG)
        data = np.random.default_rng(3).normal(0.3, 1.0, size=20)
        batches = [ObservationBatch(t, (float(z),)) for t, z in enumerate(data, 1)]
        grid = np.linspace(-10, 10, 200)
        cfg = FilterConfig(n_particles=200, theta=0.01, policy=UniformDeletion(1.0))
        pop = None
        for _rec, pop in run_filter(batches, model, StaticKernel(), cfg, rng):
            pass
        est = estimate_density(pop, grid, model)
        stats = model.empty_stats()
        for z in data:
            model.stats_add(stats, float(z))
        exact = model.predictive_grid(stats, grid)
        tv = 0.5 * np.trapezoid(np.abs(est.values - exact), grid)
        assert tv < 0.08


class TestDeterminism:
    def test_identical_runs(self):
        model = GaussianModel(NIG)
        data = np.random.default_rng(3).normal(size=10)
        batches = [ObservationBatch(t, (float(z),)) for t, z in enumerate(data, 1)]
        cfg = FilterConfig(
            n_particles=40,
            theta=1.0,
            policy=MixturePolicy(0.98, UniformDeletion(None), SizeBiasedDeletion()),
            rho_walk=RhoWalk(1000.0, 0.9),
            grid=np.linspace(-5, 5, 50),
        )

        def one_run():
            rng = np.random.default_rng(99)
            return [
                json.dumps(rec)
                for rec, _pop in run_filter(batches, model, StaticKernel(), cfg, rng)
            ]

        assert one_run() == one_run()
