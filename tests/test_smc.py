import copy
import json
import math
import pathlib

import numpy as np
import pytest

import tvdpm.smc
from tvdpm.config import build_filter_config, build_model, validate_config
from tvdpm.datagen import DENSITY_PRESETS, gen_density_data
from tvdpm.kernels import (
    GaussianAR1,
    GaussianKnownVar,
    NormalInverseGamma,
    StaticKernel,
    SymmetricDirichlet,
)
from tvdpm.models import GaussianModel, KnownVarGaussianModel, ObservationBatch, TopicModel
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

from .oracles import (
    AtomicGaussianModel,
    FiniteAtomic,
    dirichlet_multinomial_predictive,
    kalman_ar1_filter,
    reference_advance,
    reference_density,
)

NIG = NormalInverseGamma(0.0, 0.1, 2.0, 1.0)


def make_population(particles, weights, seed=0, rho=None):
    with np.errstate(divide="ignore"):  # zero weights are legitimate here
        log_w = np.log(np.asarray(weights, dtype=float))
    return ParticlePopulation(
        particles=particles,
        log_weights=log_w,
        rng=np.random.default_rng(seed),
        rho=None if rho is None else np.asarray(rho, dtype=float),
    )


def particle_with(boxes, locations, theta=1.0):
    s = UrnState.empty(theta)
    s.boxes.update(boxes)
    s.next_label = max(boxes, default=0) + 1
    return Particle(urn=s, locations=dict(locations))


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

    def test_rho_follows_its_particle(self):
        parts = [particle_with({1: 1}, {1: (0.0, 1.0)}), particle_with({2: 9}, {2: (0.0, 1.0)})]
        pop = make_population(parts, [0.0, 1.0], rho=[0.3, 0.7])
        resample(pop)
        assert pop.rho.tolist() == [0.7, 0.7]

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

    def test_array_form_equals_float_calls(self):
        # one beta call over an (N,) array draws as N float calls in order,
        # the clipped ends included
        walk = RhoWalk(a_rho=50.0, rho0=0.5)
        prev = np.array([0.5, 1e-9, 0.2, 1.0, 0.97, 0.999999, 0.6])
        fast, slow = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(20):
            got = walk.sample(prev, fast)
            want = [walk.sample(float(r), slow) for r in prev]
            assert got.tolist() == want
            prev = got
        assert fast.bit_generator.state == slow.bit_generator.state

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
        # no box, old or new, can explain the observation
        class HopelessModel(KnownVarGaussianModel):
            def log_likelihood(self, z, u):
                return -math.inf

            def predictive_logp(self, stats, z):
                return -math.inf

        model = HopelessModel(GaussianKnownVar(0.0, 1.0), 1.0)
        cfg = FilterConfig(n_particles=4, theta=1.0, policy=UniformDeletion(0.9))
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
        parts = [particle_with({1: 1}, {1: (0, 1)}), particle_with({1: 1}, {1: (0, 1)})]
        pop = make_population(parts, [0.5, 0.5], rho=[0.8, 1.0])
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
        assert np.allclose(est, model.predictive_grid(model.empty_stats(), grid))
        assert np.trapezoid(est, grid) == pytest.approx(1.0, abs=0.02)

    def test_density_huge_box_dominates(self):
        model = GaussianModel(NIG)
        pop = make_population(
            [particle_with({1: 10_000_000}, {1: (0.0, 1.0)}, theta=3.0)], [1.0]
        )
        grid = np.linspace(-8, 8, 401)
        est = estimate_density(pop, grid, model)
        target = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(est - target)) < 1e-4

    def test_density_rejects_topic_model(self):
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
        assert abs(np.trapezoid(est, grid) - 1.0) < 0.02


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
        tv = 0.5 * np.trapezoid(np.abs(est - exact), grid)
        assert tv < 0.08


def _forced_single_cluster(model, kernel, batches, n_particles, seed):
    """The population after filtering `batches` with one cluster forced:
    theta tiny and no deletion."""
    cfg = FilterConfig(n_particles=n_particles, theta=1e-3, policy=UniformDeletion(1.0))
    for _rec, pop in run_filter(batches, model, kernel, cfg, np.random.default_rng(seed)):
        pass
    return pop


class TestSingleClusterOracles:
    """The moving-kernel and topic paths against the exact filter of one
    forced cluster; a wrong oracle is the negative control."""

    @pytest.mark.parametrize("oracle_phi,matches", [(0.9, True), (0.3, False)])
    def test_ar1_density_is_kalman_predictive(self, oracle_phi, matches):
        phi, mu0, sigma0, obs_sigma = 0.9, 0.0, 2.0, 0.5
        base = GaussianKnownVar(mu0, sigma0)
        data_rng = np.random.default_rng(1)
        u, obs = data_rng.normal(mu0, sigma0), []
        for t in range(30):
            if t:
                u = mu0 + phi * (u - mu0) + math.sqrt(1.0 - phi * phi) * sigma0 * data_rng.normal()
            obs.append(float(data_rng.normal(u, obs_sigma)))
        model = KnownVarGaussianModel(base, obs_sigma)
        batches = [ObservationBatch(t, (z,)) for t, z in enumerate(obs, 1)]
        pop = _forced_single_cluster(model, GaussianAR1(phi, base), batches, 1000, 7)
        grid = np.linspace(-10.0, 10.0, 801)
        est = estimate_density(pop, grid, model)
        m, v = kalman_ar1_filter(obs, oracle_phi, mu0, sigma0, obs_sigma)
        exact = np.exp(-0.5 * (grid - m) ** 2 / (v + obs_sigma**2)) / math.sqrt(
            2.0 * math.pi * (v + obs_sigma**2)
        )
        tv = 0.5 * np.trapezoid(np.abs(est - exact), grid)
        assert (tv < 0.03) == matches, tv

    @pytest.mark.parametrize("oracle_theta_v,matches", [(2.0, True), (20.0, False)])
    def test_topic_word_predictive_is_dirichlet_multinomial(self, oracle_theta_v, matches):
        K = 4
        model = TopicModel(SymmetricDirichlet(2.0, K))
        words = np.random.default_rng(2).choice(K, p=[0.1, 0.2, 0.3, 0.4], size=(3, 4))
        batches = [ObservationBatch(t, tuple(int(w) for w in row)) for t, row in enumerate(words, 1)]
        pop = _forced_single_cluster(model, StaticKernel(), batches, 2000, 0)
        pred = np.zeros(K)
        for w, p in zip(pop.weights(), pop.particles):
            mix = sum(m * p.locations[lab] for lab, m in p.urn.boxes.items()) + p.urn.theta / K
            pred += w * mix / (p.urn.total_mass + p.urn.theta)
        exact = dirichlet_multinomial_predictive(words.ravel(), oracle_theta_v, K)
        tv = 0.5 * np.abs(pred - exact).sum()
        assert (tv < 0.03) == matches, tv


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


class TestRunFilterSetup:
    """Setups the filter cannot run are rejected before the first step."""

    @pytest.fixture
    def no_step(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a step was filtered")

        monkeypatch.setattr(tvdpm.smc, "advance", fail)

    def test_grid_needs_gaussian_density(self, rng, no_step):
        model = AtomicGaussianModel(FiniteAtomic((-1.0, 1.0)), 0.5)
        cfg = FilterConfig(
            n_particles=3, theta=1.0, policy=UniformDeletion(0.9), grid=np.linspace(-2, 2, 5)
        )
        with pytest.raises(ValueError, match="Gaussian observation model"):
            next(run_filter([ObservationBatch(1, (0.2,))], model, StaticKernel(), cfg, rng))


def _assert_same_population(got, want):
    # the two weight forms differ only in rounding
    np.testing.assert_allclose(got.log_weights, want.log_weights, rtol=1e-12, atol=0)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    if want.rho is None:
        assert got.rho is None
    else:
        assert np.array_equal(got.rho, want.rho)
    for p_got, p_want in zip(got.particles, want.particles, strict=True):
        a, b = p_got.urn, p_want.urn
        assert (a.boxes, a.births, a.next_label, a.time) == (b.boxes, b.births, b.next_label, b.time)
        assert p_got.locations.keys() == p_want.locations.keys()
        for lab, u in p_got.locations.items():
            assert np.array_equal(u, p_want.locations[lab])


def _gaussian_batches(seed, steps=24, n=3):
    data = np.random.default_rng(seed).normal(0.0, 2.0, size=(steps, n))
    return [ObservationBatch(t, tuple(float(z) for z in row)) for t, row in enumerate(data, 1)]


def _shipped_stream(steps):
    """The first `steps` batches of criterion 6's stream (paper-4.1-scaled,
    data seed 1000)."""
    records = gen_density_data(DENSITY_PRESETS["paper-4.1-scaled"], np.random.default_rng(1000))
    return [ObservationBatch(r["t"], tuple(r["values"])) for r in records[:steps]]


def _shipped_config(**changes):
    """The shipped smc density config, with `changes` to its inference section."""
    raw = json.loads((pathlib.Path(__file__).resolve().parents[1] / "examples_config" / "smc_density.json").read_text())
    raw["inference"] = dict(raw["inference"], **changes)
    return validate_config(raw)


# name -> (model, kernel, config, batches): every filter setup the fast step
# must reproduce exactly
_STEP_SETUPS = {
    "nig-walk-size-biased": lambda: (
        GaussianModel(NIG),
        StaticKernel(),
        FilterConfig(
            n_particles=30,
            theta=2.0,
            policy=MixturePolicy(0.9, UniformDeletion(None), SizeBiasedDeletion()),
            rho_walk=RhoWalk(200.0, 0.8),
        ),
        _gaussian_batches(11),
    ),
    "known-var-ar1-conjugate": lambda: (
        KnownVarGaussianModel(GaussianKnownVar(0.0, 2.0), 0.7),
        GaussianAR1(0.8, GaussianKnownVar(0.0, 2.0)),
        FilterConfig(n_particles=30, theta=1.5, policy=UniformDeletion(0.85)),
        _gaussian_batches(12),
    ),
    "window-uniform-prior": lambda: (
        GaussianModel(NIG),
        StaticKernel(),
        FilterConfig(
            n_particles=30,
            theta=1.0,
            policy=ComposePolicy([SlidingWindow(3), UniformDeletion(0.8)]),
        ),
        _gaussian_batches(13),
    ),
    "atomic-base": lambda: (
        AtomicGaussianModel(FiniteAtomic((-2.0, 0.0, 2.0), (0.3, 0.3, 0.4)), 0.8),
        StaticKernel(),
        FilterConfig(n_particles=30, theta=1.0, policy=SizeBiasedDeletion(2)),
        _gaussian_batches(14),
    ),
    "nig-shipped-shape": lambda: (
        GaussianModel(NIG),
        StaticKernel(),
        FilterConfig(
            n_particles=200,
            theta=3.0,
            policy=MixturePolicy(0.98, UniformDeletion(None), SizeBiasedDeletion()),
            rho_walk=RhoWalk(1000.0, 0.9),
        ),
        _shipped_stream(40),
    ),
    "topic-prior": lambda: (
        TopicModel(SymmetricDirichlet(2.0, 6)),
        StaticKernel(),
        FilterConfig(n_particles=30, theta=1.0, policy=UniformDeletion(0.7)),
        [
            ObservationBatch(t, tuple(int(w) for w in row))
            for t, row in enumerate(np.random.default_rng(15).integers(0, 6, size=(24, 4)), 1)
        ],
    ),
}


class TestFastStepAgainstReference:
    """`advance` against the importance-ratio form of its weight, and
    `estimate_density` against the per-component density it replaced
    (`tests/oracles.py`)."""

    @pytest.mark.parametrize("setup", sorted(_STEP_SETUPS))
    def test_step_equals_reference(self, setup):
        model, kernel, cfg, batches = _STEP_SETUPS[setup]()
        fast = init_particles(cfg, np.random.default_rng(5))
        ref = copy.deepcopy(fast)
        resampled = 0
        for batch in batches:
            info = advance(fast, batch, model, kernel, cfg)
            want = reference_advance(ref, batch, model, kernel, cfg)
            assert (info["t"], info["resampled"]) == (want["t"], want["resampled"])
            assert info["ess"] == pytest.approx(want["ess"], rel=1e-12, abs=0)
            _assert_same_population(fast, ref)
            resampled += info["resampled"]
        assert resampled > 0

    @pytest.mark.parametrize("n", [1, 3])
    def test_steps_from_empty_urns(self, n, monkeypatch):
        # every urn is empty when both steps allocate (B = 0): at the start,
        # and after a deletion that kills every unit; no box is scored
        def unscored(z, u):
            raise AssertionError("a box was scored with no box alive")

        model = GaussianModel(NIG)
        cfg = FilterConfig(n_particles=40, theta=2.0, policy=UniformDeletion(0.0))
        fast = init_particles(cfg, np.random.default_rng(8))
        ref = copy.deepcopy(fast)
        for batch in _gaussian_batches(16, steps=2, n=n):
            with monkeypatch.context() as patch:
                patch.setattr(model, "log_likelihood", unscored)
                info = advance(fast, batch, model, StaticKernel(), cfg)
            want = reference_advance(ref, batch, model, StaticKernel(), cfg)
            assert (info["t"], info["resampled"]) == (want["t"], want["resampled"])
            assert info["ess"] == pytest.approx(want["ess"], rel=1e-12, abs=0)
            _assert_same_population(fast, ref)
            assert all(p.urn.total_mass == n for p in fast.particles)

    def test_run_filter_equals_reference_on_shipped_stream(self, monkeypatch):
        # the shipped config at N = 100 on a 30-step prefix of its stream,
        # once as it ships and once with every step taken by the oracle
        cfg = _shipped_config(n_particles=100)
        model, fc = build_model(cfg.model), build_filter_config(cfg)
        batches = _shipped_stream(30)

        def records():
            rng = np.random.default_rng(cfg.seed)
            return [rec for rec, _pop in run_filter(batches, model, StaticKernel(), fc, rng)]

        got = records()
        monkeypatch.setattr(tvdpm.smc, "advance", reference_advance)
        want = records()
        assert [(r["t"], r["resampled"]) for r in got] == [(r["t"], r["resampled"]) for r in want]
        assert sum(r["resampled"] for r in got) > 0
        for a, b in zip(got, want, strict=True):
            for key in ("ess", "n_alive", "rho_post"):
                assert a[key] == pytest.approx(b[key], rel=1e-12, abs=0)
            assert a["density"]["grid"] == b["density"]["grid"]
            np.testing.assert_allclose(a["density"]["values"], b["density"]["values"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "setup", ["nig-walk-size-biased", "known-var-ar1-conjugate", "nig-shipped-shape"]
    )
    def test_density_equals_reference_after_resampling(self, setup):
        model, kernel, cfg, batches = _STEP_SETUPS[setup]()
        pop = init_particles(cfg, np.random.default_rng(6))
        grid = np.linspace(-9.0, 9.0, 120)
        resampled = 0
        for batch in batches:
            resampled += advance(pop, batch, model, kernel, cfg)["resampled"]
            if resampled:
                est = estimate_density(pop, grid, model)
                np.testing.assert_allclose(
                    est, reference_density(pop, grid, model), rtol=1e-12, atol=0
                )
        assert resampled > 0
