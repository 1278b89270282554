"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Seeds are fixed: each criterion is a deterministic
experiment of record.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from tvdpm.datagen import DENSITY_PRESETS, TOPIC_PRESET, gen_density_data, gen_topic_corpus, mixture_density
from tvdpm.diagnostics import (
    BrokenNoiseKernel,
    esf_marginal_test,
    expected_count_check,
    kernel_stationarity_test,
    mean_correlation_curve,
)
from tvdpm.ensemble import UrnEnsemble, batch_partition_keys
from tvdpm.kernels import (
    GaussianAR1,
    GaussianKnownVar,
    NormalInverseGamma,
    StaticKernel,
    SymmetricDirichlet,
)
from tvdpm.mcmc import MCMCState, sweep
from tvdpm.models import GaussianModel, KnownVarGaussianModel, ObservationBatch, TopicModel, stats_of
from tvdpm.partitions import enumerate_partitions, esf_log_prob
from tvdpm.smc import FilterConfig, RhoWalk, estimate_density, run_filter
from tvdpm.urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    step,
)

from .oracles import (
    AtomicGaussianModel,
    FiniteAtomic,
    canonical_state_key,
    counts_of,
    enumerate_toy_posterior,
    polya_urn_sample,
    tv,
)


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_01_esf_stationarity():
    """TV(law of c_20, ESF) < 0.02 for all five policy variants at
    (n, theta) = (5, 1.5) with 2e5 replicates, under 3 minutes total."""
    rng = np.random.default_rng(101)
    policies = {
        "Uniform(0.7)": UniformDeletion(0.7),
        "SizeBiased": SizeBiasedDeletion(),
        "Mixture(0.98)": MixturePolicy(0.98, UniformDeletion(0.7), SizeBiasedDeletion()),
        "Compose(Uniform,SizeBiased)": ComposePolicy(
            [UniformDeletion(0.7), SizeBiasedDeletion()]
        ),
        "SlidingWindow(2)": SlidingWindow(2),
    }
    start = time.time()
    tvs = {
        name: esf_marginal_test(policy, 5, 1.5, 20, 200_000, rng).tv
        for name, policy in policies.items()
    }
    elapsed = time.time() - start
    ok = all(v < 0.02 for v in tvs.values()) and elapsed < 180.0
    report(
        "criterion 1 (ESF stationarity)",
        ok,
        f"TVs={{{', '.join(f'{k}: {v:.4f}' for k, v in tvs.items())}}} vs 0.02; {elapsed:.0f}s < 180s",
    )
    for name, v in tvs.items():
        assert v < 0.02, (name, v)
    assert elapsed < 180.0


def test_criterion_02_moment_identities():
    """One-step expectations under uniform deletion: |z| < 3 at 1e5
    replicates for rho in {0.3, 0.5, 0.9}, under a minute."""
    rng = np.random.default_rng(102)
    start = time.time()
    zs = {}
    for rho in (0.3, 0.5, 0.9):
        rep = expected_count_check(1.0, rho, 1, (2, 1), 100_000, rng)
        zs[rho] = rep.max_abs_z
    elapsed = time.time() - start
    ok = all(z < 3.0 for z in zs.values()) and elapsed < 60.0
    report(
        "criterion 2 (moment identities)",
        ok,
        f"max|z|={{{', '.join(f'{k}: {v:.2f}' for k, v in zs.items())}}} vs 3; {elapsed:.0f}s < 60s",
    )
    for rho, z in zs.items():
        assert z < 3.0, (rho, z)
    assert elapsed < 60.0


def test_criterion_03_correlation_ordering():
    """theta=3: corr strictly larger for rho=0.99 than 0.9 at tau in
    {1,5,10}; corr(0) = 1 +- 0.01; rho=0 curve within 3/sqrt(n_mc)."""
    rng = np.random.default_rng(103)
    start = time.time()
    n_mc, burn = 10_000, 200
    taus = [0, 1, 5, 10]
    curves = {
        rho: mean_correlation_curve(3.0, rho, taus, n_mc, burn, rng)
        for rho in (0.99, 0.9, 0.0)
    }
    elapsed = time.time() - start
    ordering = all(
        curves[0.99].correlations[i] > curves[0.9].correlations[i] for i in (1, 2, 3)
    )
    at_zero = abs(curves[0.99].correlations[0] - 1.0) < 0.01
    bound = 3.0 / math.sqrt(n_mc)
    independent = all(abs(c) < bound for c in curves[0.0].correlations[1:])
    ok = ordering and at_zero and independent and elapsed < 180.0
    report(
        "criterion 3 (correlation ordering)",
        ok,
        f"0.99: {[f'{c:.3f}' for c in curves[0.99].correlations]}, "
        f"0.9: {[f'{c:.3f}' for c in curves[0.9].correlations]}, "
        f"0.0 max |corr|={max(abs(c) for c in curves[0.0].correlations[1:]):.4f} < {bound:.4f}; "
        f"{elapsed:.0f}s < 180s",
    )
    assert ordering and at_zero and independent
    assert elapsed < 180.0


def test_criterion_04_degenerate_limits():
    """rho=1 over 3 steps of n=2 equals one 6-draw Polya urn (TV < 0.02,
    1e5 replicates); rho=0 partitions at successive steps pass a 1%
    chi-square independence test at 1e5 replicates."""
    rng = np.random.default_rng(104)
    n_mc = 100_000
    emp_steps = Counter()
    emp_urn = Counter()
    pol = UniformDeletion(1.0)
    for _ in range(n_mc):
        s = UrnState.empty(1.0)
        for _ in range(3):
            s, _ = step(s, pol, 2, rng)
        emp_steps[tuple(sorted(s.boxes.values(), reverse=True))] += 1
        emp_urn[counts_of(polya_urn_sample(6, 1.0, rng)).box_sizes()] += 1
    tv_equiv = tv(
        {k: v / n_mc for k, v in emp_steps.items()},
        {k: v / n_mc for k, v in emp_urn.items()},
    )

    ens = UrnEnsemble(n_mc, 1.0, UniformDeletion(0.0))
    ids_next = None
    for _ in range(4):
        ids_prev = ids_next
        ids_next = ens.step(3, rng)
    keys_prev = batch_partition_keys(ids_prev)
    keys_next = batch_partition_keys(ids_next)
    _, inv_prev = np.unique(keys_prev, axis=0, return_inverse=True)
    _, inv_next = np.unique(keys_next, axis=0, return_inverse=True)
    table = np.zeros((inv_prev.max() + 1, inv_next.max() + 1))
    np.add.at(table, (inv_prev, inv_next), 1)
    chi2 = sps.chi2_contingency(table)
    ok = tv_equiv < 0.02 and chi2.pvalue > 0.01
    report(
        "criterion 4 (degenerate limits)",
        ok,
        f"rho=1 equivalence TV={tv_equiv:.4f} < 0.02; rho=0 chi2 p={chi2.pvalue:.3f} > 0.01",
    )
    assert tv_equiv < 0.02
    assert chi2.pvalue > 0.01


def test_criterion_05_smc_exact_baseline():
    """Single-cluster-forced Gaussian model: filtered density vs the exact
    conjugate filter, TV < 0.05 on a 200-point grid at t=50, N=500."""
    rng = np.random.default_rng(105)
    start = time.time()
    model = GaussianModel(NormalInverseGamma(0.0, 0.1, 2.0, 1.0))
    data = np.random.default_rng(1055).normal(0.5, 0.8, size=50)
    batches = [ObservationBatch(t, (float(z),)) for t, z in enumerate(data, 1)]
    grid = np.linspace(-10.0, 10.0, 200)
    cfg = FilterConfig(n_particles=500, theta=0.01, policy=UniformDeletion(1.0))
    pop = None
    for _rec, pop in run_filter(batches, model, StaticKernel(), cfg, rng):
        pass
    est = estimate_density(pop, grid, model)
    stats = model.empty_stats()
    for z in data:
        model.stats_add(stats, float(z))
    exact = model.predictive_grid(stats, grid)
    tv_grid = 0.5 * float(np.trapezoid(np.abs(est - exact), grid))
    elapsed = time.time() - start
    ok = tv_grid < 0.05 and elapsed < 60.0
    report(
        "criterion 5 (SMC exact baseline)",
        ok,
        f"TV={tv_grid:.4f} < 0.05; {elapsed:.0f}s < 60s",
    )
    assert tv_grid < 0.05
    assert elapsed < 60.0


def _scaled_experiment(filter_seed, data_seed, density):
    cfg_stream = DENSITY_PRESETS["paper-4.1-scaled"]
    stream = list(gen_density_data(cfg_stream, np.random.default_rng(data_seed)))
    batches = [ObservationBatch(r["t"], tuple(r["values"])) for r in stream]
    truths = {r["t"]: r["truth"] for r in stream}
    model = GaussianModel(NormalInverseGamma(0.0, 0.1, 2.0, 1.0))
    grid = np.linspace(-9.0, 9.0, 200)
    fc = FilterConfig(
        n_particles=500,
        theta=3.0,
        policy=MixturePolicy(0.98, UniformDeletion(None), SizeBiasedDeletion()),
        rho_walk=RhoWalk(a_rho=1000.0, rho0=0.9),
        grid=grid if density else None,
    )
    rng = np.random.default_rng(filter_seed)
    l1, alive = {}, {}
    for rec, _pop in run_filter(batches, model, StaticKernel(), fc, rng):
        t = rec["t"]
        alive[t] = rec["n_alive"]
        if density:
            est = np.asarray(rec["density"]["values"])
            l1[t] = float(np.trapezoid(np.abs(est - mixture_density(grid, truths[t])), grid))
    return l1, alive


def test_criterion_06_scaled_density_experiment():
    """Scaled experiment: (a) per-regime mean grid-L1 < 0.35 excluding
    20-step burn-ins; (b) alive mass drops right after the first abrupt
    change (median over 10 seeds); both within 5 minutes."""
    start = time.time()
    l1, _ = _scaled_experiment(7, 1000, density=True)
    regime_means = [
        float(np.mean([l1[t] for t in range(a + 20, b + 1)]))
        for (a, b) in [(1, 100), (101, 200), (201, 300)]
    ]
    drops = []
    for s in range(10):
        _, alive = _scaled_experiment(200 + s, 1000, density=False)
        drops.append(alive[105] - alive[100])
    median_drop = float(np.median(drops))
    elapsed = time.time() - start
    ok = all(m < 0.35 for m in regime_means) and median_drop < 0.0 and elapsed < 300.0
    report(
        "criterion 6 (scaled density experiment)",
        ok,
        f"regime L1 means={[f'{m:.3f}' for m in regime_means]} < 0.35; "
        f"median N_105-N_100 over 10 seeds={median_drop:.1f} < 0; {elapsed:.0f}s < 300s",
    )
    for m in regime_means:
        assert m < 0.35, regime_means
    assert median_drop < 0.0, drops
    assert elapsed < 300.0


def test_criterion_07_mcmc_toy_exactness():
    """T=2, n=2, two-atom base, known-variance Gaussian, Uniform(0.5):
    empirical posterior over (c, d) from 1e5 sweeps matches exhaustive
    enumeration within TV 0.05, under 5 minutes."""
    start = time.time()
    theta, rho, sigma = 1.0, 0.5, 0.7
    atoms, weights = (-1.0, 1.5), (0.5, 0.5)
    obs = [(-0.8, 1.2), (1.4, -1.1)]
    exact = enumerate_toy_posterior(obs, theta, rho, atoms, weights, sigma)
    model = AtomicGaussianModel(FiniteAtomic(atoms, weights), sigma)
    rng = np.random.default_rng(107)
    state = MCMCState.from_prior(
        2, 2, theta, rho, rng, observations=obs, model=model, mode="collapsed"
    )
    freq = Counter()
    n_sweeps = 100_000
    for _ in range(n_sweeps):
        sweep(state, rng)
        freq[canonical_state_key(state)] += 1
    emp = {k: v / n_sweeps for k, v in freq.items()}
    dist = tv(emp, exact)
    elapsed = time.time() - start
    ok = dist < 0.05 and elapsed < 300.0
    report(
        "criterion 7 (MCMC toy exactness)",
        ok,
        f"TV={dist:.4f} < 0.05 over {len(exact)} states; {elapsed:.0f}s < 300s",
    )
    assert dist < 0.05
    assert elapsed < 300.0


def test_criterion_08_mcmc_prior_invariance():
    """Likelihood off, n=3, T=3, theta=1, rho=0.6: per-time partition
    marginals after 1e5 sweeps stay ESF within TV 0.02."""
    rng = np.random.default_rng(108)
    n, T, theta, rho = 3, 3, 1.0, 0.6
    state = MCMCState.from_prior(T, n, theta, rho, rng)
    per_t = [Counter() for _ in range(T)]
    n_sweeps = 100_000
    for _ in range(n_sweeps):
        sweep(state, rng)
        for t in range(T):
            per_t[t][counts_of(state.c[t]).box_sizes()] += 1
    state.check_caches()
    exact = {p.box_sizes(): math.exp(esf_log_prob(p, theta)) for p in enumerate_partitions(n)}
    tvs = [
        tv({k: v / n_sweeps for k, v in per_t[t].items()}, exact) for t in range(T)
    ]
    ok = all(v < 0.02 for v in tvs)
    report(
        "criterion 8 (MCMC prior invariance)",
        ok,
        f"per-t TVs={[f'{v:.4f}' for v in tvs]} < 0.02",
    )
    for v in tvs:
        assert v < 0.02, tvs


def test_criterion_09_kernel_stationarity():
    """GaussianAR1(0.9) over N(0,1) passes the KS test at 1% (1e4 chains of
    length 100); a broken-noise kernel must fail it."""
    rng = np.random.default_rng(109)
    base = GaussianKnownVar(0.0, 1.0)
    good = kernel_stationarity_test(GaussianAR1(0.9, base), base, 100, 10_000, rng)
    bad = kernel_stationarity_test(BrokenNoiseKernel(0.9, base), base, 100, 10_000, rng)
    ok = good.pvalue > 0.01 and bad.pvalue < 0.01
    report(
        "criterion 9 (kernel stationarity)",
        ok,
        f"AR1 p={good.pvalue:.3f} > 0.01; broken-noise p={bad.pvalue:.2e} < 0.01",
    )
    assert good.pvalue > 0.01
    assert bad.pvalue < 0.01


def test_criterion_10_topic_model_sanity():
    """Synthetic corpus (3 true topics, K=20, T=10, rho=0.4): collapsed
    predictives match the closed form exactly, and the per-sweep median (over
    t) count of alive topics lies in [2, 6] for >= 80% of post-burn-in
    sweeps across 2000 iterations, under 5 minutes."""
    start = time.time()
    rng = np.random.default_rng(110)
    corpus_cfg = dict(TOPIC_PRESET)
    records, _vocab, _topics = gen_topic_corpus(corpus_cfg, rng)
    obs = [tuple(r["words"]) for r in records]
    theta_v, K = 2.0, corpus_cfg["K"]
    model = TopicModel(SymmetricDirichlet(theta_v=theta_v, vocab_size=K))

    # closed-form check of the collapsed predictive
    sample_words = [w for r in records[:2] for w in r["words"]]
    for w in range(K):
        n_w = sample_words.count(w)
        closed = (n_w + theta_v / K) / (len(sample_words) + theta_v)
        assert math.exp(model.predictive_logp(stats_of(model, sample_words), w)) == pytest.approx(
            closed, abs=1e-12
        )

    state = MCMCState.from_prior(
        corpus_cfg["T"],
        corpus_cfg["n_per_step"],
        0.3,
        0.4,
        rng,
        observations=obs,
        model=model,
        mode="collapsed",
    )
    counts = []
    n_sweeps, burn = 2000, 500
    for _ in range(n_sweeps):
        sweep(state, rng)
        ks = state.alive_boxes_per_time()
        counts.append(sorted(ks)[len(ks) // 2])
    state.check_caches()
    post = counts[burn:]
    frac = sum(1 for c in post if 2 <= c <= 6) / len(post)
    elapsed = time.time() - start
    ok = frac >= 0.8 and elapsed < 300.0
    report(
        "criterion 10 (topic model sanity)",
        ok,
        f"predictive closed-form exact; fraction in [2,6]={frac:.3f} >= 0.8; {elapsed:.0f}s < 300s",
    )
    assert frac >= 0.8, Counter(post)
    assert elapsed < 300.0
