"""Statistical validation: ESF marginals, moment identities, correlation
curves, and kernel stationarity.

Every check here compares a Monte Carlo estimate against an independent
route (exact enumeration, a closed-form expectation, or a known CDF), is
deterministic given its RNG, and has a negative-control twin in the test
suite proving it can fail.  The validation suite's pass/fail thresholds
are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import UrnEnsemble, batch_partition_distribution
from .kernels import GaussianAR1, GaussianKnownVar, StaticKernel
from .partitions import enumerate_partitions, esf_log_prob
from .urn import DeletionPolicy, UniformDeletion, UrnState, allocate_batch, delete_uniform

__all__ = [
    "esf_distribution",
    "tv_distance",
    "esf_marginal_test",
    "ExpectedCountReport",
    "expected_count_check",
    "CorrelationCurve",
    "mean_correlation_curve",
    "KSReport",
    "kernel_stationarity_test",
    "BrokenNoiseKernel",
]

MAX_ESF_TEST_N = 8

# pass/fail thresholds of `run_validation_suite`
TV_ESF = 0.02  # full-size ESF marginal TV (the quick suite allows 0.05)
Z_MAX = 3.0
KS_ALPHA = 0.01
CORR_AT_ZERO_TOL = 0.01


def esf_distribution(n: int, theta: float) -> dict[tuple[int, ...], float]:
    """Exact Ewens law over partitions keyed by descending box sizes."""
    return {p.box_sizes(): math.exp(esf_log_prob(p, theta)) for p in enumerate_partitions(n)}


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def esf_marginal_test(
    policy: DeletionPolicy,
    n: int,
    theta: float,
    t_check: int,
    n_mc: int,
    rng: np.random.Generator,
) -> float:
    """Total-variation distance between the empirical partition law of the
    batch at t_check (over n_mc urn replicas) and the exact Ewens law."""
    if n > MAX_ESF_TEST_N:
        raise ValueError(f"enumeration-backed test capped at n = {MAX_ESF_TEST_N}")
    ens = UrnEnsemble(n_mc, theta, policy)
    ids = None
    for _ in range(t_check):
        ids = ens.step(n, rng)
    empirical = batch_partition_distribution(ids)
    return tv_distance(empirical, esf_distribution(n, theta))


@dataclass
class ExpectedCountReport:
    """Monte Carlo means vs the closed-form one-step expectations under
    uniform deletion, with standard errors and z-scores."""

    theta: float
    rho: float
    n: int
    n_mc: int
    box_means: list[float]
    box_expected: list[float]
    box_se: list[float]
    box_z: list[float]
    new_mass_mean: float
    new_mass_expected: float
    new_mass_se: float
    new_mass_z: float

    @property
    def max_abs_z(self) -> float:
        return max(max(abs(z) for z in self.box_z), abs(self.new_mass_z))


def expected_count_check(
    theta: float,
    rho: float,
    n: int,
    initial_counts,
    n_mc: int,
    rng: np.random.Generator,
) -> ExpectedCountReport:
    """One allocation batch then one uniform deletion, started from the given
    post-deletion box sizes; checks E[m_k] = rho*(m_k + n*m_k/(theta+M)) per
    surviving box and rho*n*theta/(theta+M) for mass born in new boxes."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    initial_counts = [int(c) for c in initial_counts]
    if any(c < 1 for c in initial_counts):
        raise ValueError("initial box sizes must be positive")
    k0 = len(initial_counts)
    mass0 = sum(initial_counts)
    base_state = UrnState(
        theta=theta,
        boxes={i + 1: c for i, c in enumerate(initial_counts)},
        next_label=k0 + 1,
    )
    sums = np.zeros(k0)
    sqs = np.zeros(k0)
    new_sum = 0.0
    new_sq = 0.0
    for _ in range(n_mc):
        state, _ = allocate_batch(base_state, n, rng)
        state = delete_uniform(state, rho, rng)
        for i in range(k0):
            m = state.boxes.get(i + 1, 0)
            sums[i] += m
            sqs[i] += m * m
        new_mass = sum(c for lab, c in state.boxes.items() if lab > k0)
        new_sum += new_mass
        new_sq += new_mass * new_mass

    def mean_se(total, total_sq):
        mean = total / n_mc
        var = max(total_sq / n_mc - mean * mean, 0.0)
        return mean, math.sqrt(var / n_mc)

    def z_score(mean, se, expected):
        if se == 0.0:
            return 0.0 if mean == expected else math.inf
        return (mean - expected) / se

    box_expected = [rho * (m + n * m / (theta + mass0)) for m in initial_counts]
    new_expected = rho * n * theta / (theta + mass0)
    box_stats = [mean_se(sums[i], sqs[i]) for i in range(k0)]
    new_mean, new_se = mean_se(new_sum, new_sq)
    return ExpectedCountReport(
        theta=theta,
        rho=rho,
        n=n,
        n_mc=n_mc,
        box_means=[m for m, _ in box_stats],
        box_expected=box_expected,
        box_se=[se for _, se in box_stats],
        box_z=[z_score(m, se, e) for (m, se), e in zip(box_stats, box_expected)],
        new_mass_mean=new_mean,
        new_mass_expected=new_expected,
        new_mass_se=new_se,
        new_mass_z=z_score(new_mean, new_se, new_expected),
    )


@dataclass
class CorrelationCurve:
    """Monte Carlo correlation of the urn-induced predictive mean between
    times separated by tau, after burn-in."""

    taus: list[int]
    correlations: list[float]
    theta: float
    rho: float
    n_mc: int
    burn_in: int
    kernel_phi: float | None = None

    def csv_rows(self):
        for tau, corr in zip(self.taus, self.correlations):
            yield {"tau": tau, "correlation": corr, "rho": self.rho, "theta": self.theta}


def mean_correlation_curve(
    theta: float,
    rho: float,
    taus,
    n_mc: int,
    burn_in: int,
    rng: np.random.Generator,
    *,
    n: int = 1,
    kernel_phi: float | None = None,
) -> CorrelationCurve:
    """Estimate corr(mean of G_t, mean of G_{t+tau}) over n_mc replicas of a
    uniform-deletion urn with standard-normal base; locations move by the
    stationary AR(1) kernel with coefficient kernel_phi when it is given,
    otherwise stay fixed for life."""
    taus = sorted(int(t) for t in taus)
    if taus and taus[0] < 0:
        raise ValueError("taus must be non-negative")
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2: a correlation needs two replicas")
    kernel = StaticKernel() if kernel_phi is None else GaussianAR1(kernel_phi, GaussianKnownVar(0.0, 1.0))
    ens = UrnEnsemble(n_mc, theta, UniformDeletion(rho), kernel=kernel)
    for _ in range(burn_in):
        ens.step(n, rng)
    ref = ens.predictive_mean().copy()
    horizon = max(taus) if taus else 0
    later = {0: ref}
    for lag in range(1, horizon + 1):
        ens.step(n, rng)
        if lag in taus:
            later[lag] = ens.predictive_mean().copy()
    corrs = []
    for tau in taus:
        x, y = ref, later[tau]
        corrs.append(float(np.corrcoef(x, y)[0, 1]))
    return CorrelationCurve(
        taus=list(taus),
        correlations=corrs,
        theta=theta,
        rho=rho,
        n_mc=n_mc,
        burn_in=burn_in,
        kernel_phi=kernel_phi,
    )


@dataclass
class KSReport:
    statistic: float
    pvalue: float
    n_chains: int
    chain_length: int


@dataclass(frozen=True)
class BrokenNoiseKernel:
    """AR(1) with deliberately mis-scaled noise: a negative control that must
    fail the stationarity test."""

    phi: float
    base: GaussianKnownVar
    noise_factor: float = 2.0

    def transition(self, u_prev, rng: np.random.Generator):
        size = u_prev.shape if isinstance(u_prev, np.ndarray) else None
        mu0 = self.base.mu0
        scale = math.sqrt(1.0 - self.phi * self.phi) * self.base.sigma0 * self.noise_factor
        u = self.phi * (u_prev - mu0) + mu0 + scale * rng.standard_normal(size)
        return u if size is not None else float(u)


def kernel_stationarity_test(
    kernel,
    base,
    chain_length: int,
    n_chains: int,
    rng: np.random.Generator,
) -> KSReport:
    """Initialize n_chains at the base, run the kernel chain_length steps
    (all chains as one array), and KS-test the terminal values against the
    base CDF."""
    # imported here: scipy.stats is most of the package's import time
    from scipy import stats as sps

    if not isinstance(base, GaussianKnownVar):
        raise ValueError("stationarity KS test supports scalar Gaussian bases")
    values = rng.normal(base.mu0, base.sigma0, n_chains)
    for _ in range(chain_length):
        values = kernel.transition(values, rng)
    result = sps.kstest(values, sps.norm(loc=base.mu0, scale=base.sigma0).cdf)
    return KSReport(
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        n_chains=n_chains,
        chain_length=chain_length,
    )


def run_validation_suite(seed: int, quick: bool = False) -> dict:
    """The library's statistical checks bundled into one report.

    Covers the ESF-marginal property for every deletion policy variant
    (with a wrong-scale negative control), the one-step moment identities
    under uniform deletion (with a broken-formula negative control), the
    correlation-decay ordering in rho, and kernel stationarity (with a
    broken-noise negative control).  quick shrinks the Monte Carlo sizes
    (and loosens the ESF tolerance accordingly) to fit an under-a-minute
    budget.
    """
    from .urn import ComposePolicy, MixturePolicy, SizeBiasedDeletion, SlidingWindow

    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(name, passed, value, threshold, kind, **details):
        checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "value": float(value),
                "threshold": float(threshold),
                "kind": kind,
                **details,
            }
        )

    n_mc_esf = 20_000 if quick else 200_000
    tv_thresh = 0.05 if quick else TV_ESF
    policies = {
        "uniform(0.7)": UniformDeletion(0.7),
        "size_biased": SizeBiasedDeletion(),
        "mixture(0.98)": MixturePolicy(0.98, UniformDeletion(0.7), SizeBiasedDeletion()),
        "compose(uniform,size_biased)": ComposePolicy(
            [UniformDeletion(0.8), SizeBiasedDeletion()]
        ),
        "sliding_window(2)": SlidingWindow(2),
    }
    for name, policy in policies.items():
        tv = esf_marginal_test(policy, 5, 1.5, 20, n_mc_esf, rng)
        record(f"esf-marginal/{name}", tv < tv_thresh, tv, tv_thresh, "max")
    # negative control: the same simulation must not match a wrong theta
    ens = UrnEnsemble(n_mc_esf, 1.5, UniformDeletion(0.7))
    ids = None
    for _ in range(20):
        ids = ens.step(5, rng)
    wrong = tv_distance(batch_partition_distribution(ids), esf_distribution(5, 3.0))
    record("esf-marginal/negative-control-wrong-theta", wrong > tv_thresh, wrong, tv_thresh, "min")

    n_mc_mom = 20_000 if quick else 100_000
    for rho in (0.3, 0.5, 0.9):
        rep = expected_count_check(1.0, rho, 1, (2, 1), n_mc_mom, rng)
        record(
            f"moment-identities/rho={rho}",
            rep.max_abs_z < Z_MAX,
            rep.max_abs_z,
            Z_MAX,
            "max",
            box_means=rep.box_means,
            box_expected=rep.box_expected,
        )
    rep = expected_count_check(1.0, 0.5, 1, (2, 1), n_mc_mom, rng)
    wrong_expected = rep.box_expected[0] / rep.rho  # formula without the rho factor
    broken = abs((rep.box_means[0] - wrong_expected) / rep.box_se[0])
    record("moment-identities/negative-control-missing-rho", broken > Z_MAX, broken, Z_MAX, "min")

    n_mc_corr = 3_000 if quick else 10_000
    taus = [0, 1, 5, 10]
    curves = {
        rho: mean_correlation_curve(3.0, rho, taus, n_mc_corr, 200, rng)
        for rho in (0.0, 0.9, 0.99)
    }
    at_zero = curves[0.99].correlations[0]
    record(
        "correlation/corr-at-zero",
        abs(at_zero - 1.0) < CORR_AT_ZERO_TOL,
        at_zero,
        CORR_AT_ZERO_TOL,
        "abs-diff-from-1",
    )
    ordered = all(
        curves[0.99].correlations[i] > curves[0.9].correlations[i] for i in (1, 2, 3)
    )
    record(
        "correlation/ordering-rho",
        ordered,
        min(
            curves[0.99].correlations[i] - curves[0.9].correlations[i] for i in (1, 2, 3)
        ),
        0.0,
        "min",
        curve_099=curves[0.99].correlations,
        curve_09=curves[0.9].correlations,
    )
    bound = 3.0 / math.sqrt(n_mc_corr)
    worst = max(abs(c) for c in curves[0.0].correlations[1:])
    record("correlation/independent-at-rho-zero", worst < bound, worst, bound, "max")

    base = GaussianKnownVar(0.0, 1.0)
    n_chains = 2_000 if quick else 10_000
    length = 50 if quick else 100
    ks = kernel_stationarity_test(GaussianAR1(0.9, base), base, length, n_chains, rng)
    record("kernel-stationarity/ar1(0.9)", ks.pvalue > KS_ALPHA, ks.pvalue, KS_ALPHA, "min")
    ks_bad = kernel_stationarity_test(
        BrokenNoiseKernel(0.9, base), base, length, n_chains, rng
    )
    record(
        "kernel-stationarity/negative-control-broken-noise",
        ks_bad.pvalue < KS_ALPHA,
        ks_bad.pvalue,
        KS_ALPHA,
        "max",
    )

    return {
        "seed": seed,
        "quick": quick,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
