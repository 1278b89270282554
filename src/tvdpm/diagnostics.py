"""Statistical validation: ESF marginals, moment identities, correlation
curves, and kernel stationarity.

The ESF marginals, the moment identities and the correlation curves run
their replicas on the array engine, `ensemble.UrnEnsemble`.

Every check here compares a Monte Carlo estimate against an independent
route (exact enumeration, a closed-form expectation, or a known CDF), is
deterministic given its RNG, and has a negative-control twin in the test
suite proving it can fail.  The validation suite's pass/fail thresholds
are the module constants below.

The stationarity check's Kolmogorov–Smirnov p-value is computed here, in
NumPy and `math`, so no command imports scipy.  `kolmogorov_sf` follows
Simard & L'Ecuyer (2011) for n > 140: twice the exact one-sided Smirnov
tail where n·d² >= 2.2, the Pelz–Good (1976) series below it.  Against
scipy's `kstwo.sf` its error is at most 3.1e-8 absolute at n = 1000, and
below 5.4e-9 relative at n >= 2000; it grows for smaller n (3.4e-7 at
n = 300, 5.2e-3 at n = 5), so the check refuses fewer than
`MIN_KS_CHAINS` chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import UrnEnsemble, batch_partition_distribution
from .kernels import GaussianAR1, GaussianKnownVar, StaticKernel
from .partitions import enumerate_partitions, esf_log_prob
from .urn import (
    ComposePolicy,
    DeletionPolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
)

# unused here, but the benchmark's traced run wraps these names in this module
from .urn import allocate_batch, delete_uniform  # noqa: F401

__all__ = [
    "esf_distribution",
    "tv_distance",
    "EsfMarginalReport",
    "esf_marginal_test",
    "ExpectedCountReport",
    "expected_count_check",
    "CorrelationCurve",
    "mean_correlation_curve",
    "KSReport",
    "ks_statistic",
    "kolmogorov_sf",
    "kernel_stationarity_test",
    "BrokenNoiseKernel",
]

MAX_ESF_TEST_N = 8

# pass/fail thresholds of `run_validation_suite`
TV_ESF = 0.02  # full-size ESF marginal TV (the quick suite allows 0.05)
Z_MAX = 3.0
KS_ALPHA = 0.01
CORR_AT_ZERO_TOL = 0.01

MIN_KS_CHAINS = 1000  # below it kolmogorov_sf's error exceeds 3.1e-8


def esf_distribution(n: int, theta: float) -> dict[tuple[int, ...], float]:
    """Exact Ewens law over partitions keyed by descending box sizes."""
    return {p.box_sizes(): math.exp(esf_log_prob(p, theta)) for p in enumerate_partitions(n)}


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass
class EsfMarginalReport:
    """The empirical partition law of one batch and its total-variation
    distance to the exact Ewens law."""

    tv: float
    law: dict[tuple[int, ...], float]


def esf_marginal_test(
    policy: DeletionPolicy,
    n: int,
    theta: float,
    t_check: int,
    n_mc: int,
    rng: np.random.Generator,
) -> EsfMarginalReport:
    """The empirical partition law of the batch at t_check (over n_mc urn
    replicas) and its total-variation distance to the exact Ewens law."""
    if n > MAX_ESF_TEST_N:
        raise ValueError(f"enumeration-backed test capped at n = {MAX_ESF_TEST_N}")
    if t_check < 1:
        raise ValueError("t_check must be at least 1: the batch checked is the one drawn at t_check")
    ens = UrnEnsemble(n_mc, theta, policy)
    for _ in range(t_check):
        ids = ens.step(n, rng)
    law = batch_partition_distribution(ids)
    return EsfMarginalReport(tv=tv_distance(law, esf_distribution(n, theta)), law=law)


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
        return max([abs(z) for z in self.box_z] + [abs(self.new_mass_z)])


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
    surviving box and rho*n*theta/(theta+M) for mass born in new boxes.  The
    n_mc replicas are the rows of one `UrnEnsemble`; the given boxes keep
    their columns, and every later column is a new box."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2: a standard error needs two replicas")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    initial_counts = [int(c) for c in initial_counts]
    k0 = len(initial_counts)
    mass0 = sum(initial_counts)
    ens = UrnEnsemble.from_counts(n_mc, theta, UniformDeletion(rho), initial_counts)
    ens.allocate(n, rng)
    ens.delete(rng)
    counts = ens.counts
    # one column per given box, then the mass born in new boxes
    masses = np.column_stack([counts[:, :k0], counts[:, k0:].sum(axis=1)])
    means = masses.sum(axis=0) / n_mc
    variances = np.maximum((masses * masses).sum(axis=0) / n_mc - means * means, 0.0)
    ses = np.sqrt(variances / n_mc)

    def z_score(mean, se, expected):
        if se == 0.0:
            return 0.0 if mean == expected else math.inf
        return (mean - expected) / se

    expected = [rho * (m + n * m / (theta + mass0)) for m in initial_counts]
    expected.append(rho * n * theta / (theta + mass0))
    z = [z_score(m, se, e) for m, se, e in zip(means.tolist(), ses.tolist(), expected)]
    return ExpectedCountReport(
        theta=theta,
        rho=rho,
        n=n,
        n_mc=n_mc,
        box_means=means[:k0].tolist(),
        box_expected=expected[:k0],
        box_se=ses[:k0].tolist(),
        box_z=z[:k0],
        new_mass_mean=float(means[k0]),
        new_mass_expected=expected[k0],
        new_mass_se=float(ses[k0]),
        new_mass_z=z[k0],
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
    kernel_phi: float | None = None,
) -> CorrelationCurve:
    """Estimate corr(mean of G_t, mean of G_{t+tau}) over n_mc replicas of a
    uniform-deletion urn, one ball added per step, with standard-normal
    base; locations move by the stationary AR(1) kernel with coefficient
    kernel_phi when it is given, otherwise stay fixed for life."""
    taus = sorted(int(t) for t in taus)
    if taus and taus[0] < 0:
        raise ValueError("taus must be non-negative")
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2: a correlation needs two replicas")
    if burn_in < 1:
        raise ValueError("burn_in must be at least 1: every urn is empty at t = 0, so its predictive mean is 0")
    kernel = StaticKernel() if kernel_phi is None else GaussianAR1(kernel_phi, GaussianKnownVar(0.0, 1.0))
    ens = UrnEnsemble(n_mc, theta, UniformDeletion(rho), kernel=kernel)
    for _ in range(burn_in):
        ens.step(1, rng)
    ref = ens.predictive_mean().copy()
    horizon = max(taus) if taus else 0
    later = {0: ref}
    for lag in range(1, horizon + 1):
        ens.step(1, rng)
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
    """AR(1) with its noise scale deliberately doubled: a negative control
    that must fail the stationarity test."""

    phi: float
    base: GaussianKnownVar

    def transition(self, u_prev, rng: np.random.Generator):
        size = u_prev.shape if isinstance(u_prev, np.ndarray) else None
        mu0 = self.base.mu0
        scale = math.sqrt(1.0 - self.phi * self.phi) * self.base.sigma0 * 2.0
        u = self.phi * (u_prev - mu0) + mu0 + scale * rng.standard_normal(size)
        return u if size is not None else float(u)


def ks_statistic(values, mu: float, sigma: float) -> float:
    """Two-sided KS distance sup |F_n - F| of the sample to N(mu, sigma²)."""
    x = np.sort(values)
    n = len(x)
    scale = sigma * math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-(v - mu) / scale) for v in x])
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


def _smirnov_sf(n: int, d: float) -> float:
    """Exact one-sided tail P(D+_n >= d), 0 < d < 1, by the Birnbaum–Tingey
    sum d·Σ_j C(n,j)(d + j/n)^(j-1)(1 - d - j/n)^(n-j), j <= n(1 - d).  The
    terms are positive, so it is summed in log space without cancellation."""
    j = np.arange(int(math.floor(n * (1.0 - d))) + 1)
    rest = 1.0 - d - j / n
    keep = rest > 0.0
    j, rest = j[keep], rest[keep]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_terms = (
        log_fact[n]
        - log_fact[j]
        - log_fact[n - j]
        + (j - 1) * np.log(d + j / n)
        + (n - j) * np.log(rest)
    )
    top = log_terms.max()
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _pelz_good_cdf(n: int, d: float) -> float:
    """Pelz & Good's (1976) P(D_n <= d) ~ K0(z) + K1(z)/√n + K2(z)/n +
    K3(z)/n^1.5 at z = √n·d, each K in its small-z theta-function form."""
    z = math.sqrt(n) * d
    z2, z4, z6 = z * z, z**4, z**6
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    # Horner sum of c(m)·q^(m²) over odd m = 2k - 1
    q = math.exp(-pi2 / 8.0 / z2)
    k1a, k1b = -z2, pi2 / 4.0
    k2a = 6.0 * z6 + 2.0 * z4
    k2b = (2.0 * z4 - 5.0 * z2) * pi2 / 4.0
    k2c = pi4 * (1.0 - 2.0 * z2) / 16.0
    k3a = -30.0 * z6 - 90.0 * z**8
    k3b = pi2 * (135.0 * z4 - 96.0 * z6) / 4.0
    k3c = pi4 * (-60.0 * z2 + 212.0 * z4) / 16.0
    k3d = pi6 * (5.0 - 30.0 * z2) / 64.0
    max_k = math.ceil(16.0 * z / math.pi)
    ks = np.zeros(4)
    for k in range(max_k, 0, -1):
        m2 = (2.0 * k - 1.0) ** 2
        ks *= q ** (8 * k)
        ks += (
            1.0,
            k1a + k1b * m2,
            k2a + k2b * m2 + k2c * m2 * m2,
            k3a + k3b * m2 + k3c * m2 * m2 + k3d * m2**3,
        )
    ks *= q * math.sqrt(2.0 * math.pi)
    ks /= (z, 6.0 * z4, 72.0 * z**7, 6480.0 * z**10)
    # the integer-k corrections of K2 and K3
    k = np.arange(max_k, 0, -1, dtype=float)
    k2q = k * k * np.exp(-pi2 / 2.0 / z2 * k * k)
    ks[2] -= pi2 * math.sqrt(2.0 * math.pi) / (36.0 * z**3) * float(k2q.sum())
    ks[3] += (
        pi2 * math.sqrt(2.0 * math.pi) / (216.0 * z6)
        * float(((3.0 * z2 - pi2 * k * k) * k2q).sum())
    )
    return float((ks / n ** (np.arange(4) / 2.0)).sum())


def kolmogorov_sf(n: int, d: float) -> float:
    """Two-sided KS tail P(D_n >= d) for a sample of n, by the dispatch of
    scipy's `kstwo.sf` for n > 140 (Simard & L'Ecuyer 2011).  The two
    Ruben–Gambino branches (n·d <= 1, n·d >= n - 1) are exact for every n;
    the rest is accurate to 3.1e-8 absolute for n >= 1000."""
    if d >= 1.0:
        return 0.0
    if d <= 0.0:
        return 1.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        p = 1.0 - math.exp(math.lgamma(n + 1.0) - n * math.log(n) + n * math.log(2.0 * t - 1.0))
    elif t >= n - 1:
        p = 2.0 * (1.0 - d) ** n
    elif t * d >= 370.0:
        return 0.0
    elif d >= 0.5 or t * d >= 2.2:
        p = 2.0 * _smirnov_sf(n, d)
    else:
        p = 1.0 - _pelz_good_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def kernel_stationarity_test(
    kernel,
    base,
    chain_length: int,
    n_chains: int,
    rng: np.random.Generator,
) -> KSReport:
    """Initialize n_chains at the base, run the kernel chain_length steps
    (all chains as one array), and KS-test the terminal values against the
    base CDF: `ks_statistic` with erfc, the p-value from `kolmogorov_sf`.
    The base must be a scalar Gaussian and n_chains at least MIN_KS_CHAINS,
    where the p-value is within 3.1e-8 of scipy's exact one; both are
    checked before any draw."""
    if not isinstance(base, GaussianKnownVar):
        raise ValueError("stationarity KS test supports scalar Gaussian bases")
    if n_chains < MIN_KS_CHAINS:
        raise ValueError(
            f"stationarity KS test needs at least {MIN_KS_CHAINS} chains, got {n_chains}"
        )
    values = rng.normal(base.mu0, base.sigma0, n_chains)
    for _ in range(chain_length):
        values = kernel.transition(values, rng)
    statistic = ks_statistic(values, base.mu0, base.sigma0)
    return KSReport(
        statistic=statistic,
        pvalue=kolmogorov_sf(n_chains, statistic),
        n_chains=n_chains,
        chain_length=chain_length,
    )


def run_validation_suite(seed: int, quick: bool = False) -> dict:
    """The library's statistical checks bundled into one report.

    Covers the ESF-marginal property for every deletion policy variant
    (with a wrong-theta negative control, which reads the law the
    uniform(0.7) check simulated), the one-step moment identities
    under uniform deletion (with a broken-formula negative control), the
    correlation-decay ordering in rho, and kernel stationarity (with a
    broken-noise negative control).  quick shrinks the Monte Carlo sizes
    (and loosens the ESF tolerance accordingly) to fit an under-a-minute
    budget.
    """
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
    esf = {
        name: esf_marginal_test(policy, 5, 1.5, 20, n_mc_esf, rng) for name, policy in policies.items()
    }
    for name, rep in esf.items():
        record(f"esf-marginal/{name}", rep.tv < tv_thresh, rep.tv, tv_thresh, "max")
    # negative control: the uniform check's law must not match a wrong theta
    wrong = tv_distance(esf["uniform(0.7)"].law, esf_distribution(5, 3.0))
    record("esf-marginal/negative-control-wrong-theta", wrong > tv_thresh, wrong, tv_thresh, "min")

    n_mc_mom = 20_000 if quick else 100_000
    reports = {
        rho: expected_count_check(1.0, rho, 1, (2, 1), n_mc_mom, rng) for rho in (0.3, 0.5, 0.9)
    }
    for rho, rep in reports.items():
        record(
            f"moment-identities/rho={rho}",
            rep.max_abs_z < Z_MAX,
            rep.max_abs_z,
            Z_MAX,
            "max",
            box_means=rep.box_means,
            box_expected=rep.box_expected,
        )
    rep = reports[0.5]
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
