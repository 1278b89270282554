"""Observation models with conjugate posterior and predictive machinery.

Three mixed densities are shipped: a Gaussian with NormalInverseGamma base
(locations are (mean, variance) pairs), a known-variance Gaussian with a
Normal prior over its mean, and a multinomial word model with symmetric
Dirichlet base.  Each model exposes the same surface: pointwise
log-likelihood (at one location, or at m stacked ones in one call), exact
conjugate posterior sampling, and the collapsed predictive used by the
Gibbs sampler, plus an incremental sufficient-statistics API so samplers
can add/remove single observations in O(1).  Both Gaussian models keep one
statistic: [count, sum, sum of squares].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKnownVar, NormalInverseGamma, SymmetricDirichlet

__all__ = [
    "DataError",
    "ObservationBatch",
    "GaussianModel",
    "KnownVarGaussianModel",
    "TopicModel",
    "normal_logpdf",
    "student_t_logpdf",
    "stats_of",
    "read_observation_batches",
    "read_corpus",
]

_LOG_2PI = math.log(2.0 * math.pi)
NEG_INF = float("-inf")


class DataError(ValueError):
    """Observation data rejected where it is read."""


@dataclass(frozen=True)
class ObservationBatch:
    """The n observations arriving at one time step."""

    time: int
    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise DataError(f"empty batch at t={self.time}: a batch needs at least one observation")

    @property
    def n(self) -> int:
        return len(self.values)


def normal_logpdf(x, mean, var):
    return -0.5 * (_LOG_2PI + np.log(var)) - (x - mean) ** 2 / (2.0 * var)


def _norm_logpdf(x: float, mean, var: float):
    # fast path for sampler inner loops: var is a float, mean a float or an
    # array (each entry then the float a float mean would give)
    return -0.5 * (_LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def student_t_logpdf(x, df: float, loc, scale):
    """Student-t log-density, broadcast over x, loc and scale; df is a scalar."""
    z = (x - loc) / scale
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * np.log(df * np.pi)
        - np.log(scale)
        - (df + 1.0) / 2.0 * np.log1p(z * z / df)
    )


def _student_t_logpdf_scalar(x: float, df: float, loc: float, scale: float) -> float:
    z = (x - loc) / scale
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
        - (df + 1.0) / 2.0 * math.log1p(z * z / df)
    )


def log_sum_exp_array(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-d float array, non-finite when every entry is
    -inf (or any is +inf or nan).

    The entries tied at the max are taken out of the sum and counted: the
    result is log1p(s / m) + log(m) + max, with s the sum of exp(a - max)
    over the other entries and m the tie count.  log1p keeps the digits of a
    sum dominated by its largest term, and this is the form (and the order
    of operations) of scipy.special.logsumexp, so the SMC normaliser equals
    scipy's bit for bit without importing scipy.
    """
    top = a.max()
    tied = a == top
    count = float(np.count_nonzero(tied))
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = np.exp(a - top)
        shifted[tied] = 0.0
        s = shifted.sum() / count
        return float(np.log1p(s) + np.log(count) + top)


class _GaussianStats:
    """Sufficient statistics of scalar Gaussian observations: [count, sum,
    sum of squares], one observation added or removed in O(1)."""

    def empty_stats(self):
        return [0, 0.0, 0.0]

    def stats_add(self, stats, z):
        stats[0] += 1
        stats[1] += z
        stats[2] += z * z

    def stats_remove(self, stats, z):
        stats[0] -= 1
        stats[1] -= z
        stats[2] -= z * z


class GaussianModel(_GaussianStats):
    """Gaussian mixed density with NormalInverseGamma base.

    Cluster parameter u = (mean, variance); the collapsed predictive is a
    located-scaled Student-t.
    """

    def __init__(self, base: NormalInverseGamma):
        self.base = base

    def _posterior_params(self, stats):
        b = self.base
        n, s, ss = stats
        kappa_n = b.kappa0 + n
        mu_n = (b.kappa0 * b.mu0 + s) / kappa_n
        nu_n = b.nu0 + n
        lam_n = b.lambda0
        if n:
            zbar = s / n
            lam_n += max(ss - n * zbar * zbar, 0.0)
            lam_n += b.kappa0 * n * (zbar - b.mu0) ** 2 / kappa_n
        return mu_n, kappa_n, nu_n, lam_n

    def log_marginal(self, stats) -> float:
        """Log density of a box's observations with its mean and variance
        integrated out: the product of its sequential predictives."""
        b = self.base
        _mu_n, kappa_n, nu_n, lam_n = self._posterior_params(stats)
        return (
            math.lgamma(nu_n / 2.0)
            - math.lgamma(b.nu0 / 2.0)
            + b.nu0 / 2.0 * math.log(b.lambda0 / 2.0)
            - nu_n / 2.0 * math.log(lam_n / 2.0)
            + 0.5 * math.log(b.kappa0 / kappa_n)
            - 0.5 * stats[0] * _LOG_2PI
        )

    def log_likelihood(self, z, u):
        """log N(z; mean, var) at u = (mean, var), or one value per row of
        an (m, 2) array of stacked locations."""
        if isinstance(u, np.ndarray):
            return normal_logpdf(z, u[:, 0], u[:, 1])
        mean, var = u
        return _norm_logpdf(z, mean, var)

    def posterior_sample_from_stats(self, stats, rng: np.random.Generator):
        mu_n, kappa_n, nu_n, lam_n = self._posterior_params(stats)
        variance = (lam_n / 2.0) / rng.gamma(nu_n / 2.0)
        mean = rng.normal(mu_n, math.sqrt(variance / kappa_n))
        return (mean, variance)

    def predictive_logp(self, stats, z) -> float:
        mu_n, kappa_n, nu_n, lam_n = self._posterior_params(stats)
        scale = math.sqrt(lam_n * (kappa_n + 1.0) / (kappa_n * nu_n))
        return _student_t_logpdf_scalar(z, nu_n, mu_n, scale)

    def predictive_grid(self, stats, grid: np.ndarray) -> np.ndarray:
        mu_n, kappa_n, nu_n, lam_n = self._posterior_params(stats)
        scale = math.sqrt(lam_n * (kappa_n + 1.0) / (kappa_n * nu_n))
        return np.exp(student_t_logpdf(grid, nu_n, mu_n, scale))


class KnownVarGaussianModel(_GaussianStats):
    """Gaussian likelihood with known observation variance and a conjugate
    GaussianKnownVar (Normal) base over the cluster mean.  A box keeps
    [count, sum, sum of squares], added to and removed from in O(1)."""

    def __init__(self, base: GaussianKnownVar, obs_sigma: float):
        if obs_sigma <= 0:
            raise ValueError("obs_sigma must be positive")
        if not isinstance(base, GaussianKnownVar):
            raise TypeError("base must be GaussianKnownVar")
        self.base = base
        self.obs_sigma = float(obs_sigma)
        self._obs_var = obs_sigma * obs_sigma

    def log_likelihood(self, z, u):
        """log N(z; u, obs_var) at a float mean u, or one value per entry of
        an (m,) array of means (the same floats as m float calls)."""
        return _norm_logpdf(z, u, self._obs_var)

    def _posterior_mean_var(self, stats):
        b = self.base
        n, s = stats[0], stats[1]
        prec = 1.0 / (b.sigma0 * b.sigma0) + n / self._obs_var
        mean = (b.mu0 / (b.sigma0 * b.sigma0) + s / self._obs_var) / prec
        return mean, 1.0 / prec

    def log_marginal(self, stats) -> float:
        """Log density of a box's observations with its mean integrated
        out: the product of its sequential predictives."""
        n, _s, ss = stats
        b = self.base
        prior_prec = 1.0 / (b.sigma0 * b.sigma0)
        mean, var = self._posterior_mean_var(stats)
        return (
            -0.5 * n * (_LOG_2PI + math.log(self._obs_var))
            + 0.5 * math.log(prior_prec * var)
            - 0.5 * (ss / self._obs_var + b.mu0 * b.mu0 * prior_prec - mean * mean / var)
        )

    def posterior_sample_from_stats(self, stats, rng: np.random.Generator):
        mean, var = self._posterior_mean_var(stats)
        return float(rng.normal(mean, math.sqrt(var)))

    def predictive_logp(self, stats, z) -> float:
        mean, var = self._posterior_mean_var(stats)
        return _norm_logpdf(z, mean, var + self._obs_var)

    def predictive_grid(self, stats, grid: np.ndarray) -> np.ndarray:
        mean, var = self._posterior_mean_var(stats)
        return np.exp(normal_logpdf(np.asarray(grid, dtype=float), mean, var + self._obs_var))


class TopicModel:
    """Multinomial word emission with symmetric Dirichlet base over topics.

    Collapsed computations (topics integrated out) are used everywhere; an
    explicit topic vector is only materialized by
    `posterior_sample_from_stats` for reporting.
    """

    def __init__(self, base: SymmetricDirichlet):
        self.base = base
        self.K = base.vocab_size
        self._alpha = base.theta_v / base.vocab_size

    def empty_stats(self):
        return [np.zeros(self.K, dtype=np.int64), 0]

    def stats_add(self, stats, w):
        stats[0][w] += 1
        stats[1] += 1

    def stats_remove(self, stats, w):
        stats[0][w] -= 1
        stats[1] -= 1

    def log_likelihood(self, w, y):
        """log y[w] for a topic vector y (-inf where the word has probability
        zero), or one value per row of an (m, K) array of stacked vectors."""
        if y.ndim == 2:
            with np.errstate(divide="ignore"):
                return np.log(y[:, w])
        p = y[w]
        if p <= 0.0:
            return NEG_INF
        return math.log(p)

    def posterior_sample_from_stats(self, stats, rng: np.random.Generator):
        return rng.dirichlet(stats[0] + self._alpha)

    def predictive_logp(self, stats, w) -> float:
        counts, total = stats
        # item() reads the count as a Python int: the same float, without
        # NumPy scalar arithmetic
        return math.log(counts.item(w) + self._alpha) - math.log(total + self.base.theta_v)

    def log_marginal(self, stats) -> float:
        """Log probability of a box's words with its topic integrated out
        (Dirichlet-multinomial): the product of its sequential predictives."""
        counts, total = stats
        a = self._alpha
        lg_a = math.lgamma(a)
        return (
            math.lgamma(self.base.theta_v)
            - math.lgamma(total + self.base.theta_v)
            + sum(math.lgamma(c + a) - lg_a for c in counts.tolist() if c)
        )


def stats_of(model, observations):
    """Sufficient statistics of `observations` under `model`, added in order."""
    stats = model.empty_stats()
    for z in observations:
        model.stats_add(stats, z)
    return stats


def _in_time_order(batches: list[ObservationBatch]) -> list[ObservationBatch]:
    """Sort batches by time; there must be some, at distinct and
    consecutive times."""
    if not batches:
        raise DataError("no records in the data file")
    batches.sort(key=lambda b: b.time)
    for prev, nxt in zip(batches, batches[1:]):
        if nxt.time == prev.time:
            raise DataError(f"duplicate time t={nxt.time}")
        if nxt.time != prev.time + 1:
            raise DataError(
                f"times skip from t={prev.time} to t={nxt.time}; they must be consecutive"
            )
    return batches


def _records(path, key: str):
    """(t, list) per non-blank JSON line of `path`: t must be an integer and
    `key` must hold a list."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t = rec.get("t") if isinstance(rec, dict) else None
            if type(t) is not int:
                raise DataError(f"t must be an integer, got t={t!r}")
            items = rec.get(key)
            if not isinstance(items, list):
                raise DataError(f'no "{key}" list at t={t}')
            yield t, items


def read_observation_batches(path) -> list[ObservationBatch]:
    """Read JSON-lines {"t": int, "values": [...]} into batches; values must
    be finite numbers whose squares are finite too, and so must the sum of
    all the squares (the models' sufficient statistics and posteriors square
    them and add them up, and no box holds more than the whole stream)."""
    out = []
    squares = 0.0
    for t, values in _records(path, "values"):
        for z in values:
            try:
                ok = type(z) in (int, float) and math.isfinite(square := float(z) ** 2)
            except OverflowError:  # an int past float range, or a huge square
                ok = False
            if not ok:
                raise DataError(f"value {z!r} at t={t} is not a finite number with a finite square")
            squares += square
        if not math.isfinite(squares):
            raise DataError(f"the sum of the squared values overflows at t={t}")
        out.append(ObservationBatch(time=t, values=tuple(values)))
    return _in_time_order(out)


def read_corpus(path, vocab_path) -> tuple[list[ObservationBatch], list[str]]:
    """Read JSON-lines {"t": int, "words": [int]} plus a one-token-per-line
    vocabulary; word ids must be integers within the vocabulary."""
    with open(vocab_path) as fh:
        vocab = [line.strip() for line in fh if line.strip()]
    K = len(vocab)
    out = []
    for t, words in _records(path, "words"):
        bad = [w for w in words if type(w) is not int or not 0 <= w < K]
        if bad:
            raise DataError(f"word ids {bad} at t={t} are not integers inside the vocabulary of size {K}")
        out.append(ObservationBatch(time=t, values=tuple(words)))
    return _in_time_order(out), vocab
