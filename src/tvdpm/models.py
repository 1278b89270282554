"""Observation models with conjugate posterior and predictive machinery.

Three mixed densities are shipped: a Gaussian with NormalInverseGamma base
(locations are (mean, variance) pairs), a known-variance Gaussian whose
base is either a Normal prior or a finite atomic measure, and a multinomial
word model with symmetric Dirichlet base.  Each model exposes the same
surface: pointwise log-likelihood, exact conjugate posterior sampling, and
the collapsed predictive used by the Gibbs sampler, plus an incremental
sufficient-statistics API so samplers can add/remove single observations in
O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .kernels import (
    FiniteAtomic,
    GaussianKnownVar,
    NormalInverseGamma,
    SymmetricDirichlet,
)
from .partitions import sample_categorical

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


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    # scalar fast path for sampler inner loops
    return -0.5 * (_LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def student_t_logpdf(x, df, loc, scale):
    z = (x - loc) / scale
    return (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
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


def _invgamma_logpdf(x, shape, rate):
    return shape * math.log(rate) - gammaln(shape) - (shape + 1.0) * math.log(x) - rate / x


class GaussianModel:
    """Gaussian mixed density with NormalInverseGamma base.

    Cluster parameter u = (mean, variance); the collapsed predictive is a
    located-scaled Student-t.
    """

    def __init__(self, base: NormalInverseGamma):
        self.base = base

    # sufficient statistics: [count, sum, sum of squares]
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

    def log_likelihood(self, z, u) -> float:
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

    def base_log_density(self, u) -> float:
        mean, var = u
        b = self.base
        out = _invgamma_logpdf(var, b.nu0 / 2.0, b.lambda0 / 2.0)
        out += float(normal_logpdf(mean, b.mu0, var / b.kappa0))
        return out

    def posterior_log_density(self, stats, u) -> float:
        mean, var = u
        mu_n, kappa_n, nu_n, lam_n = self._posterior_params(stats)
        out = _invgamma_logpdf(var, nu_n / 2.0, lam_n / 2.0)
        out += float(normal_logpdf(mean, mu_n, var / kappa_n))
        return out


class KnownVarGaussianModel:
    """Gaussian likelihood with known observation variance.

    The base over the cluster mean is either GaussianKnownVar (conjugate
    normal-normal) or FiniteAtomic (exact discrete posterior); the latter is
    what makes small state spaces exhaustively enumerable in tests.
    """

    def __init__(self, base, obs_sigma: float):
        if obs_sigma <= 0:
            raise ValueError("obs_sigma must be positive")
        if not isinstance(base, (GaussianKnownVar, FiniteAtomic)):
            raise TypeError("base must be GaussianKnownVar or FiniteAtomic")
        self.base = base
        self.obs_sigma = float(obs_sigma)
        self._obs_var = obs_sigma * obs_sigma
        self._atomic = isinstance(base, FiniteAtomic)
        if self._atomic:
            self._atoms = [float(a) for a in base.atoms]
            self._log_w = [math.log(w) for w in base.weights]

    def empty_stats(self):
        if self._atomic:
            return [0.0] * len(self._atoms)
        return [0, 0.0]

    def stats_add(self, stats, z):
        if self._atomic:
            for i, a in enumerate(self._atoms):
                stats[i] += _norm_logpdf(z, a, self._obs_var)
        else:
            stats[0] += 1
            stats[1] += z

    def stats_remove(self, stats, z):
        if self._atomic:
            for i, a in enumerate(self._atoms):
                stats[i] -= _norm_logpdf(z, a, self._obs_var)
        else:
            stats[0] -= 1
            stats[1] -= z

    def log_likelihood(self, z, u) -> float:
        return _norm_logpdf(z, u, self._obs_var)

    def _posterior_mean_var(self, stats):
        b = self.base
        n, s = stats
        prec = 1.0 / (b.sigma0 * b.sigma0) + n / self._obs_var
        mean = (b.mu0 / (b.sigma0 * b.sigma0) + s / self._obs_var) / prec
        return mean, 1.0 / prec

    def _atom_log_posts(self, stats):
        logp = [w + s for w, s in zip(self._log_w, stats)]
        top = max(logp)
        norm = top + math.log(sum(math.exp(x - top) for x in logp))
        return [x - norm for x in logp]

    def posterior_sample_from_stats(self, stats, rng: np.random.Generator):
        if self._atomic:
            probs = [math.exp(x) for x in self._atom_log_posts(stats)]
            return self._atoms[sample_categorical(probs, rng)]
        mean, var = self._posterior_mean_var(stats)
        return float(rng.normal(mean, math.sqrt(var)))

    def predictive_logp(self, stats, z) -> float:
        if self._atomic:
            logp = self._atom_log_posts(stats)
            vals = [
                lp + _norm_logpdf(z, a, self._obs_var) for lp, a in zip(logp, self._atoms)
            ]
            top = max(vals)
            return top + math.log(sum(math.exp(v - top) for v in vals))
        mean, var = self._posterior_mean_var(stats)
        return _norm_logpdf(z, mean, var + self._obs_var)

    def predictive_grid(self, stats, grid: np.ndarray) -> np.ndarray:
        if self._atomic:
            logp = self._atom_log_posts(stats)
            out = np.zeros_like(np.asarray(grid, dtype=float))
            for lp, a in zip(logp, self._atoms):
                out = out + math.exp(lp) * np.exp(normal_logpdf(grid, a, self._obs_var))
            return out
        mean, var = self._posterior_mean_var(stats)
        return np.exp(normal_logpdf(np.asarray(grid, dtype=float), mean, var + self._obs_var))

    def base_log_density(self, u) -> float:
        if self._atomic:
            for a, lw in zip(self._atoms, self._log_w):
                if math.isclose(a, u):
                    return lw
            return NEG_INF
        b = self.base
        return _norm_logpdf(u, b.mu0, b.sigma0 * b.sigma0)

    def posterior_log_density(self, stats, u) -> float:
        if self._atomic:
            logp = self._atom_log_posts(stats)
            for a, lp in zip(self._atoms, logp):
                if math.isclose(a, u):
                    return lp
            return NEG_INF
        mean, var = self._posterior_mean_var(stats)
        return _norm_logpdf(u, mean, var)


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

    def log_likelihood(self, w, y) -> float:
        p = y[w]
        if p <= 0.0:
            return NEG_INF
        return math.log(p)

    def posterior_sample_from_stats(self, stats, rng: np.random.Generator):
        return rng.dirichlet(stats[0] + self._alpha)

    def predictive_logp(self, stats, w) -> float:
        counts, total = stats
        return float(
            math.log(counts[w] + self._alpha) - math.log(total + self.base.theta_v)
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


def read_observation_batches(path) -> list[ObservationBatch]:
    """Read JSON-lines {"t": int, "values": [...]} into batches; values must
    be finite."""
    import json

    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t = int(rec["t"])
            values = tuple(rec["values"])
            if not all(math.isfinite(z) for z in values):
                raise DataError(f"non-finite value at t={t}")
            out.append(ObservationBatch(time=t, values=values))
    return _in_time_order(out)


def read_corpus(path, vocab_path) -> tuple[list[ObservationBatch], list[str]]:
    """Read JSON-lines {"t": int, "words": [int]} plus a one-token-per-line
    vocabulary; word ids are validated against the vocabulary size."""
    import json

    with open(vocab_path) as fh:
        vocab = [line.strip() for line in fh if line.strip()]
    K = len(vocab)
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t = int(rec["t"])
            words = tuple(int(w) for w in rec["words"])
            bad = [w for w in words if not 0 <= w < K]
            if bad:
                raise DataError(f"word ids {bad} at t={t} outside vocabulary of size {K}")
            out.append(ObservationBatch(time=t, values=words))
    return _in_time_order(out), vocab
