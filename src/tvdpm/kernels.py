"""Base measures and stationary cluster-location kernels.

A box keeps its parameter trajectory for as long as it lives: a fresh base
draw at birth, then one kernel transition per step.  Every shipped kernel
leaves its base measure invariant, which is what keeps the mixture model
marginally stationary; `diagnostics.kernel_stationarity_test` checks that
property by simulation for a kernel over a `GaussianKnownVar` base (the
only base it takes), so new kernels over that base only need a
`transition` method.  `transition` steps a float or an array: m values in
one array move exactly as m float calls would, draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NormalInverseGamma",
    "GaussianKnownVar",
    "SymmetricDirichlet",
    "BaseMeasure",
    "StaticKernel",
    "GaussianAR1",
    "sample_base",
]


@dataclass(frozen=True)
class NormalInverseGamma:
    """Conjugate prior for (mean, variance): variance ~ InvGamma(nu0/2,
    lambda0/2), mean | variance ~ Normal(mu0, variance/kappa0)."""

    mu0: float
    kappa0: float
    nu0: float
    lambda0: float

    def __post_init__(self):
        if min(self.kappa0, self.nu0, self.lambda0) <= 0:
            raise ValueError("kappa0, nu0, lambda0 must be positive")


@dataclass(frozen=True)
class GaussianKnownVar:
    """Normal prior over a scalar location, Normal(mu0, sigma0^2)."""

    mu0: float
    sigma0: float

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")


@dataclass(frozen=True)
class SymmetricDirichlet:
    """Dirichlet(theta_v/K, ..., theta_v/K) over topic vectors of size K."""

    theta_v: float
    vocab_size: int

    def __post_init__(self):
        if self.theta_v <= 0:
            raise ValueError("theta_v must be positive")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")


BaseMeasure = Union[NormalInverseGamma, GaussianKnownVar, SymmetricDirichlet]


def sample_base(base: BaseMeasure, rng: np.random.Generator):
    """One i.i.d. draw from the base measure."""
    if isinstance(base, NormalInverseGamma):
        variance = (base.lambda0 / 2.0) / rng.gamma(base.nu0 / 2.0)
        mean = rng.normal(base.mu0, math.sqrt(variance / base.kappa0))
        return (mean, variance)
    if isinstance(base, GaussianKnownVar):
        return float(rng.normal(base.mu0, base.sigma0))
    if isinstance(base, SymmetricDirichlet):
        alpha = np.full(base.vocab_size, base.theta_v / base.vocab_size)
        return rng.dirichlet(alpha)
    raise TypeError(f"unknown base measure {base!r}")


@dataclass(frozen=True)
class StaticKernel:
    """Identity transition: the location never moves while the box lives."""

    def transition(self, u_prev, rng: np.random.Generator):
        return u_prev


@dataclass(frozen=True)
class GaussianAR1:
    """AR(1) over a GaussianKnownVar base; the base is its stationary law."""

    phi: float
    base: GaussianKnownVar

    def __post_init__(self):
        if not -1.0 <= self.phi <= 1.0:
            raise ValueError("phi must lie in [-1, 1]")

    @property
    def noise_scale(self) -> float:
        return math.sqrt(1.0 - self.phi * self.phi) * self.base.sigma0

    def transition(self, u_prev, rng: np.random.Generator):
        size = u_prev.shape if isinstance(u_prev, np.ndarray) else None
        mu0 = self.base.mu0
        u = self.phi * (u_prev - mu0) + mu0 + self.noise_scale * rng.standard_normal(size)
        return u if size is not None else float(u)
