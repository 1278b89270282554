"""Sequential Monte Carlo for the time-varying DPM.

One step per particle: sample the deletion (and the random-walk survival
probability when enabled), move the surviving boxes' parameters by the
kernel, allocate the batch's observations one at a time from the locally
optimal proposal (Fearnhead 2004), whose log-normaliser less
log(M + theta) is the observation's log predictive and so its weight
increment, and draw each newborn box's parameter from the conjugate
posterior of its observations; then normalize, check the effective sample
size, and resample systematically when it drops below the configured
fraction.

Weights live in log space throughout.  They are normalised by
`models.log_sum_exp_array`, which takes the entries tied at the max out of
the sum: that keeps the digits of a sum dominated by its largest weight, and
it is the form scipy.special.logsumexp computes, so the weights equal those
of a step normalised by scipy bit for bit.  Each particle slot owns an
independent RNG stream spawned from the caller's generator at
initialization, so a fixed master seed fixes the run regardless of how the
per-particle work would be scheduled; resampling draws from a dedicated
stream and is a synchronization barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import StaticKernel
from .models import (
    GaussianModel,
    KnownVarGaussianModel,
    ObservationBatch,
    log_sum_exp_array,
    normal_logpdf,
    stats_of,
)
from .partitions import sample_log_categorical
from .urn import UrnState, apply_policy

__all__ = [
    "RhoWalk",
    "FilterConfig",
    "Particle",
    "ParticlePopulation",
    "DegeneracyError",
    "init_particles",
    "advance",
    "ess",
    "resample",
    "estimate_density",
    "estimate_alive_mass",
    "estimate_rho",
    "run_filter",
]

_RHO_EPS = 1e-6


@dataclass(frozen=True)
class RhoWalk:
    """Beta random walk rho_t ~ B(a_rho, a_rho*(1-rho)/rho), which preserves
    the mean and has variance rho^2*(1-rho)/(a_rho+rho)."""

    a_rho: float
    rho0: float

    def __post_init__(self):
        if self.a_rho <= 0:
            raise ValueError("a_rho must be positive")
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError("rho0 must lie in (0, 1)")

    def sample(self, rho_prev: float, rng: np.random.Generator) -> float:
        rho_prev = min(max(rho_prev, _RHO_EPS), 1.0 - _RHO_EPS)
        draw = rng.beta(self.a_rho, self.a_rho * (1.0 - rho_prev) / rho_prev)
        return min(max(draw, _RHO_EPS), 1.0 - _RHO_EPS)


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int
    theta: float
    policy: object
    ess_threshold_fraction: float = 0.5
    rho_walk: RhoWalk | None = None
    grid: np.ndarray | None = None

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0.0 < self.ess_threshold_fraction <= 1.0:
            raise ValueError("ess_threshold_fraction must lie in (0, 1]")


@dataclass
class Particle:
    """One urn trajectory hypothesis: alive boxes, their current parameter
    values (keys match the urn's boxes), and the walk state."""

    urn: UrnState
    locations: dict[int, object]
    rho: float | None = None

    def copy(self) -> "Particle":
        return Particle(urn=self.urn.copy(), locations=dict(self.locations), rho=self.rho)


class DegeneracyError(RuntimeError):
    """All particles reached zero weight: the model cannot explain the batch."""

    def __init__(self, time_index: int):
        super().__init__(f"all particle weights vanished at t={time_index}")
        self.time_index = time_index


@dataclass
class ParticlePopulation:
    particles: list[Particle]
    log_weights: np.ndarray
    rngs: list[np.random.Generator]
    resample_rng: np.random.Generator

    @property
    def n(self) -> int:
        return len(self.particles)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def init_particles(config: FilterConfig, rng: np.random.Generator) -> ParticlePopulation:
    """N particles with empty urns and equal weights; one spawned RNG stream
    per particle slot plus one for resampling."""
    streams = rng.spawn(config.n_particles + 1)
    particles = [
        Particle(
            urn=UrnState.for_policy(config.theta, config.policy),
            locations={},
            rho=config.rho_walk.rho0 if config.rho_walk else None,
        )
        for _ in range(config.n_particles)
    ]
    log_w = np.full(config.n_particles, -math.log(config.n_particles))
    return ParticlePopulation(
        particles=particles,
        log_weights=log_w,
        rngs=streams[: config.n_particles],
        resample_rng=streams[config.n_particles],
    )


def ess(weights) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.sum(w * w))


def systematic_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions, side="right").clip(0, n - 1)


def resample(population: ParticlePopulation) -> None:
    """Systematic resampling in place, drawn from the population's resampling
    stream; weights reset to 1/N.  Particle slots keep their RNG streams,
    only states are copied."""
    idx = systematic_indices(population.weights(), population.resample_rng)
    population.particles = [population.particles[i].copy() for i in idx]
    population.log_weights = np.full(population.n, -math.log(population.n))


def _propose_batch(
    urn: UrnState,
    locations: dict[int, object],
    values,
    new_scores,
    model,
    rng: np.random.Generator,
):
    """Sequentially assign each observation to an alive box or a new one,
    adding it to `urn` (the post-deletion state) as it goes; the urn ends
    one time step on.

    A box scores log(mass) plus the likelihood at its parameter in
    `locations`, or plus the collapsed predictive of its within-batch
    observations when it was opened this batch; `new_scores` holds each
    observation's new-box score (log theta plus the prior predictive).
    Returns (newborn stats, log weight increment), the increment summing
    the proposal's log-normaliser less log(M + theta) over the batch.
    """
    newborn: dict[int, list] = {}
    log_inc = 0.0
    for z, new_score in zip(values, new_scores):
        labels = list(urn.boxes)
        log_scores = []
        for lab, m in urn.boxes.items():
            if lab in newborn:
                log_scores.append(math.log(m) + model.predictive_logp(newborn[lab], z))
            else:
                log_scores.append(math.log(m) + model.log_likelihood(z, locations[lab]))
        log_scores.append(new_score)
        pick, log_norm = sample_log_categorical(log_scores, rng)
        log_inc += log_norm - math.log(urn.total_mass + urn.theta)
        if pick == len(labels):
            lab = urn.next_label
            newborn[lab] = stats_of(model, [z])
        else:
            lab = labels[pick]
            if lab in newborn:
                model.stats_add(newborn[lab], z)
        urn.add_unit(lab)
    urn.time += 1
    return newborn, log_inc


def advance(
    population: ParticlePopulation,
    batch: ObservationBatch,
    model,
    kernel,
    config: FilterConfig,
) -> dict:
    """One filtering step over the whole population; returns step diagnostics
    {"t", "ess", "resampled"}.  Raises DegeneracyError if every particle's
    weight vanishes.

    Per particle: the rho walk and the deletion; under a moving kernel, one
    transition of every surviving box's parameter; the allocation proposal,
    whose log-normaliser gives the weight increment; then a conjugate
    posterior draw of each newborn box's parameter.  A static kernel makes
    no transition calls."""
    static = isinstance(kernel, StaticKernel)
    if not static and not isinstance(model, KnownVarGaussianModel):
        raise ValueError("non-static kernels are supported for the known-variance model only")
    # the new-box score depends on the observation only
    log_theta = math.log(config.theta)
    empty = model.empty_stats()
    new_scores = [log_theta + model.predictive_logp(empty, z) for z in batch.values]
    n_new = np.empty(population.n)
    for i, particle in enumerate(population.particles):
        rng = population.rngs[i]
        if config.rho_walk is not None:
            particle.rho = config.rho_walk.sample(particle.rho, rng)
        urn = apply_policy(particle.urn, config.policy, rng, particle.rho)
        prev = particle.locations
        if static:
            locations = {lab: prev[lab] for lab in urn.boxes}
        else:
            locations = {lab: kernel.transition(prev[lab], rng) for lab in urn.boxes}
        newborn, n_new[i] = _propose_batch(urn, locations, batch.values, new_scores, model, rng)
        for lab, stats in newborn.items():
            locations[lab] = model.posterior_sample_from_stats(stats, rng)
        particle.urn = urn
        particle.locations = locations
    population.log_weights = population.log_weights + n_new
    norm = log_sum_exp_array(population.log_weights)
    if not np.isfinite(norm):
        raise DegeneracyError(batch.time)
    population.log_weights = population.log_weights - norm
    n_eff = ess(population.weights())
    resampled = n_eff <= config.ess_threshold_fraction * population.n
    if resampled:
        resample(population)
    return {"t": batch.time, "ess": n_eff, "resampled": resampled}


def _density_component(model):
    """Map a box parameter to the (mean, variance) of its Gaussian kernel;
    raises ValueError for models without one."""
    if isinstance(model, GaussianModel):
        return lambda u: u
    if isinstance(model, KnownVarGaussianModel) and not model._atomic:
        var = model.obs_sigma ** 2
        return lambda u: (u, var)
    raise ValueError("density estimation needs a Gaussian observation model")


def estimate_density(population: ParticlePopulation, grid: np.ndarray, model) -> np.ndarray:
    """Posterior-mean predictive density on a grid: per particle, alive boxes
    weighted m_k/(M+theta) at their current parameters plus theta/(M+theta)
    on the base predictive, averaged with the particle weights.

    Resampled particles share their ancestor's parameter values, so the
    box weights are summed per distinct parameter first and each Gaussian
    kernel is evaluated once."""
    comp = _density_component(model)
    grid = np.asarray(grid, dtype=float)
    weights = population.weights().tolist()
    theta = population.particles[0].urn.theta
    loc_w: dict[object, float] = {}
    base_w = 0.0
    for w, particle in zip(weights, population.particles):
        denom = particle.urn.total_mass + theta
        base_w += w * theta / denom
        locations = particle.locations
        for lab, m in particle.urn.boxes.items():
            u = locations[lab]
            loc_w[u] = loc_w.get(u, 0.0) + w * m / denom
    values = base_w * model.predictive_grid(model.empty_stats(), grid)
    if loc_w:
        mu, var = (np.asarray(col)[:, None] for col in zip(*map(comp, loc_w)))
        kernels = np.exp(normal_logpdf(grid[None, :], mu, var))
        values = values + np.fromiter(loc_w.values(), dtype=float, count=len(loc_w)) @ kernels
    return values


def estimate_alive_mass(population: ParticlePopulation) -> float:
    """Posterior-mean total alive allocation mass."""
    return float(sum(w * p.urn.total_mass for w, p in zip(population.weights(), population.particles)))


def estimate_rho(population: ParticlePopulation) -> float:
    if population.particles[0].rho is None:
        raise ValueError("rho walk is not enabled")
    return float(sum(w * p.rho for w, p in zip(population.weights(), population.particles)))


def run_filter(
    batches,
    model,
    kernel,
    config: FilterConfig,
    rng: np.random.Generator,
):
    """Filter a whole observation stream, yielding one record per step; the
    record carries the density estimate when the config has a grid (every
    record holds the same grid list).  Setups the filter cannot run are
    rejected before the first step."""
    if config.grid is not None:
        _density_component(model)
    population = init_particles(config, rng)
    grid = None if config.grid is None else np.asarray(config.grid, dtype=float).tolist()
    for batch in batches:
        info = advance(population, batch, model, kernel, config)
        record = {
            "t": batch.time,
            "ess": info["ess"],
            "resampled": info["resampled"],
            "n_alive": estimate_alive_mass(population),
        }
        if config.rho_walk is not None:
            record["rho_post"] = estimate_rho(population)
        if config.grid is not None:
            values = estimate_density(population, config.grid, model)
            record["density"] = {"grid": grid, "values": values.tolist()}
        yield record, population
