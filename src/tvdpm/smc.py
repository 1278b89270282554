"""Sequential Monte Carlo for the time-varying DPM.

One step: per particle, step the random-walk survival probability (when
enabled), sample the deletion and move the surviving boxes' parameters by
the kernel; then allocate the batch's observations one at a
time, all particles together, from the locally optimal proposal (Fearnhead
2004): one (N, B+1) score matrix per observation, one row per particle,
whose row log-normaliser less log(M + theta) is the observation's log
predictive and so the particle's weight increment; then, per particle, draw
each newborn box's parameter from the conjugate posterior of its
observations.  Last, normalize, check the effective sample size, and
resample systematically when it drops below the configured fraction.

Weights live in log space throughout.  They are normalised by
`models.log_sum_exp_array`, which takes the entries tied at the max out of
the sum: that keeps the digits of a sum dominated by its largest weight, and
it is the form scipy.special.logsumexp computes, so the weights equal those
of a step normalised by scipy bit for bit.  A run draws from one generator,
the one `run_filter` is handed, in this phase order per step: the walk over
all particles; per particle, the deletion and the kernel transitions; one
uniform per particle per observation; per particle in row order, the
newborn posterior draws; the resampling offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .kernels import StaticKernel
from .models import (
    GaussianModel,
    KnownVarGaussianModel,
    ObservationBatch,
    log_sum_exp_array,
    stats_of,
)
from .partitions import sample_log_categorical_rows
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
    the mean and has variance rho^2*(1-rho)/(a_rho+rho); `sample` steps a
    float or, element by element, an array."""

    a_rho: float
    rho0: float

    def __post_init__(self):
        if self.a_rho <= 0:
            raise ValueError("a_rho must be positive")
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError("rho0 must lie in (0, 1)")

    def sample(self, rho_prev, rng: np.random.Generator):
        rho_prev = np.clip(rho_prev, _RHO_EPS, 1.0 - _RHO_EPS)
        draw = rng.beta(self.a_rho, self.a_rho * (1.0 - rho_prev) / rho_prev)
        return np.clip(draw, _RHO_EPS, 1.0 - _RHO_EPS)


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
    """One urn trajectory hypothesis: alive boxes and their current parameter
    values (keys match the urn's boxes)."""

    urn: UrnState
    locations: dict[int, object]

    def copy(self) -> "Particle":
        return Particle(urn=self.urn.copy(), locations=dict(self.locations))


class DegeneracyError(RuntimeError):
    """All particles reached zero weight: the model cannot explain the batch."""

    def __init__(self, time_index: int):
        super().__init__(f"all particle weights vanished at t={time_index}")
        self.time_index = time_index


@dataclass
class ParticlePopulation:
    """Particles, log-weights, the run's generator and, with a walk, rho (N,)."""

    particles: list[Particle]
    log_weights: np.ndarray
    rng: np.random.Generator
    rho: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.particles)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def init_particles(config: FilterConfig, rng: np.random.Generator) -> ParticlePopulation:
    """N particles with empty urns and equal weights, drawing from `rng`
    itself; with a walk, every rho starts at rho0."""
    N = config.n_particles
    return ParticlePopulation(
        particles=[Particle(UrnState.for_policy(config.theta, config.policy), {}) for _ in range(N)],
        log_weights=np.full(N, -math.log(N)),
        rng=rng,
        rho=np.full(N, config.rho_walk.rho0) if config.rho_walk else None,
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
    """Systematic resampling in place, one offset drawn from the run's
    generator; the chosen particles are copied, their rho gathered, and the
    weights reset to 1/N."""
    idx = systematic_indices(population.weights(), population.rng)
    population.particles = [population.particles[i].copy() for i in idx]
    if population.rho is not None:
        population.rho = population.rho[idx]
    population.log_weights = np.full(population.n, -math.log(population.n))


def _stack(locations: list) -> np.ndarray:
    """Box parameters as one float array, a row per box: floats give (m,),
    d-tuples (m, d) and K-vectors (m, K).  Tuples go through np.fromiter,
    about three times faster than np.array, which checks each tuple's shape."""
    if isinstance(locations[0], tuple):
        d = len(locations[0])
        flat = np.fromiter(chain.from_iterable(locations), dtype=float, count=d * len(locations))
        return flat.reshape(-1, d)
    return np.array(locations, dtype=float)


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

    The phases, in the order they draw from the run's generator: one rho
    walk step over the (N,) array; per particle, the deletion and, under a
    moving kernel, one array transition of its surviving boxes' parameters
    (a static kernel makes no transition calls); then all particles
    allocate together, one observation at a time: row r of an (N, B+1)
    score matrix holds particle r's log mass plus log-likelihood for each
    surviving box, its collapsed predictive for each box opened earlier in
    the batch, and the new-box score, padded with -inf; the rows draw one
    uniform each, and a row's log-normaliser less log(M + theta) is the
    weight increment.  Then, per particle in row order, a conjugate
    posterior draw of each newborn box's parameter; last, resampling."""
    static = isinstance(kernel, StaticKernel)
    if not static and not isinstance(model, KnownVarGaussianModel):
        raise ValueError("non-static kernels are supported for the known-variance model only")
    particles, rng, R = population.particles, population.rng, population.n
    if config.rho_walk is not None:
        population.rho = config.rho_walk.sample(population.rho, rng)
    rho = [None] * R if population.rho is None else population.rho.tolist()
    labels, masses, flat = [], [], []
    for particle, rho_i in zip(particles, rho):
        urn = particle.urn = apply_policy(particle.urn, config.policy, rng, rho_i)
        prev = particle.locations
        locations = {lab: prev[lab] for lab in urn.boxes}
        if not static:
            moved = kernel.transition(np.array(list(locations.values()), dtype=float), rng)
            locations = dict(zip(locations, moved.tolist()))
        particle.locations = locations
        labels.append(list(locations))
        masses.extend(urn.boxes.values())
        flat.extend(locations.values())

    n, theta = batch.n, config.theta
    sizes = np.fromiter(map(len, labels), dtype=np.intp, count=R)
    B = int(sizes.max())
    alive = np.arange(B) < sizes[:, None]
    # columns: the surviving boxes, then the boxes opened in this batch
    mass = np.zeros((R, B + n))
    mass[:, :B][alive] = np.fromiter(masses, dtype=float, count=len(masses))
    stacked = _stack(flat) if flat else None
    ll = np.zeros((R, B))
    total = mass.sum(axis=1) + theta
    log_inc = np.zeros(R)
    newborn: dict[int, list] = {}  # row -> stats of the boxes it opened
    n_open = np.zeros(R, dtype=np.intp)
    slots = np.empty((n, R), dtype=np.intp)
    rows = np.arange(R)
    # the new-box score depends on the observation only
    log_theta = math.log(theta)
    empty = model.empty_stats()
    for j, z in enumerate(batch.values):
        if flat:
            ll[alive] = model.log_likelihood(z, stacked)
        with np.errstate(divide="ignore"):
            scores = np.log(mass[:, : B + j + 1])
        scores[:, :B] += ll
        for i, opened in newborn.items():
            for k, stats in enumerate(opened):
                scores[i, B + k] += model.predictive_logp(stats, z)
        scores[:, B + j] = log_theta + model.predictive_logp(empty, z)
        picks, log_norm = sample_log_categorical_rows(scores, rng)
        log_inc += log_norm - np.log(total)
        total += 1.0
        new = picks == B + j
        for i in np.flatnonzero((picks >= B) & ~new).tolist():
            model.stats_add(newborn[i][picks[i] - B], z)
        for i in np.flatnonzero(new).tolist():
            newborn.setdefault(i, []).append(stats_of(model, [z]))
        picks[new] = B + n_open[new]
        n_open += new
        mass[rows, picks] += 1.0
        slots[j] = picks

    for particle, labs, row in zip(particles, labels, slots.T.tolist()):
        urn = particle.urn
        first_new = urn.next_label
        for slot in row:
            urn.add_unit(labs[slot] if slot < B else first_new + slot - B)
        urn.time += 1
    for i in sorted(newborn):
        particle, opened = particles[i], newborn[i]
        first_new = particle.urn.next_label - len(opened)
        for k, stats in enumerate(opened):
            particle.locations[first_new + k] = model.posterior_sample_from_stats(stats, rng)
    population.log_weights = population.log_weights + log_inc
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
    """Map stacked box parameters to the (means, variances) of their Gaussian
    kernels; raises ValueError for models without one."""
    if isinstance(model, GaussianModel):
        return lambda u: (u[:, 0], u[:, 1])
    if isinstance(model, KnownVarGaussianModel):
        var = model.obs_sigma ** 2
        return lambda u: (u, np.full(len(u), var))
    raise ValueError("density estimation needs a Gaussian observation model")


def estimate_density(population: ParticlePopulation, grid: np.ndarray, model) -> np.ndarray:
    """Posterior-mean predictive density on a grid: per particle, alive boxes
    weighted m_k/(M+theta) at their current parameters plus theta/(M+theta)
    on the base predictive, averaged with the particle weights.

    Resampled particles share their ancestor's parameter values, so the
    box weights are summed per distinct (mean, variance) first and each
    Gaussian kernel is evaluated once."""
    comp = _density_component(model)
    grid = np.asarray(grid, dtype=float)
    theta = population.particles[0].urn.theta
    sizes, masses, flat = [], [], []
    for particle in population.particles:
        boxes = particle.urn.boxes
        sizes.append(len(boxes))
        masses.extend(boxes.values())
        flat.extend(map(particle.locations.__getitem__, boxes))
    mass = np.fromiter(masses, dtype=float, count=len(masses))
    row = np.repeat(np.arange(population.n), sizes)
    scale = population.weights() / (np.bincount(row, mass, minlength=population.n) + theta)
    values = theta * scale.sum() * model.predictive_grid(model.empty_stats(), grid)
    if flat:
        mean, var = comp(_stack(flat))
        # a complex key sorts and compares on both parts
        key, which = np.unique(mean + 1j * var, return_inverse=True)
        mean, var = key.real, key.imag
        # the (grid, component) Gaussian matrix, built in place; a variance
        # or a distance whose square overflows to inf gives a zero kernel,
        # the IEEE limit, so the overflow is not reported
        with np.errstate(over="ignore"):
            box_w = np.bincount(which, mass * scale[row]) / np.sqrt(2.0 * np.pi * var)
            kernels = np.subtract.outer(grid, mean)
            np.square(kernels, out=kernels)
            kernels *= -0.5 / var
            np.exp(kernels, out=kernels)
        values = values + kernels @ box_w
    return values


def estimate_alive_mass(population: ParticlePopulation) -> float:
    """Posterior-mean total alive allocation mass."""
    return float(sum(w * p.urn.total_mass for w, p in zip(population.weights(), population.particles)))


def estimate_rho(population: ParticlePopulation) -> float:
    if population.rho is None:
        raise ValueError("rho walk is not enabled")
    return float(population.weights() @ population.rho)


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
