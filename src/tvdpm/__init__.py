"""Time-varying Dirichlet process mixtures via a generalized Polya urn.

A forward model (urn with random deletion whose batch partitions stay
Ewens-distributed), stationary cluster-location kernels, online SMC and
batch MCMC inference, and a statistical validation suite.
"""

from .partitions import CountsVector, enumerate_partitions, esf_log_prob
from .urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    allocate_batch,
    apply_policy,
    delete_size_biased,
    delete_uniform,
    step,
)
from .kernels import (
    GaussianAR1,
    GaussianKnownVar,
    NormalInverseGamma,
    StaticKernel,
    SymmetricDirichlet,
    sample_base,
)
from .models import DataError, GaussianModel, KnownVarGaussianModel, ObservationBatch, TopicModel, stats_of
from .smc import (
    DegeneracyError,
    FilterConfig,
    Particle,
    RhoWalk,
    advance,
    ess,
    estimate_alive_mass,
    estimate_density,
    estimate_rho,
    init_particles,
    resample,
    run_filter,
)
from .mcmc import MCMCState, gibbs_allocation, gibbs_death_time, gibbs_locations, reconstruct_counts, relabel, sweep

__version__ = "0.1.0"
