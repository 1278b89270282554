"""Which layer entry points the traced run wraps, and the per-layer metrics
read off the tracer afterwards.

Each entry point is wrapped where its caller looks it up: `apply_policy`
in the `tvdpm.smc` namespace (called by `advance`), `delete_uniform` and
`allocate_batch` in `tvdpm.diagnostics` (called by the moment checks),
`load_config` in `tvdpm.cli`, model and kernel methods on their classes.
Layers a workload does not touch report zero.
"""

from __future__ import annotations

import tvdpm.cli as cli
import tvdpm.diagnostics as diagnostics
import tvdpm.ensemble as ensemble
import tvdpm.kernels as kernels
import tvdpm.mcmc as mcmc
import tvdpm.models as models
import tvdpm.smc as smc

MODEL_CLASSES = (models.GaussianModel, models.KnownVarGaussianModel, models.TopicModel)
MODEL_METHODS = {
    "log_likelihood": "models.log_likelihood",
    "predictive_logp": "models.predictive_logp",
    "posterior_sample_from_stats": "models.posterior_sample",
}
KERNEL_CLASSES = (kernels.StaticKernel, kernels.GaussianAR1, diagnostics.BrokenNoiseKernel)
DIAGNOSTICS = {
    "esf_marginal_test": "diagnostics.esf",
    "expected_count_check": "diagnostics.moments",
    "mean_correlation_curve": "diagnostics.correlation",
    "kernel_stationarity_test": "diagnostics.stationarity",
    "batch_partition_distribution": "diagnostics.partition_distribution",
}


def _death_time(state, k, t, rng):
    return state.d[t - 1][k]


def _box_and_size(state, k, t, rng):
    label = state.c[t - 1][k]
    return label, len(state.blocks[label])


def instrument(tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    w = tracer.wrap
    counters = tracer.counters

    w(smc, "apply_policy", "urn.apply_policy")
    w(diagnostics, "delete_uniform", "urn.delete_uniform")
    w(diagnostics, "allocate_batch", "urn.allocate_batch")

    def after_advance(_pre, _info, population, *args, **kwargs):
        boxes = sum(len(p.urn.boxes) for p in population.particles)
        counters["smc.alive_boxes_sum"] += boxes / population.n

    w(smc, "advance", "smc.advance", after=after_advance)
    w(smc, "estimate_density", "smc.density")
    w(smc, "estimate_alive_mass", "smc.summaries")
    w(smc, "estimate_rho", "smc.summaries")
    w(smc, "resample", "smc.resample")

    for cls in MODEL_CLASSES:
        for attr, name in MODEL_METHODS.items():
            if attr in vars(cls):
                w(cls, attr, name)

    def after_death_time(old, _result, state, k, t, rng):
        counters["mcmc.death_time_changed"] += state.d[t - 1][k] != old

    def after_allocation(old, _result, state, k, t, rng):
        # a unit alone in its box that moves to a fresh box keeps its
        # partition; only a move that changes its box-mates counts
        label, size = _box_and_size(state, k, t, rng)
        counters["mcmc.allocation_changed"] += label != old[0] and (size, old[1]) != (1, 1)

    w(mcmc, "gibbs_death_time", "mcmc.death_time", before=_death_time, after=after_death_time)
    w(mcmc, "gibbs_allocation", "mcmc.allocation", before=_box_and_size, after=after_allocation)
    w(mcmc, "relabel", "mcmc.relabel")
    w(mcmc.MCMCState, "from_prior", "mcmc.from_prior")
    # the summaries of a sweep's record; what the record takes beyond them
    # is the CLI's encoding and writing (see `per_layer_metrics`)
    w(mcmc.MCMCState, "alive_boxes_per_time", "mcmc.record_stats")
    w(mcmc.MCMCState, "log_marginal_likelihood", "mcmc.record_stats")

    def after_step(_pre, _ids, ens, n, rng):
        counters["ensemble.replica_steps"] += ens.R
        counters["ensemble.columns_max"] = max(counters["ensemble.columns_max"], ens.columns)
        # computed, not measured: int64 counts per replica, column and age slot
        slots = len(getattr(ens, "_slots", ())) or 1
        state_bytes = ens.R * ens.columns * 8 * slots
        counters["ensemble.state_bytes"] = max(counters["ensemble.state_bytes"], state_bytes)

    w(ensemble.UrnEnsemble, "step", "ensemble.step", after=after_step)

    for attr, name in DIAGNOSTICS.items():
        w(diagnostics, attr, name)
    for cls in KERNEL_CLASSES:
        w(cls, "transition", "kernels.transition")

    w(cli, "load_config", "config.load")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    s, calls, c = tracer.seconds, tracer.calls, tracer.counters
    advances = calls["smc.advance"]
    out = {
        "urn.apply_policy_s": s("urn.apply_policy"),
        "urn.apply_policy_calls": calls["urn.apply_policy"],
        "urn.delete_uniform_s": s("urn.delete_uniform"),
        "urn.delete_uniform_calls": calls["urn.delete_uniform"],
        "urn.allocate_batch_s": s("urn.allocate_batch"),
        "urn.allocate_batch_calls": calls["urn.allocate_batch"],
        "smc.advance_self_s": tracer.self_seconds("smc.advance"),
        "smc.density_s": s("smc.density"),
        "smc.summaries_s": s("smc.summaries"),
        "smc.resample_s": s("smc.resample"),
        "smc.resample_count": calls["smc.resample"],
        "smc.alive_boxes_mean": _ratio(c["smc.alive_boxes_sum"], advances),
        "mcmc.death_time_s": s("mcmc.death_time"),
        "mcmc.death_time_calls": calls["mcmc.death_time"],
        "mcmc.death_time_changed_ratio": _ratio(c["mcmc.death_time_changed"], calls["mcmc.death_time"]),
        "mcmc.allocation_s": s("mcmc.allocation"),
        "mcmc.allocation_calls": calls["mcmc.allocation"],
        "mcmc.allocation_changed_ratio": _ratio(c["mcmc.allocation_changed"], calls["mcmc.allocation"]),
        "mcmc.record_s": s("mcmc.record"),
        "mcmc.relabel_calls": calls["mcmc.relabel"],
        "mcmc.from_prior_s": s("mcmc.from_prior"),
        "ensemble.step_s": s("ensemble.step"),
        "ensemble.replica_steps_per_s": _ratio(c["ensemble.replica_steps"], s("ensemble.step")),
        "ensemble.columns_max": c["ensemble.columns_max"],
        "ensemble.state_bytes_computed": c["ensemble.state_bytes"],
        "kernels.transition_calls": calls["kernels.transition"],
        "kernels.transition_s": s("kernels.transition"),
        "config.load_s": s("config.load"),
        # SMC: the gap between the CLI taking a record and asking for the
        # next; MCMC: the part of a record not spent in its summaries
        "cli.write_s": s("cli.write") + tracer.self_seconds("mcmc.record"),
    }
    for name in MODEL_METHODS.values():
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_s"] = s(name)
    for name in DIAGNOSTICS.values():
        out[f"{name}_s"] = s(name)
    return out
