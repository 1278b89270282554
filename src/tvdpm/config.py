"""Experiment configuration: schema-validated JSON into runtime objects.

The schema ships with the package (schemas/experiment.schema.json) and
rejects unknown keys outright, so a typo fails loudly before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .kernels import GaussianAR1, GaussianKnownVar, NormalInverseGamma, SymmetricDirichlet
from .mcmc import MCMCState
from .models import GaussianModel, KnownVarGaussianModel, TopicModel
from .smc import FilterConfig, RhoWalk
from .urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    policy_uses_walk,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "check_schema",
    "build_policy",
    "build_model",
    "build_filter_config",
    "build_sampler",
]


class ConfigError(ValueError):
    """Configuration rejected by the schema or by semantic checks."""


def check_schema(instance, what: str, definition: str | None = None) -> None:
    """Check `instance` against the shipped schema, or against one of its
    definitions; a failure is a ConfigError naming `what` and where."""
    import jsonschema  # imported here: only commands that read JSON input need it

    schema = json.loads(resources.files("tvdpm.schemas").joinpath("experiment.schema.json").read_text())
    if definition is not None:
        schema = {"definitions": schema["definitions"], "$ref": f"#/definitions/{definition}"}
    try:
        jsonschema.validate(instance, schema)
    except jsonschema.ValidationError as exc:
        where = ".".join(map(str, exc.absolute_path))
        at = f" (at {where})" if where else ""
        raise ConfigError(f"{what} rejected: {exc.message}{at}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    theta: float
    model: dict
    policy: dict
    inference: dict
    data: dict | None = None
    output: dict | None = None


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return validate_config(raw)


def validate_config(raw: dict) -> ExperimentConfig:
    check_schema(raw, "config")
    return ExperimentConfig(**raw)  # the schema admits exactly the fields


def build_policy(spec: dict):
    kind = spec["type"]
    if kind == "uniform":
        return UniformDeletion(None if spec["rho"] == "walk" else spec["rho"])
    if kind == "size_biased":
        return SizeBiasedDeletion(spec.get("count", 1))
    if kind == "mixture":
        return MixturePolicy(spec["alpha"], build_policy(spec["a"]), build_policy(spec["b"]))
    if kind == "compose":
        return ComposePolicy([build_policy(p) for p in spec["policies"]])
    if kind == "sliding_window":
        return SlidingWindow(spec["r"])
    raise ConfigError(f"unknown policy type {kind!r}")


def build_model(spec: dict):
    kind = spec["type"]
    if kind == "gaussian_nig":
        return GaussianModel(
            NormalInverseGamma(spec["mu0"], spec["kappa0"], spec["nu0"], spec["lambda0"])
        )
    if kind == "gaussian_known_var":
        return KnownVarGaussianModel(
            GaussianKnownVar(spec["mu0"], spec["sigma0"]), spec["obs_sigma"]
        )
    if kind == "topic":
        return TopicModel(SymmetricDirichlet(spec["theta_v"], spec["vocab_size"]))
    raise ConfigError(f"unknown model type {kind!r}")


def build_filter_config(cfg: ExperimentConfig) -> FilterConfig:
    inf = cfg.inference
    if inf["method"] != "smc":
        raise ConfigError("inference.method must be 'smc' for the filter")
    walk = inf.get("rho_walk")
    grid_spec = inf.get("grid")
    grid = (
        np.linspace(grid_spec["lo"], grid_spec["hi"], grid_spec["points"])
        if grid_spec
        else None
    )
    policy = build_policy(cfg.policy)
    uses_walk = policy_uses_walk(policy)
    if uses_walk and walk is None:
        raise ConfigError("policy references the rho walk but inference.rho_walk is missing")
    if walk is not None and not uses_walk:
        raise ConfigError('inference.rho_walk is given but no policy leaf has "rho": "walk"')
    if cfg.model["type"] == "topic" and grid is not None:
        raise ConfigError("density estimation (inference.grid) needs a Gaussian observation model")
    if "checkpoint_path" in (cfg.output or {}):
        raise ConfigError("output.checkpoint_path is for mcmc only: smc writes no checkpoint")
    return FilterConfig(
        n_particles=inf["n_particles"],
        theta=cfg.theta,
        policy=policy,
        ess_threshold_fraction=inf.get("ess_threshold_fraction", 0.5),
        rho_walk=RhoWalk(walk["a_rho"], walk["rho0"]) if walk else None,
        grid=grid,
    )


def build_sampler(cfg: ExperimentConfig, observations, rng: np.random.Generator) -> MCMCState:
    """The Gibbs sampler of an mcmc config on `observations` (one sequence
    per time step, all of one length), started from a draw from the prior
    with `rng`."""
    inf = cfg.inference
    if inf["method"] != "mcmc":
        raise ConfigError("inference.method must be 'mcmc' for the sampler")
    model = build_model(cfg.model)
    if cfg.policy["type"] != "uniform" or cfg.policy["rho"] == "walk":
        raise ConfigError("mcmc supports the fixed-rho uniform deletion policy only")
    if cfg.policy["rho"] != inf["rho"]:
        raise ConfigError(
            f"policy.rho ({cfg.policy['rho']}) and inference.rho ({inf['rho']}) disagree"
        )
    # the AR1 kernel leaves the model's base invariant: the mode and phi fix it
    mode = inf.get("mode", "collapsed")
    kernel = None
    if mode == "ar1":
        if not isinstance(model, KnownVarGaussianModel):
            raise ConfigError('"mode": "ar1" needs the known-variance Gaussian model')
        kernel = GaussianAR1(inf.get("kernel", {}).get("phi", 0.9), model.base)
    elif "kernel" in inf:
        raise ConfigError(f'inference.kernel is for "mode": "ar1" only, not "mode": "{mode}"')
    # a checkpoint needs both its period and its path
    every = inf.get("checkpoint_every", 0)
    has_path = "checkpoint_path" in (cfg.output or {})
    if every and not has_path:
        raise ConfigError("inference.checkpoint_every is given but output.checkpoint_path is missing")
    if has_path and not every:
        raise ConfigError("output.checkpoint_path is given but inference.checkpoint_every is not positive")
    n = len(observations[0])
    if any(len(row) != n for row in observations):
        raise ConfigError("mcmc expects the same batch size at every time step")
    return MCMCState.from_prior(
        len(observations),
        n,
        cfg.theta,
        inf["rho"],
        rng,
        observations=[tuple(row) for row in observations],
        model=model,
        mode=mode,
        kernel=kernel,
    )
