"""Synthetic data streams for the density-estimation and topic experiments.

The density stream is a piecewise mixture of normals with abrupt regime
changes and one smoothly drifting mode; the exact components are part of
the configuration (presets below), and the generator emits the true
mixture alongside every batch so downstream scoring needs no side channel.
"""

from __future__ import annotations

import numpy as np

from .models import DataError, normal_logpdf

__all__ = [
    "DENSITY_PRESETS",
    "gen_density_data",
    "mixture_density",
    "gen_topic_corpus",
    "TOPIC_PRESET",
]


# Regime layout mirrors the density experiment timeline: two abrupt changes
# where modes appear/disappear and one smooth mode drift inside the last
# regime.  Component values are choices of this artifact, not authoritative:
# the first change moves all mass away from the old mode (so stale clusters
# are penalized and the alive mass visibly collapses), the second keeps the
# main mode and drops the minors.
DENSITY_PRESETS: dict[str, dict] = {
    "paper-4.1": {
        "T": 1000,
        "n_per_step": 1,
        "segments": [
            {
                "start": 1,
                "end": 300,
                "components": [{"w": 1.0, "mu": 3.5, "sigma": 1.2}],
            },
            {
                "start": 301,
                "end": 600,
                "components": [
                    {"w": 0.7, "mu": 0.0, "sigma": 1.2},
                    {"w": 0.15, "mu": -4.0, "sigma": 1.2},
                    {"w": 0.15, "mu": 3.5, "sigma": 1.2},
                ],
            },
            {
                "start": 601,
                "end": 1000,
                "components": [{"w": 1.0, "mu": 0.0, "sigma": 1.2}],
                "drift": {
                    "component": 0,
                    "mu_from": 0.0,
                    "mu_to": -1.5,
                    "start": 701,
                    "end": 850,
                },
            },
        ],
    },
    "paper-4.1-scaled": {
        "T": 300,
        "n_per_step": 1,
        "segments": [
            {
                "start": 1,
                "end": 100,
                "components": [{"w": 1.0, "mu": 3.0, "sigma": 1.2}],
            },
            {
                "start": 101,
                "end": 200,
                "components": [
                    {"w": 0.7, "mu": -1.0, "sigma": 1.2},
                    {"w": 0.15, "mu": -4.5, "sigma": 1.2},
                    {"w": 0.15, "mu": 3.0, "sigma": 1.2},
                ],
            },
            {
                "start": 201,
                "end": 300,
                "components": [{"w": 1.0, "mu": -1.0, "sigma": 1.2}],
                "drift": {
                    "component": 0,
                    "mu_from": -1.0,
                    "mu_to": -1.8,
                    "start": 221,
                    "end": 280,
                },
            },
        ],
    },
}


def _components_at(cfg: dict, t: int) -> list[dict]:
    for seg in cfg["segments"]:
        if seg["start"] <= t <= seg["end"]:
            comps = [dict(c) for c in seg["components"]]
            drift = seg.get("drift")
            if drift and t >= drift["start"]:
                frac = min(1.0, (t - drift["start"]) / (drift["end"] - drift["start"]))
                comps[drift["component"]]["mu"] = (
                    drift["mu_from"] + frac * (drift["mu_to"] - drift["mu_from"])
                )
            return comps
    raise DataError(f"time {t} not covered by any segment")


def mixture_density(grid: np.ndarray, components: list[dict]) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    out = np.zeros_like(grid)
    for c in components:
        out += c["w"] * np.exp(normal_logpdf(grid, c["mu"], c["sigma"] ** 2))
    return out


def _check_segments(cfg: dict) -> None:
    for seg in cfg["segments"]:
        span = f"segment {seg['start']}..{seg['end']}"
        sigmas = [c["sigma"] for c in seg["components"]]
        if any(not s > 0 for s in sigmas):
            raise DataError(f"{span}: every component sigma must be positive: {sigmas}")
        drift = seg.get("drift")
        if drift is None:
            continue
        if not drift["end"] > drift["start"]:
            raise DataError(
                f"{span}: drift end must be after its start, got {drift['start']}..{drift['end']}"
            )
        if drift["component"] not in range(len(sigmas)):
            raise DataError(
                f"{span}: drift component {drift['component']!r} is not one of its"
                f" {len(sigmas)} components"
            )


def gen_density_data(cfg: dict, rng: np.random.Generator) -> list[dict]:
    """One record per time step: {"t", "values", "truth"} where truth lists
    the active mixture components.  A step no segment covers, or whose
    weights are negative or do not sum to 1, a sigma that is not positive,
    and a drift that does not end after it starts or names a component its
    segment lacks raise DataError before any record is returned."""
    _check_segments(cfg)
    n = cfg.get("n_per_step", 1)
    records = []
    for t in range(1, cfg["T"] + 1):
        comps = _components_at(cfg, t)
        weights = [c["w"] for c in comps]
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise DataError(f"component weights at t={t} must be non-negative and sum to 1: {weights}")
        values = []
        for _ in range(n):
            i = rng.choice(len(comps), p=weights)
            values.append(float(rng.normal(comps[i]["mu"], comps[i]["sigma"])))
        records.append({"t": t, "values": values, "truth": comps})
    return records


TOPIC_PRESET = {
    "K": 20,
    "T": 10,
    "n_per_step": 25,
    "n_topics": 3,
    "within_topic_words": 6,
    "off_mass": 0.005,
    "weights": [0.4, 0.35, 0.25],
}


def gen_topic_corpus(cfg: dict, rng: np.random.Generator):
    """Synthetic bag-of-words stream with a few well-separated true topics.

    Each true topic is near-uniform on its own disjoint block of words with
    a small amount of off-block mass, and the topic weights are fixed over
    time.  Returns (records, vocab, topics): records are {"t", "words"}
    rows, vocab is a token list, topics the true word distributions.
    """
    K = cfg["K"]
    n_topics = cfg["n_topics"]
    span = cfg["within_topic_words"]
    off = cfg["off_mass"]
    if n_topics * span > K:
        raise ValueError("topic blocks must fit in the vocabulary without overlap")
    weights = cfg.get("weights") or [1.0 / n_topics] * n_topics
    topics = []
    for j in range(n_topics):
        p = np.full(K, off / K)
        block = range(j * span, (j + 1) * span)
        p[block] += (1.0 - off) / span
        topics.append(p / p.sum())
    records = []
    for t in range(1, cfg["T"] + 1):
        words = []
        for _ in range(cfg["n_per_step"]):
            j = rng.choice(n_topics, p=weights)
            words.append(int(rng.choice(K, p=topics[j])))
        records.append({"t": t, "words": words})
    vocab = [f"w{idx:03d}" for idx in range(K)]
    return records, vocab, topics
