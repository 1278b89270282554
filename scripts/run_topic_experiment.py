#!/usr/bin/env python3
"""Dynamic topic-model experiment on a synthetic corpus.

Generates a bag-of-words stream from a few fixed true topics, runs the
Gibbs sampler of an mcmc config file (by default the shipped
examples_config/mcmc_topics.json; its data section is not read), and
reports per-sweep alive-topic counts plus the top words of each recovered
topic (final sweep).  The corpus and the chain are both drawn from --seed.

Example:
    python scripts/run_topic_experiment.py --sweeps 2000 --seed 5 --out-dir results/
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from tvdpm.cli import _NON_NEGATIVE_INT, _POSITIVE_INT, run_command
from tvdpm.config import build_sampler, load_config
from tvdpm.datagen import TOPIC_PRESET, gen_topic_corpus
from tvdpm.mcmc import sweep

DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "examples_config" / "mcmc_topics.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG), help="mcmc config with a topic model")
    ap.add_argument("--sweeps", type=_POSITIVE_INT, help="sweeps (default: the config's inference.sweeps)")
    ap.add_argument("--seed", type=_NON_NEGATIVE_INT, help="corpus and chain seed (default: the config's seed)")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if cfg.model["type"] != "topic" or cfg.model["vocab_size"] != TOPIC_PRESET["K"]:
        ap.error(f"{args.config} needs a topic model over the corpus's {TOPIC_PRESET['K']} words")
    sweeps = args.sweeps if args.sweeps is not None else cfg.inference["sweeps"]

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    records, vocab, _true_topics = gen_topic_corpus(TOPIC_PRESET, rng)
    state = build_sampler(cfg, [r["words"] for r in records], rng)

    trace_path = out / "topic_sweeps.csv"
    with open(trace_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sweep", "alive_topics_median_t", "loglik"])
        for s in range(1, sweeps + 1):
            sweep(state, rng)
            ks = state.alive_boxes_per_time()
            w.writerow([s, sorted(ks)[len(ks) // 2], f"{state.log_marginal_likelihood():.3f}"])

    # report recovered topics from the final state
    print(f"wrote {trace_path}")
    print("recovered topics (final sweep), top words by count:")
    for lab, stats in sorted(state.stats.items(), key=lambda kv: -kv[1][1]):
        counts = stats[0]
        top = np.argsort(-counts)[:5]
        words = ", ".join(f"{vocab[i]}({counts[i]})" for i in top if counts[i] > 0)
        print(f"  topic {lab}: n={stats[1]}  {words}")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
