"""Command-line entry point.

Subcommands: gen-data (synthetic streams), simulate (urn trajectories),
validate (statistical suite), smc / mcmc (inference runs), correlation
(decay-curve CSV).  Every run is a pure function of its configuration and
seed.  Exit codes: 0 ok, 1 validation/run failure, 2 usage or data error,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import datagen
from .config import (
    ConfigError,
    build_filter_config,
    build_model,
    build_policy,
    build_sampler,
    check_schema,
    load_config,
)
from .diagnostics import mean_correlation_curve, run_validation_suite
from .kernels import StaticKernel
from .mcmc import sweep
from .models import DataError, read_corpus, read_observation_batches
from .smc import DegeneracyError, run_filter
from .urn import policy_uses_walk, run_trajectory


def _policy_from_string(text: str):
    spec = json.loads(text)
    check_schema(spec, "policy", "policy")
    policy = build_policy(spec)
    if policy_uses_walk(policy):
        raise ConfigError('policy rejected: the rho walk ("rho": "walk") is for smc only')
    return policy


def _checked(convert, ok, requirement):
    """An argparse `type=` that converts the flag's text and rejects text
    it cannot convert and values failing `ok`; argparse names the flag in
    the usage error (exit 2)."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")

    return parse


def _int_list(text):
    return [int(x) for x in text.split(",")]


_NON_NEGATIVE_INT = _checked(int, lambda x: x >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda x: x >= 1, "a positive integer")
_AT_LEAST_TWO_INT = _checked(int, lambda x: x >= 2, "an integer >= 2")
_TAUS = _checked(_int_list, lambda xs: min(xs) >= 0, "comma-separated non-negative integers")
_POSITIVE = _checked(float, lambda x: x > 0, "positive")
_PROBABILITY = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_AR1_PHI = _checked(float, lambda x: -1.0 <= x <= 1.0, "in [-1, 1]")


@contextlib.contextmanager
def _output(path):
    """The command's output: stdout for None or "-", else the file at
    `path`, opened for writing and closed when the block ends."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_jsonl(path, records) -> None:
    """Open the output, then draw the records one by one and write each
    as one JSON line."""
    with _output(path) as out:
        for rec in records:
            out.write(json.dumps(rec) + "\n")


def _read_batches(cfg, command: str):
    """The observation batches of `cfg`'s data section: a corpus over a
    vocabulary of `model.vocab_size` words for a topic model, a value
    stream otherwise."""
    data = cfg.data
    if data is None:
        raise ConfigError(f"{command} needs a data section")
    if cfg.model["type"] != "topic":
        return read_observation_batches(data["path"])
    if "vocab_path" not in data:
        raise ConfigError("a topic model needs data.vocab_path")
    batches, vocab = read_corpus(data["path"], data["vocab_path"])
    if len(vocab) != cfg.model["vocab_size"]:
        raise ConfigError(
            f"the vocabulary {data['vocab_path']} has {len(vocab)} words"
            f" but model.vocab_size is {cfg.model['vocab_size']}"
        )
    return batches


def cmd_gen_data(args) -> int:
    if args.vocab_out and args.preset != "topic-synthetic":
        raise ConfigError("--vocab-out is for --preset topic-synthetic: a density stream has no vocabulary")
    rng = np.random.default_rng(args.seed)
    if args.preset == "topic-synthetic":
        records, vocab, _topics = datagen.gen_topic_corpus(datagen.TOPIC_PRESET, rng)
        # the vocabulary first: a reader that stops early still gets it
        if args.vocab_out:
            with open(args.vocab_out, "w") as fh:
                fh.write("\n".join(vocab) + "\n")
        _write_jsonl(args.out, records)
        return 0
    if args.preset is not None:
        cfg = datagen.DENSITY_PRESETS[args.preset]
    else:
        with open(args.stream_config) as fh:
            cfg = json.load(fh)
        check_schema(cfg, "stream config", "stream")
    _write_jsonl(args.out, datagen.gen_density_data(cfg, rng))
    return 0


def cmd_simulate(args) -> int:
    policy = _policy_from_string(args.policy)
    rng = np.random.default_rng(args.seed)
    _write_jsonl(args.out, run_trajectory(args.theta, policy, args.n, args.steps, rng))
    return 0


def cmd_validate(args) -> int:
    report = run_validation_suite(args.seed, quick=args.quick)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: value={check['value']:.5g} threshold={check['threshold']:.5g} ({check['kind']})")
    print(f"{'OK' if report['passed'] else 'FAILED'}: {sum(c['passed'] for c in report['checks'])}/{len(report['checks'])} checks passed")
    if args.out:
        with _output(args.out) as out:
            json.dump(report, out, indent=2)
            out.write("\n")
    return 0 if report["passed"] else 1


def cmd_smc(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    model = build_model(cfg.model)
    fc = build_filter_config(cfg)
    batches = _read_batches(cfg, "smc")
    rng = np.random.default_rng(seed)
    # the smc schema has no kernel key: locations stay static
    records = (rec for rec, _pop in run_filter(batches, model, StaticKernel(), fc, rng))
    try:
        _write_jsonl(args.out or (cfg.output or {}).get("path"), records)
    except DegeneracyError as exc:
        print(f"degenerate particle population: {exc}", file=sys.stderr)
        return 1
    return 0


def _sweep_records(state, rng, inf: dict, ckpt_path):
    """One record per sweep; with a checkpoint path (the config then has a
    positive `checkpoint_every`), every `checkpoint_every`-th record is
    followed by a checkpoint file."""
    every = inf.get("checkpoint_every")
    for s in range(1, inf["sweeps"] + 1):
        sweep(state, rng)
        yield {
            "sweep": s,
            "K_alive_per_t": state.alive_boxes_per_time(),
            "loglik": state.log_marginal_likelihood(),
        }
        if ckpt_path and s % every == 0:
            with open(f"{ckpt_path}.sweep{s}.json", "w") as fh:
                json.dump(dict(state.to_checkpoint(), sweep=s, rng_state=rng.bit_generator.state), fh)


def cmd_mcmc(args) -> int:
    cfg = load_config(args.config)
    batches = _read_batches(cfg, "mcmc")
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    state = build_sampler(cfg, [b.values for b in batches], rng)
    output = cfg.output or {}
    records = _sweep_records(state, rng, cfg.inference, output.get("checkpoint_path"))
    _write_jsonl(args.out or output.get("path"), records)
    return 0


def cmd_correlation(args) -> int:
    rng = np.random.default_rng(args.seed)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["tau", "correlation", "rho", "theta"])
        for rho in args.rho:
            curve = mean_correlation_curve(
                args.theta, rho, args.taus, args.n_mc, args.burn_in, rng,
                kernel_phi=args.kernel_phi,
            )
            for row in curve.csv_rows():
                writer.writerow([row["tau"], f"{row['correlation']:.6f}", row["rho"], row["theta"]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tvdpm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit a synthetic observation stream")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(datagen.DENSITY_PRESETS) + ["topic-synthetic"])
    source.add_argument("--stream-config", help="custom density stream config (JSON)")
    g.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    g.add_argument("--out", default="-")
    g.add_argument("--vocab-out", help="vocabulary file for topic-synthetic")
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("simulate", help="run a deletion-urn trajectory")
    s.add_argument("--theta", type=_POSITIVE, required=True)
    s.add_argument("--policy", required=True, help='deletion policy JSON, e.g. {"type":"uniform","rho":0.7}')
    s.add_argument("--n", type=_POSITIVE_INT, required=True)
    s.add_argument("--steps", type=_POSITIVE_INT, required=True)
    s.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("validate", help="run the statistical validation suite")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--seed", type=_NON_NEGATIVE_INT, default=20240901)
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(func=cmd_validate)

    f = sub.add_parser("smc", help="online inference on an observation stream")
    f.add_argument("--config", required=True)
    f.add_argument("--seed", type=_NON_NEGATIVE_INT)
    f.add_argument("--out")
    f.set_defaults(func=cmd_smc)

    m = sub.add_parser("mcmc", help="batch inference on an observation stream")
    m.add_argument("--config", required=True)
    m.add_argument("--seed", type=_NON_NEGATIVE_INT)
    m.add_argument("--out")
    m.set_defaults(func=cmd_mcmc)

    c = sub.add_parser("correlation", help="correlation-decay curves as CSV")
    c.add_argument("--theta", type=_POSITIVE, required=True)
    c.add_argument("--rho", type=_PROBABILITY, action="append", required=True)
    c.add_argument("--taus", type=_TAUS, default="0,1,5,10")
    c.add_argument("--n-mc", type=_AT_LEAST_TWO_INT, default=10_000)
    c.add_argument("--burn-in", type=_POSITIVE_INT, default=200)
    c.add_argument("--kernel-phi", type=_AR1_PHI, default=None)
    c.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_correlation)
    return p


def run_command(func, *args) -> int:
    """`func(*args)`'s exit code behind the boundary of every entry point:
    a bad config or data is `error: ...` and exit 2, a closed stdout 141."""
    try:
        code = func(*args)
        # flush inside the try, so a closed pipe is seen here and not at exit
        sys.stdout.flush()
        return code
    except (
        ConfigError,
        DataError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: send what Python still flushes at
        # exit to devnull, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
