"""Command-line entry point.

Subcommands: gen-data (synthetic streams), simulate (urn trajectories),
validate (statistical suite), smc / mcmc (inference runs), correlation
(decay-curve CSV).  Every run is a pure function of its configuration and
seed.  Exit codes: 0 ok, 1 validation/run failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import datagen
from .config import (
    ConfigError,
    build_filter_config,
    build_kernel,
    build_model,
    build_policy,
    load_config,
    _schema,
)
from .diagnostics import mean_correlation_curve, run_validation_suite
from .kernels import StaticKernel
from .mcmc import MCMCState, sweep
from .models import DataError, read_corpus, read_observation_batches
from .smc import DegeneracyError, run_filter
from .urn import policy_uses_walk, run_trajectory


def _policy_from_string(text: str):
    import jsonschema

    spec = json.loads(text)
    schema = _schema()
    try:
        jsonschema.validate(
            spec, {"definitions": schema["definitions"], "$ref": "#/definitions/policy"}
        )
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"policy rejected: {exc.message}") from exc
    policy = build_policy(spec)
    if policy_uses_walk(policy):
        raise ConfigError('policy rejected: the rho walk ("rho": "walk") is for smc only')
    return policy


def _checked(convert, ok, requirement):
    """An argparse `type=` that converts the flag's text and rejects values
    failing `ok`; argparse names the flag in the usage error (exit 2)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_SEED = _checked(int, lambda x: x >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda x: x >= 1, "a positive integer")
_POSITIVE = _checked(float, lambda x: x > 0, "positive")
_PROBABILITY = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_AR1_PHI = _checked(float, lambda x: -1.0 <= x <= 1.0, "in [-1, 1]")


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout
    return open(path, "w")


def cmd_gen_data(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.preset == "topic-synthetic":
        records, vocab, _topics = datagen.gen_topic_corpus(datagen.TOPIC_PRESET, rng)
        datagen.write_jsonl(records, args.out)
        if args.vocab_out:
            with open(args.vocab_out, "w") as fh:
                fh.write("\n".join(vocab) + "\n")
        return 0
    if args.preset is not None:
        cfg = datagen.density_stream_config(preset=args.preset)
    else:
        with open(args.stream_config) as fh:
            cfg = json.load(fh)
        cfg = datagen.density_stream_config(config=cfg)
    out = _open_out(args.out)
    try:
        for rec in datagen.gen_density_data(cfg, rng):
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_simulate(args) -> int:
    policy = _policy_from_string(args.policy)
    rng = np.random.default_rng(args.seed)
    out = _open_out(args.out)
    try:
        for rec in run_trajectory(args.theta, policy, args.n, args.steps, rng):
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_validate(args) -> int:
    report = run_validation_suite(args.seed, quick=args.quick)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: value={check['value']:.5g} threshold={check['threshold']:.5g} ({check['kind']})")
    print(f"{'OK' if report['passed'] else 'FAILED'}: {sum(c['passed'] for c in report['checks'])}/{len(report['checks'])} checks passed")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0 if report["passed"] else 1


def cmd_smc(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    model = build_model(cfg.model)
    fc = build_filter_config(cfg)
    if cfg.data is None:
        raise ConfigError("smc needs a data section")
    if cfg.model["type"] == "topic":
        batches, _ = read_corpus(cfg.data["path"], cfg.data["vocab_path"])
    else:
        batches = read_observation_batches(cfg.data["path"])
    out_path = args.out or (cfg.output or {}).get("path")
    out = _open_out(out_path)
    rng = np.random.default_rng(seed)
    try:
        # the smc schema has no kernel key: locations stay static
        for rec, _pop in run_filter(batches, model, StaticKernel(), fc, rng):
            out.write(json.dumps(rec) + "\n")
    except DegeneracyError as exc:
        print(f"degenerate particle population: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_mcmc(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    inf = cfg.inference
    model = build_model(cfg.model)
    kernel = build_kernel(inf.get("kernel"), model)
    if cfg.policy["type"] != "uniform" or cfg.policy["rho"] == "walk":
        raise ConfigError("mcmc supports the fixed-rho uniform deletion policy only")
    if cfg.policy["rho"] != inf["rho"]:
        raise ConfigError(
            f"policy.rho ({cfg.policy['rho']}) and inference.rho ({inf['rho']}) disagree"
        )
    mode = inf.get("mode", "collapsed")
    kind = inf.get("kernel", {"type": "static"})["type"]
    if (mode == "ar1") != (kind == "ar1"):
        raise ConfigError(
            f'"mode": "{mode}" with the {kind} kernel: mcmc needs an ar1 '
            'inference.kernel exactly in "mode": "ar1"'
        )
    if cfg.data is None:
        raise ConfigError("mcmc needs a data section")
    if cfg.model["type"] == "topic":
        batches, _ = read_corpus(cfg.data["path"], cfg.data["vocab_path"])
    else:
        batches = read_observation_batches(cfg.data["path"])
    n = batches[0].n
    if any(b.n != n for b in batches):
        raise ConfigError("mcmc expects the same batch size at every time step")
    obs = [tuple(b.values) for b in batches]
    rng = np.random.default_rng(seed)
    state = MCMCState.from_prior(
        len(obs),
        n,
        cfg.theta,
        inf["rho"],
        rng,
        observations=obs,
        model=model,
        mode=mode,
        kernel=kernel,
    )
    ckpt_every = inf.get("checkpoint_every", 0)
    ckpt_path = (cfg.output or {}).get("checkpoint_path")
    out_path = args.out or (cfg.output or {}).get("path")
    out = _open_out(out_path)
    try:
        for s in range(1, inf["sweeps"] + 1):
            sweep(state, rng)
            rec = {
                "sweep": s,
                "K_alive_per_t": state.alive_boxes_per_time(),
                "loglik": state.log_marginal_likelihood(),
            }
            out.write(json.dumps(rec) + "\n")
            if ckpt_every and ckpt_path and s % ckpt_every == 0:
                ck = state.to_checkpoint()
                ck["sweep"] = s
                ck["rng_state"] = rng.bit_generator.state
                with open(f"{ckpt_path}.sweep{s}.json", "w") as fh:
                    json.dump(ck, fh)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_correlation(args) -> int:
    rng = np.random.default_rng(args.seed)
    taus = [int(x) for x in args.taus.split(",")]
    out = _open_out(args.out)
    writer = csv.writer(out)
    writer.writerow(["tau", "correlation", "rho", "theta"])
    try:
        for rho in args.rho:
            curve = mean_correlation_curve(
                args.theta, rho, taus, args.n_mc, args.burn_in, rng,
                kernel_phi=args.kernel_phi,
            )
            for row in curve.csv_rows():
                writer.writerow([row["tau"], f"{row['correlation']:.6f}", row["rho"], row["theta"]])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tvdpm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit a synthetic observation stream")
    g.add_argument("--preset", choices=sorted(datagen.DENSITY_PRESETS) + ["topic-synthetic"])
    g.add_argument("--stream-config", help="custom density stream config (JSON)")
    g.add_argument("--seed", type=_SEED, required=True)
    g.add_argument("--out", default="-")
    g.add_argument("--vocab-out", help="vocabulary file for topic-synthetic")
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("simulate", help="run a deletion-urn trajectory")
    s.add_argument("--theta", type=_POSITIVE, required=True)
    s.add_argument("--policy", required=True, help='deletion policy JSON, e.g. {"type":"uniform","rho":0.7}')
    s.add_argument("--n", type=_POSITIVE_INT, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--seed", type=_SEED, required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("validate", help="run the statistical validation suite")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--seed", type=_SEED, default=20240901)
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(func=cmd_validate)

    f = sub.add_parser("smc", help="online inference on an observation stream")
    f.add_argument("--config", required=True)
    f.add_argument("--seed", type=_SEED)
    f.add_argument("--out")
    f.set_defaults(func=cmd_smc)

    m = sub.add_parser("mcmc", help="batch inference on an observation stream")
    m.add_argument("--config", required=True)
    m.add_argument("--seed", type=_SEED)
    m.add_argument("--out")
    m.set_defaults(func=cmd_mcmc)

    c = sub.add_parser("correlation", help="correlation-decay curves as CSV")
    c.add_argument("--theta", type=_POSITIVE, required=True)
    c.add_argument("--rho", type=_PROBABILITY, action="append", required=True)
    c.add_argument("--taus", default="0,1,5,10")
    c.add_argument("--n-mc", type=_POSITIVE_INT, default=10_000)
    c.add_argument("--burn-in", type=int, default=200)
    c.add_argument("--kernel-phi", type=_AR1_PHI, default=None)
    c.add_argument("--seed", type=_SEED, required=True)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_correlation)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
