#!/usr/bin/env python3
"""Sequential density-estimation experiment, end to end.

Generates a piecewise mixture stream (preset) and filters it online with
the model, deletion policy, survival-probability random walk, particle
count and density grid of an smc config file (by default the shipped
examples_config/smc_density.json; its data section is not read).  Writes
plot-ready CSVs: per-step alive mass / posterior rho (empty without a rho
walk), and density
snapshots (t, x, f_true, f_est) at selected times.

Example:
    python scripts/run_density_experiment.py --preset paper-4.1-scaled \
        --seed 7 --data-seed 1000 --out-dir results/
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from tvdpm.cli import _NON_NEGATIVE_INT, _POSITIVE_INT, run_command
from tvdpm.config import build_filter_config, build_model, load_config
from tvdpm.datagen import DENSITY_PRESETS, gen_density_data, mixture_density
from tvdpm.kernels import StaticKernel
from tvdpm.models import ObservationBatch
from tvdpm.smc import run_filter

DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "examples_config" / "smc_density.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG), help="smc config (needs inference.grid)")
    ap.add_argument("--preset", default="paper-4.1-scaled", choices=sorted(DENSITY_PRESETS))
    ap.add_argument("--seed", type=_NON_NEGATIVE_INT, help="filter seed (default: the config's seed)")
    ap.add_argument("--data-seed", type=_NON_NEGATIVE_INT, default=1000)
    ap.add_argument("--snapshot-every", type=_POSITIVE_INT, default=50)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    cfg = load_config(args.config)
    model = build_model(cfg.model)
    fc = build_filter_config(cfg)
    if fc.grid is None:
        ap.error(f"{args.config} has no inference.grid to estimate the density on")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_stream = DENSITY_PRESETS[args.preset]
    stream = list(gen_density_data(cfg_stream, np.random.default_rng(args.data_seed)))
    batches = [ObservationBatch(r["t"], tuple(r["values"])) for r in stream]
    truths = {r["t"]: r["truth"] for r in stream}

    grid = fc.grid
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)

    curve_path = out / f"alive_mass_{args.preset}.csv"
    snap_path = out / f"density_snapshots_{args.preset}.csv"
    with open(curve_path, "w", newline="") as fc_out, open(snap_path, "w", newline="") as fs_out:
        curve = csv.writer(fc_out)
        curve.writerow(["t", "N_alive", "rho_post", "ess", "l1_to_truth"])
        snaps = csv.writer(fs_out)
        snaps.writerow(["t", "x", "f_true", "f_est"])
        for rec, _pop in run_filter(batches, model, StaticKernel(), fc, rng):
            t = rec["t"]
            est = np.asarray(rec["density"]["values"])
            truth = mixture_density(grid, truths[t])
            l1 = float(np.trapezoid(np.abs(est - truth), grid))
            rho = f"{rec['rho_post']:.5f}" if "rho_post" in rec else ""
            curve.writerow([t, f"{rec['n_alive']:.3f}", rho, f"{rec['ess']:.1f}", f"{l1:.4f}"])
            if t % args.snapshot_every == 0 or t == len(batches):
                for x, ft, fe in zip(grid, truth, est):
                    snaps.writerow([t, f"{x:.4f}", f"{ft:.6f}", f"{fe:.6f}"])
    print(f"wrote {curve_path} and {snap_path}")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
