#!/usr/bin/env python3
"""Sequential density-estimation experiment, end to end.

Generates a piecewise mixture stream (preset), filters it online with the
mixture deletion policy and the survival-probability random walk, and
writes plot-ready CSVs: per-step alive mass / posterior rho, and density
snapshots (t, x, f_true, f_est) at selected times.

Example:
    python scripts/run_density_experiment.py --preset paper-4.1-scaled \
        --n-particles 500 --seed 7 --data-seed 1000 --out-dir results/
"""

import argparse
import csv
import pathlib

import numpy as np

from tvdpm.datagen import DENSITY_PRESETS, gen_density_data, mixture_density
from tvdpm.kernels import NormalInverseGamma, StaticKernel
from tvdpm.models import GaussianModel, ObservationBatch
from tvdpm.smc import FilterConfig, RhoWalk, run_filter
from tvdpm.urn import MixturePolicy, SizeBiasedDeletion, UniformDeletion


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="paper-4.1-scaled", choices=sorted(DENSITY_PRESETS))
    ap.add_argument("--n-particles", type=int, default=500)
    ap.add_argument("--theta", type=float, default=3.0)
    ap.add_argument("--a-rho", type=float, default=1000.0)
    ap.add_argument("--rho0", type=float, default=0.9)
    ap.add_argument("--alpha", type=float, default=0.98)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--data-seed", type=int, default=1000)
    ap.add_argument("--grid-lo", type=float, default=-9.0)
    ap.add_argument("--grid-hi", type=float, default=9.0)
    ap.add_argument("--grid-points", type=int, default=200)
    ap.add_argument("--snapshot-every", type=int, default=50)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_stream = DENSITY_PRESETS[args.preset]
    stream = list(gen_density_data(cfg_stream, np.random.default_rng(args.data_seed)))
    batches = [ObservationBatch(r["t"], tuple(r["values"])) for r in stream]
    truths = {r["t"]: r["truth"] for r in stream}

    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    model = GaussianModel(NormalInverseGamma(0.0, 0.1, 2.0, 1.0))
    fc = FilterConfig(
        n_particles=args.n_particles,
        theta=args.theta,
        policy=MixturePolicy(args.alpha, UniformDeletion(None), SizeBiasedDeletion()),
        proposal="conjugate",
        rho_walk=RhoWalk(a_rho=args.a_rho, rho0=args.rho0),
        grid=grid,
    )
    rng = np.random.default_rng(args.seed)

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
            curve.writerow([t, f"{rec['n_alive']:.3f}", f"{rec['rho_post']:.5f}",
                            f"{rec['ess']:.1f}", f"{l1:.4f}"])
            if t % args.snapshot_every == 0 or t == len(batches):
                for x, ft, fe in zip(grid, truth, est):
                    snaps.writerow([t, f"{x:.4f}", f"{ft:.6f}", f"{fe:.6f}"])
    print(f"wrote {curve_path} and {snap_path}")


if __name__ == "__main__":
    main()
