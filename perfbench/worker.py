"""One workload in one fresh, single-threaded Python process.

Started by `run.py` with `--plan PLAN.json`, which names the workload, its
generated inputs and the run length.  Prints one JSON object on stdout.

Modes:
- `--setup-only`: run the workload's command until its first unit of work
  (the first SMC `advance`, the first MCMC sweep, the validation suite)
  would start, and print the clock reading there: imports, config load,
  data read and initial sampler state.  `run.py` subtracts the time it
  launched the process.
- default: run whole passes of the workload's command back to back for
  about the run length (see `timed_run`), and check each pass's output.
- traced (`"trace": true` in the plan): the pass untraced, then with every
  layer entry point wrapped, then untraced again, then the scaling curves;
  reports per-layer metrics and whether the traced output equals the
  untraced one byte for byte.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np
import scipy

import tvdpm
import tvdpm.cli as cli
import tvdpm.smc as smc

import layers
import workloads
from tracing import NULL, Tracer


# where each command's first unit of work starts
FIRST_UNIT = {
    "smc-density": (smc, "advance"),
    "mcmc-topic": (cli, "sweep"),
    "validate-quick": (cli, "run_validation_suite"),
}


class FirstUnit(Exception):
    pass


def setup_only(plan) -> float:
    """The set-up of a pass, up to its first unit of work; returns the
    clock reading there."""

    def stop(*args, **kwargs):
        raise FirstUnit(time.perf_counter())

    owner, attr = FIRST_UNIT[plan["workload"]]
    with workloads.replaced(owner, attr, stop):
        try:
            run_pass(plan, f"{plan['work']}/setup.out")
        except FirstUnit as reached:
            return reached.args[0]
    raise RuntimeError("the command ended before its first unit of work")


def run_pass(plan, out_path, tracer=NULL):
    """One pass of the workload's command, checked."""
    kind = plan["workload"]
    if kind == "smc-density":
        res = workloads.smc_pass(plan["config"], out_path, tracer)
        res.check = workloads.check_smc(out_path, plan["stream"], plan["n_particles"], plan["preset"])
    elif kind == "mcmc-topic":
        res = workloads.mcmc_pass(plan["config"], out_path, tracer)
        res.check = workloads.check_mcmc(res.state)
    else:
        res = workloads.validate_pass(plan["run_seed"], out_path, out_path + ".log", tracer)
        res.check = workloads.check_validate(res.state)
    res.check["exit_code"] = res.exit_code
    if res.exit_code != 0:
        res.check["ok"] = False
    res.state = None
    return res


def failed_ops(kind, res) -> int:
    """A failed check fails every operation of its pass, except that each
    validation check is an operation of its own."""
    if res.check["ok"]:
        return 0
    if kind == "validate-quick" and res.check["checks"] == workloads.VALIDATE_CHECKS:
        return res.ops - res.check["checks_passed"]
    return res.ops


def _median_ms(latencies) -> float:
    return float(np.median(latencies)) * 1e3


def _exponent(sizes, times_ms) -> float:
    slope, _ = np.polyfit(np.log(sizes), np.log(times_ms), 1)
    return float(slope)


def scaling_curves(plan) -> dict[str, float]:
    """Per-step SMC time against N and per-sweep MCMC time against T, each
    with the exponent of a least-squares fit in log-log space."""
    out = {}
    curves = plan["curves"]
    work = plan["work"]
    sizes, times = [], []
    for point in curves["smc"]:
        res = workloads.smc_pass(point["config"], f"{work}/curve.out")
        ms = _median_ms(res.latencies_s)
        out[f"smc.step_ms.N{point['N']}"] = ms
        sizes.append(point["N"])
        times.append(ms)
    out["smc.step_N_exponent"] = _exponent(sizes, times)
    sizes, times = [], []
    for point in curves["mcmc"]:
        res = workloads.mcmc_pass(point["config"], f"{work}/curve.out")
        ms = _median_ms(res.latencies_s)
        out[f"mcmc.sweep_ms.T{point['T']}"] = ms
        sizes.append(point["T"])
        times.append(ms)
    out["mcmc.sweep_T_exponent"] = _exponent(sizes, times)
    return out


def _summary(plan, res) -> dict:
    return {
        "latencies_s": res.latencies_s,
        "wall_s": res.wall_s,
        "ops": res.ops,
        "failed": failed_ops(plan["workload"], res),
        "output_bytes": res.output_bytes,
        "check": res.check,
    }


def traced_run(plan) -> dict:
    """Untraced, traced and untraced again: the first pass pays the lazy
    first-call costs, so the overhead is taken against the last one."""
    work = plan["work"]
    first = run_pass(plan, f"{work}/untraced.out")
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        traced = run_pass(plan, f"{work}/traced.out", tracer)
    finally:
        replaced = tracer.restore()
    restored = all(vars(owner)[attr] is raw for owner, attr, raw in replaced)
    plain = run_pass(plan, f"{work}/untraced.out")
    with open(f"{work}/untraced.out", "rb") as a, open(f"{work}/traced.out", "rb") as b:
        same_output = a.read() == b.read()
    per_layer = layers.per_layer_metrics(tracer)
    per_layer["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
    per_layer.update(scaling_curves(plan))
    return {
        "passes": [_summary(plan, p) for p in (first, traced, plain)],
        "same_output": same_output,
        "restored": restored,
        "wrapped": len(replaced),
        "per_layer": per_layer,
    }


def timed_run(plan) -> dict:
    """Whole passes back to back, as many as the first pass's duration says
    fill the run length (at least one).  Whole passes keep the mix of steps
    the same in every run, however fast the machine is."""
    out = f"{plan['work']}/out"
    passes = [run_pass(plan, out)]
    count = max(1, round(plan["seconds"] / passes[0].wall_s))
    passes += [run_pass(plan, out) for _ in range(count - 1)]
    return {"passes": [_summary(plan, p) for p in passes]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    if args.setup_only:
        result = {"first_unit": setup_only(plan)}
    elif plan["trace"]:
        result = traced_run(plan)
    else:
        result = timed_run(plan)
    result["tvdpm_file"] = tvdpm.__file__
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
