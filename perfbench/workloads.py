"""The benchmark's units of work: one `tvdpm.cli.main` call per pass, plus checks.

A pass runs the command a user runs (`tvdpm smc`, `tvdpm mcmc`,
`tvdpm validate --quick`) through `tvdpm.cli.main`, in-process.  The only
additions are outside-in clocks: for the length of a pass, the names the CLI
looks up in its own namespace for its per-record work (`run_filter`, `sweep`)
are replaced by wrappers that read the clock once per record and hand every
call on unchanged.  The originals are put back when the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import tvdpm.cli as cli
import tvdpm.datagen as datagen

from tracing import NULL

# Criterion 6a of the acceptance suite: the per-regime mean grid-L1 to the
# true density, outside the 20-step burn-in after each regime start, is
# below 0.35.
L1_BURN_IN = 20
CRITERION_6A_L1 = 0.35
VALIDATE_CHECKS = 15


@dataclass
class PassResult:
    latencies_s: list[float]
    wall_s: float
    ops: int
    output_bytes: int
    exit_code: int
    check: dict = field(default_factory=dict)
    state: object = None


@contextlib.contextmanager
def replaced(owner, attr: str, new):
    """`owner.attr` is `new` inside the block and its original after it."""
    raw = vars(owner)[attr]
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


# -- passes -----------------------------------------------------------------


def smc_pass(config_path, out_path, tracer=NULL) -> PassResult:
    """`tvdpm smc --config CONFIG --out OUT`; one latency per filtered step,
    covering the step, its density estimate and the CLI's record write.

    The CLI encodes and writes a record between taking it from `run_filter`
    and asking for the next one; the tracer times that gap as `cli.write`.
    """
    raw = cli.run_filter
    stamps = []

    def clocked(*args, **kwargs):
        stamps.append(time.perf_counter())
        for item in raw(*args, **kwargs):
            with tracer.span("cli.write"):
                yield item
            stamps.append(time.perf_counter())

    start = time.perf_counter()
    with replaced(cli, "run_filter", clocked):
        code = cli.main(["smc", "--config", str(config_path), "--out", str(out_path)])
    wall = time.perf_counter() - start
    latencies = np.diff(stamps).tolist()
    return PassResult(latencies, wall, len(latencies), os.path.getsize(out_path), code)


def mcmc_pass(config_path, out_path, tracer=NULL) -> PassResult:
    """`tvdpm mcmc --config CONFIG --out OUT`; one latency per sweep, from
    the start of one sweep to the start of the next (or the end of the
    command), so covering the sweep, its record and any checkpoint.

    The tracer times the part after each sweep as `mcmc.record`.
    """
    raw = cli.sweep
    stamps = []
    states = []
    record = []

    def clocked(state, rng):
        if record:
            tracer.end("mcmc.record", record.pop())
        stamps.append(time.perf_counter())
        if not states:
            states.append(state)
        result = raw(state, rng)
        record.append(tracer.begin())
        return result

    start = time.perf_counter()
    with replaced(cli, "sweep", clocked):
        code = cli.main(["mcmc", "--config", str(config_path), "--out", str(out_path)])
    if record:
        tracer.end("mcmc.record", record.pop())
    stamps.append(time.perf_counter())
    wall = stamps[-1] - start
    latencies = np.diff(stamps).tolist()
    state = states[0] if states else None
    return PassResult(latencies, wall, len(latencies), os.path.getsize(out_path), code, state=state)


def validate_pass(seed, out_path, log_path, tracer=NULL) -> PassResult:
    """`tvdpm validate --quick --seed SEED --out OUT`, with the per-check
    lines it prints sent to `log_path`; one latency per suite."""
    start = time.perf_counter()
    with open(log_path, "w") as log, contextlib.redirect_stdout(log):
        code = cli.main(["validate", "--quick", "--seed", str(seed), "--out", str(out_path)])
    wall = time.perf_counter() - start
    with open(out_path) as fh:
        report = json.load(fh)
    return PassResult([wall], wall, len(report["checks"]), os.path.getsize(out_path), code, state=report)


# -- checks -----------------------------------------------------------------


def check_smc(out_path, stream_path, n_particles, preset) -> dict:
    """One record per time step; every ESS finite and in (0, N]; every
    per-regime mean grid-L1 to the true density below CRITERION_6A_L1
    outside the burn-ins."""
    with open(stream_path) as fh:
        truths = {rec["t"]: rec["truth"] for rec in map(json.loads, fh)}
    with open(out_path) as fh:
        records = [json.loads(line) for line in fh]
    ess_ok = all(
        math.isfinite(r["ess"]) and 0.0 < r["ess"] <= n_particles * (1 + 1e-9) for r in records
    )
    if [r["t"] for r in records] != sorted(truths):
        return {"ok": False, "ess_ok": ess_ok, "records": len(records), "density_l1": None}
    l1 = {}
    for r in records:
        grid = np.asarray(r["density"]["grid"])
        est = np.asarray(r["density"]["values"])
        truth = datagen.mixture_density(grid, truths[r["t"]])
        l1[r["t"]] = float(np.trapezoid(np.abs(est - truth), grid))
    regimes = [(seg["start"], seg["end"]) for seg in datagen.DENSITY_PRESETS[preset]["segments"]]
    kept = [[l1[t] for t in range(a + L1_BURN_IN, b + 1)] for a, b in regimes]
    means = [float(np.mean(v)) for v in kept]
    return {
        "ok": ess_ok and all(m < CRITERION_6A_L1 for m in means),
        "ess_ok": ess_ok,
        "regime_l1_means": means,
        "density_l1": float(np.mean([x for v in kept for x in v])),
    }


def check_mcmc(state) -> dict:
    """The sampler's caches agree with its state at the end of the run."""
    if state is None:
        return {"ok": False, "caches_ok": None}
    try:
        state.check_caches()
    except AssertionError as exc:
        return {"ok": False, "caches_ok": False, "error": str(exc)}
    return {"ok": True, "caches_ok": True}


def check_validate(report) -> dict:
    """The quick suite passes all of its VALIDATE_CHECKS checks."""
    passed = sum(bool(c["passed"]) for c in report["checks"])
    ok = bool(report["passed"]) and passed == len(report["checks"]) == VALIDATE_CHECKS
    return {"ok": ok, "checks_passed": passed, "checks": len(report["checks"])}
