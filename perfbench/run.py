#!/usr/bin/env python3
"""tvdpm benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `tvdpm` from `src/`).
Workloads, each one closed loop with a single caller in one fresh,
single-threaded Python process:

- smc-density: `tvdpm smc` with examples_config/smc_density.json on a
  `paper-4.1-scaled` stream (T=300, n=1, N=500): the online path.
- mcmc-topic: `tvdpm mcmc` with examples_config/mcmc_topics.json, at
  SWEEPS sweeps, on a `topic-synthetic` corpus (T=10, n=25): the batch path.
- validate-quick: `tvdpm validate --quick`: the only user of the ensemble.

Inputs come from `tvdpm gen-data` before any timing starts.  The workloads
whose check is a statistical acceptance test run at that test's own seeds,
whatever `--seed` says: smc-density at acceptance criterion 6's data seed
and the shipped config's filter seed, validate-quick at the CLI's default
seed.  Those checks are hypothesis tests with a false-alarm rate per seed, so
at arbitrary seeds they would fail a correct program now and then.
mcmc-topic, whose check (the sampler's caches agree with its state) holds at
every seed, draws its corpus and its chain from `--seed`.  With `--trace 0`
the result holds the end-to-end
metrics; with `--trace 1`, the per-layer metrics of a traced pass (see
worker.py).  The last line of stdout is the JSON result; the line before it
carries the environment, the checks, and the same figures under the
workload's own names (smc.steps_per_s, mcmc.sweep_p50_ms, validate.suite_s,
smc.density_l1, ...).

The end-to-end names are generic because every workload reports every one
of them: an operation is an SMC step, an MCMC sweep or a validation check,
and a latency is that of one output record (an SMC step, an MCMC sweep, a
validation report).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("smc-density", "mcmc-topic", "validate-quick")
SWEEPS = 200  # MCMC sweeps per pass: p95 has ten sweeps beyond it
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
SMC_CURVE = {"N": (100, 500, 2000), "steps": 30}  # steps: a stream prefix
MCMC_CURVE = {100: 8, 200: 5, 400: 3, 800: 2}  # T -> sweeps timed
CURVE_RHO = 0.9
BUDGET_S = 170  # every child process is ended by then
# the seeds of the statistical checks (see the module docstring)
SMC_DATA_SEED = 1000  # tests/test_acceptance.py, criterion 6
VALIDATE_SEED = 20240901  # `tvdpm validate`'s default


class BenchError(RuntimeError):
    pass


class Children:
    """Runs child Python processes one at a time: single-threaded, with
    `tvdpm` imported from the checkout's `src/`, and killed (and waited
    for) if they outlive the run's budget."""

    def __init__(self, root: Path, cwd: Path):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env, self.cwd = env, cwd
        self.deadline = time.monotonic() + BUDGET_S

    def python(self, *args) -> str:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        proc = subprocess.run(
            [sys.executable, *map(str, args)],
            env=self.env, cwd=self.cwd, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise BenchError(f"python {' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def gen_data(self, *args) -> None:
        self.python("-m", "tvdpm.cli", "gen-data", *args)

    def worker(self, plan_path: str, *extra) -> dict:
        out = self.python(HERE / "worker.py", "--plan", plan_path, *extra)
        return json.loads(out.strip().splitlines()[-1])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "examples_config" / name).read_text())


def make_plan(root: Path, kids: Children, work: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate the inputs and configs, before any timing starts."""
    plan = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "work": str(work)}
    smc_base = _shipped(root, "smc_density.json")
    stream = work / "stream.jsonl"
    if workload == "smc-density" or trace:
        kids.gen_data("--preset", "paper-4.1-scaled", "--seed", SMC_DATA_SEED, "--out", stream)
    if workload == "smc-density":
        cfg = dict(smc_base, data={"path": str(stream)})
        plan.update(
            config=_write_json(work / "smc.json", cfg),
            stream=str(stream),
            n_particles=cfg["inference"]["n_particles"],
            preset="paper-4.1-scaled",
            data_seed=SMC_DATA_SEED,
            run_seed=cfg["seed"],
        )
    elif workload == "validate-quick":
        plan.update(data_seed=None, run_seed=VALIDATE_SEED)
    elif workload == "mcmc-topic":
        corpus, vocab = work / "corpus.jsonl", work / "vocab.txt"
        kids.gen_data("--preset", "topic-synthetic", "--seed", seed, "--out", corpus, "--vocab-out", vocab)
        cfg = _shipped(root, "mcmc_topics.json")
        cfg.update(seed=seed, data={"path": str(corpus), "vocab_path": str(vocab)})
        cfg["inference"] = dict(cfg["inference"], sweeps=SWEEPS)
        cfg["output"] = {"checkpoint_path": str(work / "mcmc_ck")}
        plan.update(config=_write_json(work / "mcmc.json", cfg), data_seed=seed, run_seed=seed)
    if trace:
        plan["curves"] = _curve_inputs(kids, work, seed, smc_base, stream)
    return plan


def _curve_inputs(kids: Children, work: Path, seed: int, smc_base: dict, stream: Path) -> dict:
    """SMC on a prefix of the smc-density stream at several N; collapsed n=1
    Gaussian MCMC on `paper-4.1` prefixes at several T."""
    prefix = work / f"stream_{SMC_CURVE['steps']}.jsonl"
    prefix.write_text("".join(stream.read_text().splitlines(keepends=True)[: SMC_CURVE["steps"]]))
    smc_points = []
    for n in SMC_CURVE["N"]:
        cfg = dict(smc_base, seed=seed, data={"path": str(prefix)})
        cfg["inference"] = dict(cfg["inference"], n_particles=n)
        config = _write_json(work / f"smc_N{n}.json", cfg)
        smc_points.append({"N": n, "config": config})
    full = work / "paper41.jsonl"
    kids.gen_data("--preset", "paper-4.1", "--seed", seed, "--out", full)
    lines = full.read_text().splitlines(keepends=True)
    mcmc_points = []
    for T, sweeps in MCMC_CURVE.items():
        prefix = work / f"paper41_T{T}.jsonl"
        prefix.write_text("".join(lines[:T]))
        cfg = {
            "seed": seed,
            "theta": smc_base["theta"],
            "model": smc_base["model"],
            "policy": {"type": "uniform", "rho": CURVE_RHO},
            "inference": {"method": "mcmc", "rho": CURVE_RHO, "sweeps": sweeps, "mode": "collapsed"},
            "data": {"path": str(prefix)},
        }
        config = _write_json(work / f"mcmc_T{T}.json", cfg)
        mcmc_points.append({"T": T, "config": config})
    return {"smc": smc_points, "mcmc": mcmc_points}


def measure_setup(kids: Children, plan_path: str, probes: int) -> list[float]:
    """Process launch to the first unit of work, in fresh processes."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        res = kids.worker(plan_path, "--setup-only")
        samples.append(res["first_unit"] - t0)
    return samples


def _percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def summarize(workload: str, res: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics under their generic names, and the same figures
    under the workload's own names."""
    passes = res["passes"]
    lat = [x for p in passes for x in p["latencies_s"]]
    ops = sum(p["ops"] for p in passes)
    e2e = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "ops_per_s": ops / sum(lat),
        "latency_p50_ms": _percentile(lat, 0.50) * 1e3,
        "latency_p95_ms": _percentile(lat, 0.95) * 1e3,
        "output_mb": passes[0]["output_bytes"] / 1e6,
    }
    own = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB")}
    if workload == "smc-density":
        own.update({
            "smc.steps_per_s": (e2e["ops_per_s"], "1/s"),
            "smc.step_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "smc.step_p95_ms": (e2e["latency_p95_ms"], "ms"),
            "smc.output_mb": (e2e["output_mb"], "MB"),
            "smc.density_l1": (passes[0]["check"].get("density_l1"), "L1"),
        })
    elif workload == "mcmc-topic":
        own.update({
            "mcmc.sweeps_per_s": (e2e["ops_per_s"], "1/s"),
            "mcmc.sweep_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "mcmc.sweep_p95_ms": (e2e["latency_p95_ms"], "ms"),
        })
    else:
        own["validate.suite_s"] = (statistics.median(lat), "s")
    own = {name: {"value": value, "unit": unit} for name, (value, unit) in own.items()}
    own["samples"] = len(lat)
    own["setup_samples_s"] = setup
    own["passes"] = len(passes)
    return e2e, own


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "tvdpm" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a tvdpm source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    kids = Children(root, work)
    try:
        plan = make_plan(root, kids, work, args.workload, args.seed, args.seconds, bool(args.trace))
        plan_path = _write_json(work / "plan.json", plan)
        # setup probes on both sides of the measured run, so that a slow
        # spell of a shared machine does not meet all of them
        probes = 0 if args.trace else SETUP_PROBES
        setup = measure_setup(kids, plan_path, (probes + 1) // 2)
        res = kids.worker(plan_path)
        setup += measure_setup(kids, plan_path, probes // 2)
        if not Path(res["tvdpm_file"]).resolve().is_relative_to(root / "src"):
            raise BenchError(f"tvdpm was imported from {res['tvdpm_file']}, not from this checkout")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = sum(p["failed"] for p in res["passes"])
    attempted = sum(p["ops"] for p in res["passes"])
    detail = {
        "workload": args.workload,
        "env": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            **res["versions"],
            "git_commit": _git_commit(root),
            "workload_seed": args.seed,
            "data_seed": plan["data_seed"],
            "run_seed": plan["run_seed"],
        },
        "checks": [p["check"] for p in res["passes"]],
    }
    if args.trace:
        values = res["per_layer"]
        if not (res["same_output"] and res["restored"]):
            failed = attempted
        detail.update(same_output=res["same_output"], restored=res["restored"], wrapped=res["wrapped"])
    else:
        values, own = summarize(args.workload, res, setup)
        detail["metrics"] = own
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
