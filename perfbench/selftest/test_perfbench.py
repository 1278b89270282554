"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/selftest -q
"""

import json
import shutil
import subprocess
import sys
import types

import pytest

import tvdpm.cli
import tvdpm.smc

import layers
import run
import tracing
import worker
import workloads
from conftest import BENCH, ROOT


def _shipped(name):
    return json.loads((ROOT / "examples_config" / name).read_text())


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def smc_config(tmp_path):
    """The shipped smc-density config on the first 40 steps of a stream."""
    stream = tmp_path / "stream.jsonl"
    assert tvdpm.cli.main(["gen-data", "--preset", "paper-4.1-scaled", "--seed", "3", "--out", str(stream)]) == 0
    stream.write_text("".join(stream.read_text().splitlines(keepends=True)[:40]))
    cfg = dict(_shipped("smc_density.json"), data={"path": str(stream)})
    return _write(tmp_path / "smc.json", cfg)


@pytest.fixture
def mcmc_config(tmp_path):
    """The shipped mcmc-topic config at 12 sweeps, checkpointing every 5."""
    corpus, vocab = tmp_path / "corpus.jsonl", tmp_path / "vocab.txt"
    assert tvdpm.cli.main([
        "gen-data", "--preset", "topic-synthetic", "--seed", "3",
        "--out", str(corpus), "--vocab-out", str(vocab),
    ]) == 0
    cfg = _shipped("mcmc_topics.json")
    cfg["inference"] = dict(cfg["inference"], sweeps=12, checkpoint_every=5)
    cfg["data"] = {"path": str(corpus), "vocab_path": str(vocab)}
    cfg["output"] = {"checkpoint_path": str(tmp_path / "ck")}
    return _write(tmp_path / "mcmc.json", cfg)


def test_mcmc_pass_clocks_every_sweep_and_restores(tmp_path, mcmc_config):
    raw_sweep = vars(tvdpm.cli)["sweep"]
    tracer = tracing.Tracer()
    res = workloads.mcmc_pass(mcmc_config, tmp_path / "out.jsonl", tracer)
    assert vars(tvdpm.cli)["sweep"] is raw_sweep
    assert res.exit_code == 0 and res.ops == 12 == len(res.latencies_s)
    assert all(x > 0 for x in res.latencies_s)
    assert tracer.calls["mcmc.record"] == 12 and tracer._stack == []
    assert [json.loads(line)["sweep"] for line in (tmp_path / "out.jsonl").read_text().splitlines()] == list(range(1, 13))
    assert (tmp_path / "ck.sweep10.json").is_file()
    assert workloads.check_mcmc(res.state) == {"ok": True, "caches_ok": True}


def test_setup_probe_stops_at_the_first_unit(tmp_path, smc_config):
    raw_advance = vars(tvdpm.smc)["advance"]
    plan = {"workload": "smc-density", "config": smc_config, "work": str(tmp_path)}
    assert isinstance(worker.setup_only(plan), float)
    assert vars(tvdpm.smc)["advance"] is raw_advance
    assert (tmp_path / "setup.out").read_text() == ""


def test_truncated_smc_output_fails_its_check_and_still_reports(tmp_path):
    stream = tmp_path / "stream.jsonl"
    assert tvdpm.cli.main(["gen-data", "--preset", "paper-4.1-scaled", "--seed", "3", "--out", str(stream)]) == 0
    out = tmp_path / "out.jsonl"
    out.write_text(json.dumps({"t": 1, "ess": 10.0}) + "\n")
    check = workloads.check_smc(out, stream, 500, "paper-4.1-scaled")
    assert check["ok"] is False and check["density_l1"] is None
    passes = [{"latencies_s": [0.04], "ops": 1, "output_bytes": 20, "check": check}]
    e2e, own = run.summarize("smc-density", {"passes": passes, "peak_rss_kb": 1024}, [1.0])
    assert e2e["ops_per_s"] == 25.0 and own["smc.density_l1"]["value"] is None


def test_traced_pass_equals_untraced_and_restores(tmp_path, smc_config):
    originals = {name: vars(tvdpm.smc)[name] for name in ("advance", "apply_policy", "resample")}
    raw_run_filter = vars(tvdpm.cli)["run_filter"]
    workloads.smc_pass(smc_config, tmp_path / "plain.jsonl")
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)
        assert tvdpm.smc.advance is not originals["advance"]
        workloads.smc_pass(smc_config, tmp_path / "traced.jsonl", tracer)
    finally:
        tracer.restore()
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "traced.jsonl").read_bytes()
    for name, fn in originals.items():
        assert vars(tvdpm.smc)[name] is fn
    assert vars(tvdpm.cli)["run_filter"] is raw_run_filter
    metrics = layers.per_layer_metrics(tracer)
    assert metrics["urn.apply_policy_calls"] == 40 * 500
    assert 0 < metrics["smc.advance_self_s"] < tracer.seconds("smc.advance")
    assert metrics["mcmc.death_time_calls"] == 0
    assert metrics["cli.write_s"] > 0 and tracer.calls["config.load"] == 1


def test_tracer_self_time_stack_and_restore(monkeypatch):
    ticks = iter([0, 10, 15, 30, 40, 41])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))

    mod = types.ModuleType("fake")

    def inner():
        return "inner"

    def outer():
        return mod.inner()

    def boom():
        raise ValueError("boom")

    class Thing:
        @classmethod
        def build(cls):
            return cls

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    raw_build = vars(Thing)["build"]
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "boom", "boom")
    tracer.wrap(Thing, "build", "build")

    assert mod.outer() == "inner"
    assert tracer.total_ns["outer"] == 30 and tracer.total_ns["inner"] == 5
    assert tracer.self_ns["outer"] == 25 and tracer.self_ns["inner"] == 5
    with pytest.raises(ValueError):
        mod.boom()
    assert tracer.calls["boom"] == 1 and tracer._stack == []

    restored = tracer.restore()
    assert len(restored) == 4
    assert mod.inner is inner and mod.outer is outer and mod.boom is boom
    assert vars(Thing)["build"] is raw_build and Thing.build() is Thing


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smc-density", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class _RecordingKids:
    def __init__(self):
        self.gen_data_calls = []

    def gen_data(self, *args):
        self.gen_data_calls.append([str(a) for a in args])


@pytest.mark.parametrize("seed", [1, 1906456312])
def test_statistical_checks_run_at_their_own_seeds(tmp_path, seed):
    smc_kids = _RecordingKids()
    plan = run.make_plan(ROOT, smc_kids, tmp_path, "smc-density", seed, 25, False)
    assert smc_kids.gen_data_calls == [[
        "--preset", "paper-4.1-scaled", "--seed", str(run.SMC_DATA_SEED), "--out", str(tmp_path / "stream.jsonl"),
    ]]
    assert (plan["data_seed"], plan["run_seed"]) == (1000, _shipped("smc_density.json")["seed"])
    assert json.loads((tmp_path / "smc.json").read_text())["seed"] == plan["run_seed"]

    plan = run.make_plan(ROOT, _RecordingKids(), tmp_path, "validate-quick", seed, 25, False)
    assert (plan["data_seed"], plan["run_seed"]) == (None, run.VALIDATE_SEED)

    mcmc_kids = _RecordingKids()
    plan = run.make_plan(ROOT, mcmc_kids, tmp_path, "mcmc-topic", seed, 25, False)
    assert mcmc_kids.gen_data_calls[0][3] == str(seed)
    assert (plan["data_seed"], plan["run_seed"]) == (seed, seed)
    assert json.loads((tmp_path / "mcmc.json").read_text())["seed"] == seed
