import json
import os
import pathlib
import subprocess
import sys

import pytest

import tvdpm
import tvdpm.cli
from tvdpm.cli import main
from tvdpm.config import ConfigError, build_policy, check_schema, load_config, validate_config
from tvdpm.datagen import DENSITY_PRESETS
from tvdpm.urn import MixturePolicy, SlidingWindow, UniformDeletion

GOOD_CONFIG = {
    "seed": 7,
    "theta": 3.0,
    "model": {"type": "gaussian_nig", "mu0": 0.0, "kappa0": 0.1, "nu0": 2.0, "lambda0": 1.0},
    "policy": {
        "type": "mixture",
        "alpha": 0.98,
        "a": {"type": "uniform", "rho": "walk"},
        "b": {"type": "size_biased"},
    },
    "inference": {
        "method": "smc",
        "n_particles": 30,
        "rho_walk": {"a_rho": 1000.0, "rho0": 0.9},
        "grid": {"lo": -8.0, "hi": 8.0, "points": 50},
    },
}


class TestConfig:
    def test_valid_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(GOOD_CONFIG))
        cfg = load_config(p)
        assert cfg.seed == 7 and cfg.inference["method"] == "smc"

    def test_unknown_key_rejected(self):
        bad = dict(GOOD_CONFIG, extra_key=1)
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_unknown_nested_key_rejected(self):
        bad = json.loads(json.dumps(GOOD_CONFIG))
        bad["inference"]["mystery"] = True
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_walk_without_rho_walk_rejected(self):
        from tvdpm.config import build_filter_config

        bad = json.loads(json.dumps(GOOD_CONFIG))
        del bad["inference"]["rho_walk"]
        cfg = validate_config(bad)
        with pytest.raises(ConfigError):
            build_filter_config(cfg)

    @pytest.mark.parametrize("preset", sorted(DENSITY_PRESETS))
    def test_density_presets_fit_the_stream_schema(self, preset):
        check_schema(DENSITY_PRESETS[preset], "stream config", "stream")

    def test_build_policy(self):
        pol = build_policy(GOOD_CONFIG["policy"])
        assert isinstance(pol, MixturePolicy)
        assert pol.policy_a == UniformDeletion(None)
        assert build_policy({"type": "sliding_window", "r": 3}) == SlidingWindow(3)
        assert build_policy({"type": "uniform", "rho": 0.4}) == UniformDeletion(0.4)


def write_stream(tmp_path, records, command="smc"):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["data"] = {"path": str(data)}
    if command == "mcmc":
        cfg["policy"] = {"type": "uniform", "rho": 0.4}
        cfg["inference"] = {"method": "mcmc", "rho": 0.4, "sweeps": 1}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    return [command, "--config", str(cfg_path), "--out", str(tmp_path / "o.jsonl")]


def write_corpus(tmp_path, records):
    data = tmp_path / "corpus.jsonl"
    vocab = tmp_path / "vocab.txt"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    vocab.write_text("".join(f"w{i}\n" for i in range(4)))
    cfg = {
        "seed": 3,
        "theta": 0.5,
        "model": {"type": "topic", "theta_v": 0.5, "vocab_size": 4},
        "policy": {"type": "uniform", "rho": 0.4},
        "inference": {"method": "mcmc", "rho": 0.4, "sweeps": 1},
        "data": {"path": str(data), "vocab_path": str(vocab)},
    }
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["mcmc", "--config", str(cfg_path), "--out", str(tmp_path / "o.jsonl")]


def checkout_env() -> dict:
    """The environment of a new interpreter that imports this checkout's tvdpm."""
    src = str(pathlib.Path(tvdpm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout's tvdpm;
    returns its stripped stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def run_cli(args):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


POLICY = '{"type":"uniform","rho":0.7}'


class TestCli:
    def test_gen_data_line_count_and_determinism(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        code, _, _ = run_cli(["gen-data", "--preset", "paper-4.1", "--seed", "3", "--out", str(a)])
        assert code == 0
        run_cli(["gen-data", "--preset", "paper-4.1", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1000

    @pytest.mark.parametrize(
        "segments,named",
        [
            ([(1, 2, [1.0]), (3, 4, [0.5, 0.3]), (5, 6, [1.0])], "weights at t=3"),
            ([(1, 2, [1.0]), (3, 4, [1.2, -0.2]), (5, 6, [1.0])], "weights at t=3"),
            ([(1, 2, [1.0]), (4, 6, [1.0])], "time 3 not covered"),
            ([(1, 2, [1.0]), (3, 6, [1.0], {"start": 4, "end": 4})], "drift end must be after"),
            (
                [(1, 2, [1.0]), (3, 6, [1.0], {"start": 4, "end": 5, "component": 1})],
                "drift component 1",
            ),
            ([(1, 2, [1.0]), (3, 6, [0.5, 0.5], None, -1.0)], "sigma must be positive"),
            ([(1, 2, [1.0]), (3, 6, [0.5, 0.5], None, 0.0)], "sigma must be positive"),
        ],
        ids=[
            "middle-weights",
            "negative-weight",
            "gap",
            "drift-no-span",
            "drift-component",
            "sigma-negative",
            "sigma-zero",
        ],
    )
    def test_gen_data_stream_config_checked_before_writing(self, tmp_path, segments, named):
        # a bad middle regime used to write its first records, then fail
        # with a traceback; a zero-span drift, a drift on a missing
        # component and a negative sigma failed with one before anything ran
        def segment(a, b, ws, drift=None, sigma=1.0):
            comps = [{"w": w, "mu": 0.0, "sigma": 1.0} for w in ws]
            comps[-1]["sigma"] = sigma
            seg = {"start": a, "end": b, "components": comps}
            if drift is not None:
                seg["drift"] = {"component": 0, "mu_from": 0.0, "mu_to": 1.0, **drift}
            return seg

        cfg = {"T": 6, "segments": [segment(*args) for args in segments]}
        cfg_path = tmp_path / "stream.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o.jsonl"
        code, _, err = run_cli(
            ["gen-data", "--stream-config", str(cfg_path), "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"segments": []}, "'T' is a required property"),
            (
                {"T": 2, "segments": [{"start": 1, "end": 2, "components": [{"w": 1.0, "mu": 0.0}]}]},
                "'sigma' is a required property (at segments.0.components.0)",
            ),
            (
                {"T": 2, "segments": [{"start": 1, "end": 2, "components": [{"w": 1.0, "mu": "a", "sigma": 1.0}]}]},
                "(at segments.0.components.0.mu)",
            ),
            ({"T": 2, "segments": [], "n_steps": 2}, "'n_steps' was unexpected"),
        ],
        ids=["no-T", "no-sigma", "mu-text", "unknown-key"],
    )
    def test_gen_data_stream_config_schema(self, tmp_path, config, named):
        # a missing T or sigma was a KeyError and text a ValueError, with exit 1
        cfg_path = tmp_path / "stream.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o.jsonl"
        code, _, err = run_cli(
            ["gen-data", "--stream-config", str(cfg_path), "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert err.startswith("error: stream config rejected: ") and named in err
        assert not out.exists()

    def test_gen_data_stream_config_equals_preset(self, tmp_path):
        cfg_path = tmp_path / "stream.json"
        cfg_path.write_text(json.dumps(DENSITY_PRESETS["paper-4.1-scaled"]))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(["gen-data", "--stream-config", str(cfg_path), "--seed", "4", "--out", str(a)])[0] == 0
        assert run_cli(["gen-data", "--preset", "paper-4.1-scaled", "--seed", "4", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "sources,named",
        [
            ([], "one of the arguments --preset --stream-config is required"),
            (["--preset", "paper-4.1", "--stream-config", "s.json"], "not allowed with argument"),
        ],
        ids=["neither", "both"],
    )
    def test_gen_data_takes_exactly_one_source(self, tmp_path, sources, named):
        # neither was a TypeError with exit 1; with both the preset won
        (tmp_path / "s.json").write_text(json.dumps(DENSITY_PRESETS["paper-4.1-scaled"]))
        out = tmp_path / "o.jsonl"
        code, _, err = run_cli(
            ["gen-data", *[str(tmp_path / a) if a == "s.json" else a for a in sources],
             "--seed", "1", "--out", str(out)]
        )
        assert code == 2 and named in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["preset", "stream-config"])
    def test_gen_data_vocab_out_needs_topic_preset(self, tmp_path, source):
        # a density stream has no vocabulary: this exited 0 and wrote no vocabulary
        (tmp_path / "s.json").write_text(json.dumps(DENSITY_PRESETS["paper-4.1-scaled"]))
        args = ["--preset", "paper-4.1"] if source == "preset" else ["--stream-config", str(tmp_path / "s.json")]
        out, vocab = tmp_path / "o.jsonl", tmp_path / "v.txt"
        code, stdout, err = run_cli(
            ["gen-data", *args, "--seed", "1", "--out", str(out), "--vocab-out", str(vocab)]
        )
        assert code == 2 and "error: --vocab-out is for --preset topic-synthetic" in err
        assert stdout == "" and not out.exists() and not vocab.exists()

    @pytest.mark.parametrize(
        "command",
        ["gen-data-density", "gen-data-topic", "simulate", "smc", "mcmc", "correlation", "validate"],
    )
    def test_out_dash_is_stdout(self, tmp_path, monkeypatch, command):
        # `--out -` of gen-data's topic preset and of validate wrote a file
        # named "-"; the suite itself is stubbed, only its output is at issue
        report = {"passed": True, "checks": [
            {"name": "stub", "passed": True, "value": 0.5, "threshold": 0.01, "kind": "pvalue"}
        ]}
        monkeypatch.setattr(tvdpm.cli, "run_validation_suite", lambda seed, quick: report)
        monkeypatch.chdir(tmp_path)
        if command == "smc":
            args = write_stream(tmp_path, [{"t": 1, "values": [0.1, 2.0]}, {"t": 2, "values": [0.3]}])[:-2]
        elif command == "mcmc":
            args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [1, 1]}])[:-2]
        else:
            args = {
                "gen-data-density": ["gen-data", "--preset", "paper-4.1-scaled", "--seed", "2"],
                "gen-data-topic": ["gen-data", "--preset", "topic-synthetic", "--seed", "2",
                                   "--vocab-out", str(tmp_path / "vocab.txt")],
                "simulate": ["simulate", "--theta", "1.5", "--policy", '{"type":"sliding_window","r":2}',
                             "--n", "3", "--steps", "6", "--seed", "2"],
                "correlation": ["correlation", "--theta", "2", "--rho", "0.5", "--taus", "0,1",
                                "--n-mc", "50", "--burn-in", "5", "--seed", "2"],
                "validate": ["validate", "--quick"],
            }[command]
        path = tmp_path / "out.txt"
        code, console, _ = run_cli(args + ["--out", str(path)])
        assert code == 0 and path.stat().st_size > 0
        code, piped, _ = run_cli(args + ["--out", "-"])
        assert code == 0
        assert piped.encode() == console.encode() + path.read_bytes()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("command", ["gen-data-topic", "simulate"])
    def test_closed_stdout_exits_141(self, tmp_path, command):
        # the reader closes the pipe before the first byte; before, a
        # BrokenPipeError traceback, exit 1, and no vocabulary file
        vocab = tmp_path / "vocab.txt"
        args = {
            "gen-data-topic": ["gen-data", "--preset", "topic-synthetic", "--seed", "5",
                               "--vocab-out", str(vocab)],
            "simulate": ["simulate", "--theta", "1.5", "--policy", POLICY, "--n", "5",
                         "--steps", "20000", "--seed", "1"],
        }[command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "tvdpm.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""
        if command == "gen-data-topic":
            assert len(vocab.read_text().splitlines()) == 20

    def test_validate_report_ends_with_newline(self, tmp_path, monkeypatch):
        report = {"passed": True, "checks": [
            {"name": "stub", "passed": True, "value": 0.5, "threshold": 0.01, "kind": "pvalue"}
        ]}
        monkeypatch.setattr(tvdpm.cli, "run_validation_suite", lambda seed, quick: report)
        path = tmp_path / "report.json"
        code, _, _ = run_cli(["validate", "--quick", "--out", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.endswith("}\n") and json.loads(text) == report

    def test_gen_data_topic(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        vocab = tmp_path / "vocab.txt"
        code, _, _ = run_cli(
            [
                "gen-data", "--preset", "topic-synthetic", "--seed", "5",
                "--out", str(data), "--vocab-out", str(vocab),
            ]
        )
        assert code == 0
        assert len(vocab.read_text().splitlines()) == 20

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    @pytest.mark.parametrize("kind", ["directory", "through-file"])
    def test_bad_path_exits_2(self, tmp_path, flag, kind):
        # a path the system refuses is a usage error, as a missing one is
        (tmp_path / "file").write_text("")
        bad = str(tmp_path) if kind == "directory" else str(tmp_path / "file" / "x.json")
        args = {
            "--out": ["simulate", "--theta", "1.5", "--policy", POLICY, "--n", "3",
                      "--steps", "2", "--seed", "1", "--out", bad],
            "--config": ["smc", "--config", bad, "--out", str(tmp_path / "o.jsonl")],
        }[flag]
        proc = subprocess.run(
            [sys.executable, "-m", "tvdpm.cli", *args],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        error = "Is a directory" if kind == "directory" else "Not a directory"
        assert proc.stderr.startswith("error: ") and error in proc.stderr

    def test_simulate_deterministic(self, tmp_path):
        args = [
            "simulate", "--theta", "1.5", "--policy", '{"type":"uniform","rho":0.7}',
            "--n", "3", "--steps", "5", "--seed", "11",
        ]
        code, out1, _ = run_cli(args)
        assert code == 0
        _, out2, _ = run_cli(args)
        assert out1 == out2
        recs = [json.loads(line) for line in out1.splitlines()]
        assert [r["t"] for r in recs] == [1, 2, 3, 4, 5]

    def test_simulate_bad_policy_is_usage_error(self):
        code, _, err = run_cli(
            ["simulate", "--theta", "1.0", "--policy", '{"type":"nope"}', "--n", "1",
             "--steps", "1", "--seed", "0"]
        )
        assert code == 2

    def test_simulate_rho_walk_is_usage_error(self):
        code, _, err = run_cli(
            ["simulate", "--theta", "1.0", "--policy", '{"type":"uniform","rho":"walk"}',
             "--n", "1", "--steps", "1", "--seed", "0"]
        )
        assert code == 2
        assert "smc only" in err

    def test_smc_unused_rho_walk_is_usage_error(self, tmp_path):
        # the filter stepped a walk that no deletion read
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}])
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        cfg["policy"] = {"type": "uniform", "rho": 0.9}
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(args)
        assert code == 2 and err.startswith("error: ") and "inference.rho_walk" in err
        assert not (tmp_path / "o.jsonl").exists()
        del cfg["inference"]["rho_walk"]
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(args)[0] == 0

    def _checkpoint_config(self, tmp_path, every, path):
        """The topic mcmc config at 3 sweeps, with `checkpoint_every` and
        `output.checkpoint_path` each set only when not None."""
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [1, 1]}])
        cfg_path = tmp_path / "m.json"
        cfg = json.loads(cfg_path.read_text())
        cfg["inference"]["sweeps"] = 3
        if every is not None:
            cfg["inference"]["checkpoint_every"] = every
        if path is not None:
            cfg["output"] = {"checkpoint_path": str(tmp_path / path)}
        cfg_path.write_text(json.dumps(cfg))
        return args

    def test_mcmc_checkpoint_every_needs_a_path(self, tmp_path):
        # it ran every sweep and wrote no checkpoint
        code, _, err = run_cli(self._checkpoint_config(tmp_path, 1, None))
        assert code == 2 and err.startswith("error: ") and "output.checkpoint_path" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("every", [None, 0], ids=["absent", "zero"])
    def test_mcmc_checkpoint_path_needs_a_period(self, tmp_path, every):
        # it ran every sweep and wrote no checkpoint
        code, _, err = run_cli(self._checkpoint_config(tmp_path, every, "ck"))
        assert code == 2 and err.startswith("error: ") and "inference.checkpoint_every" in err
        assert not (tmp_path / "o.jsonl").exists()
        assert not list(tmp_path.glob("ck*"))

    def test_mcmc_checkpoint_period_past_the_last_sweep_runs(self, tmp_path):
        # perfbench's mcmc-topic workload checkpoints every 500 of 200 sweeps
        assert run_cli(self._checkpoint_config(tmp_path, 4, "ck"))[0] == 0
        assert len((tmp_path / "o.jsonl").read_text().splitlines()) == 3
        assert not list(tmp_path.glob("ck*"))

    def test_smc_checkpoint_path_is_usage_error(self, tmp_path):
        # the filter took the key and wrote no checkpoint
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}])
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        cfg["output"] = {"checkpoint_path": str(tmp_path / "ck")}
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(args)
        assert code == 2 and err.startswith("error: ") and "output.checkpoint_path" in err
        assert not (tmp_path / "o.jsonl").exists()

    def _smc_topic_config(self, tmp_path):
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [1, 1]}])
        cfg_path = tmp_path / "m.json"
        cfg = json.loads(cfg_path.read_text())
        cfg["inference"] = {"method": "smc", "n_particles": 5}
        cfg_path.write_text(json.dumps(cfg))
        return ["smc"] + args[1:], cfg_path, cfg

    def test_smc_topic_runs_default_proposal(self, tmp_path):
        args, cfg_path, cfg = self._smc_topic_config(tmp_path)
        assert run_cli(args)[0] == 0
        assert len((tmp_path / "o.jsonl").read_text().splitlines()) == 2
        # a density grid needs a Gaussian model: rejected before any step
        (tmp_path / "o.jsonl").unlink()
        cfg["inference"]["grid"] = {"lo": 0.0, "hi": 1.0, "points": 5}
        cfg_path.write_text(json.dumps(cfg))
        got, _, err = run_cli(args)
        assert got == 2 and err.startswith("error: ") and "inference.grid" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("proposal", ["conjugate", "prior"])
    def test_smc_rejects_proposal_key(self, tmp_path, proposal):
        # the filter has one proposal: the key is gone from the schema
        args, cfg_path, cfg = self._smc_topic_config(tmp_path)
        cfg["inference"]["proposal"] = proposal
        cfg_path.write_text(json.dumps(cfg))
        got, _, err = run_cli(args)
        assert got == 2
        assert err.startswith("error: config rejected: ") and "'proposal' was unexpected" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "inference,named",
        [
            # the mode builds the kernel: ar1 without one takes phi = 0.9
            ({"mode": "ar1"}, None),
            # the kernel has no type field any more
            ({"mode": "ar1", "kernel": {"type": "static"}}, "'type' was unexpected) (at inference.kernel)"),
            ({"mode": "ar1", "kernel": {"type": "ar1", "phi": 0.5}}, "'type' was unexpected) (at inference.kernel)"),
            ({"kernel": {"phi": 0.5}}, 'inference.kernel is for "mode": "ar1" only, not "mode": "collapsed"'),
            ({"mode": "static", "kernel": {"phi": 0.5}}, 'inference.kernel is for "mode": "ar1" only, not "mode": "static"'),
            ({"rho": 0.9}, "policy.rho (0.4) and inference.rho (0.9) disagree"),
            ({"mode": "ar1", "kernel": {"phi": 0.5}}, None),
            ({"mode": "static"}, None),
        ],
        ids=["ar1-no-kernel", "ar1-static-kernel", "ar1-type-field", "collapsed-ar1-kernel", "static-ar1-kernel",
             "rho-mismatch", "ar1-ok", "static-ok"],
    )
    def test_mcmc_inconsistent_config_is_usage_error(self, tmp_path, inference, named):
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"t": t, "values": [0.3 * t, -0.5]}) + "\n" for t in (1, 2, 3)
        ))
        cfg = {
            "seed": 3,
            "theta": 1.0,
            "model": {"type": "gaussian_known_var", "mu0": 0.0, "sigma0": 1.0, "obs_sigma": 0.5},
            "policy": {"type": "uniform", "rho": 0.4},
            "inference": {"method": "mcmc", "rho": 0.4, "sweeps": 2, **inference},
            "data": {"path": str(data)},
        }
        cfg_path = tmp_path / "m.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o.jsonl"
        code, _, err = run_cli(["mcmc", "--config", str(cfg_path), "--out", str(out)])
        if named is None:
            assert code == 0 and len(out.read_text().splitlines()) == 2
        else:
            assert code == 2 and err.startswith("error: ") and named in err
            assert not out.exists()

    def test_mcmc_ar1_needs_known_variance_model(self, tmp_path):
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}, {"t": 2, "values": [0.3]}], "mcmc")
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        assert cfg["model"]["type"] == "gaussian_nig"
        cfg["inference"]["mode"] = "ar1"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(args)
        assert code == 2 and err.startswith("error: ")
        assert '"mode": "ar1" needs the known-variance Gaussian model' in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_mcmc_rejects_smc_config(self, tmp_path):
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}])
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        cfg["policy"] = {"type": "uniform", "rho": 0.4}
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(["mcmc"] + args[1:])
        assert code == 2 and err.startswith("error: ") and "inference.method must be 'mcmc'" in err

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tvdpm.cli", "frobnicate"], capture_output=True
        )
        assert proc.returncode == 2

    def test_cli_import_leaves_out_scipy_stats(self):
        # no command needs scipy (the KS p-value of the stationarity check
        # is computed in the package), and jsonschema is loaded only where
        # a config or a --policy is read
        out = fresh_python(
            "import sys, tvdpm.cli\n"
            "print([m for m in ('scipy.stats', 'scipy.special', 'jsonschema') if m in sys.modules])"
        )
        assert out == "[]"

    def test_stationarity_check_runs_without_scipy(self):
        # sys.modules["scipy"] = None makes any scipy import fail
        out = fresh_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from tvdpm.diagnostics import BrokenNoiseKernel, kernel_stationarity_test\n"
            "from tvdpm.kernels import GaussianAR1, GaussianKnownVar\n"
            "base = GaussianKnownVar(0.0, 1.0)\n"
            "rng = np.random.default_rng(5)\n"
            "for kernel in (GaussianAR1(0.9, base), BrokenNoiseKernel(0.9, base)):\n"
            "    print(kernel_stationarity_test(kernel, base, 20, 2_000, rng).pvalue > 0.01)"
        )
        assert out.split() == ["True", "False"]

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["smc", "mcmc"])
    def test_inference_runs_without_scipy(self, tmp_path, reader):
        key = "values" if reader is write_stream else "words"
        args = reader(tmp_path, [{"t": 1, key: [1, 2]}, {"t": 2, key: [0, 3]}])
        out = fresh_python(
            "import sys\n"
            "from tvdpm.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert out == "[]"
        assert (tmp_path / "o.jsonl").read_text()

    def test_smc_run_and_determinism(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(["gen-data", "--preset", "paper-4.1-scaled", "--seed", "3", "--out", str(data)])
        # keep only the first 15 steps for speed
        lines = data.read_text().splitlines()[:15]
        data.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.json"
        cfg = json.loads(json.dumps(GOOD_CONFIG))
        cfg["data"] = {"path": str(data)}
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / "o1.jsonl"
        out2 = tmp_path / "o2.jsonl"
        code, _, _ = run_cli(["smc", "--config", str(cfg_path), "--seed", "7", "--out", str(out1)])
        assert code == 0
        run_cli(["smc", "--config", str(cfg_path), "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        rec = json.loads(out1.read_text().splitlines()[-1])
        assert set(rec) >= {"t", "ess", "n_alive", "rho_post", "density"}
        assert len(rec["density"]["grid"]) == 50

    def test_mcmc_run_with_checkpoints(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        vocab = tmp_path / "vocab.txt"
        run_cli(
            ["gen-data", "--preset", "topic-synthetic", "--seed", "5",
             "--out", str(data), "--vocab-out", str(vocab)]
        )
        cfg = {
            "seed": 3,
            "theta": 0.5,
            "model": {"type": "topic", "theta_v": 0.5, "vocab_size": 20},
            "policy": {"type": "uniform", "rho": 0.4},
            "inference": {
                "method": "mcmc",
                "rho": 0.4,
                "sweeps": 10,
                "mode": "collapsed",
                "checkpoint_every": 5,
            },
            "data": {"path": str(data), "vocab_path": str(vocab)},
            "output": {"checkpoint_path": str(tmp_path / "ck")},
        }
        cfg_path = tmp_path / "m.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweeps.jsonl"
        code, _, _ = run_cli(["mcmc", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 10
        assert set(recs[0]) == {"sweep", "K_alive_per_t", "loglik"}
        assert len(recs[0]["K_alive_per_t"]) == 10
        ck = json.loads((tmp_path / "ck.sweep5.json").read_text())
        assert set(ck) >= {"c", "d", "sweep", "rng_state", "T", "n"}

    def test_correlation_csv(self, tmp_path):
        out = tmp_path / "corr.csv"
        code, _, _ = run_cli(
            ["correlation", "--theta", "3.0", "--rho", "0.9", "--rho", "0.0",
             "--taus", "0,1", "--n-mc", "400", "--burn-in", "20", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,correlation,rho,theta"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["gen-data", "--preset", "paper-4.1", "--seed", "-1"], "--seed"),
            (["simulate", "--theta", "1", "--policy", POLICY, "--n", "1", "--steps", "1", "--seed", "-1"], "--seed"),
            (["validate", "--quick", "--seed", "-1"], "--seed"),
            (["smc", "--seed", "-1"], "--seed"),
            (["mcmc", "--seed", "-1"], "--seed"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "5", "--seed", "-1"], "--seed"),
            (["simulate", "--theta", "-1", "--policy", POLICY, "--n", "1", "--steps", "1", "--seed", "0"], "--theta"),
            (["simulate", "--theta", "1", "--policy", POLICY, "--n", "0", "--steps", "1", "--seed", "0"], "--n"),
            (["correlation", "--theta", "0", "--rho", "0.5", "--n-mc", "5", "--seed", "2"], "--theta"),
            (["correlation", "--theta", "1", "--rho", "1.5", "--n-mc", "5", "--seed", "2"], "--rho"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "0", "--seed", "2"], "--n-mc"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "1", "--seed", "2"], "--n-mc"),
            (["correlation", "--theta", "3", "--rho", "0.5", "--kernel-phi", "1.5", "--n-mc", "50",
              "--burn-in", "5", "--seed", "2"], "--kernel-phi"),
            (["simulate", "--theta", "1", "--policy", POLICY, "--n", "1", "--steps", "-3", "--seed", "0"], "--steps"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "5", "--burn-in", "-5",
              "--seed", "2"], "--burn-in"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "5", "--burn-in", "0",
              "--seed", "2"], "--burn-in"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "5", "--taus=-1,2",
              "--seed", "2"], "--taus"),
            (["correlation", "--theta", "1", "--rho", "0.5", "--n-mc", "5", "--taus", "a,b",
              "--seed", "2"], "--taus"),
        ],
        ids=["gen-data-seed", "simulate-seed", "validate-seed", "smc-seed", "mcmc-seed",
             "correlation-seed", "simulate-theta", "simulate-n", "correlation-theta",
             "correlation-rho", "correlation-n-mc", "correlation-n-mc-one", "correlation-kernel-phi",
             "simulate-steps", "correlation-burn-in", "correlation-burn-in-zero", "correlation-taus-negative",
             "correlation-taus-not-integers"],
    )
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, args, flag):
        # a valid config, so only the flag can be at fault
        if args[0] == "smc":
            args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}]) + args[1:]
        elif args[0] == "mcmc":
            args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}]) + args[1:]
        code, out, err = run_cli(args + ["--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert f"error: argument {flag}: must be" in err
        assert out == "" and not (tmp_path / "o.txt").exists()

    def test_validate_quick_exit_zero(self, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(["validate", "--quick", "--seed", "3", "--out", str(report)])
        assert code == 0
        assert "OK" in out
        data = json.loads(report.read_text())
        assert data["passed"] is True


class TestBadData:
    """Bad observation data is a usage error (exit 2) naming what is wrong."""

    def test_non_finite_value(self, tmp_path):
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}, {"t": 2, "values": [float("nan")]}])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and "t=2" in err

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["stream", "corpus"])
    @pytest.mark.parametrize(
        "times,named", [((1, 1, 7), "t=1"), ((1, 2, 7), "t=7")], ids=["duplicate", "skipped"]
    )
    def test_times_distinct_and_consecutive(self, tmp_path, reader, times, named):
        key = "values" if reader is write_stream else "words"
        args = reader(tmp_path, [{"t": t, key: [1]} for t in times])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["stream", "corpus"])
    def test_empty_file(self, tmp_path, reader):
        code, _, err = run_cli(reader(tmp_path, []))
        assert code == 2
        assert err.startswith("error: ") and "no records" in err

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["stream", "corpus"])
    def test_empty_batch(self, tmp_path, reader):
        key = "values" if reader is write_stream else "words"
        code, _, err = run_cli(reader(tmp_path, [{"t": 1, key: [1]}, {"t": 2, key: []}]))
        assert code == 2
        assert err.startswith("error: ") and "t=2" in err

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["stream", "corpus"])
    @pytest.mark.parametrize("t", ["x", 1.5, True, None], ids=["text", "float", "bool", "missing"])
    def test_time_not_an_integer(self, tmp_path, reader, t):
        key = "values" if reader is write_stream else "words"
        record = {key: [1]} if t is None else {"t": t, key: [1]}
        code, _, err = run_cli(reader(tmp_path, [record]))
        assert code == 2
        assert err.startswith("error: t must be an integer") and f"t={t!r}" in err

    @pytest.mark.parametrize("reader", [write_stream, write_corpus], ids=["stream", "corpus"])
    def test_batch_missing(self, tmp_path, reader):
        key = "values" if reader is write_stream else "words"
        code, _, err = run_cli(reader(tmp_path, [{"t": 1, key: [1]}, {"t": 2}]))
        assert code == 2
        assert err.startswith("error: ") and f'no "{key}" list' in err and "t=2" in err

    @pytest.mark.parametrize("value", ["a", True, None, [0.5]], ids=["text", "bool", "null", "list"])
    def test_value_not_a_number(self, tmp_path, value):
        # true was read as 1.0 and a string failed with a traceback
        args = write_stream(tmp_path, [{"t": 1, "values": [0.1]}, {"t": 2, "values": [0.2, value]}])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and "not a finite number" in err and "t=2" in err

    @pytest.mark.parametrize("command", ["smc", "mcmc"])
    @pytest.mark.parametrize(
        "value", [1e160, 10**400, 10**155], ids=["float-square", "int-past-float", "int-square"]
    )
    def test_value_or_its_square_overflows(self, tmp_path, command, value):
        # each ended in an OverflowError traceback: the posterior's squared
        # deviation, float conversion in the reader, the statistics' z * z
        code, _, err = run_cli(write_stream(tmp_path, [{"t": 1, "values": [value]}], command))
        assert code == 2
        assert err.startswith("error: ") and "not a finite number" in err and "t=1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["smc", "mcmc"])
    def test_sum_of_squares_overflows(self, tmp_path, command):
        # each square is finite but their sum is not: mcmc wrote a NaN and
        # then -Infinity loglik, smc a NaN density
        records = [{"t": 1, "values": [0.5]}, {"t": 2, "values": [1e154, 1e154]}]
        code, _, err = run_cli(write_stream(tmp_path, records, command))
        assert code == 2
        assert err.startswith("error: ") and "sum of the squared values" in err and "t=2" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("command", ["smc", "mcmc"])
    @pytest.mark.parametrize("values", [[1.3e154], [9e153, 1e153]], ids=["one", "two"])
    def test_sum_of_squares_near_the_limit_runs(self, tmp_path, command, values):
        code, _, err = run_cli(write_stream(tmp_path, [{"t": 1, "values": values}], command))
        assert code == 0, err
        text = (tmp_path / "o.jsonl").read_text()
        assert "NaN" not in text and "Infinity" not in text

    def test_near_limit_value_writes_nothing_to_stderr(self, tmp_path):
        # the density's Gaussian kernels overflowed to their IEEE limit, and
        # NumPy reported it as two RuntimeWarnings on stderr
        data = tmp_path / "big.jsonl"
        data.write_text(json.dumps({"t": 1, "values": [1.3e154]}) + "\n")
        cfg = json.loads((pathlib.Path(__file__).parents[1] / "examples_config" / "smc_density.json").read_text())
        cfg["inference"]["n_particles"] = 20
        cfg["data"] = {"path": str(data)}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "tvdpm.cli", "smc", "--config", str(cfg_path), "--out", str(tmp_path / "o.jsonl")],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        # json writes a non-finite float as NaN, Infinity or -Infinity
        text = (tmp_path / "o.jsonl").read_text()
        assert '"density"' in text and "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("word", [1.5, True, "1"], ids=["float", "bool", "text"])
    def test_word_id_not_an_integer(self, tmp_path, word):
        # 1.5 and true were read as word 1
        args = write_corpus(tmp_path, [{"t": 1, "words": [0]}, {"t": 2, "words": [word, 2]}])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and f"[{word!r}]" in err and "t=2" in err

    @pytest.mark.parametrize("command", ["smc", "mcmc"])
    @pytest.mark.parametrize(
        "vocab_size,named",
        [(2, "has 4 words but model.vocab_size is 2"), (6, "has 4 words but model.vocab_size is 6"),
         (None, "a topic model needs data.vocab_path")],
        ids=["vocab-size-small", "vocab-size-large", "no-vocab-path"],
    )
    def test_topic_vocabulary_checked(self, tmp_path, command, vocab_size, named):
        # too small a vocab_size ended mcmc in an IndexError, too large ran
        # with a prior over words that do not exist; no vocab_path was a KeyError
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 1]}, {"t": 2, "words": [1, 1]}])
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        if vocab_size is None:
            del cfg["data"]["vocab_path"]
        else:
            cfg["model"]["vocab_size"] = vocab_size
        if command == "smc":
            cfg["inference"] = {"method": "smc", "n_particles": 5}
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli([command] + args[1:])
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_burn_in_key_rejected(self, tmp_path):
        # no sampler ever applied inference.burn_in: the key is gone from the schema
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 1]}])
        cfg_path = pathlib.Path(args[2])
        cfg = json.loads(cfg_path.read_text())
        cfg["inference"]["burn_in"] = 0
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: config rejected: ") and "'burn_in' was unexpected" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_word_ids_outside_vocabulary(self, tmp_path):
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [9, 4]}])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and "[9, 4]" in err and "t=2" in err


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/`name` in a fresh interpreter that imports this
    checkout's tvdpm."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def shipped_with_sliding_window(tmp_path, name):
    """The shipped config `name` with a policy no schema accepts."""
    cfg = json.loads((ROOT / "examples_config" / name).read_text())
    cfg["policy"] = {"type": "sliding_window", "window": 20}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def assert_exits_2(proc, script, flag):
    """Exit 2 and no traceback; a config error is one `error: ...` line, a
    bad flag argparse's usage error naming the flag."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    if flag is None:
        assert proc.stderr.startswith("error: config rejected: ")
    else:
        assert proc.stderr.splitlines()[-1].startswith(f"{script}: error: argument {flag}: must be")


class TestTopicDriver:
    """scripts/run_topic_experiment.py builds its sampler from an mcmc config."""

    def run_driver(self, *args):
        return run_script("run_topic_experiment.py", *args)

    def test_three_sweeps_from_shipped_config(self, tmp_path):
        proc = self.run_driver("--sweeps", "3", "--seed", "5", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "topic_sweeps.csv").read_text().splitlines()
        assert rows[0] == "sweep,alive_topics_median_t,loglik"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]
        assert "recovered topics" in proc.stdout and "topic " in proc.stdout

    def test_rejects_non_topic_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        proc = self.run_driver("--config", str(cfg), "--sweeps", "1", "--out-dir", str(tmp_path))
        assert proc.returncode == 2 and "topic model" in proc.stderr

    @pytest.mark.parametrize(
        "args,flag",
        [([], None), (["--seed", "-1"], "--seed"), (["--sweeps", "-3"], "--sweeps"), (["--sweeps", "0"], "--sweeps")],
        ids=["config", "seed-negative", "sweeps-negative", "sweeps-zero"],
    )
    def test_bad_input_exits_2(self, tmp_path, args, flag):
        cfg = shipped_with_sliding_window(tmp_path, "mcmc_topics.json")
        proc = self.run_driver("--config", cfg, "--sweeps", "1", *args, "--out-dir", tmp_path)
        assert_exits_2(proc, "run_topic_experiment.py", flag)
        assert not (tmp_path / "topic_sweeps.csv").exists()


class TestDensityDriver:
    """scripts/run_density_experiment.py filters a preset stream with an smc config."""

    @pytest.mark.parametrize("walk", [True, False], ids=["rho-walk", "no-walk"])
    def test_shipped_config_with_few_particles(self, tmp_path, walk):
        cfg = json.loads((ROOT / "examples_config" / "smc_density.json").read_text())
        cfg["inference"]["n_particles"] = 20
        if not walk:
            cfg["policy"] = {"type": "uniform", "rho": 0.9}
            del cfg["inference"]["rho_walk"]
        cfg_path = tmp_path / "smc.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_script("run_density_experiment.py", "--config", cfg_path, "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        curve = (tmp_path / "alive_mass_paper-4.1-scaled.csv").read_text().splitlines()
        assert curve[0] == "t,N_alive,rho_post,ess,l1_to_truth"
        assert [row.split(",")[0] for row in curve[1:]] == [str(t) for t in range(1, 301)]
        assert all((row.split(",")[2] != "") == walk for row in curve[1:])
        snaps = (tmp_path / "density_snapshots_paper-4.1-scaled.csv").read_text().splitlines()
        assert snaps[0] == "t,x,f_true,f_est"
        points = cfg["inference"]["grid"]["points"]
        assert len(snaps) == 1 + 6 * points  # t = 50, 100, ..., 300

    @pytest.mark.parametrize(
        "args,flag",
        [
            ([], None),
            (["--snapshot-every", "0"], "--snapshot-every"),
            (["--snapshot-every", "-50"], "--snapshot-every"),
            (["--seed", "-1"], "--seed"),
            (["--data-seed", "-1"], "--data-seed"),
        ],
        ids=["config", "snapshot-zero", "snapshot-negative", "seed-negative", "data-seed-negative"],
    )
    def test_bad_input_exits_2(self, tmp_path, args, flag):
        cfg = shipped_with_sliding_window(tmp_path, "smc_density.json")
        proc = run_script("run_density_experiment.py", "--config", cfg, *args, "--out-dir", tmp_path)
        assert_exits_2(proc, "run_density_experiment.py", flag)
        assert not (tmp_path / "alive_mass_paper-4.1-scaled.csv").exists()
