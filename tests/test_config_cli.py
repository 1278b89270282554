import json
import subprocess
import sys

import pytest

from tvdpm.cli import main
from tvdpm.config import ConfigError, build_policy, load_config, validate_config
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
        "proposal": "conjugate",
        "rho_walk": {"a_rho": 1000.0, "rho0": 0.9},
        "grid": {"lo": -8.0, "hi": 8.0, "points": 50},
    },
}


class TestConfig:
    def test_valid_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(GOOD_CONFIG))
        cfg = load_config(p)
        assert cfg.seed == 7 and cfg.method == "smc"

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

    def test_build_policy(self):
        pol = build_policy(GOOD_CONFIG["policy"])
        assert isinstance(pol, MixturePolicy)
        assert pol.policy_a == UniformDeletion(None)
        assert build_policy({"type": "sliding_window", "r": 3}) == SlidingWindow(3)
        assert build_policy({"type": "uniform", "rho": 0.4}) == UniformDeletion(0.4)


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

    @pytest.mark.parametrize("proposal,code", [(None, 2), ("conjugate", 2), ("prior", 0)])
    def test_smc_topic_needs_prior_proposal(self, tmp_path, proposal, code):
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [1, 1]}])
        cfg_path = tmp_path / "m.json"
        cfg = json.loads(cfg_path.read_text())
        cfg["inference"] = {"method": "smc", "n_particles": 5}
        if proposal:
            cfg["inference"]["proposal"] = proposal
        cfg_path.write_text(json.dumps(cfg))
        got, _, err = run_cli(["smc"] + args[1:])
        assert got == code
        if code:
            assert err.startswith("error: ") and '"proposal": "prior"' in err
        else:
            assert len((tmp_path / "o.jsonl").read_text().splitlines()) == 2
            # a density grid needs a Gaussian model: rejected before any step
            (tmp_path / "o.jsonl").unlink()
            cfg["inference"]["grid"] = {"lo": 0.0, "hi": 1.0, "points": 5}
            cfg_path.write_text(json.dumps(cfg))
            got, _, err = run_cli(["smc"] + args[1:])
            assert got == 2 and err.startswith("error: ") and "inference.grid" in err
            assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "inference,named",
        [
            ({"mode": "ar1"}, '"mode": "ar1" with the static kernel'),
            ({"mode": "ar1", "kernel": {"type": "static"}}, '"mode": "ar1" with the static kernel'),
            ({"kernel": {"type": "ar1"}}, '"mode": "collapsed" with the ar1 kernel'),
            ({"mode": "static", "kernel": {"type": "ar1"}}, '"mode": "static" with the ar1 kernel'),
            ({"rho": 0.9}, "policy.rho (0.4) and inference.rho (0.9) disagree"),
            ({"mode": "ar1", "kernel": {"type": "ar1", "phi": 0.5}}, None),
            ({"mode": "static"}, None),
        ],
        ids=["ar1-no-kernel", "ar1-static-kernel", "collapsed-ar1-kernel", "static-ar1-kernel",
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

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tvdpm.cli", "frobnicate"], capture_output=True
        )
        assert proc.returncode == 2

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
            (["correlation", "--theta", "3", "--rho", "0.5", "--kernel-phi", "1.5", "--n-mc", "50",
              "--burn-in", "5", "--seed", "2"], "--kernel-phi"),
        ],
        ids=["gen-data-seed", "simulate-seed", "validate-seed", "smc-seed", "mcmc-seed",
             "correlation-seed", "simulate-theta", "simulate-n", "correlation-theta",
             "correlation-rho", "correlation-n-mc", "correlation-kernel-phi"],
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


def write_stream(tmp_path, records):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["data"] = {"path": str(data)}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["smc", "--config", str(cfg_path), "--out", str(tmp_path / "o.jsonl")]


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

    def test_word_ids_outside_vocabulary(self, tmp_path):
        args = write_corpus(tmp_path, [{"t": 1, "words": [0, 3]}, {"t": 2, "words": [9, 4]}])
        code, _, err = run_cli(args)
        assert code == 2
        assert err.startswith("error: ") and "[9, 4]" in err and "t=2" in err
