"""End-to-end command-line runs: golden output schemas, reference values,
determinism, and exit codes."""

import argparse
import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from optliq import BacktestConfig, ModelParams, load_tape, run_backtest
from optliq.cli import backtest_config, build_parser
from optliq.market_data import synthetic_tape
from tests.conftest import REFERENCE_QUOTES_T0, TABLE_TOL, two_bucket_episode


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "optliq", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "reference.cfg"
    path.write_text(ModelParams().to_config_text()
                    + "\n[sim]\nq0 = 6\ndt = 0.5\npaths = 50\nseed = 7\n")
    return path


@pytest.fixture(scope="module")
def tape_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tape") / "synth.csv"
    synthetic_tape(2400.0, sigma=0.05, big_a=0.4, k=0.4, mid0=100.0,
                   drift=0.05, seed=42).write_csv(path)
    return path


class TestQuotePipeline:
    def test_solve_writes_w_grid(self, config_path, tmp_path):
        out = tmp_path / "w.csv"
        res = run_cli("solve", "--config", str(config_path), "--out", str(out),
                      "--steps", "2000")
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q", "value"]
        first = rows[1]
        assert float(first[0]) == 0.0 and first[1] == "0"
        assert float(first[2]) == 1.0

    def test_solve_json_is_compact(self, config_path, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli("solve", "--config", str(config_path), "--out", str(out),
                      "--steps", "10", "--format", "json")
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        data = json.loads(text)
        # what print() would write: --out is required for solve
        assert text == json.dumps(data) + "\n"
        assert set(data) == {"params", "times", "w"}
        assert data["params"]["A"] == ModelParams().big_a
        assert data["w"][10][0] == 1.0

    def test_quotes_reproduce_reference_values(self, config_path, tmp_path):
        out = tmp_path / "quotes.json"
        res = run_cli("quotes", "--config", str(config_path), "--out",
                      str(out), "--format", "json")
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        first_row = np.array(data["quotes"][0])
        assert np.allclose(first_row, REFERENCE_QUOTES_T0, atol=TABLE_TOL)

    def test_sweep_golden_header_and_values(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--config", str(config_path),
                      "--sweep", "mu=-0.01,0,0.01", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["q", "mu=-0.01", "mu=0", "mu=0.01"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5", "6"]
        middle_col = np.array([float(r[2]) for r in rows[1:]])
        assert np.allclose(middle_col, REFERENCE_QUOTES_T0, atol=TABLE_TOL)

    def test_set_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "quotes.json"
        res = run_cli("quotes", "--config", str(config_path), "--set",
                      "T=60", "--out", str(out), "--format", "json")
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        assert data["params"]["T"] == 60.0

    def test_terminal_beyond_exponents_is_parameter_error(self, config_path, tmp_path):
        res = run_cli("quotes", "--config", str(config_path), "--set", "k=1e150",
                      "--out", str(tmp_path / "q.csv"))
        assert res.returncode == 3, res.stderr
        assert "k * b * q_max = 1.8e+151 is above 2.9e+06" in res.stderr
        assert not (tmp_path / "q.csv").exists()

    def test_config_dir_env_fallback(self, config_path, tmp_path):
        import os
        env = dict(os.environ, OPTLIQ_CONFIG_DIR=str(config_path.parent))
        out = tmp_path / "w.csv"
        res = run_cli("solve", "--config", config_path.name, "--out",
                      str(out), "--steps", "200", env=env)
        assert res.returncode == 0, res.stderr
        assert out.exists()


class TestClosedFormCommand:
    def test_asymptotic_to_stdout(self, config_path, tmp_path):
        args = ("closed-form", "--config", str(config_path), "--which", "asymptotic",
                "--q", "1")
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)
        assert data["values"]["1"] == pytest.approx(16.1469, abs=1e-3)
        # indented with sorted keys; --out holds the same text
        assert res.stdout == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert run_cli(*args, "--out", str(tmp_path / "cf.json")).returncode == 0
        assert (tmp_path / "cf.json").read_text() == res.stdout

    def test_regime_error_exit_code(self, config_path):
        res = run_cli("closed-form", "--config", str(config_path),
                      "--set", "mu=1.0", "--which", "asymptotic", "--q", "1")
        assert res.returncode == 3
        assert "error" in res.stderr


class TestSimulateCommand:
    def test_single_path_runs_are_identical(self, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            res = run_cli("simulate", "--config", str(config_path),
                          "--paths", "1", "--seed", "7", "--dt", "0.5",
                          "--out", str(outdir), "--events", "--steps", "2000")
            assert res.returncode == 0, res.stderr
            outs.append(outdir)
        for fname in ("curve.csv", "stats.json", "events.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_ensemble_outputs(self, config_path, tmp_path):
        outdir = tmp_path / "ens"
        res = run_cli("simulate", "--config", str(config_path), "--out",
                      str(outdir), "--steps", "2000")
        assert res.returncode == 0, res.stderr
        header = (outdir / "curve.csv").read_text().splitlines()[0]
        assert header == "t,mean_q,stderr"
        stats = json.loads((outdir / "stats.json").read_text())
        assert stats["n_paths"] == 50 and stats["seed"] == 7

    def test_events_needs_single_path(self, config_path, tmp_path):
        res = run_cli("simulate", "--config", str(config_path), "--paths",
                      "2", "--events", "--out", str(tmp_path / "x"),
                      "--steps", "500")
        assert res.returncode == 2
        # refused before the ensemble runs: nothing is written
        assert not (tmp_path / "x").exists()

    def test_minus_inf_fixed_quote_is_parameter_error(self, config_path, tmp_path):
        res = run_cli("simulate", "--config", str(config_path),
                      "--policy", "fixed:-inf", "--out", str(tmp_path / "x"))
        assert res.returncode == 3, res.stderr
        assert "FixedQuote premium must not be NaN or -inf" in res.stderr
        assert not (tmp_path / "x").exists()

    def test_set_without_config(self, tmp_path):
        outdir = tmp_path / "s"
        res = run_cli("simulate", "--set", "sim.paths=3", "--set", "sim.dt=1",
                      "--out", str(outdir), "--steps", "200")
        assert res.returncode == 0, res.stderr
        assert json.loads((outdir / "stats.json").read_text())["n_paths"] == 3
        assert len((outdir / "curve.csv").read_text().splitlines()) == 302


class TestCalibrateCommand:
    def test_json_output(self, tape_path, tmp_path):
        out = tmp_path / "calib.json"
        res = run_cli("calibrate", "--tape", str(tape_path), "--out", str(out),
                      "--gamma-target", "1.0")
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        data = json.loads(text)
        # indented with sorted keys; the file holds what the command prints
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        printed = run_cli("calibrate", "--tape", str(tape_path), "--gamma-target", "1.0")
        assert printed.returncode == 0, printed.stderr
        assert printed.stdout == text
        assert set(data) == {"sigma_hat", "gamma_hat", "buckets", "dropped"}
        assert data["sigma_hat"] > 0
        assert data["buckets"]
        assert all(set(bucket) == {"A_hat", "k_hat", "n_obs"}
                   for bucket in data["buckets"].values())

    def test_missing_tape_is_data_error(self, tmp_path):
        res = run_cli("calibrate", "--tape", str(tmp_path / "nope.csv"))
        assert res.returncode == 4

    def test_nan_window_is_parameter_error(self, tape_path):
        res = run_cli("calibrate", "--tape", str(tape_path), "--window", "nan")
        assert res.returncode == 3, res.stderr
        assert "window must be > 0, got nan" in res.stderr

    @pytest.mark.parametrize("spec", ["0.5:5:0", "0.5:5:-0.5", "5:0.5:0.5",
                                      "0.5:inf:0.5", "nan:5:0.5", "0.5:5",
                                      "a:b:c"])
    def test_bad_offsets_are_usage_errors(self, tape_path, spec):
        res = run_cli("calibrate", "--tape", str(tape_path), f"--offsets={spec}")
        assert res.returncode == 2, res.stderr
        assert "--offsets" in res.stderr and "Traceback" not in res.stderr


class TestBacktestCommand:
    def test_ledger_outputs_and_conservation(self, tape_path, tmp_path):
        outdir = tmp_path / "bt"
        res = run_cli("backtest", "--tape", str(tape_path), "--out",
                      str(outdir), "--q0", "3", "--warmup", "600",
                      "--recalib-window", "600", "--gamma-mode", "fixed",
                      "--gamma-value", "0.05", "--n-min", "30")
        assert res.returncode == 0, res.stderr
        fills = (outdir / "fills.csv").read_text().splitlines()
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(fills) - 1 == summary["fill_count"]
        assert summary["fill_count"] + summary["q_end"] == 3
        assert (outdir / "orders.csv").exists()
        assert (outdir / "series.csv").exists()

    def test_set_backtest_key_without_config(self, tape_path, tmp_path):
        outdir = tmp_path / "bt"
        res = run_cli("backtest", "--tape", str(tape_path), "--out",
                      str(outdir), "--set", "backtest.q0=1", "--warmup", "600",
                      "--recalib-window", "600", "--gamma-mode", "fixed",
                      "--gamma-value", "0.05", "--n-min", "30")
        assert res.returncode == 0, res.stderr
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["fill_count"] + summary["q_end"] == 1

    def test_nan_warmup_refused_before_any_output(self, tape_path, tmp_path):
        outdir = tmp_path / "bt"
        res = run_cli("backtest", "--tape", str(tape_path), "--out", str(outdir),
                      "--warmup", "nan")
        assert res.returncode == 3 and "warmup must be finite" in res.stderr
        assert not outdir.exists()

    def test_negative_seed_refused_by_name(self, tape_path, tmp_path):
        res = run_cli("backtest", "--tape", str(tape_path), "--out", str(tmp_path / "bt"),
                      "--seed", "-1")
        assert res.returncode == 3, res.stderr
        assert "seed must be >= 0, got -1" in res.stderr and "Traceback" not in res.stderr

    def test_bid_reference_matches_library(self, tmp_path):
        tape, cfg = two_bucket_episode()
        path = tmp_path / "tape.csv"
        tape.write_csv(path)
        res = run_cli("backtest", "--tape", str(path), "--out", str(tmp_path / "cli"),
                      "--reference", "bid", "--q0", "10", "--delta-t", "5",
                      "--warmup", "1800", "--horizon", "1800",
                      "--recalib-window", "1800", "--gamma-mode", "quote_target",
                      "--gamma-value", "1")
        assert res.returncode == 0, res.stderr
        ledger = run_backtest(load_tape(path), dataclasses.replace(cfg, reference="bid"))
        ledger.write_csvs(tmp_path / "lib")
        assert ledger.orders
        assert ((tmp_path / "cli" / "orders.csv").read_bytes()
                == (tmp_path / "lib" / "orders.csv").read_bytes())

    def test_bad_tape_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("ts,price,size,bid,ask\n1.0,100.0,10,101.0,100.0\n")
        res = run_cli("backtest", "--tape", str(bad), "--out",
                      str(tmp_path / "o"))
        assert res.returncode == 4


def parsed_backtest_config(tmp_path, *argv, config_text=None):
    head = ["backtest", "--tape", "t.csv", "--out", str(tmp_path / "o")]
    if config_text is not None:
        path = tmp_path / "bt.cfg"
        path.write_text(config_text)
        head += ["--config", str(path)]
    return backtest_config(build_parser().parse_args(head + list(argv)))


class TestSettings:
    """[backtest] file keys, --set and flags reach one BacktestConfig,
    which owns the defaults."""

    def test_no_settings_gives_library_defaults(self, tmp_path):
        assert parsed_backtest_config(tmp_path) == BacktestConfig()
        assert parsed_backtest_config(tmp_path, config_text="mu = 0\n") == BacktestConfig()

    @pytest.mark.parametrize("key,flag,raw,field,value", [
        ("q0", "--q0", "5", "q0", 5),
        ("delta_t", "--delta-t", "12.5", "delta_t", 12.5),
        ("rounding", "--rounding", "randomized", "rounding", "randomized"),
        ("warmup", "--warmup", "600", "warmup", 600.0),
        ("fallback_threshold", "--fallback-threshold", "0.5",
         "market_order_threshold", 0.5),
        ("n_min", "--n-min", "30", "n_min", 30),
    ])
    def test_file_set_and_flag_agree(self, tmp_path, key, flag, raw, field, value):
        expected = BacktestConfig(**{field: value})
        from_file = parsed_backtest_config(
            tmp_path, config_text=f"[backtest]\n{key} = {raw}\n")
        from_set = parsed_backtest_config(tmp_path, "--set", f"backtest.{key}={raw}")
        from_flag = parsed_backtest_config(tmp_path, flag, raw)
        assert from_file == from_set == from_flag == expected

    def test_flag_beats_file_and_set(self, tmp_path):
        cfg = parsed_backtest_config(
            tmp_path, "--set", "backtest.delta_t=7", "--delta-t", "9",
            "--q0", "4", config_text="[backtest]\nq0 = 2\ndelta_t = 5\nseed = 3\n")
        assert cfg == BacktestConfig(q0=4, delta_t=9.0, seed=3)
        # --set beats the file
        cfg = parsed_backtest_config(tmp_path, "--set", "backtest.q0=6",
                                     config_text="[backtest]\nq0 = 2\n")
        assert cfg.q0 == 6

    @pytest.mark.parametrize("command,section,key", [
        ("backtest", "backtest", "delta_T"),
        ("backtest", "bt", "q0"),
        ("simulate", "sim", "pahts"),
        ("quotes", "simulate", "paths"),
    ])
    def test_unknown_section_or_key_is_usage_error(self, tape_path, tmp_path,
                                                    command, section, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = 5\n")
        out = ["--out", str(tmp_path / "o")]
        extra = ["--tape", str(tape_path)] if command == "backtest" else []
        for source in (["--config", str(cfg)], ["--set", f"{section}.{key}=5"]):
            res = run_cli(command, *source, *extra, *out)
            assert res.returncode == 2, res.stderr
            assert f"[{section}]" in res.stderr and repr(key) in res.stderr, res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,message", [
        ("rounding", "unknown rounding mode 'foo'"),
        ("gamma_mode", "unknown gamma_mode 'foo'"),
        ("reference", "reference must be 'mid' or 'bid', got 'foo'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "set", "file"])
    def test_library_refuses_bad_value_from_any_source(self, tape_path, tmp_path,
                                                        source, key, message):
        cfg = tmp_path / "bt.cfg"
        cfg.write_text(f"[backtest]\n{key} = foo\n")
        given = {"flag": ["--" + key.replace("_", "-"), "foo"],
                 "set": ["--set", f"backtest.{key}=foo"],
                 "file": ["--config", str(cfg)]}[source]
        out = tmp_path / "o"
        res = run_cli("backtest", "--tape", str(tape_path), "--out", str(out), *given)
        assert res.returncode == 3, res.stderr
        assert f"error: {message}" in res.stderr
        assert not out.exists()

    def test_bad_section_value_names_section(self, config_path, tmp_path):
        res = run_cli("simulate", "--config", str(config_path), "--set",
                      "sim.paths=abc", "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "bad [sim] value paths='abc'" in res.stderr


#: every subcommand's option strings, in the parser's order
OPTION_STRINGS = {
    "solve": ["-h", "--help", "--config", "--set", "--steps", "--out", "--format"],
    "quotes": ["-h", "--help", "--config", "--set", "--steps", "--out", "--format"],
    "sweep": ["-h", "--help", "--config", "--set", "--steps", "--sweep", "--out",
              "--format"],
    "closed-form": ["-h", "--help", "--config", "--set", "--which", "--q", "--t",
                    "--q0", "--points", "--out"],
    "simulate": ["-h", "--help", "--config", "--set", "--steps", "--out", "--q0",
                 "--dt", "--paths", "--seed", "--s0", "--policy", "--events"],
    "calibrate": ["-h", "--help", "--tape", "--tick-size", "--sampling-dt",
                  "--offsets", "--window", "--n-min", "--gamma-target", "--b",
                  "--horizon", "--out"],
    "backtest": ["-h", "--help", "--config", "--set", "--tape", "--tick-size",
                 "--out", "--q0", "--delta-t", "--rounding", "--seed",
                 "--recalib-window", "--warmup", "--gamma-mode", "--gamma-value",
                 "--fallback-threshold", "--b", "--horizon", "--reference",
                 "--sampling-dt", "--n-min"],
}


def test_option_strings_are_pinned():
    """Flags derived from the settings tables keep every name."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in sp._actions for s in a.option_strings]
            for name, sp in sub.choices.items()} == OPTION_STRINGS


class TestUsageErrors:
    def test_unknown_sweep_parameter(self, config_path, tmp_path):
        res = run_cli("sweep", "--config", str(config_path),
                      "--sweep", "q_max=1,2", "--out", str(tmp_path / "s.csv"))
        assert res.returncode == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = 0\nwhatever = 3\n")
        res = run_cli("solve", "--config", str(cfg),
                      "--out", str(tmp_path / "w.csv"))
        assert res.returncode == 2 and "'whatever'" in res.stderr

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = 0\n[sim\n")
        res = run_cli("solve", "--config", str(cfg),
                      "--out", str(tmp_path / "w.csv"))
        assert res.returncode == 2 and "malformed" in res.stderr

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2
