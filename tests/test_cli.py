"""End-to-end CLI checks: exit codes, outputs, byte determinism and import cost."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskconvex
from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.cli import main
from riskconvex.control import train_policy
from riskconvex.csvio import read_gains_csv, write_gains_csv
from riskconvex.datasets import (Dataset, load_dataset, make_blobs, make_sine, save_dataset,
                                 sign_plus)
from riskconvex.noisynet import NoisyNetConfig, train_noisy_net
from riskconvex.sampling import GaussianSampler
from riskconvex.solver import FeasibleSet, SolverConfig
from riskconvex.synthesis import detmax_objective, synthesize


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def write_classification_csv(path, seed=0, m=40):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 2))
    y = sign_plus(X[:, 0] + 0.5 * rng.standard_normal(m))
    save_dataset(path, Dataset(X=X, y=y))
    return path


@pytest.fixture()
def sine_csv(tmp_path):
    ds = make_sine(40, GaussianSampler(1, dim=1), amplitude=0.5, frequency=2.0)
    path = tmp_path / "sine.csv"
    save_dataset(path, ds)
    return path


class TestExitCodes:
    def test_demo_success_is_zero(self, tmp_path):
        out = tmp_path / "demo.csv"
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("grid_points = 9\nsamples = 500\n")
        code = run_cli(["--seed", "3", "--out", str(out), "--config", str(cfg), "demo-1d"])
        assert code == 0 and out.exists()

    def test_zero_samples_flag_is_three(self, tmp_path):
        # Only an omitted --samples falls back to the config's count.
        out = tmp_path / "d.csv"
        code = run_cli(["--samples", "0", "--out", str(out), "demo-1d"])
        assert code == 3 and not out.exists()

    @pytest.mark.parametrize("command", [
        ["classify", "train", "data.csv"], ["classify", "eval", "data.csv", "model.csv"],
        ["classify", "corrupt", "data.csv"], ["nnet", "train", "sine.csv"],
        ["nnet", "eval", "sine.csv", "run"], ["control", "train"], ["control", "rollout"],
        ["synth", "solve"], ["synth", "eval", "gains"]], ids=" ".join)
    def test_samples_outside_demo_is_three(self, tmp_path, capsys, command):
        # Only demo-1d samples a count the flag could set; the others refuse
        # it before they read a file or write one.
        out = tmp_path / "out"
        assert run_cli(["--samples", "7", "--out", str(out), *command]) == 3
        assert capsys.readouterr().err == (f"error: --samples applies to demo-1d only, "
                                           f"not to {' '.join(command[:2])}\n")
        assert not out.exists()

    def test_certificate_refusal_is_two(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("alpha = 1.0\nsigma = 0.5\nkappa = 1.0\ngrid_points = 9\nsamples = 100\n")
        code = run_cli(["--out", str(tmp_path / "d.csv"), "--config", str(cfg), "demo-1d"])
        assert code == 2

    def test_nnet_refusal_is_two(self, tmp_path, sine_csv):
        cfg = tmp_path / "n.cfg"
        cfg.write_text("widths = 1,4,1\nalpha = 3.0\nsigma = 0.15\npenalty = 0.05\n"
                       "iterations = 5\nbatch = 4\n")
        code = run_cli(["--out", str(tmp_path / "w"), "--config", str(cfg),
                        "nnet", "train", str(sine_csv)])
        assert code == 2

    @pytest.mark.parametrize("command,make", [("classify", make_blobs), ("nnet", make_sine)])
    def test_a_split_that_leaves_no_training_row_is_three(self, tmp_path, capsys, command,
                                                          make):
        # 0.99 of 40 rows rounds to 40 test rows and none to train on.
        data, cfg, out = tmp_path / "data.csv", tmp_path / "split.cfg", tmp_path / "out"
        save_dataset(data, make(40, GaussianSampler(2, dim=1)))
        cfg.write_text("test_split = 0.99\n")
        code = run_cli(["--config", str(cfg), "--out", str(out), command, "train", str(data)])
        assert code == 3 and not out.exists()
        assert "test_fraction 0.99 leaves no training row of 40" in capsys.readouterr().err

    def test_unknown_config_key_is_three(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("bogus = 1\n")
        code = run_cli(["--out", str(tmp_path / "d.csv"), "--config", str(cfg), "demo-1d"])
        assert code == 3

    def test_malformed_dataset_is_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,oops,1\n")
        code = run_cli(["--out", str(tmp_path / "m.csv"), "classify", "train", str(bad)])
        assert code == 3

    def test_missing_out_is_three(self, tmp_path):
        code = run_cli(["demo-1d"])
        assert code == 3

    def test_infeasible_synthesis_is_four(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("q = 3.0\n")  # W(0) indefinite
        code = run_cli(["--out", str(tmp_path / "g"), "--config", str(cfg),
                        "synth", "solve"])
        assert code == 4

    def test_unknown_rollout_mode_is_three(self, tmp_path):
        cfg = tmp_path / "roll.cfg"
        cfg.write_text("mode = bogus\n")
        out = tmp_path / "rollout.csv"
        code = run_cli(["--out", str(out), "--config", str(cfg), "control", "rollout"])
        assert code == 3 and not out.exists()

    @pytest.mark.parametrize("command", ["synth", "classify", "nnet"])
    def test_non_finite_weight_is_three(self, tmp_path, sine_csv, capsys, command):
        weights = tmp_path / "w"
        weights.mkdir()
        if command == "classify":
            (weights / "model.csv").write_text("theta\nnan\n0.5\n")
            argv = ["classify", "eval", str(write_classification_csv(tmp_path / "d.csv")),
                    str(weights / "model.csv")]
        else:
            (weights / "K_01.csv").write_text("col_0\nnan\n")
            (weights / "K_02.csv").write_text("col_0\n-0.3\n")
            argv = (["nnet", "eval", str(sine_csv), str(weights)] if command == "nnet" else
                    ["synth", "eval", str(weights)])
        assert run_cli(argv) == 3
        assert "line 2: non-finite value 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting, message", [
        ("nnet train", "sigma = nan", "noise scales must be positive and finite"),
        ("nnet train", "penalty = nan", "penalty weights must be nonnegative and finite"),
        ("nnet train", "sigma = 1e-200", "with 1 / sigma_t^2 finite"),
        ("nnet train", "sigma = 1e200", "with 1 / sigma_t^2 finite"),
        ("demo-1d", "grid_min = -inf", "grid ends must be finite"),
        ("classify train", "grad_tol = nan", "grad_tol must be nonnegative and finite"),
        # Only an exact 0 turns zeta (pilot estimate) or test_split (no split)
        # off; any other bad value goes to the library's checks.
        ("control train", "zeta = -5", "zeta must be positive and finite"),
        ("control train", "zeta = nan", "zeta must be positive and finite"),
        ("classify train", "test_split = -0.5", "test_fraction must be in [0, 1)"),
        ("classify train", "test_split = nan", "test_fraction must be in [0, 1)"),
        ("nnet train", "test_split = -0.5", "test_fraction must be in [0, 1)"),
        ("nnet train", "test_split = nan", "test_fraction must be in [0, 1)"),
        ("nnet train", "eval_every = 0", "eval_every must be >= 1, got 0"),
        ("nnet train", "eval_every = -1", "eval_every must be >= 1, got -1"),
    ])
    def test_non_finite_setting_is_three(self, tmp_path, sine_csv, capsys, command, setting,
                                         message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(setting + "\n")
        data = {"nnet train": [str(sine_csv)], "demo-1d": [], "control train": [],
                "classify train": [str(write_classification_csv(tmp_path / "d.csv"))]}
        out = tmp_path / "out"
        argv = ["--out", str(out), "--config", str(cfg), *command.split(), *data[command]]
        assert run_cli(argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_is_three(self):
        assert run_cli(["--no-such-flag", "demo-1d"]) == 3

    def test_help_is_zero(self):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("command", ["demo-1d", "classify", "nnet", "control", "synth"])
    def test_each_commands_help_is_zero(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Usage: ") and f" {command} [OPTIONS]" in out.splitlines()[0]


# Each case: files written under the working directory, the argv, and the
# path the error must name. Every case exits 0 or 1 without the one reader
# and the gain-shape checks.
SIX_BY_SIX = "col_0,col_1,col_2,col_3,col_4,col_5\n" + "0.1,0.1,0.1,0.1,0.1,0.1\n" * 6
MALFORMED_FILES = {
    "ragged gain rows": (
        {"g/K_01.csv": "col_0\n0.1\n", "g/K_02.csv": "col_0,col_1\n0.1,0.2\n0.3\n"},
        ["synth", "eval", "g"], "g/K_02.csv, line 3: expected 2 columns, found 1"),
    "model with a second column": (
        {"model.csv": "theta\n0.5,7\n0.2\n"},
        ["classify", "eval", "data.csv", "model.csv"],
        "model.csv, line 2: expected 1 columns, found 2"),
    "gain header wider than its rows": (
        {"g/K_01.csv": "col_0,col_1\n0.1\n", "g/K_02.csv": "col_0\n-0.3\n"},
        ["synth", "eval", "g"], "g/K_01.csv, line 2: expected 2 columns, found 1"),
    "nnet gains not max(widths) square": (
        {"w/K_01.csv": "col_0\n0.1\n", "w/K_02.csv": "col_0\n-0.3\n"},
        ["nnet", "eval", "sine.csv", "w"], "w/K_01.csv: expected a 6x6 gain, found 1x1"),
    "nnet gain count not len(widths) - 1": (
        {f"w/K_0{t}.csv": SIX_BY_SIX for t in (1, 2, 3)},
        ["nnet", "eval", "sine.csv", "w"], "w: expected 2 gain files K_*.csv, found 3"),
    "rollout gains not m x n": (
        {"g/K_01.csv": "col_0,col_1\n0.1,0.2\n", "g/K_02.csv": "col_0,col_1\n0.1,0.2\n",
         "roll.cfg": "gains = g\n"},
        ["--out", "r.csv", "--config", "roll.cfg", "control", "rollout"],
        "g/K_01.csv: expected a 1x1 gain, found 1x2"),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_input_file_is_three_and_named(tmp_path, sine_csv, capsys, monkeypatch,
                                                 case):
    files, argv, message = MALFORMED_FILES[case]
    write_classification_csv(tmp_path / "data.csv")
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


class TestPipelines:
    def test_classify_train_eval_corrupt(self, tmp_path, capsys):
        data = write_classification_csv(tmp_path / "train.csv")
        model = tmp_path / "model.csv"
        assert run_cli(["--out", str(model), "classify", "train", str(data)]) == 0
        out = capsys.readouterr().out
        assert "train_accuracy=" in out
        assert run_cli(["classify", "eval", str(data), str(model)]) == 0
        assert "accuracy=" in capsys.readouterr().out
        corrupted = tmp_path / "corrupted.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma_noise = 1.0\n")
        assert run_cli(["--seed", "5", "--out", str(corrupted), "--config", str(cfg),
                        "classify", "corrupt", str(data)]) == 0
        assert corrupted.exists()

    def test_control_train_then_rollout(self, tmp_path):
        gains_dir = tmp_path / "gains"
        cfg = tmp_path / "ctl.cfg"
        cfg.write_text("iterations = 50\nbatch = 16\n")
        assert run_cli(["--seed", "2", "--out", str(gains_dir), "--config", str(cfg),
                        "control", "train"]) == 0
        assert (gains_dir / "K_01.csv").exists()
        assert (gains_dir / "trace.csv").exists()
        roll_cfg = tmp_path / "roll.cfg"
        roll_cfg.write_text(f"gains = {gains_dir}\nmode = noisy\n")
        roll = tmp_path / "rollout.csv"
        assert run_cli(["--seed", "3", "--out", str(roll), "--config", str(roll_cfg),
                        "control", "rollout"]) == 0
        assert roll.exists()

    def test_synth_solve_then_eval(self, tmp_path, capsys):
        gains_dir = tmp_path / "gains"
        assert run_cli(["--out", str(gains_dir), "synth", "solve"]) == 0
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert run_cli(["--out", str(report), "synth", "eval", str(gains_dir)]) == 0
        out = capsys.readouterr().out
        assert "feasible=True" in out
        assert report.exists()

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_nnet_train_eval(self, tmp_path, sine_csv, capsys):
        out_dir = tmp_path / "net"
        cfg = tmp_path / "n.cfg"
        cfg.write_text("widths = 1,4,1\nalpha = 3.0\nsigma = 0.15\npenalty = 0.05\n"
                       "iterations = 40\nbatch = 16\neval_every = 20\nforce = true\n")
        assert run_cli(["--seed", "4", "--out", str(out_dir), "--config", str(cfg),
                        "nnet", "train", str(sine_csv)]) == 0
        assert (out_dir / "curve.csv").exists()
        capsys.readouterr()
        ecfg = tmp_path / "e.cfg"
        ecfg.write_text("widths = 1,4,1\n")
        assert run_cli(["--config", str(ecfg), "nnet", "eval", str(sine_csv),
                        str(out_dir)]) == 0
        assert "mse=" in capsys.readouterr().out

    def test_forced_nnet_train_warns_at_the_cli_line(self, tmp_path, sine_csv):
        # The warning names the CLI's call of train_noisy_net, not a line
        # of the library.
        cfg = tmp_path / "n.cfg"
        cfg.write_text("widths = 1,4,1\nalpha = 3.0\nsigma = 0.15\npenalty = 0.05\n"
                       "iterations = 2\nbatch = 8\nforce = true\n")
        with pytest.warns(UserWarning, match="per-step certificate fails") as record:
            assert run_cli(["--out", str(tmp_path / "net"), "--config", str(cfg),
                            "nnet", "train", str(sine_csv)]) == 0
        assert [w.filename for w in record] == [riskconvex.cli.__file__]


def printed(capsys) -> dict:
    """The key=value lines of the captured stdout."""
    return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())


class TestPrintedCertificates:
    """The certificate flags the CLI prints are the library's report fields."""

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("alpha, sigma, penalty", [(16.0, 0.45, None), (3.0, 0.15, 0.05)],
                             ids=["boundary", "forced"])
    def test_nnet_train(self, tmp_path, sine_csv, capsys, alpha, sigma, penalty):
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"widths = 1,4,1\nalpha = {alpha}\nsigma = {sigma}\niterations = 10\n"
                       "batch = 8\nforce = true\n" + (f"penalty = {penalty}\n" if penalty else ""))
        assert run_cli(["--seed", "4", "--out", str(tmp_path / "net"), "--config", str(cfg),
                        "nnet", "train", str(sine_csv)]) == 0
        flags = printed(capsys)
        net = NoisyNetConfig(widths=[1, 4, 1], alpha=alpha, noise_scales=[sigma] * 2,
                             penalty_weights=penalty and [penalty] * 2)
        report = train_noisy_net(load_dataset(sine_csv, task="regression"), net,
                                 GaussianSampler(4, dim=1), iterations=10, batch=8, force=True)
        assert flags["certified"] == str(report.certified) == str(penalty is None)
        assert flags["worst_margin"] == str(report.convexity.margin)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_control_train(self, tmp_path, capsys, r):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"r = {r}\niterations = 10\nbatch = 8\n")
        assert run_cli(["--seed", "5", "--out", str(tmp_path / "gains"), "--config", str(cfg),
                        "control", "train"]) == 0
        dyn, cost, policy0, model = ScalarBenchmark(r=r).problem()
        _, report = train_policy(dyn, cost, policy0, model, "derivative_free",
                                 SolverConfig(iterations=10, batch=8),
                                 FeasibleSet.ball(np.zeros(2), 0.6), GaussianSampler(5, dim=1))
        assert printed(capsys)["certified"] == str(report.certified) == str(r == 1.0)

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_synth_solve_and_eval(self, tmp_path, capsys, r):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"r = {r}\n")
        gains_dir = tmp_path / "gains"
        bench = ScalarBenchmark(r=r)
        assert run_cli(["--out", str(gains_dir), "--config", str(cfg), "synth", "solve"]) == 0
        report = synthesize(bench.system(), bench.alpha)
        assert printed(capsys)["convexity_advisory"] == str(report.convexity.holds)
        assert run_cli(["--config", str(cfg), "synth", "eval", str(gains_dir)]) == 0
        res = detmax_objective(bench.system(), bench.alpha, read_gains_csv(gains_dir, (2, 1, 1)))
        assert printed(capsys)["convexity_advisory"] == str(res.convexity.holds) == str(r == 1.0)


def test_nnet_eval_on_a_dataset_of_another_width_is_three(tmp_path, capsys):
    # widths = 1,4,1 expects one feature; the dataset has two.
    save_dataset(tmp_path / "wide.csv", Dataset(X=np.zeros((5, 2)), y=np.zeros(5)))
    write_gains_csv(tmp_path / "net", [np.zeros((4, 4))] * 2)
    cfg = tmp_path / "e.cfg"
    cfg.write_text("widths = 1,4,1\n")
    assert run_cli(["--config", str(cfg), "nnet", "eval", str(tmp_path / "wide.csv"),
                    str(tmp_path / "net")]) == 3
    assert "dataset has 2 features, config expects 1" in capsys.readouterr().err


class TestDeterminism:
    """Every subcommand, run twice with the same seed and config, produces
    byte-identical CSVs."""

    @staticmethod
    def run_twice(tmp_path, build_argv, outputs):
        contents = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir(exist_ok=True)
            assert run_cli(build_argv(base)) == 0
            contents.append({name: (base / name).read_bytes() for name in outputs})
        assert contents[0] == contents[1]

    def test_demo(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("grid_points = 9\nsamples = 400\n")
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "11", "--out", str(base / "demo.csv"),
                          "--config", str(cfg), "demo-1d"],
            ["demo.csv"])

    def test_classify(self, tmp_path):
        data = write_classification_csv(tmp_path / "d.csv")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("test_split = 0.25\n")
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "12", "--out", str(base / "model.csv"),
                          "--config", str(cfg), "classify", "train", str(data)],
            ["model.csv"])
        (tmp_path / "cc.cfg").write_text("sigma_noise = 0.8\n")
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "13", "--out", str(base / "corr.csv"),
                          "--config", str(tmp_path / "cc.cfg"),
                          "classify", "corrupt", str(data)],
            ["corr.csv"])

    def test_control(self, tmp_path):
        cfg = tmp_path / "ctl.cfg"
        cfg.write_text("iterations = 30\nbatch = 8\n")
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "14", "--out", str(base), "--config", str(cfg),
                          "control", "train"],
            ["K_01.csv", "K_02.csv", "trace.csv"])
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "15", "--out", str(base / "roll.csv"),
                          "control", "rollout"],
            ["roll.csv"])

    def test_synth(self, tmp_path):
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "16", "--out", str(base), "synth", "solve"],
            ["K_01.csv", "K_02.csv"])

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_nnet(self, tmp_path, sine_csv):
        cfg = tmp_path / "n.cfg"
        cfg.write_text("widths = 1,4,1\nalpha = 3.0\nsigma = 0.15\npenalty = 0.05\n"
                       "iterations = 25\nbatch = 8\neval_every = 10\nforce = true\n")
        self.run_twice(
            tmp_path,
            lambda base: ["--seed", "17", "--out", str(base), "--config", str(cfg),
                          "nnet", "train", str(sine_csv)],
            ["K_01.csv", "K_02.csv", "curve.csv"])


def test_import_leaves_scipy_special_and_linalg_unloaded():
    # Both are imported on first use; a fresh interpreter shows whether
    # importing the CLI pulls them in.
    src = str(Path(riskconvex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, riskconvex.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
