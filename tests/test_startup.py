"""Start-up: what importing the package, its CLI and each subcommand loads.

The package namespace resolves its names on first use (PEP 562) and each
CLI subcommand imports the modules it runs when it runs.  The module sets
are read in fresh interpreters, one per case, since this process has
imported everything already.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import riskconvex
import riskconvex.solver
from riskconvex.cli import main
from riskconvex.datasets import make_blobs, make_sine, save_dataset
from riskconvex.sampling import GaussianSampler

SRC = str(Path(riskconvex.__file__).resolve().parents[1])

# The package's public names: the error types, the layers' entry points
# and the nine submodules that importing the whole package used to bind.
PUBLIC = [
    "CertificateError", "ConfigError", "ContractError", "ControlCost", "ControlRiskModel",
    "ConvexityCertificate", "DegenerateEstimateError", "DivergenceError", "Dynamics",
    "Estimate", "EstimateOverflowError", "FeasibleSet", "FieldEvaluationError",
    "GaussianSampler", "IllConditionedError", "LinearSystem", "Policy", "RawField",
    "RiskConvexError", "RiskModel", "Rollout", "ScalarField", "SensitivityEstimate",
    "SolverConfig", "SolverReport", "SuboptimalityCertificate", "VarianceBoundInputs",
    "certify_gap", "check_control_certificate", "check_convexity_certificate",
    "clamp_bounded", "closed_form_expectation", "constant_field", "control", "csvio",
    "detmax_objective", "errors", "estimate_sensitivity", "exp_objective", "fields",
    "isotropic_model", "linear_field", "lipschitz_gap_bound", "log_exp_objective",
    "log_gap_from_exp_gap", "objective", "policy_gradient_batch",
    "policy_gradient_derivative_free", "policy_gradient_model_based", "rollout", "sampling",
    "sensitivity", "smoothed_value", "solve", "solver", "synthesis", "synthesize",
    "train_policy", "unbiased_grad_mean", "variance_bound",
]

CLI = {"cli", "configfile", "errors"}
# What the rollout engine imports; gains CSVs live in csvio, so the noisy
# net loads no det-max code, and the benchmarks add it for LinearSystem.
MODEL = {"control", "csvio", "fields", "objective", "sampling", "solver"}
DEMO = CLI | {"demo1d", "csvio", "fields", "objective", "sampling"}
CLASSIFY = CLI | {"classify", "datasets", "csvio", "sampling"}
NNET = CLI | MODEL | {"noisynet", "datasets"}
BENCHMARK = CLI | MODEL | {"benchmarks", "synthesis"}

# Prints the riskconvex submodules loaded after the code before it ran.
LOADED = "print(sorted(m[11:] for m in sys.modules if m.startswith('riskconvex.')))"


def fresh(code: str, *args) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{LOADED}", *args],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_importing_the_package_loads_only_errors():
    assert fresh("import riskconvex") == ["errors"]


def test_importing_the_cli_adds_only_cli_and_configfile():
    assert fresh("import riskconvex.cli") == sorted(CLI)


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of tiny configs and of every file a subcommand reads."""
    d = tmp_path_factory.mktemp("startup")
    save_dataset(d / "blobs.csv", make_blobs(40, GaussianSampler(2, dim=1)))
    save_dataset(d / "sine.csv", make_sine(40, GaussianSampler(1, dim=1)))
    for name, text in {"demo": "grid_points = 5\nsamples = 200\n",
                       "classify": "max_iters = 5\n",
                       "nnet": "iterations = 2\nbatch = 4\neval_every = 1\n",
                       "control": "iterations = 3\nbatch = 4\n",
                       "synth": "max_iters = 5\n"}.items():
        (d / f"{name}.cfg").write_text(text)
    run_cli(["--config", d / "classify.cfg", "--out", d / "model.csv", "classify", "train",
             d / "blobs.csv"])
    run_cli(["--config", d / "nnet.cfg", "--out", d / "net", "nnet", "train", d / "sine.csv"])
    run_cli(["--config", d / "synth.cfg", "--out", d / "gains", "synth", "solve"])
    return d


SUBCOMMANDS = {
    "demo-1d": (["--config", "demo.cfg", "--out", "{out}/demo.csv", "demo-1d"], DEMO),
    "classify train": (["--config", "classify.cfg", "--out", "{out}/model.csv", "classify",
                        "train", "blobs.csv"], CLASSIFY),
    "classify eval": (["classify", "eval", "blobs.csv", "model.csv"], CLASSIFY),
    "classify corrupt": (["--out", "{out}/noisy.csv", "classify", "corrupt", "blobs.csv"],
                         CLASSIFY - {"classify"}),
    "nnet train": (["--config", "nnet.cfg", "--out", "{out}/net", "nnet", "train",
                    "sine.csv"], NNET),
    "nnet eval": (["nnet", "eval", "sine.csv", "net"], NNET),
    "control train": (["--config", "control.cfg", "--out", "{out}/gains", "control",
                       "train"], BENCHMARK),
    "control rollout": (["--out", "{out}/roll.csv", "control", "rollout"], BENCHMARK),
    "synth solve": (["--config", "synth.cfg", "--out", "{out}/gains", "synth", "solve"],
                    BENCHMARK),
    "synth eval": (["--config", "synth.cfg", "synth", "eval", "gains"], BENCHMARK),
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_each_subcommand_loads_only_the_modules_it_runs(command, inputs, tmp_path):
    argv, expected = SUBCOMMANDS[command]
    args = [a.format(out=tmp_path) if "{out}" in a else
            str(inputs / a) if (inputs / a).exists() else a for a in argv]
    code = ("import riskconvex.cli\n"
            "try:\n    riskconvex.cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
    loaded = fresh(code, *args)
    assert loaded == sorted(expected)
    assert "sensitivity" not in loaded


class TestNamespace:
    def test_all_holds_the_public_names(self):
        assert riskconvex.__all__ == PUBLIC and len(PUBLIC) == 60

    def test_each_name_is_its_modules_object(self):
        for name in PUBLIC:
            obj = getattr(riskconvex, name)
            if isinstance(obj, types.ModuleType):
                assert obj is importlib.import_module(f"riskconvex.{name}")
            else:
                assert getattr(importlib.import_module(obj.__module__), name) is obj
                assert obj.__module__.rpartition(".")[2] in PUBLIC

    def test_dir_covers_all_and_a_star_import_binds_every_name(self):
        assert set(PUBLIC) <= set(dir(riskconvex))
        namespace = {}
        exec("from riskconvex import *", namespace)
        assert set(PUBLIC) <= namespace.keys()

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            riskconvex.no_such_name
        assert not hasattr(riskconvex, "main")

    def test_a_patched_submodule_name_shows_through_the_package(self, monkeypatch):
        original = riskconvex.solve
        with monkeypatch.context() as patch:
            patch.setattr(riskconvex.solver, "solve", lambda *a: "patched")
            assert riskconvex.solve() == "patched"
        assert riskconvex.solve is original is riskconvex.solver.solve
        assert "solve" not in vars(riskconvex)
