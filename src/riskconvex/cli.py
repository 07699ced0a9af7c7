"""Command-line harness.

Subcommands: demo-1d, classify train|eval|corrupt, nnet train|eval,
control train|rollout, synth solve|eval.  Global flags --seed, --samples,
--out, --config apply to every subcommand; per-subcommand knobs live in
the key = value config file and unknown keys are errors.

Exit codes: 0 success, 2 certificate refusal, 3 input or parse error,
4 numerical failure.  All numeric CSV output is written with full
round-trip precision, so identical seed and config reproduce identical
bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .benchmarks import ScalarBenchmark
from .classify import (
    ClassifierConfig,
    accuracy,
    read_model_csv,
    train_classifier,
    write_model_csv,
)
from .configfile import load_config
from .control import rollout, train_policy, write_rollout_csv
from .csvio import write_csv
from .datasets import corrupt_labels, load_dataset, save_dataset
from .demo1d import demo_curves, uniform_grid
from .errors import EXIT_INPUT, ConfigError, DivergenceError, RiskConvexError
from .noisynet import NoisyNetConfig, mse, train_noisy_net
from .sampling import GaussianSampler
from .solver import FeasibleSet, SolverConfig, write_trace_csv
from .synthesis import (
    SynthesisConfig,
    detmax_objective,
    read_gains_csv,
    synthesize,
    write_gains_csv,
)


@click.group()
@click.version_option(version=__version__, prog_name="riskconvex")
@click.option("--seed", type=int, default=0, show_default=True,
              help="64-bit seed for every random draw.")
@click.option("--samples", type=int, default=None,
              help="Override the sample count of sampling subcommands.")
@click.option("--out", type=click.Path(), default=None,
              help="Output file (single-CSV commands) or directory.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="key = value settings file; keys documented per subcommand.")
@click.pass_context
def cli(ctx, seed, samples, out, config_path):
    """Risk-averse convexification toolkit."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, samples=samples, out=out, config=config_path)


def _require_out(ctx) -> Path:
    out = ctx.obj.get("out")
    if out is None:
        raise ConfigError("this subcommand writes files; pass --out")
    return Path(out)


def _echo_kv(**kwargs) -> None:
    for key, value in kwargs.items():
        click.echo(f"{key}={value}")


# Every setting of every subcommand, declared once: key -> (type, default).
# tests/test_readme.py checks the README's config-key list against SETTINGS.
NNET_TRAIN = {
    "widths": ("list[int]", [1, 6, 1]), "alpha": ("float", 16.0),
    "sigma": ("list[float]", [0.45]), "penalty": ("list[float]", []),
    "loss_bound": ("float", 0.25), "iterations": ("int", 300), "batch": ("int", 64),
    "radius": ("float", 6.0), "eval_every": ("int", 50), "test_split": ("float", 0.0),
    "force": ("bool", False), "method": ("str", "derivative_free"),
}
# The scalar linear benchmark shared by the control and synth subcommands.
SYSTEM = {
    "a": ("float", 1.0), "b": ("float", 1.0), "q": ("float", 0.15), "r": ("float", 1.0),
    "sigma_u": ("float", 1.0), "alpha": ("float", 1.0), "horizon": ("int", 3),
}
CONTROL_TRAIN = dict(SYSTEM, iterations=("int", 2000), batch=("int", 128),
                     radius=("float", 0.6), method=("str", "derivative_free"),
                     zeta=("float", 0.0))
SYNTH = dict(SYSTEM, max_iters=("int", 300))
SETTINGS = {
    "demo-1d": {
        "alpha": ("float", 4.0), "sigma": ("float", 0.5), "kappa": ("float", 1.0),
        "field": ("str", "two-basin"), "grid_points": ("int", 121),
        "grid_min": ("float", -3.0), "grid_max": ("float", 3.0), "samples": ("int", 20000),
    },
    "classify train": {"sigma": ("float", 1.0), "max_iters": ("int", 500),
                       "grad_tol": ("float", 1e-8), "test_split": ("float", 0.0)},
    "classify eval": {},
    "classify corrupt": {"sigma_noise": ("float", 1.0)},
    "nnet train": NNET_TRAIN,
    "nnet eval": {"widths": NNET_TRAIN["widths"]},
    "control train": CONTROL_TRAIN,
    "control rollout": dict(CONTROL_TRAIN, gains=("str", ""), mode=("str", "noisy")),
    "synth solve": SYNTH,
    "synth eval": SYNTH,
}


# ---------------------------------------------------------------- demo-1d


@cli.command("demo-1d")
@click.pass_context
def demo_1d(ctx):
    """Tabulate original, smoothed, and convexified 1-D curves as CSV."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["demo-1d"])
    n = cfg["samples"] if ctx.obj["samples"] is None else ctx.obj["samples"]
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    grid = uniform_grid(cfg["grid_min"], cfg["grid_max"], cfg["grid_points"])
    curves = demo_curves(cfg["alpha"], cfg["sigma"], cfg["kappa"], grid, n,
                         sampler, field_id=cfg["field"])
    curves.write_csv(out)
    argmin = float(curves.theta[int(np.argmin(curves.convexified))])
    _echo_kv(rows=grid.size, samples=n, convexified_argmin=argmin, out=out)


# ---------------------------------------------------------------- classify


@cli.group()
def classify():
    """Convexified binary classification."""


@classify.command("train")
@click.argument("dataset", type=click.Path())
@click.pass_context
def classify_train(ctx, dataset):
    """Train weights on DATASET and write them as CSV."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["classify train"])
    ds = load_dataset(dataset, task="classification")
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    test = None
    if cfg["test_split"] != 0.0:
        ds, test = ds.split(cfg["test_split"], sampler)
    report = train_classifier(
        ds,
        ClassifierConfig(sigma=cfg["sigma"], max_iters=cfg["max_iters"],
                         grad_tol=cfg["grad_tol"]),
        test=test,
    )
    write_model_csv(out, report.theta)
    _echo_kv(iterations=report.iterations, converged=report.converged,
             objective=report.objective, train_accuracy=report.train_accuracy,
             test_accuracy=report.test_accuracy, out=out)


@classify.command("eval")
@click.argument("dataset", type=click.Path())
@click.argument("model", type=click.Path())
@click.pass_context
def classify_eval(ctx, dataset, model):
    """Report accuracy of MODEL on DATASET."""
    load_config(ctx.obj["config"], SETTINGS["classify eval"])
    ds = load_dataset(dataset, task="classification")
    theta = read_model_csv(model)
    if theta.size != ds.n_features:
        raise ConfigError(f"model has {theta.size} weights, dataset has {ds.n_features} features")
    acc = accuracy(theta, ds)
    _echo_kv(accuracy=acc)
    if ctx.obj.get("out"):
        write_csv(ctx.obj["out"], [[acc]], header=["accuracy"])


@classify.command("corrupt")
@click.argument("dataset", type=click.Path())
@click.pass_context
def classify_corrupt(ctx, dataset):
    """Write a label-corrupted copy of DATASET: y -> sign(y + noise)."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["classify corrupt"])
    ds = load_dataset(dataset, task="classification")
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    corrupted = corrupt_labels(ds, cfg["sigma_noise"], sampler)
    save_dataset(out, corrupted)
    flips = int(np.sum(corrupted.y != ds.y))
    _echo_kv(rows=ds.size, flipped=flips, out=out)


# ---------------------------------------------------------------- nnet


def _nnet_config(cfg) -> NoisyNetConfig:
    widths = cfg["widths"]
    n_layers = len(widths) - 1
    sigma = cfg["sigma"]
    if len(sigma) == 1:
        sigma = sigma * n_layers
    penalty = cfg["penalty"] or None
    if penalty is not None and len(penalty) == 1:
        penalty = penalty * n_layers
    return NoisyNetConfig(widths=widths, alpha=cfg["alpha"], noise_scales=sigma,
                          penalty_weights=penalty, loss_bound=cfg["loss_bound"])


@cli.group()
def nnet():
    """Noisy-layer network training as risk-sensitive control."""


@nnet.command("train")
@click.argument("dataset", type=click.Path())
@click.pass_context
def nnet_train(ctx, dataset):
    """Train on DATASET; write weight CSVs and curve.csv into --out."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["nnet train"])
    net = _nnet_config(cfg)
    ds = load_dataset(dataset, task="regression")
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    test = None
    if cfg["test_split"] != 0.0:
        ds, test = ds.split(cfg["test_split"], sampler)
    report = train_noisy_net(ds, net, sampler, iterations=cfg["iterations"],
                             batch=cfg["batch"], radius=cfg["radius"],
                             eval_every=cfg["eval_every"], test=test,
                             force=cfg["force"], method=cfg["method"])
    write_gains_csv(out, report.weights)
    report.write_curve_csv(Path(out) / "curve.csv")
    _echo_kv(certified=report.convexity.holds, worst_margin=report.convexity.margin,
             train_mse=report.final_train_mse, test_mse=report.final_test_mse,
             out=out)


@nnet.command("eval")
@click.argument("dataset", type=click.Path())
@click.argument("weights", type=click.Path())
@click.pass_context
def nnet_eval(ctx, dataset, weights):
    """Mean-network MSE of WEIGHTS on DATASET."""
    cfg = load_config(ctx.obj["config"], SETTINGS["nnet eval"])
    widths = cfg["widths"]
    net = NoisyNetConfig(widths=widths, alpha=1.0,
                         noise_scales=[1.0] * (len(widths) - 1))
    ds = load_dataset(dataset, task="regression")
    ws = read_gains_csv(weights, (net.n_layers, net.internal_width, net.internal_width))
    value = mse(net, ws, ds)
    _echo_kv(mse=value, target_variance=float(np.var(ds.y)))
    if ctx.obj.get("out"):
        write_csv(ctx.obj["out"], [[value]], header=["mse"])


# ---------------------------------------------------------------- control


def _benchmark(cfg) -> ScalarBenchmark:
    return ScalarBenchmark(**{key: cfg[key] for key in SYSTEM})


@cli.group()
def control():
    """Risk-sensitive policy optimization on the scalar linear benchmark."""


@control.command("train")
@click.pass_context
def control_train(ctx):
    """Train gains; write K_*.csv and trace.csv into --out."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["control train"])
    bench = _benchmark(cfg)
    dyn, cost, policy0, model = bench.problem()
    constraint = FeasibleSet.ball(np.zeros(bench.horizon - 1), cfg["radius"])
    solver_cfg = SolverConfig(iterations=cfg["iterations"],
                              zeta=None if cfg["zeta"] == 0 else cfg["zeta"],
                              batch=cfg["batch"])
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    steps = []
    trained, report = train_policy(dyn, cost, policy0, model, cfg["method"], solver_cfg,
                                   constraint, sampler, sink=lambda *step: steps.append(step))
    write_gains_csv(out, trained.gains)
    write_trace_csv(Path(out) / "trace.csv", steps)
    _echo_kv(certified=report.convexity.holds,
             gains=",".join(map(repr, trained.gains[:, 0, 0].tolist())),
             certificate=report.certificate, out=out)


@control.command("rollout")
@click.pass_context
def control_rollout(ctx):
    """Simulate one trajectory and write it as CSV to --out."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["control rollout"])
    bench = _benchmark(cfg)
    gains = read_gains_csv(cfg["gains"], (bench.horizon - 1, 1, 1)) if cfg["gains"] else None
    dyn, cost, policy, model = bench.problem(gains=gains)
    sampler = GaussianSampler(ctx.obj["seed"], dim=1)
    r = rollout(dyn, cost, policy, model, sampler, mode=cfg["mode"])
    write_rollout_csv(out, r)
    _echo_kv(cost=r.cost, exp_cost=r.exp_cost, out=out)


# ---------------------------------------------------------------- synth


@cli.group()
def synth():
    """Structured linear controller design (determinant maximization)."""


@synth.command("solve")
@click.pass_context
def synth_solve(ctx):
    """Optimize gains for the configured linear system; write K_*.csv."""
    out = _require_out(ctx)
    cfg = load_config(ctx.obj["config"], SETTINGS["synth solve"])
    bench = _benchmark(cfg)
    report = synthesize(bench.system(), bench.alpha,
                        config=SynthesisConfig(max_iters=cfg["max_iters"]))
    if not report.success:
        raise DivergenceError(f"synthesis failed: {report.message}")
    write_gains_csv(out, report.gains)
    _echo_kv(objective=report.objective, converged=report.converged,
             convexity_advisory=report.convexity.holds,
             gains=",".join(map(repr, report.gains[:, 0, 0].tolist())), out=out)


@synth.command("eval")
@click.argument("gains", type=click.Path())
@click.pass_context
def synth_eval(ctx, gains):
    """Objective and feasibility of GAINS (a K_*.csv directory)."""
    cfg = load_config(ctx.obj["config"], SETTINGS["synth eval"])
    bench = _benchmark(cfg)
    ks = read_gains_csv(gains, (bench.horizon - 1, 1, 1))
    res = detmax_objective(bench.system(), bench.alpha, ks)
    _echo_kv(objective=res.value, feasible=res.feasible, min_eig=res.min_eig,
             convexity_advisory=res.convexity.holds)
    if ctx.obj.get("out"):
        write_csv(ctx.obj["out"], [[res.value, res.min_eig, int(res.feasible)]],
                  header=["objective", "min_eig", "feasible"])


def main(argv=None) -> None:
    """Entry point mapping package errors onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:  # includes UsageError
        exc.show()
        sys.exit(EXIT_INPUT)
    except click.exceptions.Abort:
        sys.exit(1)
    except RiskConvexError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    sys.exit(0)


if __name__ == "__main__":
    main()
