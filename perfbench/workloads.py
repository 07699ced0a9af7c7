"""The four workloads: inputs, jobs and output checks.

Each workload turns a seed into a list of round inputs, runs a round as
a fixed sequence of jobs (each job returns its output and the number of
perturbed evaluations or rollouts it performed), and checks the outputs
afterwards.  Jobs call riskconvex only through module attributes looked
up at call time, so the tracer's wrappers see every call.

Monte Carlo comparisons allow 5 standard errors, so that a fresh seed
does not fail by chance (the acceptance suite keeps its own 3 sigma).
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import riskconvex as rc
import riskconvex.benchmarks as rc_benchmarks
import riskconvex.cli as rc_cli
import riskconvex.datasets as rc_datasets
import riskconvex.demo1d as rc_demo1d
import riskconvex.noisynet as rc_noisynet
import riskconvex.synthesis as rc_synthesis

from reference import DetMax

Z = 5.0


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _agree(a, se_a, b, se_b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    tol = Z * np.sqrt(np.asarray(se_a) ** 2 + np.asarray(se_b) ** 2)
    return bool(np.all(np.abs(a - b) <= tol + 1e-12 * (1.0 + np.abs(a) + np.abs(b))))


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# ------------------------------------------------------------------ inputs


def bump_field(rng, dim: int = 4, bumps: int = 3):
    """A sum of Gaussian wells, bounded above by 0, with its Lipschitz bound."""
    centers = rng.standard_normal((bumps, dim))
    heights = rng.uniform(0.5, 1.5, bumps)
    widths = rng.uniform(0.5, 1.0, bumps)

    def value(theta):
        d2 = ((np.asarray(theta, dtype=float)[..., None, :] - centers) ** 2).sum(-1)
        return -(heights * np.exp(-0.5 * d2 / widths**2)).sum(-1)

    def gradient(theta):
        diff = np.asarray(theta, dtype=float)[..., None, :] - centers
        e = heights * np.exp(-0.5 * (diff**2).sum(-1) / widths**2) / widths**2
        return (e[..., None] * diff).sum(-2)

    # A well h exp(-r^2 / 2w^2) has slope at most h / (w sqrt(e)).
    lipschitz = float(np.sum(heights / (widths * math.sqrt(math.e))))
    return rc.ScalarField(value=value, upper_bound=0.0, dim=dim, gradient=gradient,
                          lipschitz=lipschitz, vectorized=True)


def tanh_system(rng, n: int, m: int, horizon: int, vectorized: bool):
    """s' = tanh(A s + B y) tracking a target; states stay in (-1, 1).

    Returns (dynamics, cost, policy, model) with certified noise
    (alpha r = 1.25 / sigma^2) and a bounded trajectory cost.
    """
    A = 0.8 * rng.standard_normal((n, n)) / math.sqrt(n)
    B = rng.standard_normal((n, m)) / math.sqrt(m)
    target = rng.uniform(-0.5, 0.5, n)
    gains = [0.3 * rng.standard_normal((m, n)) for _ in range(horizon - 1)]
    q, r, alpha = 1.0, 2.5, 0.5
    eye = np.eye(n)

    def step(s, y, xi, t):
        return np.tanh(s @ A.T + y @ B.T)

    def jac_state(s, y, xi, t):
        d = 1.0 - np.tanh(s @ A.T + y @ B.T) ** 2
        return d[..., :, None] * A

    def jac_control(s, y, xi, t):
        d = 1.0 - np.tanh(s @ A.T + y @ B.T) ** 2
        return d[..., :, None] * B

    def state_cost(s, t):
        return 0.5 * q * np.sum((s - target) ** 2, axis=-1)

    def state_cost_grad(s, t):
        return q * (s - target)

    def features(s, t):
        return s

    def features_jacobian(s, t):
        return np.broadcast_to(eye, np.shape(s)[:-1] + (n, n))

    def init_state(rng_):
        return rng_.uniform(-0.5, 0.5, n)

    def init_state_batch(rng_, b):
        return rng_.uniform(-0.5, 0.5, (b, n))

    dyn = rc.Dynamics(step=step, state_dim=n, control_dim=m, disturbance_dim=0,
                      horizon=horizon, jacobian_state=jac_state, jacobian_control=jac_control,
                      init_state=init_state, init_state_batch=init_state_batch,
                      vectorized=vectorized)
    cost = rc.ControlCost(state_cost=state_cost, control_weights=[r * np.eye(m)] * (horizon - 1),
                          bound=0.5 * q * n * 1.5**2, state_cost_grad=state_cost_grad,
                          vectorized=vectorized)
    policy = rc.Policy(gains=gains, features=features, features_jacobian=features_jacobian,
                       vectorized=vectorized)
    model = rc.ControlRiskModel(alpha=alpha, control_noise=[np.eye(m)] * (horizon - 1))
    return dyn, cost, policy, model


def _write_rows(path: Path, rows) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows),
                    encoding="utf-8")


def _read_table(path, header: bool):
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln]
    head = lines[0].split(",") if header else None
    body = lines[1:] if header else lines
    return head, [[float(c) if c != "" else math.nan for c in ln.split(",")] for ln in body]


def run_cli(argv) -> dict:
    """Run the CLI in process; return its key=value stdout, raise on nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc_cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)


# --------------------------------------------------------------- workloads


class Workload:
    name = ""
    why = ""
    # Round time at the commit that defined the benchmark, on a 2-core
    # x86 container; it fixes how many rounds fill --seconds, so the work
    # of a run is the same on every commit.
    nominal_round_s = 1.0
    has_detmax_gap = False

    def sizes(self, tiny: bool) -> dict:
        raise NotImplementedError

    def make_rounds(self, seed: int, rounds: int, tiny: bool, workdir: Path) -> list:
        raise NotImplementedError

    def jobs(self, rnd: dict) -> list:
        """[(job name, fn(done) -> (output, samples))], run in order."""
        raise NotImplementedError

    def check(self, rnd: dict, outputs: dict) -> dict:
        """{job name: [problem, ...]} for the jobs that completed."""
        raise NotImplementedError

    def gap(self, rnd: dict, outputs: dict) -> float:
        return 0.0


class McLargeN(Workload):
    name = "mc_large_n"
    why = ("few calls with 2^17-2^18 samples each: sampling, field batches, log-mean-exp "
           "and batched rollouts carry the work, per-call overhead is negligible")
    nominal_round_s = 2.7

    def sizes(self, tiny):
        return ({"n": 2**10, "demo_points": 121, "demo_n": 2**10, "pg_n": 2**10} if tiny else
                {"n": 2**18, "demo_points": 121, "demo_n": 2**17, "pg_n": 2**18})

    def make_rounds(self, seed, rounds, tiny, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        sz = self.sizes(tiny)
        field = bump_field(rng)
        model = rc.RiskModel(alpha=4.0, sigma=0.25 * np.eye(4), reg=1.25 * np.eye(4))
        # Scaled rotations keep E[exp(4 alpha J)] finite at every drawn
        # gain, so the Monte Carlo standard errors below are meaningful.
        A = 0.7 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
        B = 0.5 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
        system = rc.LinearSystem(A=[A] * 3, B=[B] * 3, Q=[0.1 * np.eye(2)] * 4,
                                 R=[2.0 * np.eye(2)] * 3, sigma=[np.eye(2)] * 3, horizon=4)
        out = []
        for _ in range(rounds):
            out.append({"sizes": sz, "field": field, "model": model, "system": system,
                        "alpha": 0.5, "theta": 0.5 * rng.standard_normal(4),
                        "gains": [0.1 * rng.standard_normal((2, 2)) for _ in range(3)],
                        "seeds": [_seed(rng) for _ in range(7)]})
        return out

    def jobs(self, rnd):
        sz, f, model, th = rnd["sizes"], rnd["field"], rnd["model"], rnd["theta"]
        seeds = rnd["seeds"]
        n = sz["n"]

        def pg(method, seed):
            def job(done):
                dyn, cost, policy, cmodel = rc_benchmarks.linear_control_problem(
                    rnd["system"], rnd["alpha"], gains=rnd["gains"])
                est = rc.policy_gradient_batch(dyn, cost, policy, cmodel,
                                               rc.GaussianSampler(seed, dim=1), sz["pg_n"], method)
                return est, sz["pg_n"]
            return job

        def demo(done):
            grid = rc_demo1d.uniform_grid(-3.0, 3.0, sz["demo_points"])
            curves = rc_demo1d.demo_curves(4.0, 0.5, 1.0, grid, sz["demo_n"],
                                           rc.GaussianSampler(seeds[4], dim=1))
            return curves, sz["demo_points"] * sz["demo_n"]

        return [
            ("certificate", lambda d: (rc.check_convexity_certificate(model), 0)),
            ("log_exp_objective", lambda d: (rc.log_exp_objective(f, model, th, n,
                                                                  model.sampler(seeds[0])), n)),
            ("smoothed_value", lambda d: (rc.smoothed_value(f, model, th, n,
                                                            model.sampler(seeds[1])), n)),
            ("unbiased_grad_mean", lambda d: (rc.unbiased_grad_mean(f, model, th, n,
                                                                    model.sampler(seeds[2])), n)),
            ("estimate_sensitivity", lambda d: (rc.estimate_sensitivity(
                f, model, th, n, model.sampler(seeds[3])), 2 * n)),
            ("demo_curves", demo),
            ("pg_derivative_free", pg("derivative_free", seeds[5])),
            ("pg_model_based", pg("model_based", seeds[6])),
        ]

    def check(self, rnd, outputs):
        model, field = rnd["model"], rnd["field"]
        problems = {name: [] for name in outputs}
        if "certificate" in outputs:
            own = np.linalg.eigvalsh(model.alpha * model.reg - np.linalg.inv(model.sigma))[0]
            if not (outputs["certificate"].holds and own >= -1e-12):
                problems["certificate"].append(f"certificate fails (own margin {own:.3g})")
        lexp, smooth = outputs.get("log_exp_objective"), outputs.get("smoothed_value")
        if lexp is not None and smooth is not None:
            quad = 0.5 * float(rnd["theta"] @ model.reg @ rnd["theta"])
            # Jensen: (1/alpha) log E exp(alpha f) >= E f.
            if not (lexp.value - quad) - smooth.value >= -Z * math.hypot(lexp.std_err,
                                                                         smooth.std_err):
                problems["log_exp_objective"].append("Jensen ordering against smoothed_value fails")
        grad = outputs.get("unbiased_grad_mean")
        if grad is not None and not (np.shape(grad[0]) == (4,) and _finite(grad[0], grad[1])):
            problems["unbiased_grad_mean"].append("gradient mean not finite of shape (4,)")
        sens = outputs.get("estimate_sensitivity")
        if sens is not None:
            bound = 0.5 * model.alpha * field.lipschitz**2 * float(
                np.linalg.eigvalsh(model.sigma)[-1])
            if sens.value < -Z * sens.std_err:
                problems["estimate_sensitivity"].append(f"negative sensitivity {sens.value}")
            if sens.value > bound + Z * sens.std_err:
                problems["estimate_sensitivity"].append(
                    f"sensitivity {sens.value} above Lipschitz bound {bound}")
        curves = outputs.get("demo_curves")
        if curves is not None:
            argmin = float(curves.theta[int(np.argmin(curves.convexified))])
            if not -2.0 < argmin < 0.0 or not _finite(curves.convexified, curves.smoothed):
                problems["demo_curves"].append(f"convexified argmin {argmin} not in (-2, 0)")
        ref = DetMax(rnd["system"].A, rnd["system"].B, rnd["system"].Q, rnd["system"].R,
                     rnd["system"].sigma, rnd["alpha"])
        heavy = DetMax(rnd["system"].A, rnd["system"].B, rnd["system"].Q, rnd["system"].R,
                       rnd["system"].sigma, 4 * rnd["alpha"])
        for name in ("pg_derivative_free", "pg_model_based"):
            est = outputs.get(name)
            if est is None:
                continue
            if heavy.evaluate(rnd["gains"])[0] is None:
                problems[name].append("E[exp(4 alpha J)] is infinite; standard errors unusable")
                continue
            exact = ref.expectation(rnd["gains"])
            if not _agree(est.exp_cost_mean, est.exp_cost_std_err, exact, 0.0):
                problems[name].append(f"E[exp(alpha J)] {est.exp_cost_mean} vs closed form {exact}")
            if not _agree(est.mean, est.std_err, ref.expectation_grad(rnd["gains"]), 0.0):
                problems[name].append("gradient disagrees with the closed-form gradient")
        return problems


class CliDefaults(Workload):
    name = "cli_defaults"
    why = ("the ten CLI subcommands at their README defaults plus small-batch solve and "
           "per-row policy gradients: per-iteration and per-call overhead dominates")
    nominal_round_s = 1.2

    # README defaults of the CLI; smoke runs shrink them through config files.
    DEFAULTS = {"demo_samples": 20000, "classify_iters": 500, "nnet_iterations": 300,
                "nnet_batch": 64, "control_iterations": 2000, "control_batch": 128,
                "synth_iters": 300}

    def sizes(self, tiny):
        if tiny:
            return {"blob_rows": 60, "sine_rows": 30, "solve_T": 50, "pg_n": 16,
                    "demo_samples": 500, "classify_iters": 20, "nnet_iterations": 5,
                    "nnet_batch": 8, "control_iterations": 20, "control_batch": 8,
                    "synth_iters": 20}
        return dict(self.DEFAULTS, blob_rows=500, sine_rows=200, solve_T=2000, pg_n=256)

    def make_rounds(self, seed, rounds, tiny, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        sz = self.sizes(tiny)
        field = bump_field(rng)
        model = rc.RiskModel(alpha=4.0, sigma=0.25 * np.eye(4), reg=1.25 * np.eye(4))
        problem = tanh_system(rng, 4, 2, 6, vectorized=False)
        workdir.mkdir(parents=True, exist_ok=True)
        settings = {
            "demo": {"samples": sz["demo_samples"]},
            "classify": {"max_iters": sz["classify_iters"]},
            "nnet": {"iterations": sz["nnet_iterations"], "batch": sz["nnet_batch"],
                     "eval_every": max(1, sz["nnet_iterations"] // 6)},
            "control": {"iterations": sz["control_iterations"], "batch": sz["control_batch"]},
            "synth": {"max_iters": sz["synth_iters"]},
        }
        configs = {}
        if tiny:
            for key, values in settings.items():
                configs[key] = workdir / f"{key}.cfg"
                configs[key].write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                                        encoding="utf-8")
        out = []
        for i in range(rounds):
            base = workdir / f"round{i:03d}"
            base.mkdir(parents=True, exist_ok=True)
            labels = np.where(rng.uniform(size=sz["blob_rows"]) < 0.5, -1.0, 1.0)
            X = rng.standard_normal((sz["blob_rows"], 2))
            X[:, 0] += 2.0 * labels
            _write_rows(base / "blobs.csv", np.column_stack([X, labels]))
            x = rng.uniform(-1.0, 1.0, sz["sine_rows"])
            _write_rows(base / "sine.csv", np.column_stack([x, 0.4 * np.sin(2.0 * x)]))
            out.append({"sizes": sz, "dir": base, "configs": configs, "field": field,
                        "model": model, "problem": problem,
                        "seeds": [_seed(rng) % 2**62 for _ in range(9)]})
        return out

    def jobs(self, rnd):
        d, sz, seeds, cfg = rnd["dir"], rnd["sizes"], rnd["seeds"], rnd["configs"]

        def cli(args, samples, config=None):
            def job(done):
                extra = ["--config", cfg[config]] if config in cfg else []
                return run_cli(_with_config(args, extra)), samples
            return job

        def solve(done):
            config = rc.SolverConfig(iterations=sz["solve_T"], batch=1)
            report = rc.solve(rnd["field"], rnd["model"], rc.FeasibleSet.ball(np.zeros(4), 2.0),
                              config, rnd["model"].sampler(seeds[7]))
            return report, sz["solve_T"] + config.pilot_samples

        def pg(method, seed):
            def job(done):
                dyn, cost, policy, cmodel = rnd["problem"]
                return rc.policy_gradient_batch(dyn, cost, policy, cmodel,
                                                rc.GaussianSampler(seed, dim=1), sz["pg_n"],
                                                method), sz["pg_n"]
            return job

        pilot = rc.SolverConfig(iterations=1).pilot_samples
        return [
            ("demo-1d", cli(["--seed", seeds[0], "--out", d / "demo.csv", "demo-1d"],
                            121 * sz["demo_samples"], "demo")),
            ("classify train", cli(["--seed", seeds[1], "--out", d / "model.csv", "classify",
                                    "train", d / "blobs.csv"], 0, "classify")),
            ("classify eval", cli(["classify", "eval", d / "blobs.csv", d / "model.csv"], 0)),
            ("classify corrupt", cli(["--seed", seeds[2], "--out", d / "noisy.csv", "classify",
                                      "corrupt", d / "blobs.csv"], sz["blob_rows"])),
            ("nnet train", cli(["--seed", seeds[3], "--out", d / "net", "nnet", "train",
                                d / "sine.csv"],
                               sz["nnet_iterations"] * sz["nnet_batch"] + pilot, "nnet")),
            ("nnet eval", cli(["nnet", "eval", d / "sine.csv", d / "net"], 0)),
            ("control train", cli(["--seed", seeds[4], "--out", d / "gains", "control", "train"],
                                  sz["control_iterations"] * sz["control_batch"] + pilot,
                                  "control")),
            ("control rollout", cli(["--seed", seeds[5], "--out", d / "rollout.csv", "control",
                                     "rollout"], 1)),
            ("synth solve", cli(["--out", d / "synth", "synth", "solve"], 0, "synth")),
            ("synth eval", cli(["synth", "eval", d / "synth"], 0)),
            ("solve", solve),
            ("pg_derivative_free", pg("derivative_free", seeds[6])),
            ("pg_model_based", pg("model_based", seeds[8])),
        ]

    def check(self, rnd, outputs):
        d, sz = rnd["dir"], rnd["sizes"]
        problems = {name: [] for name in outputs}

        def require(name, ok, message):
            if name in outputs and not ok():
                problems[name].append(message)

        def kv(name, key):
            return outputs[name][key]

        require("demo-1d", lambda: -2.0 < float(kv("demo-1d", "convexified_argmin")) < 0.0,
                "convexified argmin not in (-2, 0)")
        require("demo-1d", lambda: _table_ok(d / "demo.csv", 121, 5), "demo CSV malformed")
        require("classify train", lambda: float(kv("classify train", "train_accuracy")) >= 0.9,
                "train accuracy below 0.9 on separated blobs")
        require("classify train", lambda: _table_ok(d / "model.csv", 2, 1), "model CSV malformed")
        require("classify eval", lambda: "classify train" in outputs and float(
            kv("classify eval", "accuracy")) == float(kv("classify train", "train_accuracy")),
            "eval accuracy differs from train accuracy on the same data")
        require("classify corrupt", lambda: int(kv("classify corrupt", "rows")) == sz["blob_rows"]
                and _table_ok(d / "noisy.csv", sz["blob_rows"], 3, header=False),
                "corrupted dataset malformed")
        require("nnet train", lambda: kv("nnet train", "certified") == "True"
                and math.isfinite(float(kv("nnet train", "train_mse")))
                and _table_ok(d / "net" / "K_01.csv", 6, 6)
                and _table_ok(d / "net" / "K_02.csv", 6, 6)
                and _table_ok(d / "net" / "curve.csv", None, 3), "nnet train outputs malformed")
        require("nnet eval", lambda: "nnet train" in outputs and float(kv("nnet eval", "mse"))
                == float(kv("nnet train", "train_mse")),
                "nnet eval MSE differs from the trained MSE on the same data")
        require("control train", lambda: kv("control train", "certified") == "True"
                and math.hypot(*map(float, kv("control train", "gains").split(","))) <= 0.6 + 1e-9
                and _table_ok(d / "gains" / "trace.csv", sz["control_iterations"], 5),
                "control train outputs malformed or gains outside the feasible ball")
        require("control rollout", lambda: math.isclose(
            float(kv("control rollout", "exp_cost")),
            math.exp(float(kv("control rollout", "cost"))), rel_tol=1e-12)
            and _table_ok(d / "rollout.csv", 3, 5), "rollout outputs malformed")
        require("synth solve", lambda: math.isfinite(float(kv("synth solve", "objective")))
                and _table_ok(d / "synth" / "K_01.csv", 1, 1), "synth solve outputs malformed")
        require("synth eval", lambda: "synth solve" in outputs
                and kv("synth eval", "feasible") == "True"
                and float(kv("synth eval", "objective")) == float(kv("synth solve", "objective")),
                "synth eval disagrees with synth solve")
        if "solve" in outputs:
            rep = outputs["solve"]
            if not (rep.certified and _finite(rep.theta_hat, rep.certificate)
                    and np.linalg.norm(rep.theta_hat) <= 2.0 * (1 + 1e-9)):
                problems["solve"].append("solve report not certified, finite and feasible")
        df, mb = outputs.get("pg_derivative_free"), outputs.get("pg_model_based")
        for name, est in (("pg_derivative_free", df), ("pg_model_based", mb)):
            if est is not None and not (_finite(est.mean, est.std_err)
                                        and est.exp_cost_mean >= 1.0):
                problems[name].append("estimate not finite or E[exp(alpha J)] < 1")
        if df is not None and mb is not None \
                and not _agree(df.mean, df.std_err, mb.mean, mb.std_err):
            problems["pg_model_based"].append("per-row estimators disagree beyond 5 sigma")
        return problems


def _with_config(args, extra):
    """Insert global --config flags before the subcommand words."""
    args = list(args)
    split = 0
    while split < len(args) and str(args[split]).startswith("--"):
        split += 2
    return args[:split] + extra + args[split:]


def _table_ok(path, rows, cols, header=True) -> bool:
    head, body = _read_table(path, header)
    if header and len(head) != cols:
        return False
    if rows is not None and len(body) != rows:
        return False
    return bool(body) and all(len(r) == cols for r in body)


class PathwiseAdjoint(Workload):
    name = "pathwise_adjoint"
    why = ("model-based (adjoint) gradients on a noisy 16-wide net and an 8-state tanh "
           "system: the dense-Jacobian backward pass dominates")
    nominal_round_s = 1.8

    def sizes(self, tiny):
        return ({"widths": [1, 16, 16, 1], "iterations": 2, "batch": 8, "data_rows": 20,
                 "pg_n": 64} if tiny else
                {"widths": [1, 16, 16, 1], "iterations": 40, "batch": 64, "data_rows": 100,
                 "pg_n": 2**13})

    def make_rounds(self, seed, rounds, tiny, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        sz = self.sizes(tiny)
        problem = tanh_system(rng, 8, 4, 10, vectorized=True)
        out = []
        for _ in range(rounds):
            x = rng.uniform(-1.0, 1.0, sz["data_rows"])
            out.append({"sizes": sz, "problem": problem, "x": x, "y": 0.5 * np.sin(2.0 * x),
                        "seeds": [_seed(rng) for _ in range(3)]})
        return out

    def net_config(self, sz):
        layers = len(sz["widths"]) - 1
        # The sub-boundary penalty of the acceptance suite's regression
        # criterion; it voids the certificate, so training is forced.
        return rc_noisynet.NoisyNetConfig(widths=sz["widths"], alpha=3.0,
                                          noise_scales=[0.15] * layers,
                                          penalty_weights=[0.05] * layers, loss_bound=0.5)

    def jobs(self, rnd):
        sz, seeds = rnd["sizes"], rnd["seeds"]

        def net(done):
            data = rc_datasets.Dataset(X=rnd["x"][:, None], y=rnd["y"])
            rep = rc_noisynet.train_noisy_net(
                data, self.net_config(sz), rc.GaussianSampler(seeds[0], dim=1),
                iterations=sz["iterations"], batch=sz["batch"], radius=4.0,
                eval_every=max(1, sz["iterations"] // 2), force=True, method="model_based")
            return rep, sz["iterations"] * sz["batch"] + 200

        def pg(done):
            dyn, cost, policy, model = rnd["problem"]
            return rc.policy_gradient_batch(dyn, cost, policy, model,
                                            rc.GaussianSampler(seeds[1], dim=1), sz["pg_n"],
                                            "model_based"), sz["pg_n"]

        return [("train_noisy_net", net), ("pg_model_based", pg)]

    def check(self, rnd, outputs):
        sz = rnd["sizes"]
        problems = {name: [] for name in outputs}
        rep = outputs.get("train_noisy_net")
        if rep is not None:
            stacked = np.concatenate([np.ravel(w) for w in rep.weights])
            last = rep.curve[-1] if rep.curve else (None,)
            if rep.certified or not _finite(stacked, rep.final_train_mse) \
                    or np.linalg.norm(stacked) > 4.0 * (1 + 1e-9) \
                    or last[0] != sz["iterations"] * sz["batch"]:
                problems["train_noisy_net"].append(
                    "forced run must be uncertified, finite, inside the ball, with a full curve")
        est = outputs.get("pg_model_based")
        if est is not None:
            # Reference: the likelihood-ratio estimator on an independent stream.
            dyn, cost, policy, model = rnd["problem"]
            ref = rc.policy_gradient_batch(dyn, cost, policy, model,
                                           rc.GaussianSampler(rnd["seeds"][2], dim=1),
                                           sz["pg_n"], "derivative_free")
            if not (_finite(est.mean, est.std_err)
                    and _agree(est.mean, est.std_err, ref.mean, ref.std_err)):
                problems["pg_model_based"].append(
                    "model-based gradient disagrees with the likelihood-ratio reference")
        return problems


class DetmaxSynth(Workload):
    name = "detmax_synth"
    why = ("det-max synthesis at N=30, unstructured and decentralized: W(K) assembly, "
           "eigendecompositions, inverse and backtracking dominate")
    nominal_round_s = 1.75
    has_detmax_gap = True

    MASK = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)

    def sizes(self, tiny):
        return ({"n": 4, "m": 2, "N": 6, "max_iters": 20, "mc_n": 2**8} if tiny else
                {"n": 4, "m": 2, "N": 30, "max_iters": 300, "mc_n": 2**12})

    def make_rounds(self, seed, rounds, tiny, workdir):
        sz = self.sizes(tiny)
        n, m, N = sz["n"], sz["m"], sz["N"]
        # A fixed base system, perturbed per round from the workload seed:
        # the base makes every run do comparable work, so run times vary
        # little from seed to seed, and it does not converge in 300 steps.
        base = np.random.default_rng(3)
        A0 = base.standard_normal((n, n))
        A0 *= 0.8 / max(abs(np.linalg.eigvals(A0)))
        B0 = 0.5 * base.standard_normal((n, m))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        out = []
        for _ in range(rounds):
            A = A0 + 0.03 * rng.standard_normal((n, n))
            B = B0 + 0.03 * rng.standard_normal((n, m))
            system = rc.LinearSystem(A=[A] * (N - 1), B=[B] * (N - 1),
                                     Q=[0.005 * np.eye(n)] * N, R=[np.eye(m)] * (N - 1),
                                     sigma=[np.eye(m)] * (N - 1), horizon=N)
            out.append({"sizes": sz, "system": system, "alpha": 1.0,
                        "masks": [self.MASK] * (N - 1), "seeds": [_seed(rng) for _ in range(2)]})
        return out

    def jobs(self, rnd):
        sz, system, alpha = rnd["sizes"], rnd["system"], rnd["alpha"]
        cfg = rc_synthesis.SynthesisConfig(max_iters=sz["max_iters"])

        def synth(structure):
            return lambda done: (rc.synthesize(system, alpha, structure=structure, config=cfg), 0)

        def closed_form(done):
            return [rc.closed_form_expectation(system, alpha, done[k].gains)
                    for k in ("synthesize", "synthesize_masked")], 0

        def simulate(done):
            ests = []
            for key, seed in zip(("synthesize", "synthesize_masked"), rnd["seeds"]):
                dyn, cost, policy, model = rc_benchmarks.linear_control_problem(
                    system, alpha, gains=done[key].gains)
                ests.append(rc.policy_gradient_batch(dyn, cost, policy, model,
                                                     rc.GaussianSampler(seed, dim=1), sz["mc_n"],
                                                     "derivative_free"))
            return ests, 2 * sz["mc_n"]

        return [("synthesize", synth(None)), ("synthesize_masked", synth(rnd["masks"])),
                ("closed_form", closed_form), ("simulate", simulate)]

    def _refs(self, rnd):
        if "refs" not in rnd:
            s = rnd["system"]
            ref = DetMax(s.A, s.B, s.Q, s.R, s.sigma, rnd["alpha"])
            full = [np.ones_like(self.MASK)] * (s.horizon - 1)
            rnd["refs"] = (ref, DetMax(s.A, s.B, s.Q, s.R, s.sigma, 4 * rnd["alpha"]),
                           {"synthesize": ref.maximize(full),
                            "synthesize_masked": ref.maximize(rnd["masks"])})
        return rnd["refs"]

    def check(self, rnd, outputs):
        problems = {name: [] for name in outputs}
        ref, heavy, optimum = self._refs(rnd)
        for key in ("synthesize", "synthesize_masked"):
            rep = outputs.get(key)
            if rep is None:
                continue
            logdet, _ = ref.evaluate(rep.gains)
            if not rep.success or logdet is None:
                problems[key].append("synthesis failed or W(K) is not positive definite")
                continue
            if not math.isclose(logdet, rep.objective, rel_tol=1e-8, abs_tol=1e-8):
                problems[key].append(f"reported objective {rep.objective} vs log det W {logdet}")
            if rep.objective > optimum[key] + 1e-9 * (1 + abs(optimum[key])):
                problems[key].append("objective beats the reference optimum: reference failed")
        full, masked = outputs.get("synthesize"), outputs.get("synthesize_masked")
        if full is not None and masked is not None and \
                masked.objective > full.objective + 1e-9 * (1 + abs(full.objective)):
            problems["synthesize_masked"].append("masked objective exceeds the unmasked one")
        keys = ("synthesize", "synthesize_masked")
        if "closed_form" in outputs:
            for key, value in zip(keys, outputs["closed_form"]):
                if not math.isclose(value, ref.expectation(outputs[key].gains), rel_tol=1e-8):
                    problems["closed_form"].append(f"closed form for {key} disagrees")
        if "simulate" in outputs:
            for key, est in zip(keys, outputs["simulate"]):
                if heavy.evaluate(outputs[key].gains)[0] is None:
                    problems["simulate"].append("E[exp(4 alpha J)] is infinite")
                elif not _agree(est.exp_cost_mean, est.exp_cost_std_err,
                                ref.expectation(outputs[key].gains), 0.0):
                    problems["simulate"].append(f"simulated E[exp(alpha J)] for {key} disagrees")
        return problems

    def gap(self, rnd, outputs):
        """Reference optimum minus the reached optimum, summed over the round's solves."""
        _, _, optimum = self._refs(rnd)
        return sum(optimum[k] - outputs[k].objective for k in optimum if k in outputs)


WORKLOADS = {w.name: w for w in (McLargeN(), CliDefaults(), PathwiseAdjoint(), DetmaxSynth())}
