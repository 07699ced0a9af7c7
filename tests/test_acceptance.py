"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints one ``ACCEPTANCE <nn> PASS`` line (visible with -s, or in
captured output) after its assertions; a failing criterion fails its test.
Criteria with wall-clock budgets assert them.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.classify import ClassifierConfig, erfc_loss, train_classifier
from riskconvex.control import policy_gradient_batch, policy_gradient_model_based, rollout, train_policy
from riskconvex.datasets import Dataset, corrupt_labels, make_blobs, make_sine
from riskconvex.demo1d import demo_curves, uniform_grid
from riskconvex.fields import linear_field
from riskconvex.noisynet import NoisyNetConfig, train_noisy_net
from riskconvex.objective import (
    RiskModel,
    check_convexity_certificate,
    exp_objective,
    isotropic_model,
    log_exp_objective,
    unbiased_grad_mean,
)
from riskconvex.sampling import GaussianSampler
from riskconvex.sensitivity import estimate_sensitivity, lipschitz_gap_bound
from riskconvex.solver import (
    FeasibleSet,
    SolverConfig,
    VarianceBoundInputs,
    convergence_certificate,
    solve,
    variance_bound,
)
from riskconvex.synthesis import LinearSystem, closed_form_expectation, detmax_objective, synthesize
from support import bump_field, certified_model, scalar_grid_objective, smooth_control_problem


def report(number, detail=""):
    print(f"ACCEPTANCE {number:02d} PASS {detail}")


def test_criterion_01_certificate_correctness():
    cases = [
        (RiskModel(1.0, np.eye(2), np.eye(2)), 0.0, True),
        (RiskModel(2.0, np.diag([1.0, 0.25]), np.eye(2)), -2.0, False),
        (RiskModel(4.0, np.eye(2), np.diag([1.0, 2.0])), 3.0, True),
    ]
    worst = 0.0
    for model, margin, holds in cases:
        cert = check_convexity_certificate(model)
        assert cert.holds == holds
        assert cert.margin == pytest.approx(margin, abs=1e-9)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            check_convexity_certificate(model)
            best = min(best, time.perf_counter() - t0)
        worst = max(worst, best)
        assert best < 1e-3
    report(1, f"margins (0, -2, 3) exact; slowest check {worst * 1e6:.0f} us < 1 ms")


def test_criterion_02_analytic_gaussian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 1_000_000
    for case in range(50):
        dim = int(rng.integers(1, 4))
        a = rng.standard_normal(dim)
        a /= max(np.linalg.norm(a), 1.0)
        theta = rng.uniform(-1.0, 1.0, size=dim)
        alpha = float(rng.uniform(0.5, 2.0))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        sigma = (q * rng.uniform(0.1, 1.0, size=dim)) @ q.T
        reg_root = rng.standard_normal((dim, dim)) * 0.5
        model = RiskModel(alpha, sigma, reg_root @ reg_root.T)
        est = log_exp_objective(linear_field(a), model, theta, n,
                                model.sampler(int(rng.integers(0, 2**63))))
        expected = float(a @ theta) + 0.5 * alpha * float(a @ sigma @ a) + model.quad(theta)
        assert abs(est.value - expected) <= 3.0 * est.std_err, f"case {case}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"50 draws at n=1e6 within 3 std errs in {elapsed:.1f} s < 30 s")


def test_criterion_03_midpoint_convexity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 4000
    failures = 0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        f = bump_field(rng, dim)
        model = certified_model(rng, dim)
        t1 = rng.uniform(-1.5, 1.5, size=dim)
        t2 = rng.uniform(-1.5, 1.5, size=dim)
        mid = 0.5 * (t1 + t2)
        draws = model.sampler(int(rng.integers(0, 2**63))).draw(n) @ model.sigma_root

        def g(th):
            return np.exp(model.alpha * f.evaluate_batch(th + draws)
                          + model.alpha * model.quad(th))

        d = g(mid) - 0.5 * g(t1) - 0.5 * g(t2)
        if d.mean() > 3.0 * d.std(ddof=1) / math.sqrt(n) + 1e-12:
            failures += 1
    elapsed = time.perf_counter() - t0
    assert failures <= 1
    assert elapsed < 300.0
    report(3, f"{100 - failures}/100 cases within 3 std errs in {elapsed:.1f} s < 5 min")


def test_criterion_04_gradient_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for case in range(20):
        dim = int(rng.integers(1, 3))
        f = bump_field(rng, dim)
        model = certified_model(rng, dim)
        theta = rng.uniform(-0.8, 0.8, size=dim)
        mean, se = unbiased_grad_mean(f, model, theta, 100_000,
                                      model.sampler(int(rng.integers(0, 2**63))))
        h = 1e-3
        fd_seed = int(rng.integers(0, 2**63))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            hi = exp_objective(f, model, theta + e, 1_000_000, model.sampler(fd_seed))
            lo = exp_objective(f, model, theta - e, 1_000_000, model.sampler(fd_seed))
            fd = (hi.value - lo.value) / (2.0 * h)
            fd_se = (hi.std_err + lo.std_err) / (2.0 * h)
            assert abs(mean[j] - fd) <= 3.0 * (se[j] + fd_se), f"case {case} coord {j}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, f"20 problems, per-coordinate 3-sigma agreement in {elapsed:.1f} s < 5 min")


def test_criterion_05_sensitivity_bound_and_tightness():
    from test_sensitivity import one_lipschitz_fields

    rng = np.random.default_rng(505)
    sigmas = (0.1, 0.5, 1.0, 2.0)
    alphas = (0.5, 1.0, 4.0)
    for sigma in sigmas:
        for alpha in alphas:
            model = isotropic_model(alpha, sigma**2, 0.0, 2)
            bound = lipschitz_gap_bound(1.0, model).gap_bound
            assert bound == pytest.approx(0.5 * alpha * sigma**2, rel=1e-12)
            for f in one_lipschitz_fields(2):
                est = estimate_sensitivity(f, model, [0.1, -0.2], 200_000,
                                           model.sampler(int(rng.integers(0, 2**63))))
                assert est.value <= bound + 3.0 * est.std_err, (sigma, alpha)
    # Tightness on linear fields. The estimator's relative standard error
    # at n = 1e6 is about 2/(alpha*sigma*1000), so 2% is resolvable only
    # for moderate alpha*sigma; elsewhere the 3-sigma band is the honest
    # tolerance, and the heavy-tail cells (alpha*sigma > 2) are excluded.
    checked = 0
    for sigma in sigmas:
        for alpha in alphas:
            if alpha * sigma > 2.0:
                continue
            model = isotropic_model(alpha, sigma**2, 0.0, 1)
            est = estimate_sensitivity(linear_field([1.0]), model, [0.0], 1_000_000,
                                       model.sampler(int(rng.integers(0, 2**63))))
            bound = 0.5 * alpha * sigma**2
            tol = max(0.02 * bound, 3.0 * est.std_err)
            assert abs(est.value - bound) <= tol, (sigma, alpha)
            if alpha * sigma >= 0.4:
                assert abs(est.value - bound) / bound < 0.02, (sigma, alpha)
                checked += 1
    report(5, f"bound holds in all 12 cells; linear tightness < 2% relative in "
              f"{checked} cells with 0.4 <= alpha*sigma <= 2 (outside, the n=1e6 "
              "estimator cannot statistically resolve 2%)")


def test_criterion_06_solver_certificate():
    from riskconvex.fields import constant_field

    t0 = time.perf_counter()
    f = constant_field(0.0, 2)
    model = isotropic_model(1.0, 1.0, 1.0, 2)
    fs = FeasibleSet.ball(np.zeros(2), 1.0)
    for T in (100, 1000, 10000):
        ok = 0
        for seed in range(20):
            rep = solve(f, model, fs, SolverConfig(iterations=T), model.sampler(seed))
            gap = math.exp(0.5 * float(rep.theta_hat @ rep.theta_hat)) - 1.0
            cert = convergence_certificate(fs.radius_bound, rep.empirical_zeta(), T)
            ok += gap <= cert
        assert ok >= 18, f"T={T}: {ok}/20"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, f"gap <= empirical certificate for all T in 20/20 seeds "
              f"(start 0 is the analytic fixed point) in {elapsed:.1f} s < 2 min")


def test_criterion_07_variance_bound_formula():
    value = variance_bound(VarianceBoundInputs(alpha=1.0, kappa=1.0, sigma=1.0,
                                               beta=0.5, gamma_sq=1.0, mbar=0.0,
                                               radius=1.0))
    expected = 4.0 * math.exp(2.0)
    assert abs(value - expected) / expected < 1e-9
    report(7, f"closed form = {value!r} matches 4e^2 to {abs(value - expected) / expected:.1e}")


def test_criterion_08_pathwise_policy_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 7))
        dyn, cost, pol, model = smooth_control_problem(rng, n, m, horizon)
        sampler = GaussianSampler(int(rng.integers(0, 2**63)), dim=1)
        g = policy_gradient_model_based(dyn, cost, pol, model, sampler)
        frozen = g.rollout.frozen()
        fd = np.zeros_like(g.exp_gradient)
        h = 3e-6
        for t in range(horizon - 1):
            for i in range(m):
                for j in range(pol.feature_dim):
                    up = [k.copy() for k in pol.gains]
                    dn = [k.copy() for k in pol.gains]
                    up[t][i, j] += h
                    dn[t][i, j] -= h
                    hi = rollout(dyn, cost, pol.with_gains(up), model, sampler,
                                 frozen=frozen)
                    lo = rollout(dyn, cost, pol.with_gains(dn), model, sampler,
                                 frozen=frozen)
                    fd[t, i, j] = (hi.exp_cost - lo.exp_cost) / (2.0 * h)
        rel = np.linalg.norm(g.exp_gradient - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel <= 1e-5, f"case {case}: rel err {rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"50 systems, worst rel err {worst:.2e} <= 1e-5 in {elapsed:.1f} s < 1 min")


def test_criterion_09_estimator_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for case in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(3, 6))
        dyn, cost, pol, model = smooth_control_problem(rng, n, m, horizon)
        mb = policy_gradient_batch(dyn, cost, pol, model,
                                   GaussianSampler(int(rng.integers(0, 2**63)), dim=1),
                                   100_000, "model_based")
        df = policy_gradient_batch(dyn, cost, pol, model,
                                   GaussianSampler(int(rng.integers(0, 2**63)), dim=1),
                                   100_000, "derivative_free")
        gap = np.abs(mb.mean - df.mean) - 3.0 * (mb.std_err + df.std_err)
        assert np.all(gap <= 1e-12), f"case {case}: worst excess {gap.max()}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"10 systems x 1e5 rollouts, 3-sigma intervals overlap entrywise "
              f"in {elapsed:.1f} s < 5 min")


@pytest.mark.filterwarnings("ignore:per-step certificate fails")
def test_criterion_10_leqg_triangle():
    t0 = time.perf_counter()
    bench = ScalarBenchmark()
    assert bench.certified()

    grid = np.round(np.arange(-2.0, 0.0 + 1e-9, 1e-3), 9)
    values = scalar_grid_objective(bench, grid, 1_000_000, GaussianSampler(41, dim=1))
    k_grid = float(grid[int(np.argmin(values))])

    synth = synthesize(bench.system(), bench.alpha)
    assert synth.success and synth.converged
    k_synth = float(synth.gains[1][0, 0])

    dyn, cost, policy0, model = bench.problem()
    constraint = FeasibleSet.ball(np.zeros(bench.horizon - 1), 0.6)
    trained, _ = train_policy(dyn, cost, policy0, model, "derivative_free",
                              SolverConfig(iterations=4000, batch=256, pilot_samples=400),
                              constraint, GaussianSampler(42, dim=1))
    k_train = float(trained.gains[1][0, 0])

    def rel_gap(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    for a, b, tag in ((k_grid, k_synth, "grid/synth"),
                      (k_grid, k_train, "grid/train"),
                      (k_synth, k_train, "synth/train")):
        assert rel_gap(a, b) <= 0.05, f"{tag}: {a} vs {b}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(10, f"gains grid={k_grid:.4f}, detmax={k_synth:.4f}, trained={k_train:.4f} "
               f"agree within 5% pairwise in {elapsed:.1f} s < 5 min")


def test_criterion_11_detmax_monte_carlo_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    done = 0
    while done < 10:
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 5))
        scale = 1.0
        for _ in range(8):
            def psd(k, s):
                mat = rng.standard_normal((k, k))
                return s * (mat @ mat.T) / k + 0.1 * s * np.eye(k)

            sys = LinearSystem(
                A=[0.7 * rng.standard_normal((n, n)) / math.sqrt(n)
                   for _ in range(horizon - 1)],
                B=[rng.standard_normal((n, m)) / math.sqrt(m) for _ in range(horizon - 1)],
                Q=[psd(n, 0.04 * scale) for _ in range(horizon)],
                R=[psd(m, 0.4) + 0.4 * np.eye(m) for _ in range(horizon - 1)],
                sigma=[psd(m, 0.2) + 0.8 * np.eye(m) for _ in range(horizon - 1)],
                horizon=horizon,
            )
            gains = [0.1 * scale * rng.standard_normal((m, n)) for _ in range(horizon - 1)]
            alpha = 0.8
            res = detmax_objective(sys, alpha, gains)
            if res.feasible and res.min_eig > 0.3:
                break
            scale *= 0.5
        else:
            continue
        closed = closed_form_expectation(sys, alpha, gains)
        dyn, cost, policy, model = linear_control_problem(sys, alpha, gains=gains)
        est = policy_gradient_batch(dyn, cost, policy, model,
                                    GaussianSampler(int(rng.integers(0, 2**63)), dim=1),
                                    1_000_000, "derivative_free")
        assert abs(est.exp_cost_mean - closed) <= 3.0 * est.exp_cost_std_err, (
            f"instance {done}: closed {closed} vs MC {est.exp_cost_mean} "
            f"+/- {est.exp_cost_std_err}")
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(11, f"closed form within 3 std errs of 1e6-rollout MC on 10 instances "
               f"in {elapsed:.1f} s < 10 min")


def test_criterion_12_demo_curve_convexity_and_robust_argmin():
    t0 = time.perf_counter()
    grid = uniform_grid(-3.0, 3.0, 121)
    curves = demo_curves(4.0, 0.5, 1.0, grid, 1_000_000, GaussianSampler(12, dim=1))
    c, se = curves.convexified, curves.convexified_std_err
    second = c[2:] + c[:-2] - 2.0 * c[1:-1]
    slack = 3.0 * (se[2:] + se[:-2] + 2.0 * se[1:-1]) + 1e-9
    assert np.all(second >= -slack), f"worst violation {float((second + slack).min())}"
    argmin = float(grid[int(np.argmin(c))])
    assert -2.0 < argmin < 0.0, f"argmin {argmin} outside the robust basin"
    raw_argmin = float(grid[int(np.argmin(curves.objective))])
    assert abs(raw_argmin - 1.5) < 0.11  # the raw objective still prefers the narrow well
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(12, f"second differences >= -3 std errs everywhere; argmin {argmin:.2f} "
               f"in the robust basin (raw argmin {raw_argmin:.2f}) in {elapsed:.1f} s < 1 min")


def test_criterion_13_classification():
    # hand values from an independent high-precision evaluator
    assert abs(erfc_loss(np.zeros(2), [1.0, 1.0], 1.0, 1.0)
               - (-0.6931471805599453)) < 1e-6
    sigma = 1.0
    z = math.sqrt(2.0) * sigma  # margin sqrt(2) sigma, quadratic term exactly 1
    assert abs(erfc_loss(np.array([z]), [1.0], 1.0, sigma)
               - (-2.5427526904931934 + 1.0)) < 1e-6

    accs = []
    for seed in range(20):
        sampler = GaussianSampler(1300 + seed, dim=1)
        train = make_blobs(500, sampler, separation=4.0)
        test = make_blobs(500, sampler, separation=4.0)
        rep = train_classifier(train, ClassifierConfig(sigma=1.0), test=test)
        accs.append(rep.test_accuracy)
    assert min(accs) >= 0.95, f"worst accuracy {min(accs)}"

    m = 100_000
    ds = Dataset(X=np.zeros((m, 1)), y=np.ones(m))
    flipped = corrupt_labels(ds, 1.0, GaussianSampler(77, dim=1))
    rate = float(np.mean(flipped.y != ds.y))
    assert abs(rate - norm.cdf(-1.0)) <= 0.01
    report(13, f"erfc hand values to 1e-6; blob accuracy min {min(accs):.3f} >= 0.95 "
               f"over 20 seeds; flip rate {rate:.4f} vs {norm.cdf(-1.0):.4f} +/- 0.01")


@pytest.mark.filterwarnings("ignore:per-step certificate fails")
def test_criterion_14_noisy_net_regression(tmp_path):
    from riskconvex.csvio import read_float_table

    t0 = time.perf_counter()
    cfg = NoisyNetConfig(widths=[1, 4, 1], alpha=3.0, noise_scales=[0.15, 0.15],
                         penalty_weights=[0.05, 0.05], loss_bound=0.5)
    ratios = []
    last = None
    for seed in range(20):
        data_sampler, train_sampler = GaussianSampler(1400 + seed, dim=1).split(2)
        ds = make_sine(100, data_sampler, amplitude=0.5, frequency=2.0)
        rep = train_noisy_net(ds, cfg, train_sampler, iterations=1500, batch=64,
                              radius=4.0, eval_every=500, force=True)
        ratios.append(rep.final_train_mse / float(np.var(ds.y)))
        last = rep
    median = float(np.median(ratios))
    assert median <= 0.1, f"median MSE ratio {median}"

    path = tmp_path / "curve.csv"
    last.write_curve_csv(path)
    header, rows = read_float_table(path, header=True)
    assert header == ["evaluations", "train_loss", "test_loss"]
    assert [tuple(map(float, row)) for row in last.curve] == [tuple(r) for r in rows]
    elapsed = time.perf_counter() - t0
    report(14, f"median final train MSE = {median:.4f} x target variance <= 0.1 over "
               f"20 seeds; curve CSV round-trips ({elapsed:.1f} s)")


@pytest.mark.filterwarnings("ignore:per-step certificate fails")
def test_criterion_15_cli_determinism(tmp_path):
    from riskconvex.cli import main
    from riskconvex.datasets import save_dataset, sign_plus

    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 2))
    cls_csv = tmp_path / "cls.csv"
    save_dataset(cls_csv, Dataset(X=X, y=sign_plus(X[:, 0] + 0.4 * rng.standard_normal(30))))
    sine_csv = tmp_path / "sine.csv"
    save_dataset(sine_csv, make_sine(30, GaussianSampler(1, dim=1), amplitude=0.5))

    demo_cfg = tmp_path / "demo.cfg"
    demo_cfg.write_text("grid_points = 9\nsamples = 400\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("test_split = 0.2\n")
    corrupt_cfg = tmp_path / "corrupt.cfg"
    corrupt_cfg.write_text("sigma_noise = 0.7\n")
    nnet_cfg = tmp_path / "nnet.cfg"
    nnet_cfg.write_text("widths = 1,4,1\nalpha = 3.0\nsigma = 0.15\npenalty = 0.05\n"
                        "iterations = 20\nbatch = 8\neval_every = 10\nforce = true\n")
    nnet_eval_cfg = tmp_path / "nneteval.cfg"
    nnet_eval_cfg.write_text("widths = 1,4,1\n")
    control_cfg = tmp_path / "control.cfg"
    control_cfg.write_text("iterations = 25\nbatch = 8\n")

    def commands(base):
        model = base / "model.csv"
        gains = base / "gains"
        net = base / "net"
        synth_dir = base / "synth"
        return [
            (["--seed", "7", "--out", str(base / "demo.csv"), "--config",
              str(demo_cfg), "demo-1d"], [base / "demo.csv"]),
            (["--seed", "7", "--out", str(model), "--config", str(train_cfg),
              "classify", "train", str(cls_csv)], [model]),
            (["--seed", "7", "--out", str(base / "acc.csv"), "classify", "eval",
              str(cls_csv), str(model)], [base / "acc.csv"]),
            (["--seed", "7", "--out", str(base / "corr.csv"), "--config",
              str(corrupt_cfg), "classify", "corrupt", str(cls_csv)],
             [base / "corr.csv"]),
            (["--seed", "7", "--out", str(net), "--config", str(nnet_cfg),
              "nnet", "train", str(sine_csv)],
             [net / "K_01.csv", net / "K_02.csv", net / "curve.csv"]),
            (["--seed", "7", "--out", str(base / "mse.csv"), "--config",
              str(nnet_eval_cfg), "nnet", "eval", str(sine_csv), str(net)],
             [base / "mse.csv"]),
            (["--seed", "7", "--out", str(gains), "--config", str(control_cfg),
              "control", "train"],
             [gains / "K_01.csv", gains / "K_02.csv", gains / "trace.csv"]),
            (["--seed", "7", "--out", str(base / "roll.csv"), "control", "rollout"],
             [base / "roll.csv"]),
            (["--seed", "7", "--out", str(synth_dir), "synth", "solve"],
             [synth_dir / "K_01.csv", synth_dir / "K_02.csv"]),
            (["--seed", "7", "--out", str(base / "syntheval.csv"), "synth", "eval",
              str(synth_dir)], [base / "synth" / "K_01.csv", base / "syntheval.csv"]),
        ]

    runs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        digest = {}
        for argv, outputs in commands(base):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0, argv
            for out_path in outputs:
                digest[str(out_path.relative_to(base))] = out_path.read_bytes()
        runs.append(digest)
    assert runs[0] == runs[1]
    report(15, f"{len(runs[0])} output CSVs across all 10 subcommands byte-identical "
               "on rerun with equal seed and config")
