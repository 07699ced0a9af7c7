import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riskconvex
from riskconvex.errors import (
    ContractError,
    DegenerateEstimateError,
    EstimateOverflowError,
    IllConditionedError,
)
from riskconvex.fields import ScalarField, constant_field, linear_field
from riskconvex.objective import (
    ConvexityCertificate,
    RiskModel,
    _block_rows,
    _log_mean_exp,
    check_convexity_certificate,
    check_exponents,
    exp_objective,
    isotropic_model,
    log_exp_objective,
    log_mean_exp,
    smoothed_value,
    unbiased_grad_mean,
)
from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.control import ControlRiskModel, check_control_certificate, train_policy
from riskconvex.datasets import make_sine
from riskconvex.errors import CertificateError
from riskconvex.noisynet import NoisyNetConfig, build_control_problem, train_noisy_net
from riskconvex.sampling import GaussianSampler
from riskconvex.sensitivity import certify_gap, estimate_sensitivity
from riskconvex.solver import FeasibleSet, SolverConfig, VarianceBoundInputs, solve
from riskconvex.synthesis import LinearSystem, detmax_objective, synthesize
from support import bump_field, certified_model, solve_with_iterates

EXP_HALF = 1.6487212707001282  # float(np.exp(0.5))


class TestCertificate:
    def test_boundary_case_holds_with_zero_margin(self):
        cert = check_convexity_certificate(isotropic_model(1.0, 1.0, 1.0, 2))
        assert cert.holds and cert.margin == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_failure_margin(self):
        model = RiskModel(2.0, np.diag([1.0, 0.25]), np.eye(2))
        cert = check_convexity_certificate(model)
        assert not cert.holds
        assert cert.margin == pytest.approx(-2.0, abs=1e-9)

    def test_diagonal_pass_margin(self):
        model = RiskModel(4.0, np.eye(2), np.diag([1.0, 2.0]))
        cert = check_convexity_certificate(model)
        assert cert.holds
        assert cert.margin == pytest.approx(3.0, abs=1e-9)

    def test_singular_sigma_is_ill_conditioned(self):
        # Sigma is factored when the model is built, not at the first check.
        with pytest.raises(IllConditionedError):
            RiskModel(1.0, np.diag([1.0, 1e-15]), np.eye(2))

    def test_model_validation(self):
        with pytest.raises(ContractError):
            RiskModel(0.0, np.eye(1), np.eye(1))
        with pytest.raises(ContractError):
            RiskModel(1.0, np.eye(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("build", [
        lambda: RiskModel(np.inf, np.eye(1), np.eye(1)),
        lambda: RiskModel(1.0, np.eye(1), [[np.inf]]),
        lambda: RiskModel(1.0, [[np.inf]], np.eye(1)),
        lambda: RiskModel(1.0, np.diag([1.0, np.nan]), np.eye(2)),
        lambda: RiskModel(1.0, 0.25, np.inf),
        lambda: ControlRiskModel(np.inf, [np.eye(1)]),
        lambda: NoisyNetConfig(widths=[1, 1], alpha=np.inf, noise_scales=[1.0]),
        lambda: VarianceBoundInputs(alpha=np.inf, kappa=1.0, sigma=1.0, beta=0.0,
                                    gamma_sq=1.0, mbar=0.0, radius=1.0),
        lambda: ScalarBenchmark(alpha=np.inf),
        lambda: ScalarBenchmark(q=np.inf),
        lambda: detmax_objective(ScalarBenchmark().system(), np.inf, np.zeros((2, 1, 1))),
        lambda: LinearSystem(A=[[[1.0]]], B=[[[1.0]]], Q=[[[np.inf]], [[1.0]]], R=[[[1.0]]],
                             sigma=[[[1.0]]], horizon=2),
    ], ids=["alpha", "reg", "sigma", "sigma-nan", "scalar-reg", "control-alpha", "noisynet",
            "variance-bound", "benchmark-alpha", "benchmark-q", "detmax", "system-Q"])
    def test_infinite_model_inputs_are_contract_errors(self, build):
        with pytest.raises(ContractError, match="finite"):
            build()

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("build", [
        lambda a: RiskModel(a, np.eye(1), np.eye(1)),
        lambda a: ControlRiskModel(a, [np.eye(1)]),
        lambda a: NoisyNetConfig(widths=[1, 1], alpha=a, noise_scales=[1.0]),
        lambda a: detmax_objective(ScalarBenchmark().system(), a, np.zeros((2, 1, 1))),
        lambda a: VarianceBoundInputs(alpha=a, kappa=1.0, sigma=1.0, beta=0.0, gamma_sq=1.0,
                                      mbar=0.0, radius=1.0),
    ], ids=["risk-model", "control-model", "noisynet", "detmax", "variance-bound"])
    def test_every_alpha_meets_one_rule(self, build, alpha):
        with pytest.raises(ContractError, match=r"^alpha must be positive and finite$"):
            build(alpha)


def _moments(est):
    return np.array([est.value, est.std_err])


# The static estimators and solve, as (field, model, theta, sampler) -> array.
STATIC_RUNS = {
    "smoothed_value": lambda f, m, th, s: _moments(smoothed_value(f, m, th, 500, s)),
    "log_exp_objective": lambda f, m, th, s: _moments(log_exp_objective(f, m, th, 500, s)),
    "exp_objective": lambda f, m, th, s: _moments(exp_objective(f, m, th, 500, s)),
    "unbiased_grad_mean": lambda f, m, th, s: np.concatenate(unbiased_grad_mean(f, m, th,
                                                                                500, s)),
    "estimate_sensitivity": lambda f, m, th, s: _moments(estimate_sensitivity(f, m, th,
                                                                              500, s)),
    "certify_gap": lambda f, m, th, s: np.array([certify_gap(f, m, th, 500, s).gap_bound]),
    "solve": lambda f, m, th, s: solve_with_iterates(f, m, FeasibleSet.ball(np.zeros(m.dim), 1.0),
                                                     SolverConfig(iterations=20, batch=4,
                                                                  theta0=th), s)[1],
}


class TestOneNoiseConvention:
    """The model owns Sigma: every estimator scales its sampler's raw
    N(0, I) draws by the model's root, whichever stream it is handed."""

    @pytest.mark.parametrize("name", list(STATIC_RUNS))
    def test_raw_stream_and_model_sampler_agree(self, name):
        rng = np.random.default_rng(31)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        assert abs(model.sigma[0, 1]) > 0.01  # a rotated, non-identity Sigma
        theta = np.array([0.2, -0.1])
        raw = STATIC_RUNS[name](f, model, theta, GaussianSampler(7, dim=2))
        own = STATIC_RUNS[name](f, model, theta, model.sampler(7))
        assert np.array_equal(raw, own)

    @pytest.mark.parametrize("theta", [[0.1, 0.2], [[0.1]], 0.1], ids=["long", "2d", "scalar"])
    @pytest.mark.parametrize("name", list(STATIC_RUNS))
    def test_theta_of_the_wrong_shape_is_a_contract_error(self, name, theta):
        f = bump_field(np.random.default_rng(5), 1)
        model = isotropic_model(4.0, 0.25, 1.0, 1)
        with pytest.raises(ContractError, match=r"theta must have shape \(1,\)"):
            STATIC_RUNS[name](f, model, theta, model.sampler(0))


def assert_same_check(cert, ref):
    """``cert`` is the one certificate type, with the margins of ``ref``."""
    assert isinstance(cert, ConvexityCertificate)
    assert np.array_equal(cert.margins, ref.margins) and np.array_equal(cert.tols, ref.tols)
    assert cert.holds == ref.holds


def warns_unless(holds, match):
    return contextlib.nullcontext() if holds else pytest.warns(UserWarning, match=match)


class TestOneCertificateRule:
    """Every entry point that certifies alpha R >= inv(Sigma) gives the
    verdict of check_convexity_certificate / check_control_certificate on
    the same (alpha, R, Sigma): just inside the tolerance and clearly out."""

    @pytest.mark.parametrize("r", [1.0 - 1e-11, 1.0 - 1e-6])
    def test_scalar_benchmark(self, r):
        model = RiskModel(1.0, np.eye(1), r * np.eye(1))
        ref = check_convexity_certificate(model)
        bench = ScalarBenchmark(r=r)
        assert bench.certified() == ref.holds
        assert ref.holds == (r > 1.0 - 1e-9)
        config = SolverConfig(iterations=2, zeta=1.0)
        with warns_unless(ref.holds, "per-step certificate fails"):
            rep = solve(linear_field([0.5]), model, FeasibleSet.ball(np.zeros(1), 1.0), config,
                        model.sampler(0))
        assert_same_check(rep.convexity, ref)
        dyn, cost, policy0, control_model = bench.problem()
        with warns_unless(ref.holds, "per-step certificate fails"):
            _, rep = train_policy(dyn, cost, policy0, control_model, "derivative_free", config,
                                  FeasibleSet.ball(np.zeros(2), 1.0), GaussianSampler(0, dim=1))
        assert_same_check(rep.convexity, check_control_certificate(cost, control_model))

    @pytest.mark.parametrize("shrink", [2e-10, 1e-6])
    def test_noisy_net_refusal_and_report(self, shrink):
        alpha, sigma = 16.0, 0.45
        c0 = 1.0 / (alpha * sigma**2)
        cfg = NoisyNetConfig(widths=[1, 4, 1], alpha=alpha, noise_scales=[sigma] * 2,
                             penalty_weights=[c0 * (1.0 - shrink)] * 2)
        ds = make_sine(20, GaussianSampler(3, dim=1))
        _, cost, _, model = build_control_problem(cfg, ds)
        ref = check_control_certificate(cost, model)
        assert ref.holds == (shrink < 1e-9)
        run = dict(iterations=2, batch=4, eval_every=1)
        if ref.holds:
            rep = train_noisy_net(ds, cfg, GaussianSampler(4, dim=1), **run)
        else:
            with pytest.raises(CertificateError) as err:
                train_noisy_net(ds, cfg, GaussianSampler(4, dim=1), **run)
            assert_same_check(err.value.report, ref)
            assert err.value.report.holds is False
            assert np.array_equal(err.value.report.margins, cfg.certificate_margins())
            with pytest.warns(UserWarning, match="certificate fails"):
                rep = train_noisy_net(ds, cfg, GaussianSampler(4, dim=1), force=True, **run)
        assert_same_check(rep.convexity, ref)
        assert rep.certified == ref.holds

    @pytest.mark.parametrize("kappa", [1.0 - 5e-11, 1.0 - 1e-8])
    def test_variance_bound_precondition(self, kappa):
        ref = check_convexity_certificate(isotropic_model(1.0, 1.0, kappa, 1)).holds
        assert ref == (kappa > 1.0 - 1e-9)
        args = dict(alpha=1.0, kappa=kappa, sigma=1.0, beta=0.1, gamma_sq=1.0, mbar=0.0,
                    radius=1.0)
        if ref:
            VarianceBoundInputs(**args)
        else:
            with pytest.raises(ContractError):
                VarianceBoundInputs(**args)

    @pytest.mark.parametrize("r2", [1.0 - 1e-11, 1.0 - 1e-8])
    def test_detmax_advisory_is_per_step(self, r2):
        # A large R_1 must not widen the tolerance of step 2.
        sys = LinearSystem(A=[[[1.0]]] * 2, B=[[[1.0]]] * 2, Q=[[[0.15]]] * 3,
                           R=[[[1e6]], [[r2]]], sigma=[[[1.0]]] * 2, horizon=3)
        _, cost, _, model = linear_control_problem(sys, 1.0)
        ref = check_control_certificate(cost, model)
        assert ref.holds == (r2 > 1.0 - 1e-9)
        assert_same_check(detmax_objective(sys, 1.0, np.zeros((2, 1, 1))).convexity, ref)
        assert_same_check(synthesize(sys, 1.0).convexity, ref)


class TestSmoothedValue:
    def test_constant_field(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = smoothed_value(constant_field(3.0, 1), model, [0.0], 100, model.sampler(0))
        assert est.value == 3.0 and est.std_err == 0.0

    def test_quadratic_second_moment(self):
        # E (theta+w)^2 = theta^2 + sigma^2 = 1.25 at theta=1, sigma=0.5
        f = ScalarField(value=lambda th: np.sum(th * th, axis=-1),
                        upper_bound=1e9, dim=1, vectorized=True)
        model = isotropic_model(1.0, 0.25, 0.0, 1)
        est = smoothed_value(f, model, [1.0], 1_000_000, model.sampler(1))
        assert abs(est.value - 1.25) <= 3.0 * est.std_err

    def test_linear_field_mean_passthrough(self):
        f = linear_field([2.0, -1.0])
        model = isotropic_model(1.0, 1.0, 0.0, 2)
        est = smoothed_value(f, model, [1.0, 1.0], 200_000, model.sampler(2))
        assert abs(est.value - 1.0) <= 3.0 * est.std_err

    def test_requires_two_samples(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(ContractError):
            smoothed_value(constant_field(0.0, 1), model, [0.0], 1, model.sampler(0))

    def test_minus_inf_value_is_degenerate_without_a_warning(self):
        # -inf values are legal, but their mean is -inf and its spread NaN
        f = ScalarField(value=lambda th: np.where(np.asarray(th)[..., 0] > 0.0, -np.inf, 0.0),
                        upper_bound=0.0, dim=1, vectorized=True)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        first = int(np.argmax(model.sampler(0).draw(200)[:, 0] > 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEstimateError, match=f"at sample {first} is -inf") as err:
                smoothed_value(f, model, [0.0], 200, model.sampler(0))
        assert err.value.sample_index == first

    def test_overflowing_mean_is_typed_without_a_warning(self):
        # Ten finite values of -1e308 sum past the float range.
        model = isotropic_model(1.0, 1.0, 0.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimateOverflowError, match="mean of the field values is -inf"):
                smoothed_value(constant_field(-1e308, 2), model, np.zeros(2), 10,
                               model.sampler(0))

    def test_overflowing_std_err_is_typed_without_a_warning(self):
        # Values near 1e300 have a finite mean and squared deviations that are not.
        f = ScalarField(value=lambda th: 1e300 * np.asarray(th)[..., 0], upper_bound=1e305,
                        dim=1, vectorized=True)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimateOverflowError, match="standard error is inf"):
                smoothed_value(f, model, [0.0], 10, model.sampler(0))


class TestLogExpObjective:
    def test_zero_field_zero_reg_is_exact_zero(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = log_exp_objective(constant_field(0.0, 1), model, [0.0], 50, model.sampler(0))
        assert est.value == 0.0

    def test_gaussian_mgf_linear_field(self):
        # a' theta + (alpha/2) a' Sigma a = 0.5 at theta=0, alpha=1, sigma=1
        f = linear_field([1.0])
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = log_exp_objective(f, model, [0.0], 1_000_000, model.sampler(5))
        assert abs(est.value - 0.5) <= 3.0 * est.std_err

    def test_pure_quadratic_is_exact(self):
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        est = log_exp_objective(constant_field(0.0, 2), model, [1.0, 1.0], 10, model.sampler(0))
        assert est.value == pytest.approx(1.0, abs=1e-15)

    def test_all_underflow_is_degenerate(self):
        f = ScalarField(value=lambda th: -np.inf, upper_bound=0.0, dim=1)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(DegenerateEstimateError):
            log_exp_objective(f, model, [0.0], 10, model.sampler(0))


class TestLogMeanExp:
    def test_matches_two_pass_reference(self):
        for seed in range(5):
            a = 3.0 * np.random.default_rng(seed).standard_normal(1000) - 50.0
            before = a.copy()
            value, se = log_mean_exp(a)
            assert np.array_equal(a, before)
            w = np.exp(a - a.max())
            assert value == pytest.approx(a.max() + np.log(w.mean()), rel=1e-12)
            assert se == pytest.approx(w.std(ddof=1) / np.sqrt(a.size) / w.mean(), rel=1e-12)

    def test_same_bits_at_one_and_two_blas_threads(self):
        # A BLAS dot over 20000 weights rounds differently at each BLAS
        # thread count; the std err must not.
        src = str(Path(riskconvex.__file__).resolve().parents[1])
        code = ("import numpy as np; from riskconvex.objective import log_mean_exp; "
                "a = np.random.default_rng(0).standard_normal(20000); "
                "print(*(v.hex() for v in log_mean_exp(a)))")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True, check=True,
                                       timeout=120).stdout)
        assert outs[0] == outs[1]

    def test_weights_made_over_the_exponents_keep_the_bits(self):
        # demo_curves makes each point's weights in its own buffer.
        a = 3.0 * np.random.default_rng(9).standard_normal(20000) - 50.0
        want = log_mean_exp(a)
        assert _log_mean_exp(a, a) == want
        assert not np.array_equal(a, 3.0 * np.random.default_rng(9).standard_normal(20000) - 50.0)

    def test_equal_weights_have_exactly_zero_std_err(self):
        assert log_mean_exp(np.full(37, -2.5)) == (-2.5, 0.0)

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_exponents_is_a_contract_error(self, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError):
                log_mean_exp(np.zeros(size))

    @pytest.mark.parametrize("bad,error", [(np.inf, EstimateOverflowError),
                                           (np.nan, DegenerateEstimateError)])
    def test_non_finite_exponent_names_first_sample(self, bad, error):
        a = np.zeros(10)
        a[[3, 7]] = bad
        with pytest.raises(error) as err:
            log_mean_exp(a)
        assert err.value.sample_index == 3

    def test_nan_exponent_neither_overflows_nor_hides_an_overflow(self):
        expo = np.array([0.0, np.nan, 1.0, 800.0, np.inf])
        with pytest.raises(EstimateOverflowError) as err:
            check_exponents(expo, start=10)
        assert err.value.sample_index == 13
        np.testing.assert_array_equal(check_exponents(expo[:3]), expo[:3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_log_exp_objective_overflow_is_typed(self):
        # alpha * f overflows to +inf on the positive draws
        model = RiskModel(alpha=1e307, sigma=np.eye(1), reg=np.eye(1))
        with pytest.raises(EstimateOverflowError) as err:
            log_exp_objective(linear_field([100.0], upper_bound=1e9), model, np.zeros(1),
                              1000, model.sampler(0))
        expo = model.alpha * (100.0 * model.sampler(0).draw(1000)[:, 0])
        assert err.value.sample_index == int(np.argmax(expo == np.inf))


class TestExpObjective:
    def test_zero_field_zero_reg(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = exp_objective(constant_field(0.0, 1), model, [0.0], 10, model.sampler(0))
        assert est.value == 1.0 and est.std_err == 0.0

    def test_quadratic_factor(self):
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        est = exp_objective(constant_field(0.0, 2), model, [1.0, 0.0], 10, model.sampler(0))
        assert est.value == pytest.approx(EXP_HALF, rel=1e-12)

    def test_linear_field_mgf(self):
        f = linear_field([1.0])
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = exp_objective(f, model, [0.0], 1_000_000, model.sampler(6))
        assert abs(est.value - EXP_HALF) <= 3.0 * est.std_err

    def test_overflow_names_sample(self):
        f = constant_field(800.0, 1)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(EstimateOverflowError) as err:
            exp_objective(f, model, [0.0], 5, model.sampler(0))
        assert err.value.sample_index is not None

    def test_overflowing_std_err_is_a_typed_error(self):
        # alpha f = 400: exp(400) is finite, its squared deviations are not.
        model = isotropic_model(4.0, 0.25, 1.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimateOverflowError, match="standard error is inf"):
                exp_objective(constant_field(100.0, 2), model, np.zeros(2), 100,
                              model.sampler(0))

    def test_log_exp_relation_on_analytic_case(self):
        # exp(alpha * log_exp_objective) == exp_objective in the expectation-free case
        model = isotropic_model(2.0, 1.0, 1.0, 2)
        theta = [0.5, -0.5]
        a = log_exp_objective(constant_field(0.0, 2), model, theta, 10, model.sampler(0))
        b = exp_objective(constant_field(0.0, 2), model, theta, 10, model.sampler(0))
        assert np.exp(model.alpha * a.value) == pytest.approx(b.value, rel=1e-12)


class TestUnbiasedGradient:
    def test_zero_field_identity_reg(self):
        # Every draw gives the same sample exp(0.5) R theta.
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        g, _ = unbiased_grad_mean(constant_field(0.0, 2), model, [1.0, 0.0], 5,
                                  model.sampler(0))
        assert g == pytest.approx([EXP_HALF, 0.0], rel=1e-12)

    def test_vanishes_at_origin_for_flat_field(self):
        model = isotropic_model(1.0, 1.0, 3.0, 3)
        g, se = unbiased_grad_mean(constant_field(0.0, 3), model, np.zeros(3), 5,
                                   model.sampler(1))
        assert np.all(g == 0.0) and np.all(se == 0.0)

    def test_linear_field_single_draw_value(self):
        # alpha=1, R=0, theta=0: each draw w gives the sample exp(w) * 1
        f = linear_field([1.0])
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        w = model.sampler(9).draw(3)[:, 0]
        g, _ = unbiased_grad_mean(f, model, [0.0], 3, model.sampler(9))
        assert g[0] == pytest.approx(np.exp(w).mean(), rel=1e-12)

    def test_requires_gradient(self):
        f = ScalarField(value=lambda th: 0.0, upper_bound=0.0, dim=1)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(ContractError):
            unbiased_grad_mean(f, model, [0.0], 5, model.sampler(0))

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_mean_and_std_err_match_the_written_out_formula(self, n):
        rng = np.random.default_rng(n)
        f = bump_field(rng, 3)
        model = certified_model(rng, 3)
        theta = rng.uniform(-0.5, 0.5, size=3)
        mean, se = unbiased_grad_mean(f, model, theta, n, model.sampler(4))
        points = theta + model.sampler(4).draw(n) @ model.sigma_root
        expo = model.alpha * f.value(points) + model.alpha * model.quad(theta)
        samples = model.alpha * np.exp(expo)[:, None] * (f.gradient(points)
                                                         + model.reg @ theta)
        assert np.array_equal(mean, samples.mean(0))
        assert np.array_equal(se, samples.std(0, ddof=1) / np.sqrt(n))

    def test_overflowing_std_err_is_a_typed_error(self):
        # A linear field plus 100 at alpha 4: finite samples near 1e176.
        lin = linear_field([1.0, -0.5])
        f = ScalarField(value=lambda th: lin.value(th) + 100.0, upper_bound=1e9, dim=2,
                        gradient=lin.gradient, lipschitz=lin.lipschitz, vectorized=True)
        model = isotropic_model(4.0, 0.25, 1.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimateOverflowError, match="standard error is inf"):
                unbiased_grad_mean(f, model, np.zeros(2), 100, model.sampler(0))

    def test_mean_matches_finite_difference_of_exp_objective(self):
        rng = np.random.default_rng(3)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        theta = rng.uniform(-0.5, 0.5, size=2)
        mean, se = unbiased_grad_mean(f, model, theta, 60_000, model.sampler(10))
        h = 1e-3
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi = exp_objective(f, model, theta + e, 400_000, model.sampler(77))
            lo = exp_objective(f, model, theta - e, 400_000, model.sampler(77))
            fd = (hi.value - lo.value) / (2.0 * h)
            fd_se = (hi.std_err + lo.std_err) / (2.0 * h)
            assert abs(mean[j] - fd) <= 3.0 * (se[j] + fd_se)


class TestInvariants:
    def test_jensen_gap(self):
        # smoothed value <= log-exp objective minus the quadratic, within noise
        rng = np.random.default_rng(12)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            f = bump_field(rng, dim)
            model = certified_model(rng, dim)
            theta = rng.uniform(-1.0, 1.0, size=dim)
            seed = int(rng.integers(0, 2**32))
            sm = smoothed_value(f, model, theta, 2000, model.sampler(seed))
            le = log_exp_objective(f, model, theta, 2000, model.sampler(seed))
            rhs = le.value - model.quad(theta) + 3.0 * (sm.std_err + le.std_err)
            assert sm.value <= rhs + 1e-12

    def test_certificate_implies_midpoint_convexity(self):
        rng = np.random.default_rng(23)
        failures = 0
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            f = bump_field(rng, dim)
            model = certified_model(rng, dim)
            t1 = rng.uniform(-1.5, 1.5, size=dim)
            t2 = rng.uniform(-1.5, 1.5, size=dim)
            mid = 0.5 * (t1 + t2)
            draws = model.sampler(int(rng.integers(0, 2**32))).draw(4000) @ model.sigma_root
            def g_samples(th):
                return np.exp(model.alpha * f.evaluate_batch(th + draws)
                              + model.alpha * model.quad(th))
            d = g_samples(mid) - 0.5 * g_samples(t1) - 0.5 * g_samples(t2)
            se = d.std(ddof=1) / np.sqrt(d.size)
            if d.mean() > 3.0 * se + 1e-12:
                failures += 1
        assert failures == 0

    def test_seed_determinism_bit_exact(self):
        rng = np.random.default_rng(2)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        theta = [0.3, -0.2]
        a = log_exp_objective(f, model, theta, 5000, model.sampler(42))
        b = log_exp_objective(f, model, theta, 5000, model.sampler(42))
        assert (a.value, a.std_err) == (b.value, b.std_err)


def _unblocked_points(model, theta, n, sampler):
    """theta + w for n draws taken as one (n, k) array."""
    return theta + sampler.draw(n) @ model.sigma_root


def _unblocked_estimates(f, model, theta, n, seed):
    """Every static estimator written over one unblocked draw per stream,
    as flat arrays of the numbers each returns, and the gradient samples."""
    vals = f.evaluate_batch(_unblocked_points(model, theta, n, model.sampler(seed)))
    lme, lme_se = log_mean_exp(model.alpha * vals)
    g = np.exp(model.alpha * vals + model.alpha * model.quad(theta))
    points = _unblocked_points(model, theta, n, model.sampler(seed))
    expo = model.alpha * f.evaluate_batch(points) + model.alpha * model.quad(theta)
    samples = (f.grad_batch(points) + model.reg @ theta) * (model.alpha * np.exp(expo))[:, None]
    out = {
        "smoothed_value": np.array([vals.mean(), vals.std(ddof=1) / np.sqrt(n)]),
        "log_exp_objective": np.array([lme / model.alpha + model.quad(theta),
                                       lme_se / model.alpha]),
        "exp_objective": np.array([g.mean(), g.std(ddof=1) / np.sqrt(n)]),
        "unbiased_grad_mean": np.concatenate([samples.mean(axis=0),
                                              samples.std(axis=0, ddof=1) / np.sqrt(n)]),
    }
    if n >= 100:
        mean_stream, exp_stream = model.sampler(seed).split(2)
        fbar = float(f.evaluate_batch(_unblocked_points(model, theta, n, mean_stream)).mean())
        centered = f.evaluate_batch(_unblocked_points(model, theta, n, exp_stream)) - fbar
        lme, lme_se = log_mean_exp(model.alpha * centered)
        out["estimate_sensitivity"] = np.array([lme / model.alpha, lme_se / model.alpha])
    return out, samples


def _planted_field(points, value):
    """``value`` at each of ``points`` (p, k) and 0 elsewhere; declared
    bound 1.  Like every vectorized callable, a function of its argument
    alone: the row blocks of a batch may run on any thread, in any order."""
    points = np.atleast_2d(points)

    def f(thetas):
        return np.where((thetas[:, None, :] == points).all(axis=2).any(axis=1), value, 0.0)

    return ScalarField(value=f, upper_bound=1.0, dim=points.shape[1], gradient=np.zeros_like,
                       vectorized=True)


# Rows of one row block of 4-dimensional points.
ROWS4 = _block_rows(4)


STATIC_ESTIMATES = {
    "smoothed_value": lambda f, m, th, n, s: _moments(smoothed_value(f, m, th, n, s)),
    "log_exp_objective": lambda f, m, th, n, s: _moments(log_exp_objective(f, m, th, n, s)),
    "exp_objective": lambda f, m, th, n, s: _moments(exp_objective(f, m, th, n, s)),
    "unbiased_grad_mean": lambda f, m, th, n, s: np.concatenate(unbiased_grad_mean(f, m, th,
                                                                                   n, s)),
    "estimate_sensitivity": lambda f, m, th, n, s: _moments(estimate_sensitivity(f, m, th,
                                                                                 n, s)),
}


class TestRowBlocks:
    """The static estimators draw, perturb and evaluate _block_rows(k)
    points at a time and keep the bits of one unblocked draw."""

    @pytest.mark.parametrize("n", [2, 2 * ROWS4 - 1, 3 * ROWS4 + 1],
                             ids=["n2", "one_block", "three_blocks_and_one"])
    def test_estimators_keep_the_bits_of_one_unblocked_draw(self, n):
        from riskconvex.objective import _grad_samples, _row_blocks

        rng = np.random.default_rng(41)
        f, model = bump_field(rng, 4), certified_model(rng, 4)
        theta = 0.5 * rng.standard_normal(4)
        assert len(_row_blocks(n, 4)) == (3 if n > 2 * ROWS4 else 1)
        expected, samples = _unblocked_estimates(f, model, theta, n, 7)
        got = {name: run(f, model, theta, n, model.sampler(7))
               for name, run in STATIC_ESTIMATES.items() if name in expected}
        assert got.keys() == expected.keys()
        for name, values in expected.items():
            assert np.array_equal(got[name], values), name
        assert np.array_equal(_grad_samples(f, model, theta, n, model.sampler(7)), samples)

    def test_overflow_in_the_third_block_names_the_batch_index(self):
        n, row = 3 * ROWS4 + 1, 2 * ROWS4 + 5
        model = RiskModel(800.0, np.eye(4), np.eye(4))   # alpha * 1 > LOG_FLOAT_MAX
        points = _unblocked_points(model, np.zeros(4), n, model.sampler(3))
        for estimator in (exp_objective, unbiased_grad_mean):
            with pytest.raises(EstimateOverflowError, match=f"at sample {row} ") as err:
                estimator(_planted_field(points[row], 1.0), model, np.zeros(4), n,
                          model.sampler(3))
            assert err.value.sample_index == row

    def test_bound_violation_in_the_third_block_carries_its_point(self):
        from riskconvex.errors import FieldEvaluationError

        n, row = 3 * ROWS4 + 1, 2 * ROWS4 + 5
        model = isotropic_model(1.0, 1.0, 1.0, 4)
        points = _unblocked_points(model, np.zeros(4), n, model.sampler(3))
        with pytest.raises(FieldEvaluationError) as err:
            smoothed_value(_planted_field(points[row], 2.0), model, np.zeros(4), n,
                           model.sampler(3))
        assert np.array_equal(err.value.theta, points[row])
