import warnings

import numpy as np
import pytest

from riskconvex.errors import ContractError, DegenerateEstimateError, EstimateOverflowError
from riskconvex.fields import ScalarField, constant_field, linear_field
from riskconvex.objective import RiskModel, isotropic_model
from riskconvex.sensitivity import certify_gap, estimate_sensitivity, lipschitz_gap_bound
from support import bump_field


def one_lipschitz_fields(dim):
    """Fields with Lipschitz constant exactly 1."""
    a = np.zeros(dim)
    a[0] = 1.0
    abs_field = ScalarField(
        value=lambda th: np.abs(np.asarray(th)[..., 0]),
        upper_bound=1e9, dim=dim, lipschitz=1.0, vectorized=True)
    soft_norm = ScalarField(
        value=lambda th: np.sqrt(np.sum(np.asarray(th)**2, axis=-1) + 1.0),
        upper_bound=1e9, dim=dim, lipschitz=1.0, vectorized=True)
    tanh_field = ScalarField(
        value=lambda th: np.tanh(np.asarray(th) @ a),
        upper_bound=1.0, dim=dim, lipschitz=1.0, vectorized=True)
    return [linear_field(a), abs_field, soft_norm, tanh_field]


class TestEstimateSensitivity:
    def test_constant_field_is_exactly_zero(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        est = estimate_sensitivity(constant_field(5.0, 1), model, [0.0], 200, model.sampler(0))
        assert est.value == 0.0 and est.std_err == 0.0

    def test_linear_field_mgf_value(self):
        # alpha sigma^2 ||a||^2 / 2 = 0.125 at alpha=1, sigma=0.5, ||a||=1
        model = isotropic_model(1.0, 0.25, 0.0, 1)
        est = estimate_sensitivity(linear_field([1.0]), model, [0.3], 1_000_000,
                                   model.sampler(3))
        assert abs(est.value - 0.125) <= 3.0 * est.std_err

    def test_scalar_field_alpha_two(self):
        # alpha sigma^2 / 2 = 1 at alpha=2, sigma=1
        model = isotropic_model(2.0, 1.0, 0.0, 1)
        est = estimate_sensitivity(linear_field([1.0]), model, [0.0], 1_000_000,
                                   model.sampler(4))
        assert abs(est.value - 1.0) <= 3.0 * est.std_err

    def test_requires_hundred_samples(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(ContractError):
            estimate_sensitivity(constant_field(0.0, 1), model, [0.0], 99, model.sampler(0))

    def test_nonnegative_within_noise(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            f = bump_field(rng, dim)
            model = isotropic_model(float(rng.uniform(0.5, 2.0)),
                                    float(rng.uniform(0.1, 1.0)), 0.0, dim)
            theta = rng.uniform(-1, 1, size=dim)
            est = estimate_sensitivity(f, model, theta, 2000,
                                       model.sampler(int(rng.integers(0, 2**32))))
            assert est.value >= -3.0 * est.std_err


    def test_overflowing_exponent_is_typed(self):
        # alpha (f - fbar) overflows to +inf on the positive draws, silently.
        model = RiskModel(alpha=1e307, sigma=np.eye(1), reg=np.eye(1))
        with pytest.raises(EstimateOverflowError) as err:
            estimate_sensitivity(linear_field([100.0], upper_bound=1e9), model, [0.0], 1000,
                                 model.sampler(0))
        assert err.value.sample_index is not None

    def test_overflowing_mean_pass_is_typed(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        for estimate in (estimate_sensitivity, certify_gap):
            with pytest.raises(EstimateOverflowError, match="mean of the field values is inf"):
                estimate(constant_field(1e308, 1), model, [0.0], 200, model.sampler(0))

    def test_nan_exponent_is_degenerate(self):
        # -inf values are legal, but a -inf smoothed mean would make
        # -inf - (-inf) = NaN: the first -inf of the mean pass is named
        # instead, with no numpy warning, by both estimated-gap entry points
        f = ScalarField(value=lambda th: np.where(np.asarray(th)[..., 0] > 0.0, -np.inf, 0.0),
                        upper_bound=0.0, dim=1, vectorized=True)
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        mean_stream = model.sampler(0).split(2)[0]
        first = int(np.argmax(mean_stream.draw(200)[:, 0] > 0.0))
        for estimate in (estimate_sensitivity, certify_gap):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateEstimateError,
                                   match=f"at sample {first} is -inf") as err:
                    estimate(f, model, [0.0], 200, model.sampler(0))
            assert err.value.sample_index == first


class TestLipschitzGapBound:
    def test_zero_lipschitz(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        assert lipschitz_gap_bound(0.0, model).gap_bound == 0.0

    def test_isotropic_value(self):
        model = isotropic_model(1.0, 0.25, 0.0, 2)
        cert = lipschitz_gap_bound(1.0, model)
        assert cert.gap_bound == pytest.approx(0.125, rel=1e-15)
        assert cert.kind == "lipschitz"

    def test_anisotropic_uses_largest_eigenvalue(self):
        model = RiskModel(4.0, np.diag([1.0, 9.0]), np.zeros((2, 2)))
        assert lipschitz_gap_bound(2.0, model).gap_bound == pytest.approx(72.0, rel=1e-15)

    def test_rejects_bad_lipschitz(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        with pytest.raises(ContractError):
            lipschitz_gap_bound(-1.0, model)
        with pytest.raises(ContractError):
            lipschitz_gap_bound(np.inf, model)


class TestCertifyGap:
    def test_constant_field_bound_zero(self):
        model = isotropic_model(1.0, 1.0, 0.0, 1)
        cert = certify_gap(constant_field(2.0, 1), model, [1.0], 200, model.sampler(0))
        assert cert.gap_bound == 0.0 and cert.kind == "estimated"

    def test_one_lipschitz_abs_dominated_by_closed_form(self):
        model = isotropic_model(1.0, 0.25, 0.0, 1)
        f = ScalarField(value=lambda th: np.abs(np.asarray(th)[..., 0]),
                        upper_bound=1e9, dim=1, lipschitz=1.0, vectorized=True)
        cert = certify_gap(f, model, [0.0], 1_000_000, model.sampler(5))
        bound = lipschitz_gap_bound(1.0, model).gap_bound
        assert cert.gap_bound <= bound + 6.0 * cert.inputs["std_err"]

    def test_linear_field_converges_to_closed_form(self):
        model = isotropic_model(1.0, 0.25, 0.0, 1)
        cert = certify_gap(linear_field([1.0]), model, [0.0], 1_000_000, model.sampler(6))
        assert cert.gap_bound == pytest.approx(0.125, abs=0.005)

    def test_is_conservative_inflation_of_estimate(self):
        model = isotropic_model(1.0, 0.5, 0.0, 2)
        rng = np.random.default_rng(1)
        f = bump_field(rng, 2)
        est = estimate_sensitivity(f, model, [0.1, 0.2], 5000, model.sampler(7))
        cert = certify_gap(f, model, [0.1, 0.2], 5000, model.sampler(7))
        assert cert.gap_bound == pytest.approx(est.value + 3.0 * est.std_err, rel=1e-12)


class TestProperties:
    def test_lipschitz_domination_across_grid(self):
        for sigma in (0.1, 0.5, 1.0):
            for alpha in (0.5, 1.0):
                model = isotropic_model(alpha, sigma**2, 0.0, 2)
                bound = lipschitz_gap_bound(1.0, model).gap_bound
                for k, f in enumerate(one_lipschitz_fields(2)):
                    est = estimate_sensitivity(f, model, [0.2, -0.1], 50_000,
                                               model.sampler(100 + k))
                    assert est.value <= bound + 3.0 * est.std_err

    def test_scaling_laws_on_linear_fields(self):
        # sensitivity of a linear field scales linearly in alpha and lam_max(Sigma)
        base = [0.25, 0.5, 1.0]
        sens_alpha = []
        for alpha in base:
            model = isotropic_model(alpha, 0.25, 0.0, 1)
            est = estimate_sensitivity(linear_field([1.0]), model, [0.0], 400_000,
                                       model.sampler(11))
            sens_alpha.append(est.value)
        slope = np.polyfit(base, sens_alpha, 1)[0]
        assert slope == pytest.approx(0.125, rel=0.05)
        sens_var = []
        for var in base:
            model = isotropic_model(1.0, var, 0.0, 1)
            est = estimate_sensitivity(linear_field([1.0]), model, [0.0], 400_000,
                                       model.sampler(12))
            sens_var.append(est.value)
        slope = np.polyfit(base, sens_var, 1)[0]
        assert slope == pytest.approx(0.5, rel=0.05)
