import math

import numpy as np
import pytest

from riskconvex import classify
from riskconvex.classify import (
    ClassifierConfig,
    accuracy,
    erfc_loss,
    erfc_objective,
    log_half_erfc,
    read_model_csv,
    train_classifier,
    write_model_csv,
)
from riskconvex.datasets import Dataset, make_blobs
from riskconvex.errors import ContractError
from riskconvex.sampling import GaussianSampler

LOG_HALF = -0.6931471805599453          # float(log(1/2))
LOG_HALF_ERFC_ONE = -2.5427526904931934  # high-precision log(0.5*erfc(1))


class TestErfcLoss:
    def test_zero_weights(self):
        assert erfc_loss(np.zeros(2), [1.0, 2.0], 1.0, 1.0) == pytest.approx(
            LOG_HALF, abs=1e-12)

    def test_unit_argument_hand_value(self):
        # y theta'x = sqrt(2) sigma and (theta'x)^2 = 2 sigma^2
        sigma = 0.7
        z = math.sqrt(2.0) * sigma
        val = erfc_loss(np.array([z]), [1.0], 1.0, sigma)
        assert val == pytest.approx(LOG_HALF_ERFC_ONE + 1.0, abs=1e-9)

    def test_label_flip_symmetry(self):
        theta = np.array([0.8, -0.3])
        x = np.array([0.5, 1.5])
        sigma = 1.3
        flip = erfc_loss(theta, x, -1.0, sigma)
        mirrored = erfc_loss(-theta, x, 1.0, sigma)
        assert flip == pytest.approx(mirrored, rel=1e-12)

    def test_large_margins_stay_finite(self):
        val = erfc_loss(np.array([50.0]), [1.0], 1.0, 1.0)
        assert math.isfinite(val)
        val = erfc_loss(np.array([-50.0]), [1.0], 1.0, 1.0)
        assert math.isfinite(val)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ContractError):
            erfc_loss(np.zeros(1), [1.0], 1.0, 0.0)


class TestLogHalfErfc:
    def test_matches_direct_formula_in_safe_range(self):
        from scipy.special import erfc

        z = np.linspace(-5.0, 5.0, 101)
        direct = np.log(0.5 * erfc(z))
        assert np.allclose(log_half_erfc(z), direct, rtol=1e-12)

    def test_deep_tail_no_underflow(self):
        z = np.array([40.0, 200.0])
        vals = log_half_erfc(z)
        assert np.all(np.isfinite(vals))
        # asymptotic: log(erfc(z)) ~ -z^2 - log(z sqrt(pi))
        expect = -z**2 - np.log(z * np.sqrt(np.pi)) + np.log(0.5)
        assert vals == pytest.approx(expect, rel=1e-3)


def test_objective_convex_in_prediction():
    # second differences of the per-example objective over a dense grid
    sigma = 0.9
    z = np.linspace(-8.0, 8.0, 2001)
    for y in (-1.0, 1.0):
        vals = log_half_erfc(y * z / (math.sqrt(2.0) * sigma)) + z**2 / (2 * sigma**2)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.min(second) >= -1e-8


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    y = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
    theta = rng.standard_normal(3) * 0.5
    _, grad = erfc_objective(theta, X, y, 1.1)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        up, _ = erfc_objective(theta + e, X, y, 1.1)
        dn, _ = erfc_objective(theta - e, X, y, 1.1)
        assert grad[j] == pytest.approx((up - dn) / (2 * h), rel=1e-6, abs=1e-9)


def composed_objective(theta, X, y, sigma):
    """erfc_objective written as the composition it replaces: the value from
    log_half_erfc and np.mean, the gradient from its own erfcx call."""
    from scipy.special import erfcx

    z = X @ theta
    arg = y * z / (np.sqrt(2.0) * sigma)
    value = float(np.mean(log_half_erfc(arg) + z**2 / (2.0 * sigma**2)))
    dz = -2.0 / (math.sqrt(math.pi) * erfcx(arg)) * y / (np.sqrt(2.0) * sigma) + z / sigma**2
    return value, X.T @ dz / X.shape[0]


@pytest.mark.parametrize("scale", [0.0, 0.3, 3.0, 40.0], ids=["zero", "small", "unit", "large"])
def test_objective_keeps_the_bits_of_the_composition(scale):
    # One erfcx call serves the value and the gradient.  Margins y z of both
    # signs, exactly 0 and (at scale 40) deep in the erfc tail all occur.
    rng = np.random.default_rng(11)
    X = rng.standard_normal((300, 3))
    X[:5] = 0.0
    y = np.where(rng.standard_normal(300) > 0, 1.0, -1.0)
    theta = scale * rng.standard_normal(3)
    for sigma in (0.4, 1.0, 2.5):
        value, grad = erfc_objective(theta, X, y, sigma)
        ref_value, ref_grad = composed_objective(theta, X, y, sigma)
        assert math.copysign(1.0, value) == math.copysign(1.0, ref_value)
        assert value == ref_value
        assert np.array_equal(grad.view(np.int64), ref_grad.view(np.int64))


class TestTrainClassifier:
    @pytest.mark.parametrize("grad_tol", [math.nan, -1e-8, math.inf])
    def test_grad_tol_must_be_nonnegative_and_finite(self, grad_tol):
        with pytest.raises(ContractError, match="grad_tol"):
            ClassifierConfig(grad_tol=grad_tol)

    def test_separable_one_dimensional(self):
        ds = Dataset(X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]))
        report = train_classifier(ds, ClassifierConfig(sigma=1.0, max_iters=200))
        assert report.theta[0] > 0.0
        assert report.train_accuracy == 1.0

    def test_stalled_line_search_is_not_converged(self, monkeypatch):
        ds = make_blobs(200, GaussianSampler(3, dim=1))
        monkeypatch.setattr(classify, "_STEP0", 1e-13)
        report = train_classifier(ds, ClassifierConfig())
        assert report.iterations == 1
        assert not report.converged

    def test_degenerate_single_class_smoke(self):
        ds = Dataset(X=np.array([[-1.0], [0.5], [2.0]]), y=np.ones(3))
        report = train_classifier(ds, ClassifierConfig(sigma=1.0, max_iters=100))
        assert math.isfinite(report.objective)
        preds_positive = float(np.mean((ds.X @ report.theta) >= 0.0))
        assert report.train_accuracy == preds_positive

    def test_blob_benchmark_generalizes(self):
        sampler = GaussianSampler(0, dim=1)
        train = make_blobs(500, sampler)
        test = make_blobs(500, sampler)
        report = train_classifier(train, ClassifierConfig(sigma=1.0), test=test)
        assert report.test_accuracy >= 0.95

    def test_objective_scale_invariance_of_argmin(self):
        # scaling the objective by a positive constant leaves the trained
        # weights unchanged under the same deterministic descent
        # heavily corrupted labels give an interior minimizer, so the
        # descent endpoint is a well-defined argmin to compare
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 2))
        y = np.where(X[:, 0] + 1.5 * rng.standard_normal(60) > 0, 1.0, -1.0)
        sigma = 1.0

        def descend(scale):
            theta = np.zeros(2)
            value, grad = erfc_objective(theta, X, y, sigma)
            value, grad = scale * value, scale * grad
            step = 1.0
            for _ in range(400):
                gnorm = float(np.linalg.norm(grad))
                if gnorm <= 1e-10:
                    break
                step = min(1.0, step * 2.0)
                while step > 1e-14:
                    cand = theta - step * grad
                    cv, cg = erfc_objective(cand, X, y, sigma)
                    cv, cg = scale * cv, scale * cg
                    if cv <= value - 1e-4 * step * gnorm**2:
                        theta, value, grad = cand, cv, cg
                        break
                    step *= 0.5
                else:
                    break
            return theta

        base = descend(1.0)
        for scale in (0.5, 2.0):
            assert descend(scale) == pytest.approx(base, abs=1e-5)

    def test_accuracy_tie_goes_positive(self):
        ds = Dataset(X=np.array([[0.0]]), y=np.array([1.0]))
        assert accuracy(np.array([1.0]), ds) == 1.0
        dsn = Dataset(X=np.array([[0.0]]), y=np.array([-1.0]))
        assert accuracy(np.array([1.0]), dsn) == 0.0


def test_model_csv_round_trip(tmp_path):
    theta = np.array([0.1, -2.5, 3.25e-7])
    path = tmp_path / "model.csv"
    write_model_csv(path, theta)
    assert np.array_equal(read_model_csv(path), theta)


def test_an_empty_training_set_is_refused():
    empty = Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
    with pytest.raises(ContractError, match="^the training set has no rows$"):
        train_classifier(empty, ClassifierConfig())
