import warnings

import numpy as np
import pytest

from riskconvex.errors import ContractError, IllConditionedError
from riskconvex.objective import RiskModel, _perturbed
from riskconvex.sampling import GaussianSampler, as_covariance, spd_factor


def test_identical_seed_identical_stream():
    a = GaussianSampler(123, dim=3)
    b = GaussianSampler(123, dim=3)
    assert np.array_equal(a.draw(1000), b.draw(1000))


def test_different_seed_differs():
    a = GaussianSampler(1, dim=2)
    b = GaussianSampler(2, dim=2)
    assert not np.array_equal(a.draw(10), b.draw(10))


def test_mean_converges_at_root_n_rate():
    # per-coordinate mean of n draws is O(n^-1/2): check |mean| < 4/sqrt(n)
    sampler = GaussianSampler(7, dim=2)
    for n in (1000, 100_000):
        draws = sampler.draw(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))


def test_covariance_matches_declared():
    # The model scales a raw stream by its root: the perturbations have covariance Sigma.
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    model = RiskModel(1.0, cov, np.eye(2))
    theta = np.array([0.5, -1.0])
    points = _perturbed(model, theta, model.sampler(11).draw(200_000))
    emp = np.cov(points - theta, rowvar=False)
    assert np.allclose(emp, cov, atol=0.05)


def test_split_children_are_independent_and_deterministic():
    parent1 = GaussianSampler(5, dim=1)
    parent2 = GaussianSampler(5, dim=1)
    kids1 = parent1.split(2)
    kids2 = parent2.split(2)
    assert np.array_equal(kids1[0].draw(100), kids2[0].draw(100))
    assert not np.array_equal(kids1[0].draw(100), kids1[1].draw(100))


def test_rejects_bad_seed_and_asymmetric_covariance():
    with pytest.raises(ContractError):
        GaussianSampler(-1, dim=1)
    with pytest.raises(ContractError):
        GaussianSampler(2**64, dim=1)
    with pytest.raises(ContractError):
        as_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_singular_covariance_rejected():
    with pytest.raises(IllConditionedError):
        spd_factor(np.diag([1.0, 0.0]))
    with pytest.raises(IllConditionedError):
        spd_factor(np.diag([1.0, -0.1]))


def test_sqrt_and_inverse_are_consistent():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mat = (q * [0.5, 1.0, 2.0, 3.0]) @ q.T
    inverse, root = spd_factor(mat)
    assert np.allclose(root @ root, mat, atol=1e-12)
    assert np.allclose(inverse @ mat, np.eye(4), atol=1e-12)


def test_a_sampler_holds_no_covariance():
    # The risk models own every covariance; a sampler is a raw N(0, I) stream.
    with pytest.raises(TypeError):
        GaussianSampler(0, np.eye(2))
    assert not hasattr(GaussianSampler(0, dim=2), "covariance")


@pytest.mark.parametrize("dim", [0, -1])
def test_sampler_dimension_must_be_positive(dim):
    with pytest.raises(ContractError, match="dim must be at least 1"):
        GaussianSampler(0, dim=dim)


def test_empty_covariance_rejected():
    with pytest.raises(ContractError, match="nonempty"):
        as_covariance(np.zeros((0, 0)))
    with pytest.raises(ContractError, match="nonempty"):
        RiskModel(1.0, np.zeros((0, 0)), np.zeros((0, 0)))


def test_huge_finite_covariance_does_not_overflow():
    # 0.5 * (a + a') overflows above about 9e307; the halves do not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_covariance([[1.7e308]]), [[1.7e308]])
        try:
            model = RiskModel(1.0, [[1.7e308]], np.eye(1))
        except ContractError:
            return
    assert np.array_equal(model.sigma, [[1.7e308]])
