import warnings

import numpy as np
import pytest

from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.errors import ContractError, IllConditionedError
from riskconvex.objective import RiskModel, _perturbed
from riskconvex.sampling import (
    GaussianSampler,
    as_covariance,
    as_psd_weight,
    as_steps,
    spd_factor,
)


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



@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e-12, 1.0, 1e12, 1e100, 1e200, 1e300])
def test_symmetry_check_is_the_allclose_verdict(scale):
    # |a_ij - a_ji| <= 1e-12 + 1e-10 |a_ji| accepts exactly what
    # np.allclose(a, a.T, rtol=1e-10, atol=1e-12) accepts: on both sides
    # of the relative bound, at the absolute bound of tiny entries, and on
    # exactly symmetric matrices.
    mats = []
    for rel in (0.0, 5e-11, 1e-10 * (1 - 1e-6), 1e-10, 1e-10 * (1 + 1e-6), 2e-10, 1e-3):
        for base in ([[2.0, 1.0], [1.0, 3.0]],
                     [[1.0, -0.5, 0.25], [-0.5, 2.0, 0.0], [0.25, 0.0, 1.5]]):
            a = scale * np.array(base)
            a[0, 1] = a[1, 0] * (1 + rel)
            mats.append(a)
    for off in (0.0, 5e-13, 1e-12, 1e-12 * (1 + 1e-6), 2e-12):
        mats.append(np.array([[scale, 0.0], [off, scale]]))
    verdicts = [np.allclose(a, a.T, rtol=1e-10, atol=1e-12) for a in mats]
    assert set(verdicts) == {True, False}
    for a, symmetric in zip(mats, verdicts):
        if symmetric:
            as_covariance(a)
        else:
            with pytest.raises(ContractError, match="symmetric"):
                as_covariance(a)


class TestStacks:
    """A (T, k, k) stack is checked and factored in one pass, with the bits
    of per-step calls, and a failing step is named by t."""

    @staticmethod
    def stack(seed=4, steps=5, k=3):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((steps, k, k))
        return mats @ mats.transpose(0, 2, 1) + 0.2 * np.eye(k)

    def test_stacked_factor_has_the_bits_of_per_step_factors(self):
        for k in (1, 2, 3):
            sig = as_covariance(self.stack(k=k))
            inv, root = spd_factor(sig)
            assert inv.shape == root.shape == sig.shape == (5, k, k)
            for t in range(5):
                step_inv, step_root = spd_factor(as_covariance(sig[t]))
                assert np.array_equal(inv[t], step_inv) and np.array_equal(root[t], step_root)
            assert np.array_equal(as_psd_weight(sig), np.array([as_psd_weight(s) for s in sig]))

    def test_the_first_failing_step_is_named(self):
        sig = self.stack()
        sig[2] = np.diag([1.0, 0.0, 1.0])
        sig[3] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(IllConditionedError, match=r"noise at t=3 is not positive definite"):
            spd_factor(sig, name="noise")
        with pytest.raises(ContractError, match=r"R at t=4 must be positive semidefinite "
                                                r"\(min eigenvalue -1.000e\+00\)"):
            as_psd_weight(sig, name="R")
        sig[1, 0, 1] += 1.0
        with pytest.raises(ContractError, match="covariance at t=2 must be symmetric"):
            as_covariance(sig)
        sig[0, 0, 0] = np.nan
        with pytest.raises(ContractError, match="noise at t=1 must be finite"):
            as_steps(sig, name="noise")
        with pytest.raises(ContractError, match="covariance is 3x3, expected dim 2"):
            as_covariance(self.stack(), dim=2)

    def test_one_matrix_keeps_its_unnamed_messages(self):
        with pytest.raises(IllConditionedError, match=r"^sigma is not positive definite"):
            spd_factor(np.diag([1.0, 0.0]), name="sigma")
        with pytest.raises(ContractError, match=r"^reg must be positive semidefinite"):
            as_psd_weight(np.diag([1.0, -1.0]), name="reg")
        with pytest.raises(ContractError, match=r"^covariance must be symmetric"):
            as_covariance([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ContractError, match=r"^covariance entries must be finite"):
            as_covariance([[np.inf]])

    def test_the_shape_rule_names_its_matrices(self):
        assert as_steps([[[1, 2]], [[3, 4]]], name="B").dtype == np.float64
        with pytest.raises(ContractError, match=r"Q at t=2 must be 2x2, got shape \(\)"):
            as_steps([np.eye(2), 1.0], (2, 2, 2), "Q")
        with pytest.raises(ContractError, match="need 3 A matrices, got 2"):
            as_steps([np.eye(2)] * 2, (3, 2, 2), "A")
        for scalars in ([1.0, 2.0], np.ones(2)):
            with pytest.raises(ContractError, match="control weights must stack to"):
                as_steps(scalars, name="control weight")

    @pytest.mark.parametrize("mats", [None, 3, 0.1, np.float64(2.0), np.array(1.0)])
    def test_a_scalar_in_place_of_the_matrices_is_named(self, mats):
        with pytest.raises(ContractError, match="^gains must be a sequence of matrices, got "):
            as_steps(mats)
        with pytest.raises(ContractError, match="^As must be a sequence of matrices, got "):
            as_steps(mats, (2, 1, 1), "A")

    def test_a_scalar_gain_of_a_linear_problem_is_a_contract_error(self):
        with pytest.raises(ContractError, match="^gains must be a sequence of matrices, got 0.1$"):
            linear_control_problem(ScalarBenchmark().system(), 1.0, gains=0.1)

    @pytest.mark.parametrize("mats,t", [
        ([[[1.0, 2.0], [3.0]], np.eye(2)], 1),
        ([np.eye(2), [[1.0, 2.0], [3.0]]], 2),
    ], ids=["first", "later"])
    def test_a_ragged_matrix_is_named_by_its_step(self, mats, t):
        with pytest.raises(ContractError, match=f"^gain at t={t} is ragged"):
            as_steps(mats)
        with pytest.raises(ContractError, match=f"^A at t={t} is ragged"):
            as_steps(mats, (2, 2, 2), "A")
