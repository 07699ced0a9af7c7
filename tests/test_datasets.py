import numpy as np
import pytest
from scipy.stats import norm

from riskconvex.datasets import (
    Dataset,
    corrupt_labels,
    load_dataset,
    make_blobs,
    make_sine,
    save_dataset,
    sign_plus,
)
from riskconvex.errors import ConfigError, ContractError
from riskconvex.sampling import GaussianSampler


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(X=rng.standard_normal((20, 3)), y=sign_plus(rng.standard_normal(20)))
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    back = load_dataset(path, task="classification")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_malformed_rows_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2,1\n0.3,oops,-1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_dataset(path)
    path.write_text("0.1,0.2,1\n0.3,-1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_dataset(path)
    path.write_text("0.1,0.2,1\n0.3,0.4,0.5\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_dataset(path, task="classification")
    path.write_text("0.1,0.2,inf\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_dataset(path, task="regression")


def test_label_errors_name_the_line_of_the_file(tmp_path):
    # Blank lines are skipped but counted: the bad label is on line 3.
    path = tmp_path / "gap.csv"
    path.write_text("0.1,1\n\n0.2,0.5\n")
    with pytest.raises(ConfigError, match=r"gap\.csv, line 3: label 0\.5 is not -1 or \+1"):
        load_dataset(path, task="classification")


def test_regression_labels_allowed(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("0.5,0.25\n-0.5,-0.125\n")
    ds = load_dataset(path, task="regression")
    assert ds.y == pytest.approx([0.25, -0.125])


def test_sign_plus_breaks_ties_up():
    assert np.array_equal(sign_plus([-0.5, 0.0, 0.5]), [-1.0, 1.0, 1.0])


class TestCorruptLabels:
    def test_zero_noise_is_identity(self):
        ds = Dataset(X=np.zeros((5, 1)), y=np.array([1.0, -1, 1, -1, 1]))
        out = corrupt_labels(ds, 0.0, GaussianSampler(0, dim=1))
        assert np.array_equal(out.y, ds.y)

    def test_flip_rate_matches_gaussian_cdf(self):
        m = 100_000
        ds = Dataset(X=np.zeros((m, 1)), y=np.ones(m))
        out = corrupt_labels(ds, 1.0, GaussianSampler(3, dim=1))
        flip = float(np.mean(out.y != ds.y))
        assert flip == pytest.approx(norm.cdf(-1.0), abs=0.01)

    def test_huge_noise_flips_half(self):
        m = 100_000
        ds = Dataset(X=np.zeros((m, 1)), y=np.ones(m))
        out = corrupt_labels(ds, 1e6, GaussianSampler(4, dim=1))
        assert float(np.mean(out.y != ds.y)) == pytest.approx(0.5, abs=0.01)

    def test_requires_binary_labels(self):
        ds = Dataset(X=np.zeros((2, 1)), y=np.array([0.5, 1.0]))
        with pytest.raises(ContractError):
            corrupt_labels(ds, 1.0, GaussianSampler(0, dim=1))


class TestGenerators:
    def test_blobs_are_separated_and_labeled(self):
        ds = make_blobs(2000, GaussianSampler(1, dim=1), separation=4.0)
        assert ds.is_binary()
        pos = ds.X[ds.y == 1.0]
        neg = ds.X[ds.y == -1.0]
        assert pos[:, 0].mean() == pytest.approx(2.0, abs=0.15)
        assert neg[:, 0].mean() == pytest.approx(-2.0, abs=0.15)

    def test_sine_targets(self):
        ds = make_sine(500, GaussianSampler(2, dim=1), amplitude=0.3, frequency=2.0)
        assert np.all(np.abs(ds.X) <= 1.0)
        assert ds.y == pytest.approx(0.3 * np.sin(2.0 * ds.X[:, 0]))

    def test_generators_deterministic(self):
        a = make_blobs(50, GaussianSampler(9, dim=1))
        b = make_blobs(50, GaussianSampler(9, dim=1))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_split_is_deterministic_and_disjoint():
    rng = np.random.default_rng(5)
    ds = Dataset(X=rng.standard_normal((100, 2)), y=sign_plus(rng.standard_normal(100)))
    tr1, te1 = ds.split(0.25, GaussianSampler(7, dim=1))
    tr2, te2 = ds.split(0.25, GaussianSampler(7, dim=1))
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.X, te2.X)
    assert tr1.size == 75 and te1.size == 25


def test_dataset_validation():
    with pytest.raises(ContractError):
        Dataset(X=np.zeros((3, 1)), y=np.zeros(2))
    with pytest.raises(ContractError):
        Dataset(X=np.array([[np.nan]]), y=np.array([1.0]))


def test_a_split_that_leaves_no_training_row_is_refused():
    ds = Dataset(X=np.zeros((40, 1)), y=np.ones(40))
    with pytest.raises(ContractError, match=r"^test_fraction 0.99 leaves no training row of 40$"):
        ds.split(0.99, GaussianSampler(0, dim=1))
    train, test = ds.split(0.98, GaussianSampler(0, dim=1))
    assert (train.size, test.size) == (1, 39)
