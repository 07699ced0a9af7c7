"""Dataset ingestion, label corruption, and synthetic generators.

The on-disk format is headerless CSV, features first and the label in
the last column, decimal floating point throughout.  It is parsed by the
one numeric reader of :mod:`csvio` (:func:`csvio.read_matrix`), so a
ragged row, a cell that is not a finite number or a bad label is a
``ConfigError`` naming the file and its line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import _read_numbered, write_csv
from .errors import ConfigError, ContractError
from .sampling import GaussianSampler


@dataclass
class Dataset:
    """Feature matrix, label vector, and where they came from."""

    X: np.ndarray
    y: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        if self.X.shape[0] != self.y.shape[0]:
            raise ContractError("feature and label counts differ")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ContractError("dataset contains non-finite entries")

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def is_binary(self) -> bool:
        return bool(np.all(np.isin(self.y, (-1.0, 1.0))))

    def split(self, test_fraction: float, sampler: GaussianSampler):
        """Deterministic shuffle split into (train, test)."""
        if not 0.0 <= test_fraction < 1.0:
            raise ContractError("test_fraction must be in [0, 1)")
        order = sampler.rng.permutation(self.size)
        n_test = int(round(test_fraction * self.size))
        test_idx, train_idx = order[:n_test], order[n_test:]
        return (
            Dataset(self.X[train_idx], self.y[train_idx], self.provenance + "#train"),
            Dataset(self.X[test_idx], self.y[test_idx], self.provenance + "#test"),
        )


def load_dataset(path, task: str = "classification") -> Dataset:
    """Load a headerless CSV with the label in the last column.

    ``task`` "classification" requires labels in {-1, +1}; "regression"
    accepts any finite label.
    """
    _, data, line_nos = _read_numbered(path)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}, line {line_nos[0]}: need at least one feature and a label")
    X, y = data[:, :-1].copy(), data[:, -1].copy()
    if task == "classification" and not np.all(np.isin(y, (-1.0, 1.0))):
        bad = int(np.argmin(np.isin(y, (-1.0, 1.0))))
        raise ConfigError(f"{path}, line {line_nos[bad]}: label {y[bad]} is not -1 or +1")
    return Dataset(X=X, y=y, provenance=str(path))


def save_dataset(path, ds: Dataset) -> None:
    write_csv(path, ([*row, label] for row, label in zip(ds.X, ds.y)))


def sign_plus(x):
    """sign with the tie sign(0) broken to +1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def corrupt_labels(ds: Dataset, sigma_noise: float, sampler: GaussianSampler) -> Dataset:
    """Per-example label corruption yhat = sign(y + w), w ~ N(0, sigma^2).

    For sigma_noise = 0 the labels are returned unchanged; the flip
    probability of a clean label is Phi(-1/sigma_noise).
    """
    if not ds.is_binary():
        raise ContractError("corruption requires labels in {-1, +1}")
    sigma_noise = float(sigma_noise)
    if sigma_noise < 0.0:
        raise ContractError("sigma_noise must be nonnegative")
    if sigma_noise == 0.0:
        return Dataset(ds.X.copy(), ds.y.copy(), ds.provenance + "#corrupt0")
    noise = sigma_noise * sampler.normal(ds.size)
    return Dataset(ds.X.copy(), sign_plus(ds.y + noise),
                   ds.provenance + f"#corrupt{sigma_noise}")


def make_blobs(m: int, sampler: GaussianSampler, separation: float = 4.0) -> Dataset:
    """Two symmetric unit-variance Gaussian blobs in the plane with centers
    ``separation`` apart along the first axis; labels are the blob signs."""
    if m < 2:
        raise ContractError("need at least two points")
    labels = sign_plus(sampler.normal(m))
    centers = np.zeros((m, 2))
    centers[:, 0] = 0.5 * separation * labels
    X = centers + sampler.normal((m, 2))
    return Dataset(X=X, y=labels, provenance=f"blobs(m={m},sep={separation})")


def make_sine(m: int, sampler: GaussianSampler, amplitude: float = 0.4,
              frequency: float = 2.0) -> Dataset:
    """1-D regression targets y = amplitude * sin(frequency * x), x ~ U(-1, 1)."""
    if m < 2:
        raise ContractError("need at least two points")
    x = sampler.rng.uniform(-1.0, 1.0, size=m)
    y = amplitude * np.sin(frequency * x)
    return Dataset(X=x[:, None], y=y,
                   provenance=f"sine(m={m},A={amplitude},f={frequency})")
