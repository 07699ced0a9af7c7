"""Seeded Gaussian sampling with a covariance factorized once.

Every source of randomness in the package flows through a
:class:`GaussianSampler`, so a single 64-bit seed reproduces a run bit for
bit.  A sampler is the only stateful object in the library: use one per
thread, or derive independent children with :meth:`GaussianSampler.split`
and reduce results in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, IllConditionedError

# Condition-number ceiling beyond which a covariance is treated as singular.
COND_LIMIT = 1e12

MAX_SEED = 2**64


def as_covariance(cov, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or square array into a validated covariance matrix."""
    arr = np.asarray(cov, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim if dim is not None else 1)
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ContractError(f"covariance must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ContractError(f"covariance is {arr.shape[0]}x{arr.shape[0]}, expected dim {dim}")
    if not np.allclose(arr, arr.T, rtol=1e-10, atol=1e-12):
        raise ContractError("covariance must be symmetric")
    return 0.5 * (arr + arr.T)


def as_psd_weight(mat, dim: int | None = None, name: str = "weight") -> np.ndarray:
    """:func:`as_covariance`, then require positive semidefiniteness up to
    the scale-relative slack lambda_min >= -1e-10 (1 + |lambda_max|)."""
    arr = as_covariance(mat, dim)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -1e-10 * (1.0 + abs(w[-1])):
        raise ContractError(f"{name} must be positive semidefinite (min eigenvalue {w[0]:.3e})")
    return arr


def symmetric_sqrt(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Symmetric positive-definite square root via eigendecomposition."""
    w, v = np.linalg.eigh(mat)
    if w[-1] <= 0.0 or w[0] <= w[-1] / COND_LIMIT:
        raise IllConditionedError(
            f"{name} is not positive definite within conditioning limits "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return (v * np.sqrt(w)) @ v.T


def spd_inverse(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via eigendecomposition."""
    w, v = np.linalg.eigh(mat)
    if w[-1] <= 0.0 or w[0] <= w[-1] / COND_LIMIT:
        raise IllConditionedError(
            f"{name} is not invertible within conditioning limits "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return (v / w) @ v.T


class GaussianSampler:
    """Reproducible stream of N(0, covariance) draws.

    Args:
        seed: 64-bit integer or a ``numpy.random.SeedSequence`` (children
            derived by :meth:`split` pass a sequence).
        covariance: scalar variance or symmetric positive-definite matrix.
            ``None`` gives a raw standard-normal stream of dimension ``dim``.
        dim: dimension, required when ``covariance`` is ``None`` or scalar.
    """

    def __init__(self, seed, covariance=None, dim: int | None = None):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_sequence = seed
        else:
            seed = int(seed)
            if not 0 <= seed < MAX_SEED:
                raise ContractError(f"seed must be a 64-bit unsigned integer, got {seed}")
            self.seed_sequence = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(self.seed_sequence)
        if covariance is None:
            if dim is None:
                raise ContractError("dim is required when no covariance is given")
            self.covariance = None
            self._root = None
            self._dim = int(dim)
        else:
            self.covariance = as_covariance(covariance, dim)
            self._root = symmetric_sqrt(self.covariance)
            self._dim = self.covariance.shape[0]

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rng(self) -> np.random.Generator:
        """Underlying generator, for integer draws and shuffles."""
        return self._rng

    def draw(self, n: int) -> np.ndarray:
        """n correlated draws, shape (n, dim)."""
        z = self._rng.standard_normal((int(n), self._dim))
        if self._root is None:
            return z
        return z @ self._root  # root is symmetric, so rows are root @ z_i

    def normal(self, shape) -> np.ndarray:
        """Raw standard-normal draws of the given shape (covariance ignored)."""
        return self._rng.standard_normal(shape)

    def split(self, n: int) -> list["GaussianSampler"]:
        """Derive n independent child samplers sharing this covariance.

        Children depend deterministically on the seed and on how many
        times split() has been called, never on how many draws were taken.
        """
        children = self.seed_sequence.spawn(int(n))
        out = []
        for child_seq in children:
            if self.covariance is None:
                out.append(GaussianSampler(child_seq, dim=self._dim))
            else:
                out.append(GaussianSampler(child_seq, self.covariance))
        return out
